//! Child processes: the server under test and the `grow` tool.
//!
//! Every child is registered here, so that each exit path — a returned
//! error, a panic, the hard per-run timeout — stops and reaps it. Child
//! output goes to files, never to a pipe: a full pipe would stall the
//! logging server.

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::{exchange, Reply};

static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

fn children() -> std::sync::MutexGuard<'static, Vec<Child>> {
    // A panic while holding the lock leaves the list itself valid.
    CHILDREN.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn(bin: &Path, args: &[&str], out: &Path, err: &Path) -> Result<u32, String> {
    let open = |p: &Path| File::create(p).map_err(|e| format!("creating {}: {e}", p.display()));
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(open(out)?)
        .stderr(open(err)?)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let pid = child.id();
    children().push(child);
    Ok(pid)
}

/// `Some(status)` once `pid` has exited (and is reaped), `None` while it
/// runs or when it is not a registered child.
fn try_wait(pid: u32) -> Option<ExitStatus> {
    let mut list = children();
    let i = list.iter().position(|c| c.id() == pid)?;
    match list[i].try_wait() {
        Ok(Some(status)) => {
            // Already reaped; `wait` returns the cached status.
            let _ = list.remove(i).wait();
            Some(status)
        }
        _ => None,
    }
}

fn is_running(pid: u32) -> bool {
    children().iter().any(|c| c.id() == pid) && try_wait(pid).is_none()
}

fn kill(pid: u32) {
    let mut list = children();
    if let Some(i) = list.iter().position(|c| c.id() == pid) {
        let mut child = list.remove(i);
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Kills and reaps every registered child.
pub fn kill_all() {
    for mut child in children().drain(..) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn wait_exit(pid: u32, limit: Duration) -> Option<ExitStatus> {
    let t0 = Instant::now();
    while t0.elapsed() < limit {
        if let Some(status) = try_wait(pid) {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    None
}

/// The last few lines of a log file, for error messages.
pub fn tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

/// A running `webtable-serve serve`.
#[derive(Debug)]
pub struct Server {
    pid: u32,
    /// The address read from its `listening on` line.
    pub addr: SocketAddr,
    /// Generation it reported on start.
    pub generation: u64,
    /// Spawn to `listening on`.
    pub setup: Duration,
    /// Its standard output file.
    pub stdout: PathBuf,
    /// Its standard error file: warnings and the request log.
    pub stderr: PathBuf,
}

/// Parses `listening on ADDR generation N`.
fn parse_listening(stdout: &str) -> Option<(SocketAddr, u64)> {
    let line = stdout.lines().find(|l| l.starts_with("listening on "))?;
    let mut words = line.split_whitespace().skip(2);
    let addr = words.next()?.parse().ok()?;
    let generation = words.nth(1)?.parse().ok()?;
    Some((addr, generation))
}

impl Server {
    /// Starts `bin serve` on `data` with default flags and an ephemeral
    /// port, and waits for its `listening on` line. Output goes to
    /// `logs/<tag>.out` and `logs/<tag>.err`.
    pub fn start(
        bin: &Path,
        data: &Path,
        logs: &Path,
        tag: &str,
        limit: Duration,
    ) -> Result<Server, String> {
        let stdout = logs.join(format!("{tag}.out"));
        let stderr = logs.join(format!("{tag}.err"));
        let data_arg = data.to_str().ok_or("data dir path is not UTF-8")?;
        let t0 = Instant::now();
        let pid =
            spawn(bin, &["serve", "--data", data_arg, "--addr", "127.0.0.1:0"], &stdout, &stderr)?;
        loop {
            let text = std::fs::read_to_string(&stdout).unwrap_or_default();
            if let Some((addr, generation)) = parse_listening(&text) {
                let setup = t0.elapsed();
                return Ok(Server { pid, addr, generation, setup, stdout, stderr });
            }
            if let Some(status) = try_wait(pid) {
                return Err(format!(
                    "server `{tag}` exited early ({status}) before listening; stderr: {}",
                    tail(&stderr)
                ));
            }
            if t0.elapsed() > limit {
                kill(pid);
                return Err(format!(
                    "server `{tag}` never listened within {limit:?}; stderr: {}",
                    tail(&stderr)
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One request; a non-UTF-8 or unparsable response is an error.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        exchange(self.addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))
    }

    /// A 2xx request whose body is returned.
    pub fn ok(&self, method: &str, path: &str, body: &str) -> Result<String, String> {
        let reply = self.request(method, path, body)?;
        if (200..300).contains(&reply.status) {
            Ok(reply.body)
        } else {
            Err(format!("{method} {path}: HTTP {} {}", reply.status, reply.body))
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid);
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kb / 1024.0)
    }

    /// Fails with a named reason if the server has exited.
    pub fn check_alive(&self) -> Result<(), String> {
        if is_running(self.pid) {
            Ok(())
        } else {
            Err(format!("server exited during the run; stderr: {}", tail(&self.stderr)))
        }
    }

    /// `POST /admin/shutdown`, then waits for a clean exit; kills the
    /// process if it does not exit in time.
    pub fn shutdown(self) -> Result<(), String> {
        let pid = self.pid;
        let asked = exchange(self.addr, "POST", "/admin/shutdown", "");
        match wait_exit(pid, Duration::from_secs(10)) {
            Some(status) if status.success() && asked.is_ok() => Ok(()),
            Some(status) => Err(format!("server shut down uncleanly ({status})")),
            None => {
                kill(pid);
                Err("server ignored /admin/shutdown for 10 s and was killed".into())
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if is_running(self.pid) {
            let _ = exchange(self.addr, "POST", "/admin/shutdown", "");
            if wait_exit(self.pid, Duration::from_secs(2)).is_none() {
                kill(self.pid);
            }
        }
    }
}

/// Runs `bin args…` to completion (output to `logs/<tag>.out|.err`),
/// killing it after `limit`. Returns its wall time.
pub fn run_tool(
    bin: &Path,
    args: &[&str],
    logs: &Path,
    tag: &str,
    limit: Duration,
) -> Result<Duration, String> {
    let out = logs.join(format!("{tag}.out"));
    let err = logs.join(format!("{tag}.err"));
    let t0 = Instant::now();
    let pid = spawn(bin, args, &out, &err)?;
    match wait_exit(pid, limit) {
        Some(status) if status.success() => Ok(t0.elapsed()),
        Some(status) => Err(format!("`{tag}` failed ({status}): {}", tail(&err))),
        None => {
            kill(pid);
            Err(format!("`{tag}` did not finish within {limit:?}"))
        }
    }
}
