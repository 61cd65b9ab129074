//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!            --server PATH --work-dir DIR [--digest-only]`
//!
//! Runs one workload against a `webtable-serve` child process and prints
//! a report, then one JSON result line. `run.sh` builds both binaries
//! and supplies `--server` and `--work-dir`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use webtable_core::wire::Json;
use webtable_perfbench::inputs::{self, Workload};
use webtable_perfbench::proc;
use webtable_perfbench::run::{self, Config, Outcome, END_TO_END, PER_LAYER};

/// Pinned input digests, one `workload seed seconds digest` per line.
const PINS: &str = include_str!("../digests.tsv");
/// The whole run, from start to exit, must end within this.
const HARD_LIMIT: Duration = Duration::from_secs(170);

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload search|annotate|churn --seed N --seconds S --trace 0|1 \
         --server PATH --work-dir DIR [--digest-only]"
    );
    ExitCode::from(2)
}

struct Args {
    cfg: Config,
    digest_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut digest_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest-only" {
            digest_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.push((flag, value));
    }
    let get = |name: &str| {
        flags
            .iter()
            .rev()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("{name} is required"))
    };
    for (f, _) in &flags {
        if !["--workload", "--seed", "--seconds", "--trace", "--server", "--work-dir"]
            .contains(&f.as_str())
        {
            return Err(format!("unknown flag `{f}`"));
        }
    }
    let workload = get("--workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed: u64 = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let work_dir = PathBuf::from(get("--work-dir")?);
    let name = format!("{}-{seed}-{}", workload.name(), std::process::id());
    Ok(Args {
        cfg: Config {
            workload,
            seed,
            window: Duration::from_secs(seconds),
            trace,
            server_bin: PathBuf::from(get("--server")?),
            run_dir: work_dir.join(format!("run-{name}")),
            trace_path: work_dir.join(format!("trace-{name}.jsonl")),
            pins: PINS.to_string(),
        },
        digest_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let cfg = args.cfg;
    let run_dir = cfg.run_dir.clone();
    {
        let run_dir = run_dir.clone();
        std::thread::spawn(move || {
            std::thread::sleep(HARD_LIMIT);
            eprintln!("perfbench: hard timeout after {HARD_LIMIT:?}; stopping");
            proc::kill_all();
            let _ = std::fs::remove_dir_all(&run_dir);
            std::process::exit(3);
        });
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    let result = if args.digest_only {
        inputs::generate(cfg.workload, cfg.seed, cfg.window, &run_dir.join("data")).map(|i| {
            println!("{} {} {} {}", cfg.workload.name(), cfg.seed, cfg.window.as_secs(), i.digest);
            None
        })
    } else {
        match std::panic::catch_unwind(|| run::run(&cfg)) {
            Ok(r) => r.map(Some),
            Err(_) => Err("the benchmark panicked".into()),
        }
    };
    proc::kill_all();
    match result {
        Ok(None) => {
            let _ = std::fs::remove_dir_all(&run_dir);
            ExitCode::SUCCESS
        }
        // A printed result exits 0; its `correct` field carries the verdict.
        Ok(Some(outcome)) => {
            if report(&cfg, &outcome) {
                let _ = std::fs::remove_dir_all(&run_dir);
            } else {
                let _ = std::fs::remove_dir_all(run_dir.join("data"));
                eprintln!("perfbench: run is not correct; logs kept in {}", run_dir.display());
            }
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprintln!("perfbench: {reason}");
            eprintln!("perfbench: logs kept in {}", run_dir.display());
            ExitCode::FAILURE
        }
    }
}

/// Prints the report and the JSON result line; returns correctness.
fn report(cfg: &Config, out: &Outcome) -> bool {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.window.as_secs(),
        u8::from(cfg.trace)
    );
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<32} {:>14.4} {:<6} {}/{} operations",
        "failed_frac", failed_frac, "ratio", out.failed, out.attempted
    );
    for m in &out.metrics {
        println!("  {:<32} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for f in &out.failures {
        println!("  FAILURE: {f}");
    }
    let names: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for &name in names {
        match out.metrics.iter().find(|m| m.name == name).filter(|m| m.value.is_finite()) {
            Some(m) => metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )),
            None => missing.push(name),
        }
    }
    if !missing.is_empty() {
        println!("  FAILURE: metrics not measured: {}", missing.join(", "));
    }
    let correct =
        out.failures.is_empty() && out.failed == 0 && missing.is_empty() && out.attempted > 0;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::usize(out.attempted)),
        ("failed".into(), Json::usize(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.encode());
    correct
}
