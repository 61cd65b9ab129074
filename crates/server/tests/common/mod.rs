//! Shared scaffolding for the server integration tests: a demo data
//! directory plus a running in-process server.
//!
//! Each test binary compiles this module independently and uses a
//! different subset of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use webtable_server::demo;
use webtable_server::server::{serve, ServerConfig, ServerHandle};
use webtable_server::state::{load_generation, AppState, RetryPolicy};

pub const SEED: u64 = 11;

/// A running server over a fresh demo data dir; cleans up on drop.
pub struct TestServer {
    pub dir: PathBuf,
    pub handle: Option<ServerHandle>,
    pub addr: String,
}

impl TestServer {
    pub fn start(name: &str) -> TestServer {
        TestServer::start_with_retry(name, RetryPolicy::default())
    }

    /// [`start`](TestServer::start) with a custom swap retry policy —
    /// chaos tests use [`RetryPolicy::immediate`] so failing swaps
    /// never sleep.
    pub fn start_with_retry(name: &str, policy: RetryPolicy) -> TestServer {
        TestServer::launch(name, policy, "127.0.0.1:0")
    }

    /// [`start`](TestServer::start) bound to `bind` instead of an
    /// ephemeral loopback port.
    pub fn start_on(name: &str, bind: &str) -> TestServer {
        TestServer::launch(name, RetryPolicy::default(), bind)
    }

    fn launch(name: &str, policy: RetryPolicy, bind: &str) -> TestServer {
        let dir = std::env::temp_dir().join(format!("webtable-srv-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        demo::prepare_data_dir(&dir, SEED).expect("prepare demo data");
        let initial = load_generation(&dir, 2).expect("load generation 1");
        let mut state = AppState::new(dir.clone(), initial, Duration::from_secs(30));
        state.swap_retry = policy;
        let config = ServerConfig { workers: 4, queue_depth: 64, log_requests: false };
        let handle = serve(bind, Arc::new(state), config).expect("bind");
        let addr = handle.addr().to_string();
        TestServer { dir, handle: Some(handle), addr }
    }

    /// The ready-made search body `prepare_data_dir` writes for smoke
    /// tests — a query whose answers change across generations' corpora.
    pub fn sample_query(&self) -> String {
        std::fs::read_to_string(self.dir.join("sample-query.json")).expect("sample query")
    }

    pub fn state(&self) -> &Arc<AppState> {
        self.handle.as_ref().unwrap().state()
    }

    /// Request with transient-failure retries (the default for tests).
    pub fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        webtable_server::client::request_with_retry(&self.addr, method, path, body, 10)
            .expect("request")
    }

    /// One raw exchange, no retries — for asserting transient statuses
    /// (409 `swap_in_progress`, 503 `queue_full`) that
    /// [`request`](TestServer::request) would retry away.
    pub fn request_raw(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        webtable_server::client::request(&self.addr, method, path, body).expect("request")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
