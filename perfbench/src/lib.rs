//! Serving benchmark for `webtable-serve`. See `README.md` next to this
//! package's manifest for the workloads, the metrics and how to run it.

pub mod client;
pub mod inputs;
pub mod loadgen;
pub mod proc;
pub mod replay;
pub mod run;
pub mod sched;
pub mod stats;
pub mod trace;
