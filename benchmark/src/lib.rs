//! The benchmark harness of the LIGHT reproduction: seeded inputs, the six
//! workloads driven through the `light` binary and its NDJSON socket, the
//! correctness gate, and the statistics every reported number goes
//! through. See `README.md` beside this crate for the metric glossary.
//!
//! Nothing here links the workspace: the program under test is only ever
//! a child process.

pub mod catalog;
pub mod cli;
pub mod client;
pub mod compare;
pub mod gen;
pub mod host;
pub mod json;
pub mod oneshot;
pub mod oracle;
pub mod proc;
pub mod rng;
pub mod run;
pub mod serve;
pub mod stats;
pub mod workload;

use run::{Env, RunResult};
use workload::{Traffic, Workload};

/// Run one workload end to end (untraced) and remove its scratch files,
/// also when it fails.
pub fn run_workload(env: &Env, w: &'static Workload) -> Result<RunResult, String> {
    let result = match w.traffic {
        Traffic::OneShot => oneshot::run(env, w),
        _ => serve::run(env, w),
    };
    // Dropping a failed run's daemon handle has killed and reaped it; the
    // socket and the fixtures (the compacted `churn` copy among them) go
    // with the directory.
    let _ = std::fs::remove_dir_all(env.work_dir(w));
    result
}
