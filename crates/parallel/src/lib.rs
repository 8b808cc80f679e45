#![warn(missing_docs)]

//! # light-parallel — SMT parallelization of LIGHT (§VII-B)
//!
//! The paper parallelizes the DFS by treating partial results as tasks and
//! balancing load with *sender-initiated* work stealing through a global
//! concurrent queue: busy workers watch for idle workers, and when the queue
//! is empty they donate part of their own work and wake the idlers (after
//! Acar et al. [2], Rao & Kumar [20]).
//!
//! This crate implements that scheduler:
//!
//! * tasks are root-vertex ranges `[lo, hi)` of `C_φ(π[1]) = V(G)`;
//! * each worker owns a warm [`light_core::Enumerator`] (buffers persist
//!   across tasks) and processes its range one root vertex at a time;
//! * between roots, a busy worker that can claim an idle worker's demand
//!   ticket splits its remaining range in half, pushes one half onto its
//!   own deque for thieves to take, and wakes a sleeper — the donation
//!   path;
//! * idle workers park on a condvar; the run terminates when every queue
//!   is empty and no task is in progress.
//!
//! Memory stays `O(k · n · d_max)` for `k` workers — each worker holds one
//! partial result and one candidate set per pattern vertex — which is the
//! paper's core argument against BFS-style parallelism.
//!
//! ```
//! use light_parallel::{run_query_parallel, ParallelConfig};
//! use light_core::EngineConfig;
//! use light_graph::generators;
//! use light_pattern::Query;
//!
//! let g = generators::complete(8);
//! let pr = run_query_parallel(
//!     &Query::Triangle.pattern(),
//!     &g,
//!     &EngineConfig::light(),
//!     &ParallelConfig::new(4),
//! );
//! assert_eq!(pr.report.matches, 56); // C(8,3)
//! ```

pub mod scheduler;

pub use scheduler::{
    compute_stats_parallel, run_plan_parallel, run_query_parallel, BalancePolicy, CpuSlot,
    CpuTopology, ParallelConfig, ParallelReport, StealTier, TopologyMode, WorkerStats,
};
