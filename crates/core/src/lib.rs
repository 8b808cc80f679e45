#![warn(missing_docs)]

//! # light-core — the LIGHT subgraph-enumeration engines
//!
//! This crate implements the paper's enumeration algorithms as one
//! σ-interpreting recursive executor ([`engine::Enumerator`]) parameterized
//! by a [`light_order::QueryPlan`]:
//!
//! | Variant | Materialization | Candidate operands | Paper |
//! |---------|-----------------|--------------------|-------|
//! | `SE`    | eager           | backward neighbors | Algorithm 1 |
//! | `LM`    | lazy            | backward neighbors | §IV only |
//! | `MSC`   | eager           | minimum set cover  | §V only |
//! | `LIGHT` | lazy            | minimum set cover  | Algorithm 2 + 3 |
//!
//! All variants share the same π (produced by the §VI optimizer), the same
//! symmetry-breaking constraint checks, and the same intersection kernels —
//! exactly the controlled comparison of §VIII-B1.
//!
//! Matches are *emitted*, not stored (as in the paper's experiments); the
//! [`visitor::MatchVisitor`] abstraction lets callers count, collect, or
//! stop early.
//!
//! ```
//! use light_core::{run_query, EngineConfig};
//! use light_graph::generators;
//! use light_pattern::Query;
//!
//! let g = generators::complete(6); // K6
//! let report = run_query(&Query::Triangle.pattern(), &g, &EngineConfig::light());
//! assert_eq!(report.matches, 20); // C(6,3) distinct triangles
//! ```

pub mod auxcache;
pub mod cancel;
pub mod config;
pub mod delta_count;
pub mod engine;
pub mod error;
pub mod pool;
pub mod reference;
pub mod report;
pub mod visitor;

pub use auxcache::AuxCache;
pub use cancel::CancelToken;
pub use config::{EngineConfig, EngineVariant};
pub use delta_count::{automorphism_count, count_raw_through, raw_delta};
pub use engine::Enumerator;
pub use error::{validate_query, EnumError, QueryError};
pub use pool::{BufferPool, PoolStats};
pub use report::{AuxStats, EnumStats, Outcome, Report};
pub use visitor::{CollectVisitor, CountVisitor, FirstKVisitor, MatchVisitor};

use light_graph::CsrGraph;
use light_pattern::PatternGraph;

/// Plan and run a query end to end, counting matches.
///
/// This is the main entry point: it derives the symmetry-breaking partial
/// order, optimizes the enumeration order against `g`'s statistics, builds
/// the plan for `config.variant`, and enumerates.
///
/// # Panics
/// On invalid patterns (disconnected, edgeless). Use
/// [`run_query_checked`] for a `Result`-returning variant.
pub fn run_query(pattern: &PatternGraph, g: &CsrGraph, config: &EngineConfig) -> Report {
    let plan = config.plan(pattern, g);
    let mut visitor = CountVisitor::default();
    engine::run_plan(&plan, g, config, &mut visitor)
}

/// [`run_query`] with input validation instead of panics.
pub fn run_query_checked(
    pattern: &PatternGraph,
    g: &CsrGraph,
    config: &EngineConfig,
) -> Result<Report, QueryError> {
    validate_query(pattern, g.num_vertices())?;
    Ok(run_query(pattern, g, config))
}

/// Plan and run a query, collecting every match (test/demo use — match sets
/// can be enormous; the paper's experiments never store them).
pub fn run_query_collecting(
    pattern: &PatternGraph,
    g: &CsrGraph,
    config: &EngineConfig,
) -> (Report, Vec<Vec<light_graph::VertexId>>) {
    let plan = config.plan(pattern, g);
    let mut visitor = CollectVisitor::default();
    let report = engine::run_plan(&plan, g, config, &mut visitor);
    (report, visitor.into_matches())
}
