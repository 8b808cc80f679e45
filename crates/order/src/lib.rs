#![warn(missing_docs)]

//! # light-order — query planning for the LIGHT reproduction
//!
//! LIGHT separates *planning* (done once per query, on the tiny pattern
//! graph) from *enumeration* (the hot recursive search). This crate is the
//! planning half:
//!
//! * [`exec_order`] — Algorithm 2's `GenerateExecutionOrder`: turn an
//!   enumeration order `π` into an execution order `σ` of COMP/MAT
//!   operations implementing lazy materialization (§IV).
//! * [`anchor`] — anchor and free vertices (Definition IV.1) of each pattern
//!   vertex given `π` and `σ`, used by the cost model and verified against
//!   Proposition IV.1.
//! * [`setcover`] — Algorithm 3's `GenerateOperands`: the minimum-set-cover
//!   conversion that computes each candidate set from cached candidate sets
//!   (`K2`) plus neighbor lists of mapped vertices (`K1`) (§V).
//! * [`estimate`] — the SEED-style expand-factor cardinality estimator used
//!   to fill `|R(P')|` in the cost model (§VI), driven by cheap data-graph
//!   statistics.
//! * [`cost`] — Equation 8 and the exhaustive connected-order optimizer with
//!   symmetry-breaking pruning and partial-order tie-breaking (§VI).
//! * [`auxplan`] — the auxiliary-cache planning pass: which COMPs profit
//!   from memoizing trimmed adjacency lists across sibling subtrees, decided
//!   with the same Eq. 8 expand factors.
//! * [`plan`] — [`plan::QueryPlan`], the bundle the engines consume.
//!
//! ```
//! use light_order::plan::QueryPlan;
//! use light_pattern::Query;
//! use light_graph::generators;
//!
//! let g = generators::barabasi_albert(300, 4, 7);
//! let plan = QueryPlan::optimized(&Query::P2.pattern(), &g);
//! assert_eq!(plan.pi().len(), 4);
//! // σ interleaves COMP and MAT operations; every vertex appears in both.
//! assert_eq!(plan.sigma().len(), 2 * 4 - 1); // first vertex has no COMP
//! ```

pub mod anchor;
pub mod anchored;
pub mod auxplan;
pub mod cost;
pub mod estimate;
pub mod exec_order;
pub mod plan;
pub mod setcover;

pub use anchored::{anchor_pairs, anchored_plan, anchored_plans, AnchoredPlan};
pub use auxplan::{TrimDirective, DEFAULT_AUX_THRESHOLD};
pub use exec_order::{ExecOp, ExecutionOrder};
pub use plan::QueryPlan;
