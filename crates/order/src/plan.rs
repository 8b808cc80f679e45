//! [`QueryPlan`] — the per-query bundle the enumeration engines consume.
//!
//! A plan fixes everything that is decided *before* the recursive search
//! starts: the enumeration order π (§VI), the execution order σ (§IV), the
//! intersection operands K1/K2 (§V), and the symmetry-breaking constraints
//! (§II-A). The four engine variants of the evaluation (SE / LM / MSC /
//! LIGHT, §VIII-B1) are exactly the four combinations of
//! `{eager, lazy} × {plain, set-cover}` plans over the *same* π, which is
//! how the paper isolates each technique.

use light_graph::stats::{compute_stats, GraphStats};
use light_graph::CsrGraph;
use light_pattern::small_graph::bits;
use light_pattern::symmetry::VertexConstraints;
use light_pattern::{PartialOrder, PatternGraph, PatternVertex};

use crate::anchor::{anchor_info, AnchorInfo};
use crate::auxplan::{plan_trims, TrimDirective, DEFAULT_AUX_THRESHOLD};
use crate::cost::choose_order;
use crate::estimate::Estimator;
use crate::exec_order::ExecutionOrder;
use crate::setcover::{generate_operands, Operands};

/// Whether materialization is deferred (§IV) in a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialization {
    /// SE-style: MAT immediately after COMP.
    Eager,
    /// LIGHT-style: MAT deferred until a COMP needs the binding.
    Lazy,
}

/// How candidate-set operands are derived in a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStrategy {
    /// SE-style: intersect the neighbor lists of all backward neighbors.
    BackwardNeighbors,
    /// LIGHT-style: minimum-set-cover operands (Algorithm 3).
    MinSetCover,
}

/// A fully resolved query plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pattern: PatternGraph,
    exec: ExecutionOrder,
    operands: Vec<Operands>,
    anchors: AnchorInfo,
    partial_order: PartialOrder,
    constraints: Vec<VertexConstraints>,
    materialization: Materialization,
    strategy: CandidateStrategy,
    aux: Vec<TrimDirective>,
    aux_for: Vec<Option<u8>>,
}

impl QueryPlan {
    /// The paper's full LIGHT pipeline: derive the symmetry-breaking partial
    /// order, estimate cardinalities from `g`'s statistics, pick the best
    /// connected order by Equation 8, and build a lazy, set-cover plan.
    pub fn optimized(pattern: &PatternGraph, g: &CsrGraph) -> QueryPlan {
        Self::optimized_with(
            pattern,
            g,
            Materialization::Lazy,
            CandidateStrategy::MinSetCover,
        )
    }

    /// Like [`QueryPlan::optimized`] but with explicit variant knobs —
    /// used to build the SE / LM / MSC engines over the same π.
    pub fn optimized_with(
        pattern: &PatternGraph,
        g: &CsrGraph,
        materialization: Materialization,
        strategy: CandidateStrategy,
    ) -> QueryPlan {
        Self::optimized_tuned(pattern, g, materialization, strategy, DEFAULT_AUX_THRESHOLD)
    }

    /// [`QueryPlan::optimized_with`] with an explicit auxiliary-cache
    /// benefit threshold (entries whose estimated reuse falls below it get
    /// no [`TrimDirective`]; see [`crate::auxplan`]).
    pub fn optimized_tuned(
        pattern: &PatternGraph,
        g: &CsrGraph,
        materialization: Materialization,
        strategy: CandidateStrategy,
        aux_threshold: f64,
    ) -> QueryPlan {
        Self::from_stats(
            pattern,
            &compute_stats(g),
            PartialOrder::for_pattern(pattern),
            materialization,
            strategy,
            aux_threshold,
        )
    }

    /// The optimizer proper: estimate cardinalities from `stats`, pick the
    /// best connected order under `partial_order` by Equation 8, and build
    /// the plan. Every `optimized*` constructor is "compute the stats of
    /// `g`, then this"; a caller that already holds the graph's stats (the
    /// serve catalog keeps them per generation) plans without touching the
    /// graph.
    pub fn from_stats(
        pattern: &PatternGraph,
        stats: &GraphStats,
        partial_order: PartialOrder,
        materialization: Materialization,
        strategy: CandidateStrategy,
        aux_threshold: f64,
    ) -> QueryPlan {
        let est = Estimator::from_stats(stats);
        let pi = choose_order(pattern, &partial_order, &est);
        Self::build(
            pattern,
            &pi,
            partial_order,
            materialization,
            strategy,
            Some(&est),
            aux_threshold,
        )
    }

    /// Build a plan over an explicit enumeration order (tests, simulators,
    /// and the paper's "same π for SE/LM/MSC/LIGHT" experiments). With no
    /// data graph to estimate against, every structurally eligible slot
    /// gets a trim directive.
    pub fn with_order(
        pattern: &PatternGraph,
        pi: &[PatternVertex],
        partial_order: PartialOrder,
        materialization: Materialization,
        strategy: CandidateStrategy,
    ) -> QueryPlan {
        Self::build(
            pattern,
            pi,
            partial_order,
            materialization,
            strategy,
            None,
            DEFAULT_AUX_THRESHOLD,
        )
    }

    fn build(
        pattern: &PatternGraph,
        pi: &[PatternVertex],
        partial_order: PartialOrder,
        materialization: Materialization,
        strategy: CandidateStrategy,
        est: Option<&Estimator>,
        aux_threshold: f64,
    ) -> QueryPlan {
        let exec = match materialization {
            Materialization::Eager => ExecutionOrder::eager(pattern, pi),
            Materialization::Lazy => ExecutionOrder::generate(pattern, pi),
        };
        debug_assert!(exec.validate(pattern).is_ok());
        let operands = match strategy {
            CandidateStrategy::MinSetCover => generate_operands(pattern, pi),
            CandidateStrategy::BackwardNeighbors => plain_operands(pattern, pi),
        };
        let anchors = anchor_info(pattern, &exec);
        let constraints = partial_order.per_vertex(pattern.num_vertices());
        let aux = plan_trims(pattern, &exec, &operands, est, aux_threshold);
        let mut aux_for = vec![None; pattern.num_vertices()];
        for (i, d) in aux.iter().enumerate() {
            aux_for[d.target as usize] = Some(i as u8);
        }
        QueryPlan {
            pattern: *pattern,
            exec,
            operands,
            anchors,
            partial_order,
            constraints,
            materialization,
            strategy,
            aux,
            aux_for,
        }
    }

    /// The pattern this plan answers.
    pub fn pattern(&self) -> &PatternGraph {
        &self.pattern
    }

    /// The enumeration order π.
    pub fn pi(&self) -> &[PatternVertex] {
        self.exec.pi()
    }

    /// The execution order σ (Algorithm 2).
    pub fn sigma(&self) -> &[crate::exec_order::ExecOp] {
        self.exec.sigma()
    }

    /// The full execution-order object.
    pub fn execution_order(&self) -> &ExecutionOrder {
        &self.exec
    }

    /// Intersection operands per pattern vertex (indexed by vertex ID).
    pub fn operands(&self) -> &[Operands] {
        &self.operands
    }

    /// Anchor/free vertex information (Definition IV.1).
    pub fn anchors(&self) -> &AnchorInfo {
        &self.anchors
    }

    /// The symmetry-breaking partial order.
    pub fn partial_order(&self) -> &PartialOrder {
        &self.partial_order
    }

    /// Per-vertex symmetry constraints for bind-time checking.
    pub fn constraints(&self) -> &[VertexConstraints] {
        &self.constraints
    }

    /// The materialization mode of this plan.
    pub fn materialization(&self) -> Materialization {
        self.materialization
    }

    /// The candidate-operand strategy of this plan.
    pub fn strategy(&self) -> CandidateStrategy {
        self.strategy
    }

    /// Auxiliary-cache trim directives (see [`crate::auxplan`]).
    pub fn aux_directives(&self) -> &[TrimDirective] {
        &self.aux
    }

    /// The index into [`QueryPlan::aux_directives`] targeting pattern
    /// vertex `u`, if its COMP is memoizable.
    #[inline]
    pub fn aux_for(&self, u: PatternVertex) -> Option<usize> {
        self.aux_for[u as usize].map(|i| i as usize)
    }

    /// Expected set intersections along a single root-to-leaf search path:
    /// `Σ_u w_u` (compare Fig. 2b's "2 → 1" on the diamond).
    pub fn per_path_intersections(&self) -> usize {
        self.operands.iter().map(|o| o.intersections()).sum()
    }

    /// Human-readable plan description (used by `light plan` and debugging).
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let p = &self.pattern;
        let _ = writeln!(
            s,
            "pattern: {} vertices, {} edges {:?}",
            p.num_vertices(),
            p.num_edges(),
            p.edges()
        );
        let _ = writeln!(
            s,
            "variant: {:?} materialization, {:?} operands",
            self.materialization, self.strategy
        );
        let _ = writeln!(s, "partial order: {:?}", self.partial_order.pairs());
        let _ = writeln!(s, "enumeration order pi: {:?}", self.pi());
        let _ = writeln!(s, "execution order sigma: {:?}", self.sigma());
        for u in p.vertices() {
            let ops = &self.operands[u as usize];
            if ops.num_operands() == 0 {
                let _ = writeln!(s, "  C(u{u}) = V(G)  [root]");
            } else {
                let k1: Vec<String> = ops.k1.iter().map(|w| format!("N(phi(u{w}))")).collect();
                let k2: Vec<String> = ops.k2.iter().map(|w| format!("C(u{w})")).collect();
                let all = [k1, k2].concat().join(" \u{2229} ");
                let _ = writeln!(
                    s,
                    "  C(u{u}) = {all}  [{} intersection(s); anchors {:?}]",
                    ops.intersections(),
                    bits(self.anchors.anchors[u as usize]).collect::<Vec<_>>()
                );
            }
        }
        let _ = writeln!(
            s,
            "per-path set intersections: {}",
            self.per_path_intersections()
        );
        for d in &self.aux {
            let _ = writeln!(
                s,
                "  aux: memoize C(u{}) by phi(u{}) [anchor slot {}, guard slot {}, est reuse {:.1}]",
                d.target, d.key, d.anchor_slot, d.guard_slot, d.est_reuse
            );
        }
        s
    }
}

/// SE's operand rule: `K1 = N+^π(u)`, `K2 = ∅` (Algorithm 1, line 14).
pub fn plain_operands(p: &PatternGraph, pi: &[PatternVertex]) -> Vec<Operands> {
    let mut out = vec![Operands::default(); p.num_vertices()];
    for i in 1..pi.len() {
        let u = pi[i];
        out[u as usize] = Operands {
            k1: bits(p.backward_neighbors(pi, i)).collect(),
            k2: Vec::new(),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use light_graph::generators;
    use light_pattern::Query;

    fn small_graph() -> CsrGraph {
        generators::barabasi_albert(500, 4, 3)
    }

    #[test]
    fn optimized_plan_shape() {
        let g = small_graph();
        for q in Query::ALL {
            let p = q.pattern();
            let plan = QueryPlan::optimized(&p, &g);
            assert_eq!(plan.pi().len(), p.num_vertices());
            assert_eq!(plan.sigma().len(), 2 * p.num_vertices() - 1);
            assert_eq!(plan.operands().len(), p.num_vertices());
            assert!(plan.pattern().is_connected_order(plan.pi()));
        }
    }

    #[test]
    fn variant_matrix() {
        let g = small_graph();
        let p = Query::P2.pattern();
        let se = QueryPlan::optimized_with(
            &p,
            &g,
            Materialization::Eager,
            CandidateStrategy::BackwardNeighbors,
        );
        let light = QueryPlan::optimized_with(
            &p,
            &g,
            Materialization::Lazy,
            CandidateStrategy::MinSetCover,
        );
        // Same π (same optimizer inputs), different σ and operands.
        assert_eq!(se.pi(), light.pi());
        assert!(se.per_path_intersections() >= light.per_path_intersections());
    }

    #[test]
    fn plain_operands_match_backward_neighbors() {
        let p = Query::P2.pattern();
        let pi = [0u8, 2, 1, 3];
        let ops = plain_operands(&p, &pi);
        assert_eq!(ops[1].k1, vec![0, 2]);
        assert_eq!(ops[3].k1, vec![0, 2]);
        assert_eq!(ops[2].k1, vec![0]);
        assert!(ops.iter().all(|o| o.k2.is_empty()));
    }

    #[test]
    fn per_path_reduction_matches_paper_example() {
        // Diamond with π = (u0,u2,u1,u3): SE does 2 intersections per path,
        // LIGHT (MSC) does 1 (Fig. 2b).
        let p = Query::P2.pattern();
        let pi = [0u8, 2, 1, 3];
        let po = Query::P2.partial_order();
        let se = QueryPlan::with_order(
            &p,
            &pi,
            po.clone(),
            Materialization::Eager,
            CandidateStrategy::BackwardNeighbors,
        );
        let light = QueryPlan::with_order(
            &p,
            &pi,
            po,
            Materialization::Lazy,
            CandidateStrategy::MinSetCover,
        );
        assert_eq!(se.per_path_intersections(), 2);
        assert_eq!(light.per_path_intersections(), 1);
    }

    #[test]
    fn constraints_are_exposed() {
        let g = small_graph();
        let plan = QueryPlan::optimized(&Query::P2.pattern(), &g);
        let c = plan.constraints();
        assert_eq!(c.len(), 4);
        // Diamond partial order: 0<2 and 1<3.
        assert_eq!(c[2].must_be_larger_than, vec![0]);
        assert_eq!(c[3].must_be_larger_than, vec![1]);
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use light_graph::generators;
    use light_pattern::Query;

    #[test]
    fn explain_mentions_the_assignment() {
        // The diamond plan contains the Example V.1 assignment
        // C(u3) := C(u1) — a zero-intersection line.
        let g = generators::barabasi_albert(300, 4, 3);
        let plan = QueryPlan::optimized(&Query::P2.pattern(), &g);
        let text = plan.explain();
        assert!(text.contains("C(u3) = C(u1)"), "{text}");
        assert!(text.contains("per-path set intersections: 1"), "{text}");
        assert!(text.contains("[root]"), "{text}");
    }
}
