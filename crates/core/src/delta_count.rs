//! Incremental (delta) count maintenance: count only the embeddings that
//! an edge batch created or destroyed, instead of recounting the graph.
//!
//! ## The differential identity
//!
//! Let `raw(G)` be the number of **raw** embeddings of pattern `P` in `G`
//! — injective homomorphisms, no symmetry folding, so
//! `raw(G) = reduced(G) × |Aut(P)|`. For a batch that deletes edge set
//! `D ⊆ E(G₀)` from the pre-batch graph `G₀` and inserts edge set `I`
//! (absent after the deletes) yielding the post-batch graph `G₂`:
//!
//! ```text
//! raw(G₂) = raw(G₀) − through(G₀, D) + through(G₂, I)
//! ```
//!
//! where `through(G, S)` counts embeddings in `G` that use at least one
//! edge of `S` — every destroyed embedding existed in `G₀` and used a
//! deleted edge; every created embedding exists in `G₂` and uses an
//! inserted edge; nothing else changes. [`DeltaGraph::apply`] reports
//! exactly these `D`/`I` sets (an edge deleted and re-inserted in one
//! batch appears in both, and its surviving embeddings cancel).
//!
//! ## Counting `through(G, S)` without double counting
//!
//! For each edge `{a, b} ∈ S` (in list order, rank = index) and each
//! *ordered* adjacent pattern pair `(pu, pv)`, run the edge-anchored plan
//! (`light_order::anchored`) with symmetry breaking **off** and a bind
//! filter pinning `φ(pu) = a, φ(pv) = b`, rooted at `a` only
//! ([`Enumerator::run_range`]`(a, a+1)`). Injectivity means at most one
//! pattern edge maps onto a given data edge, so each embedding through
//! `{a, b}` is found under exactly one ordered pair. Embeddings through
//! *several* batch edges are deduplicated by **min-rank anchoring**: the
//! visitor discards any embedding that also uses a batch edge of smaller
//! rank than the one currently anchored — that embedding was (or will be)
//! counted at its minimal edge.
//!
//! Symmetry breaking must stay off here (anchoring fixes an orientation
//! that the degree-ordered partial order would sometimes reject), which is
//! also why mutated graphs are *not* re-normalized to degree order — raw
//! counting never relies on it. Work per batch is proportional to the
//! matches through the delta (the ROADMAP item 3 / CEMR argument), not to
//! the graph.
//!
//! [`DeltaGraph::apply`]: light_graph::delta::DeltaGraph::apply

use std::collections::HashMap;
use std::ops::ControlFlow;

use light_graph::types::Edge;
use light_graph::{CsrGraph, VertexId};
use light_order::anchored::anchored_plans;
use light_pattern::automorphism::automorphisms;
use light_pattern::PatternGraph;

use crate::config::EngineConfig;
use crate::engine::Enumerator;
use crate::visitor::MatchVisitor;

/// `|Aut(P)|` — the raw-to-reduced count ratio.
pub fn automorphism_count(pattern: &PatternGraph) -> u64 {
    automorphisms(pattern).len() as u64
}

/// Counts embeddings, discarding any whose image uses a batch edge of
/// rank lower than the currently anchored one (see module docs).
struct MinRankCount<'a> {
    pattern_edges: &'a [(u8, u8)],
    rank: &'a HashMap<Edge, usize>,
    current: usize,
    count: u64,
}

impl MatchVisitor for MinRankCount<'_> {
    fn on_match(&mut self, phi: &[VertexId]) -> ControlFlow<()> {
        for &(x, y) in self.pattern_edges {
            let img = Edge::canonical(phi[x as usize], phi[y as usize]);
            if let Some(&r) = self.rank.get(&img) {
                if r < self.current {
                    return ControlFlow::Continue(());
                }
            }
        }
        self.count += 1;
        ControlFlow::Continue(())
    }
}

/// Count raw embeddings of `pattern` in `g` that use at least one edge of
/// `edges`, each counted exactly once. `edges` must be canonical and
/// present in `g` (the [`ApplyReport`] lists qualify); absent or
/// out-of-range edges contribute zero matches but still cost two anchored
/// probes.
///
/// `cfg` supplies the execution knobs (variant, kernel, δ, aux cache);
/// its symmetry and bind-filter settings are overridden — symmetry off,
/// per-edge pin.
///
/// [`ApplyReport`]: light_graph::delta::ApplyReport
pub fn count_raw_through(
    pattern: &PatternGraph,
    g: &CsrGraph,
    edges: &[Edge],
    cfg: &EngineConfig,
) -> u64 {
    if edges.is_empty() {
        return 0;
    }
    let (mat, strat) = cfg.variant.knobs();
    let plans = anchored_plans(pattern, mat, strat);
    let pattern_edges = pattern.edges();
    let rank: HashMap<Edge, usize> = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let n = g.num_vertices() as VertexId;

    let mut total = 0u64;
    for (i, e) in edges.iter().enumerate() {
        let (a, b) = (e.src, e.dst);
        if a >= n || b >= n {
            continue;
        }
        for ap in &plans {
            let (pu, pv) = (ap.pu, ap.pv);
            let run_cfg = cfg
                .clone()
                .symmetry(false)
                .filter(move |u, v| (u != pu || v == a) && (u != pv || v == b));
            let mut visitor = MinRankCount {
                pattern_edges: &pattern_edges,
                rank: &rank,
                current: i,
                count: 0,
            };
            Enumerator::new(&ap.plan, g, &run_cfg, &mut visitor).run_range(a, a + 1);
            total += visitor.count;
        }
    }
    total
}

/// One batch's effect on the raw embedding count: `(destroyed, created)`.
///
/// `pre` is the graph before the batch, `post` after; `deleted`/`inserted`
/// are the edges whose presence actually changed (the normalized
/// [`ApplyReport`] lists). The caller updates its running count as
/// `raw += created − destroyed`.
///
/// [`ApplyReport`]: light_graph::delta::ApplyReport
pub fn raw_delta(
    pattern: &PatternGraph,
    pre: &CsrGraph,
    post: &CsrGraph,
    deleted: &[Edge],
    inserted: &[Edge],
    cfg: &EngineConfig,
) -> (u64, u64) {
    let destroyed = count_raw_through(pattern, pre, deleted, cfg);
    let created = count_raw_through(pattern, post, inserted, cfg);
    (destroyed, created)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_query;
    use light_graph::delta::DeltaGraph;
    use light_graph::generators;
    use light_pattern::Query;
    use std::sync::Arc;

    /// Full-recount reference: raw embeddings by symmetry-off enumeration.
    fn raw_full(pattern: &PatternGraph, g: &CsrGraph) -> u64 {
        run_query(pattern, g, &EngineConfig::light().symmetry(false)).matches
    }

    #[test]
    fn raw_equals_reduced_times_aut() {
        let g = generators::barabasi_albert(120, 3, 5);
        for q in [Query::Triangle, Query::P1, Query::P2] {
            let p = q.pattern();
            let reduced = run_query(&p, &g, &EngineConfig::light()).matches;
            assert_eq!(
                raw_full(&p, &g),
                reduced * automorphism_count(&p),
                "{}",
                q.name()
            );
        }
    }

    #[test]
    fn through_counts_triangles_of_one_new_edge() {
        // K4 minus edge (0,1): adding it back closes exactly 2 triangles,
        // i.e. 2 × |Aut(triangle)| = 12 raw embeddings through the edge.
        let mut d = DeltaGraph::new(Arc::new(light_graph::builder::from_edges([
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
        ])));
        let rep = d.apply(&[], &[(0, 1)]);
        let post = d.merged_arc();
        let p = Query::Triangle.pattern();
        let through = count_raw_through(&p, &post, &rep.inserted, &EngineConfig::light());
        assert_eq!(through, 12);
        assert_eq!(raw_full(&p, &post) - raw_full(&p, d.base()), 12);
    }

    #[test]
    fn batch_identity_holds_over_random_sequences() {
        for (seed, q) in [Query::Triangle, Query::P1, Query::P2]
            .into_iter()
            .enumerate()
        {
            let p = q.pattern();
            let cfg = EngineConfig::light();
            let base = generators::erdos_renyi(48, 130, 9 + seed as u64);
            let mut d = DeltaGraph::new(Arc::new(base));
            let mut raw = raw_full(&p, d.base());
            // A few adversarial batches: overlapping inserts/deletes,
            // re-inserted edges, batch edges sharing endpoints.
            type Batch<'a> = (&'a [(u32, u32)], &'a [(u32, u32)]);
            let batches: [Batch; 4] = [
                (&[], &[(0, 1), (0, 2), (1, 2), (3, 50)]),
                (&[(0, 1), (5, 6)], &[(0, 1), (4, 50), (5, 50)]),
                (&[(3, 50)], &[(2, 3), (2, 4), (3, 4)]),
                (&[(0, 2), (1, 2)], &[]),
            ];
            for (dels, ins) in batches {
                let pre = d.merged_arc();
                let rep = d.apply(dels, ins);
                let post = d.merged_arc();
                let (destroyed, created) =
                    raw_delta(&p, &pre, &post, &rep.deleted, &rep.inserted, &cfg);
                raw = raw - destroyed + created;
                assert_eq!(raw, raw_full(&p, &post), "{} after batch", q.name());
                assert_eq!(raw % automorphism_count(&p), 0);
            }
        }
    }

    #[test]
    fn min_rank_anchoring_handles_overlapping_batch_edges() {
        // Insert a whole triangle at once: its three edges are all batch
        // edges, and the new triangle must be counted exactly once (at its
        // min-rank edge), not three times.
        let base = generators::path(6);
        let mut d = DeltaGraph::new(Arc::new(base));
        let rep = d.apply(&[], &[(0, 2), (2, 4), (0, 4)]);
        let post = d.merged_arc();
        let p = Query::Triangle.pattern();
        let through = count_raw_through(&p, &post, &rep.inserted, &EngineConfig::light());
        assert_eq!(raw_full(&p, d.base()), 0);
        assert_eq!(through, raw_full(&p, &post));
    }
}
