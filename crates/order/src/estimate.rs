//! SEED-style expand-factor cardinality estimation (§VI).
//!
//! Equation 8 needs `|R(P')|` for vertex-induced subgraphs `P'` of the
//! pattern, and `α` (the per-intersection cost weight). Following the paper,
//! we adopt SEED's [13] approach: simulate constructing the matches of `P'`
//! one extension at a time and multiply *expand factors* derived from data-
//! graph statistics. The statistics come from [`light_graph::stats`]:
//!
//! * `d_biased = E[d²]/E[d]` — the expected degree of a vertex reached by
//!   following a random edge (size-biased degree), which is what an
//!   extension from a mapped vertex sees on skewed graphs;
//! * `closure` — the probability that an *additional* backward edge closes,
//!   estimated by the global clustering coefficient with the uniform edge
//!   probability `d̄/N` as a floor.
//!
//! `α` is "the maximum value of all expand factors" (§VI), giving the
//! computation term a higher weight than materialization, as the paper
//! argues a set intersection is much more expensive than binding a vertex.

use light_graph::stats::GraphStats;
use light_pattern::small_graph::bits;
use light_pattern::PatternGraph;

/// Cardinality estimator built from data-graph statistics.
#[derive(Debug, Clone, Copy)]
pub struct Estimator {
    n: f64,
    d_avg: f64,
    d_biased: f64,
    closure: f64,
}

impl Estimator {
    /// Build from precomputed statistics.
    pub fn from_stats(s: &GraphStats) -> Self {
        let n = (s.num_vertices as f64).max(1.0);
        let d_avg = s.avg_degree.max(1e-9);
        let d_biased = if s.avg_degree > 0.0 {
            (s.degree_second_moment / s.avg_degree).min(n)
        } else {
            0.0
        };
        let uniform = (d_avg / n).min(1.0);
        let closure = s.clustering.max(uniform).min(1.0);
        Estimator {
            n,
            d_avg,
            d_biased,
            closure,
        }
    }

    /// Expand factor of one extension step that adds a vertex with `b >= 1`
    /// backward edges: reach a neighbor (size-biased degree), then close the
    /// remaining `b - 1` edges.
    pub fn expand_factor(&self, b: usize) -> f64 {
        debug_assert!(b >= 1);
        self.d_biased * self.closure.powi(b as i32 - 1)
    }

    /// Estimate `|R(P[mask])|` — matches of the vertex-induced subgraph of
    /// `p` on `mask` — by a vertex-at-a-time construction simulation.
    /// Handles disconnected masks by treating each connected component as an
    /// independent start (factor `N` each), and the empty mask as 1.
    pub fn cardinality(&self, p: &PatternGraph, mask: u16) -> f64 {
        if mask == 0 {
            return 1.0;
        }
        let mut remaining = mask;
        let mut total = 1.0f64;
        while remaining != 0 {
            // Start a new component at the remaining vertex of max induced
            // degree (stabilizes the greedy construction order).
            let start = bits(remaining)
                .max_by_key(|&v| (p.neighbors_mask(v) & mask).count_ones())
                .unwrap();
            total *= self.n;
            let mut placed = 1u16 << start;
            remaining &= !placed;
            // Grow the component: repeatedly add the unplaced vertex with
            // the most backward edges into `placed` (>= 1 keeps it
            // connected).
            loop {
                let next = bits(remaining)
                    .filter(|&v| p.neighbors_mask(v) & placed != 0)
                    .max_by_key(|&v| (p.neighbors_mask(v) & placed).count_ones());
                let Some(v) = next else { break };
                let b = (p.neighbors_mask(v) & placed).count_ones() as usize;
                total *= self.expand_factor(b);
                placed |= 1 << v;
                remaining &= !(1 << v);
            }
        }
        total.max(1.0)
    }

    /// `α`: the maximum expand factor over a construction of the full
    /// pattern (§VI uses the max of all expand factors so the computation
    /// term dominates).
    pub fn alpha(&self, p: &PatternGraph) -> f64 {
        // The largest factor is always the first extension (b = 1, no
        // closure discount) as closure <= 1, so α = d_biased unless the
        // pattern is a single vertex.
        if p.num_vertices() <= 1 {
            1.0
        } else {
            self.expand_factor(1).max(1.0)
        }
    }

    /// Number of data vertices (exposed for the simulators).
    pub fn num_vertices(&self) -> f64 {
        self.n
    }

    /// Average degree (exposed for the simulators).
    pub fn avg_degree(&self) -> f64 {
        self.d_avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use light_graph::stats::compute_stats;
    use light_graph::{generators, CsrGraph};
    use light_pattern::Query;

    fn est(g: &CsrGraph) -> Estimator {
        Estimator::from_stats(&compute_stats(g))
    }

    #[test]
    fn empty_mask_is_one() {
        let g = generators::complete(10);
        let e = est(&g);
        assert_eq!(e.cardinality(&Query::P2.pattern(), 0), 1.0);
    }

    #[test]
    fn singleton_is_n() {
        let g = generators::complete(10);
        let e = est(&g);
        assert!((e.cardinality(&Query::P2.pattern(), 0b0001) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn exact_on_complete_graphs() {
        // On K_n the estimator is exact for cliques: d_biased = n-1,
        // closure = 1, so |R(K_k)| = n (n-1)^(k-1) ... which counts ordered
        // walks; exact ordered-match count is n!/(n-k)!. The estimate must
        // be within a factor (1 + k/n)^k — sanity check the ballpark.
        let g = generators::complete(30);
        let e = est(&g);
        let tri = e.cardinality(&PatternGraph::complete(3), 0b0111);
        let exact = 30.0 * 29.0 * 28.0; // ordered triangles
        assert!(
            tri >= exact && tri < exact * 1.2,
            "est {tri} vs exact {exact}"
        );
    }

    #[test]
    fn denser_subpatterns_estimate_smaller() {
        // On a sparse graph, adding an edge to the pattern must reduce the
        // estimated count (closure <= 1).
        let g = generators::barabasi_albert(3000, 4, 5);
        let e = est(&g);
        let square = Query::P1.pattern();
        let diamond = Query::P2.pattern();
        let full = square.full_mask();
        assert!(e.cardinality(&diamond, full) <= e.cardinality(&square, full));
    }

    #[test]
    fn monotone_in_mask() {
        // A sub-mask of a pattern never estimates above the full pattern by
        // more than the expansion of the missing vertices... at minimum,
        // larger masks over a clique estimate larger.
        let g = generators::barabasi_albert(2000, 6, 9);
        let e = est(&g);
        let p = Query::P7.pattern();
        let c2 = e.cardinality(&p, 0b00011);
        let c3 = e.cardinality(&p, 0b00111);
        assert!(c2 >= 1.0 && c3 >= 1.0);
    }

    #[test]
    fn disconnected_mask_multiplies_components() {
        // P1 (square): {u0, u2} induces no edge -> estimate N * N.
        let g = generators::erdos_renyi(100, 300, 1);
        let e = est(&g);
        let p = Query::P1.pattern();
        let est_pair = e.cardinality(&p, 0b0101);
        assert!((est_pair - 100.0 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_is_biased_degree() {
        let g = generators::barabasi_albert(1000, 3, 2);
        let e = est(&g);
        let a = e.alpha(&Query::P2.pattern());
        assert!(a >= e.avg_degree(), "alpha {a} < avg degree");
    }

    #[test]
    fn skewed_graphs_have_higher_biased_degree() {
        let ba = est(&generators::barabasi_albert(2000, 3, 7));
        let er = est(&generators::erdos_renyi(2000, 6000, 7));
        // Same average degree (~6); the BA graph's size-biased degree must
        // be clearly larger.
        assert!(ba.d_biased > 1.5 * er.d_biased);
    }
}
