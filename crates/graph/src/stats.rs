//! Graph statistics used by the cardinality estimator (`light-order`) and by
//! dataset validation.
//!
//! The SEED-style expand-factor estimator needs cheap global statistics:
//! average degree, second moment of the degree distribution (how skewed the
//! graph is), and wedge/triangle counts (how likely an added pattern edge is
//! to close).

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::csr::CsrGraph;
use crate::types::{Edge, VertexId};

/// Summary statistics of a data graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `N`.
    pub num_vertices: usize,
    /// Number of undirected edges `M`.
    pub num_edges: usize,
    /// Maximum degree `d_max`.
    pub max_degree: usize,
    /// Average degree `2M / N`.
    pub avg_degree: f64,
    /// Second moment of the degree distribution, `E[d^2]`.
    pub degree_second_moment: f64,
    /// Number of wedges (paths of length 2), `Σ_v C(d(v), 2)`.
    pub wedges: u64,
    /// Number of triangles.
    pub triangles: u64,
    /// Global clustering coefficient `3*triangles / wedges` (0 if no wedges).
    pub clustering: f64,
}

impl GraphStats {
    /// The stats of `g` given its exact triangle count (the caller's
    /// promise): one `O(|V|)` degree loop. Every path to a `GraphStats`
    /// ends here, so the full pass and the incremental step agree on every
    /// field, floats included.
    pub fn with_triangles(g: &CsrGraph, triangles: u64) -> GraphStats {
        let n = g.num_vertices();
        let mut sum_d2 = 0.0f64;
        let mut wedges = 0u64;
        for v in g.vertices() {
            let d = g.degree(v) as u64;
            sum_d2 += (d * d) as f64;
            wedges += d * (d.saturating_sub(1)) / 2;
        }
        let clustering = if wedges == 0 {
            0.0
        } else {
            3.0 * triangles as f64 / wedges as f64
        };
        GraphStats {
            num_vertices: n,
            num_edges: g.num_edges(),
            max_degree: g.max_degree(),
            avg_degree: g.avg_degree(),
            degree_second_moment: if n == 0 { 0.0 } else { sum_d2 / n as f64 },
            wedges,
            triangles,
            clustering,
        }
    }

    /// The stats of `post`, from the stats of `pre` (`self`) and exactly the
    /// edges whose presence changed between the two — equal, field for
    /// field, to `compute_stats(post)` at `O(|V| + Σ_{changed e} (d(u) +
    /// d(v)))` instead of the full triangle pass.
    ///
    /// `deleted` (present in `pre`) is applied before `inserted` (present
    /// in `post`), both canonical, sorted and duplicate-free: the
    /// [`ApplyReport`](crate::delta::ApplyReport) lists. Triangles are
    /// maintained as `prev − destroyed + created`, where a triangle that
    /// several batch edges share is destroyed at the first of them to go
    /// and created at the last of them to arrive.
    pub fn after_update(
        &self,
        pre: &CsrGraph,
        post: &CsrGraph,
        deleted: &[Edge],
        inserted: &[Edge],
    ) -> GraphStats {
        // A wedge through an edge deleted earlier in the batch is already
        // gone; one through an edge inserted later is not there yet.
        let destroyed = triangles_through(pre, deleted, |wedge, current| wedge < current);
        let created = triangles_through(post, inserted, |wedge, current| wedge > current);
        GraphStats::with_triangles(post, self.triangles - destroyed + created)
    }
}

/// Compute all statistics: the serial triangle pass plus the degree loop.
/// The load-time pass, and the oracle [`GraphStats::after_update`] is tested
/// against. `light-parallel` runs the same [`TrianglePass`] on its workers.
pub fn compute_stats(g: &CsrGraph) -> GraphStats {
    GraphStats::with_triangles(g, count_triangles(g))
}

/// Exact triangle count by forward neighbor intersection: for each edge
/// `(u, v)` with `u < v`, intersect the higher-ID tails of `N(u)` and `N(v)`.
/// Every triangle `{a < b < c}` is counted exactly once at edge `(a, b)`.
pub fn count_triangles(g: &CsrGraph) -> u64 {
    TrianglePass::new(g).run()
}

/// One exact triangle count over `g`, shareable between threads: every
/// [`TrianglePass::run`] claims chunks of root vertices from one cursor
/// until none are left, and the runs' results sum to the count. One call
/// is the serial pass.
#[derive(Debug)]
pub struct TrianglePass<'g> {
    g: &'g CsrGraph,
    cursor: AtomicUsize,
}

impl<'g> TrianglePass<'g> {
    /// Root vertices a run claims at a time: small enough that the hubs of
    /// a skewed graph spread over the workers, large enough that the shared
    /// cursor is touched once per few thousand intersections.
    const CHUNK: usize = 256;

    /// A pass over `g` with every root vertex unclaimed.
    pub fn new(g: &'g CsrGraph) -> Self {
        TrianglePass {
            g,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Count the triangles rooted in the chunks this call claims.
    pub fn run(&self) -> u64 {
        let (g, n) = (self.g, self.g.num_vertices());
        let mut count = 0u64;
        loop {
            // Relaxed: the cursor only hands out disjoint ranges of an
            // immutable graph; the counts travel back through `join`.
            let lo = self.cursor.fetch_add(Self::CHUNK, Ordering::Relaxed);
            if lo >= n {
                return count;
            }
            for u in lo..(lo + Self::CHUNK).min(n) {
                let u = u as VertexId;
                let nu = g.neighbors(u);
                // Neighbors above u (forward edges).
                let fwd_u = &nu[nu.partition_point(|&x| x <= u)..];
                for &v in fwd_u {
                    let nv = g.neighbors(v);
                    let fwd_v = &nv[nv.partition_point(|&x| x <= v)..];
                    for_each_common(fwd_u, fwd_v, |_| count += 1);
                }
            }
        }
    }
}

/// Triangles of `g` that use at least one edge of `batch` (sorted,
/// duplicate-free, present in `g`), each counted once: at batch edge `i`
/// a common neighbor `w` is skipped when `hidden(j, i)` holds for the batch
/// position `j` of either wedge edge.
fn triangles_through(g: &CsrGraph, batch: &[Edge], hidden: impl Fn(usize, usize) -> bool) -> u64 {
    debug_assert!(batch.windows(2).all(|w| w[0] < w[1]));
    let mut count = 0u64;
    for (i, e) in batch.iter().enumerate() {
        let skip = |a: VertexId, w: VertexId| {
            batch
                .binary_search(&Edge::canonical(a, w))
                .is_ok_and(|j| hidden(j, i))
        };
        for_each_common(g.neighbors(e.src), g.neighbors(e.dst), |w| {
            if !skip(e.src, w) && !skip(e.dst, w) {
                count += 1;
            }
        });
    }
    count
}

/// Call `f` on every common element of two sorted, duplicate-free slices,
/// by merging.
#[inline]
fn for_each_common(a: &[VertexId], b: &[VertexId], mut f: impl FnMut(VertexId)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Histogram of degrees, `hist[d] = #vertices with degree d`.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.vertices() {
        hist[g.degree(v)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn triangles_in_complete_graph() {
        // K_n has C(n,3) triangles.
        for n in [3usize, 4, 5, 6, 8] {
            let g = generators::complete(n);
            let expect = (n * (n - 1) * (n - 2) / 6) as u64;
            assert_eq!(count_triangles(&g), expect, "K_{n}");
        }
    }

    #[test]
    fn triangles_in_triangle_free_graphs() {
        assert_eq!(count_triangles(&generators::cycle(8)), 0);
        assert_eq!(count_triangles(&generators::star(10)), 0);
        assert_eq!(count_triangles(&generators::grid(4, 4)), 0);
    }

    #[test]
    fn stats_on_k4() {
        let g = generators::complete(4);
        let s = compute_stats(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 6);
        assert_eq!(s.triangles, 4);
        assert_eq!(s.wedges, 4 * 3); // each vertex: C(3,2)=3 wedges
        assert!((s.clustering - 1.0).abs() < 1e-9);
        assert!((s.degree_second_moment - 9.0).abs() < 1e-9);
    }

    #[test]
    fn batch_edges_sharing_a_triangle_count_it_once() {
        use crate::delta::DeltaGraph;
        use std::sync::Arc;
        // K4: delete two edges of triangle {0,1,2}; then, in one batch,
        // delete and re-insert the third, put the two back and hang a new
        // vertex on edge (1,2).
        let pre = Arc::new(generators::complete(4));
        let mut d = DeltaGraph::new(Arc::clone(&pre));
        let rep = d.apply(&[(0, 1), (1, 2)], &[]);
        let mid = d.merged_arc();
        let s_mid = compute_stats(&pre).after_update(&pre, &mid, &rep.deleted, &rep.inserted);
        assert_eq!(s_mid, compute_stats(&mid));
        assert_eq!(s_mid.triangles, 1);

        let rep = d.apply(&[(0, 2)], &[(0, 1), (1, 2), (0, 2), (1, 4), (2, 4)]);
        let post = d.merged_arc();
        let s_post = s_mid.after_update(&mid, &post, &rep.deleted, &rep.inserted);
        assert_eq!(s_post, compute_stats(&post));
        assert_eq!(s_post.triangles, 5);
    }

    #[test]
    fn degree_histogram_star() {
        let g = generators::star(5);
        let h = degree_histogram(&g);
        assert_eq!(h[1], 5);
        assert_eq!(h[5], 1);
    }

    #[test]
    fn clustering_zero_without_wedges() {
        let g = crate::builder::from_edges([(0, 1)]);
        let s = compute_stats(&g);
        assert_eq!(s.wedges, 0);
        assert_eq!(s.clustering, 0.0);
    }
}
