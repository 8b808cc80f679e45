//! Property tests for the graph substrate: CSR invariants, relabeling
//! correctness, serialization round trips over arbitrary edge lists, and the
//! incremental stats step against the full pass.

use proptest::prelude::*;

use std::sync::Arc;

use light_graph::builder::from_edges;
use light_graph::delta::DeltaGraph;
use light_graph::io::{from_snapshot, read_edge_list, to_snapshot_v2, write_edge_list};
use light_graph::ordered::{into_degree_ordered, is_degree_ordered};
use light_graph::stats::{compute_stats, count_triangles, degree_histogram};

fn edge_list() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..64, 0u32..64), 0..200)
}

/// One update batch on a small, dense vertex space: `(deletes, inserts,
/// mirrored, compact)`. The first `mirrored` deletes are also inserted
/// (same edge in both lists); IDs up to 15 over a base on 0..12 grow the
/// vertex space; random edges make no-op duplicates and missing deletes.
type Batch = (Vec<(u32, u32)>, Vec<(u32, u32)>, usize, u8);

fn batches() -> impl Strategy<Value = Vec<Batch>> {
    let edges = || proptest::collection::vec((0u32..16, 0u32..16), 0..10);
    proptest::collection::vec((edges(), edges(), 0usize..4, 0u8..2), 0..6)
}

proptest! {
    #[test]
    fn incremental_stats_equal_the_full_pass(
        base in proptest::collection::vec((0u32..12, 0u32..12), 0..45),
        batches in batches(),
    ) {
        let mut delta = DeltaGraph::new(Arc::new(from_edges(base)));
        let mut graph = delta.merged_arc();
        let mut stats = compute_stats(&graph);
        for (deletes, mut inserts, mirrored, compact) in batches {
            inserts.extend(deletes.iter().take(mirrored).copied());
            let report = delta.apply(&deletes, &inserts);
            let post = delta.merged_arc();
            stats = stats.after_update(&graph, &post, &report.deleted, &report.inserted);
            prop_assert_eq!(stats, compute_stats(&post));
            graph = if compact == 1 { delta.compact() } else { post };
        }
    }

    #[test]
    fn builder_output_always_validates(edges in edge_list()) {
        let g = from_edges(edges);
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn edge_count_matches_distinct_input(edges in edge_list()) {
        let g = from_edges(edges.clone());
        let mut canon: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        canon.sort_unstable();
        canon.dedup();
        prop_assert_eq!(g.num_edges(), canon.len());
        for (a, b) in canon {
            prop_assert!(g.contains_edge(a, b));
            prop_assert!(g.contains_edge(b, a));
        }
    }

    #[test]
    fn degree_sum_is_twice_edges(edges in edge_list()) {
        let g = from_edges(edges);
        let sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
        let hist = degree_histogram(&g);
        let hist_sum: usize = hist.iter().enumerate().map(|(d, c)| d * c).sum();
        prop_assert_eq!(hist_sum, sum);
    }

    #[test]
    fn relabeling_preserves_structure(edges in edge_list()) {
        let g = from_edges(edges);
        if g.num_vertices() == 0 {
            return Ok(());
        }
        let (h, mapping) = into_degree_ordered(&g);
        prop_assert!(is_degree_ordered(&h));
        prop_assert_eq!(g.num_edges(), h.num_edges());
        prop_assert_eq!(g.num_vertices(), h.num_vertices());
        for (u, v) in g.edges() {
            prop_assert!(h.contains_edge(mapping[u as usize], mapping[v as usize]));
        }
        // Degrees are preserved pointwise under the mapping.
        for v in g.vertices() {
            prop_assert_eq!(g.degree(v), h.degree(mapping[v as usize]));
        }
        // Triangle count is an isomorphism invariant.
        prop_assert_eq!(count_triangles(&g), count_triangles(&h));
    }

    #[test]
    fn snapshot_roundtrip(edges in edge_list()) {
        let g = from_edges(edges);
        let g2 = from_snapshot(&to_snapshot_v2(&g)).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_text_roundtrip(edges in edge_list()) {
        let g = from_edges(edges);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        // Text round trip may drop trailing isolated vertices (they appear
        // in no edge); compare edge sets and validate both.
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
    }

    #[test]
    fn stats_are_internally_consistent(edges in edge_list()) {
        let g = from_edges(edges);
        let s = compute_stats(&g);
        prop_assert_eq!(s.num_edges, g.num_edges());
        prop_assert!(s.clustering >= 0.0 && s.clustering <= 1.0);
        // Wedge count >= 3 * triangles (each triangle closes 3 wedges).
        prop_assert!(s.wedges >= 3 * s.triangles);
        if s.num_vertices > 0 {
            // E[d^2] >= E[d]^2 (Jensen).
            prop_assert!(s.degree_second_moment + 1e-9 >= s.avg_degree * s.avg_degree);
        }
    }
}
