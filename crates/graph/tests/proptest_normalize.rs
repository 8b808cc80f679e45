//! Normalization-contract property tests.
//!
//! The workspace's single normalization point for untrusted edge input is
//! [`GraphBuilder`]: self-loops are dropped, endpoint order canonicalized,
//! duplicates deduplicated, and every adjacency list comes out strictly
//! sorted. Everything downstream *relies* on that instead of re-checking —
//! binary-search `contains_edge`, the set-intersection kernels, symmetry
//! breaking, and above all the delta-CSR overlay, whose patched-list merge
//! assumes deduped sorted adjacency on both sides.
//!
//! The loaders split into two classes (documented in `light_graph::io`):
//!
//! * **normalizing** — the text edge-list reader feeds every edge through
//!   `GraphBuilder`, so arbitrary dup/loop-laden input loads fine;
//! * **verifying** — the heap snapshot decoders (v1 and v2) run the full
//!   [`CsrGraph::validate`] and *reject* unnormalized adjacency with a
//!   typed error rather than silently fixing it (a snapshot claiming dups
//!   is corrupt, not sloppy). The zero-copy mapped path checks structure
//!   only and trusts `light convert` output by design.
//!
//! These properties pin all three behaviors plus the delta-overlay
//! assumption so a future loader can't quietly diverge.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use light_graph::builder::from_edges;
use light_graph::delta::DeltaGraph;
use light_graph::io::{from_snapshot, read_edge_list};
use light_graph::types::Edge;

/// Edge lists over a small ID range: collisions guarantee duplicates, and
/// `a == b` self-loops occur with probability 1/24 per edge.
fn dirty_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..24, 0u32..24), 0..120)
}

/// Reference semantics: the set of canonical non-loop edges.
fn reference_set(edges: &[(u32, u32)]) -> BTreeSet<Edge> {
    edges
        .iter()
        .map(|&(a, b)| Edge::canonical(a, b))
        .filter(|e| !e.is_loop())
        .collect()
}

proptest! {
    #[test]
    fn builder_normalizes_any_input(edges in dirty_edges()) {
        let g = from_edges(edges.clone());
        prop_assert!(g.validate().is_ok(), "{:?}", g.validate());
        let set = reference_set(&edges);
        prop_assert_eq!(g.num_edges(), set.len());
        for e in &set {
            prop_assert!(g.contains_edge(e.src, e.dst));
        }
        // Strictly sorted adjacency — the exact property binary search and
        // the delta overlay's `binary_search`-based patching depend on.
        for v in g.vertices() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "vertex {v}");
        }
    }

    #[test]
    fn edge_list_reader_matches_builder(edges in dirty_edges()) {
        // The text loader must be exactly GraphBuilder normalization —
        // same dedup, same loop-dropping, same vertex-set growth.
        let mut text = String::new();
        for &(a, b) in &edges {
            text.push_str(&format!("{a} {b}\n"));
        }
        let loaded = read_edge_list(text.as_bytes()).unwrap();
        prop_assert_eq!(loaded, from_edges(edges));
    }

    #[test]
    fn delta_merges_preserve_normalization(
        base in dirty_edges(),
        batch_dels in dirty_edges(),
        batch_ins in dirty_edges(),
    ) {
        // Any apply() over a builder-normalized base — itself fed dirty
        // request lists — must yield a merged CSR that still passes the
        // full invariant check, pre- and post-compaction.
        let mut d = DeltaGraph::new(Arc::new(from_edges(base)));
        d.apply(&batch_dels, &batch_ins);
        prop_assert!(d.merged_arc().validate().is_ok());
        let compacted = d.compact();
        prop_assert!(compacted.validate().is_ok());
        d.apply(&batch_ins, &batch_dels);
        prop_assert!(d.merged_arc().validate().is_ok());
    }
}

/// A hand-forged v1 snapshot whose adjacency carries `neighbors`, with
/// `degrees` per vertex. Lets the test inject dups and self-loops that
/// no writer (they all start from a normalized graph) produces.
fn forge_v1(degrees: &[u64], neighbors: &[u32]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"LIGHTCSR");
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&(degrees.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(neighbors.len() as u64).to_le_bytes());
    for d in degrees {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    for n in neighbors {
        buf.extend_from_slice(&n.to_le_bytes());
    }
    buf
}

#[test]
fn heap_snapshot_decoder_rejects_unnormalized_adjacency() {
    // Duplicate neighbor: vertex 0 lists vertex 1 twice.
    let dup = forge_v1(&[2, 2], &[1, 1, 0, 0]);
    let err = from_snapshot(&dup).unwrap_err();
    assert!(err.to_string().contains("strictly sorted"), "{err}");

    // Self-loop: vertex 0 lists itself.
    let looped = forge_v1(&[2, 1], &[0, 1, 0]);
    let err = from_snapshot(&looped).unwrap_err();
    assert!(err.to_string().contains("self-loop"), "{err}");

    // Asymmetry: 0 lists 1 but 1 does not list 0.
    let asym = forge_v1(&[1, 0], &[1]);
    let err = from_snapshot(&asym).unwrap_err();
    assert!(err.to_string().contains("not symmetric"), "{err}");

    // The same body normalized loads fine — the decoder verifies, it does
    // not normalize.
    let ok = forge_v1(&[1, 1], &[1, 0]);
    let g = from_snapshot(&ok).unwrap();
    assert_eq!(g.num_edges(), 1);
}
