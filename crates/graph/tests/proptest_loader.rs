//! Adversarial-input property tests for the graph loaders.
//!
//! The robustness contract of `light_graph::io` (see its module docs) is
//! that *no* byte sequence — corrupted, truncated, non-UTF-8, or with
//! hostile length fields — may panic a loader or drive an unbounded
//! allocation; bad input must come back as a typed `GraphIoError`. These
//! tests throw random garbage and random mutations of valid files at both
//! formats.
//!
//! Digit runs are bounded (vertex ids ≤ 7 digits) so the *accepting* cases
//! stay cheap: the loader caps ids at `MAX_EDGE_LIST_VERTEX_ID`, but ids
//! just under the cap still allocate ~256M-entry degree arrays, which is
//! correct behaviour yet too slow for a property-test inner loop.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use light_graph::builder::from_edges;
use light_graph::csr::CsrGraph;
use light_graph::io::{from_snapshot, read_edge_list, to_snapshot_v2, GraphIoError};

/// One token of edge-list "soup": usually a digit run, sometimes a comment
/// marker, a malformed number, or raw (possibly non-UTF-8) noise.
fn token() -> impl Strategy<Value = Vec<u8>> {
    (0u32..10, proptest::collection::vec(0u8..=255u8, 1..8)).prop_map(|(kind, raw)| match kind {
        0..=4 => raw.iter().map(|b| b'0' + b % 10).collect(),
        5 => b"#".to_vec(),
        6 => b"%".to_vec(),
        7 => b"-3".to_vec(),
        8 => b"99999999999999999999".to_vec(),
        _ => raw,
    })
}

/// Token separator: space, newline, tab, or CRLF.
fn sep() -> impl Strategy<Value = &'static [u8]> {
    (0u32..8).prop_map(|kind| -> &'static [u8] {
        match kind {
            0..=3 => b" ",
            4 | 5 => b"\n",
            6 => b"\t",
            _ => b"\r\n",
        }
    })
}

/// Bytes skewed toward edge-list-looking content.
fn edge_list_soup() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((token(), sep()), 0..40).prop_map(|pairs| {
        let mut out = Vec::new();
        for (t, s) in pairs {
            out.extend_from_slice(&t);
            out.extend_from_slice(s);
        }
        out
    })
}

fn raw_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255u8, 0..max)
}

fn small_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..48, 0u32..48), 0..100)
}

/// The legacy v1 layout (`LIGHTCSR`, version 1, n, directed, degrees,
/// neighbors). The library reads it but has no writer for it, so the v1
/// cases below feed the decoder from here.
fn forge_v1(g: &CsrGraph) -> Vec<u8> {
    let degrees: Vec<u64> = g.vertices().map(|v| g.degree(v) as u64).collect();
    let mut buf = b"LIGHTCSR".to_vec();
    buf.extend(1u32.to_le_bytes());
    buf.extend((degrees.len() as u64).to_le_bytes());
    buf.extend(degrees.iter().sum::<u64>().to_le_bytes());
    buf.extend(degrees.iter().flat_map(|d| d.to_le_bytes()));
    buf.extend(
        g.vertices()
            .flat_map(|v| g.neighbors(v))
            .flat_map(|u| u.to_le_bytes()),
    );
    buf
}

proptest! {
    #[test]
    fn edge_list_never_panics_on_soup(bytes in edge_list_soup()) {
        // Ok or typed Err are both fine; returning without unwinding is
        // the property (the harness reports any panic with its case seed).
        let _ = read_edge_list(&bytes[..]);
    }

    #[test]
    fn edge_list_never_panics_on_raw_bytes(bytes in raw_bytes(512)) {
        let _ = read_edge_list(&bytes[..]);
    }

    #[test]
    fn edge_list_errors_carry_reachable_locations(bytes in edge_list_soup()) {
        match read_edge_list(&bytes[..]) {
            Ok(_) => {}
            Err(GraphIoError::MalformedLine { line, offset, .. })
            | Err(GraphIoError::BadVertexId { line, offset, .. })
            | Err(GraphIoError::NonUtf8 { line, offset }) => {
                prop_assert!(line >= 1);
                prop_assert!((offset as usize) < bytes.len());
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error class: {e}"))),
        }
    }

    #[test]
    fn snapshot_never_panics_on_truncation(edges in small_edges(), keep in 0usize..4096) {
        let snap = forge_v1(&from_edges(edges));
        if from_snapshot(&snap[..keep.min(snap.len())]).is_ok() {
            // Only a full-length slice may load.
            prop_assert!(keep >= snap.len());
        }
    }

    #[test]
    fn snapshot_never_panics_on_mutation(
        edges in small_edges(),
        flips in proptest::collection::vec((0usize..4096, 0u8..=255u8), 1..8),
    ) {
        let mut bytes = forge_v1(&from_edges(edges));
        if bytes.is_empty() {
            return Ok(());
        }
        for (pos, val) in flips {
            let i = pos % bytes.len();
            bytes[i] ^= val;
        }
        // A mutated snapshot either fails a structural check or still
        // yields a *valid* CSR (e.g. an XOR that cancels out or flips a
        // neighbor id while keeping sortedness) — never a panic, never an
        // allocation past the payload size.
        if let Ok(g) = from_snapshot(&bytes) {
            prop_assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn snapshot_never_panics_on_raw_bytes(bytes in raw_bytes(256)) {
        let _ = from_snapshot(&bytes);
    }

    // ---- LIGHTCSR v2 mirrors of the cases above. The v2 layout has more
    // hostile surface (section pointers, a recorded total length, padding)
    // so the same properties run against `to_snapshot_v2` output.

    #[test]
    fn snapshot_v2_roundtrips(edges in small_edges()) {
        let g = from_edges(edges);
        let back = from_snapshot(&to_snapshot_v2(&g))
            .map_err(|e| TestCaseError::fail(format!("v2 roundtrip rejected: {e}")))?;
        prop_assert_eq!(back, g);
    }

    #[test]
    fn snapshot_v2_never_panics_on_truncation(edges in small_edges(), keep in 0usize..16384) {
        let snap = to_snapshot_v2(&from_edges(edges));
        let cut = keep.min(snap.len());
        if from_snapshot(&snap[..cut]).is_ok() {
            // Only a full-length slice may load.
            prop_assert!(cut >= snap.len());
        }
    }

    #[test]
    fn snapshot_v2_never_panics_on_mutation(
        edges in small_edges(),
        flips in proptest::collection::vec((0usize..16384, 0u8..=255u8), 1..8),
    ) {
        let mut bytes = to_snapshot_v2(&from_edges(edges));
        for (pos, val) in flips {
            let i = pos % bytes.len();
            bytes[i] ^= val;
        }
        // Same contract as v1: structural rejection or a still-valid CSR,
        // never a panic and never an allocation past the payload size.
        if let Ok(g) = from_snapshot(&bytes) {
            prop_assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn snapshot_v2_header_field_fuzzing_never_panics(
        edges in small_edges(),
        field in 0usize..7,
        value in 0u64..u64::MAX,
    ) {
        // Overwrite one whole header field (version+flags, n, directed,
        // offsets_pos, neighbors_pos, total_len, reserved) with an
        // arbitrary value: the parser must bounds-check every field
        // combination without panicking or over-allocating.
        let mut bytes = to_snapshot_v2(&from_edges(edges));
        bytes[8 + field * 8..16 + field * 8].copy_from_slice(&value.to_le_bytes());
        if let Ok(g) = from_snapshot(&bytes) {
            prop_assert!(g.validate().is_ok());
        }
    }
}
