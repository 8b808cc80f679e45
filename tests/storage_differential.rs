//! Storage-backend differential tests: an mmap-backed `LIGHTCSR` v2 graph
//! must be indistinguishable from its heap-decoded twin everywhere the
//! engine can observe — identical structure, identical counts across the
//! full pattern catalog (serial and parallel, aux cache on and off), and
//! identical typed-error behavior on corrupt input.
//!
//! Lives in the root package so the CI failpoint leg re-runs it with fault
//! injection compiled in.

use light::core::EngineConfig;
use light::graph::io::{load_snapshot, map_snapshot, open_any, save_snapshot_v2};
use light::graph::{generators, CsrGraph, StorageBackend};
use light::parallel::{run_query_parallel, ParallelConfig};
use light::pattern::Query;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("light_storage_diff_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A degree-ordered sample graph, as `light convert` would write it.
fn sample_graph() -> CsrGraph {
    let g = generators::barabasi_albert(400, 3, 2024);
    light::graph::ordered::into_degree_ordered(&g).0
}

/// The legacy v1 layout (`LIGHTCSR`, version 1, n, directed, degrees,
/// neighbors). The library reads it but has no writer for it.
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

/// Load one snapshot both ways: zero-copy mapped and heap-decoded.
fn both_backends(path: &std::path::Path) -> (CsrGraph, CsrGraph) {
    let mapped = map_snapshot(path).unwrap();
    let heap = load_snapshot(path).unwrap();
    assert_eq!(heap.backend(), StorageBackend::Heap);
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    assert_eq!(mapped.backend(), StorageBackend::Mapped);
    (mapped, heap)
}

#[test]
fn mapped_graph_is_structurally_identical() {
    let dir = tmpdir("struct");
    let g = sample_graph();
    let p = dir.join("g.v2");
    save_snapshot_v2(&g, &p).unwrap();
    let (mapped, heap) = both_backends(&p);

    assert_eq!(mapped, g);
    assert_eq!(heap, g);
    mapped.validate().unwrap();
    assert_eq!(mapped.num_vertices(), heap.num_vertices());
    assert_eq!(mapped.num_edges(), heap.num_edges());
    for v in 0..mapped.num_vertices() as u32 {
        assert_eq!(mapped.degree(v), heap.degree(v));
        assert_eq!(mapped.neighbors(v), heap.neighbors(v));
    }
    // The mapped view holds no owned CSR bytes; the heap twin holds all.
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    assert_eq!(mapped.resident_bytes(), 0);
    assert_eq!(heap.resident_bytes(), heap.memory_bytes());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn counts_agree_across_catalog_threads_and_aux_cache() {
    let dir = tmpdir("counts");
    let g = sample_graph();
    let p = dir.join("g.v2");
    save_snapshot_v2(&g, &p).unwrap();
    let (mapped, heap) = both_backends(&p);

    for q in Query::ALL {
        let pattern = q.pattern();
        for aux in [true, false] {
            let cfg = EngineConfig::light().aux_cache(aux);
            // Serial engine on both backends.
            let serial_heap = light::core::run_query(&pattern, &heap, &cfg).matches;
            let serial_map = light::core::run_query(&pattern, &mapped, &cfg).matches;
            assert_eq!(
                serial_map,
                serial_heap,
                "{} serial aux={aux}: mmap vs heap",
                q.name()
            );
            // Parallel driver on the mapped graph must agree too.
            let par = run_query_parallel(&pattern, &mapped, &cfg, &ParallelConfig::new(3));
            assert!(par.failures.is_empty(), "{:?}", par.failures);
            assert_eq!(
                par.report.matches,
                serial_heap,
                "{} parallel aux={aux}: mmap vs heap",
                q.name()
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_sweep_yields_typed_errors_on_every_load_path() {
    let dir = tmpdir("trunc");
    let g = sample_graph();
    let p = dir.join("g.v2");
    save_snapshot_v2(&g, &p).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    let len = bytes.len();

    // Cuts at every structural boundary: inside the header, at the header
    // edge, inside the offsets array, inside the neighbors array, and one
    // byte short of complete. (A cut inside the 8-byte magic makes the
    // file an unrecognizable blob that `open_any` correctly hands to the
    // edge-list parser, so the sweep starts past the magic.)
    let n = g.num_vertices();
    let offsets_mid = 4096 + (n + 1) * 4; // halfway through offsets
    let cuts = [9, 32, 63, 64, 4096, offsets_mid, len / 2, len - 1];
    for cut in cuts {
        let cut = cut.min(len - 1);
        let cp = dir.join(format!("cut{cut}.v2"));
        std::fs::write(&cp, &bytes[..cut]).unwrap();
        // Every load path reports a typed error; none may SIGBUS, panic,
        // or misparse the binary prefix as an edge list.
        let e1 = map_snapshot(&cp).unwrap_err().to_string();
        let e2 = load_snapshot(&cp).unwrap_err().to_string();
        let e3 = open_any(&cp, true).unwrap_err().to_string();
        for e in [&e1, &e2, &e3] {
            assert!(
                e.contains("truncated") || e.contains("snapshot"),
                "cut {cut}: unexpected error {e:?}"
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_snapshots_fall_back_to_heap_everywhere() {
    let dir = tmpdir("v1");
    let g = sample_graph();
    let p = dir.join("g.v1");
    std::fs::write(&p, forge_v1(&g)).unwrap();

    // map_snapshot on a v1 file silently decodes to the heap — old
    // artifacts keep working without a convert pass.
    let m = map_snapshot(&p).unwrap();
    assert_eq!(m.backend(), StorageBackend::Heap);
    assert_eq!(m, g);
    let (o, _) = open_any(&p, true).unwrap();
    assert_eq!(o.backend(), StorageBackend::Heap);
    assert_eq!(o, g);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_graph_shares_storage_across_clones_and_threads() {
    let dir = tmpdir("clone");
    let g = sample_graph();
    let p = dir.join("g.v2");
    save_snapshot_v2(&g, &p).unwrap();
    let mapped = map_snapshot(&p).unwrap();

    // Clones of a mapped graph stay on the mapping (Arc bump, no copy)
    // and remain usable after the original is dropped and the file is
    // unlinked — the engine may hold clones with arbitrary lifetimes.
    let clone = mapped.clone();
    assert_eq!(clone.backend(), mapped.backend());
    drop(mapped);
    std::fs::remove_file(&p).unwrap();
    assert_eq!(clone, g);

    let shared = std::sync::Arc::new(clone);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let s = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || {
                let cfg = EngineConfig::light();
                light::core::run_query(&Query::P1.pattern(), &s, &cfg).matches
            })
        })
        .collect();
    let counts: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]));

    std::fs::remove_dir_all(&dir).ok();
}
