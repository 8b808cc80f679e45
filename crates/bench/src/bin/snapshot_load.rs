//! Snapshot cold-start benchmark: load latency and peak RSS for the two
//! storage backends (EXPERIMENTS.md cold-start table, ISSUE 7).
//!
//! Each measured leg runs in a fresh subprocess (the harness re-execs
//! itself with `LIGHT_SNAPLOAD_LEG` set) so `VmHWM` — the kernel's
//! high-water resident mark — is attributable to that leg alone:
//!
//! | leg | what it measures |
//! |---|---|
//! | `heap-v2` | v2 snapshot decoded onto the heap (`--no-mmap`) |
//! | `mmap-open` | v2 zero-copy open: header + offsets check only |
//! | `mmap-touch` | v2 zero-copy open, then every CSR byte touched |
//!
//! Every touching leg folds the graph into a checksum; the harness gates
//! on `heap-v2` and `mmap-touch` agreeing, so the RSS numbers can never
//! come from silently loading different graphs. Output: a human table
//! plus `BENCH_snapshot_load.json` ([`light_bench::emit_bench`]).
//!
//! Knobs: `LIGHT_SNAPLOAD_N` (vertices, default 200k), `LIGHT_SNAPLOAD_K`
//! (BA attachment, default 4), `LIGHT_BENCH_DIR` for the artifact.

use std::path::{Path, PathBuf};
use std::time::Instant;

use light_bench as bench;
use light_bench::BenchRow;
use light_graph::io::{load_snapshot, map_snapshot, save_snapshot_v2};
use light_graph::CsrGraph;

/// Peak resident set (`VmHWM`) in kilobytes; 0 where /proc is absent.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Fold every adjacency byte of the graph into an FNV-1a checksum — the
/// "touch" pass that forces a mapped graph to fault in all its pages.
fn checksum(g: &CsrGraph) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    fold(g.num_vertices() as u64);
    for v in 0..g.num_vertices() as u32 {
        for &w in g.neighbors(v) {
            fold(w as u64);
        }
    }
    h
}

/// One measured leg, run inside its own subprocess. Prints a single
/// parseable line and exits.
fn run_leg(leg: &str, path: &str) {
    let t0 = Instant::now();
    let g = match leg {
        "heap-v2" => load_snapshot(path).expect("heap load"),
        "mmap-open" | "mmap-touch" => map_snapshot(path).expect("mmap open"),
        other => panic!("unknown leg {other:?}"),
    };
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    // mmap-open deliberately skips the touch: its RSS shows what a
    // zero-copy open costs before any query runs.
    let sum = if leg == "mmap-open" { 0 } else { checksum(&g) };
    println!(
        "LEG leg={leg} load_ms={load_ms:.3} rss_kb={} resident_bytes={} \
         backend={} checksum={sum:#x} edges={}",
        peak_rss_kb(),
        g.resident_bytes(),
        g.backend().name(),
        g.num_edges(),
    );
}

struct LegResult {
    load_ms: f64,
    rss_kb: u64,
    backend: String,
    checksum: u64,
}

/// Spawn `self` to run one leg and parse its report line.
fn spawn_leg(exe: &Path, leg: &str, path: &Path) -> LegResult {
    let out = std::process::Command::new(exe)
        .env("LIGHT_SNAPLOAD_LEG", leg)
        .env("LIGHT_SNAPLOAD_PATH", path)
        .output()
        .expect("spawn leg");
    assert!(
        out.status.success(),
        "leg {leg} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("LEG "))
        .unwrap_or_else(|| panic!("leg {leg}: no report line in {stdout:?}"));
    let field = |key: &str| -> String {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("leg {leg}: missing {key} in {line:?}"))
            .to_string()
    };
    LegResult {
        load_ms: field("load_ms").parse().unwrap(),
        rss_kb: field("rss_kb").parse().unwrap(),
        backend: field("backend"),
        checksum: u64::from_str_radix(field("checksum").trim_start_matches("0x"), 16).unwrap(),
    }
}

fn main() {
    // Leg mode: do one measured load and exit.
    if let Ok(leg) = std::env::var("LIGHT_SNAPLOAD_LEG") {
        let path = std::env::var("LIGHT_SNAPLOAD_PATH").expect("LIGHT_SNAPLOAD_PATH");
        run_leg(&leg, &path);
        return;
    }

    let n = bench::env_usize("LIGHT_SNAPLOAD_N", 200_000);
    let k = bench::env_usize("LIGHT_SNAPLOAD_K", 4);
    eprintln!("snapshot_load: generating BA n={n} k={k}...");
    let g = light_graph::generators::barabasi_albert(n, k, 7);
    let (g, _) = light_graph::ordered::into_degree_ordered(&g);

    let dir = std::env::temp_dir().join(format!("light_snapload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v2 = dir.join("g.v2");
    save_snapshot_v2(&g, &v2).unwrap();
    let payload = g.memory_bytes() as u64;
    let disk_v2 = std::fs::metadata(&v2).unwrap().len();
    eprintln!(
        "snapshot_load: {} edges, CSR payload {} KiB, v2 file {} KiB",
        g.num_edges(),
        payload >> 10,
        disk_v2 >> 10
    );

    let exe = std::env::current_exe().unwrap();
    let legs: &[(&str, &PathBuf)] = &[("heap-v2", &v2), ("mmap-open", &v2), ("mmap-touch", &v2)];
    let mut rows = Vec::new();
    let mut results = Vec::new();
    let mut table = bench::TablePrinter::new(&["leg", "backend", "load ms", "peak RSS KiB"]);
    for (leg, path) in legs {
        let r = spawn_leg(&exe, leg, path);
        table.row(&[
            leg.to_string(),
            r.backend.clone(),
            format!("{:.2}", r.load_ms),
            format!("{}", r.rss_kb),
        ]);
        rows.push(BenchRow {
            pattern: "-".into(),
            dataset: format!("ba-n{n}-k{k}"),
            threads: 1,
            config: leg.to_string(),
            wall_ms: r.load_ms,
            matches: 0,
            outcome: "Complete".into(),
            splits: vec![
                ("rss_kb".into(), r.rss_kb as f64),
                ("payload_kb".into(), (payload >> 10) as f64),
                ("disk_v2_kb".into(), (disk_v2 >> 10) as f64),
            ],
        });
        results.push((leg.to_string(), r));
    }
    table.print();

    // Gate 1: both touching legs saw the same graph.
    let by_leg = |name: &str| &results.iter().find(|(l, _)| l == name).unwrap().1;
    let heap = by_leg("heap-v2");
    let touch = by_leg("mmap-touch");
    assert_eq!(
        heap.checksum, touch.checksum,
        "heap and mmap backends disagree on the graph contents"
    );
    // Gate 2 (Linux only — elsewhere the mmap legs are heap fallbacks):
    // the zero-copy open must not have paid the decode-copy RSS. The open
    // leg's high-water mark includes the ~payload-sized generator baseline
    // of the *subprocess* (fork inherits nothing here — it is a fresh
    // exec), so compare the two full-touch legs: heap decode holds file
    // bytes + owned arrays, mmap holds the mapping only.
    #[cfg(target_os = "linux")]
    {
        assert_eq!(touch.backend, "mmap", "v2 did not open zero-copy");
        let open = by_leg("mmap-open");
        eprintln!(
            "snapshot_load: RSS heap-v2={} KiB mmap-touch={} KiB mmap-open={} KiB \
             (CSR payload {} KiB)",
            heap.rss_kb,
            touch.rss_kb,
            open.rss_kb,
            payload >> 10
        );
        assert!(
            touch.rss_kb < heap.rss_kb,
            "mmap-touch RSS ({} KiB) should undercut heap decode ({} KiB)",
            touch.rss_kb,
            heap.rss_kb
        );
    }

    let path = bench::emit_bench("snapshot_load", &rows).unwrap();
    eprintln!("wrote {}", path.display());
}
