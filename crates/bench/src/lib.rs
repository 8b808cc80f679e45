//! # light-bench — experiment harnesses for every table and figure
//!
//! One binary per paper artifact (see DESIGN.md §5 for the full index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table2_datasets` | Table II — dataset properties |
//! | `fig4_redundancy_time` | Fig. 4 — serial time of EH/CFL/SE/LM/MSC/LIGHT |
//! | `fig5_intersection_counts` | Fig. 5 — number of set intersections |
//! | `fig6_simd` | Fig. 6 — Merge/MergeAVX2/Hybrid/HybridAVX2 |
//! | `table3_galloping` | Table III — % Galloping searches |
//! | `fig7_scaling` | Fig. 7 — threads 1..64 |
//! | `table4_speedup` | Table IV — SE/SE+P/LIGHT/LIGHT+P |
//! | `table5_memory` | Table V — candidate-set memory on P5 |
//! | `fig8_overall` | Fig. 8 — LIGHT vs DUALSIM vs SEED vs CRYSTAL |
//!
//! Run with `cargo run --release -p light-bench --bin <name>`. Environment
//! knobs (all optional):
//!
//! * `LIGHT_SCALE` — dataset scale factor (default differs per harness;
//!   1.0 = the standard simulated sizes of `light_graph::datasets`).
//! * `LIGHT_TIME_BUDGET_SECS` — per-case wall-clock budget.
//! * `LIGHT_SPACE_BUDGET_MB` — per-case intermediate-space budget for the
//!   BFS simulators.
//! * `LIGHT_THREADS` — worker count for the parallel runs (default 4; the
//!   paper uses 64 on a 20-core box).

use std::time::Duration;

use light_graph::datasets::Dataset;
use light_graph::CsrGraph;

/// Read a float env var with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Read an integer env var with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Dataset scale for a harness (env `LIGHT_SCALE` overrides).
pub fn scale(default: f64) -> f64 {
    env_f64("LIGHT_SCALE", default)
}

/// Per-case time budget (env `LIGHT_TIME_BUDGET_SECS` overrides).
pub fn time_budget(default_secs: u64) -> Duration {
    Duration::from_secs_f64(env_f64("LIGHT_TIME_BUDGET_SECS", default_secs as f64))
}

/// Per-case space budget in bytes (env `LIGHT_SPACE_BUDGET_MB` overrides).
pub fn space_budget(default_mb: usize) -> usize {
    env_usize("LIGHT_SPACE_BUDGET_MB", default_mb) << 20
}

/// Worker-thread count (env `LIGHT_THREADS` overrides).
pub fn threads(default: usize) -> usize {
    env_usize("LIGHT_THREADS", default)
}

/// Directory the dataset memoizer caches snapshots in:
/// `LIGHT_DATASET_CACHE_DIR`, defaulting to `target/light-datasets`.
pub fn dataset_cache_dir() -> std::path::PathBuf {
    std::env::var("LIGHT_DATASET_CACHE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("target/light-datasets"))
}

/// Build (and memoize on disk under [`dataset_cache_dir`]) a dataset at a
/// scale — repeated harness runs skip regeneration. The cache is written
/// as a v2 snapshot; a v1 cache left by an older build still loads.
///
/// A missing cache file is the normal first-run case and rebuilds
/// silently. Any *other* load failure (truncated snapshot, bad magic,
/// version skew, permissions) is reported on stderr with the underlying
/// [`light_graph::io::GraphIoError`], the corrupt file is deleted, and the
/// dataset is rebuilt — so one bad write cannot wedge every future harness
/// run, and it cannot do so *silently* either. Cache-write failures
/// propagate: a harness that thinks it memoized but didn't would
/// re-measure generation time in every run that follows.
pub fn try_dataset(d: Dataset, s: f64) -> Result<CsrGraph, String> {
    let dir = dataset_cache_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create dataset cache dir {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}_{:.3}.bin", d.name(), s));
    match light_graph::io::load_snapshot(&path) {
        Ok(g) => return Ok(g),
        Err(light_graph::io::GraphIoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            // First run at this (dataset, scale); build below.
        }
        Err(e) => {
            eprintln!(
                "warning: dataset cache {} is unusable ({e}); deleting and regenerating",
                path.display()
            );
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot delete corrupt cache {}: {e}", path.display()))?;
        }
    }
    let g = d.build_scaled(s);
    light_graph::io::save_snapshot_v2(&g, &path)
        .map_err(|e| format!("cannot write dataset cache {}: {e}", path.display()))?;
    Ok(g)
}

/// [`try_dataset`] for harness `main`s: panics with the cache error, which
/// is the right behavior for a bench binary (a broken cache directory
/// should fail the run loudly, not skew its timings).
pub fn dataset(d: Dataset, s: f64) -> CsrGraph {
    try_dataset(d, s).unwrap_or_else(|e| panic!("{e}"))
}

/// Format a duration as the paper's tables do (seconds with adaptive
/// precision).
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Format large counts with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// One measured case for the machine-readable bench emitter.
///
/// Harnesses print their human-readable tables as before AND collect one
/// of these per (pattern, dataset, config) cell; [`emit_bench`] writes the
/// batch as `BENCH_<name>.json` so CI can diff runs and upload artifacts
/// without scraping stdout.
#[derive(Debug, Clone, Default)]
pub struct BenchRow {
    /// Pattern name (`P1`..`P7`, `triangle`, or an edge list).
    pub pattern: String,
    /// Dataset name (`yt`, `lj`, ... or a generator description).
    pub dataset: String,
    /// Worker threads used.
    pub threads: usize,
    /// Free-form config label distinguishing legs (`aux=on`, `LIGHT`, ...).
    pub config: String,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Matches found.
    pub matches: u64,
    /// Outcome (`Complete`, `OutOfTime`, ...).
    pub outcome: String,
    /// Named numeric splits (recorder sections, counters, rates).
    pub splits: Vec<(String, f64)>,
}

/// The standard recorder splits for a [`BenchRow`]: per-stage estimated
/// time, call counts, and auxiliary-cache counters.
pub fn recorder_splits(s: &light_metrics::Summary) -> Vec<(String, f64)> {
    let aux_total = s.aux_hits + s.aux_misses;
    vec![
        ("comp_est_ms".into(), s.comp_est_ns as f64 / 1e6),
        ("mat_est_ms".into(), s.mat_est_ns as f64 / 1e6),
        ("comp_calls".into(), s.comp_calls as f64),
        ("mat_calls".into(), s.mat_calls as f64),
        ("alias_assignments".into(), s.alias_assignments as f64),
        ("owned_intersections".into(), s.owned_intersections as f64),
        ("aux_hits".into(), s.aux_hits as f64),
        ("aux_misses".into(), s.aux_misses as f64),
        (
            "aux_hit_rate".into(),
            if aux_total == 0 {
                0.0
            } else {
                s.aux_hits as f64 / aux_total as f64
            },
        ),
        ("aux_evictions".into(), s.aux_evictions as f64),
        ("aux_bytes_peak".into(), s.aux_bytes_peak as f64),
    ]
}

/// Directory bench artifacts go to: `LIGHT_BENCH_DIR`, defaulting to
/// `target/bench-results`.
pub fn bench_dir() -> std::path::PathBuf {
    std::env::var("LIGHT_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("target/bench-results"))
}

/// Write `BENCH_<name>.json` into [`bench_dir`]. Returns the path written.
/// Hand-rolled JSON, matching the workspace's no-serde policy.
pub fn emit_bench(name: &str, rows: &[BenchRow]) -> std::io::Result<std::path::PathBuf> {
    emit_bench_to(&bench_dir(), name, rows)
}

/// [`emit_bench`] with an explicit target directory (testable form).
pub fn emit_bench_to(
    dir: &std::path::Path,
    name: &str,
    rows: &[BenchRow],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"bench\": \"{}\",\n  \"rows\": [",
        json_escape(name)
    ));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"pattern\": \"{}\", \"dataset\": \"{}\", \"threads\": {}, \
             \"config\": \"{}\", \"wall_ms\": {:.3}, \"matches\": {}, \"outcome\": \"{}\"",
            json_escape(&r.pattern),
            json_escape(&r.dataset),
            r.threads,
            json_escape(&r.config),
            r.wall_ms,
            r.matches,
            json_escape(&r.outcome),
        ));
        if !r.splits.is_empty() {
            out.push_str(", \"splits\": {");
            for (j, (k, v)) in r.splits.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let v = if v.is_finite() { *v } else { 0.0 };
                out.push_str(&format!("\"{}\": {v:.3}", json_escape(k)));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Simple fixed-width table printer for harness output.
pub struct TablePrinter {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    pub fn new(headers: &[&str]) -> Self {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        TablePrinter {
            widths: headers.iter().map(|h| h.len()).collect(),
            rows: vec![headers],
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "column count mismatch");
        for (w, c) in self.widths.iter_mut().zip(cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells.to_vec());
    }

    pub fn print(&self) {
        for (i, row) in self.rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("  {}", line.join("  "));
            if i == 0 {
                let sep: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
                println!("  {}", sep.join("  "));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_count(1234567), "1,234,567");
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_secs(Duration::from_millis(123)), "0.123");
        assert_eq!(fmt_secs(Duration::from_secs(12)), "12.0");
        assert_eq!(fmt_secs(Duration::from_secs(1234)), "1234");
    }

    #[test]
    fn env_defaults() {
        assert_eq!(env_f64("LIGHT_NONEXISTENT_VAR_XYZ", 2.5), 2.5);
        assert_eq!(env_usize("LIGHT_NONEXISTENT_VAR_XYZ", 7), 7);
    }

    #[test]
    fn table_printer_alignment() {
        let mut t = TablePrinter::new(&["a", "b"]);
        t.row(&["123".into(), "x".into()]);
        t.print(); // visual check only; must not panic
    }

    #[test]
    fn bench_emitter_writes_wellformed_json() {
        let dir = std::path::Path::new("target/test-bench-results");
        let rows = vec![
            BenchRow {
                pattern: "P1".into(),
                dataset: "yt".into(),
                threads: 2,
                config: "aux=on".into(),
                wall_ms: 12.5,
                matches: 99,
                outcome: "Complete".into(),
                splits: vec![("aux_hits".into(), 7.0), ("aux_hit_rate".into(), 0.5)],
            },
            BenchRow {
                pattern: "a\"b".into(), // escaping
                ..Default::default()
            },
        ];
        let path = emit_bench_to(dir, "unit_test", &rows).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_unit_test.json");
        let body = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"bench\": \"unit_test\"",
            "\"pattern\": \"P1\"",
            "\"threads\": 2",
            "\"wall_ms\": 12.500",
            "\"aux_hit_rate\": 0.500",
            "\"pattern\": \"a\\\"b\"",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        // Balanced braces/brackets — a cheap well-formedness proxy given
        // the no-serde policy (no parser to round-trip through).
        let opens = body.matches(['{', '[']).count();
        let closes = body.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{body}");
    }

    /// Serializes the tests that touch the cache directory / env override
    /// (cargo runs tests in parallel; the env var is process-global).
    static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn dataset_memoization_roundtrip() {
        let _g = CACHE_LOCK.lock().unwrap();
        let a = dataset(Dataset::Yt, 0.05);
        let b = dataset(Dataset::Yt, 0.05); // loaded from the snapshot
        assert_eq!(a, b);
    }

    #[test]
    fn dataset_cache_dir_env_override() {
        let _g = CACHE_LOCK.lock().unwrap();
        assert_eq!(
            dataset_cache_dir(),
            std::path::PathBuf::from("target/light-datasets")
        );
        std::env::set_var("LIGHT_DATASET_CACHE_DIR", "/tmp/light-bench-cache-test");
        assert_eq!(
            dataset_cache_dir(),
            std::path::PathBuf::from("/tmp/light-bench-cache-test")
        );
        std::env::remove_var("LIGHT_DATASET_CACHE_DIR");
    }

    #[test]
    fn corrupt_dataset_cache_recovers_loudly() {
        let _g = CACHE_LOCK.lock().unwrap();
        // A scale no other test uses, so this test owns the cache file.
        let s = 0.041;
        let path = dataset_cache_dir().join(format!("{}_{s:.3}.bin", Dataset::Yt.name()));
        std::fs::create_dir_all(dataset_cache_dir()).unwrap();

        // Truncated garbage where a snapshot should be: the old code
        // silently fell back to regeneration and left the corrupt file in
        // place; now the file is deleted and replaced with a valid one.
        std::fs::write(&path, b"LIGHTCSR_truncated_garbage").unwrap();
        let a = try_dataset(Dataset::Yt, s).expect("corrupt cache must rebuild");
        let reloaded =
            light_graph::io::load_snapshot(&path).expect("rebuilt cache file must be valid");
        assert_eq!(a, reloaded);

        // Non-snapshot garbage (wrong magic entirely) recovers too.
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        let b = try_dataset(Dataset::Yt, s).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_dataset_cache_propagates() {
        let _g = CACHE_LOCK.lock().unwrap();
        std::env::set_var("LIGHT_DATASET_CACHE_DIR", "/proc/light-bench-no-such-dir");
        let err = try_dataset(Dataset::Yt, 0.041).unwrap_err();
        std::env::remove_var("LIGHT_DATASET_CACHE_DIR");
        assert!(
            err.contains("cannot create dataset cache dir"),
            "unexpected error: {err}"
        );
    }
}
