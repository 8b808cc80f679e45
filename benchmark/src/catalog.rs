//! The names, units, directions and bounds of every metric, and
//! `BENCHMARK.json` rendered from them (`e2e manifest`), so the manifest at
//! the repo root cannot drift from what the binaries print. README.md has
//! the prose: what each metric means and which end-to-end metric each
//! layer metric should move, on which workload.

use crate::json::{obj, Json};
use crate::workload::WORKLOADS;

/// How long one run measures; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 15;

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// `(name, unit, better, bound)`. The bound is the share of the parent's
/// median a metric may worsen by before a change counts as a regression.
/// The driver's contract allows one bound per metric, so the noisiest
/// workload sets it. The time bounds are the contract's maximum because the
/// 2-vCPU reference box itself is that unsteady: a pure CPU loop completes
/// up to a quarter fewer iterations in one 4 s window than in the next
/// (README.md, "Steadiness", has the measurements and says which metric on
/// which workload resolves less than its bound). Memory repeats within a
/// few percent and keeps the issue's bound.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", LOWER, 0.25),
    ("latency_p50_ms", "ms", LOWER, 0.25),
    ("latency_p90_ms", "ms", LOWER, 0.25),
    ("throughput_per_s", "1/s", HIGHER, 0.25),
    ("peak_rss_mib", "MiB", LOWER, 0.10),
];

/// `(name, unit, better)` of the traced run's metrics, in print order.
/// `better` is the direction an optimisation would move the metric; for
/// the few descriptive ratios (galloping share, batched share) it is the
/// direction that usually accompanies a faster run.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("cli.spawn_ms", "ms", LOWER),
    ("cli.count_ms", "ms", LOWER),
    ("cli.rss_mib", "MiB", LOWER),
    ("graph.open_ms", "ms", LOWER),
    ("graph.scan_first_ms", "ms", LOWER),
    ("graph.scan_again_ms", "ms", LOWER),
    ("graph.parse_ms", "ms", LOWER),
    ("graph.parse_mb_per_s", "MB/s", HIGHER),
    ("graph.relabel_ms", "ms", LOWER),
    ("graph.stats_ms", "ms", LOWER),
    ("graph.delta_apply_us", "us", LOWER),
    ("graph.merged_arc_ms", "ms", LOWER),
    ("graph.save_v2_ms", "ms", LOWER),
    ("order.plan_ms", "ms", LOWER),
    ("order.search_us", "us", LOWER),
    ("core.run_ms", "ms", LOWER),
    ("core.intersections", "count", LOWER),
    ("core.galloping_share", "ratio", LOWER),
    ("core.aux_hit_ratio", "ratio", HIGHER),
    ("core.peak_candidate_bytes", "bytes", LOWER),
    ("parallel.run_ms", "ms", LOWER),
    ("parallel.speedup", "ratio", HIGHER),
    ("parallel.steals", "count", LOWER),
    ("parallel.donations", "count", LOWER),
    ("parallel.parked_share", "ratio", LOWER),
    ("parallel.match_imbalance", "ratio", LOWER),
    ("metrics.overhead_pct", "%", LOWER),
    ("parallel.t1_overhead_pct", "%", LOWER),
    ("setops.ns_per_elem.scalar.bal256", "ns", LOWER),
    ("setops.ns_per_elem.avx2.bal256", "ns", LOWER),
    ("setops.ns_per_elem.avx512.bal256", "ns", LOWER),
    ("setops.ns_per_elem.scalar.bal4096", "ns", LOWER),
    ("setops.ns_per_elem.avx2.bal4096", "ns", LOWER),
    ("setops.ns_per_elem.avx512.bal4096", "ns", LOWER),
    ("setops.ns_per_elem.scalar.skew16x4096", "ns", LOWER),
    ("setops.ns_per_elem.avx2.skew16x4096", "ns", LOWER),
    ("setops.ns_per_elem.avx512.skew16x4096", "ns", LOWER),
    ("setops.ns_per_elem.scalar.skew16x65536", "ns", LOWER),
    ("setops.ns_per_elem.avx2.skew16x65536", "ns", LOWER),
    ("setops.ns_per_elem.avx512.skew16x65536", "ns", LOWER),
    ("setops.trim_ns_per_elem", "ns", LOWER),
    ("serve.served_vs_oneshot", "ratio", LOWER),
    ("serve.update_inproc_ms", "ms", LOWER),
    ("serve.update_residual_ms", "ms", LOWER),
    ("serve.handle_us.health", "us", LOWER),
    ("serve.rtt_us.health", "us", LOWER),
    ("serve.transport_us", "us", LOWER),
    ("serve.engine_ms", "ms", LOWER),
    ("serve.queue_ms", "ms", LOWER),
    ("serve.overhead_ms", "ms", LOWER),
    ("serve.plan_cache_hit_ratio", "ratio", HIGHER),
    ("serve.batched_share", "ratio", HIGHER),
    ("serve.batch_mean_size", "count", HIGHER),
    ("serve.shared_aux_hit_ratio", "ratio", HIGHER),
    ("serve.shared_aux_stores_per_query", "count", LOWER),
    ("serve.query_p99_ms", "ms", LOWER),
    ("serve.open_lateness_ms", "ms", LOWER),
    ("serve.stale_reads", "count", LOWER),
    ("serve.max_rate_ok", "1/s", HIGHER),
    ("serve.update_p95_ms", "ms", LOWER),
    ("serve.update_engine_ms", "ms", LOWER),
    ("serve.query_after_update_ms", "ms", LOWER),
    ("serve.compact_ms", "ms", LOWER),
    ("attr.residual_pct", "%", LOWER),
    ("attr.serve_residual_pct", "%", LOWER),
    ("attr.traced_s", "s", LOWER),
];

/// `BENCHMARK.json` as the driver's contract wants it.
pub fn manifest() -> Json {
    let s = |x: &str| Json::Str(x.to_string());
    obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better)),
                            ("bound", Json::F64(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        obj([("name", s(name)), ("unit", s(unit)), ("better", s(better))])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
        }
        for (name, unit, better, bound) in END_TO_END {
            assert!(
                valid_name(name) && valid_unit(unit) && seen.insert(name),
                "{name}"
            );
            assert!(better == LOWER || better == HIGHER);
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (name, unit, better) in PER_LAYER {
            assert!(
                valid_name(name) && valid_unit(unit) && seen.insert(name),
                "{name}"
            );
            assert!(better == LOWER || better == HIGHER);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == LOWER));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        // The crate sits in <root>/benchmark; a checkout that holds only
        // the benchmark has the manifest one level up as well.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `e2e manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
