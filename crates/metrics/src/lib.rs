#![warn(missing_docs)]

//! # light-metrics — observability substrate for the LIGHT stack
//!
//! PR 1 made the hot path fast; this crate makes it *legible*. It provides
//! the recording primitives the enumeration stack threads through every
//! layer (engine, set-intersection kernels, work-stealing scheduler) and a
//! JSON exporter the CLI's `--profile` flag and the fig4/fig6/fig7
//! harnesses print:
//!
//! * per-σ-slot COMP/MAT invocation counts and sampled wall time,
//! * per-depth candidate-set size histograms (the quantity Eq. 8's cost
//!   model predicts),
//! * alias-vs-owned candidate ratios and budget-poll latency,
//! * set-intersection tier counters plus input-length and skew-ratio
//!   histograms (the Table III / Fig. 6 signals),
//! * per-worker steal / park / ticket / donation counts and queue
//!   residency (the Fig. 7 load-balance evidence).
//!
//! ## Architecture: local shards, atomic aggregate
//!
//! Hot-path recording goes to a [`LocalRecorder`] — plain `u64` arrays
//! owned by one enumerator (one worker), no atomics, no allocation after
//! construction. Shards are flushed into the shared [`Recorder`] (atomic
//! counters + fixed-bucket histograms) when an enumerator finishes, so the
//! steady-state cost per recorded event is a handful of ordinary adds.
//! Rare events (scheduler parks, task pickups) go straight to the shared
//! recorder's relaxed atomics. Wall-clock timing is *sampled* (1 in
//! [`COMP_TIME_SAMPLE`] COMP calls, 1 in [`MAT_TIME_SAMPLE`] MAT calls) to
//! keep `Instant::now` off the common path; the exporter scales samples
//! back to estimated totals.
//!
//! ## Attached or not
//!
//! Recording is always compiled in; what varies per run is whether a live
//! [`Recorder`] is attached. An unattached run holds
//! [`Recorder::disabled`], whose shards are inert, so `light count`
//! without `--profile` pays one predictable branch per recording site.
//!
//! Behavior neutrality (identical match counts with a recorder attached
//! or not) is pinned by `tests/metrics_neutrality.rs` at the workspace
//! root; the zero-allocation hot-path proof in
//! `crates/core/tests/zero_alloc.rs` covers both.

/// Maximum σ slots (pattern vertices) tracked. Patterns are `u8`-indexed
/// and ≤ 16 vertices in practice; indices beyond the cap saturate into the
/// last slot.
pub const MAX_SLOTS: usize = 32;

/// Maximum σ depths tracked (σ holds at most one COMP + one MAT per
/// pattern vertex).
pub const MAX_DEPTH: usize = 33;

/// Maximum workers tracked individually; higher ids saturate into the
/// last slot (the fig7 harness tops out at exactly 64).
pub const MAX_WORKERS: usize = 64;

/// Buckets per histogram: power-of-two buckets, bucket `i` covering
/// `[2^(i-1), 2^i)` with bucket 0 reserved for zero.
pub const HIST_BUCKETS: usize = 32;

/// One in this many COMP invocations has its wall time measured.
pub const COMP_TIME_SAMPLE: u64 = 64;

/// One in this many MAT invocations has its (inclusive subtree) wall time
/// measured.
pub const MAT_TIME_SAMPLE: u64 = 256;

/// One in this many intersections feeds the operand-length/skew
/// histograms (each weighted by this factor, so exported totals stay
/// unbiased estimates). Tier call/galloping counters are NOT sampled —
/// they stay exact, which the neutrality proptest relies on. The skew
/// record costs an integer division, too dear for every one of the
/// millions of intersections a run performs.
pub const ISEC_HIST_SAMPLE: u64 = 8;

/// Kernel-tier display names, index-compatible with
/// `light_setops::KernelTier` (scalar / AVX2 / AVX-512). Kept here so the
/// exporter does not need a dependency on the kernels crate (which
/// depends on this one).
pub const TIER_NAMES: [&str; 3] = ["scalar", "avx2", "avx512"];

/// Steal-tier display names, index-compatible with the scheduler's
/// topology tiers (SMT sibling / same-LLC / same-NUMA-node / remote).
/// Kept here so the exporter does not depend on the scheduler crate
/// (which depends on this one).
pub const STEAL_TIER_NAMES: [&str; 4] = ["smt", "llc", "node", "remote"];

/// One worker's scheduler counters, flushed once when the worker retires.
/// Plain data in both build configurations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSample {
    /// Worker index (0-based; saturates at [`MAX_WORKERS`] - 1).
    pub worker: usize,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Steals broken down by topology tier of the victim (index:
    /// [`STEAL_TIER_NAMES`]). All-zero under flat (topology-blind)
    /// stealing; sums to `steals` under tiered stealing.
    pub steal_tiers: [u64; 4],
    /// Extra sub-tasks carved out of donations under starvation pressure
    /// (adaptive granularity; a plain donate-half donation counts zero).
    pub splits: u64,
    /// Timeout-bounded parks while starving.
    pub parks: u64,
    /// Demand tickets registered.
    pub tickets: u64,
    /// Range donations made.
    pub donations: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Total nanoseconds spent parked.
    pub parked_nanos: u64,
}

/// Aggregate totals extracted from a `Recorder` for programmatic
/// consumers (the bench harnesses); `Recorder::to_json` has the full
/// per-slot / per-bucket detail. All-zero when recording is disabled.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Total COMP invocations across all σ slots.
    pub comp_calls: u64,
    /// Total MAT invocations across all σ slots.
    pub mat_calls: u64,
    /// Estimated total COMP wall time (sampled, scaled), nanoseconds.
    pub comp_est_ns: u64,
    /// Estimated total MAT (inclusive subtree) wall time, nanoseconds.
    pub mat_est_ns: u64,
    /// Single-operand COMPs resolved as aliases (no copy).
    pub alias_assignments: u64,
    /// COMPs that materialized an owned intersection result.
    pub owned_intersections: u64,
    /// Pairwise intersections per kernel tier (index: [`TIER_NAMES`]).
    pub tier_calls: [u64; 3],
    /// Galloping-arm dispatches per kernel tier.
    pub tier_galloping: [u64; 3],
    /// Operand-length histogram count (two per pairwise intersection).
    pub input_len_count: u64,
    /// Sum of all operand lengths seen at the dispatch layer.
    pub input_len_sum: u64,
    /// Queue-residency samples (one per donation submit).
    pub queue_residency_count: u64,
    /// Sum of the sampled pending-task depths.
    pub queue_residency_sum: u64,
    /// Auxiliary-cache hits (COMPs answered from a memoized trimmed list).
    pub aux_hits: u64,
    /// Auxiliary-cache misses (COMPs that computed and tried to store).
    pub aux_misses: u64,
    /// Auxiliary-cache entries dropped (collision overwrites of live
    /// entries plus watermark-pressure purges).
    pub aux_evictions: u64,
    /// Stores skipped because they would have crossed the memory
    /// watermark.
    pub aux_skipped_stores: u64,
    /// Peak bytes resident in auxiliary-cache buffers (max across
    /// workers' peaks).
    pub aux_bytes_peak: u64,
    /// Per-worker scheduler samples, in worker order (only workers that
    /// actually flushed).
    pub workers: Vec<WorkerSample>,
}

/// Map a value to its power-of-two histogram bucket.
#[inline]
pub fn hist_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Lower bound of histogram bucket `i` (inverse of [`hist_bucket`]).
#[inline]
pub fn hist_bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

mod recorder;
pub use recorder::{LocalRecorder, Recorder, Stopwatch};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..20 {
            let lo = hist_bucket_lo(i);
            assert_eq!(hist_bucket(lo), i, "lo of bucket {i}");
            assert_eq!(hist_bucket(2 * lo - 1), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_active());
        let mut l = r.local();
        assert!(!l.is_active());
        assert!(!l.comp_call(0));
        assert!(!l.mat_call(0));
        l.candidate_size(1, 100);
        l.intersect_pair(10, 500, 0, true);
        r.flush(&mut l);
        r.queue_residency(3);
        r.record_worker(&WorkerSample::default());
        let json = r.to_json();
        assert!(json.contains("\"enabled\""), "{json}");
    }

    #[test]
    fn stopwatch_without_sampling_returns_none() {
        let sw = Stopwatch::start(false);
        assert_eq!(sw.stop(), None);
    }

    #[test]
    fn active_recorder_roundtrip() {
        let r = Recorder::new();
        assert!(r.is_active());
        let mut l = r.local();
        assert!(l.is_active());
        // First invocation of a slot is always a timing sample.
        assert!(l.comp_call(2));
        for _ in 1..COMP_TIME_SAMPLE {
            assert!(!l.comp_call(2));
        }
        assert!(l.comp_call(2), "sampling cadence");
        l.comp_nanos(2, 500);
        assert!(l.mat_call(3));
        l.mat_nanos(3, 1000);
        l.alias_assign();
        l.owned_intersection();
        l.candidate_size(1, 100);
        l.candidate_size(1, 200);
        l.budget_poll_gap(12_345);
        l.intersect_pair(10, 5_000, 2, true);
        l.intersect_pair(40, 50, 0, false);
        r.flush(&mut l);
        // Flushing resets the shard: a second flush adds nothing.
        r.flush(&mut l);
        r.queue_residency(7);
        r.record_worker(&WorkerSample {
            worker: 1,
            steals: 3,
            steal_tiers: [1, 2, 0, 0],
            splits: 6,
            parks: 4,
            tickets: 5,
            donations: 2,
            tasks: 9,
            parked_nanos: 800,
        });
        let json = r.to_json();
        for key in [
            "\"slots\"",
            "\"comp_calls\": 65",
            "\"depth_candidates\"",
            "\"setops\"",
            "\"scheduler\"",
            "\"steals\": 3",
            "\"steal_tiers\": {\"smt\": 1, \"llc\": 2, \"node\": 0, \"remote\": 0}",
            "\"splits\": 6",
            "\"parks\": 4",
            "\"budget_poll_ns\"",
            "\"galloping\": 1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn stopwatch_measures_when_sampling() {
        let sw = Stopwatch::start(true);
        std::hint::black_box(0u64);
        let ns = sw.stop();
        assert!(ns.is_some());
    }

    #[test]
    fn saturating_indices_do_not_panic() {
        let r = Recorder::new();
        let mut l = r.local();
        l.comp_call(MAX_SLOTS + 10);
        l.candidate_size(MAX_DEPTH + 10, 1);
        r.record_worker(&WorkerSample {
            worker: MAX_WORKERS + 10,
            ..Default::default()
        });
        r.flush(&mut l);
    }
}
