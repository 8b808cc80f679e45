//! The recording implementation: local shards and the atomic aggregate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::{
    hist_bucket, hist_bucket_lo, Summary, WorkerSample, COMP_TIME_SAMPLE, HIST_BUCKETS,
    MAT_TIME_SAMPLE, MAX_DEPTH, MAX_SLOTS, MAX_WORKERS, TIER_NAMES,
};

/// Relaxed is sufficient everywhere: counters are monotonic diagnostics
/// read after the run (or by the exporter, which tolerates slight skew).
const R: Ordering = Ordering::Relaxed;

// ---------------------------------------------------------------------------
// Local (per-enumerator) shard: plain u64s, zero atomics, zero allocation
// after construction.
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
struct LocalHist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl LocalHist {
    #[inline]
    fn record(&mut self, v: u64) {
        self.record_weighted(v, 1);
    }

    /// Record one observation standing in for `w` (used by the sampled
    /// setops histograms so totals remain unbiased estimates).
    #[inline]
    fn record_weighted(&mut self, v: u64, w: u64) {
        self.buckets[hist_bucket(v)] += w;
        self.count += w;
        self.sum += v * w;
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct LocalSlot {
    comp_calls: u64,
    comp_samples: u64,
    comp_nanos: u64,
    mat_calls: u64,
    mat_samples: u64,
    mat_nanos: u64,
}

/// The boxed shard body (~12 KiB; boxed so an idle `LocalRecorder` is one
/// pointer and an `Enumerator` does not balloon).
#[derive(Debug)]
struct LocalInner {
    slots: [LocalSlot; MAX_SLOTS],
    depth: [LocalHist; MAX_DEPTH],
    alias_assignments: u64,
    owned_intersections: u64,
    budget_poll: LocalHist,
    // Setops section (recorded from the kernel dispatch layer).
    input_len: LocalHist,
    skew_ratio: LocalHist,
    tier_calls: [u64; 3],
    tier_galloping: [u64; 3],
    // Auxiliary candidate cache (engine COMP memoization).
    aux_hits: u64,
    aux_misses: u64,
    aux_evictions: u64,
    aux_skipped_stores: u64,
    aux_bytes_peak: u64,
    shared: Arc<Shared>,
}

/// Per-enumerator recording shard. Obtained from [`Recorder::local`];
/// inert (a null pointer, every method a no-op) when the recorder is
/// disabled. Flush through [`Recorder::flush`] — dropping an unflushed
/// shard loses its counts, which the engine's `Drop` impl prevents.
#[derive(Debug, Default)]
pub struct LocalRecorder {
    inner: Option<Box<LocalInner>>,
}

impl LocalRecorder {
    /// Whether recording is live (recorder attached and feature enabled).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Count one COMP invocation on σ slot `slot`; returns whether this
    /// invocation's wall time should be sampled (1 in
    /// [`COMP_TIME_SAMPLE`]).
    #[inline]
    pub fn comp_call(&mut self, slot: usize) -> bool {
        match &mut self.inner {
            Some(l) => {
                let s = &mut l.slots[slot.min(MAX_SLOTS - 1)];
                let sample = s.comp_calls % COMP_TIME_SAMPLE == 0;
                s.comp_calls += 1;
                sample
            }
            None => false,
        }
    }

    /// Record a sampled COMP duration for `slot`.
    #[inline]
    pub fn comp_nanos(&mut self, slot: usize, nanos: u64) {
        if let Some(l) = &mut self.inner {
            let s = &mut l.slots[slot.min(MAX_SLOTS - 1)];
            s.comp_samples += 1;
            s.comp_nanos += nanos;
        }
    }

    /// Count one MAT invocation on σ slot `slot`; returns whether this
    /// invocation's (inclusive subtree) wall time should be sampled.
    #[inline]
    pub fn mat_call(&mut self, slot: usize) -> bool {
        match &mut self.inner {
            Some(l) => {
                let s = &mut l.slots[slot.min(MAX_SLOTS - 1)];
                let sample = s.mat_calls % MAT_TIME_SAMPLE == 0;
                s.mat_calls += 1;
                sample
            }
            None => false,
        }
    }

    /// Record a sampled MAT (inclusive) duration for `slot`.
    #[inline]
    pub fn mat_nanos(&mut self, slot: usize, nanos: u64) {
        if let Some(l) = &mut self.inner {
            let s = &mut l.slots[slot.min(MAX_SLOTS - 1)];
            s.mat_samples += 1;
            s.mat_nanos += nanos;
        }
    }

    /// Count a single-operand COMP resolved as an alias (no copy).
    #[inline]
    pub fn alias_assign(&mut self) {
        if let Some(l) = &mut self.inner {
            l.alias_assignments += 1;
        }
    }

    /// Count a COMP that materialized an owned intersection result.
    #[inline]
    pub fn owned_intersection(&mut self) {
        if let Some(l) = &mut self.inner {
            l.owned_intersections += 1;
        }
    }

    /// Record the size of a freshly computed candidate set at σ depth
    /// `depth` (the per-depth |C_φ(u)| distribution of Eq. 8).
    #[inline]
    pub fn candidate_size(&mut self, depth: usize, len: usize) {
        if let Some(l) = &mut self.inner {
            l.depth[depth.min(MAX_DEPTH - 1)].record(len as u64);
        }
    }

    /// Record the gap between two consecutive wall-clock budget polls.
    #[inline]
    pub fn budget_poll_gap(&mut self, nanos: u64) {
        if let Some(l) = &mut self.inner {
            l.budget_poll.record(nanos);
        }
    }

    /// Count an auxiliary-cache hit (COMP answered from a memoized
    /// trimmed list).
    #[inline]
    pub fn aux_hit(&mut self) {
        if let Some(l) = &mut self.inner {
            l.aux_hits += 1;
        }
    }

    /// Count an auxiliary-cache miss (COMP computed, store attempted).
    #[inline]
    pub fn aux_miss(&mut self) {
        if let Some(l) = &mut self.inner {
            l.aux_misses += 1;
        }
    }

    /// Count `n` auxiliary-cache entries dropped (collision overwrite or
    /// watermark purge).
    #[inline]
    pub fn aux_evict(&mut self, n: u64) {
        if let Some(l) = &mut self.inner {
            l.aux_evictions += n;
        }
    }

    /// Count a store skipped to stay under the memory watermark.
    #[inline]
    pub fn aux_store_skip(&mut self) {
        if let Some(l) = &mut self.inner {
            l.aux_skipped_stores += 1;
        }
    }

    /// Track the peak bytes resident in auxiliary-cache buffers.
    #[inline]
    pub fn aux_bytes(&mut self, bytes: usize) {
        if let Some(l) = &mut self.inner {
            l.aux_bytes_peak = l.aux_bytes_peak.max(bytes as u64);
        }
    }

    /// Record one pairwise set intersection at the dispatch layer:
    /// operand lengths, skew ratio, kernel tier, and merge/galloping
    /// choice. `tier` indexes [`TIER_NAMES`].
    #[inline]
    pub fn intersect_pair(&mut self, la: usize, lb: usize, tier: usize, galloping: bool) {
        if let Some(l) = &mut self.inner {
            let t = tier.min(2);
            l.tier_calls[t] += 1;
            if galloping {
                l.tier_galloping[t] += 1;
            }
            // Length/skew histograms are sampled: the skew division is too
            // expensive to pay per intersection (see ISEC_HIST_SAMPLE).
            if l.tier_calls[t] & (crate::ISEC_HIST_SAMPLE - 1) != 0 {
                return;
            }
            l.input_len
                .record_weighted(la as u64, crate::ISEC_HIST_SAMPLE);
            l.input_len
                .record_weighted(lb as u64, crate::ISEC_HIST_SAMPLE);
            let (lo, hi) = if la <= lb { (la, lb) } else { (lb, la) };
            l.skew_ratio
                .record_weighted((hi / lo.max(1)) as u64, crate::ISEC_HIST_SAMPLE);
        }
    }
}

/// Sampled wall-clock timer: started armed or inert, stopped for an
/// optional nanosecond count. Zero-sized and always inert when the
/// `enabled` feature is off.
#[derive(Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start timing if `sample` is true, otherwise an inert stopwatch.
    #[inline]
    pub fn start(sample: bool) -> Stopwatch {
        Stopwatch(sample.then(Instant::now))
    }

    /// Elapsed nanoseconds, or `None` if inert.
    #[inline]
    pub fn stop(self) -> Option<u64> {
        self.0.map(|t| t.elapsed().as_nanos() as u64)
    }
}

// ---------------------------------------------------------------------------
// Shared aggregate: atomic counters + fixed-bucket atomic histograms.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct AtomicHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHist {
    fn new() -> Self {
        AtomicHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[hist_bucket(v)].fetch_add(1, R);
        self.count.fetch_add(1, R);
        self.sum.fetch_add(v, R);
    }

    fn merge_local(&self, l: &LocalHist) {
        for (b, lv) in self.buckets.iter().zip(l.buckets) {
            if lv > 0 {
                b.fetch_add(lv, R);
            }
        }
        self.count.fetch_add(l.count, R);
        self.sum.fetch_add(l.sum, R);
    }

    fn json(&self) -> String {
        let count = self.count.load(R);
        let sum = self.sum.load(R);
        let mean = if count > 0 {
            sum as f64 / count as f64
        } else {
            0.0
        };
        let mut buckets = String::from("[");
        let mut first = true;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(R);
            if n > 0 {
                if !first {
                    buckets.push_str(", ");
                }
                first = false;
                buckets.push_str(&format!("[{}, {}]", hist_bucket_lo(i), n));
            }
        }
        buckets.push(']');
        format!(
            "{{\"count\": {count}, \"sum\": {sum}, \"mean\": {mean:.1}, \"buckets\": {buckets}}}"
        )
    }
}

#[derive(Debug)]
struct AtomicSlot {
    comp_calls: AtomicU64,
    comp_samples: AtomicU64,
    comp_nanos: AtomicU64,
    mat_calls: AtomicU64,
    mat_samples: AtomicU64,
    mat_nanos: AtomicU64,
}

#[derive(Debug, Default)]
struct AtomicWorker {
    steals: AtomicU64,
    steal_tiers: [AtomicU64; 4],
    splits: AtomicU64,
    parks: AtomicU64,
    tickets: AtomicU64,
    donations: AtomicU64,
    tasks: AtomicU64,
    parked_nanos: AtomicU64,
    flushes: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    slots: [AtomicSlot; MAX_SLOTS],
    depth: Vec<AtomicHist>,
    alias_assignments: AtomicU64,
    owned_intersections: AtomicU64,
    budget_poll: AtomicHist,
    input_len: AtomicHist,
    skew_ratio: AtomicHist,
    tier_calls: [AtomicU64; 3],
    tier_galloping: [AtomicU64; 3],
    aux_hits: AtomicU64,
    aux_misses: AtomicU64,
    aux_evictions: AtomicU64,
    aux_skipped_stores: AtomicU64,
    aux_bytes_peak: AtomicU64,
    workers: Vec<AtomicWorker>,
    queue_residency: AtomicHist,
}

/// The shared, thread-safe metrics aggregate: atomic counters and
/// fixed-bucket histograms, cheap to clone (an `Arc`), exported as JSON
/// via [`Recorder::to_json`]. Created active with [`Recorder::new`] or as
/// an inert handle with [`Recorder::disabled`] (the `Default`).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Shared>>,
}

impl Recorder {
    /// An active recorder (allocates ~30 KiB of counter state once).
    pub fn new() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Shared {
                slots: std::array::from_fn(|_| AtomicSlot {
                    comp_calls: AtomicU64::new(0),
                    comp_samples: AtomicU64::new(0),
                    comp_nanos: AtomicU64::new(0),
                    mat_calls: AtomicU64::new(0),
                    mat_samples: AtomicU64::new(0),
                    mat_nanos: AtomicU64::new(0),
                }),
                depth: (0..MAX_DEPTH).map(|_| AtomicHist::new()).collect(),
                alias_assignments: AtomicU64::new(0),
                owned_intersections: AtomicU64::new(0),
                budget_poll: AtomicHist::new(),
                input_len: AtomicHist::new(),
                skew_ratio: AtomicHist::new(),
                tier_calls: std::array::from_fn(|_| AtomicU64::new(0)),
                tier_galloping: std::array::from_fn(|_| AtomicU64::new(0)),
                aux_hits: AtomicU64::new(0),
                aux_misses: AtomicU64::new(0),
                aux_evictions: AtomicU64::new(0),
                aux_skipped_stores: AtomicU64::new(0),
                aux_bytes_peak: AtomicU64::new(0),
                workers: (0..MAX_WORKERS).map(|_| AtomicWorker::default()).collect(),
                queue_residency: AtomicHist::new(),
            })),
        }
    }

    /// An inert handle: every method is a no-op, `to_json` reports
    /// `"enabled": false`.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// A per-enumerator shard feeding this recorder (inert if the
    /// recorder is).
    pub fn local(&self) -> LocalRecorder {
        LocalRecorder {
            inner: self.inner.as_ref().map(|shared| {
                Box::new(LocalInner {
                    slots: [LocalSlot::default(); MAX_SLOTS],
                    depth: [LocalHist::default(); MAX_DEPTH],
                    alias_assignments: 0,
                    owned_intersections: 0,
                    budget_poll: LocalHist::default(),
                    input_len: LocalHist::default(),
                    skew_ratio: LocalHist::default(),
                    tier_calls: [0; 3],
                    tier_galloping: [0; 3],
                    aux_hits: 0,
                    aux_misses: 0,
                    aux_evictions: 0,
                    aux_skipped_stores: 0,
                    aux_bytes_peak: 0,
                    shared: Arc::clone(shared),
                })
            }),
        }
    }

    /// Merge a local shard into the aggregate and reset it (flushing
    /// twice is safe; the second flush adds zeros). The shard need not
    /// have come from this recorder — it flushes into the recorder it was
    /// created from.
    pub fn flush(&self, local: &mut LocalRecorder) {
        let Some(l) = &mut local.inner else { return };
        let s = &l.shared;
        for (a, lv) in s.slots.iter().zip(l.slots) {
            a.comp_calls.fetch_add(lv.comp_calls, R);
            a.comp_samples.fetch_add(lv.comp_samples, R);
            a.comp_nanos.fetch_add(lv.comp_nanos, R);
            a.mat_calls.fetch_add(lv.mat_calls, R);
            a.mat_samples.fetch_add(lv.mat_samples, R);
            a.mat_nanos.fetch_add(lv.mat_nanos, R);
        }
        for (a, lv) in s.depth.iter().zip(&l.depth) {
            a.merge_local(lv);
        }
        s.alias_assignments.fetch_add(l.alias_assignments, R);
        s.owned_intersections.fetch_add(l.owned_intersections, R);
        s.budget_poll.merge_local(&l.budget_poll);
        s.input_len.merge_local(&l.input_len);
        s.skew_ratio.merge_local(&l.skew_ratio);
        for t in 0..3 {
            s.tier_calls[t].fetch_add(l.tier_calls[t], R);
            s.tier_galloping[t].fetch_add(l.tier_galloping[t], R);
        }
        s.aux_hits.fetch_add(l.aux_hits, R);
        s.aux_misses.fetch_add(l.aux_misses, R);
        s.aux_evictions.fetch_add(l.aux_evictions, R);
        s.aux_skipped_stores.fetch_add(l.aux_skipped_stores, R);
        s.aux_bytes_peak.fetch_max(l.aux_bytes_peak, R);
        let shared = Arc::clone(s);
        *l.as_mut() = LocalInner {
            slots: [LocalSlot::default(); MAX_SLOTS],
            depth: [LocalHist::default(); MAX_DEPTH],
            alias_assignments: 0,
            owned_intersections: 0,
            budget_poll: LocalHist::default(),
            input_len: LocalHist::default(),
            skew_ratio: LocalHist::default(),
            tier_calls: [0; 3],
            tier_galloping: [0; 3],
            aux_hits: 0,
            aux_misses: 0,
            aux_evictions: 0,
            aux_skipped_stores: 0,
            aux_bytes_peak: 0,
            shared,
        };
    }

    /// Record one worker's scheduler counters (idempotence is the
    /// caller's concern; the scheduler flushes once per worker at
    /// retirement).
    pub fn record_worker(&self, w: &WorkerSample) {
        if let Some(s) = &self.inner {
            let a = &s.workers[w.worker.min(MAX_WORKERS - 1)];
            a.steals.fetch_add(w.steals, R);
            for (t, v) in a.steal_tiers.iter().zip(w.steal_tiers) {
                t.fetch_add(v, R);
            }
            a.splits.fetch_add(w.splits, R);
            a.parks.fetch_add(w.parks, R);
            a.tickets.fetch_add(w.tickets, R);
            a.donations.fetch_add(w.donations, R);
            a.tasks.fetch_add(w.tasks, R);
            a.parked_nanos.fetch_add(w.parked_nanos, R);
            a.flushes.fetch_add(1, R);
        }
    }

    /// Record the number of tasks resident in the system (pending queue
    /// depth) observed when a worker picked up a task.
    #[inline]
    pub fn queue_residency(&self, pending: usize) {
        if let Some(s) = &self.inner {
            s.queue_residency.record(pending as u64);
        }
    }

    /// Aggregate totals for programmatic consumers (bench harnesses).
    /// All-zero for an inert recorder.
    pub fn summary(&self) -> Summary {
        let Some(s) = &self.inner else {
            return Summary::default();
        };
        let mut out = Summary::default();
        for a in &s.slots {
            let (cc, cs, cn) = (
                a.comp_calls.load(R),
                a.comp_samples.load(R),
                a.comp_nanos.load(R),
            );
            let (mc, ms, mn) = (
                a.mat_calls.load(R),
                a.mat_samples.load(R),
                a.mat_nanos.load(R),
            );
            out.comp_calls += cc;
            out.mat_calls += mc;
            out.comp_est_ns += scale_estimate(cn, cs, cc);
            out.mat_est_ns += scale_estimate(mn, ms, mc);
        }
        out.alias_assignments = s.alias_assignments.load(R);
        out.owned_intersections = s.owned_intersections.load(R);
        for t in 0..3 {
            out.tier_calls[t] = s.tier_calls[t].load(R);
            out.tier_galloping[t] = s.tier_galloping[t].load(R);
        }
        out.input_len_count = s.input_len.count.load(R);
        out.input_len_sum = s.input_len.sum.load(R);
        out.aux_hits = s.aux_hits.load(R);
        out.aux_misses = s.aux_misses.load(R);
        out.aux_evictions = s.aux_evictions.load(R);
        out.aux_skipped_stores = s.aux_skipped_stores.load(R);
        out.aux_bytes_peak = s.aux_bytes_peak.load(R);
        out.queue_residency_count = s.queue_residency.count.load(R);
        out.queue_residency_sum = s.queue_residency.sum.load(R);
        for (i, w) in s.workers.iter().enumerate() {
            if w.flushes.load(R) == 0 {
                continue;
            }
            out.workers.push(WorkerSample {
                worker: i,
                steals: w.steals.load(R),
                steal_tiers: std::array::from_fn(|t| w.steal_tiers[t].load(R)),
                splits: w.splits.load(R),
                parks: w.parks.load(R),
                tickets: w.tickets.load(R),
                donations: w.donations.load(R),
                tasks: w.tasks.load(R),
                parked_nanos: w.parked_nanos.load(R),
            });
        }
        out
    }

    /// Export everything as a JSON object (hand-rolled — the workspace
    /// has no serde). Inert recorders report `{"enabled": false}`.
    pub fn to_json(&self) -> String {
        let Some(s) = &self.inner else {
            return "{\"enabled\": false}".into();
        };
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"enabled\": true,\n  \"slots\": [");
        let mut first = true;
        for (i, a) in s.slots.iter().enumerate() {
            let (cc, mc) = (a.comp_calls.load(R), a.mat_calls.load(R));
            if cc == 0 && mc == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let (cs, cn) = (a.comp_samples.load(R), a.comp_nanos.load(R));
            let (ms, mn) = (a.mat_samples.load(R), a.mat_nanos.load(R));
            out.push_str(&format!(
                "\n    {{\"slot\": {i}, \"comp_calls\": {cc}, \"comp_sampled\": {cs}, \
                 \"comp_sampled_ns\": {cn}, \"comp_est_total_ns\": {}, \
                 \"mat_calls\": {mc}, \"mat_sampled\": {ms}, \"mat_sampled_ns\": {mn}, \
                 \"mat_est_total_ns\": {}}}",
                scale_estimate(cn, cs, cc),
                scale_estimate(mn, ms, mc),
            ));
        }
        out.push_str("\n  ],\n  \"alias_assignments\": ");
        out.push_str(&s.alias_assignments.load(R).to_string());
        out.push_str(",\n  \"owned_intersections\": ");
        out.push_str(&s.owned_intersections.load(R).to_string());
        out.push_str(",\n  \"depth_candidates\": [");
        first = true;
        for (i, h) in s.depth.iter().enumerate() {
            if h.count.load(R) == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"depth\": {i}, \"sizes\": {}}}",
                h.json()
            ));
        }
        out.push_str("\n  ],\n  \"budget_poll_ns\": ");
        out.push_str(&s.budget_poll.json());
        out.push_str(",\n  \"setops\": {\n    \"tiers\": {");
        for (t, name) in TIER_NAMES.iter().enumerate() {
            if t > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"calls\": {}, \"galloping\": {}}}",
                s.tier_calls[t].load(R),
                s.tier_galloping[t].load(R)
            ));
        }
        let total: u64 = s.tier_calls.iter().map(|c| c.load(R)).sum();
        let gall: u64 = s.tier_galloping.iter().map(|c| c.load(R)).sum();
        out.push_str(&format!(
            "}},\n    \"total\": {total}, \"galloping\": {gall}, \"merge\": {},\n    \
             \"input_len\": {},\n    \"skew_ratio\": {}\n  }},\n",
            total - gall,
            s.input_len.json(),
            s.skew_ratio.json()
        ));
        let (ah, am) = (s.aux_hits.load(R), s.aux_misses.load(R));
        let hit_rate = if ah + am == 0 {
            0.0
        } else {
            ah as f64 / (ah + am) as f64
        };
        out.push_str(&format!(
            "  \"auxcache\": {{\n    \"hits\": {ah}, \"misses\": {am}, \
             \"hit_rate\": {hit_rate:.4},\n    \"evictions\": {}, \"skipped_stores\": {}, \
             \"bytes_peak\": {}\n  }},\n  \"scheduler\": {{\n    \"workers\": [",
            s.aux_evictions.load(R),
            s.aux_skipped_stores.load(R),
            s.aux_bytes_peak.load(R)
        ));
        first = true;
        for (i, w) in s.workers.iter().enumerate() {
            if w.flushes.load(R) == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let mut tiers = String::new();
            for (t, name) in crate::STEAL_TIER_NAMES.iter().enumerate() {
                if t > 0 {
                    tiers.push_str(", ");
                }
                tiers.push_str(&format!("\"{name}\": {}", w.steal_tiers[t].load(R)));
            }
            out.push_str(&format!(
                "\n      {{\"worker\": {i}, \"tasks\": {}, \"steals\": {}, \
                 \"steal_tiers\": {{{tiers}}}, \"splits\": {}, \"parks\": {}, \
                 \"tickets\": {}, \"donations\": {}, \"parked_ns\": {}}}",
                w.tasks.load(R),
                w.steals.load(R),
                w.splits.load(R),
                w.parks.load(R),
                w.tickets.load(R),
                w.donations.load(R),
                w.parked_nanos.load(R)
            ));
        }
        out.push_str("\n    ],\n    \"queue_residency\": ");
        out.push_str(&s.queue_residency.json());
        out.push_str("\n  }\n}");
        out
    }
}

/// Scale sampled nanoseconds up to an estimated total over all calls.
fn scale_estimate(sampled_nanos: u64, samples: u64, calls: u64) -> u64 {
    if samples == 0 {
        0
    } else {
        (sampled_nanos as u128 * calls as u128 / samples as u128) as u64
    }
}
