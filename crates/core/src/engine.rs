//! The σ-interpreting enumeration engine.
//!
//! One recursive executor implements SE, LM, MSC, and LIGHT: the differences
//! live entirely in the [`QueryPlan`] (eager vs lazy σ, backward-neighbor vs
//! set-cover operands). The executor walks σ; `COMP(u)` computes `C_φ(u)`
//! with Equation 6 over the plan's operands, `MAT(u)` binds `u` to each
//! surviving candidate and recurses.
//!
//! ## Hot-path design (see DESIGN.md §6 and the Rust perf-book guidance)
//!
//! * One candidate buffer per pattern vertex, reused across siblings, with
//!   a [`BufferPool`] free list recycling buffers across slot transitions —
//!   the engine allocates nothing after warm-up (the paper's `O(n · d_max)`
//!   memory bound per worker; proven by the counting-allocator test in
//!   `tests/zero_alloc.rs`).
//! * COMP operand slices are gathered into a stack array (operand counts
//!   are bounded by the `u8` pattern-vertex space), not a heap `Vec`.
//! * Single-operand candidate computations (`C(u3) := C(u1)` in Example
//!   V.1) are *aliases*, not copies: `CandRef` records where the set lives.
//! * Duplicate-vertex and symmetry checks are O(n) scans over φ — n ≤ 16.
//! * The wall-clock budget is polled once per [`DEADLINE_POLL_PERIOD`]
//!   deadline ticks (a tick fires per root binding, per MAT binding, *and*
//!   per COMP entry — dense graphs spend most of their time in COMP, so
//!   binding-only polling could overshoot a budget by orders of magnitude),
//!   keeping `Instant::now` off the hot path.
//! * Observability (per-slot COMP/MAT counters, candidate histograms) goes
//!   through a [`light_metrics::LocalRecorder`] shard — plain `u64` bumps
//!   when live, zero-sized no-ops unless the `metrics` feature is on. The
//!   shard is flushed into the shared recorder when the enumerator drops.
//!
//! ## Fault tolerance (see DESIGN.md §8)
//!
//! * A [`crate::CancelToken`] is polled on the deadline cadence, so Ctrl-C
//!   (or a watchdog) stops a run within one poll period and still yields a
//!   well-formed partial [`Report`].
//! * A candidate-memory watermark turns the §VII-B memory accounting into
//!   an enforcement point: crossing it ends the run with
//!   [`Outcome::MemoryExceeded`] instead of risking an OOM kill.
//! * [`Enumerator::recover_after_panic`] restores the engine's invariants
//!   after a panic unwound through the recursion, letting the parallel
//!   driver abandon one poisoned subtree and keep enumerating.
//! * The metrics shard is *field-borrowed* (not `mem::take`n) around the
//!   intersection kernel, so counters recorded before a mid-kernel panic
//!   survive to the flush.
//! * `fail_point!` sites (`engine::comp`, `engine::mat`,
//!   `engine::intersect`, `pool::acquire`) compile to zero-sized no-ops
//!   unless the `failpoint` feature is on; `tests/chaos.rs` arms them.

use std::ops::ControlFlow;
use std::time::Instant;

use light_graph::{CsrGraph, VertexId, INVALID_VERTEX};
use light_metrics::{LocalRecorder, Recorder, Stopwatch};
use light_order::exec_order::ExecOp;
use light_order::{QueryPlan, TrimDirective};
use light_pattern::MAX_PATTERN_VERTICES;
use light_setops::{intersect_many_recorded, trim_into, Intersector};

use crate::auxcache::AuxCache;
use crate::config::EngineConfig;
use crate::pool::BufferPool;
use crate::report::{EnumStats, Outcome, Report};
use crate::visitor::MatchVisitor;

/// COMP operand lists up to this length are gathered on the stack; the
/// planners emit at most one operand per pattern vertex and patterns are
/// far smaller than this in practice.
const STACK_OPERANDS: usize = 32;

/// Poll the wall-clock deadline and the cancellation token once per this
/// many deadline ticks (root bindings + MAT bindings + COMP entries). Must
/// be a power of two.
pub const DEADLINE_POLL_PERIOD: u64 = 1024;

/// Where a pattern vertex's candidate set currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CandRef {
    /// In `cands[u]` (the result of a real intersection).
    Owned,
    /// Alias of another pattern vertex's candidate set.
    AliasCand(u8),
    /// Alias of a data vertex's neighbor list.
    AliasNbr(VertexId),
}

/// Recursive enumerator over a fixed plan and data graph.
pub struct Enumerator<'a, V: MatchVisitor> {
    plan: &'a QueryPlan,
    g: &'a CsrGraph,
    visitor: &'a mut V,
    isec: Intersector,
    symmetry: bool,
    bind_filter: Option<crate::config::BindFilter>,

    /// φ: the data vertex bound to each pattern vertex, `INVALID_VERTEX`
    /// where unbound (always so past the pattern's size). Inline rather
    /// than a heap block because it is written on every bind: a block
    /// this small can be carved from a chunk that the thread which
    /// spawned the workers freed beside a sibling worker's, and two
    /// workers writing one cache line doubled the CPU time of a 2-thread
    /// run on a 2-vCPU x86-64 host.
    phi: [VertexId; MAX_PATTERN_VERTICES],
    cands: Vec<Vec<VertexId>>,
    cand_ref: Vec<CandRef>,
    scratch: Vec<VertexId>,
    pool: BufferPool,

    // Auxiliary candidate cache (DESIGN.md §11): memoized trimmed
    // adjacency lists, plus the bind-serial stamps that make staleness a
    // single u64 compare. `None` when disabled or the plan has no
    // directives — the hot path then pays one branch.
    aux: Option<AuxCache>,
    bind_serial: u64,
    bind_stamp: Vec<u64>,

    cand_bytes: usize,
    matches: u64,
    stats: EnumStats,

    metrics: Recorder,
    local: LocalRecorder,

    deadline: Option<Instant>,
    cancel: Option<crate::cancel::CancelToken>,
    poll_tick: u64,
    last_poll: Option<Instant>,
    timed_out: bool,
    stopped: bool,
    cancelled: bool,
    mem_exceeded: bool,
    cur_depth: usize,
}

impl<'a, V: MatchVisitor> Enumerator<'a, V> {
    /// Build an enumerator over a prepared plan.
    pub fn new(
        plan: &'a QueryPlan,
        g: &'a CsrGraph,
        config: &EngineConfig,
        visitor: &'a mut V,
    ) -> Self {
        let n = plan.pattern().num_vertices();
        let mut pool = BufferPool::new();
        pool.set_watermark(config.max_memory_bytes);
        let aux = if config.aux_cache && !plan.aux_directives().is_empty() {
            Some(AuxCache::new(plan.aux_directives().len()))
        } else {
            None
        };
        Enumerator {
            plan,
            g,
            visitor,
            isec: Intersector::with_delta(config.intersect, config.delta),
            symmetry: config.symmetry_breaking,
            bind_filter: config.bind_filter.clone(),
            phi: [INVALID_VERTEX; MAX_PATTERN_VERTICES],
            cands: vec![Vec::new(); n],
            cand_ref: vec![CandRef::Owned; n],
            scratch: Vec::new(),
            pool,
            aux,
            bind_serial: 0,
            bind_stamp: vec![0; plan.sigma().len()],
            cand_bytes: 0,
            matches: 0,
            stats: EnumStats::default(),
            metrics: config.metrics.clone(),
            local: config.metrics.local(),
            deadline: config.time_budget.map(|d| Instant::now() + d),
            cancel: config.cancel.clone(),
            poll_tick: 0,
            last_poll: None,
            timed_out: false,
            stopped: false,
            cancelled: false,
            mem_exceeded: false,
            cur_depth: 0,
        }
    }

    /// Enumerate over the full data graph.
    pub fn run(&mut self) -> Report {
        self.run_range(0, self.g.num_vertices() as VertexId)
    }

    /// Enumerate with the root vertex `π[1]` restricted to `[lo, hi)` —
    /// the search-space partitioning unit of the parallel driver (§VII-B).
    pub fn run_range(&mut self, lo: VertexId, hi: VertexId) -> Report {
        let start = Instant::now();
        debug_assert!(matches!(self.plan.sigma()[0], ExecOp::Mat(_)));
        let root = self.plan.pi()[0];
        for v in lo..hi {
            if self.should_halt() {
                break;
            }
            self.tick_deadline();
            self.stats.bindings += 1;
            if let Some(f) = &self.bind_filter {
                if !f(root, v) {
                    continue;
                }
            }
            self.cur_depth = 0;
            self.phi[root as usize] = v;
            self.bind_serial += 1;
            self.bind_stamp[0] = self.bind_serial;
            self.step(1);
            self.phi[root as usize] = INVALID_VERTEX;
        }
        let outcome = if self.timed_out {
            Outcome::OutOfTime
        } else if self.mem_exceeded {
            Outcome::MemoryExceeded
        } else if self.cancelled {
            Outcome::Cancelled
        } else if self.stopped {
            Outcome::StoppedByVisitor
        } else {
            Outcome::Complete
        };
        self.stats.pool = self.pool.stats();
        Report {
            matches: self.matches,
            outcome,
            elapsed: start.elapsed(),
            stats: self.stats,
        }
    }

    /// Matches found so far (accumulates across `run_range` calls — the
    /// parallel driver reads this once after its last task).
    pub fn matches(&self) -> u64 {
        self.matches
    }

    /// Statistics so far (accumulate across `run_range` calls).
    pub fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Whether the wall-clock budget has been exhausted.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Whether the visitor requested an early stop.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Whether cancellation was observed (see [`crate::CancelToken`]).
    pub fn cancelled(&self) -> bool {
        self.cancelled
    }

    /// Whether the candidate-memory watermark was crossed.
    pub fn memory_exceeded(&self) -> bool {
        self.mem_exceeded
    }

    /// The σ-slot depth most recently entered by the recursion. Only
    /// meaningful immediately after a panic unwound through the recursion
    /// (the parallel driver records it in
    /// [`crate::error::EnumError::WorkerPanic`]); during normal operation
    /// it lags the live recursion.
    pub fn current_depth(&self) -> usize {
        self.cur_depth
    }

    /// Any condition that must end the enumeration early.
    #[inline]
    fn should_halt(&self) -> bool {
        self.stopped || self.timed_out || self.cancelled || self.mem_exceeded
    }

    /// Restore the engine's internal invariants after a panic unwound
    /// through [`Self::run_range`] (a failpoint, a visitor panic, a bug in
    /// a kernel). Clears the partial assignment and every candidate slot
    /// (alias links may dangle into abandoned state), zeroes the live
    /// memory account, and flushes the metrics shard so activity recorded
    /// before the panic is not lost.
    ///
    /// `matches` and `stats` are deliberately kept: the match counter only
    /// increments on fully verified emitted matches, so after recovery it
    /// remains an exact count of the subtrees enumerated so far — a valid
    /// lower bound for the whole run.
    pub fn recover_after_panic(&mut self) {
        for p in &mut self.phi {
            *p = INVALID_VERTEX;
        }
        for r in &mut self.cand_ref {
            *r = CandRef::Owned;
        }
        for c in &mut self.cands {
            c.clear();
        }
        self.scratch.clear();
        self.cand_bytes = 0;
        self.cur_depth = 0;
        self.metrics.flush(&mut self.local);
    }

    /// Resolve a pattern vertex's candidate set through alias links.
    #[inline]
    fn cand_slice(&self, u: u8) -> &[VertexId] {
        resolve_cand(&self.cand_ref, &self.cands, self.g, u)
    }

    /// One deadline tick. Fired per root binding, per MAT binding, and per
    /// COMP entry; actually reads the clock (and polls the cancellation
    /// token) once per [`DEADLINE_POLL_PERIOD`] ticks. The old scheme
    /// counted only *bindings* (once per 8192), so a dense graph whose time
    /// went into huge COMP intersections between bindings could blow
    /// through a small budget by orders of magnitude.
    #[inline]
    fn tick_deadline(&mut self) {
        if self.deadline.is_none() && self.cancel.is_none() {
            return;
        }
        self.poll_tick += 1;
        if self.poll_tick & (DEADLINE_POLL_PERIOD - 1) != 0 {
            return;
        }
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                self.cancelled = true;
            }
        }
        let Some(d) = self.deadline else { return };
        let now = Instant::now();
        if let Some(prev) = self.last_poll.replace(now) {
            self.local
                .budget_poll_gap(now.duration_since(prev).as_nanos() as u64);
        }
        if now >= d {
            self.timed_out = true;
        }
    }

    fn step(&mut self, i: usize) {
        if self.should_halt() {
            return;
        }
        self.cur_depth = i;
        if i == self.plan.sigma().len() {
            self.matches += 1;
            let n = self.plan.pattern().num_vertices();
            if self.visitor.on_match(&self.phi[..n]) == ControlFlow::Break(()) {
                self.stopped = true;
            }
            return;
        }
        match self.plan.sigma()[i] {
            ExecOp::Comp(u) => self.do_comp(u, i),
            ExecOp::Mat(u) => self.do_mat(u, i),
        }
    }

    fn do_comp(&mut self, u: u8, i: usize) {
        light_failpoint::fail_point!("engine::comp");
        // Budget fix: COMP dominates runtime on dense graphs with large
        // candidate sets, so the deadline must tick here, not only per
        // binding.
        self.tick_deadline();
        if self.should_halt() {
            return;
        }
        let sample = self.local.comp_call(u as usize);
        let sw = Stopwatch::start(sample);

        debug_assert!(
            self.plan.operands()[u as usize].num_operands() >= 1,
            "COMP with no operands"
        );

        // Retire the previous contents of this vertex's slot (from an
        // earlier sibling subtree) from the memory account before the slot
        // is reused.
        self.release_cand(u);

        if self.plan.operands()[u as usize].num_operands() == 1 {
            // Assignment, not intersection (Example V.1): record an alias.
            // The slot's previous owned buffer would strand its capacity
            // behind the alias; recycle it through the pool instead.
            if self.cands[u as usize].capacity() > 0 {
                let buf = std::mem::take(&mut self.cands[u as usize]);
                self.pool.release(buf);
            }
            let ops = &self.plan.operands()[u as usize];
            let new_ref = if let Some(&w) = ops.k1.first() {
                CandRef::AliasNbr(self.phi[w as usize])
            } else {
                CandRef::AliasCand(ops.k2[0])
            };
            self.cand_ref[u as usize] = new_ref;
            self.local.alias_assign();
        } else {
            // Real intersection: gather operand slices, smallest-first
            // ordering happens inside intersect_many (min property).
            let mut out = std::mem::take(&mut self.cands[u as usize]);
            if out.capacity() == 0 {
                // First use of this slot (or its buffer moved to the pool
                // while aliased): recycle pooled capacity if any.
                out = self.pool.acquire();
            }
            // Auxiliary cache probe (DESIGN.md §11): if the planner marked
            // this COMP, its result while the fixed prefix stands is a pure
            // function of φ(key) — a valid entry replaces the whole
            // intersection with a copy.
            let aux_idx = if self.aux.is_some() {
                self.plan.aux_for(u)
            } else {
                None
            };
            let mut pending_store: Option<(usize, TrimDirective, VertexId)> = None;
            let mut aux_hit = false;
            if let Some(di) = aux_idx {
                let d = self.plan.aux_directives()[di];
                let key_v = self.phi[d.key as usize];
                debug_assert_ne!(key_v, INVALID_VERTEX);
                let guard = self.bind_stamp[d.guard_slot];
                match self.aux.as_ref().and_then(|a| a.lookup(di, key_v, guard)) {
                    Some(cached) => {
                        out.clear();
                        out.extend_from_slice(cached);
                        aux_hit = true;
                    }
                    None => pending_store = Some((di, d, key_v)),
                }
                if aux_hit {
                    self.stats.aux.hits += 1;
                    self.local.aux_hit();
                } else {
                    self.stats.aux.misses += 1;
                    self.local.aux_miss();
                }
            }
            if !aux_hit {
                // Split the borrow of `self` field-by-field instead of
                // `mem::take`-ing the scratch buffer, the intersect counters,
                // and the metrics shard around the kernel call. The shard in
                // particular must stay in place: taking it meant a panic inside
                // the kernel dropped every counter recorded since the last
                // flush (the shard-loss bug exercised by
                // `panic_in_intersection_keeps_metrics_shard`).
                let Enumerator {
                    plan,
                    g,
                    isec,
                    phi,
                    cands,
                    cand_ref,
                    scratch,
                    stats,
                    local,
                    ..
                } = self;
                let (g, cands, cand_ref, phi) = (*g, &**cands, &**cand_ref, &phi[..]);
                let ops = &plan.operands()[u as usize];
                local.owned_intersection();
                light_failpoint::fail_point!("engine::intersect");
                if let Some((_, d, key_v)) = pending_store {
                    // Trim form of the same intersection: fold the key
                    // vertex's neighbor list against the fixed operands so
                    // the result is directly storable.
                    debug_assert!(ops.num_operands() <= STACK_OPERANDS);
                    let mut filters: [&[VertexId]; STACK_OPERANDS] = [&[]; STACK_OPERANDS];
                    let mut k = 0;
                    let mut skipped = false;
                    for &w in &ops.k1 {
                        if !skipped && w == d.key {
                            skipped = true;
                            continue;
                        }
                        debug_assert_ne!(phi[w as usize], INVALID_VERTEX);
                        filters[k] = g.neighbors(phi[w as usize]);
                        k += 1;
                    }
                    for &w in &ops.k2 {
                        filters[k] = resolve_cand(cand_ref, cands, g, w);
                        k += 1;
                    }
                    trim_into(
                        isec,
                        g.neighbors(key_v),
                        &filters[..k],
                        &mut out,
                        scratch,
                        &mut stats.intersect,
                        local,
                    );
                } else if ops.num_operands() <= STACK_OPERANDS {
                    let mut sets: [&[VertexId]; STACK_OPERANDS] = [&[]; STACK_OPERANDS];
                    let mut k = 0;
                    for &w in &ops.k1 {
                        debug_assert_ne!(phi[w as usize], INVALID_VERTEX);
                        sets[k] = g.neighbors(phi[w as usize]);
                        k += 1;
                    }
                    for &w in &ops.k2 {
                        sets[k] = resolve_cand(cand_ref, cands, g, w);
                        k += 1;
                    }
                    intersect_many_recorded(
                        isec,
                        &sets[..k],
                        &mut out,
                        scratch,
                        &mut stats.intersect,
                        local,
                    );
                } else {
                    // Cold path for absurdly wide patterns.
                    let mut sets: Vec<&[VertexId]> = Vec::with_capacity(ops.num_operands());
                    for &w in &ops.k1 {
                        debug_assert_ne!(phi[w as usize], INVALID_VERTEX);
                        sets.push(g.neighbors(phi[w as usize]));
                    }
                    for &w in &ops.k2 {
                        sets.push(resolve_cand(cand_ref, cands, g, w));
                    }
                    intersect_many_recorded(
                        isec,
                        &sets,
                        &mut out,
                        scratch,
                        &mut stats.intersect,
                        local,
                    );
                }
            }
            if let Some((di, _, key_v)) = pending_store {
                self.try_aux_store(di, key_v, &out);
            }
            self.set_cand_owned(u, out);
        }

        self.local.candidate_size(i, self.cand_slice(u).len());
        if let Some(ns) = sw.stop() {
            self.local.comp_nanos(u as usize, ns);
        }
        if !self.cand_slice(u).is_empty() {
            self.step(i + 1);
        }
    }

    fn do_mat(&mut self, u: u8, i: usize) {
        light_failpoint::fail_point!("engine::mat");
        // MAT timing is *inclusive* of the recursion below it: the sampled
        // wall time of slot u covers the whole subtree rooted at binding u,
        // which is what a per-slot cost breakdown wants.
        let sample = self.local.mat_call(u as usize);
        let sw = Stopwatch::start(sample);
        let len = self.cand_slice(u).len();
        let constraints = &self.plan.constraints()[u as usize];
        for idx in 0..len {
            if self.should_halt() {
                break;
            }
            let v = self.cand_slice(u)[idx];

            // Injectivity: v must not already be mapped (Algorithm 1 line 12).
            if self.phi.contains(&v) {
                continue;
            }
            // Custom admission filter (labeled matching / pruning hooks).
            if let Some(f) = &self.bind_filter {
                if !f(u, v) {
                    continue;
                }
            }
            // Symmetry breaking: enforce every constraint whose other
            // endpoint is already mapped (IDs are degree-ordered, so `<` is
            // a plain integer compare).
            if self.symmetry {
                let lower_ok = constraints
                    .must_be_larger_than
                    .iter()
                    .all(|&w| self.phi[w as usize] == INVALID_VERTEX || self.phi[w as usize] < v);
                let upper_ok = constraints
                    .must_be_smaller_than
                    .iter()
                    .all(|&w| self.phi[w as usize] == INVALID_VERTEX || v < self.phi[w as usize]);
                if !lower_ok || !upper_ok {
                    continue;
                }
            }

            self.stats.bindings += 1;
            self.tick_deadline();
            self.phi[u as usize] = v;
            // Monotone bind stamp: anything the aux cache filled under an
            // earlier binding of this slot is now provably stale (the
            // guard-slot validity check in DESIGN.md §11).
            self.bind_serial += 1;
            self.bind_stamp[i] = self.bind_serial;
            self.step(i + 1);
            self.phi[u as usize] = INVALID_VERTEX;
        }
        if let Some(ns) = sw.stop() {
            self.local.mat_nanos(u as usize, ns);
        }
    }

    /// Remove `u`'s current candidate set from the memory account and reset
    /// its slot to (empty) owned. Must be called before the slot is reused.
    fn release_cand(&mut self, u: u8) {
        if self.cand_ref[u as usize] == CandRef::Owned {
            self.cand_bytes -= self.cands[u as usize].len() * 4;
        }
        self.cand_ref[u as usize] = CandRef::Owned;
    }

    /// Install a freshly computed (owned) candidate set for `u`. The slot
    /// must have been released by [`Self::release_cand`] first.
    ///
    /// The watermark check covers candidate bytes *plus* auxiliary-cache
    /// bytes, but the cache is sacrificed first: only if live candidates
    /// alone still cross the limit does the run end with
    /// [`Outcome::MemoryExceeded`] — caching never turns a feasible run
    /// into a failed one.
    fn set_cand_owned(&mut self, u: u8, buf: Vec<VertexId>) {
        debug_assert_eq!(self.cand_ref[u as usize], CandRef::Owned);
        self.cand_bytes += buf.len() * 4;
        self.cands[u as usize] = buf;
        self.stats.peak_candidate_bytes = self.stats.peak_candidate_bytes.max(self.cand_bytes);
        let aux_bytes = self.aux.as_ref().map_or(0, |a| a.bytes());
        if self.pool.over_watermark(self.cand_bytes + aux_bytes) {
            if aux_bytes > 0 {
                let n = self.aux.as_mut().expect("aux_bytes > 0").evict_all();
                self.stats.aux.evictions += n;
                self.local.aux_evict(n);
            }
            if self.pool.over_watermark(self.cand_bytes) {
                self.mem_exceeded = true;
            }
        }
    }

    /// Try to insert a freshly trimmed list into the auxiliary cache.
    /// Under watermark pressure the cache empties itself (returning heap
    /// to the allocator) and the store is skipped — graceful degradation
    /// instead of a [`Outcome::MemoryExceeded`] exit.
    fn try_aux_store(&mut self, di: usize, key_v: VertexId, data: &[VertexId]) {
        let serial = self.bind_serial;
        let Some(aux) = self.aux.as_mut() else { return };
        // `data` is about to be accounted as a live candidate set by
        // set_cand_owned AND copied into the cache; project both.
        let projected = self.cand_bytes + 2 * data.len() * 4 + aux.bytes();
        if self.pool.over_watermark(projected) {
            let n = aux.evict_all();
            self.stats.aux.evictions += n;
            self.local.aux_evict(n);
            self.stats.aux.skipped_stores += 1;
            self.local.aux_store_skip();
            return;
        }
        let evicted = aux.store(di, key_v, serial, data, &mut self.pool);
        if evicted {
            self.stats.aux.evictions += 1;
            self.local.aux_evict(1);
        }
        let b = aux.bytes();
        self.stats.aux.bytes_peak = self.stats.aux.bytes_peak.max(b);
        self.local.aux_bytes(b);
    }
}

/// Resolve a pattern vertex's candidate set through alias links — the
/// free-function form of `Enumerator::cand_slice`, usable while `self` is
/// split into disjoint field borrows (the COMP hot path).
#[inline]
fn resolve_cand<'s>(
    cand_ref: &[CandRef],
    cands: &'s [Vec<VertexId>],
    g: &'s CsrGraph,
    mut u: u8,
) -> &'s [VertexId] {
    loop {
        match cand_ref[u as usize] {
            CandRef::Owned => return &cands[u as usize],
            CandRef::AliasCand(w) => u = w,
            CandRef::AliasNbr(v) => return g.neighbors(v),
        }
    }
}

impl<V: MatchVisitor> Drop for Enumerator<'_, V> {
    fn drop(&mut self) {
        // Flush the thread-local metrics shard into the shared recorder.
        // `flush` resets the shard, so dropping after an explicit flush (or
        // with no live recorder at all) is harmless.
        self.metrics.flush(&mut self.local);
    }
}

/// Run a prepared plan over `g` with the given visitor, returning the
/// report. The entry point behind [`crate::run_query`].
pub fn run_plan<V: MatchVisitor>(
    plan: &QueryPlan,
    g: &CsrGraph,
    config: &EngineConfig,
    visitor: &mut V,
) -> Report {
    Enumerator::new(plan, g, config, visitor).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, EngineVariant};
    use crate::visitor::{CollectVisitor, CountVisitor, FirstKVisitor};
    use light_graph::generators;
    use light_pattern::Query;
    use std::time::Duration;

    fn count(pattern: &light_pattern::PatternGraph, g: &CsrGraph, cfg: &EngineConfig) -> u64 {
        let plan = cfg.plan(pattern, g);
        let mut v = CountVisitor::default();
        run_plan(&plan, g, cfg, &mut v).matches
    }

    #[test]
    fn triangles_in_complete_graphs() {
        // K_n has C(n,3) triangles (symmetry breaking dedups the 6 orders).
        for n in [3usize, 4, 5, 6, 10] {
            let g = generators::complete(n);
            let expect = (n * (n - 1) * (n - 2) / 6) as u64;
            for variant in EngineVariant::ALL {
                let cfg = EngineConfig::with_variant(variant);
                assert_eq!(
                    count(&Query::Triangle.pattern(), &g, &cfg),
                    expect,
                    "K_{n} {}",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn triangles_match_substrate_counter() {
        let g = generators::barabasi_albert(300, 5, 17);
        let expect = light_graph::stats::count_triangles(&g);
        for variant in EngineVariant::ALL {
            let cfg = EngineConfig::with_variant(variant);
            assert_eq!(
                count(&Query::Triangle.pattern(), &g, &cfg),
                expect,
                "{}",
                variant.name()
            );
        }
    }

    #[test]
    fn squares_in_grid() {
        // A rows x cols grid has (rows-1)(cols-1) unit squares and no other
        // 4-cycles.
        let g = generators::grid(4, 5);
        let expect = 3 * 4;
        for variant in EngineVariant::ALL {
            let cfg = EngineConfig::with_variant(variant);
            assert_eq!(
                count(&Query::P1.pattern(), &g, &cfg),
                expect,
                "{}",
                variant.name()
            );
        }
    }

    #[test]
    fn cliques_in_complete_graph() {
        // K7: C(7,4) 4-cliques, C(7,5) 5-cliques.
        let g = generators::complete(7);
        assert_eq!(count(&Query::P3.pattern(), &g, &EngineConfig::light()), 35);
        assert_eq!(count(&Query::P7.pattern(), &g, &EngineConfig::light()), 21);
    }

    #[test]
    fn diamonds_in_k4() {
        // K4 has 4 subgraphs isomorphic to... each diamond = choose the
        // missing edge among the 6: the diamond subgraphs of K4 are picked
        // by selecting 4 vertices (1 way) and the non-adjacent pair (u1,u3)
        // (6 choices of chord pair... ). Count with brute force instead:
        // diamond has 4 automorphisms; total injective homs = ?
        // Simplest: every 4-subset of K4 = K4 itself; subgraphs isomorphic
        // to diamond = choose which pair is the "missing" edge = 6... but
        // the diamond requires the missing edge to be ABSENT only in the
        // pattern (subgraph isomorphism allows extra edges in G). So count
        // = injective homs / |Aut| = (4·3·2·1 ways to place... ) = 24/4 = 6.
        let g = generators::complete(4);
        assert_eq!(count(&Query::P2.pattern(), &g, &EngineConfig::light()), 6);
    }

    #[test]
    fn all_variants_agree_on_all_patterns() {
        let g = generators::barabasi_albert(150, 4, 23);
        for q in Query::ALL {
            let counts: Vec<u64> = EngineVariant::ALL
                .iter()
                .map(|&v| count(&q.pattern(), &g, &EngineConfig::with_variant(v)))
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{}: {counts:?}",
                q.name()
            );
        }
    }

    #[test]
    fn symmetry_breaking_divides_by_automorphisms() {
        let g = generators::barabasi_albert(120, 4, 31);
        for q in [Query::P1, Query::P2, Query::P3, Query::Triangle] {
            let p = q.pattern();
            let autos = light_pattern::automorphism::automorphisms(&p).len() as u64;
            let with_sb = count(&p, &g, &EngineConfig::light());
            let without = count(&p, &g, &EngineConfig::light().symmetry(false));
            assert_eq!(without, with_sb * autos, "{}", q.name());
        }
    }

    #[test]
    fn collector_returns_valid_matches() {
        let g = generators::barabasi_albert(80, 3, 5);
        let p = Query::Triangle.pattern();
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&p, &g);
        let mut v = CollectVisitor::default();
        run_plan(&plan, &g, &cfg, &mut v);
        for m in v.matches() {
            // Injective and edge-preserving.
            assert_eq!(m.len(), 3);
            assert!(m[0] != m[1] && m[1] != m[2] && m[0] != m[2]);
            for (a, b) in p.edges() {
                assert!(g.contains_edge(m[a as usize], m[b as usize]));
            }
        }
    }

    #[test]
    fn first_k_stops_early() {
        let g = generators::complete(20);
        let p = Query::Triangle.pattern();
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&p, &g);
        let mut v = FirstKVisitor::new(5);
        let report = run_plan(&plan, &g, &cfg, &mut v);
        assert_eq!(report.matches, 5);
        assert_eq!(report.outcome, Outcome::StoppedByVisitor);
    }

    #[test]
    fn time_budget_triggers_oot() {
        let g = generators::complete(150); // plenty of work
        let p = Query::P7.pattern();
        let cfg = EngineConfig::light().budget(Duration::from_millis(10));
        let plan = cfg.plan(&p, &g);
        let mut v = CountVisitor::default();
        let report = run_plan(&plan, &g, &cfg, &mut v);
        assert_eq!(report.outcome, Outcome::OutOfTime);
    }

    #[test]
    fn tiny_budget_terminates_promptly_on_dense_graph() {
        // Regression for binding-only deadline polling: K_400 with a
        // 5-clique query spends nearly all its time in COMP over ~400-wide
        // neighbor lists, and the full enumeration would take hours. With
        // COMP-entry ticks a ~1ms budget must stop the run within a small
        // multiple of itself (the bound below is generous for slow debug
        // builds, but orders of magnitude under any binding-starved
        // overshoot).
        let g = generators::complete(400);
        let p = Query::P7.pattern();
        let cfg = EngineConfig::light().budget(Duration::from_millis(1));
        let plan = cfg.plan(&p, &g);
        let mut v = CountVisitor::default();
        let report = run_plan(&plan, &g, &cfg, &mut v);
        assert_eq!(report.outcome, Outcome::OutOfTime);
        assert!(
            report.elapsed < Duration::from_millis(500),
            "1ms budget overshot to {:?}",
            report.elapsed
        );
    }

    #[test]
    fn cancel_token_yields_cancelled_outcome() {
        // Pre-cancelled token: the first poll (tick 1024) observes it and
        // the run ends with a partial count instead of enumerating the
        // ~5.4M 5-cliques of K60.
        let g = generators::complete(60);
        let p = Query::P7.pattern();
        let tok = crate::CancelToken::new();
        tok.cancel();
        let cfg = EngineConfig::light().cancel_token(tok);
        let plan = cfg.plan(&p, &g);
        let mut v = CountVisitor::default();
        let report = run_plan(&plan, &g, &cfg, &mut v);
        assert_eq!(report.outcome, Outcome::Cancelled);
        let full = (56..=60).product::<u64>() / 120; // C(60,5)
        assert!(
            report.matches < full,
            "cancel left {} matches",
            report.matches
        );
    }

    #[test]
    fn uncancelled_token_is_count_neutral() {
        let g = generators::barabasi_albert(150, 4, 23);
        let p = Query::P2.pattern();
        let baseline = count(&p, &g, &EngineConfig::light());
        let cfg = EngineConfig::light().cancel_token(crate::CancelToken::new());
        assert_eq!(count(&p, &g, &cfg), baseline);
    }

    #[test]
    fn memory_watermark_yields_memory_exceeded() {
        // K120's first real COMP output is ~119 candidates (476 bytes), so
        // a 64-byte watermark trips almost immediately.
        let g = generators::complete(120);
        let p = Query::P7.pattern();
        let cfg = EngineConfig::light().max_memory(64);
        let plan = cfg.plan(&p, &g);
        let mut v = CountVisitor::default();
        let report = run_plan(&plan, &g, &cfg, &mut v);
        assert_eq!(report.outcome, Outcome::MemoryExceeded);
        // A generous watermark never trips.
        let cfg = EngineConfig::light().max_memory(1 << 30);
        let g = generators::complete(12);
        let plan = cfg.plan(&p, &g);
        let mut v = CountVisitor::default();
        let report = run_plan(&plan, &g, &cfg, &mut v);
        assert_eq!(report.outcome, Outcome::Complete);
        assert_eq!(report.matches, 792); // C(12,5)
    }

    #[test]
    fn recover_after_panic_restores_invariants() {
        // Drive a real panic out of the recursion with a panicking visitor,
        // recover, and check the enumerator finishes the remaining roots
        // with exact counts for them.
        struct PanickingVisitor {
            seen: u64,
            panic_at: u64,
        }
        impl crate::visitor::MatchVisitor for PanickingVisitor {
            fn on_match(&mut self, _phi: &[VertexId]) -> ControlFlow<()> {
                self.seen += 1;
                if self.seen == self.panic_at {
                    panic!("chaos visitor");
                }
                ControlFlow::Continue(())
            }
        }
        let g = generators::complete(10);
        let p = Query::Triangle.pattern();
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&p, &g);
        let mut v = PanickingVisitor {
            seen: 0,
            panic_at: 5,
        };
        let mut e = Enumerator::new(&plan, &g, &cfg, &mut v);
        let n = g.num_vertices() as VertexId;
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.run_range(0, n);
        }));
        std::panic::set_hook(hook);
        assert!(err.is_err(), "visitor panic must propagate");
        assert!(e.current_depth() > 0);
        e.recover_after_panic();
        assert_eq!(e.current_depth(), 0);
        // The engine counted 5 matches (the fifth was real and counted
        // before the visitor panicked while observing it); the range
        // enumerates cleanly on the same instance afterwards.
        let before = e.matches();
        assert_eq!(before, 5);
        let report = e.run_range(0, n);
        assert_eq!(report.outcome, Outcome::Complete);
        assert!(report.matches > before);
    }

    #[test]
    fn metrics_attachment_is_count_neutral() {
        // Attaching a live recorder must not change what is enumerated, in
        // either feature configuration; with `metrics` compiled in it must
        // actually capture the per-slot COMP/MAT activity.
        let g = generators::barabasi_albert(200, 4, 9);
        for q in [Query::Triangle, Query::P2] {
            let p = q.pattern();
            let baseline = count(&p, &g, &EngineConfig::light());
            let rec = light_metrics::Recorder::new();
            let cfg = EngineConfig::light().metrics(rec.clone());
            assert_eq!(count(&p, &g, &cfg), baseline, "{}", q.name());
            let json = rec.to_json();
            if light_metrics::ENABLED {
                assert!(json.contains("\"slots\""), "{json}");
                assert!(json.contains("\"comp_calls\""), "{json}");
                assert!(json.contains("\"depth_candidates\""), "{json}");
            } else {
                assert!(json.contains("\"enabled\": false"), "{json}");
            }
        }
    }

    #[test]
    fn range_split_partitions_matches() {
        let g = generators::barabasi_albert(200, 4, 9);
        let p = Query::P2.pattern();
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&p, &g);
        let mut full_visitor = CountVisitor::default();
        let full = Enumerator::new(&plan, &g, &cfg, &mut full_visitor)
            .run()
            .matches;
        let n = g.num_vertices() as VertexId;
        let mut split_total = 0;
        for (lo, hi) in [(0, n / 3), (n / 3, 2 * n / 3), (2 * n / 3, n)] {
            let mut v = CountVisitor::default();
            split_total += Enumerator::new(&plan, &g, &cfg, &mut v)
                .run_range(lo, hi)
                .matches;
        }
        assert_eq!(split_total, full);
    }

    #[test]
    fn light_does_fewer_intersections_than_se() {
        let g = generators::barabasi_albert(300, 6, 13);
        let p = Query::P2.pattern();
        let se_cfg = EngineConfig::with_variant(EngineVariant::Se);
        let light_cfg = EngineConfig::with_variant(EngineVariant::Light);
        let se_plan = se_cfg.plan(&p, &g);
        let light_plan = light_cfg.plan(&p, &g);
        let mut v1 = CountVisitor::default();
        let mut v2 = CountVisitor::default();
        let se_report = run_plan(&se_plan, &g, &se_cfg, &mut v1);
        let light_report = run_plan(&light_plan, &g, &light_cfg, &mut v2);
        assert_eq!(se_report.matches, light_report.matches);
        assert!(
            light_report.stats.intersect.total < se_report.stats.intersect.total,
            "LIGHT {} vs SE {}",
            light_report.stats.intersect.total,
            se_report.stats.intersect.total
        );
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let p = Query::Triangle.pattern();
        let cfg = EngineConfig::light();
        let empty = light_graph::GraphBuilder::new()
            .with_num_vertices(5)
            .build();
        assert_eq!(count(&p, &empty, &cfg), 0);
        let edge = light_graph::builder::from_edges([(0, 1)]);
        assert_eq!(count(&p, &edge, &cfg), 0);
    }

    #[test]
    fn config_delta_reaches_the_dispatcher() {
        // δ=1 makes every Hybrid dispatch gallop; a huge δ makes every
        // dispatch merge. Counts must agree; the stats must show the knob
        // actually reached the kernel (regression for a config field that
        // parses but is never wired through).
        let g = generators::barabasi_albert(200, 5, 7);
        let p = Query::P2.pattern();
        let base = EngineConfig::light().intersect(light_setops::IntersectKind::HybridScalar);
        let all_gallop = base.clone().delta(1);
        let no_gallop = base.clone().delta(1_000_000);
        let plan = base.plan(&p, &g);
        let mut v1 = CountVisitor::default();
        let r1 = run_plan(&plan, &g, &all_gallop, &mut v1);
        let mut v2 = CountVisitor::default();
        let r2 = run_plan(&plan, &g, &no_gallop, &mut v2);
        assert_eq!(r1.matches, r2.matches);
        assert!(r1.stats.intersect.total > 0);
        assert_eq!(r1.stats.intersect.galloping, r1.stats.intersect.total);
        assert_eq!(r2.stats.intersect.galloping, 0);
    }

    #[test]
    fn aux_cache_hits_and_is_count_neutral() {
        // The square (P1) carries a trim directive; on a graph with shared
        // neighborhoods the key vertex recurs across siblings, so the
        // cache must record hits — and the count must match cache-off.
        let g = generators::barabasi_albert(300, 6, 41);
        let p = Query::P1.pattern();
        let on = EngineConfig::light().aux_cache(true);
        let off = EngineConfig::light().aux_cache(false);
        let plan_on = on.plan(&p, &g);
        assert!(
            !plan_on.aux_directives().is_empty(),
            "P1 must plan a directive"
        );
        let mut v1 = CountVisitor::default();
        let r_on = run_plan(&plan_on, &g, &on, &mut v1);
        let mut v2 = CountVisitor::default();
        let r_off = run_plan(&off.plan(&p, &g), &g, &off, &mut v2);
        assert_eq!(r_on.matches, r_off.matches);
        assert!(r_on.stats.aux.hits > 0, "{:?}", r_on.stats.aux);
        assert_eq!(r_off.stats.aux.hits + r_off.stats.aux.misses, 0);
        // Every hit is an intersection the engine did not perform.
        assert!(
            r_on.stats.intersect.total < r_off.stats.intersect.total,
            "on {} vs off {}",
            r_on.stats.intersect.total,
            r_off.stats.intersect.total
        );
        assert!(r_on.stats.aux.bytes_peak > 0);
    }

    #[test]
    fn aux_cache_under_memory_pressure_degrades_not_dies() {
        // Watermark sized so candidates alone fit but candidates + cache
        // do not: the run must complete with the exact count, shedding the
        // cache instead of reporting MemoryExceeded.
        let g = generators::barabasi_albert(300, 6, 41);
        let p = Query::P1.pattern();
        let off = EngineConfig::light().aux_cache(false);
        let mut v = CountVisitor::default();
        let r_off = run_plan(&off.plan(&p, &g), &g, &off, &mut v);
        let budget = r_off.stats.peak_candidate_bytes * 2 + 256;
        let on = EngineConfig::light().aux_cache(true).max_memory(budget);
        let mut v = CountVisitor::default();
        let r_on = run_plan(&on.plan(&p, &g), &g, &on, &mut v);
        assert_eq!(r_on.outcome, Outcome::Complete, "{:?}", r_on.stats.aux);
        assert_eq!(r_on.matches, r_off.matches);
        assert!(
            r_on.stats.aux.skipped_stores > 0 || r_on.stats.aux.evictions > 0,
            "pressure never materialized: {:?}",
            r_on.stats.aux
        );
    }

    #[test]
    fn peak_candidate_memory_is_tracked() {
        let g = generators::barabasi_albert(500, 8, 3);
        let p = Query::P2.pattern();
        let cfg = EngineConfig::light();
        let plan = cfg.plan(&p, &g);
        let mut v = CountVisitor::default();
        let report = run_plan(&plan, &g, &cfg, &mut v);
        assert!(report.stats.peak_candidate_bytes > 0);
        // Bound from §VII-B: n * d_max * 4 bytes per worker.
        assert!(report.stats.peak_candidate_bytes <= 4 * g.max_degree() * 4);
    }
}
