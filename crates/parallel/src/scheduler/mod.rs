//! The sender-initiated work-stealing scheduler.
//!
//! ## Queue architecture
//!
//! Tasks are root-vertex ranges, so the queues carry a handful of tasks
//! per run (one seed per worker plus one per donation). Each queue is a
//! `Mutex<VecDeque<Task>>`; no sweep ever holds two of these locks.
//!
//! * **Per-worker deques** — the owner pushes and pops at the back
//!   (LIFO); thieves pop from the front (FIFO, the oldest task).
//!   Donations go to the donor's *own* deque and are picked up by
//!   thieves.
//! * **A FIFO seed queue** — holds the initial partition. A pickup from it
//!   is not a steal.
//! * **A parking lot** — a mutex + condvar used *only* to park idle
//!   workers; no task ever travels through it. Parks are timeout-bounded,
//!   so a lost wakeup costs microseconds, not liveness.
//!
//! ## Donation semantics (§VII-B, sender-initiated)
//!
//! The paper's donate-half policy is preserved: the *busy* worker decides
//! when to split its remaining root range. The donation trigger is a
//! **demand ticket**: a worker that sweeps every queue and finds nothing
//! registers one ticket (`hungry += 1`); a busy worker donates only by
//! *claiming* a ticket (atomic decrement-if-positive). This replaces the
//! old relaxed `idle > 0 && queue_len == 0` double-read, which let a donor
//! observe stale emptiness and split its range once per root while a
//! single idle worker drained the backlog — donations are now bounded by
//! tickets issued (one per idle episode, re-armed only while starving).
//!
//! Run termination is a `pending` task count (queued + executing): when it
//! hits zero the run is over and everyone is woken to observe it.
//!
//! ## Panic containment (DESIGN.md §8)
//!
//! Every per-root step (donate-or-enumerate) runs under
//! `catch_unwind`, so a panic anywhere in the engine — a visitor, a bind
//! filter, a kernel bug, an armed failpoint — poisons only the one root
//! subtree it unwound out of. The worker records a typed
//! [`EnumError::WorkerPanic`], restores the enumerator's invariants with
//! `recover_after_panic`, and moves to the next root. Crucially,
//! `retire_task` sits *outside* the catch and always runs, so the
//! `pending` count still drains to zero and the park protocol cannot
//! deadlock on a poisoned task. A ticket claimed by a donation that then
//! panicked is simply consumed (donations stay bounded by tickets); the
//! starving worker re-arms after [`REARM_SWEEPS`].
//!
//! The queue sweep itself (`find_task`) is also caught: a panic there is
//! treated as an empty sweep, which falls through to the normal
//! termination / park path. The `scheduler::steal` and
//! `scheduler::donate` failpoints sit *before* the corresponding
//! side-effects (victim steal, `submit`), so an injected panic can lose
//! at most the subtree being processed — never a queued task and never a
//! `pending` increment.
//!
//! ## Topology awareness (DESIGN.md §13)
//!
//! On multi-core hosts the scheduler reads the CPU hierarchy from
//! `/sys` ([`topology::CpuTopology`]), pins each worker to one logical
//! CPU (best-effort [`affinity::pin_current_thread`]), and sweeps steal
//! victims nearest-first: SMT sibling → same-LLC → same-node → remote
//! ([`topology::StealTier`]). A stolen root range's candidate sets are
//! warm in the victim's caches, so resolving steals within the LLC keeps
//! the traffic off the interconnect. Per-tier steal counts land in
//! [`WorkerStats::steal_tiers`] and the `light-metrics` recorder.
//!
//! **Adaptive granularity:** a worker that re-arms its demand ticket
//! (i.e. starved for `REARM_SWEEPS` park periods without being fed)
//! raises a shared *starvation pressure* counter. The next donor spends
//! the accumulated pressure by splitting its donated half into up to that
//! many finer sub-ranges (capped at [`MAX_DONATION_PIECES`]), so persistent
//! skew drives granularity down without oversubmitting on balanced
//! inputs — under zero pressure a donation is exactly the paper's single
//! donate-half range. Extra pieces actually submitted are counted in
//! [`WorkerStats::splits`]; each donation still consumes exactly one
//! ticket, so the `donations ≤ tickets` bound is untouched.
//!
//! When detection fails the topology is [`CpuTopology::flat`]: no
//! pinning, round-robin victim sweep, all-zero tier counters.

pub mod affinity;
pub mod topology;

pub use topology::{CpuSlot, CpuTopology, StealTier};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use light_core::error::panic_payload_string;
use light_core::{CountVisitor, EngineConfig, EnumError, EnumStats, Enumerator, Outcome, Report};
use light_graph::stats::{compute_stats, GraphStats, TrianglePass};
use light_graph::{CsrGraph, VertexId};
use light_order::QueryPlan;
use light_pattern::PatternGraph;

/// A unit of work: root vertices `[lo, hi)` for `π[1]`.
type Task = (VertexId, VertexId);

/// Seed tasks per worker: the paper's even initial partition. The rest of
/// the balance comes from donations.
const INITIAL_TASKS_PER_THREAD: usize = 1;

/// How long an idle worker parks before re-sweeping the queues. Bounds the
/// cost of any lost-wakeup race to one sweep period.
const PARK_TIMEOUT: Duration = Duration::from_micros(500);

/// Re-arm the demand ticket after this many consecutive empty sweeps while
/// parked, in case a previous ticket was consumed by a donation this
/// worker never saw (donation raced with another idle worker's acquire).
const REARM_SWEEPS: u32 = 16;

/// Cap on how finely one donation may be split under starvation pressure
/// (and on the pressure counter itself). Bounds the queue traffic a burst
/// of re-arms can cause: one donation never submits more than this many
/// tasks.
pub const MAX_DONATION_PIECES: usize = 8;

/// Load-balancing policy.
///
/// The paper's scheduler is sender-initiated work stealing ([`DonateHalf`]
/// by default). [`Static`] reproduces the *naive distributed LIGHT* of
/// §VIII-A — "dividing the search space by partitioning C_φ(π[1]) evenly"
/// with no rebalancing — whose "speedup is very limited because of the load
/// imbalance". The fig7 harness and the stealing ablation bench compare
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancePolicy {
    /// Donate half of the remaining root range (the paper's strategy,
    /// after Acar et al. [2]).
    DonateHalf,
    /// Donate a single root vertex per request — finer grained, more
    /// queue traffic.
    DonateOne,
    /// Never donate: even initial partition only (naive distributed mode).
    Static,
}

/// Where the scheduler gets its view of the CPU hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TopologyMode {
    /// Detect from the live `/sys` (cached per process); falls back to
    /// [`CpuTopology::flat`] if detection fails.
    #[default]
    Auto,
    /// An injected topology (tests and harnesses fabricate multi-node
    /// layouts on any host; [`CpuTopology::flat`] is the topology-blind
    /// scheduler).
    Custom(CpuTopology),
}

/// Parallel driver configuration.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of worker threads (the paper scales 1..64).
    pub num_threads: usize,
    /// Load-balancing policy (default: the paper's donate-half stealing).
    pub policy: BalancePolicy,
    /// CPU hierarchy source (default: auto-detect).
    pub topology: TopologyMode,
    /// Pin workers to their assigned CPUs (best-effort; ignored under a
    /// flat topology). Off only for runs that must not touch affinity.
    pub pin_workers: bool,
}

impl ParallelConfig {
    /// `num_threads` workers, donate-half stealing, auto-detected
    /// topology.
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1);
        ParallelConfig {
            num_threads,
            policy: BalancePolicy::DonateHalf,
            topology: TopologyMode::Auto,
            pin_workers: true,
        }
    }

    /// Builder-style policy override.
    pub fn policy(mut self, policy: BalancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style topology override.
    pub fn topology(mut self, t: TopologyMode) -> Self {
        self.topology = t;
        self
    }

    /// Resolve the effective topology for this run: the injected one, or
    /// a cached one-time `/sys` detection.
    fn resolve_topology(&self) -> CpuTopology {
        match &self.topology {
            TopologyMode::Custom(t) => t.clone(),
            TopologyMode::Auto => detected_topology().clone(),
        }
    }
}

/// The machine topology, detected once per process.
fn detected_topology() -> &'static CpuTopology {
    static TOPO: std::sync::OnceLock<CpuTopology> = std::sync::OnceLock::new();
    TOPO.get_or_init(CpuTopology::detect)
}

/// Per-worker accounting, reported for scheduler diagnostics (the Fig. 7
/// harness prints these to show the load balance on a 1-core host).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Matches this worker found.
    pub matches: u64,
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Range donations this worker made.
    pub donations: u64,
    /// Tasks this worker obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Steals broken down by the topology tier of the victim, indexed by
    /// [`StealTier`] (`smt`, `llc`, `node`, `remote`). Sums to `steals`
    /// under tiered stealing; all-zero under a flat topology.
    pub steal_tiers: [u64; 4],
    /// Extra sub-tasks this worker carved out of its donations under
    /// starvation pressure (adaptive granularity). A plain donate-half
    /// donation contributes zero.
    pub splits: u64,
    /// Logical CPU this worker was pinned to, if affinity was requested
    /// and the kernel accepted it. The per-run affinity map is just this
    /// column across [`ParallelReport::workers`].
    pub cpu: Option<usize>,
    /// Demand tickets this worker registered while starving. The scheduler
    /// invariant `Σ donations <= Σ tickets` is what bounds donation count
    /// (see the module docs); a regression test pins it.
    pub tickets: u64,
    /// Timeout-bounded parks while starving (one per trip through the
    /// parking lot; a worker that never runs dry parks zero times).
    pub parks: u64,
    /// Total wall time spent parked, in nanoseconds. `parked_nanos / parks`
    /// close to [`PARK_TIMEOUT`] means wakeups came from the timeout, not
    /// notifies — the signature of a starving tail.
    pub parked_nanos: u64,
    /// Root subtrees this worker enumerated to completion.
    pub completed: u64,
    /// Root subtrees abandoned because a panic unwound out of them (each
    /// has a matching [`EnumError::WorkerPanic`] in the report).
    pub panics: u64,
}

/// The subtree-level accounting of a run: how much of the search space was
/// actually covered. `count` is exact over the `completed_subtrees` and a
/// lower bound for the whole query whenever `failed_subtrees > 0` (or the
/// run was cancelled / out of time / out of memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartialResult {
    /// Matches found (exact within the completed subtrees).
    pub count: u64,
    /// Root subtrees enumerated to completion across all workers.
    pub completed_subtrees: u64,
    /// Root subtrees abandoned after a contained panic.
    pub failed_subtrees: u64,
}

/// Result of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Merged totals (matches, intersections, peak memory across workers).
    pub report: Report,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
    /// Contained worker panics, one per abandoned root subtree. Empty on a
    /// healthy run.
    pub failures: Vec<EnumError>,
}

impl ParallelReport {
    /// Subtree-level accounting (see [`PartialResult`]).
    pub fn partial_result(&self) -> PartialResult {
        PartialResult {
            count: self.report.matches,
            completed_subtrees: self.workers.iter().map(|w| w.completed).sum(),
            failed_subtrees: self.workers.iter().map(|w| w.panics).sum(),
        }
    }

    /// Whether every subtree completed and no early-stop condition fired.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.report.outcome == Outcome::Complete
    }

    /// Total steals per topology tier across all workers (index:
    /// [`StealTier`]).
    pub fn steal_tier_totals(&self) -> [u64; 4] {
        let mut totals = [0u64; 4];
        for w in &self.workers {
            for (t, v) in totals.iter_mut().zip(w.steal_tiers) {
                *t += v;
            }
        }
        totals
    }

    /// Fraction of steals resolved at same-LLC-or-closer tiers (the
    /// locality figure of merit the load benchmark tracks). `None` when
    /// no tiered steals happened (flat topology or no stealing).
    pub fn near_steal_fraction(&self) -> Option<f64> {
        let t = self.steal_tier_totals();
        let total: u64 = t.iter().sum();
        (total > 0).then(|| (t[0] + t[1]) as f64 / total as f64)
    }
}

struct Shared {
    /// The initial partition, taken FIFO so low ranges run first.
    seeds: Mutex<VecDeque<Task>>,
    /// Every worker's deque, indexed by worker id: the owner works the
    /// back, thieves take from the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks in existence: queued anywhere + currently executing.
    /// Incremented before a task becomes visible, decremented when its
    /// range is fully processed (or abandoned under stop). Zero = done.
    pending: AtomicUsize,
    /// Outstanding demand tickets (see module docs).
    hungry: AtomicUsize,
    /// Starvation pressure: raised on every ticket re-arm (a worker that
    /// parked [`REARM_SWEEPS`] times without being fed), spent by the
    /// next donor splitting its donation that much finer. Capped at
    /// [`MAX_DONATION_PIECES`].
    pressure: AtomicUsize,
    /// Total demand tickets ever issued (diagnostics; the donation bound).
    tickets_issued: AtomicU64,
    /// Early-stop flag (timeout / visitor break).
    stop: AtomicBool,
    /// Parking only — no task state behind this lock.
    parker: Mutex<()>,
    cv: Condvar,
    /// Observability sink (inert unless attached; see [`light_metrics`]).
    metrics: light_metrics::Recorder,
}

impl Shared {
    /// `workers` empty deques behind the `seeds` queue; `pending` starts at
    /// the seed count.
    fn new(workers: usize, seeds: VecDeque<Task>, metrics: light_metrics::Recorder) -> Shared {
        Shared {
            pending: AtomicUsize::new(seeds.len()),
            seeds: Mutex::new(seeds),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            hungry: AtomicUsize::new(0),
            pressure: AtomicUsize::new(0),
            tickets_issued: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            parker: Mutex::new(()),
            cv: Condvar::new(),
            metrics,
        }
    }

    /// Make a donated task visible: onto the back of the donor's own
    /// deque, then wake a parked worker to come steal it.
    fn submit(&self, worker: usize, t: Task) {
        let pending = self.pending.fetch_add(1, Ordering::SeqCst) + 1;
        // Queue residency sampled at every donation: how deep the task pool
        // runs when load balancing is active.
        self.metrics.queue_residency(pending);
        self.deques[worker].lock().push_back(t);
        // Serialize with parkers' recheck-then-wait so the notify cannot
        // fall between their sweep and their sleep.
        let _g = self.parker.lock();
        self.cv.notify_one();
    }

    /// Claim one demand ticket; true means the caller should donate.
    /// Decrement-if-positive, so each donation consumes exactly one ticket
    /// and donations are bounded by tickets issued.
    #[inline]
    fn claim_ticket(&self) -> bool {
        self.hungry
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| h.checked_sub(1))
            .is_ok()
    }

    /// Note one starvation episode (a ticket re-arm): the granularity is
    /// too coarse for the current skew, so ask the next donor to split
    /// finer. Saturating at the piece cap.
    fn note_starvation(&self) {
        let _ = self
            .pressure
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                (p < MAX_DONATION_PIECES - 1).then_some(p + 1)
            });
    }

    /// Drain the accumulated starvation pressure (a donor spends it all
    /// on one finely-split donation).
    fn take_pressure(&self) -> usize {
        self.pressure.swap(0, Ordering::AcqRel)
    }

    /// One full sweep of every queue: own deque newest first, the seed
    /// queue, then the other workers' deques oldest first in `victims`
    /// order (precomputed nearest-tier-first; see
    /// [`CpuTopology::victim_order`]). Returns the task and, for a steal,
    /// the topology tier it was resolved at.
    fn find_task(
        &self,
        worker: usize,
        victims: &[(usize, StealTier)],
    ) -> Option<(Task, Option<StealTier>)> {
        let own = self.deques[worker].lock().pop_back();
        if let Some(t) = own.or_else(|| self.seeds.lock().pop_front()) {
            return Some((t, None));
        }
        // Chaos site: before the victim sweep, so an injected panic can
        // never lose a task that was already stolen.
        light_failpoint::fail_point!("scheduler::steal");
        victims.iter().find_map(|&(victim, tier)| {
            let t = self.deques[victim].lock().pop_front()?;
            Some((t, Some(tier)))
        })
    }

    /// Retire a finished (or abandoned) task. The worker that takes
    /// `pending` to zero wakes everyone so they can observe termination.
    fn retire_task(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = self.parker.lock();
            self.cv.notify_all();
        }
    }
}

/// What one per-root step under `catch_unwind` did.
enum RootStep {
    /// Donated `[mid, hi)` (possibly as several sub-tasks); the donor
    /// keeps `[lo, mid)`. `extra` counts the sub-tasks beyond the first
    /// (adaptive-granularity splits).
    Donated { mid: VertexId, extra: u64 },
    /// Enumerated root `lo`.
    Ran,
}

/// `[lo, hi)` cut into at most `pieces` tasks: consecutive chunks of
/// `ceil(len / pieces)` roots. That can be fewer than `pieces` (len 5 in 4
/// pieces is chunks of 2, so 3 tasks), so callers count what this yields,
/// not what they asked for. The seeds and every donation are cut this way.
fn donation_pieces(
    lo: VertexId,
    hi: VertexId,
    pieces: usize,
) -> impl Iterator<Item = (VertexId, VertexId)> {
    let chunk = (hi - lo).div_ceil(pieces.max(1) as VertexId).max(1);
    (lo..hi)
        .step_by(chunk as usize)
        .map(move |start| (start, (start + chunk).min(hi)))
}

/// One worker's published result.
struct WorkerResult {
    ws: WorkerStats,
    stats: EnumStats,
    timed_out: bool,
    cancelled: bool,
    mem_exceeded: bool,
    failures: Vec<EnumError>,
}

/// Plan a query and run it with `k` workers, counting matches. The stats
/// pass in front of the plan runs on the same `k` workers.
pub fn run_query_parallel(
    pattern: &PatternGraph,
    g: &CsrGraph,
    config: &EngineConfig,
    pcfg: &ParallelConfig,
) -> ParallelReport {
    let plan = config.plan_from_stats(pattern, &compute_stats_parallel(g, pcfg));
    run_plan_parallel(&plan, g, config, pcfg)
}

/// [`compute_stats`] with the triangle pass shared among `pcfg`'s workers,
/// pinned as the enumeration workers are (a host that does not balance
/// load between CPUs runs unpinned threads on one).
pub fn compute_stats_parallel(g: &CsrGraph, pcfg: &ParallelConfig) -> GraphStats {
    if pcfg.num_threads <= 1 {
        return compute_stats(g);
    }
    let topo = pcfg.resolve_topology();
    let pin = pcfg.pin_workers && !topo.is_flat();
    let pass = TrianglePass::new(g);
    let triangles = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..pcfg.num_threads)
            .map(|worker_id| {
                let (pass, cpu) = (&pass, topo.slot_for_worker(worker_id).cpu);
                scope.spawn(move || {
                    if pin {
                        affinity::pin_current_thread(cpu);
                    }
                    pass.run()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("triangle pass worker panicked"))
            .sum()
    });
    GraphStats::with_triangles(g, triangles)
}

/// Run a prepared plan with `k` workers, counting matches.
pub fn run_plan_parallel(
    plan: &QueryPlan,
    g: &CsrGraph,
    config: &EngineConfig,
    pcfg: &ParallelConfig,
) -> ParallelReport {
    let start = Instant::now();
    let n = g.num_vertices() as VertexId;

    // Seed even-width initial tasks over the root candidate range.
    let seeds = donation_pieces(0, n, pcfg.num_threads * INITIAL_TASKS_PER_THREAD).collect();
    // Resolve the CPU hierarchy once per run: worker → CPU assignment and
    // each worker's nearest-first victim sweep. On a flat topology the
    // sweep is the old `(id + step) % k` rotation and no one is pinned.
    let topo = pcfg.resolve_topology();
    let tiered = !topo.is_flat();
    let victim_orders: Vec<Vec<(usize, StealTier)>> = (0..pcfg.num_threads)
        .map(|w| topo.victim_order(w, pcfg.num_threads))
        .collect();

    let shared = Shared::new(pcfg.num_threads, seeds, config.metrics.clone());
    let results: Mutex<Vec<WorkerResult>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for (worker_id, victims) in victim_orders.iter().enumerate() {
            let shared = &shared;
            let results = &results;
            let slot = topo.slot_for_worker(worker_id);
            scope.spawn(move || {
                // Best-effort pinning: a refused mask (cpuset, seccomp,
                // non-Linux) leaves the worker floating and unrecorded.
                let pinned = tiered && pcfg.pin_workers && affinity::pin_current_thread(slot.cpu);
                let mut visitor = CountVisitor::default();
                let mut enumerator = Enumerator::new(plan, g, config, &mut visitor);
                let mut ws = WorkerStats {
                    worker: worker_id,
                    cpu: pinned.then_some(slot.cpu),
                    ..Default::default()
                };
                let mut failures: Vec<EnumError> = Vec::new();
                // Whether this worker currently holds an unclaimed demand
                // ticket, and how many empty sweeps since it was issued.
                let mut ticket_out = false;
                let mut empty_sweeps: u32 = 0;
                loop {
                    // A panic while sweeping the queues (the
                    // scheduler::steal failpoint) is treated as an empty
                    // sweep: the termination check below still runs, so
                    // the run cannot hang.
                    let found =
                        catch_unwind(AssertUnwindSafe(|| shared.find_task(worker_id, victims)))
                            .unwrap_or(None);
                    let Some((task, stolen)) = found else {
                        if shared.pending.load(Ordering::SeqCst) == 0
                            || shared.stop.load(Ordering::Relaxed)
                        {
                            // Drained (or stopped): wake the others so they
                            // observe the same condition and exit.
                            let _g = shared.parker.lock();
                            shared.cv.notify_all();
                            break;
                        }
                        // Starving: register demand so a busy worker donates
                        // (sender-initiated — §VII-B). One ticket per idle
                        // episode; re-arm only if we keep starving long
                        // enough that the ticket was plausibly consumed by a
                        // donation another worker grabbed first.
                        if !ticket_out || empty_sweeps >= REARM_SWEEPS {
                            if ticket_out {
                                // Re-arming means we starved through a whole
                                // ticket lifetime: current task granularity
                                // is too coarse for the skew. Ask the next
                                // donor to split finer.
                                shared.note_starvation();
                            }
                            shared.hungry.fetch_add(1, Ordering::SeqCst);
                            shared.tickets_issued.fetch_add(1, Ordering::Relaxed);
                            ws.tickets += 1;
                            ticket_out = true;
                            empty_sweeps = 0;
                        }
                        empty_sweeps += 1;
                        // Timeout-bounded park: re-sweep even on a lost
                        // wakeup. Recheck under the parker lock so a submit
                        // between our sweep and this wait cannot be missed.
                        let mut guard = shared.parker.lock();
                        if shared.pending.load(Ordering::SeqCst) != 0
                            && !shared.stop.load(Ordering::Relaxed)
                        {
                            ws.parks += 1;
                            let parked_at = Instant::now();
                            let _ = shared.cv.wait_for(&mut guard, PARK_TIMEOUT);
                            ws.parked_nanos += parked_at.elapsed().as_nanos() as u64;
                        }
                        continue;
                    };
                    ticket_out = false;
                    empty_sweeps = 0;
                    let (mut lo, mut hi) = task;
                    ws.tasks += 1;
                    if let Some(tier) = stolen {
                        ws.steals += 1;
                        if tiered {
                            ws.steal_tiers[tier as usize] += 1;
                        }
                    }
                    // Process the range one root at a time so donation can
                    // happen mid-task. Each step runs under catch_unwind:
                    // a panic poisons only the root it unwound out of.
                    while lo < hi {
                        if shared.stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let step = catch_unwind(AssertUnwindSafe(|| {
                            // Donate part of the remaining range if a
                            // starving worker posted a demand ticket and
                            // there is enough left to split. Claiming the
                            // ticket (decrement-if-positive) makes the
                            // check race-free: each ticket funds at most
                            // one donation. The failpoint sits after the
                            // claim but before the submit, so an injected
                            // panic consumes the ticket without leaking a
                            // `pending` increment.
                            if pcfg.policy != BalancePolicy::Static
                                && hi - lo >= 2
                                && shared.claim_ticket()
                            {
                                light_failpoint::fail_point!("scheduler::donate");
                                let mid = match pcfg.policy {
                                    BalancePolicy::DonateHalf => lo + (hi - lo) / 2,
                                    BalancePolicy::DonateOne => hi - 1,
                                    BalancePolicy::Static => unreachable!(),
                                };
                                // Adaptive granularity: spend accumulated
                                // starvation pressure by cutting the donated
                                // half into that many extra pieces, so more
                                // thieves get fed per donation. Zero
                                // pressure = one piece = the paper's plain
                                // donate-half. One ticket funds the whole
                                // batch, keeping donations ≤ tickets.
                                let len = (hi - mid) as usize;
                                let pieces = (1 + shared.take_pressure())
                                    .min(len)
                                    .min(MAX_DONATION_PIECES);
                                let mut submitted = 0;
                                for piece in donation_pieces(mid, hi, pieces) {
                                    shared.submit(worker_id, piece);
                                    submitted += 1;
                                }
                                return RootStep::Donated {
                                    mid,
                                    extra: submitted - 1,
                                };
                            }
                            enumerator.run_range(lo, lo + 1);
                            RootStep::Ran
                        }));
                        match step {
                            Ok(RootStep::Donated { mid, extra }) => {
                                ws.donations += 1;
                                ws.splits += extra;
                                hi = mid;
                            }
                            Ok(RootStep::Ran) => {
                                ws.completed += 1;
                                lo += 1;
                                if enumerator.timed_out()
                                    || enumerator.stopped()
                                    || enumerator.cancelled()
                                    || enumerator.memory_exceeded()
                                {
                                    shared.stop.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                            Err(payload) => {
                                // Contained: record the poisoned subtree,
                                // restore the enumerator's invariants
                                // (flushing its metrics shard), move on.
                                ws.panics += 1;
                                failures.push(EnumError::WorkerPanic {
                                    worker: worker_id,
                                    depth: enumerator.current_depth(),
                                    payload: panic_payload_string(payload.as_ref()),
                                });
                                enumerator.recover_after_panic();
                                lo += 1;
                            }
                        }
                    }
                    // Always retire — even a fully poisoned task must
                    // drain `pending`, or parked workers spin forever.
                    shared.retire_task();
                }
                ws.matches = enumerator.matches();
                let stats = *enumerator.stats();
                let timed_out = enumerator.timed_out();
                let cancelled = enumerator.cancelled();
                let mem_exceeded = enumerator.memory_exceeded();
                // Flush this worker's engine metrics shard (Drop does it),
                // then publish the scheduler-side sample.
                drop(enumerator);
                shared.metrics.record_worker(&light_metrics::WorkerSample {
                    worker: ws.worker,
                    steals: ws.steals,
                    steal_tiers: ws.steal_tiers,
                    splits: ws.splits,
                    parks: ws.parks,
                    tickets: ws.tickets,
                    donations: ws.donations,
                    tasks: ws.tasks,
                    parked_nanos: ws.parked_nanos,
                });
                results.lock().push(WorkerResult {
                    ws,
                    stats,
                    timed_out,
                    cancelled,
                    mem_exceeded,
                    failures,
                });
            });
        }
    });

    let mut workers: Vec<WorkerResult> = results.into_inner();
    workers.sort_by_key(|r| r.ws.worker);

    let mut total_stats = EnumStats::default();
    let mut matches = 0u64;
    let (mut any_timeout, mut any_cancel, mut any_mem) = (false, false, false);
    let mut failures = Vec::new();
    for r in &mut workers {
        matches += r.ws.matches;
        total_stats.merge_from(&r.stats);
        any_timeout |= r.timed_out;
        any_cancel |= r.cancelled;
        any_mem |= r.mem_exceeded;
        failures.append(&mut r.failures);
    }
    // Precedence mirrors the serial engine: a budget overrun outranks a
    // memory stop outranks a cancel. Contained panics do not change the
    // outcome — they are reported via `failures` / `partial_result()`.
    let outcome = if any_timeout {
        Outcome::OutOfTime
    } else if any_mem {
        Outcome::MemoryExceeded
    } else if any_cancel {
        Outcome::Cancelled
    } else {
        Outcome::Complete
    };

    ParallelReport {
        report: Report {
            matches,
            outcome,
            elapsed: start.elapsed(),
            stats: total_stats,
        },
        workers: workers.into_iter().map(|r| r.ws).collect(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use light_graph::generators;
    use light_pattern::Query;

    fn serial_count(p: &PatternGraph, g: &CsrGraph, cfg: &EngineConfig) -> u64 {
        light_core::run_query(p, g, cfg).matches
    }

    #[test]
    fn matches_serial_counts() {
        let g = generators::barabasi_albert(400, 5, 77);
        let cfg = EngineConfig::light();
        for q in [Query::Triangle, Query::P1, Query::P2, Query::P3] {
            let expect = serial_count(&q.pattern(), &g, &cfg);
            for threads in [1, 2, 4, 8] {
                let pr = run_query_parallel(&q.pattern(), &g, &cfg, &ParallelConfig::new(threads));
                assert_eq!(pr.report.matches, expect, "{} x{threads}", q.name());
                assert_eq!(pr.report.outcome, Outcome::Complete);
            }
        }
    }

    #[test]
    fn parallel_stats_pass_equals_serial_pass() {
        let graphs = [
            generators::barabasi_albert(3000, 6, 7),
            generators::rmat(11, 12_000, (0.5, 0.2, 0.2, 0.1), 3),
            generators::star(700),
            light_graph::GraphBuilder::new().build(),
        ];
        for g in &graphs {
            let serial = compute_stats(g);
            for threads in [1, 2, 4] {
                assert_eq!(
                    compute_stats_parallel(g, &ParallelConfig::new(threads)),
                    serial,
                    "{threads} threads on {} vertices",
                    g.num_vertices()
                );
            }
        }
    }

    #[test]
    fn worker_stats_cover_all_work() {
        let g = generators::barabasi_albert(500, 4, 3);
        let pr = run_query_parallel(
            &Query::Triangle.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(4),
        );
        let by_worker: u64 = pr.workers.iter().map(|w| w.matches).sum();
        assert_eq!(by_worker, pr.report.matches);
        let tasks: u64 = pr.workers.iter().map(|w| w.tasks).sum();
        assert!(tasks >= 1);
        assert_eq!(pr.workers.len(), 4);
    }

    #[test]
    fn single_thread_equals_serial_stats() {
        let g = generators::barabasi_albert(300, 4, 5);
        let cfg = EngineConfig::light();
        let serial = light_core::run_query(&Query::P2.pattern(), &g, &cfg);
        let par = run_query_parallel(&Query::P2.pattern(), &g, &cfg, &ParallelConfig::new(1));
        assert_eq!(par.report.matches, serial.matches);
        assert_eq!(
            par.report.stats.intersect.total,
            serial.stats.intersect.total
        );
    }

    #[test]
    fn more_threads_than_vertices() {
        let g = generators::complete(5);
        let pr = run_query_parallel(
            &Query::Triangle.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(16),
        );
        assert_eq!(pr.report.matches, 10);
    }

    #[test]
    fn timeout_propagates() {
        let g = generators::complete(120);
        let cfg = EngineConfig::light().budget(std::time::Duration::from_millis(5));
        let pr = run_query_parallel(&Query::P7.pattern(), &g, &cfg, &ParallelConfig::new(2));
        assert_eq!(pr.report.outcome, Outcome::OutOfTime);
    }

    #[test]
    fn all_policies_agree_on_counts() {
        let g = generators::barabasi_albert(300, 4, 41);
        let cfg = EngineConfig::light();
        let expect = serial_count(&Query::P2.pattern(), &g, &cfg);
        for policy in [
            BalancePolicy::DonateHalf,
            BalancePolicy::DonateOne,
            BalancePolicy::Static,
        ] {
            let pr = run_query_parallel(
                &Query::P2.pattern(),
                &g,
                &cfg,
                &ParallelConfig::new(3).policy(policy),
            );
            assert_eq!(pr.report.matches, expect, "{policy:?}");
        }
    }

    #[test]
    fn donations_bounded_by_demand_tickets() {
        // Regression for the relaxed `idle > 0 && queue_len == 0`
        // double-read: a donor could observe stale emptiness and split its
        // range once per root, flooding the queue while one idle worker
        // drained it. Under demand tickets every donation consumes one
        // ticket, so Σ donations <= Σ tickets must hold exactly.
        let g = {
            // Skewed graph => long-running ranges => plenty of donation
            // opportunities.
            let raw = generators::rmat(12, 40_000, (0.55, 0.2, 0.2, 0.05), 13);
            light_graph::ordered::into_degree_ordered(&raw).0
        };
        let cfg = EngineConfig::light();
        for policy in [BalancePolicy::DonateHalf, BalancePolicy::DonateOne] {
            let pr = run_query_parallel(
                &Query::P2.pattern(),
                &g,
                &cfg,
                &ParallelConfig::new(4).policy(policy),
            );
            let donations: u64 = pr.workers.iter().map(|w| w.donations).sum();
            let tickets: u64 = pr.workers.iter().map(|w| w.tickets).sum();
            assert!(
                donations <= tickets,
                "{policy:?}: {donations} donations exceed {tickets} demand tickets"
            );
        }
    }

    #[test]
    fn single_thread_never_donates() {
        // A lone worker never sweeps while it holds work, so it issues no
        // tickets and can fund no donations.
        let g = generators::barabasi_albert(500, 4, 7);
        let pr = run_query_parallel(
            &Query::P2.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(1),
        );
        assert_eq!(pr.workers.iter().map(|w| w.donations).sum::<u64>(), 0);
    }

    #[test]
    fn steals_are_counted_under_stealing_policies() {
        // With one seed task per worker and stealing enabled, donated
        // ranges travel through other workers' deques; the steal counter
        // plus task counter must cover every donated task.
        let g = generators::barabasi_albert(600, 5, 19);
        let pr = run_query_parallel(
            &Query::P2.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(4),
        );
        let tasks: u64 = pr.workers.iter().map(|w| w.tasks).sum();
        let donations: u64 = pr.workers.iter().map(|w| w.donations).sum();
        // Every task is either a seed or a donation.
        assert!(tasks >= donations, "tasks {tasks} < donations {donations}");
    }

    #[test]
    fn static_policy_never_donates() {
        let g = generators::barabasi_albert(500, 4, 7);
        let pr = run_query_parallel(
            &Query::P2.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(4).policy(BalancePolicy::Static),
        );
        assert_eq!(pr.workers.iter().map(|w| w.donations).sum::<u64>(), 0);
    }

    #[test]
    fn recorder_captures_worker_samples() {
        let g = generators::barabasi_albert(300, 4, 11);
        let rec = light_metrics::Recorder::new();
        let cfg = EngineConfig::light().metrics(rec.clone());
        let pr = run_query_parallel(
            &Query::Triangle.pattern(),
            &g,
            &cfg,
            &ParallelConfig::new(2),
        );
        assert!(pr.report.matches > 0);
        let json = rec.to_json();
        assert!(json.contains("\"scheduler\""), "{json}");
        assert!(json.contains("\"workers\""), "{json}");
        assert!(json.contains("\"slots\""), "{json}");
    }

    #[test]
    fn worker_panic_is_contained_and_reported() {
        // A bind filter that panics on one data vertex: the panic unwinds
        // out of the engine mid-run, must be contained to the subtrees it
        // poisons, and every other root must still be enumerated, exactly
        // once, across however many workers/donations the run used.
        let g = generators::barabasi_albert(300, 4, 9);
        let p = Query::Triangle.pattern();
        let base = EngineConfig::light();
        let golden = serial_count(&p, &g, &base);
        let cfg = base.clone().filter(|_, v| {
            assert!(v != 7, "poisoned vertex");
            true
        });
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pr = run_query_parallel(&p, &g, &cfg, &ParallelConfig::new(4));
        std::panic::set_hook(hook);

        assert_eq!(pr.report.outcome, Outcome::Complete);
        assert!(
            !pr.is_complete(),
            "contained panics must mark the run partial"
        );
        let partial = pr.partial_result();
        assert!(partial.failed_subtrees >= 1);
        assert_eq!(partial.failed_subtrees as usize, pr.failures.len());
        // Every root was processed exactly once: completed or abandoned.
        assert_eq!(
            partial.completed_subtrees + partial.failed_subtrees,
            g.num_vertices() as u64
        );
        // The partial count is a strict lower bound here (vertex 7 has
        // triangles in a BA graph) but still counts real matches.
        assert!(partial.count > 0 && partial.count < golden);
        assert_eq!(partial.count, pr.report.matches);
        for f in &pr.failures {
            let EnumError::WorkerPanic {
                payload, worker, ..
            } = f;
            assert!(payload.contains("poisoned vertex"), "{payload}");
            assert!(*worker < 4);
        }
        // The containment path must not break the donation invariant.
        let donations: u64 = pr.workers.iter().map(|w| w.donations).sum();
        let tickets: u64 = pr.workers.iter().map(|w| w.tickets).sum();
        assert!(donations <= tickets);
    }

    #[test]
    fn panic_free_run_reports_no_failures() {
        let g = generators::barabasi_albert(200, 4, 5);
        let pr = run_query_parallel(
            &Query::Triangle.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(3),
        );
        assert!(pr.is_complete());
        assert!(pr.failures.is_empty());
        let partial = pr.partial_result();
        assert_eq!(partial.failed_subtrees, 0);
        assert_eq!(partial.completed_subtrees, g.num_vertices() as u64);
        assert_eq!(partial.count, pr.report.matches);
    }

    #[test]
    fn cancel_token_stops_parallel_run() {
        let g = generators::complete(80);
        let tok = light_core::CancelToken::new();
        tok.cancel();
        let cfg = EngineConfig::light().cancel_token(tok);
        let pr = run_query_parallel(&Query::P7.pattern(), &g, &cfg, &ParallelConfig::new(4));
        assert_eq!(pr.report.outcome, Outcome::Cancelled);
        // C(80,5) is ~24M; a pre-cancelled token must stop far short.
        assert!(pr.report.matches < 24_040_016);
    }

    #[test]
    fn memory_watermark_propagates_to_parallel_outcome() {
        let g = generators::complete(120);
        let cfg = EngineConfig::light().max_memory(64);
        let pr = run_query_parallel(&Query::P7.pattern(), &g, &cfg, &ParallelConfig::new(2));
        assert_eq!(pr.report.outcome, Outcome::MemoryExceeded);
    }

    /// A fabricated two-node, four-LLC, eight-CPU hierarchy for exercising
    /// tiered stealing on any host. CPU ids are real-looking (0..8) so
    /// pinning may or may not succeed — correctness must not care.
    fn fake_two_node_topology() -> CpuTopology {
        CpuTopology::from_slots(
            (0..8)
                .map(|cpu| CpuSlot {
                    cpu,
                    core: cpu / 2, // SMT pairs: (0,1) (2,3) ...
                    llc: cpu / 4,  // two LLC domains
                    node: cpu / 4, // one per socket
                })
                .collect(),
        )
    }

    #[test]
    fn tiered_topology_agrees_with_serial_and_records_tiers() {
        let g = {
            let raw = generators::rmat(11, 12_000, (0.55, 0.2, 0.2, 0.05), 21);
            light_graph::ordered::into_degree_ordered(&raw).0
        };
        let cfg = EngineConfig::light();
        let q = Query::P2.pattern();
        let expect = serial_count(&q, &g, &cfg);
        let pr = run_query_parallel(
            &q,
            &g,
            &cfg,
            &ParallelConfig::new(4).topology(TopologyMode::Custom(fake_two_node_topology())),
        );
        assert_eq!(pr.report.matches, expect);
        // Under a tiered topology every steal lands in exactly one tier.
        let steals: u64 = pr.workers.iter().map(|w| w.steals).sum();
        let tiered: u64 = pr.steal_tier_totals().iter().sum();
        assert_eq!(steals, tiered, "tier counters must partition steals");
        if steals > 0 {
            let f = pr.near_steal_fraction().unwrap();
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn flat_topology_is_topology_blind() {
        let g = generators::barabasi_albert(400, 5, 33);
        let cfg = EngineConfig::light();
        let q = Query::Triangle.pattern();
        let expect = serial_count(&q, &g, &cfg);
        let pcfg = ParallelConfig::new(4).topology(TopologyMode::Custom(CpuTopology::flat(4)));
        let pr = run_query_parallel(&q, &g, &cfg, &pcfg);
        assert_eq!(pr.report.matches, expect);
        // Flat topology: no pinning, no tier accounting (total steals
        // still counted).
        assert_eq!(pr.steal_tier_totals(), [0, 0, 0, 0]);
        assert!(pr.workers.iter().all(|w| w.cpu.is_none()));
        assert!(pr.near_steal_fraction().is_none());
    }

    #[test]
    fn pin_failure_is_harmless() {
        // CPU ids far beyond any real machine: sched_setaffinity refuses
        // every mask, workers run unpinned, counts are unaffected.
        let g = generators::barabasi_albert(300, 4, 17);
        let cfg = EngineConfig::light();
        let q = Query::P1.pattern();
        let expect = serial_count(&q, &g, &cfg);
        let topo = CpuTopology::from_slots(
            (0..4)
                .map(|i| CpuSlot {
                    cpu: 100_000 + i,
                    core: i,
                    llc: i / 2,
                    node: 0,
                })
                .collect(),
        );
        let pr = run_query_parallel(
            &q,
            &g,
            &cfg,
            &ParallelConfig::new(4).topology(TopologyMode::Custom(topo)),
        );
        assert_eq!(pr.report.matches, expect);
        assert!(pr.workers.iter().all(|w| w.cpu.is_none()));
    }

    #[test]
    fn donation_pieces_tile_the_range_and_may_be_fewer_than_asked() {
        for (len, pieces, want) in [(5, 4, 3), (7, 3, 3), (1, 1, 1), (8, 8, 8)] {
            let (mid, hi) = (10, 10 + len);
            let got: Vec<_> = donation_pieces(mid, hi, pieces).collect();
            assert_eq!(got.len(), want, "len {len} in {pieces} pieces: {got:?}");
            assert_eq!(got[0].0, mid);
            assert_eq!(got[got.len() - 1].1, hi);
            assert!(got.windows(2).all(|w| w[0].1 == w[1].0), "{got:?}");
            assert!(got.iter().all(|&(lo, hi)| lo < hi), "{got:?}");
        }
    }

    #[test]
    fn find_task_sweeps_own_then_seeds_then_victims_in_order() {
        let shared = Shared::new(
            3,
            VecDeque::from([(100, 101), (101, 102)]),
            light_metrics::Recorder::disabled(),
        );
        // Worker 0 donated twice; workers 1 and 2 hold donations of their
        // own. Worker 0's victim order puts worker 2 first.
        shared.submit(0, (0, 1));
        shared.submit(0, (1, 2));
        shared.submit(1, (10, 11));
        shared.submit(1, (11, 12));
        shared.submit(2, (20, 21));
        shared.submit(2, (21, 22));
        let victims = [(2, StealTier::Llc), (1, StealTier::Remote)];
        let sweep: Vec<_> = std::iter::from_fn(|| shared.find_task(0, &victims)).collect();
        assert_eq!(
            sweep,
            [
                // Own deque, newest first.
                ((1, 2), None),
                ((0, 1), None),
                // Seed queue, FIFO; not a steal.
                ((100, 101), None),
                ((101, 102), None),
                // Victims in `victims` order, each oldest first.
                ((20, 21), Some(StealTier::Llc)),
                ((21, 22), Some(StealTier::Llc)),
                ((10, 11), Some(StealTier::Remote)),
                ((11, 12), Some(StealTier::Remote)),
            ]
        );
    }

    #[test]
    fn tasks_cover_seeds_donations_and_splits() {
        // Task conservation: every executed task is a seed, a donation,
        // or an adaptive-granularity split of a donation.
        let g = {
            let raw = generators::rmat(12, 40_000, (0.55, 0.2, 0.2, 0.05), 29);
            light_graph::ordered::into_degree_ordered(&raw).0
        };
        let pcfg = ParallelConfig::new(4).topology(TopologyMode::Custom(fake_two_node_topology()));
        let pr = run_query_parallel(&Query::P2.pattern(), &g, &EngineConfig::light(), &pcfg);
        let n = g.num_vertices() as u64;
        let initial = (pcfg.num_threads * INITIAL_TASKS_PER_THREAD) as u64;
        let chunk = n.div_ceil(initial).max(1);
        let seeds = n.div_ceil(chunk);
        let tasks: u64 = pr.workers.iter().map(|w| w.tasks).sum();
        let donations: u64 = pr.workers.iter().map(|w| w.donations).sum();
        let splits: u64 = pr.workers.iter().map(|w| w.splits).sum();
        assert_eq!(tasks, seeds + donations + splits);
        // Splitting must never break the demand-ticket bound.
        let tickets: u64 = pr.workers.iter().map(|w| w.tickets).sum();
        assert!(donations <= tickets);
    }

    #[test]
    fn empty_graph() {
        let g = light_graph::GraphBuilder::new()
            .with_num_vertices(3)
            .build();
        let pr = run_query_parallel(
            &Query::Triangle.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(2),
        );
        assert_eq!(pr.report.matches, 0);
        assert_eq!(pr.report.outcome, Outcome::Complete);
    }
}
