//! The query service: admission control, plan-cached execution, service
//! metrics, and the supervision layer that keeps one poisoned query from
//! taking the daemon down.
//!
//! One [`QueryService`] is shared (behind `Arc`) by every connection
//! handler; [`QueryService::handle_line`] is the single entry point that
//! turns a request line into a response line, so stdio, socket handlers,
//! and tests all exercise the identical path.
//!
//! ## Supervision (DESIGN.md §15)
//!
//! The whole query path — catalog resolve, admission, plan build, engine
//! run — executes under `catch_unwind`. A panic anywhere inside becomes a
//! typed `internal_error` response with the query id echoed and the
//! graph/pattern context attached, bumps the monotone `panics_total`
//! counter, and leaves the admission semaphore, live-token registry, and
//! plan cache provably intact: the permit and token registration are RAII
//! guards that release during unwind, and every service lock recovers
//! from poisoning instead of propagating it.
//!
//! ## Admission control
//!
//! At most `max_concurrent` queries execute at once; up to `queue_depth`
//! more wait (priority-ordered, FIFO within a priority) and anything
//! beyond that is rejected with a typed `overloaded` response carrying a
//! computed `retry_after_ms` hint. When the queue is full — or the
//! process memory watermark has tripped, which freezes queue growth — a
//! newcomer that outranks the lowest-priority waiter *displaces* it (the
//! victim gets the `overloaded` rejection) instead of being rejected
//! blindly, so load shedding drops the cheapest work first.
//!
//! ## Deadlines, cancellation, drain
//!
//! Every query carries a deadline (`timeout_ms`, capped by the daemon's
//! `default_timeout`) enforced by the engine's budget polling, plus a
//! per-query [`CancelToken`] registered with the service. A drain (SIGINT
//! or a `shutdown` request) stops *new* queries with a `draining` error,
//! lets running and queued ones finish, and — if they outlive
//! `drain_grace` — cancels their tokens so they return partial counts
//! within the engine's ≤ 100 ms cancel latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use light_core::engine::run_plan;
use light_core::{validate_query, CancelToken, CountVisitor, EngineConfig, EngineVariant, Outcome};
use light_parallel::{run_plan_parallel, ParallelConfig};
use light_pattern::{PatternGraph, Query};

use crate::catalog::{GraphCatalog, GraphView};
use crate::json::ObjWriter;
use crate::plan_cache::{PlanCache, PlanKey};
use crate::protocol::{
    self, ErrorCode, QueryRequest, QueryResult, Request, SubscribeRequest, SubscriptionDelta,
    UpdateRequest, UpdateResult, WireOutcome,
};

/// Lock a mutex, recovering the data if a previous holder panicked.
///
/// Every service lock is held only across short, non-panicking critical
/// sections, so the guarded data is always consistent when a poison flag
/// is observed — the flag itself is the only damage, and clearing it is
/// what keeps one supervised panic from wedging every later query.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Condvar wait with the same poison recovery as [`lock_recover`].
fn wait_recover<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// Daemon-side service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Queries executing at once (admission permits).
    pub max_concurrent: usize,
    /// Admitted-but-waiting bound; beyond it requests are `overloaded`.
    pub queue_depth: usize,
    /// Worker threads per query (total engine threads ≤
    /// `max_concurrent × threads_per_query`; clients may request fewer).
    pub threads_per_query: usize,
    /// Deadline applied when a query sends none; also the cap on
    /// client-requested deadlines. `None` = unbounded.
    pub default_timeout: Option<Duration>,
    /// How long a drain waits before cancelling in-flight queries.
    pub drain_grace: Duration,
    /// How long a connection may sit on a partially received request line
    /// before the transport hangs up (slowloris guard). `None` disables.
    pub idle_timeout: Option<Duration>,
    /// Process resident-memory watermark, bytes. While resident memory is
    /// above it, the admission queue stops growing: new work is admitted
    /// only by displacing lower-priority queued work. `None` disables.
    pub mem_watermark: Option<u64>,
    /// Base engine configuration (variant, kernel, δ, aux-cache knobs).
    /// Per-query fields (budget, cancel, metrics) are overwritten.
    pub engine: EngineConfig,
    /// Fold a mutated entry's delta overlay into a fresh base (rewriting
    /// the backing snapshot, for snapshot-loaded graphs) once it holds
    /// this many pending edges. `None` compacts only on explicit
    /// `"compact":true` requests.
    pub compact_threshold: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_concurrent: 2,
            queue_depth: 4,
            threads_per_query: 1,
            default_timeout: Some(Duration::from_secs(60)),
            drain_grace: Duration::from_secs(10),
            idle_timeout: Some(Duration::from_secs(30)),
            mem_watermark: None,
            engine: EngineConfig::light(),
            compact_threshold: Some(32_768),
        }
    }
}

/// Why admission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Queries executing when the request was rejected.
    pub in_flight: usize,
    /// Queries waiting when the request was rejected.
    pub queued: usize,
    /// True when this request was queued and then displaced by a
    /// higher-priority arrival (load shedding), rather than rejected on
    /// arrival.
    pub shed: bool,
}

/// One queued admission request.
struct Waiter {
    seq: u64,
    priority: u8,
    shed: bool,
}

struct AdmissionState {
    running: usize,
    next_seq: u64,
    waiters: Vec<Waiter>,
}

/// Counting semaphore with a bounded, priority-aware wait queue.
///
/// Waiters are granted permits highest-priority-first (FIFO within a
/// priority). When the queue is at capacity — or capacity is frozen by
/// the memory watermark — a newcomer with strictly higher priority
/// displaces the lowest-priority (youngest among ties) waiter.
struct Admission {
    state: Mutex<AdmissionState>,
    cv: Condvar,
    max_concurrent: usize,
    queue_depth: usize,
}

impl Admission {
    fn new(max_concurrent: usize, queue_depth: usize) -> Admission {
        Admission {
            state: Mutex::new(AdmissionState {
                running: 0,
                next_seq: 0,
                waiters: Vec::new(),
            }),
            cv: Condvar::new(),
            max_concurrent: max_concurrent.max(1),
            queue_depth,
        }
    }

    /// The waiter next in line for a permit: highest priority, oldest seq.
    fn pick(st: &AdmissionState) -> Option<u64> {
        st.waiters
            .iter()
            .filter(|w| !w.shed)
            .max_by(|a, b| a.priority.cmp(&b.priority).then(b.seq.cmp(&a.seq)))
            .map(|w| w.seq)
    }

    /// Acquire an execution permit, blocking in the bounded queue if the
    /// service is saturated. Returns the queue wait on success.
    ///
    /// `freeze_queue` (the memory watermark tripped) caps the queue at
    /// its *current* occupancy: new work gets in only by displacement.
    fn acquire(&self, priority: u8, freeze_queue: bool) -> Result<Duration, Overloaded> {
        let mut st = lock_recover(&self.state);
        if st.running < self.max_concurrent && st.waiters.iter().all(|w| w.shed) {
            st.running += 1;
            return Ok(Duration::ZERO);
        }
        let occupancy = st.waiters.iter().filter(|w| !w.shed).count();
        let cap = if freeze_queue {
            occupancy.min(self.queue_depth)
        } else {
            self.queue_depth
        };
        if occupancy >= cap {
            // Queue full (or frozen): shed the lowest-priority waiter if
            // the newcomer strictly outranks it, else reject the newcomer.
            let victim = st
                .waiters
                .iter_mut()
                .filter(|w| !w.shed)
                .min_by(|a, b| a.priority.cmp(&b.priority).then(b.seq.cmp(&a.seq)));
            match victim {
                Some(v) if v.priority < priority => {
                    v.shed = true;
                    self.cv.notify_all();
                }
                _ => {
                    return Err(Overloaded {
                        in_flight: st.running,
                        queued: occupancy,
                        shed: false,
                    })
                }
            }
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.waiters.push(Waiter {
            seq,
            priority,
            shed: false,
        });
        let start = Instant::now();
        loop {
            let me = st
                .waiters
                .iter()
                .position(|w| w.seq == seq)
                .expect("waiter entry must outlive its thread");
            if st.waiters[me].shed {
                st.waiters.remove(me);
                let (running, queued) = (st.running, st.waiters.iter().filter(|w| !w.shed).count());
                return Err(Overloaded {
                    in_flight: running,
                    queued,
                    shed: true,
                });
            }
            if st.running < self.max_concurrent && Self::pick(&st) == Some(seq) {
                st.waiters.remove(me);
                st.running += 1;
                return Ok(start.elapsed());
            }
            st = wait_recover(&self.cv, st);
        }
    }

    fn release(&self) {
        let mut st = lock_recover(&self.state);
        st.running -= 1;
        drop(st);
        // notify_all, not notify_one: the permit goes to whichever waiter
        // `pick` chooses, which is not necessarily the longest sleeper.
        self.cv.notify_all();
    }

    fn in_flight(&self) -> usize {
        lock_recover(&self.state).running
    }

    fn queued(&self) -> usize {
        lock_recover(&self.state)
            .waiters
            .iter()
            .filter(|w| !w.shed)
            .count()
    }
}

/// Releases the admission permit even if the query panics mid-flight.
struct PermitGuard<'a>(&'a Admission);

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Deregisters the query's cancel token even if the query panics.
struct LiveGuard<'a> {
    svc: &'a QueryService,
    token: CancelToken,
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        let mut live = lock_recover(&self.svc.live);
        live.retain(|t| !same_token(t, &self.token));
    }
}

/// Aggregate service counters (all monotonic except the gauges derived
/// from admission state). Lock-free: handlers bump atomics.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Query requests that reached admission (well-formed `query` ops).
    pub queries: AtomicU64,
    /// Complete results.
    pub ok: AtomicU64,
    /// Partial results (timeout / cancelled / memory / contained panics).
    pub partial: AtomicU64,
    /// Typed error responses (bad request, unknown graph, draining, ...).
    pub errors: AtomicU64,
    /// Admission-control rejections.
    pub overloaded: AtomicU64,
    /// Queued queries displaced by higher-priority arrivals (a subset of
    /// `overloaded`).
    pub shed: AtomicU64,
    /// Supervised panics converted into `internal_error` responses
    /// (service-layer queries plus reactor-contained connection faults).
    pub panics: AtomicU64,
    /// Partial results that were specifically deadline expiries.
    pub timeouts: AtomicU64,
    /// Partial results that were cancellations (drain grace).
    pub cancelled: AtomicU64,
    /// Queries that waited in the admission queue at all.
    pub queued_queries: AtomicU64,
    /// Total queue wait, nanoseconds.
    pub queue_wait_ns: AtomicU64,
    /// Maximum single queue wait, nanoseconds.
    pub queue_wait_max_ns: AtomicU64,
    /// Total matches returned (completeness-weighted traffic volume).
    pub matches_returned: AtomicU64,
    /// Non-query ops served (ping/stats/catalog/health/shutdown).
    pub control_ops: AtomicU64,
    /// Committed `update` batches across all graphs.
    pub updates: AtomicU64,
    /// Total engine execution time, nanoseconds (feeds `retry_after_ms`).
    pub exec_ns: AtomicU64,
    /// Queries whose engine run finished (denominator for `exec_ns`).
    pub exec_done: AtomicU64,
    /// Milliseconds-since-service-start stamp of the most recent
    /// handler activity (heartbeat for the `health` liveness signal).
    pub last_activity_ms: AtomicU64,
}

impl ServiceMetrics {
    fn note_queue_wait(&self, wait: Duration) {
        if wait.is_zero() {
            return;
        }
        let ns = wait.as_nanos() as u64;
        self.queued_queries.fetch_add(1, Ordering::Relaxed);
        self.queue_wait_ns.fetch_add(ns, Ordering::Relaxed);
        self.queue_wait_max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record a supervised panic (used by the transports too, so every
    /// containment shows up in one monotone counter).
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Process resident set size in bytes (Linux `/proc/self/statm`; `None`
/// elsewhere — the watermark degrades to disabled off-Linux).
pub fn resident_memory_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        Some(pages * 4096)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Render a panic payload for the `internal_error` response.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The resident query service.
pub struct QueryService {
    catalog: GraphCatalog,
    plans: PlanCache,
    cfg: ServeConfig,
    admission: Admission,
    /// Service-level counters, exported by `stats`.
    pub metrics: ServiceMetrics,
    /// Long-lived engine recorder attached to every query: aggregate
    /// COMP/MAT/setops/scheduler metrics across the daemon's lifetime
    /// flow through the standard `light-metrics` pipeline.
    recorder: light_metrics::Recorder,
    /// Drain signal shared with the signal handler / listener threads.
    shutdown: CancelToken,
    /// Cancel tokens of in-flight queries (drain-grace enforcement).
    live: Mutex<Vec<CancelToken>>,
    /// Generation counter so stale tokens can be pruned cheaply.
    started: Instant,
    /// Maintained per-(pattern, graph) counts (`subscribe` op) plus the
    /// next subscription id. The lock is held across the whole update op
    /// — subscription maintenance, generation reads, and registration are
    /// thereby serialized against each other, so a maintained count can
    /// never straddle a concurrent batch.
    subs: Mutex<SubRegistry>,
}

/// One maintained count: the raw (symmetry-off) embedding total, updated
/// differentially on every batch; the reduced count reported to clients
/// is `raw / aut`.
#[derive(Debug, Clone)]
struct Subscription {
    id: u64,
    graph: String,
    /// Pattern spec as the client sent it (echoed back on updates).
    spec: String,
    pattern: PatternGraph,
    /// `|Aut(P)|` — raw-to-reduced ratio, computed at registration.
    aut: u64,
    /// Maintained raw embedding count.
    raw: u64,
    /// Entry generation the count is valid for.
    generation: u64,
}

/// The subscription table plus its id counter.
#[derive(Debug, Default)]
struct SubRegistry {
    next_id: u64,
    entries: Vec<Subscription>,
}

impl QueryService {
    /// Build a service over a loaded catalog.
    pub fn new(catalog: GraphCatalog, cfg: ServeConfig) -> QueryService {
        QueryService {
            admission: Admission::new(cfg.max_concurrent, cfg.queue_depth),
            plans: PlanCache::new(),
            metrics: ServiceMetrics::default(),
            recorder: light_metrics::Recorder::new(),
            shutdown: CancelToken::new(),
            live: Mutex::new(Vec::new()),
            started: Instant::now(),
            subs: Mutex::new(SubRegistry::default()),
            catalog,
            cfg,
        }
    }

    /// The shared drain token: cancel it to start a graceful drain. The
    /// CLI wires SIGINT to this; the `shutdown` op cancels it too.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shutdown.is_cancelled()
    }

    /// Queries currently executing.
    pub fn in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    /// The catalog this service answers from.
    pub fn catalog(&self) -> &GraphCatalog {
        &self.catalog
    }

    /// The plan cache (counters feed `stats`).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Cancel every in-flight query (drain-grace expiry). Returns how many
    /// tokens were cancelled.
    pub fn cancel_in_flight(&self) -> usize {
        let live = lock_recover(&self.live);
        for t in live.iter() {
            t.cancel();
        }
        live.len()
    }

    /// Whether the memory watermark has tripped (freezes queue growth).
    pub fn memory_tripped(&self) -> bool {
        match (self.cfg.mem_watermark, resident_memory_bytes()) {
            (Some(limit), Some(resident)) => resident > limit,
            _ => false,
        }
    }

    /// The backoff hint attached to `overloaded` rejections: roughly how
    /// long until a queue slot frees up, from the average engine run time
    /// and the current backlog per execution lane.
    pub fn retry_after_ms(&self) -> u64 {
        let done = self.metrics.exec_done.load(Ordering::Relaxed);
        let avg_ms = (self.metrics.exec_ns.load(Ordering::Relaxed) / 1_000_000)
            .checked_div(done)
            .map_or(50, |ms| ms.max(1));
        let backlog = self.admission.queued() as u64 + 1;
        (backlog * avg_ms / self.cfg.max_concurrent.max(1) as u64).clamp(25, 30_000)
    }

    /// Handle one request line, producing exactly one response line
    /// (without trailing newline). Never panics on untrusted input: the
    /// query path runs supervised, so even an engine bug yields a typed
    /// `internal_error` response instead of unwinding the transport.
    pub fn handle_line(&self, line: &str) -> String {
        self.stamp_activity();
        let resp = self.handle_line_inner(line);
        self.stamp_activity();
        resp
    }

    fn stamp_activity(&self) {
        self.metrics
            .last_activity_ms
            .store(self.started.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    fn handle_line_inner(&self, line: &str) -> String {
        let req = match protocol::parse_request(line.trim()) {
            Ok(r) => r,
            Err((id, code, msg)) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                return protocol::render_error(&id, code, &msg);
            }
        };
        match req {
            Request::Ping { id } => {
                self.metrics.control_ops.fetch_add(1, Ordering::Relaxed);
                protocol::render_pong(&id)
            }
            Request::Shutdown { id } => {
                self.metrics.control_ops.fetch_add(1, Ordering::Relaxed);
                self.shutdown.cancel();
                protocol::render_shutdown_ack(&id)
            }
            Request::Catalog { id } => {
                self.metrics.control_ops.fetch_add(1, Ordering::Relaxed);
                // The catalog op re-checks backing files, same as health:
                // a truncated snapshot flips its entry before it is listed.
                self.catalog.check_health();
                let entries: Vec<String> = self
                    .catalog
                    .entries()
                    .iter()
                    .map(protocol::render_catalog_entry)
                    .collect();
                protocol::render_catalog(&id, &entries)
            }
            Request::Stats { id, engine } => {
                self.metrics.control_ops.fetch_add(1, Ordering::Relaxed);
                self.render_stats(&id, engine)
            }
            Request::Health { id } => {
                self.metrics.control_ops.fetch_add(1, Ordering::Relaxed);
                self.render_health(&id)
            }
            Request::Query(q) => {
                // Supervision boundary: a panic anywhere in the query path
                // (admission, resolve, plan build, engine) is converted to
                // a typed response. RAII guards inside `execute` release
                // the permit and deregister the cancel token on unwind,
                // and every service lock recovers from poison, so the
                // daemon state is intact for the next query.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(&q))) {
                    Ok(resp) => resp,
                    Err(payload) => {
                        self.metrics.note_panic();
                        protocol::render_internal(
                            &q.id,
                            &panic_message(payload),
                            &[
                                ("graph", q.graph.as_deref().unwrap_or("<default>")),
                                ("pattern", &q.pattern),
                            ],
                        )
                    }
                }
            }
            Request::Update(u) => {
                // Same supervision as queries: the update path is
                // transactional (nothing commits before the catalog
                // entry's write-lock swap), so a contained panic —
                // including an armed `serve::update_apply` failpoint —
                // leaves the old generation serving.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.apply_update_op(&u)
                })) {
                    Ok(resp) => resp,
                    Err(payload) => {
                        self.metrics.note_panic();
                        protocol::render_internal(
                            &u.id,
                            &panic_message(payload),
                            &[
                                ("graph", u.graph.as_deref().unwrap_or("<default>")),
                                ("op", "update"),
                            ],
                        )
                    }
                }
            }
            Request::Subscribe(s) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.subscribe_op(&s)
                })) {
                    Ok(resp) => resp,
                    Err(payload) => {
                        self.metrics.note_panic();
                        protocol::render_internal(
                            &s.id,
                            &panic_message(payload),
                            &[
                                ("graph", s.graph.as_deref().unwrap_or("<default>")),
                                ("pattern", &s.pattern),
                                ("op", "subscribe"),
                            ],
                        )
                    }
                }
            }
            Request::Unsubscribe { id, sub } => {
                self.metrics.control_ops.fetch_add(1, Ordering::Relaxed);
                let mut subs = lock_recover(&self.subs);
                let before = subs.entries.len();
                subs.entries.retain(|s| s.id != sub);
                protocol::render_unsubscribed(&id, sub, subs.entries.len() < before)
            }
        }
    }

    /// Resolve a request's graph name (or the sole entry) to its catalog
    /// entry.
    fn resolve_entry(
        &self,
        graph: &Option<String>,
    ) -> Result<&crate::catalog::CatalogEntry, (ErrorCode, String)> {
        match graph {
            Some(name) => self.catalog.get(name).ok_or_else(|| {
                (
                    ErrorCode::UnknownGraph,
                    format!("no graph {name:?} in the catalog (try \"op\":\"catalog\")"),
                )
            }),
            None => self.catalog.sole_entry().ok_or_else(|| {
                (
                    ErrorCode::BadRequest,
                    format!(
                        "\"graph\" is required on a {}-graph daemon",
                        self.catalog.len()
                    ),
                )
            }),
        }
    }

    /// Apply one `update` batch: mutate the catalog entry and
    /// differentially maintain every subscribed count on the graph.
    fn apply_update_op(&self, u: &UpdateRequest) -> String {
        let err = |code: ErrorCode, msg: String| {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            protocol::render_error(&u.id, code, &msg)
        };
        if self.is_draining() {
            return err(
                ErrorCode::Draining,
                "service is draining; no new updates accepted".into(),
            );
        }
        let entry = match self.resolve_entry(&u.graph) {
            Ok(e) => e,
            Err((code, msg)) => return err(code, msg),
        };
        if !entry.check_health() {
            return err(
                ErrorCode::GraphUnhealthy,
                format!(
                    "graph {:?}: backing snapshot {} shrank or was replaced on disk; \
                     updates refused",
                    entry.name, entry.source
                ),
            );
        }
        let t = Instant::now();
        // Hold the registry lock across apply + maintenance: update
        // batches are serialized against each other and against
        // registrations, so every maintained count sees every batch
        // exactly once, in commit order.
        let mut subs = lock_recover(&self.subs);
        let out = match entry.apply_update(
            &u.deletes,
            &u.inserts,
            self.cfg.compact_threshold,
            u.compact,
        ) {
            Ok(o) => o,
            Err(e) => {
                return err(
                    ErrorCode::Internal,
                    format!("update rejected; graph unchanged: {e}"),
                )
            }
        };
        self.metrics.updates.fetch_add(1, Ordering::Relaxed);
        // Nothing to invalidate: plan-cache keys embed the entry
        // generation, so the cache misses at the new generation by
        // construction, and a query still running on the old view keeps
        // its own plan.
        // Differential maintenance: count only the embeddings the batch
        // destroyed (in the pre graph) or created (in the post graph).
        let mut deltas = Vec::new();
        for sub in subs.entries.iter_mut().filter(|s| s.graph == entry.name) {
            let (destroyed, created) = light_core::raw_delta(
                &sub.pattern,
                &out.pre,
                &out.post,
                &out.report.deleted,
                &out.report.inserted,
                &self.cfg.engine,
            );
            sub.raw = (sub.raw + created).saturating_sub(destroyed);
            sub.generation = out.generation;
            deltas.push(SubscriptionDelta {
                sub: sub.id,
                pattern: sub.spec.clone(),
                count: sub.raw / sub.aut.max(1),
                destroyed,
                created,
            });
        }
        drop(subs);
        protocol::render_update(&UpdateResult {
            id: u.id.clone(),
            graph: entry.name.clone(),
            generation: out.generation,
            inserted: out.report.inserted.len() as u64,
            deleted: out.report.deleted.len() as u64,
            dup_inserts: out.report.dup_inserts as u64,
            missing_deletes: out.report.missing_deletes as u64,
            pending: out.pending as u64,
            compacted: out.compacted,
            elapsed_ms: t.elapsed().as_secs_f64() * 1e3,
            subscriptions: deltas,
        })
    }

    /// Register a maintained count: run the full count once, then keep it
    /// current differentially on every subsequent update.
    fn subscribe_op(&self, s: &SubscribeRequest) -> String {
        let err = |code: ErrorCode, msg: String| {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            protocol::render_error(&s.id, code, &msg)
        };
        if self.is_draining() {
            return err(
                ErrorCode::Draining,
                "service is draining; no new subscriptions accepted".into(),
            );
        }
        let entry = match self.resolve_entry(&s.graph) {
            Ok(e) => e,
            Err((code, msg)) => return err(code, msg),
        };
        if !entry.check_health() {
            return err(
                ErrorCode::GraphUnhealthy,
                format!(
                    "graph {:?}: backing snapshot {} shrank or was replaced on disk",
                    entry.name, entry.source
                ),
            );
        }
        let pattern = match parse_pattern(&s.pattern) {
            Ok(p) => p,
            Err(e) => return err(ErrorCode::BadPattern, e),
        };
        // Registration holds the registry lock across the initial full
        // count, so no update can commit between counting and enrolling —
        // the count is exact for the generation it records.
        let mut subs = lock_recover(&self.subs);
        let GraphView {
            graph,
            generation,
            stats,
        } = entry.view();
        if let Err(e) = validate_query(&pattern, graph.num_vertices()) {
            return err(ErrorCode::BadQuery, e.to_string());
        }
        let t = Instant::now();
        let plan = self.cfg.engine.plan_from_stats(&pattern, &stats);
        let report = run_plan(
            &plan,
            &graph,
            &self.cfg.engine,
            &mut CountVisitor::default(),
        );
        let aut = light_core::automorphism_count(&pattern);
        let id = subs.next_id;
        subs.next_id += 1;
        subs.entries.push(Subscription {
            id,
            graph: entry.name.clone(),
            spec: s.pattern.clone(),
            pattern,
            aut,
            raw: report.matches * aut,
            generation,
        });
        drop(subs);
        protocol::render_subscribed(
            &s.id,
            id,
            &entry.name,
            &s.pattern,
            generation,
            report.matches,
            t.elapsed().as_secs_f64() * 1e3,
        )
    }

    /// Resolve and run one query request end to end.
    fn execute(&self, q: &QueryRequest) -> String {
        let err = |code: ErrorCode, msg: String| {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            protocol::render_error(&q.id, code, &msg)
        };
        if self.is_draining() {
            return err(
                ErrorCode::Draining,
                "service is draining; no new queries accepted".into(),
            );
        }
        // Resolve inputs *before* consuming an admission slot: malformed
        // queries must not queue behind real work.
        light_failpoint::fail_point!("serve::catalog_resolve");
        let entry = match &q.graph {
            Some(name) => match self.catalog.get(name) {
                Some(e) => e,
                None => {
                    return err(
                        ErrorCode::UnknownGraph,
                        format!("no graph {name:?} in the catalog (try \"op\":\"catalog\")"),
                    )
                }
            },
            None => match self.catalog.sole_entry() {
                Some(e) => e,
                None => {
                    return err(
                        ErrorCode::BadRequest,
                        format!(
                            "\"graph\" is required on a {}-graph daemon",
                            self.catalog.len()
                        ),
                    )
                }
            },
        };
        if !entry.check_health() {
            return err(
                ErrorCode::GraphUnhealthy,
                format!(
                    "graph {:?}: backing snapshot {} shrank or was replaced on disk; \
                     restart the daemon or regenerate it with `light convert --to snapshot-v2`",
                    entry.name, entry.source
                ),
            );
        }
        let pattern = match parse_pattern(&q.pattern) {
            Ok(p) => p,
            Err(e) => return err(ErrorCode::BadPattern, e),
        };
        // One consistent (graph, generation, stats) triple for the whole
        // query: the plan-cache key, planning statistics and execution all
        // see the same view even if an update commits mid-query.
        let GraphView {
            graph,
            generation,
            stats,
        } = entry.view();
        if let Err(e) = validate_query(&pattern, graph.num_vertices()) {
            return err(ErrorCode::BadQuery, e.to_string());
        }
        let mut cfg = self.cfg.engine.clone();
        if let Some(v) = &q.variant {
            cfg.variant = match v.as_str() {
                "se" => EngineVariant::Se,
                "lm" => EngineVariant::Lm,
                "msc" => EngineVariant::Msc,
                "light" => EngineVariant::Light,
                other => return err(ErrorCode::BadRequest, format!("unknown variant {other:?}")),
            };
        }
        // Deadline: client value capped by the daemon default.
        let deadline = match (q.timeout_ms, self.cfg.default_timeout) {
            (Some(ms), Some(cap)) => Some(Duration::from_millis(ms).min(cap)),
            (Some(ms), None) => Some(Duration::from_millis(ms)),
            (None, cap) => cap,
        };
        cfg.time_budget = deadline;
        let threads = q
            .threads
            .unwrap_or(self.cfg.threads_per_query)
            .clamp(1, self.cfg.threads_per_query.max(1));

        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        light_failpoint::fail_point!("serve::admission");
        let queue_wait = match self.admission.acquire(q.priority, self.memory_tripped()) {
            Ok(w) => w,
            Err(ov) => {
                self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
                if ov.shed {
                    self.metrics.shed.fetch_add(1, Ordering::Relaxed);
                }
                return protocol::render_overloaded(
                    &q.id,
                    ov.in_flight,
                    ov.queued,
                    self.cfg.max_concurrent,
                    self.retry_after_ms(),
                    ov.shed,
                );
            }
        };
        // RAII from here: the permit and the live-token registration are
        // released on *every* exit, including a panic unwinding through
        // the supervised region.
        let _permit = PermitGuard(&self.admission);
        self.metrics.note_queue_wait(queue_wait);

        // Per-query cancellation token, registered for drain-grace kills.
        let token = CancelToken::new();
        cfg.cancel = Some(token.clone());
        lock_recover(&self.live).push(token.clone());
        let _live = LiveGuard { svc: self, token };

        // Per-query recorder when profiling; the service recorder
        // otherwise, so engine metrics aggregate across queries.
        let profile_rec = q.profile.then(light_metrics::Recorder::new);
        cfg.metrics = profile_rec.clone().unwrap_or_else(|| self.recorder.clone());

        let key = PlanKey::new(&pattern, &entry.name, generation, &cfg);
        let (plan, cache_hit) = self.plans.get_or_build(key, || {
            light_failpoint::fail_point!("serve::plan_build");
            cfg.plan_from_stats(&pattern, &stats)
        });

        let t_exec = Instant::now();
        let pr = run_plan_parallel(&plan, &graph, &cfg, &ParallelConfig::new(threads));
        let exec_ns = t_exec.elapsed().as_nanos() as u64;
        self.metrics.exec_ns.fetch_add(exec_ns, Ordering::Relaxed);
        self.metrics.exec_done.fetch_add(1, Ordering::Relaxed);

        let outcome = match pr.report.outcome {
            Outcome::OutOfTime => WireOutcome::Timeout,
            Outcome::Cancelled => WireOutcome::Cancelled,
            Outcome::MemoryExceeded => WireOutcome::MemoryExceeded,
            _ if !pr.failures.is_empty() => WireOutcome::PartialPanic,
            _ => WireOutcome::Complete,
        };
        match outcome {
            WireOutcome::Complete => self.metrics.ok.fetch_add(1, Ordering::Relaxed),
            WireOutcome::Timeout => {
                self.metrics.partial.fetch_add(1, Ordering::Relaxed);
                self.metrics.timeouts.fetch_add(1, Ordering::Relaxed)
            }
            WireOutcome::Cancelled => {
                self.metrics.partial.fetch_add(1, Ordering::Relaxed);
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed)
            }
            _ => self.metrics.partial.fetch_add(1, Ordering::Relaxed),
        };
        self.metrics
            .matches_returned
            .fetch_add(pr.report.matches, Ordering::Relaxed);

        protocol::render_result(&QueryResult {
            id: q.id.clone(),
            matches: pr.report.matches,
            outcome,
            elapsed_ms: pr.report.elapsed.as_secs_f64() * 1e3,
            queue_ms: queue_wait.as_secs_f64() * 1e3,
            plan_cache_hit: cache_hit,
            graph: entry.name.clone(),
            failures: pr.failures.len() as u64,
            profile: profile_rec.map(|r| r.to_json()),
        })
    }

    /// Render the `stats` response.
    fn render_stats(&self, id: &str, engine: bool) -> String {
        let m = &self.metrics;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);

        let mut queries = ObjWriter::new();
        queries
            .u64("total", ld(&m.queries))
            .u64("ok", ld(&m.ok))
            .u64("partial", ld(&m.partial))
            .u64("error", ld(&m.errors))
            .u64("overloaded", ld(&m.overloaded))
            .u64("shed", ld(&m.shed))
            .u64("panics_total", ld(&m.panics))
            .u64("timeout", ld(&m.timeouts))
            .u64("cancelled", ld(&m.cancelled))
            .u64("matches_returned", ld(&m.matches_returned))
            .u64("control_ops", ld(&m.control_ops))
            .u64("updates", ld(&m.updates));

        let mut queue = ObjWriter::new();
        queue
            .u64("waited", ld(&m.queued_queries))
            .f64("wait_ms_total", ld(&m.queue_wait_ns) as f64 / 1e6)
            .f64("wait_ms_max", ld(&m.queue_wait_max_ns) as f64 / 1e6)
            .u64("depth", self.admission.queued() as u64)
            .u64("limit", self.cfg.queue_depth as u64);

        let mut plans = ObjWriter::new();
        plans
            .u64("hits", self.plans.hits())
            .u64("misses", self.plans.misses())
            .f64("hit_rate", self.plans.hit_rate())
            .u64("entries", self.plans.len() as u64)
            .u64("evictions", self.plans.evictions());

        let mut w = ObjWriter::new();
        w.raw("id", id)
            .str("status", "ok")
            .f64("uptime_ms", self.started.elapsed().as_secs_f64() * 1e3)
            .u64("in_flight", self.in_flight() as u64)
            .u64("max_concurrent", self.cfg.max_concurrent as u64)
            .bool("draining", self.is_draining())
            .u64("graphs", self.catalog.len() as u64)
            .raw("queries", &queries.finish())
            .raw("queue", &queue.finish())
            .raw("plan_cache", &plans.finish());
        if engine {
            // The full light-metrics document ({"enabled": false} when the
            // feature is compiled out) — engine-side observability rides
            // the same recorder as `light count --profile`.
            w.raw("engine", &self.recorder.to_json());
        }
        w.finish()
    }

    /// Render the `health` response: readiness plus the signals an
    /// operator (or load balancer) needs to decide whether to route here.
    fn render_health(&self, id: &str) -> String {
        let (healthy, total) = self.catalog.check_health();
        let draining = self.is_draining();
        let ready = !draining && total > 0 && healthy == total;

        let mut catalog = ObjWriter::new();
        catalog
            .u64("graphs", total as u64)
            .u64("healthy", healthy as u64);

        let now_ms = self.started.elapsed().as_millis() as u64;
        let last = self.metrics.last_activity_ms.load(Ordering::Relaxed);
        let mut executor = ObjWriter::new();
        executor
            .u64("in_flight", self.in_flight() as u64)
            .u64("queued", self.admission.queued() as u64)
            .u64("queue_limit", self.cfg.queue_depth as u64)
            .u64("max_concurrent", self.cfg.max_concurrent as u64)
            .u64("last_activity_ms_ago", now_ms.saturating_sub(last))
            .u64("panics_total", self.metrics.panics.load(Ordering::Relaxed));

        let mut memory = ObjWriter::new();
        match resident_memory_bytes() {
            Some(b) => memory.u64("resident_bytes", b),
            None => memory.raw("resident_bytes", "null"),
        };
        match self.cfg.mem_watermark {
            Some(w) => memory.u64("watermark_bytes", w),
            None => memory.raw("watermark_bytes", "null"),
        };
        memory.bool("tripped", self.memory_tripped());

        let mut w = ObjWriter::new();
        w.raw("id", id)
            .str("status", "ok")
            .bool("ready", ready)
            .bool("draining", draining)
            .u64("retry_after_ms", self.retry_after_ms())
            .raw("catalog", &catalog.finish())
            .raw("executor", &executor.finish())
            .raw("memory", &memory.finish());
        w.finish()
    }
}

/// Identity comparison for cancel tokens via their shared flag allocation.
fn same_token(a: &CancelToken, b: &CancelToken) -> bool {
    a.ptr_eq(b)
}

/// Parse a pattern spec: catalog name (`P1`..`P7`, `triangle`) or explicit
/// edge list (`0-1,1-2,...`). Mirrors the `light count --pattern` parser.
pub fn parse_pattern(s: &str) -> Result<PatternGraph, String> {
    if let Some(q) = Query::parse(s) {
        Ok(q.pattern())
    } else {
        PatternGraph::parse(s)
    }
}

/// The in-flight gauge, queue depths, and counter snapshot used by tests
/// and the drain loop.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSnapshot {
    /// Queries executing now.
    pub in_flight: usize,
    /// Queries waiting for a permit now.
    pub queued: usize,
}

impl QueryService {
    /// Current admission gauges.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            in_flight: self.admission.in_flight(),
            queued: self.admission.queued(),
        }
    }
}
