//! The `serve_*` workloads: a `light serve` daemon under closed- and
//! open-loop NDJSON load, every count checked.
//!
//! The load generator is this one process with at most `C = min(nproc, 4)`
//! client threads, one connection each (the reactor allows one in-flight
//! request per connection).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::{ok_matches, query_line, Conn, Daemon};
use crate::json::Json;
use crate::rng::SplitMix64;
use crate::run::{
    build_fixture, end_to_end, light_count, rss_floor_note, summarise, timed_setups, verify, Built,
    Checks, Env, RunResult, Source, Window,
};
use crate::workload::{Traffic, Workload};

/// Warm-up of the serve workloads: each connection sends each pattern of
/// the mix this often before the clock starts (plan cache and shared aux
/// store fill).
pub const WARM_ROUNDS: usize = 3;
/// Share of `--seconds` the closed-loop segment of `serve_mixed` takes;
/// the open-loop segment takes the rest.
const MIXED_CLOSED_SHARE: f64 = 0.25;
/// Pause between the two segments of `serve_mixed`, so the last closed-
/// loop response is in before the first open-loop request is due.
const OPEN_GAP_S: f64 = 0.05;
/// Edges inserted, and deleted, per `update` batch.
const BATCH_EDGES: usize = 8;

pub type Expected = BTreeMap<&'static str, u64>;
/// Undirected edges as `(u, v)` vertex pairs.
pub type Edges = Vec<(u32, u32)>;

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// When the request was due, seconds from the segment's origin: its
    /// slot on the open-loop schedule, or simply when it was sent.
    pub due_s: f64,
    /// Due time to full response line.
    pub latency_ms: f64,
    /// How late the generator sent it (open loop; 0 in a closed loop).
    pub late_ms: f64,
    pub ok: bool,
    /// Response fields the traced run attributes latency with.
    pub engine_ms: f64,
    pub queue_ms: f64,
    pub plan_hit: bool,
    /// Members of the batch the query rode in; 1 when it ran alone.
    pub batch: u64,
}

impl Reply {
    fn failed(due_s: f64, latency_ms: f64) -> Reply {
        Reply {
            due_s,
            latency_ms,
            late_ms: 0.0,
            ok: false,
            engine_ms: 0.0,
            queue_ms: 0.0,
            plan_hit: false,
            batch: 1,
        }
    }
}

/// Send one query due at `due_s`; `check` decides whether the returned
/// count is right. `Err` carries the failed reply of a dead connection.
pub fn one_query(
    conn: &mut Conn,
    pattern: &str,
    id: u64,
    origin: Instant,
    due_s: f64,
    check: &mut dyn FnMut(&str, u64) -> bool,
) -> Result<Reply, Reply> {
    let sent_s = origin.elapsed().as_secs_f64();
    let resp = conn.request(&query_line(pattern, id));
    let latency_ms = (origin.elapsed().as_secs_f64() - due_s) * 1e3;
    let Ok(resp) = resp else {
        // A dead connection fails every later request too: stop the loop.
        return Err(Reply::failed(due_s, latency_ms));
    };
    let f = |k: &str| resp.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Reply {
        due_s,
        latency_ms,
        late_ms: (sent_s - due_s).max(0.0) * 1e3,
        ok: ok_matches(&resp).is_some_and(|m| check(pattern, m)),
        engine_ms: f("elapsed_ms"),
        queue_ms: f("queue_ms"),
        plan_hit: resp.get("plan_cache").and_then(Json::as_str) == Some("hit"),
        batch: resp.get("batch").and_then(Json::as_u64).unwrap_or(1),
    })
}

/// Which pattern of a mix of `len` comes next: every `len` draws hold each
/// pattern once, in an order `rng` draws afresh each time round. Any stretch
/// of a run thus holds the same mix; with independent draws one segment of
/// `serve_mixed` gets 15 squares and the next 24, and their p90s differ by
/// composition alone.
pub struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(len: usize) -> Deck {
        Deck {
            order: (0..len).collect(),
            next: len,
        }
    }

    pub fn draw(&mut self, rng: &mut SplitMix64) -> usize {
        if self.next == self.order.len() {
            for k in (1..self.order.len()).rev() {
                self.order.swap(k, rng.below(k as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Closed loop: the next request leaves when the previous response is in,
/// patterns dealt from `patterns` by `rng`, until `until_s` past `origin`.
pub fn closed_loop(
    conn: &mut Conn,
    patterns: &[&str],
    rng: &mut SplitMix64,
    origin: Instant,
    until_s: f64,
    check: &mut dyn FnMut(&str, u64) -> bool,
) -> Vec<Reply> {
    let mut out = Vec::new();
    let mut deck = Deck::new(patterns.len());
    loop {
        let now = origin.elapsed().as_secs_f64();
        if now >= until_s {
            return out;
        }
        let pattern = patterns[deck.draw(rng)];
        match one_query(conn, pattern, out.len() as u64, origin, now, check) {
            Ok(r) => out.push(r),
            Err(r) => {
                out.push(r);
                return out;
            }
        }
    }
}

/// How long past the end of its schedule `serve_mixed`'s open loop keeps
/// sending before it gives up on a daemon that has fallen behind.
const OPEN_LOOP_GRACE_S: f64 = 5.0;

/// Open loop on one connection: request `j` is due at a point `rng` draws
/// in its slot `phase_s + [j, j+1)/rate` past `origin`, whatever the daemon
/// does; latency runs from the due time, so a stall is charged to every
/// request it delays. Were the requests evenly spaced, two connections would
/// keep one offset for a whole run — always colliding, always batched, or
/// never — and which one would hang on the seed. A connection carries one
/// request at a time, so a daemon slower than the schedule makes the
/// generator late; `grace_s` past `until_s` the requests still unsent are
/// counted as failed rather than sent.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &mut Conn,
    patterns: &[&str],
    rng: &mut SplitMix64,
    origin: Instant,
    phase_s: f64,
    rate: f64,
    until_s: f64,
    grace_s: f64,
    check: &mut dyn FnMut(&str, u64) -> bool,
) -> Vec<Reply> {
    let mut out = Vec::new();
    let mut deck = Deck::new(patterns.len());
    let mut dead = false;
    for j in 0.. {
        if phase_s + (j + 1) as f64 / rate > until_s {
            break;
        }
        let due_s = phase_s + (j as f64 + rng.unit()) / rate;
        let now = origin.elapsed().as_secs_f64();
        if dead || now > until_s + grace_s {
            out.push(Reply::failed(due_s, (now - due_s) * 1e3));
            continue;
        }
        sleep_until(origin, due_s);
        let pattern = patterns[deck.draw(rng)];
        match one_query(conn, pattern, j, origin, due_s, check) {
            Ok(r) => out.push(r),
            Err(r) => {
                out.push(r);
                dead = true;
            }
        }
    }
    out
}

fn sleep_until(origin: Instant, at_s: f64) {
    let now = origin.elapsed().as_secs_f64();
    if at_s > now {
        std::thread::sleep(Duration::from_secs_f64(at_s - now));
    }
}

/// Check that `resp` is a complete, successful answer with `want` matches.
pub fn check_served(checks: &mut Checks, what: &str, resp: &Json, want: u64) {
    match ok_matches(resp) {
        Some(got) => {
            checks.equal(what, got, want);
        }
        None => checks.fail(format!("{what}: not answered ok: {}", resp.render())),
    }
}

/// `(due_s, latency_ms)` of each reply, the form `summarise` takes.
pub fn samples(replies: &[Reply]) -> Vec<(f64, f64)> {
    replies.iter().map(|r| (r.due_s, r.latency_ms)).collect()
}

/// A daemon with its fixture and warmed connections.
pub struct Serving {
    pub built: Built,
    pub daemon: Daemon,
    pub conns: Vec<Conn>,
    /// Vertices of the served graph (ids `0..vertices` are valid).
    pub vertices: u64,
    /// `serve_churn` only: the maintained counts of the loaded graph, from
    /// subscribing `CHURN_PATTERNS` on the first connection.
    pub subscribed: Option<[u64; 2]>,
}

/// Generate, convert, start the daemon, connect `conns` connections and
/// warm each with `warm_rounds` of the workload's patterns. This is
/// everything `setup_s` covers.
pub fn start_serving(
    env: &Env,
    w: &Workload,
    conns: usize,
    warm_rounds: usize,
    expected: &Expected,
    checks: &mut Checks,
) -> Result<Serving, String> {
    let dir = env.work_dir(w);
    let built = build_fixture(env, Source::Workload(w), &dir, w.fixture.graph)?;
    let daemon = Daemon::start(
        &env.light,
        &built.snapshot,
        &dir.join("d.sock"),
        env.threads(),
    )?;
    let mut conns: Vec<Conn> = (0..conns)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let catalog = conns[0].request(r#"{"op":"catalog"}"#)?;
    let vertices = catalog
        .get("graphs")
        .and_then(Json::as_arr)
        .and_then(|g| g.first())
        .and_then(|g| g.get("vertices"))
        .and_then(Json::as_u64)
        .ok_or("catalog response names no graph")?;
    let patterns = w.patterns();
    for conn in &mut conns {
        for _ in 0..warm_rounds {
            for &p in &patterns {
                let resp = conn.request(&query_line(p, 0))?;
                check_served(checks, &format!("{p} served (warm-up)"), &resp, expected[p]);
            }
        }
    }
    let subscribed = match w.traffic {
        Traffic::Churn { .. } => Some(subscribe(&mut conns[0])?),
        _ => None,
    };
    Ok(Serving {
        built,
        daemon,
        conns,
        vertices,
        subscribed,
    })
}

/// What a timed section yields.
struct Timed {
    latency: Window,
    throughput: Window,
    /// Requests the closed loop behind `throughput` keeps in flight.
    in_flight: usize,
    attempted: u64,
    failed: u64,
}

pub fn run(env: &Env, w: &'static Workload) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let expected = verify(env, w, &mut checks)?;
    let conns = match w.traffic {
        Traffic::Point => 1,
        Traffic::Mixed { .. } => env.threads(),
        Traffic::Churn { .. } => 2,
        Traffic::OneShot => unreachable!("one-shot workloads run in oneshot.rs"),
    };
    let (mut serving, setup_s) = timed_setups(
        || start_serving(env, w, conns, WARM_ROUNDS, &expected, &mut checks),
        |s: Serving| s.daemon.shutdown().map(drop),
    )?;

    let patterns = w.patterns();
    let total_s = env.seconds;
    let count_failed = |replies: &[Reply]| replies.iter().filter(|r| !r.ok).count() as u64;
    let mut final_counts = None;
    let timed = match w.traffic {
        Traffic::Point => {
            let mut rng = SplitMix64::stream(env.seed, "point.conn0");
            let replies = closed_loop(
                &mut serving.conns[0],
                &patterns,
                &mut rng,
                Instant::now(),
                total_s,
                &mut |p, m| m == expected[p],
            );
            let window = summarise(&samples(&replies), 0.0, total_s)?;
            Timed {
                latency: window,
                throughput: window,
                in_flight: 1,
                attempted: replies.len() as u64,
                failed: count_failed(&replies),
            }
        }
        Traffic::Mixed { open_rate_per_conn } => {
            let closed_s = total_s * MIXED_CLOSED_SHARE;
            let open_from = closed_s + OPEN_GAP_S;
            let replies = mixed(
                &mut serving.conns,
                &patterns,
                &expected,
                env.seed,
                open_rate_per_conn,
                [closed_s, open_from, total_s],
            );
            // Latency from the open-loop segment, capacity from the closed.
            let all = samples(&replies);
            Timed {
                latency: summarise(&all, open_from, total_s)?,
                throughput: summarise(&all, 0.0, closed_s)?,
                in_flight: conns,
                attempted: replies.len() as u64,
                failed: count_failed(&replies),
            }
        }
        Traffic::Churn { updates_per_s } => {
            let log = churn(env, &mut serving, updates_per_s, &mut checks)?;
            final_counts = Some(log.final_counts);
            // Latency is the writer's, throughput the reader's.
            Timed {
                latency: summarise(&samples(&log.updates), 0.0, total_s)?,
                throughput: summarise(&samples(&log.reads), 0.0, total_s)?,
                in_flight: 1,
                attempted: (log.updates.len() + log.reads.len()) as u64,
                failed: count_failed(&log.updates) + count_failed(&log.reads),
            }
        }
        Traffic::OneShot => unreachable!(),
    };
    let exit = serving.daemon.shutdown()?;
    if let Some(final_counts) = final_counts {
        // The compacted snapshot, read back by a fresh process, must hold
        // what the daemon maintained.
        for (i, &p) in CHURN_PATTERNS.iter().enumerate() {
            let c = light_count(env, p, &serving.built.snapshot, env.threads())?;
            checks.equal(
                &format!("{p} on the compacted snapshot vs maintained"),
                c.matches,
                final_counts[i],
            );
        }
    }
    Ok(RunResult {
        workload: w.name,
        attempted: timed.attempted,
        failed: timed.failed,
        correct: checks.problems.is_empty() && timed.failed == 0,
        metrics: end_to_end(
            &setup_s,
            &timed.latency,
            &timed.throughput,
            timed.in_flight as f64,
            exit.max_rss_kib,
        ),
        problems: checks.problems,
        notes: rss_floor_note(exit.max_rss_kib).into_iter().collect(),
    })
}

/// `serve_mixed`'s traffic on every connection of `conns`: closed loop
/// until `closed_s` (capacity), then from `open_from` the open-loop
/// schedule until `until_s`, all on one time axis.
pub fn mixed(
    conns: &mut [Conn],
    patterns: &[&'static str],
    expected: &Expected,
    seed: u64,
    open_rate_per_conn: f64,
    [closed_s, open_from, until_s]: [f64; 3],
) -> Vec<Reply> {
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::stream(seed, &format!("mixed.conn{i}"));
                    let mut check = |p: &str, m: u64| m == expected[p];
                    let mut out =
                        closed_loop(conn, patterns, &mut rng, origin, closed_s, &mut check);
                    out.extend(open_loop(
                        conn,
                        patterns,
                        &mut rng,
                        origin,
                        open_from,
                        open_rate_per_conn,
                        until_s,
                        OPEN_LOOP_GRACE_S,
                        &mut check,
                    ));
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The patterns `serve_churn` subscribes to and reads.
pub const CHURN_PATTERNS: [&str; 2] = ["triangle", "P2"];

pub struct ChurnLog {
    pub updates: Vec<Reply>,
    pub reads: Vec<Reply>,
    /// Maintained counts after the final compaction, per `CHURN_PATTERNS`.
    pub final_counts: [u64; 2],
    /// The `compact` update's latency.
    pub compact_ms: f64,
    /// Reads whose count no generation committed between their send and
    /// their response had; each is a failed operation (`ok` is false on its
    /// reply) and a failed check.
    pub stale_reads: usize,
}

/// One `update` request line: `deletes` first, then `inserts`.
pub fn update_line(inserts: &[(u32, u32)], deletes: &[(u32, u32)]) -> String {
    let list = |edges: &[(u32, u32)]| {
        let pairs: Vec<String> = edges.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
        format!("[{}]", pairs.join(","))
    };
    format!(
        r#"{{"op":"update","graph":"g","inserts":{},"deletes":{}}}"#,
        list(inserts),
        list(deletes)
    )
}

/// The writer's edge choices: random inserts, and deletes only of edges
/// this writer inserted earlier in a batch that reported no duplicate —
/// so no edge of the base graph is ever removed.
pub struct UpdateGen {
    rng: SplitMix64,
    vertices: u64,
    deletable: Edges,
}

impl UpdateGen {
    pub fn new(seed: u64, vertices: u64) -> UpdateGen {
        UpdateGen {
            rng: SplitMix64::stream(seed, "churn.writer"),
            vertices,
            deletable: Vec::new(),
        }
    }

    /// `(inserts, deletes)` of the next batch.
    pub fn next_batch(&mut self) -> (Edges, Edges) {
        let mut deletes = Vec::with_capacity(BATCH_EDGES);
        while deletes.len() < BATCH_EDGES && !self.deletable.is_empty() {
            let i = self.rng.below(self.deletable.len() as u64) as usize;
            deletes.push(self.deletable.swap_remove(i));
        }
        let mut inserts: Edges = Vec::with_capacity(BATCH_EDGES);
        while inserts.len() < BATCH_EDGES {
            let a = self.rng.below(self.vertices) as u32;
            let b = self.rng.below(self.vertices) as u32;
            let e = (a.min(b), a.max(b));
            if a != b && !inserts.contains(&e) {
                inserts.push(e);
            }
        }
        (inserts, deletes)
    }

    /// Record the daemon's verdict on the batch's inserts.
    pub fn committed(&mut self, inserts: Edges, dup_inserts: u64) {
        if dup_inserts == 0 {
            self.deletable.extend(inserts);
        }
    }
}

/// Maintained counts per `CHURN_PATTERNS` from an `update` response.
fn maintained(resp: &Json) -> Option<[u64; 2]> {
    let subs = resp.get("subscriptions")?.as_arr()?;
    let mut out = [0u64; 2];
    for (i, p) in CHURN_PATTERNS.iter().enumerate() {
        out[i] = subs
            .iter()
            .find(|s| s.get("pattern").and_then(Json::as_str) == Some(p))?
            .get("count")?
            .as_u64()?;
    }
    Some(out)
}

/// Subscribe `CHURN_PATTERNS` on `conn`; each pays one full count and
/// returns generation 0's maintained count.
pub fn subscribe(conn: &mut Conn) -> Result<[u64; 2], String> {
    let mut initial = [0u64; 2];
    for (i, p) in CHURN_PATTERNS.iter().enumerate() {
        let resp = conn.request(&format!(
            r#"{{"op":"subscribe","pattern":"{p}","graph":"g"}}"#
        ))?;
        initial[i] = resp
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("subscribe {p} returned no count: {}", resp.render()))?;
    }
    Ok(initial)
}

/// Send one `update` batch due at `due_s`; returns the reply and, when
/// the daemon committed it, the maintained counts after it.
pub fn one_update(
    conn: &mut Conn,
    gen: &mut UpdateGen,
    origin: Instant,
    due_s: f64,
) -> Result<(Reply, Option<[u64; 2]>), Reply> {
    let (inserts, deletes) = gen.next_batch();
    let sent_s = origin.elapsed().as_secs_f64();
    let resp = conn.request(&update_line(&inserts, &deletes));
    let latency_ms = (origin.elapsed().as_secs_f64() - due_s) * 1e3;
    let Ok(resp) = resp else {
        return Err(Reply::failed(due_s, latency_ms));
    };
    let counts = maintained(&resp);
    let ok = resp.get("status").and_then(Json::as_str) == Some("ok")
        && resp.get("deleted").and_then(Json::as_u64) == Some(deletes.len() as u64)
        && counts.is_some();
    // An unreadable verdict counts as a duplicate: never delete from it.
    let dups = resp.get("dup_inserts").and_then(Json::as_u64).unwrap_or(1);
    gen.committed(inserts, dups);
    let reply = Reply {
        late_ms: (sent_s - due_s).max(0.0) * 1e3,
        ok,
        engine_ms: resp.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0),
        ..Reply::failed(due_s, latency_ms)
    };
    Ok((reply, counts))
}

/// A read whose verdict waits for the writer's full history.
struct PendingRead {
    /// Which of the reader's replies this is.
    reply: usize,
    pattern: usize,
    matches: u64,
    /// Commits acknowledged when the read was sent, and when it returned.
    acked: (usize, usize),
}

pub fn churn(
    env: &Env,
    serving: &mut Serving,
    updates_per_s: f64,
    checks: &mut Checks,
) -> Result<ChurnLog, String> {
    let total_s = env.seconds;
    let initial = serving
        .subscribed
        .ok_or("serve_churn set-up did not subscribe")?;
    let [writer, reader, ..] = &mut serving.conns[..] else {
        return Err("serve_churn needs two connections".into());
    };
    // Maintained counts in commit order; entry 0 is the loaded graph.
    // `acked` is how many entries the writer has seen acknowledged.
    let history = Mutex::new(vec![initial]);
    let acked = AtomicUsize::new(1);
    let origin = Instant::now();
    let mut gen = UpdateGen::new(env.seed, serving.vertices);
    let seed = env.seed;

    let (updates, (mut reads, pending)) = std::thread::scope(|scope| {
        let (history, acked) = (&history, &acked);
        // Reborrowed, so both connections are usable again after the scope.
        let (writer, reader) = (&mut *writer, &mut *reader);
        let w = scope.spawn(move || {
            let mut out = Vec::new();
            for j in 0.. {
                let due_s = j as f64 / updates_per_s;
                if due_s >= total_s {
                    break;
                }
                sleep_until(origin, due_s);
                match one_update(writer, &mut gen, origin, due_s) {
                    Ok((reply, counts)) => {
                        if let Some(c) = counts {
                            history.lock().expect("history lock").push(c);
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        out.push(reply);
                    }
                    Err(reply) => {
                        out.push(reply);
                        break;
                    }
                }
            }
            out
        });
        let r = scope.spawn(move || {
            let mut rng = SplitMix64::stream(seed, "churn.reader");
            let mut deck = Deck::new(CHURN_PATTERNS.len());
            let (mut out, mut pending) = (Vec::new(), Vec::new());
            loop {
                let now = origin.elapsed().as_secs_f64();
                if now >= total_s {
                    return (out, pending);
                }
                let acked_at_send = acked.load(Ordering::SeqCst);
                let pattern = deck.draw(&mut rng);
                let mut got = None;
                let reply = one_query(
                    reader,
                    CHURN_PATTERNS[pattern],
                    out.len() as u64,
                    origin,
                    now,
                    &mut |_, m| {
                        got = Some(m);
                        true
                    },
                );
                if let Some(matches) = got {
                    pending.push(PendingRead {
                        reply: out.len(),
                        pattern,
                        matches,
                        acked: (acked_at_send, acked.load(Ordering::SeqCst)),
                    });
                }
                match reply {
                    Ok(r) => out.push(r),
                    Err(r) => {
                        out.push(r);
                        return (out, pending);
                    }
                }
            }
        });
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });

    // Readers must see only committed states: a read sent after `a` commits
    // were acknowledged and answered when `b` were must return the
    // maintained count of one of generations a-1 ..= b (commit b may have
    // happened without its acknowledgement having arrived yet). The verdict
    // needs the writer's full history, so it is passed here, after the run.
    let history = history.into_inner().expect("history lock");
    let mut stale_reads = 0;
    for p in &pending {
        let (a, b) = p.acked;
        let window = &history[a - 1..=b.min(history.len() - 1)];
        if !window.iter().any(|c| c[p.pattern] == p.matches) {
            stale_reads += 1;
            reads[p.reply].ok = false;
            checks.fail(format!(
                "read {} ({}) returned {}, the count of none of generations {}..={}: {:?}",
                p.reply,
                CHURN_PATTERNS[p.pattern],
                p.matches,
                a - 1,
                b,
                window.iter().map(|c| c[p.pattern]).collect::<Vec<_>>()
            ));
        }
    }

    // Fold the overlay into the snapshot, then compare the three views.
    let t0 = Instant::now();
    let resp = writer.request(r#"{"op":"update","graph":"g","compact":true}"#)?;
    let compact_ms = t0.elapsed().as_secs_f64() * 1e3;
    if resp.get("compacted").and_then(Json::as_bool) != Some(true) {
        checks.fail(format!("compaction was not performed: {}", resp.render()));
    }
    let final_counts = maintained(&resp).ok_or("compact response lists no subscriptions")?;
    let last = *history.last().expect("entry 0");
    for (i, &p) in CHURN_PATTERNS.iter().enumerate() {
        checks.equal(
            &format!("{p} maintained across compaction"),
            final_counts[i],
            last[i],
        );
        let fresh = reader.request(&query_line(p, 0))?;
        check_served(
            checks,
            &format!("{p} fresh served vs maintained"),
            &fresh,
            final_counts[i],
        );
    }
    Ok(ChurnLog {
        updates,
        reads,
        final_counts,
        compact_ms,
        stale_reads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_batches_delete_only_own_clean_inserts() {
        let mut g = UpdateGen::new(1, 50);
        let (ins1, del1) = g.next_batch();
        assert_eq!(ins1.len(), BATCH_EDGES);
        assert!(del1.is_empty(), "nothing inserted yet");
        assert!(ins1.iter().all(|&(a, b)| a < b && b < 50));
        // A batch with a duplicate insert is never drawn from for deletes.
        g.committed(ins1.clone(), 1);
        let (ins2, del2) = g.next_batch();
        assert!(del2.is_empty());
        g.committed(ins2.clone(), 0);
        let (_, del3) = g.next_batch();
        assert_eq!(del3.len(), BATCH_EDGES);
        assert!(del3.iter().all(|e| ins2.contains(e)));
        // Same seed, same choices.
        let mut h = UpdateGen::new(1, 50);
        assert_eq!(h.next_batch().0, ins1);
        assert_eq!(
            update_line(&[(1, 2)], &[(3, 4), (5, 6)]),
            r#"{"op":"update","graph":"g","inserts":[[1,2]],"deletes":[[3,4],[5,6]]}"#
        );
    }

    #[test]
    fn a_deck_deals_every_pattern_once_a_round() {
        let mut rng = SplitMix64::new(3);
        let mut deck = Deck::new(6);
        let rounds: Vec<Vec<usize>> = (0..50)
            .map(|_| (0..6).map(|_| deck.draw(&mut rng)).collect())
            .collect();
        for r in &rounds {
            let mut sorted = r.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3, 4, 5]);
        }
        assert!(rounds.iter().any(|r| r != &rounds[0]), "orders are redrawn");
    }

    #[test]
    fn maintained_counts_follow_pattern_names() {
        let resp = Json::parse(
            r#"{"status":"ok","subscriptions":[{"sub":1,"pattern":"P2","count":9},{"sub":0,"pattern":"triangle","count":4}]}"#,
        )
        .unwrap();
        assert_eq!(maintained(&resp), Some([4, 9]));
        assert_eq!(
            maintained(&Json::parse(r#"{"subscriptions":[]}"#).unwrap()),
            None
        );
    }
}
