//! Chaos harness for the serve tier: drive a live in-process daemon
//! through every `serve::*` failpoint site under concurrent clients and
//! check the resilience contract of DESIGN.md §15 — the conservation
//! law (every submitted request gets exactly one typed terminal
//! response, then EOF), `panics_total` accounting that matches the
//! injected faults, service state that provably survives supervision
//! (post-fault queries return exact counts), and a clean drain after
//! every scenario.
//!
//! Failpoints arm programmatically, so the daemons here run in-process
//! over temp Unix sockets: the portable thread-per-connection transport
//! everywhere, plus the epoll reactor (and its executor/reactor-side
//! sites `serve::dispatch`, `serve::reactor_read`, `serve::reactor_write`)
//! on Linux. Requires the `failpoint` feature:
//! `cargo test --features failpoint --test serve_chaos`.

#![cfg(feature = "failpoint")]

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use light::core::{run_query, EngineConfig};
use light::failpoint;
use light::pattern::Query;
use light::serve::json::Json;
use light::serve::{drain, GraphCatalog, QueryService, ServeConfig, SocketServer};

const WATCHDOG: Duration = Duration::from_secs(120);
const CLIENTS: usize = 8;

/// The service-layer sites: visited by `QueryService::execute` on every
/// query, over both transports. `docs/failpoints.md` documents each.
const SERVICE_SITES: &[&str] = &[
    "serve::catalog_resolve",
    "serve::admission",
    "serve::plan_build",
];

/// Patterns the chaos clients cycle through (plan-cache pressure needs
/// more than one).
const PATTERNS: &[Query] = &[Query::Triangle, Query::P1, Query::P2, Query::P3];

fn quiet_injected_panics() {
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("failpoint"));
        if !injected {
            saved(info);
        }
    }));
}

fn watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let h = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => {
            h.join().expect("worker sent a value, join cannot fail");
            v
        }
        Err(RecvTimeoutError::Disconnected) => match h.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("sender dropped without panicking"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("chaos case {name:?} hung past the {WATCHDOG:?} watchdog")
        }
    }
}

fn service() -> Arc<QueryService> {
    let mut catalog = GraphCatalog::new();
    catalog
        .insert("g", light::graph::generators::barabasi_albert(300, 3, 9))
        .unwrap();
    Arc::new(QueryService::new(
        catalog,
        ServeConfig {
            max_concurrent: 4,
            queue_depth: 16,
            threads_per_query: 1,
            default_timeout: Some(Duration::from_secs(60)),
            drain_grace: Duration::from_secs(10),
            idle_timeout: Some(Duration::from_secs(30)),
            mem_watermark: None,
            compact_threshold: Some(32_768),
            engine: EngineConfig::light(),
        },
    ))
}

fn expected_counts(svc: &QueryService) -> Vec<(&'static str, u64)> {
    let g = svc.catalog().get("g").unwrap().graph();
    PATTERNS
        .iter()
        .map(|q| {
            (
                q.name(),
                run_query(&q.pattern(), &g, &EngineConfig::light()).matches,
            )
        })
        .collect()
}

enum Server {
    Threads(SocketServer),
    #[cfg(target_os = "linux")]
    Reactor(light::serve::ReactorServer),
}

impl Server {
    fn bind(kind: &str, svc: Arc<QueryService>, path: &Path) -> Server {
        match kind {
            "threads" => Server::Threads(SocketServer::bind(svc, path).expect("bind threads")),
            #[cfg(target_os = "linux")]
            "reactor" => {
                Server::Reactor(light::serve::ReactorServer::bind(svc, path).expect("bind reactor"))
            }
            other => panic!("unknown transport {other:?}"),
        }
    }

    fn join(self) -> std::io::Result<()> {
        match self {
            Server::Threads(s) => s.join(),
            #[cfg(target_os = "linux")]
            Server::Reactor(s) => s.join(),
        }
    }
}

fn transports() -> &'static [&'static str] {
    #[cfg(target_os = "linux")]
    {
        &["threads", "reactor"]
    }
    #[cfg(not(target_os = "linux"))]
    {
        &["threads"]
    }
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("light_chaos_{tag}_{}.sock", std::process::id()))
}

fn connect(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("cannot connect to {}: {e}", path.display()),
        }
    }
}

/// Read one `\n`-terminated line; `None` on EOF. Panics on I/O error —
/// chaos legs that expect dead connections use [`try_read_line`].
fn read_line(s: &mut UnixStream) -> Option<String> {
    try_read_line(s).unwrap_or_else(|e| panic!("read error: {e}"))
}

fn try_read_line(s: &mut UnixStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match s.read(&mut byte)? {
            0 => {
                return Ok(if buf.is_empty() {
                    None
                } else {
                    Some(String::from_utf8_lossy(&buf).into_owned())
                })
            }
            _ if byte[0] == b'\n' => return Ok(Some(String::from_utf8_lossy(&buf).into_owned())),
            _ => buf.push(byte[0]),
        }
    }
}

fn roundtrip(s: &mut UnixStream, req: &str) -> Json {
    writeln!(s, "{req}").expect("send");
    s.flush().expect("flush");
    let line = read_line(s).unwrap_or_else(|| panic!("EOF instead of a response to {req}"));
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

/// Fetch `panics_total` over the wire, the way an operator would.
fn panics_total(path: &Path) -> u64 {
    let mut s = connect(path);
    let stats = roundtrip(&mut s, "{\"op\":\"stats\",\"id\":\"pt\"}");
    stats
        .get("queries")
        .and_then(|q| q.get("panics_total"))
        .and_then(Json::as_u64)
        .expect("stats carries panics_total")
}

/// Shut the daemon down over the wire and drain it; every scenario must
/// end this way, cleanly, whatever was injected beforehand.
fn shutdown_and_drain(svc: &Arc<QueryService>, server: Server, path: &Path) {
    let mut s = connect(path);
    let ack = roundtrip(&mut s, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
    assert_eq!(
        ack.get("draining").and_then(Json::as_bool),
        Some(true),
        "{ack:?}"
    );
    drop(s);
    let _report = drain(svc);
    server
        .join()
        .expect("daemon must drain cleanly after chaos");
    assert!(!path.exists(), "socket file removed on drain");
}

/// The conservation pass: `CLIENTS` concurrent clients, each sending
/// `per_client` queries with unique ids, each request answered by
/// exactly one syntactically valid response echoing its id, then EOF
/// after drain. Returns every (request id, response) pair.
fn client_matrix(path: &Path, per_client: usize) -> Vec<(String, Json)> {
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let path = path.to_path_buf();
        handles.push(std::thread::spawn(move || {
            let mut s = connect(&path);
            let mut out = Vec::new();
            for i in 0..per_client {
                let pat = PATTERNS[(c + i) % PATTERNS.len()].name();
                let id = format!("c{c}-q{i}");
                let resp = roundtrip(
                    &mut s,
                    &format!("{{\"op\":\"query\",\"pattern\":\"{pat}\",\"id\":\"{id}\"}}"),
                );
                assert_eq!(
                    resp.get("id").and_then(Json::as_str),
                    Some(id.as_str()),
                    "response must echo the request id: {resp:?}"
                );
                out.push((id, resp));
            }
            out
        }));
    }
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect()
}

/// Terminal statuses a query may resolve to. Anything else (or a second
/// line for the same id, or a missing line — both caught structurally by
/// the lock-step `roundtrip`) violates the conservation law.
fn assert_terminal(resp: &Json) {
    let status = resp
        .get("status")
        .and_then(Json::as_str)
        .expect("status field");
    assert!(
        matches!(status, "ok" | "error" | "partial" | "overloaded"),
        "non-terminal status: {resp:?}"
    );
}

/// Every service-layer site, armed to panic on every visit: all queries
/// come back as typed `internal_error` responses (never a hang, never a
/// dropped connection), `panics_total` matches exactly, and after
/// disarming the daemon serves exact counts — catalog, plan cache, and
/// admission state all survived the unwinds.
#[test]
fn service_site_panics_are_contained_and_accounted() {
    let _s = failpoint::FailScenario::setup();
    quiet_injected_panics();
    for kind in transports() {
        for site in SERVICE_SITES {
            let (kind, site) = (*kind, *site);
            watchdog(&format!("{site}/{kind}"), move || {
                let svc = service();
                let expect = expected_counts(&svc);
                let path = sock_path(&format!("svc_{kind}"));
                let server = Server::bind(kind, Arc::clone(&svc), &path);

                failpoint::configure(site, "panic").unwrap();
                let per_client = 4;
                let responses = client_matrix(&path, per_client);
                assert_eq!(
                    responses.len(),
                    CLIENTS * per_client,
                    "conservation: one response per request"
                );
                for (id, resp) in &responses {
                    assert_terminal(resp);
                    assert_eq!(
                        resp.get("code").and_then(Json::as_str),
                        Some("internal_error"),
                        "{site}/{kind} {id}: armed panic must surface as internal_error: {resp:?}"
                    );
                    assert!(
                        resp.get("error")
                            .and_then(Json::as_str)
                            .is_some_and(|e| e.contains("contained")),
                        "{site}/{kind}: message must say the panic was contained: {resp:?}"
                    );
                }
                failpoint::remove(site);

                assert_eq!(
                    panics_total(&path),
                    (CLIENTS * per_client) as u64,
                    "{site}/{kind}: panics_total must count every injected panic"
                );

                // Supervision must leave the service usable: exact counts
                // after the storm, from the same catalog and plan cache.
                let mut s = connect(&path);
                for (pat, matches) in &expect {
                    let resp = roundtrip(
                        &mut s,
                        &format!(
                            "{{\"op\":\"query\",\"pattern\":\"{pat}\",\"id\":\"after-{pat}\"}}"
                        ),
                    );
                    assert_eq!(
                        resp.get("status").and_then(Json::as_str),
                        Some("ok"),
                        "{resp:?}"
                    );
                    assert_eq!(
                        resp.get("matches").and_then(Json::as_u64),
                        Some(*matches),
                        "{site}/{kind}: post-fault count for {pat} must be exact"
                    );
                }
                let health = roundtrip(&mut s, "{\"op\":\"health\",\"id\":\"h\"}");
                assert_eq!(
                    health.get("ready").and_then(Json::as_bool),
                    Some(true),
                    "{health:?}"
                );
                drop(s);
                shutdown_and_drain(&svc, server, &path);
            });
        }
    }
}

/// Seeded probabilistic panics at the resolve site: a mixed stream of
/// exact counts and typed internal errors, with `panics_total` equal to
/// the number of error responses the clients actually saw.
#[test]
fn probabilistic_panics_mix_exact_counts_with_typed_errors() {
    let _s = failpoint::FailScenario::setup();
    quiet_injected_panics();
    for kind in transports() {
        let kind = *kind;
        watchdog(&format!("prob/{kind}"), move || {
            let svc = service();
            let expect = expected_counts(&svc);
            let path = sock_path(&format!("prob_{kind}"));
            let server = Server::bind(kind, Arc::clone(&svc), &path);

            failpoint::configure("serve::catalog_resolve", "0.35@11:panic").unwrap();
            let per_client = 6;
            let responses = client_matrix(&path, per_client);
            failpoint::remove("serve::catalog_resolve");
            assert_eq!(responses.len(), CLIENTS * per_client);

            let mut panicked = 0u64;
            let mut ok = 0u64;
            for (id, resp) in &responses {
                assert_terminal(resp);
                match resp.get("status").and_then(Json::as_str) {
                    Some("ok") => {
                        // c{c}-q{i} → pattern (c + i) % len, same cycle the
                        // clients used; its count must be exact.
                        let (c, i) = id[1..].split_once("-q").expect("id shape");
                        let idx = (c.parse::<usize>().unwrap() + i.parse::<usize>().unwrap())
                            % PATTERNS.len();
                        assert_eq!(
                            resp.get("matches").and_then(Json::as_u64),
                            Some(expect[idx].1),
                            "{kind} {id}: surviving query must return the exact count"
                        );
                        ok += 1;
                    }
                    Some("error") => {
                        assert_eq!(
                            resp.get("code").and_then(Json::as_str),
                            Some("internal_error"),
                            "{resp:?}"
                        );
                        panicked += 1;
                    }
                    other => panic!("{kind} {id}: unexpected status {other:?}"),
                }
            }
            assert!(
                panicked > 0,
                "{kind}: p=0.35 over 48 queries cannot miss every one"
            );
            assert!(ok > 0, "{kind}: p=0.35 cannot kill every query");
            assert_eq!(
                panics_total(&path),
                panicked,
                "{kind}: panics_total must equal the internal errors clients saw"
            );
            shutdown_and_drain(&svc, server, &path);
        });
    }
}

/// Delay injection at the admission site is not a fault: every query
/// still returns its exact count, and the drain stays clean.
#[test]
fn admission_delays_do_not_change_any_answer() {
    let _s = failpoint::FailScenario::setup();
    for kind in transports() {
        let kind = *kind;
        watchdog(&format!("delay/{kind}"), move || {
            let svc = service();
            let expect = expected_counts(&svc);
            let path = sock_path(&format!("delay_{kind}"));
            let server = Server::bind(kind, Arc::clone(&svc), &path);

            failpoint::configure("serve::admission", "delay(25)").unwrap();
            let per_client = 3;
            let responses = client_matrix(&path, per_client);
            failpoint::remove("serve::admission");
            assert_eq!(responses.len(), CLIENTS * per_client);
            for (id, resp) in &responses {
                let (c, i) = id[1..].split_once("-q").expect("id shape");
                let idx =
                    (c.parse::<usize>().unwrap() + i.parse::<usize>().unwrap()) % PATTERNS.len();
                assert_eq!(
                    resp.get("status").and_then(Json::as_str),
                    Some("ok"),
                    "{resp:?}"
                );
                assert_eq!(
                    resp.get("matches").and_then(Json::as_u64),
                    Some(expect[idx].1),
                    "{kind} {id}: delay must not change the count"
                );
            }
            assert_eq!(panics_total(&path), 0);
            shutdown_and_drain(&svc, server, &path);
        });
    }
}

/// The no-fault differential leg: a `FailScenario` armed with nothing
/// must be observationally identical to a plain daemon — every count
/// equal to the one-shot engine, zero panics, clean drain.
#[test]
fn unarmed_scenario_matches_one_shot_counts() {
    let _s = failpoint::FailScenario::setup();
    for kind in transports() {
        let kind = *kind;
        watchdog(&format!("unarmed/{kind}"), move || {
            let svc = service();
            let expect = expected_counts(&svc);
            let path = sock_path(&format!("unarmed_{kind}"));
            let server = Server::bind(kind, Arc::clone(&svc), &path);

            let per_client = PATTERNS.len();
            let responses = client_matrix(&path, per_client);
            assert_eq!(responses.len(), CLIENTS * per_client);
            for (id, resp) in &responses {
                let (c, i) = id[1..].split_once("-q").expect("id shape");
                let idx =
                    (c.parse::<usize>().unwrap() + i.parse::<usize>().unwrap()) % PATTERNS.len();
                assert_eq!(
                    resp.get("status").and_then(Json::as_str),
                    Some("ok"),
                    "{resp:?}"
                );
                assert_eq!(
                    resp.get("matches").and_then(Json::as_u64),
                    Some(expect[idx].1),
                    "{kind} {id}: no-fault counts must match run_query exactly"
                );
            }
            assert_eq!(panics_total(&path), 0);
            shutdown_and_drain(&svc, server, &path);
        });
    }
}

/// Executor-side containment on the reactor transport: a panic injected
/// at dispatch (before the service ever sees the line) still produces
/// exactly one `internal_error` per request, with the id recovered from
/// the raw line and the executor stage attached, and the pool survives.
#[cfg(target_os = "linux")]
#[test]
fn reactor_dispatch_panics_are_contained_per_request() {
    let _s = failpoint::FailScenario::setup();
    quiet_injected_panics();
    watchdog("dispatch/reactor", move || {
        let svc = service();
        let expect = expected_counts(&svc);
        let path = sock_path("dispatch");
        let server = Server::bind("reactor", Arc::clone(&svc), &path);

        failpoint::configure("serve::dispatch", "panic").unwrap();
        let per_client = 4;
        let responses = client_matrix(&path, per_client);
        failpoint::remove("serve::dispatch");

        assert_eq!(responses.len(), CLIENTS * per_client);
        for (id, resp) in &responses {
            assert_eq!(
                resp.get("code").and_then(Json::as_str),
                Some("internal_error"),
                "dispatch {id}: {resp:?}"
            );
            assert_eq!(
                resp.get("stage").and_then(Json::as_str),
                Some("executor"),
                "dispatch panics must carry the executor stage: {resp:?}"
            );
        }
        assert_eq!(panics_total(&path), (CLIENTS * per_client) as u64);

        // The executor pool is intact: exact counts once disarmed.
        let mut s = connect(&path);
        for (pat, matches) in &expect {
            let resp = roundtrip(
                &mut s,
                &format!("{{\"op\":\"query\",\"pattern\":\"{pat}\",\"id\":\"after-{pat}\"}}"),
            );
            assert_eq!(
                resp.get("matches").and_then(Json::as_u64),
                Some(*matches),
                "{resp:?}"
            );
        }
        drop(s);
        shutdown_and_drain(&svc, server, &path);
    });
}

/// Reactor I/O chaos: probabilistic panics in the read/write paths kill
/// individual connections (that is the contract — a poisoned conn is
/// abandoned, never a poisoned reactor), while the daemon itself stays
/// up, keeps serving fresh connections, and drains clean.
#[cfg(target_os = "linux")]
#[test]
fn reactor_io_panics_kill_connections_not_the_daemon() {
    let _s = failpoint::FailScenario::setup();
    quiet_injected_panics();
    watchdog("reactor_io", move || {
        let svc = service();
        let expect = expected_counts(&svc);
        let path = sock_path("rio");
        let server = Server::bind("reactor", Arc::clone(&svc), &path);

        failpoint::configure("serve::reactor_read", "0.2@7:panic").unwrap();
        failpoint::configure("serve::reactor_write", "0.2@13:panic").unwrap();

        // Clients must tolerate their connection dying mid-exchange;
        // what they may never see is a malformed or wrong response.
        let survived = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let path = path.to_path_buf();
            let expect = expect.clone();
            let survived = Arc::clone(&survived);
            handles.push(std::thread::spawn(move || {
                for i in 0..6 {
                    let (pat, matches) = expect[(c + i) % expect.len()];
                    let mut s = connect(&path);
                    let req =
                        format!("{{\"op\":\"query\",\"pattern\":\"{pat}\",\"id\":\"c{c}-q{i}\"}}");
                    if writeln!(s, "{req}").and_then(|()| s.flush()).is_err() {
                        continue; // conn killed while sending: allowed
                    }
                    // A killed conn (EOF or reset) before the reply is
                    // allowed; a *delivered* reply must be exact.
                    if let Ok(Some(line)) = try_read_line(&mut s) {
                        let resp = Json::parse(line.trim())
                            .unwrap_or_else(|e| panic!("bad response {line:?}: {e}"));
                        assert_eq!(
                            resp.get("matches").and_then(Json::as_u64),
                            Some(matches),
                            "surviving response must be exact: {resp:?}"
                        );
                        survived.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("client thread");
        }
        failpoint::remove("serve::reactor_read");
        failpoint::remove("serve::reactor_write");

        // The reactor itself must have survived: fresh connections get
        // exact answers for every pattern.
        let mut s = connect(&path);
        for (pat, matches) in &expect {
            let resp = roundtrip(
                &mut s,
                &format!("{{\"op\":\"query\",\"pattern\":\"{pat}\",\"id\":\"after-{pat}\"}}"),
            );
            assert_eq!(
                resp.get("matches").and_then(Json::as_u64),
                Some(*matches),
                "{resp:?}"
            );
        }
        let health = roundtrip(&mut s, "{\"op\":\"health\",\"id\":\"h\"}");
        assert_eq!(
            health.get("ready").and_then(Json::as_bool),
            Some(true),
            "{health:?}"
        );
        drop(s);
        shutdown_and_drain(&svc, server, &path);
    });
}

/// Transactional updates: a panic injected at `serve::update_apply` —
/// after the new view is prepared, before it commits — must surface as
/// a typed `internal_error`, leave the old generation live (the served
/// graph, its generation counter, and every count unchanged), and once
/// disarmed the very same batch applies cleanly, bumping the generation
/// exactly once.
#[test]
fn update_fault_leaves_old_generation_intact() {
    let _s = failpoint::FailScenario::setup();
    quiet_injected_panics();
    for kind in transports() {
        let kind = *kind;
        watchdog(&format!("update/{kind}"), move || {
            let svc = service();
            let expect = expected_counts(&svc);
            let gen0 = svc.catalog().get("g").unwrap().generation();
            let path = sock_path(&format!("update_{kind}"));
            let server = Server::bind(kind, Arc::clone(&svc), &path);

            // Pick an edge whose insertion is a real mutation.
            let g0 = svc.catalog().get("g").unwrap().graph();
            let mut wedge = None;
            'outer: for u in 0..g0.num_vertices() as u32 {
                let nbrs = g0.neighbors(u);
                for (i, &x) in nbrs.iter().enumerate() {
                    for &y in &nbrs[i + 1..] {
                        if !g0.neighbors(x).contains(&y) {
                            wedge = Some((x, y));
                            break 'outer;
                        }
                    }
                }
            }
            let (a, b) = wedge.expect("an open wedge exists");
            let batch = format!(
                "{{\"op\":\"update\",\"graph\":\"g\",\"inserts\":[[{a},{b}]],\"id\":\"boom\"}}"
            );

            failpoint::configure("serve::update_apply", "panic").unwrap();
            let mut s = connect(&path);
            let resp = roundtrip(&mut s, &batch);
            assert_eq!(
                resp.get("code").and_then(Json::as_str),
                Some("internal_error"),
                "{kind}: armed update panic must surface as internal_error: {resp:?}"
            );
            failpoint::remove("serve::update_apply");

            // Nothing committed: same generation, and every count still
            // matches the pre-fault graph exactly.
            assert_eq!(
                svc.catalog().get("g").unwrap().generation(),
                gen0,
                "{kind}: failed update must not bump the generation"
            );
            for (pat, matches) in &expect {
                let resp = roundtrip(
                    &mut s,
                    &format!("{{\"op\":\"query\",\"pattern\":\"{pat}\",\"id\":\"pre-{pat}\"}}"),
                );
                assert_eq!(
                    resp.get("matches").and_then(Json::as_u64),
                    Some(*matches),
                    "{kind}: post-fault count for {pat} must equal the pre-update graph"
                );
            }

            // Disarmed, the identical batch commits: generation bumps by
            // exactly one and the daemon serves the mutated graph.
            let resp = roundtrip(&mut s, &batch);
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "{kind}: retried update must commit: {resp:?}"
            );
            assert_eq!(
                resp.get("generation").and_then(Json::as_u64),
                Some(gen0 + 1),
                "{kind}: exactly one generation bump after the retry"
            );
            assert_eq!(resp.get("inserted").and_then(Json::as_u64), Some(1));
            let g1 = svc.catalog().get("g").unwrap().graph();
            let want = run_query(&Query::Triangle.pattern(), &g1, &EngineConfig::light()).matches;
            let resp = roundtrip(
                &mut s,
                "{\"op\":\"query\",\"pattern\":\"triangle\",\"id\":\"post\"}",
            );
            assert_eq!(
                resp.get("matches").and_then(Json::as_u64),
                Some(want),
                "{kind}: post-commit count must reflect the mutation"
            );

            let health = roundtrip(&mut s, "{\"op\":\"health\",\"id\":\"h\"}");
            assert_eq!(
                health.get("ready").and_then(Json::as_bool),
                Some(true),
                "{health:?}"
            );
            drop(s);
            shutdown_and_drain(&svc, server, &path);
        });
    }
}
