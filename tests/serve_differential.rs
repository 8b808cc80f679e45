//! Differential test for the resident query service: the daemon must
//! return exactly the counts the one-shot engine computes, for every
//! pattern in the query catalog, under concurrent socket clients, with
//! the plan cache warm and cold — even while a sibling query on the same
//! graph runs out of time — and then drain cleanly.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use light::core::{run_query, EngineConfig};
use light::pattern::Query;
use light::serve::json::Json;
use light::serve::{drain, GraphCatalog, QueryService, ServeConfig, SocketServer};

/// Every named pattern the CLI accepts.
const PATTERNS: &[Query] = &[
    Query::Triangle,
    Query::P1,
    Query::P2,
    Query::P3,
    Query::P4,
    Query::P5,
    Query::P6,
    Query::P7,
];

/// A 6-edge path: [`test_graph`] holds ~10^8 of them, seconds of
/// enumeration, so no deadline of a few milliseconds can be met.
const SLOW_PATH: &str = "0-1,1-2,2-3,3-4,4-5,5-6";

fn test_graph() -> light::graph::CsrGraph {
    light::graph::generators::barabasi_albert(400, 3, 2024)
}

fn service() -> Arc<QueryService> {
    let mut catalog = GraphCatalog::new();
    catalog.insert("g", test_graph()).unwrap();
    Arc::new(QueryService::new(
        catalog,
        ServeConfig {
            max_concurrent: 4,
            queue_depth: 16,
            threads_per_query: 2,
            default_timeout: Some(Duration::from_secs(60)),
            drain_grace: Duration::from_secs(10),
            idle_timeout: Some(Duration::from_secs(30)),
            mem_watermark: None,
            compact_threshold: Some(32_768),
            engine: EngineConfig::light(),
        },
    ))
}

/// The ground truth: one-shot engine counts on the same (degree-ordered)
/// graph the catalog serves.
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

fn connect(path: &std::path::Path) -> (impl Write, BufReader<UnixStream>) {
    // The accept loop needs a beat to come up; retry briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => {
                let r = BufReader::new(s.try_clone().expect("clone stream"));
                return (s, r);
            }
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("cannot connect to {}: {e}", path.display()),
        }
    }
}

fn roundtrip(w: &mut impl Write, r: &mut impl BufRead, req: &str) -> Json {
    writeln!(w, "{req}").expect("send");
    w.flush().expect("flush");
    let mut line = String::new();
    r.read_line(&mut line).expect("recv");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

#[test]
fn daemon_counts_match_one_shot_engine_under_concurrency() {
    let svc = service();
    let expect = expected_counts(&svc);
    let sock = std::env::temp_dir().join(format!("light_serve_diff_{}.sock", std::process::id()));
    let server = SocketServer::bind(Arc::clone(&svc), &sock).expect("bind");

    // Cold pass: every pattern once over one connection (all plan misses,
    // since the cache starts empty), counts must match the ground truth.
    {
        let (mut w, mut r) = connect(&sock);
        for (name, matches) in &expect {
            let resp = roundtrip(
                &mut w,
                &mut r,
                &format!("{{\"op\":\"query\",\"pattern\":\"{name}\",\"id\":\"cold-{name}\"}}"),
            );
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "{resp:?}"
            );
            assert_eq!(
                resp.get("matches").and_then(Json::as_u64),
                Some(*matches),
                "cold {name}"
            );
            assert_eq!(
                resp.get("plan_cache").and_then(Json::as_str),
                Some("miss"),
                "cold {name} must be a plan miss"
            );
        }
    }

    // Warm pass: 8 concurrent clients, each over its own connection,
    // querying every pattern. All plans are now cached; every count must
    // still match. Beside them a ninth client sends a 6-edge path — far
    // more than a millisecond of work on this graph — with a 1 ms
    // deadline: it must come back partial, and no sibling may notice.
    let victim = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let (mut w, mut r) = connect(&sock);
            roundtrip(
                &mut w,
                &mut r,
                &format!("{{\"op\":\"query\",\"pattern\":\"{SLOW_PATH}\",\"graph\":\"g\",\"timeout_ms\":1,\"id\":\"victim\"}}"),
            )
        })
    };
    let mut clients = Vec::new();
    for c in 0..8 {
        let sock = sock.clone();
        let expect = expect.clone();
        clients.push(std::thread::spawn(move || {
            let (mut w, mut r) = connect(&sock);
            for (name, matches) in &expect {
                let resp = roundtrip(
                    &mut w,
                    &mut r,
                    &format!("{{\"op\":\"query\",\"pattern\":\"{name}\",\"graph\":\"g\",\"id\":\"c{c}-{name}\"}}"),
                );
                assert_eq!(
                    resp.get("status").and_then(Json::as_str),
                    Some("ok"),
                    "client {c} {name}: {resp:?}"
                );
                assert_eq!(
                    resp.get("matches").and_then(Json::as_u64),
                    Some(*matches),
                    "client {c} warm {name}"
                );
                assert_eq!(
                    resp.get("plan_cache").and_then(Json::as_str),
                    Some("hit"),
                    "client {c} warm {name} must be a plan hit"
                );
                assert_eq!(
                    resp.get("id").and_then(Json::as_str),
                    Some(format!("c{c}-{name}").as_str()),
                    "id must echo verbatim"
                );
            }
        }));
    }
    for cl in clients {
        cl.join().expect("client thread");
    }
    let resp = victim.join().expect("victim thread");
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("partial"),
        "{resp:?}"
    );
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("timeout"),
        "{resp:?}"
    );

    // The measured plan-cache hit rate is the acceptance criterion: 8
    // clients × |PATTERNS| hits over |PATTERNS| misses, plus the victim's
    // one miss.
    assert!(
        svc.plan_cache().hit_rate() > 0.8,
        "{}",
        svc.plan_cache().hit_rate()
    );
    assert_eq!(svc.plan_cache().misses(), PATTERNS.len() as u64 + 1);
    assert_eq!(svc.plan_cache().hits(), 8 * PATTERNS.len() as u64);

    // Service-side stats agree with what the clients saw.
    {
        let (mut w, mut r) = connect(&sock);
        let stats = roundtrip(&mut w, &mut r, "{\"op\":\"stats\",\"id\":\"s\"}");
        let q = stats.get("queries").expect("queries object");
        assert_eq!(
            q.get("total").and_then(Json::as_u64),
            Some(9 * PATTERNS.len() as u64 + 1)
        );
        assert_eq!(
            q.get("ok").and_then(Json::as_u64),
            Some(9 * PATTERNS.len() as u64)
        );
        assert_eq!(q.get("partial").and_then(Json::as_u64), Some(1));
        assert_eq!(q.get("timeout").and_then(Json::as_u64), Some(1));
        assert_eq!(q.get("error").and_then(Json::as_u64), Some(0));
        assert_eq!(q.get("overloaded").and_then(Json::as_u64), Some(0));
        let pc = stats.get("plan_cache").expect("plan_cache object");
        assert!(pc.get("hit_rate").and_then(Json::as_f64).unwrap() > 0.8);

        // Shutdown over the wire: ack, then new queries are refused.
        let ack = roundtrip(&mut w, &mut r, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
        assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));
    }

    assert!(svc.is_draining());
    let report = drain(&svc);
    assert_eq!(report.cancelled, 0, "idle drain must cancel nothing");
    server.join().expect("server join");
    assert!(!sock.exists(), "socket file must be removed on drain");

    // Post-drain, new queries get the typed draining error via handle_line.
    let resp = svc.handle_line("{\"op\":\"query\",\"pattern\":\"triangle\"}");
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("draining"));
}
