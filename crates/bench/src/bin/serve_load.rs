//! Serve-load benchmark: drive a live in-process daemon over its Unix
//! socket and measure the serving path end to end — admission, plan
//! cache, the parallel engine, and the transport itself.
//!
//! Three legs per transport (`epoll` reactor on Linux, thread-per-connection
//! everywhere):
//!
//! 1. **Idle ramp** — open `LIGHT_SERVE_LOAD_IDLE` connections that never
//!    send a byte, then verify a live query still answers promptly. The
//!    reactor multiplexes them on one thread; the thread transport pays a
//!    stack per connection.
//! 2. **Closed loop** — `LIGHT_SERVE_LOAD_CONNS` clients each issue
//!    `LIGHT_SERVE_LOAD_REPEAT` queries back-to-back: peak sustainable
//!    throughput with coordinated omission (each client waits for its
//!    response before sending the next).
//! 3. **Open loop** — requests dispatched on a fixed schedule
//!    (`LIGHT_SERVE_LOAD_RATE` req/s for `LIGHT_SERVE_LOAD_SECS`),
//!    latency measured from *scheduled* send time, so a stalled daemon
//!    shows up as tail latency instead of a silently slower clock.
//!
//! A final in-process leg runs the engine directly under a fabricated
//! 2-node topology ([`CpuTopology::from_slots`]) and records per-tier
//! steal counts — the scheduler-side evidence the serve numbers rest on.
//!
//! Output: the usual human table plus `BENCH_serve_load.json` (see
//! [`light_bench::emit_bench`]).
//!
//! CI quick mode: `LIGHT_SERVE_LOAD_QUICK=1` shrinks every knob to a
//! ~10 s run, asserts zero protocol errors and an open-loop p99 under
//! `LIGHT_SERVE_LOAD_P99_MS` (default 2000), and exits non-zero on
//! violation.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use light_bench as bench;
use light_bench::BenchRow;
use light_graph::datasets::Dataset;
use light_parallel::{run_query_parallel, CpuSlot, CpuTopology, ParallelConfig, TopologyMode};
use light_pattern::Query;
use light_serve::{drain, GraphCatalog, QueryService, ServeConfig, SocketServer};

const QUERY_LINE: &str = r#"{"op":"query","pattern":"P1","graph":"yt"}"#;

fn main() {
    let quick = bench::env_usize("LIGHT_SERVE_LOAD_QUICK", 0) == 1;
    let scale = bench::scale(if quick { 0.02 } else { 0.05 });
    let idle = bench::env_usize("LIGHT_SERVE_LOAD_IDLE", if quick { 64 } else { 512 });
    let conns = bench::env_usize("LIGHT_SERVE_LOAD_CONNS", 4);
    let repeat = bench::env_usize("LIGHT_SERVE_LOAD_REPEAT", if quick { 25 } else { 200 });
    let rate = bench::env_f64("LIGHT_SERVE_LOAD_RATE", if quick { 40.0 } else { 100.0 });
    let secs = bench::env_f64("LIGHT_SERVE_LOAD_SECS", if quick { 3.0 } else { 15.0 });
    let p99_bound_ms = bench::env_f64("LIGHT_SERVE_LOAD_P99_MS", 2000.0);

    eprintln!(
        "serve_load: scale={scale} idle={idle} closed={conns}x{repeat} \
         open={rate}req/s x {secs}s quick={quick}"
    );
    let graph = bench::dataset(Dataset::Yt, scale);

    let mut rows: Vec<BenchRow> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    let transports: &[&str] = if cfg!(target_os = "linux") {
        &["epoll", "threads"]
    } else {
        &["threads"]
    };
    for transport in transports {
        // Fresh daemon per transport: a drained QueryService stays drained.
        let mut catalog = GraphCatalog::new();
        catalog.insert("yt", graph.clone()).expect("catalog insert");
        let service = Arc::new(QueryService::new(
            catalog,
            ServeConfig {
                max_concurrent: 2,
                queue_depth: 64,
                threads_per_query: bench::threads(2),
                drain_grace: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        ));
        let path = std::env::temp_dir().join(format!(
            "light-serve-load-{}-{transport}.sock",
            std::process::id()
        ));
        let server = Transport::bind(transport, Arc::clone(&service), &path);

        // Leg 1: idle-connection ramp. Kept open for the whole run so the
        // later legs measure under idle pressure, as a real daemon would.
        let idle_conns: Vec<UnixStream> = (0..idle)
            .map(|_| UnixStream::connect(&path).expect("idle connect"))
            .collect();
        let t0 = Instant::now();
        let (lat, errs) = run_client(&path, 1);
        rows.push(summarize(
            format!("idle={idle} {transport}"),
            &lat,
            errs,
            t0.elapsed(),
            &mut violations,
        ));

        // Leg 2: closed loop.
        let t0 = Instant::now();
        let mut lat = Vec::new();
        let mut errs = 0usize;
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let p = path.clone();
                std::thread::spawn(move || run_client(&p, repeat))
            })
            .collect();
        for w in workers {
            let (l, e) = w.join().expect("closed-loop client");
            lat.extend(l);
            errs += e;
        }
        rows.push(summarize(
            format!("closed c={conns} {transport}"),
            &lat,
            errs,
            t0.elapsed(),
            &mut violations,
        ));

        // Leg 3: open loop at a fixed schedule.
        let t0 = Instant::now();
        let (lat, errs) = open_loop(&path, rate, Duration::from_secs_f64(secs), conns.max(2));
        let row = summarize(
            format!("open r={rate} {transport}"),
            &lat,
            errs,
            t0.elapsed(),
            &mut violations,
        );
        let p99 = percentile(&lat, 0.99);
        if p99 > p99_bound_ms {
            violations.push(format!(
                "open-loop p99 {p99:.1} ms exceeds bound {p99_bound_ms:.1} ms ({transport})"
            ));
        }
        rows.push(row);

        drop(idle_conns);
        // Drain: shutdown request over the socket, then wait for quiescence.
        let (_, shutdown_errs) = send_lines(&path, &[r#"{"op":"shutdown"}"#.to_string()]);
        assert_eq!(shutdown_errs, 0, "shutdown request failed ({transport})");
        drain(&service);
        server.join();
    }

    // In-process scheduler leg: per-tier steal counts under a fabricated
    // 8-CPU, 2-node topology (runs identically on any host, including the
    // 1-CPU CI container — pinning fails harmlessly there).
    rows.push(steal_tier_row(&graph));

    let mut t =
        bench::TablePrinter::new(&["config", "requests", "errors", "qps", "p50", "p95", "p99"]);
    for r in &rows {
        let s = |k: &str| {
            r.splits
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        t.row(&[
            r.config.clone(),
            format!("{}", s("requests") as u64),
            format!("{}", s("protocol_errors") as u64),
            format!("{:.1}", s("qps")),
            format!("{:.2}", s("p50_ms")),
            format!("{:.2}", s("p95_ms")),
            format!("{:.2}", s("p99_ms")),
        ]);
    }
    t.print();

    let path = bench::emit_bench("serve_load", &rows).expect("emit BENCH_serve_load.json");
    eprintln!("wrote {}", path.display());

    if quick && !violations.is_empty() {
        for v in &violations {
            eprintln!("serve_load FAIL: {v}");
        }
        std::process::exit(1);
    }
}

/// A bound server of either transport, with a uniform join.
enum Transport {
    Threads(SocketServer),
    #[cfg(target_os = "linux")]
    Epoll(light_serve::ReactorServer),
}

impl Transport {
    fn bind(kind: &str, service: Arc<QueryService>, path: &std::path::Path) -> Transport {
        std::fs::remove_file(path).ok();
        match kind {
            "threads" => {
                Transport::Threads(SocketServer::bind(service, path).expect("bind threads"))
            }
            #[cfg(target_os = "linux")]
            "epoll" => Transport::Epoll(
                light_serve::ReactorServer::bind(service, path).expect("bind epoll"),
            ),
            other => panic!("unknown transport {other:?}"),
        }
    }

    fn join(self) {
        match self {
            Transport::Threads(s) => s.join().expect("threads transport join"),
            #[cfg(target_os = "linux")]
            Transport::Epoll(s) => s.join().expect("epoll transport join"),
        }
    }
}

/// One closed-loop client: `n` queries back-to-back on a private
/// connection. Returns per-request latencies and the protocol-error count.
fn run_client(path: &std::path::Path, n: usize) -> (Vec<Duration>, usize) {
    let lines: Vec<String> = (0..n).map(|_| QUERY_LINE.to_string()).collect();
    send_lines(path, &lines)
}

/// Send `lines` one at a time (write line, await response line) over a
/// fresh connection. A response without `"status":"ok"`, or any transport
/// failure, counts as a protocol error.
fn send_lines(path: &std::path::Path, lines: &[String]) -> (Vec<Duration>, usize) {
    let mut lat = Vec::with_capacity(lines.len());
    let mut errors = 0usize;
    let Ok(stream) = UnixStream::connect(path) else {
        return (lat, lines.len());
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return (lat, lines.len()),
    };
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    for line in lines {
        let t0 = Instant::now();
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            errors += 1;
            continue;
        }
        resp.clear();
        match reader.read_line(&mut resp) {
            Ok(n) if n > 0 => {
                lat.push(t0.elapsed());
                if !resp.contains("\"status\":\"ok\"") {
                    errors += 1;
                }
            }
            _ => {
                errors += 1;
            }
        }
    }
    (lat, errors)
}

/// Open-loop driver: `workers` paced connections jointly dispatch
/// [`QUERY_LINE`] at `rate` req/s for `duration`. Latency is measured
/// from each request's *scheduled* send time (coordinated-omission-free):
/// if the daemon stalls, the backlog shows up as tail latency.
fn open_loop(
    path: &std::path::Path,
    rate: f64,
    duration: Duration,
    workers: usize,
) -> (Vec<Duration>, usize) {
    let per_worker_rate = rate / workers as f64;
    let interval = Duration::from_secs_f64(1.0 / per_worker_rate.max(1e-6));
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let path = path.to_path_buf();
            // Stagger worker start offsets so the joint schedule is even.
            let offset = interval.mul_f64(w as f64 / workers as f64);
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let mut errors = 0usize;
                let Ok(stream) = UnixStream::connect(&path) else {
                    return (lat, 1usize);
                };
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                let start = Instant::now() + offset;
                let mut resp = String::new();
                let mut k = 0u32;
                loop {
                    let scheduled = start + interval * k;
                    k += 1;
                    if scheduled.saturating_duration_since(Instant::now()) > Duration::ZERO {
                        std::thread::sleep(scheduled - Instant::now());
                    }
                    if scheduled.duration_since(start) >= duration {
                        break;
                    }
                    if writer
                        .write_all(QUERY_LINE.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        errors += 1;
                        continue;
                    }
                    resp.clear();
                    match reader.read_line(&mut resp) {
                        Ok(n) if n > 0 => {
                            lat.push(scheduled.elapsed());
                            if !resp.contains("\"status\":\"ok\"") {
                                errors += 1;
                            }
                        }
                        _ => errors += 1,
                    }
                }
                (lat, errors)
            })
        })
        .collect();
    let mut lat = Vec::new();
    let mut errors = 0usize;
    for h in handles {
        let (l, e) = h.join().expect("open-loop worker");
        lat.extend(l);
        errors += e;
    }
    (lat, errors)
}

fn percentile(lat: &[Duration], p: f64) -> f64 {
    if lat.is_empty() {
        return 0.0;
    }
    let mut ms: Vec<f64> = lat.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.total_cmp(b));
    let idx = ((ms.len() as f64 * p).ceil() as usize).saturating_sub(1);
    ms[idx.min(ms.len() - 1)]
}

fn summarize(
    config: String,
    lat: &[Duration],
    errors: usize,
    elapsed: Duration,
    violations: &mut Vec<String>,
) -> BenchRow {
    if errors > 0 {
        violations.push(format!("{config}: {errors} protocol errors"));
    }
    BenchRow {
        pattern: "P1".into(),
        dataset: "yt".into(),
        threads: bench::threads(2),
        config,
        wall_ms: elapsed.as_secs_f64() * 1e3,
        matches: 0,
        outcome: if errors == 0 { "Complete" } else { "Errors" }.into(),
        splits: vec![
            ("requests".into(), lat.len() as f64),
            ("protocol_errors".into(), errors as f64),
            (
                "qps".into(),
                lat.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            ),
            ("p50_ms".into(), percentile(lat, 0.50)),
            ("p95_ms".into(), percentile(lat, 0.95)),
            ("p99_ms".into(), percentile(lat, 0.99)),
        ],
    }
}

/// In-process engine run under a fabricated 8-CPU / 2-node topology,
/// recording per-tier steal counts. The topology is injected, so this
/// measures the tiered victim ordering itself, not the host's shape.
fn steal_tier_row(graph: &light_graph::CsrGraph) -> BenchRow {
    let slots: Vec<CpuSlot> = (0..8)
        .map(|cpu| CpuSlot {
            cpu,
            core: cpu / 2,
            llc: cpu / 4,
            node: cpu / 4,
        })
        .collect();
    let mut pcfg = ParallelConfig::new(8);
    pcfg.topology = TopologyMode::Custom(CpuTopology::from_slots(slots));
    pcfg.pin_workers = false; // measuring steal ordering, not placement
    let cfg = light_core::EngineConfig::light();
    let pattern = Query::P1.pattern();
    let t0 = Instant::now();
    let pr = run_query_parallel(&pattern, graph, &cfg, &pcfg);
    let wall = t0.elapsed();
    let tiers = pr.steal_tier_totals();
    let total: u64 = tiers.iter().sum();
    let mut splits: Vec<(String, f64)> = light_metrics::STEAL_TIER_NAMES
        .iter()
        .zip(tiers)
        .map(|(n, v)| (format!("steals_{n}"), v as f64))
        .collect();
    splits.push(("steals_total".into(), total as f64));
    splits.push((
        "near_steal_fraction".into(),
        pr.near_steal_fraction().unwrap_or(0.0),
    ));
    BenchRow {
        pattern: "P1".into(),
        dataset: "yt".into(),
        threads: 8,
        config: "steal-tiers custom-2node".into(),
        wall_ms: wall.as_secs_f64() * 1e3,
        matches: pr.report.matches,
        outcome: format!("{:?}", pr.report.outcome),
        splits,
    }
}
