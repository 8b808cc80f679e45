//! Resilience regression tests for the serve tier, no fault injection
//! required: stalled-client (slowloris) eviction via the partial-line
//! read deadline, the drain-vs-completion race (a query in flight when
//! the daemon is told to shut down must still receive its count before
//! the connection is closed), and half-written request lines not
//! wedging a drain. Every scenario runs on the portable
//! thread-per-connection transport and, on Linux, on the epoll reactor.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use light::core::{run_query, EngineConfig};
use light::pattern::Query;
use light::serve::json::Json;
use light::serve::{drain, GraphCatalog, QueryService, ServeConfig, SocketServer};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Run `f` on a watchdog thread so a wedged drain fails the test here,
/// not as an opaque CI timeout.
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
            panic!("resilience case {name:?} hung past the {WATCHDOG:?} watchdog")
        }
    }
}

fn service(idle_timeout: Option<Duration>) -> Arc<QueryService> {
    let mut catalog = GraphCatalog::new();
    catalog
        .insert("g", light::graph::generators::barabasi_albert(600, 4, 2024))
        .unwrap();
    Arc::new(QueryService::new(
        catalog,
        ServeConfig {
            max_concurrent: 2,
            queue_depth: 8,
            threads_per_query: 1,
            default_timeout: Some(Duration::from_secs(60)),
            drain_grace: Duration::from_secs(10),
            idle_timeout,
            mem_watermark: None,
            compact_threshold: Some(32_768),
            engine: EngineConfig::light(),
        },
    ))
}

/// One bound daemon, over either transport, with a uniform join.
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

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "light_resilience_{tag}_{}.sock",
        std::process::id()
    ))
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

/// Send one request line and read one response line (blocking).
fn roundtrip(s: &mut UnixStream, req: &str) -> Json {
    writeln!(s, "{req}").expect("send");
    s.flush().expect("flush");
    let line = read_line(s).expect("response line before EOF");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

/// Read up to the next newline; `None` on clean EOF.
fn read_line(s: &mut UnixStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match s.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    None
                } else {
                    Some(String::from_utf8_lossy(&buf).into_owned())
                }
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return Some(String::from_utf8_lossy(&buf).into_owned());
                }
                buf.push(byte[0]);
            }
            Err(e) => panic!("read error: {e}"),
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

/// A client that stalls mid-request (classic slowloris) must be evicted
/// once the partial-line deadline passes, and the daemon must stay fully
/// healthy for well-behaved clients afterwards.
#[test]
fn stalled_partial_line_is_evicted() {
    for kind in transports() {
        let kind = *kind;
        watchdog(&format!("slowloris/{kind}"), move || {
            let svc = service(Some(Duration::from_millis(300)));
            let path = sock_path(&format!("slowloris_{kind}"));
            let server = Server::bind(kind, Arc::clone(&svc), &path);

            // Half a request, no newline, then silence.
            let mut stalled = connect(&path);
            stalled
                .write_all(b"{\"op\":\"ping\"")
                .expect("partial write");
            stalled.flush().expect("flush");
            stalled
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let start = Instant::now();
            let mut buf = [0u8; 64];
            let n = stalled
                .read(&mut buf)
                .expect("server must close, not leave us hanging");
            assert_eq!(n, 0, "{kind}: stalled conn must see EOF, got {n} bytes");
            assert!(
                start.elapsed() >= Duration::from_millis(250),
                "{kind}: evicted suspiciously early ({:?})",
                start.elapsed()
            );

            // The daemon is unharmed: a well-behaved client still works.
            let mut ok = connect(&path);
            let pong = roundtrip(&mut ok, "{\"op\":\"ping\",\"id\":\"after\"}");
            assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
            let health = roundtrip(&mut ok, "{\"op\":\"health\",\"id\":\"h\"}");
            assert_eq!(
                health.get("ready").and_then(Json::as_bool),
                Some(true),
                "{kind}: daemon must report ready after evicting a stalled client: {health:?}"
            );

            let ack = roundtrip(&mut ok, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
            assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));
            drop(ok);
            let report = drain(&svc);
            assert_eq!(report.cancelled, 0, "{kind}: idle drain cancels nothing");
            server.join().expect("clean join");
        });
    }
}

/// The drain-vs-completion race: a query already admitted when shutdown
/// arrives must still get its exact count flushed before the server
/// closes the connection — never a silent FIN, never a draining error.
#[test]
fn query_in_flight_at_shutdown_receives_its_count() {
    for kind in transports() {
        let kind = *kind;
        watchdog(&format!("drain_flush/{kind}"), move || {
            let svc = service(Some(Duration::from_secs(30)));
            let g = svc.catalog().get("g").unwrap().graph();
            let expect = run_query(&Query::P7.pattern(), &g, &EngineConfig::light()).matches;

            let path = sock_path(&format!("drainflush_{kind}"));
            let server = Server::bind(kind, Arc::clone(&svc), &path);

            let mut a = connect(&path);
            writeln!(
                a,
                "{{\"op\":\"query\",\"pattern\":\"p7\",\"id\":\"racer\"}}"
            )
            .unwrap();
            a.flush().unwrap();

            // Wait until the query is genuinely in flight, then pull the
            // plug from a second connection.
            let spin = Instant::now();
            while svc.in_flight() == 0 {
                assert!(
                    spin.elapsed() < Duration::from_secs(10),
                    "{kind}: query never became in-flight"
                );
                std::hint::spin_loop();
            }
            let mut b = connect(&path);
            let ack = roundtrip(&mut b, "{\"op\":\"shutdown\",\"id\":\"plug\"}");
            assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));

            // The in-flight query's response must arrive, complete and
            // correct, before the FIN.
            let line = read_line(&mut a)
                .unwrap_or_else(|| panic!("{kind}: in-flight query must get its response"));
            let resp = Json::parse(line.trim()).expect("valid JSON");
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "{kind}: in-flight query must complete, got {resp:?}"
            );
            assert_eq!(
                resp.get("matches").and_then(Json::as_u64),
                Some(expect),
                "{kind}: count must be exact"
            );
            assert_eq!(resp.get("id").and_then(Json::as_str), Some("racer"));
            assert!(
                read_line(&mut a).is_none(),
                "{kind}: exactly one response then EOF"
            );

            let report = drain(&svc);
            assert_eq!(
                report.cancelled, 0,
                "{kind}: the query finished; drain must cancel nothing"
            );
            server.join().expect("clean join");
        });
    }
}

/// A connection parked on a half-written request line must not block a
/// drain: the daemon abandons the partial line (no complete request was
/// ever submitted, so no response is owed) and exits cleanly.
#[test]
fn partial_line_connection_does_not_block_drain() {
    for kind in transports() {
        let kind = *kind;
        watchdog(&format!("drain_partial/{kind}"), move || {
            // Idle timeout far longer than the test: the drain itself,
            // not the slowloris sweep, must reclaim the connection.
            let svc = service(Some(Duration::from_secs(600)));
            let path = sock_path(&format!("drainpartial_{kind}"));
            let server = Server::bind(kind, Arc::clone(&svc), &path);

            let mut stalled = connect(&path);
            stalled
                .write_all(b"{\"op\":\"query\",\"pattern\":\"tri")
                .expect("partial write");
            stalled.flush().expect("flush");

            let mut b = connect(&path);
            let ack = roundtrip(&mut b, "{\"op\":\"shutdown\",\"id\":\"bye\"}");
            assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));
            drop(b);

            let report = drain(&svc);
            assert_eq!(report.cancelled, 0);
            server
                .join()
                .expect("drain must not wait on the stalled conn");

            // The stalled client sees EOF, not a response: its request
            // was never completed, so none is owed.
            stalled
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut buf = [0u8; 64];
            match stalled.read(&mut buf) {
                Ok(0) => {}
                Ok(n) => {
                    panic!("{kind}: no response owed to a half-written request, got {n} bytes")
                }
                // Server may have reset the socket on close; also fine.
                Err(_) => {}
            }
            assert!(!path.exists(), "{kind}: socket file removed on drain");
        });
    }
}
