//! `light` — command-line front end for the LIGHT subgraph enumerator.
//!
//! ```text
//! light count    --pattern P2 --dataset yt [--threads 4] [--variant light]
//! light count    --pattern 0-1,1-2,2-0 --graph edges.txt [--budget 60]
//! light plan     --pattern P4 --dataset lj
//! light generate --kind ba --n 10000 --k 4 --seed 7 --out graph.txt
//! light stats    --graph graph.txt
//! light datasets
//! ```
//!
//! Hand-rolled argument parsing — no CLI dependency, matching the
//! workspace's minimal-dependency policy.
//!
//! ## Exit codes
//!
//! `light count` distinguishes how a run ended:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | complete result |
//! | 1    | usage / load error, nothing enumerated |
//! | 3    | partial result: worker panic contained, or `--max-memory` hit |
//! | 124  | `--timeout` expired (matches `timeout(1)`) |
//! | 130  | cancelled by Ctrl-C (matches 128+SIGINT) |
//!
//! On every non-zero *enumeration* exit the partial match count is still
//! printed, with a `partial:` note on stderr, so long runs never lose work.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use light::core::{run_query_checked, EngineConfig, EngineVariant, Outcome};
use light::graph::datasets::Dataset;
use light::graph::CsrGraph;
use light::order::QueryPlan;
use light::parallel::{run_query_parallel, ParallelConfig};
use light::pattern::{PatternGraph, Query};
use light::setops::IntersectKind;

/// Exit code when `--timeout` expires (as `timeout(1)` uses).
const EXIT_TIMEOUT: u8 = 124;
/// Exit code when the run is cancelled by Ctrl-C (128 + SIGINT).
const EXIT_CANCELLED: u8 = 130;
/// Exit code for a partial result: contained worker panics or the
/// `--max-memory` watermark.
const EXIT_PARTIAL: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    // `convert` takes positional operands; everything else is pure --opts.
    if cmd == "convert" {
        return match cmd_convert(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "count" => cmd_count(&opts),
        "plan" => cmd_plan(&opts).map(|()| ExitCode::SUCCESS),
        "generate" => cmd_generate(&opts).map(|()| ExitCode::SUCCESS),
        "stats" => cmd_stats(&opts).map(|()| ExitCode::SUCCESS),
        "datasets" => cmd_datasets().map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(&opts),
        "query" => cmd_query(&opts),
        "help" | "--help" | "-h" => {
            usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try `light help`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// SIGINT → [`light::core::CancelToken`] wiring, dependency-free.
///
/// The handler only flips a relaxed `AtomicBool` through a pre-installed
/// global token — an async-signal-safe operation — and the engines notice
/// at their deadline-poll cadence, drain cleanly, and report a partial
/// count with [`Outcome::Cancelled`].
#[cfg(unix)]
mod sigint {
    use light::core::CancelToken;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();
    static SEEN: AtomicBool = AtomicBool::new(false);
    /// Eventfd to poke from the handler so an epoll loop blocked in
    /// `epoll_wait` notices the drain immediately (-1 = none registered).
    static WAKE_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);

    const SIGINT: i32 = 2;
    /// POSIX `SIG_DFL` — the default disposition, numerically 0.
    const SIG_DFL: usize = 0;

    extern "C" {
        // POSIX signal(2); the handler pointer travels as usize to avoid
        // declaring sighandler_t without libc.
        fn signal(signum: i32, handler: usize) -> usize;
        // POSIX _exit(2): async-signal-safe immediate termination.
        fn _exit(code: i32) -> !;
        // POSIX write(2): async-signal-safe; used to poke the wake fd.
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if SEEN.swap(true, Ordering::Relaxed) {
            // Second Ctrl-C: the user is done waiting for the graceful
            // drain. Restore the default disposition and hard-exit with
            // the conventional 128+SIGINT code. Both calls are
            // async-signal-safe.
            unsafe {
                signal(SIGINT, SIG_DFL);
                _exit(130);
            }
        }
        if let Some(t) = TOKEN.get() {
            t.cancel();
        }
        let fd = WAKE_FD.load(Ordering::Acquire);
        if fd >= 0 {
            // Wake a reactor blocked in epoll_wait. write(2) on an eventfd
            // is async-signal-safe; the payload is the mandatory 8-byte
            // counter increment.
            let one: u64 = 1;
            unsafe { write(fd, &one as *const u64 as *const u8, 8) };
        }
    }

    /// Register an eventfd the handler pokes after cancelling the token,
    /// so event loops blocked in `epoll_wait` react to Ctrl-C without
    /// waiting for their heartbeat timeout.
    #[allow(dead_code)] // unused on non-Linux builds (no epoll transport)
    pub fn set_wake_fd(fd: i32) {
        WAKE_FD.store(fd, Ordering::Release);
    }

    /// Install the handler (idempotent) and return the shared token.
    pub fn install() -> CancelToken {
        install_token(CancelToken::new())
    }

    /// Install the handler wired to a caller-supplied token (the serve
    /// daemon passes its drain token). First installation wins; later
    /// calls return the already-registered token.
    pub fn install_token(token: CancelToken) -> CancelToken {
        let token = TOKEN.get_or_init(|| token).clone();
        unsafe { signal(SIGINT, on_sigint as *const () as usize) };
        token
    }
}

fn usage() {
    eprintln!(
        "light — parallel subgraph enumeration (ICDE'19 LIGHT reproduction)

USAGE:
  light count    --pattern <P1..P7|triangle|a-b,c-d,..> (--dataset <name>|--graph <file>)
                 [--scale <f>] [--threads <k>] [--variant se|lm|msc|light]
                 [--kernel merge|merge-avx2|merge-avx512|hybrid|hybrid-avx2|hybrid-avx512]
                 [--budget <secs>] [--timeout <secs>] [--max-memory <bytes[K|M|G]>]
                 [--delta <k>] [--no-aux-cache] [--aux-threshold <f>]
                 [--no-mmap] [--profile]

  count exits 0 on a complete run, 124 on --timeout, 130 on Ctrl-C, and
  3 on a partial result (contained worker panic or --max-memory hit);
  partial counts go to stderr. --timeout is an alias of --budget with
  the timeout(1)-style exit code. --max-memory bounds resident owned
  bytes per run — the graph's heap CSR arrays (0 for an mmap-backed v2
  snapshot) plus candidate buffers, the latter split evenly across
  --threads workers. --no-mmap forces v2 snapshots onto the heap.

  --profile prints a JSON profile to stdout (per-slot COMP/MAT timings,
  candidate histograms, setops tier counters, auxiliary-cache hit rates,
  per-worker scheduler stats) and moves the human-readable summary to
  stderr. Requires the default `metrics` feature; without it the document
  is {{\"enabled\": false}}.

  --delta sets the Hybrid kernel's galloping threshold (paper: 50).
  --no-aux-cache disables the auxiliary candidate cache (DESIGN.md §11);
  --aux-threshold tunes its planner benefit threshold (default 1.5).
  light plan     --pattern <..> (--dataset <name>|--graph <file>) [--scale <f>]
  light generate --kind ba|er|rmat|complete|grid --n <n> [--k <k>] [--m <m>]
                 [--seed <s>] --out <file>
  light stats    --graph <file>
  light datasets

  light convert  <in> <out> [--to snapshot|snapshot-v2|edge-list]

  Converts between text edge lists and binary LIGHTCSR snapshots (input
  format auto-detected by magic bytes; output defaults to snapshot).
  Snapshots load ~10-100x faster than text and are written degree-ordered,
  so `light count --graph g.bin` and the serve catalog skip the relabel.
  snapshot-v2 page-aligns the CSR arrays so count/serve open the file
  zero-copy via mmap: no decode pass, resident memory tracks what the
  query touches instead of 2x the graph size. Converting a file onto
  itself is refused; overwriting another existing file warns.

  light serve    --graphs <name=path,name=dataset:<ds>[@scale],..>
                 [--socket <path>] [--transport epoll|threads]
                 [--max-concurrent <k>] [--queue-depth <k>]
                 [--threads <per-query>] [--timeout <secs>|none]
                 [--drain-grace <secs>] [--idle-timeout <secs>|none]
                 [--mem-watermark <MiB>] [--no-mmap]
                 [--compact-threshold <edges>]
                 [engine options as for count]

  Resident daemon: loads the catalog once, answers newline-delimited JSON
  requests on stdin/stdout and (with --socket) a Unix domain socket. A
  single --graph <file> or --dataset <name> also works as a one-entry
  catalog. Ctrl-C or an {{\"op\":\"shutdown\"}} request drains gracefully
  (running queries finish, stragglers are cancelled after --drain-grace);
  a second Ctrl-C hard-exits 130. See docs/serve.md for the protocol.
  --transport picks the socket I/O model: `epoll` (default on Linux) runs
  one reactor thread multiplexing every connection; `threads` spawns one
  handler thread per connection. --idle-timeout (default 30) hangs up on
  connections stalled mid-request-line; --mem-watermark freezes admission
  queue growth while resident memory exceeds it (queued low-priority work
  is shed to admit higher-priority arrivals). Each query runs on its own,
  through the plan cache and the parallel engine, as `light count` does.
  Graphs mutate in place via the update op (see light query below);
  --compact-threshold (default 32768, 0 = never) is the pending-overlay
  size at which an update also folds the delta overlay into a fresh base
  snapshot.

  light query    --socket <path> [--pattern <..>] [--graph <name>]
                 [--timeout-ms <ms>] [--threads <k>] [--variant ..]
                 [--op query|update|subscribe|unsubscribe|stats|catalog|
                      health|ping|shutdown]
                 [--inserts <a-b,..>] [--deletes <a-b,..>] [--compact]
                 [--sub <id>]
                 [--id <s>] [--priority <0-9>] [--profile]
                 [--retries <n>] [--backoff-base-ms <ms>]
                 [--concurrency <n>] [--repeat <k>]

  One-shot client for a serve daemon. Prints the JSON response line and
  maps it to count's exit codes (0 ok, 3/124/130 partial, 2 overloaded,
  1 error). --retries re-sends idempotent failures only (connection
  refused, overloaded, draining) with jittered exponential backoff from
  --backoff-base-ms (default 100), honoring the daemon's retry_after_ms
  hint; partial results are never retried. With --concurrency/--repeat it
  becomes a closed-loop load driver: n threads each send k copies of the
  request over private connections, then a latency/QPS summary replaces
  the response lines. --op update mutates a served graph (--inserts /
  --deletes take dashed edge lists, --compact forces an overlay fold);
  --op subscribe registers --pattern for incremental count maintenance,
  --op unsubscribe --sub <id> removes it (docs/serve.md)."
    );
}

type Opts = HashMap<String, String>;

/// Options that are boolean flags: present or absent, no value operand.
const FLAG_OPTS: &[&str] = &["profile", "no-aux-cache", "no-mmap", "compact"];

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, got {key:?}"));
        };
        if FLAG_OPTS.contains(&name) {
            out.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn get<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required option --{key}"))
}

fn parse_pattern(s: &str) -> Result<PatternGraph, String> {
    if let Some(q) = Query::parse(s) {
        Ok(q.pattern())
    } else {
        PatternGraph::parse(s)
    }
}

fn load_graph(opts: &Opts) -> Result<CsrGraph, String> {
    if let Some(name) = opts.get("dataset") {
        let d = Dataset::ALL
            .into_iter()
            .find(|d| d.name() == name)
            .ok_or_else(|| format!("unknown dataset {name:?}; see `light datasets`"))?;
        let scale: f64 = opts
            .get("scale")
            .map(|s| s.parse().map_err(|e| format!("bad --scale: {e}")))
            .transpose()?
            .unwrap_or(0.1);
        eprintln!("building {} at scale {scale}...", d.full_name());
        let g = d.build_scaled(scale);
        debug_assert!(
            light::graph::ordered::is_degree_ordered(&g),
            "dataset {} violates the degree-ordered ID invariant symmetry breaking relies on",
            d.name()
        );
        Ok(g)
    } else if let Some(path) = opts.get("graph") {
        // Format auto-detection by a small magic-byte sniff: LIGHTCSR v2
        // snapshots open zero-copy through mmap (unless --no-mmap), v1
        // snapshots decode onto the heap, and anything else parses as a
        // SNAP-style text edge list.
        let (raw, format) = light::graph::io::open_any(path, !opts.contains_key("no-mmap"))
            .map_err(|e| format!("cannot load {path}: {e}"))?;
        // Relabel for symmetry breaking (documented CLI behavior).
        // Snapshots written by `light convert` are already ordered, so the
        // relabel is a verify-only pass for them.
        let g = if light::graph::ordered::is_degree_ordered(&raw) {
            raw
        } else {
            if format == light::graph::io::GraphFormat::Snapshot {
                eprintln!(
                    "warning: snapshot {path} is not degree-ordered; relabeling \
                     (regenerate it with `light convert` to skip this)"
                );
            }
            light::graph::ordered::into_degree_ordered(&raw).0
        };
        debug_assert!(
            light::graph::ordered::is_degree_ordered(&g),
            "into_degree_ordered produced a non-degree-ordered graph"
        );
        Ok(g)
    } else {
        Err("need --dataset <name> or --graph <file>".into())
    }
}

fn engine_config(opts: &Opts) -> Result<EngineConfig, String> {
    let variant = match opts.get("variant").map(|s| s.as_str()) {
        None | Some("light") => EngineVariant::Light,
        Some("se") => EngineVariant::Se,
        Some("lm") => EngineVariant::Lm,
        Some("msc") => EngineVariant::Msc,
        Some(v) => return Err(format!("unknown variant {v:?}")),
    };
    let mut cfg = EngineConfig::with_variant(variant);
    match opts.get("kernel").map(|s| s.as_str()) {
        None => {}
        Some("merge") => cfg = cfg.intersect(IntersectKind::MergeScalar),
        Some("merge-avx2") => cfg = cfg.intersect(IntersectKind::MergeAvx2),
        Some("hybrid") => cfg = cfg.intersect(IntersectKind::HybridScalar),
        Some("hybrid-avx2") => cfg = cfg.intersect(IntersectKind::HybridAvx2),
        Some("merge-avx512") => cfg = cfg.intersect(IntersectKind::MergeAvx512),
        Some("hybrid-avx512") => cfg = cfg.intersect(IntersectKind::HybridAvx512),
        Some(k) => return Err(format!("unknown kernel {k:?}")),
    }
    if let Some(d) = opts.get("delta") {
        let delta: usize = d.parse().map_err(|e| format!("bad --delta: {e}"))?;
        if delta == 0 {
            return Err("--delta must be at least 1".into());
        }
        cfg = cfg.delta(delta);
    }
    if opts.contains_key("no-aux-cache") {
        cfg = cfg.aux_cache(false);
    }
    if let Some(t) = opts.get("aux-threshold") {
        let thr: f64 = t.parse().map_err(|e| format!("bad --aux-threshold: {e}"))?;
        if !thr.is_finite() || thr < 0.0 {
            return Err("--aux-threshold must be a finite non-negative number".into());
        }
        cfg = cfg.aux_threshold(thr);
    }
    if let Some(b) = opts.get("budget") {
        let secs: f64 = b.parse().map_err(|e| format!("bad --budget: {e}"))?;
        cfg = cfg.budget(Duration::from_secs_f64(secs));
    }
    if let Some(t) = opts.get("timeout") {
        let secs: f64 = t.parse().map_err(|e| format!("bad --timeout: {e}"))?;
        cfg = cfg.budget(Duration::from_secs_f64(secs));
    }
    Ok(cfg)
}

/// Parse a memory size: plain bytes, or a `K`/`M`/`G` suffix (binary,
/// case-insensitive, fractional values allowed — `1.5G`).
fn parse_mem(s: &str) -> Result<usize, String> {
    let (num, mult) = match s.as_bytes().last() {
        Some(b'K') | Some(b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M') | Some(b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G') | Some(b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let v: f64 = num
        .parse()
        .map_err(|e| format!("bad memory size {s:?}: {e}"))?;
    if !v.is_finite() || v <= 0.0 || v * mult as f64 > usize::MAX as f64 {
        return Err(format!("bad memory size {s:?}: out of range"));
    }
    Ok((v * mult as f64) as usize)
}

fn cmd_count(opts: &Opts) -> Result<ExitCode, String> {
    let pattern = parse_pattern(get(opts, "pattern")?)?;
    let g = load_graph(opts)?;
    let mut cfg = engine_config(opts)?;
    let threads: usize = opts
        .get("threads")
        .map(|s| s.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()?
        .unwrap_or(1);
    if let Some(m) = opts.get("max-memory") {
        // The budget covers resident owned bytes: the graph's heap CSR
        // arrays plus candidate buffers. An mmap-backed graph contributes
        // 0 — its pages live in the (evictable) page cache, which is the
        // whole point of `--to snapshot-v2`.
        let bytes = parse_mem(m)?;
        let graph_bytes = g.resident_bytes();
        let remaining = bytes
            .checked_sub(graph_bytes)
            .filter(|&r| r > 0)
            .ok_or_else(|| {
                format!(
                    "--max-memory {m}: graph alone holds {graph_bytes} resident bytes \
                 ({} backend); convert it to a v2 snapshot (`light convert --to \
                 snapshot-v2`) to map it out of the budget",
                    g.backend().name()
                )
            })?;
        // The watermark is enforced per worker pool; split what is left
        // evenly across workers.
        cfg = cfg.max_memory((remaining / threads.max(1)).max(1));
    }
    // Ctrl-C flips a shared token; the engines poll it at their deadline
    // cadence and drain with a partial count instead of dying mid-run.
    #[cfg(unix)]
    {
        cfg = cfg.cancel_token(sigint::install());
    }
    let profile = opts.contains_key("profile");
    let recorder = light::metrics::Recorder::new();
    if profile {
        cfg = cfg.metrics(recorder.clone());
        if !light::metrics::ENABLED {
            eprintln!("warning: built without the `metrics` feature; --profile will be empty");
        }
    }

    // --profile always routes through the parallel driver (even for one
    // thread) so the scheduler/worker section of the profile is populated.
    let (report, failures) = if threads > 1 || profile {
        light::core::validate_query(&pattern, g.num_vertices()).map_err(|e| e.to_string())?;
        let pr = run_query_parallel(&pattern, &g, &cfg, &ParallelConfig::new(threads));
        (pr.report, pr.failures)
    } else {
        let report = run_query_checked(&pattern, &g, &cfg).map_err(|e| e.to_string())?;
        (report, Vec::new())
    };

    // With --profile, stdout carries exactly one JSON document; the
    // human-readable summary moves to stderr so pipelines can parse.
    let summary = |line: String| {
        if profile {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    summary(format!("matches:            {}", report.matches));
    summary(format!("outcome:            {:?}", report.outcome));
    summary(format!("elapsed:            {:?}", report.elapsed));
    summary(format!(
        "set intersections:  {}",
        report.stats.intersect.total
    ));
    summary(format!(
        "galloping share:    {:.1}%",
        report.stats.intersect.galloping_pct()
    ));
    summary(format!(
        "candidate memory:   {} bytes peak",
        report.stats.peak_candidate_bytes
    ));
    let aux = &report.stats.aux;
    if aux.hits + aux.misses > 0 {
        summary(format!(
            "aux cache:          {} hits / {} misses ({:.1}% hit rate), {} bytes peak",
            aux.hits,
            aux.misses,
            100.0 * aux.hits as f64 / (aux.hits + aux.misses) as f64,
            aux.bytes_peak
        ));
    }
    if profile {
        println!("{}", recorder.to_json());
    }

    // Map how the run ended to a distinct exit code; a partial count is
    // never silently presented as complete.
    for f in &failures {
        eprintln!("worker failure: {f}");
    }
    let code = match report.outcome {
        Outcome::OutOfTime => {
            eprintln!(
                "partial: timed out after {:?}; counted {} matches",
                report.elapsed, report.matches
            );
            ExitCode::from(EXIT_TIMEOUT)
        }
        Outcome::Cancelled => {
            eprintln!("partial: cancelled; counted {} matches", report.matches);
            ExitCode::from(EXIT_CANCELLED)
        }
        Outcome::MemoryExceeded => {
            eprintln!(
                "partial: --max-memory watermark hit; counted {} matches",
                report.matches
            );
            ExitCode::from(EXIT_PARTIAL)
        }
        _ if !failures.is_empty() => {
            eprintln!(
                "partial: {} worker panic(s) contained; counted {} matches over surviving subtrees",
                failures.len(),
                report.matches
            );
            ExitCode::from(EXIT_PARTIAL)
        }
        _ => ExitCode::SUCCESS,
    };
    Ok(code)
}

fn cmd_plan(opts: &Opts) -> Result<(), String> {
    let pattern = parse_pattern(get(opts, "pattern")?)?;
    let g = load_graph(opts)?;
    light::core::validate_query(&pattern, g.num_vertices()).map_err(|e| e.to_string())?;
    let plan = QueryPlan::optimized(&pattern, &g);
    print!("{}", plan.explain());
    Ok(())
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let kind = get(opts, "kind")?;
    let out = get(opts, "out")?;
    let n: usize = get(opts, "n")?
        .parse()
        .map_err(|e| format!("bad --n: {e}"))?;
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let k_opt = opts
        .get("k")
        .map(|s| s.parse::<usize>().map_err(|e| format!("bad --k: {e}")))
        .transpose()?;
    let m_opt = opts
        .get("m")
        .map(|s| s.parse::<usize>().map_err(|e| format!("bad --m: {e}")))
        .transpose()?;

    let g = match kind {
        "ba" => light::graph::generators::barabasi_albert(n, k_opt.unwrap_or(3), seed),
        "er" => light::graph::generators::erdos_renyi(n, m_opt.unwrap_or(3 * n), seed),
        "rmat" => {
            let scale = (n as f64).log2().ceil() as u32;
            light::graph::generators::rmat(
                scale,
                m_opt.unwrap_or(8 * n),
                (0.5, 0.2, 0.2, 0.1),
                seed,
            )
        }
        "complete" => light::graph::generators::complete(n),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            light::graph::generators::grid(side, side)
        }
        other => return Err(format!("unknown generator {other:?}")),
    };
    let f = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    light::graph::io::write_edge_list(&g, f).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} vertices, {} edges",
        out,
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let g = load_graph(opts)?;
    let s = light::graph::stats::compute_stats(&g);
    println!("vertices:        {}", s.num_vertices);
    println!("edges:           {}", s.num_edges);
    println!("max degree:      {}", s.max_degree);
    println!("avg degree:      {:.2}", s.avg_degree);
    println!("E[d^2]:          {:.2}", s.degree_second_moment);
    println!("wedges:          {}", s.wedges);
    println!("triangles:       {}", s.triangles);
    println!("clustering:      {:.5}", s.clustering);
    println!("CSR memory:      {} bytes", g.memory_bytes());
    println!("backend:         {}", g.backend().name());
    println!("resident:        {} bytes", g.resident_bytes());
    Ok(())
}

/// `light convert <in> <out> [--to snapshot|edge-list]` — re-encode a
/// graph file. Input format is auto-detected by magic bytes; the output
/// defaults to a binary `LIGHTCSR` snapshot. The graph is normalized to
/// the degree-ordered ID space on the way through, so converted snapshots
/// load straight into `light count` / `light serve` with no relabel pass.
fn cmd_convert(args: &[String]) -> Result<(), String> {
    use light::graph::io::GraphFormat;

    /// Output encodings `--to` accepts (one more than [`GraphFormat`]
    /// distinguishes on input, where both snapshot versions auto-detect).
    #[derive(PartialEq, Clone, Copy)]
    enum OutFormat {
        SnapshotV1,
        SnapshotV2,
        EdgeList,
    }
    impl OutFormat {
        fn name(self) -> &'static str {
            match self {
                OutFormat::SnapshotV1 => "snapshot",
                OutFormat::SnapshotV2 => "snapshot-v2",
                OutFormat::EdgeList => "edge-list",
            }
        }
    }

    let mut positional: Vec<&String> = Vec::new();
    let mut to: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--to" {
            let v = it.next().ok_or("--to needs a value")?;
            to = Some(v.as_str());
        } else if a.starts_with("--") {
            return Err(format!("unknown convert option {a:?}"));
        } else {
            positional.push(a);
        }
    }
    let [input, output] = positional[..] else {
        return Err("usage: light convert <in> <out> [--to snapshot|snapshot-v2|edge-list]".into());
    };
    let out_format = match to {
        None | Some("snapshot") => OutFormat::SnapshotV1,
        Some("snapshot-v2") => OutFormat::SnapshotV2,
        Some("edge-list") => OutFormat::EdgeList,
        Some(other) => return Err(format!("unknown --to format {other:?}")),
    };

    // Refuse to convert a file onto itself: `load_any` has already been
    // replaced by a streaming reader, but the *write* would still truncate
    // the source before the graph is fully decoded. Resolve both paths
    // (output via its parent, since it may not exist yet) and compare.
    let in_canon = std::fs::canonicalize(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let out_path = std::path::Path::new(output);
    let out_parent = match out_path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    if let (Ok(parent), Some(name)) = (std::fs::canonicalize(out_parent), out_path.file_name()) {
        if parent.join(name) == in_canon {
            return Err(format!(
                "output {output} is the input file; converting a graph onto \
                 itself would clobber the source (write to a new path)"
            ));
        }
    }
    if out_path.exists() {
        eprintln!("warning: overwriting existing file {output}");
    }

    let t0 = std::time::Instant::now();
    let (raw, in_format) =
        light::graph::io::load_any(input).map_err(|e| format!("cannot load {input}: {e}"))?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let g = if light::graph::ordered::is_degree_ordered(&raw) {
        raw
    } else {
        light::graph::ordered::into_degree_ordered(&raw).0
    };

    let t1 = std::time::Instant::now();
    match out_format {
        OutFormat::SnapshotV1 => light::graph::io::save_snapshot(&g, output)
            .map_err(|e| format!("cannot write {output}: {e}"))?,
        OutFormat::SnapshotV2 => light::graph::io::save_snapshot_v2(&g, output)
            .map_err(|e| format!("cannot write {output}: {e}"))?,
        OutFormat::EdgeList => {
            let f = std::fs::File::create(output)
                .map_err(|e| format!("cannot create {output}: {e}"))?;
            light::graph::io::write_edge_list(&g, f)
                .map_err(|e| format!("cannot write {output}: {e}"))?;
        }
    }
    let write_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "converted {input} ({}) -> {output} ({}): {} vertices, {} edges",
        in_format.name(),
        out_format.name(),
        g.num_vertices(),
        g.num_edges()
    );
    println!("load: {load_ms:.1} ms, write: {write_ms:.1} ms");
    if in_format == GraphFormat::EdgeList && out_format != OutFormat::EdgeList {
        let t2 = std::time::Instant::now();
        let _ = light::graph::io::load_any(output)
            .map_err(|e| format!("verify reload of {output} failed: {e}"))?;
        let reload_ms = t2.elapsed().as_secs_f64() * 1e3;
        println!(
            "snapshot reload: {reload_ms:.1} ms ({:.1}x faster than the text parse)",
            load_ms / reload_ms.max(0.001)
        );
    }
    Ok(())
}

/// `light serve` — the resident query daemon (DESIGN.md §12, docs/serve.md).
fn cmd_serve(opts: &Opts) -> Result<ExitCode, String> {
    use light::serve::{drain, serve_stdio, GraphCatalog, QueryService, ServeConfig, SocketServer};
    use std::sync::Arc;

    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        opts.get(key)
            .map(|s| s.parse().map_err(|e| format!("bad --{key}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let threads_per_query = parse_usize("threads", 1)?.max(1);

    // Catalog: --graphs spec, or a single --graph/--dataset entry named
    // after its source (same convenience flags count uses).
    let mut catalog = GraphCatalog::new();
    catalog.set_prefer_mmap(!opts.contains_key("no-mmap"));
    catalog.set_load_threads(threads_per_query);
    if let Some(spec) = opts.get("graphs") {
        catalog.load_spec(spec)?;
    } else if let Some(path) = opts.get("graph") {
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("default");
        catalog.load_entry(name, path)?;
    } else if let Some(ds) = opts.get("dataset") {
        let scale = opts.get("scale").map(|s| s.as_str()).unwrap_or("0.1");
        catalog.load_entry(ds, &format!("dataset:{ds}@{scale}"))?;
    } else {
        return Err("serve needs --graphs <spec>, --graph <file>, or --dataset <name>".into());
    }

    let default_timeout = match opts.get("timeout").map(|s| s.as_str()) {
        None => Some(Duration::from_secs(60)),
        Some("none") => None,
        Some(t) => {
            let secs: f64 = t.parse().map_err(|e| format!("bad --timeout: {e}"))?;
            Some(Duration::from_secs_f64(secs))
        }
    };
    let drain_grace = opts
        .get("drain-grace")
        .map(|s| {
            s.parse::<f64>()
                .map_err(|e| format!("bad --drain-grace: {e}"))
        })
        .transpose()?
        .map(Duration::from_secs_f64)
        .unwrap_or(Duration::from_secs(10));
    let idle_timeout = match opts.get("idle-timeout").map(|s| s.as_str()) {
        None => Some(Duration::from_secs(30)),
        Some("none") => None,
        Some(t) => {
            let secs: f64 = t.parse().map_err(|e| format!("bad --idle-timeout: {e}"))?;
            Some(Duration::from_secs_f64(secs))
        }
    };
    let mem_watermark = opts
        .get("mem-watermark")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|e| format!("bad --mem-watermark: {e}"))
        })
        .transpose()?
        .map(|mib| mib * 1024 * 1024);
    let cfg = ServeConfig {
        max_concurrent: parse_usize("max-concurrent", 2)?.max(1),
        queue_depth: parse_usize("queue-depth", 4)?,
        threads_per_query,
        default_timeout,
        drain_grace,
        idle_timeout,
        mem_watermark,
        // --compact-threshold 0 disables automatic overlay compaction
        // (explicit {"op":"update","compact":true} still works).
        compact_threshold: match parse_usize("compact-threshold", 32_768)? {
            0 => None,
            t => Some(t),
        },
        engine: engine_config(opts)?,
    };

    let service = Arc::new(QueryService::new(catalog, cfg));
    for e in service.catalog().entries() {
        let stats = e.view().stats;
        eprintln!(
            "loaded {:?} from {} ({}, {} backend): {} vertices, {} edges, {:.1} ms",
            e.name,
            e.source,
            e.format,
            e.backend(),
            stats.num_vertices,
            stats.num_edges,
            e.load_ms
        );
    }

    // First Ctrl-C starts the graceful drain; a second hard-exits 130.
    #[cfg(unix)]
    sigint::install_token(service.shutdown_token());

    // Socket transport: the epoll reactor (one I/O thread multiplexing
    // every connection; Linux default) or thread-per-connection
    // (`--transport threads`, the only choice off Linux).
    enum Server {
        Threads(SocketServer),
        #[cfg(target_os = "linux")]
        Epoll(light::serve::ReactorServer),
    }
    impl Server {
        fn path(&self) -> &std::path::Path {
            match self {
                Server::Threads(s) => s.path(),
                #[cfg(target_os = "linux")]
                Server::Epoll(s) => s.path(),
            }
        }
        fn join(self) -> std::io::Result<()> {
            match self {
                Server::Threads(s) => s.join(),
                #[cfg(target_os = "linux")]
                Server::Epoll(s) => s.join(),
            }
        }
    }
    let default_transport = if cfg!(target_os = "linux") {
        "epoll"
    } else {
        "threads"
    };
    let transport = opts
        .get("transport")
        .map(|s| s.as_str())
        .unwrap_or(default_transport);

    let socket = match opts.get("socket") {
        None => None,
        Some(p) => Some(match transport {
            "threads" => SocketServer::bind(Arc::clone(&service), p.as_str())
                .map(Server::Threads)
                .map_err(|e| format!("cannot bind socket: {e}"))?,
            "epoll" => {
                #[cfg(target_os = "linux")]
                {
                    let srv = light::serve::ReactorServer::bind(Arc::clone(&service), p.as_str())
                        .map_err(|e| format!("cannot bind socket: {e}"))?;
                    // Ctrl-C pokes the reactor's eventfd so the drain is
                    // noticed mid-epoll_wait, not at the next heartbeat.
                    sigint::set_wake_fd(srv.wake_fd());
                    Server::Epoll(srv)
                }
                #[cfg(not(target_os = "linux"))]
                return Err("--transport epoll needs Linux; use --transport threads".into());
            }
            other => return Err(format!("unknown --transport {other:?} (epoll|threads)")),
        }),
    };

    if let Some(srv) = socket {
        eprintln!(
            "serving on {} via {transport} (and stdio); Ctrl-C to drain",
            srv.path().display()
        );
        // stdio serves concurrently; its EOF does NOT drain a socket
        // daemon (it is routinely started with stdin closed).
        let stdio_svc = Arc::clone(&service);
        std::thread::Builder::new()
            .name("light-serve-stdio".into())
            .spawn(move || {
                let _ = serve_stdio(&stdio_svc);
            })
            .map_err(|e| format!("cannot spawn stdio handler: {e}"))?;
        let token = service.shutdown_token();
        while !token.is_cancelled() {
            std::thread::sleep(Duration::from_millis(100));
        }
        // A shutdown op arriving over the socket cancels the token from
        // an executor thread; make sure the reactor itself is awake to
        // observe the drain flag.
        #[cfg(target_os = "linux")]
        if let Server::Epoll(s) = &srv {
            s.wake();
        }
        let report = drain(&service);
        srv.join().map_err(|e| format!("socket listener: {e}"))?;
        eprintln!(
            "drained: {} in flight at start, {} cancelled, {:.1} ms",
            report.in_flight_at_start,
            report.cancelled,
            report.elapsed.as_secs_f64() * 1e3
        );
    } else {
        eprintln!("serving on stdio (EOF or Ctrl-C drains)");
        let _ = serve_stdio(&service);
        // stdin EOF on a stdio-only daemon is a drain request.
        service.shutdown_token().cancel();
        let report = drain(&service);
        eprintln!(
            "drained: {} in flight at start, {} cancelled, {:.1} ms",
            report.in_flight_at_start,
            report.cancelled,
            report.elapsed.as_secs_f64() * 1e3
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `light query` — one-shot client for a serve daemon's Unix socket.
/// Prints the response line to stdout and maps it onto count's exit-code
/// taxonomy (0 ok, 3/124/130 by partial outcome, 2 overloaded, 1 error).
fn cmd_query(opts: &Opts) -> Result<ExitCode, String> {
    use light::serve::json::{Json, ObjWriter};
    use std::io::{BufRead, BufReader, Write};

    let socket = get(opts, "socket")?;
    let op = opts.get("op").map(|s| s.as_str()).unwrap_or("query");
    let mut w = ObjWriter::new();
    w.str("op", op);
    if let Some(id) = opts.get("id") {
        w.str("id", id);
    }
    match op {
        "query" => {
            w.str("pattern", get(opts, "pattern")?);
            if let Some(g) = opts.get("graph") {
                w.str("graph", g);
            }
            if let Some(t) = opts.get("timeout-ms") {
                let ms: u64 = t.parse().map_err(|e| format!("bad --timeout-ms: {e}"))?;
                w.u64("timeout_ms", ms);
            }
            if let Some(t) = opts.get("threads") {
                let k: u64 = t.parse().map_err(|e| format!("bad --threads: {e}"))?;
                w.u64("threads", k);
            }
            if let Some(v) = opts.get("variant") {
                w.str("variant", v);
            }
            if opts.contains_key("profile") {
                w.bool("profile", true);
            }
            if let Some(p) = opts.get("priority") {
                let pr: u64 = p.parse().map_err(|e| format!("bad --priority: {e}"))?;
                if pr > 9 {
                    return Err(format!("bad --priority: must be 0..=9, got {pr}"));
                }
                w.u64("priority", pr);
            }
        }
        "stats" => {
            if opts.contains_key("profile") {
                // --profile on stats asks for the engine-side document.
                w.bool("engine", true);
            }
        }
        "update" => {
            if let Some(g) = opts.get("graph") {
                w.str("graph", g);
            }
            // `--inserts "0-1,2-5"` / `--deletes ...`: the same dashed
            // edge-list spelling `--pattern` uses, rendered as [[a,b],..].
            let edges = |spec: &str| -> Result<String, String> {
                let mut pairs = Vec::new();
                for part in spec.split(',').filter(|p| !p.is_empty()) {
                    let (a, b) = part
                        .split_once('-')
                        .ok_or_else(|| format!("bad edge {part:?}: expected a-b"))?;
                    let a: u32 = a
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad edge {part:?}: {e}"))?;
                    let b: u32 = b
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad edge {part:?}: {e}"))?;
                    pairs.push(format!("[{a},{b}]"));
                }
                Ok(format!("[{}]", pairs.join(",")))
            };
            if let Some(s) = opts.get("inserts") {
                w.raw("inserts", &edges(s)?);
            }
            if let Some(s) = opts.get("deletes") {
                w.raw("deletes", &edges(s)?);
            }
            if opts.contains_key("compact") {
                w.bool("compact", true);
            }
        }
        "subscribe" => {
            w.str("pattern", get(opts, "pattern")?);
            if let Some(g) = opts.get("graph") {
                w.str("graph", g);
            }
        }
        "unsubscribe" => {
            let sub: u64 = get(opts, "sub")?
                .parse()
                .map_err(|e| format!("bad --sub: {e}"))?;
            w.u64("sub", sub);
        }
        "catalog" | "health" | "ping" | "shutdown" => {}
        other => return Err(format!("unknown --op {other:?}")),
    }
    let request = w.finish();

    let retries: u32 = opts
        .get("retries")
        .map(|s| s.parse().map_err(|e| format!("bad --retries: {e}")))
        .transpose()?
        .unwrap_or(0);
    let backoff_base_ms: u64 = opts
        .get("backoff-base-ms")
        .map(|s| s.parse().map_err(|e| format!("bad --backoff-base-ms: {e}")))
        .transpose()?
        .unwrap_or(100);

    // Load mode: N client threads x K requests each over private
    // connections, with a latency/QPS summary instead of response lines.
    let concurrency: usize = opts
        .get("concurrency")
        .map(|s| s.parse().map_err(|e| format!("bad --concurrency: {e}")))
        .transpose()?
        .unwrap_or(1);
    let repeat: usize = opts
        .get("repeat")
        .map(|s| s.parse().map_err(|e| format!("bad --repeat: {e}")))
        .transpose()?
        .unwrap_or(1);
    if concurrency == 0 || repeat == 0 {
        return Err("--concurrency and --repeat must be at least 1".into());
    }
    if concurrency > 1 || repeat > 1 {
        if !matches!(op, "query" | "ping" | "stats" | "health") {
            return Err(format!(
                "--concurrency/--repeat need an idempotent op (query|ping|stats|health), not {op:?}"
            ));
        }
        return query_load(socket, &request, concurrency, repeat);
    }

    // Retry loop. Only failures that provably did not execute anything —
    // connection refused, a typed `overloaded` rejection, a typed
    // `draining` refusal — are retried, with jittered exponential backoff
    // that honors the daemon's `retry_after_ms` hint. Partial results
    // (timeout/cancelled) carry real counts and are never retried.
    let mut attempt: u32 = 0;
    let line: String = loop {
        let connect_err = match std::os::unix::net::UnixStream::connect(socket) {
            Ok(stream) => {
                let mut writer = stream
                    .try_clone()
                    .map_err(|e| format!("cannot clone socket stream: {e}"))?;
                writer
                    .write_all(request.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .map_err(|e| format!("cannot send request: {e}"))?;
                let mut line = String::new();
                BufReader::new(stream)
                    .read_line(&mut line)
                    .map_err(|e| format!("cannot read response: {e}"))?;
                let line = line.trim().to_string();
                if line.is_empty() {
                    return Err("daemon closed the connection without a response".into());
                }
                let doc = Json::parse(&line).map_err(|e| format!("malformed response: {e}"))?;
                let status = doc.get("status").and_then(Json::as_str).unwrap_or("error");
                let code = doc.get("code").and_then(Json::as_str).unwrap_or("");
                let retryable = status == "overloaded" || (status == "error" && code == "draining");
                if !retryable || attempt >= retries {
                    break line;
                }
                let hint = doc.get("retry_after_ms").and_then(Json::as_u64);
                let delay = backoff_delay(attempt, backoff_base_ms, hint);
                eprintln!(
                    "query: {status}; retrying in {} ms (attempt {}/{retries})",
                    delay.as_millis(),
                    attempt + 1
                );
                std::thread::sleep(delay);
                attempt += 1;
                continue;
            }
            Err(e) => format!("cannot connect to {socket}: {e}"),
        };
        if attempt >= retries {
            return Err(connect_err);
        }
        let delay = backoff_delay(attempt, backoff_base_ms, None);
        eprintln!(
            "query: {connect_err}; retrying in {} ms (attempt {}/{retries})",
            delay.as_millis(),
            attempt + 1
        );
        std::thread::sleep(delay);
        attempt += 1;
    };
    println!("{line}");

    let doc = Json::parse(&line).map_err(|e| format!("malformed response: {e}"))?;
    let status = doc.get("status").and_then(Json::as_str).unwrap_or("error");
    let code = match status {
        "ok" => ExitCode::SUCCESS,
        "overloaded" => ExitCode::from(2),
        "partial" => match doc.get("outcome").and_then(Json::as_str) {
            Some("timeout") => ExitCode::from(EXIT_TIMEOUT),
            Some("cancelled") => ExitCode::from(EXIT_CANCELLED),
            _ => ExitCode::from(EXIT_PARTIAL),
        },
        _ => ExitCode::FAILURE,
    };
    Ok(code)
}

/// Backoff before retry `attempt` (0-based): exponential from `base_ms`,
/// floored at the daemon's `retry_after_ms` hint when one arrived, with
/// full jitter over the upper half of the window so a burst of rejected
/// clients does not reconverge on the daemon in lockstep. Capped at 30 s.
fn backoff_delay(attempt: u32, base_ms: u64, server_hint_ms: Option<u64>) -> Duration {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(10));
    let floor = exp.max(server_hint_ms.unwrap_or(0)).max(1);
    // Clock-seeded jitter: no RNG dependency, and distinct clients
    // observing the same rejection still spread out.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0x9e3779b9);
    let jittered = floor / 2 + nanos % (floor / 2 + 1);
    Duration::from_millis(jittered).min(Duration::from_secs(30))
}

/// Closed-loop client load: `concurrency` threads each issue `repeat`
/// copies of `request` back-to-back over a private connection. Prints a
/// latency/QPS summary; exit 0 only if every response had status "ok".
fn query_load(
    socket: &str,
    request: &str,
    concurrency: usize,
    repeat: usize,
) -> Result<ExitCode, String> {
    use light::serve::json::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

    let started = Instant::now();
    let mut workers = Vec::with_capacity(concurrency);
    for c in 0..concurrency {
        let socket = socket.to_string();
        let request = request.to_string();
        let h = std::thread::Builder::new()
            .name(format!("light-query-load{c}"))
            .spawn(move || -> Result<(Vec<Duration>, usize), String> {
                let stream = std::os::unix::net::UnixStream::connect(&socket)
                    .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
                let mut writer = stream
                    .try_clone()
                    .map_err(|e| format!("cannot clone socket stream: {e}"))?;
                let mut reader = BufReader::new(stream);
                let mut latencies = Vec::with_capacity(repeat);
                let mut errors = 0usize;
                let mut line = String::new();
                for _ in 0..repeat {
                    let t0 = Instant::now();
                    writer
                        .write_all(request.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .and_then(|()| writer.flush())
                        .map_err(|e| format!("cannot send request: {e}"))?;
                    line.clear();
                    reader
                        .read_line(&mut line)
                        .map_err(|e| format!("cannot read response: {e}"))?;
                    if line.trim().is_empty() {
                        return Err("daemon closed the connection mid-run".into());
                    }
                    latencies.push(t0.elapsed());
                    let ok = Json::parse(line.trim())
                        .ok()
                        .and_then(|d| d.get("status").and_then(Json::as_str).map(String::from))
                        .is_some_and(|s| s == "ok");
                    if !ok {
                        errors += 1;
                    }
                }
                Ok((latencies, errors))
            })
            .map_err(|e| format!("cannot spawn client thread: {e}"))?;
        workers.push(h);
    }

    let mut latencies: Vec<Duration> = Vec::with_capacity(concurrency * repeat);
    let mut errors = 0usize;
    for h in workers {
        let (lat, err) = h
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        latencies.extend(lat);
        errors += err;
    }
    let elapsed = started.elapsed();

    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((latencies.len() as f64 * p).ceil() as usize).saturating_sub(1);
        latencies[idx.min(latencies.len() - 1)].as_secs_f64() * 1e3
    };
    let total = latencies.len();
    println!("requests:      {total} ({concurrency} conns x {repeat})");
    println!("ok:            {}, errors: {errors}", total - errors);
    println!(
        "elapsed:       {:.3} s ({:.1} req/s)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "latency (ms):  p50 {:.2}  p95 {:.2}  p99 {:.2}  max {:.2}",
        pct(0.50),
        pct(0.95),
        pct(0.99),
        latencies.last().unwrap().as_secs_f64() * 1e3
    );
    Ok(if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_datasets() -> Result<(), String> {
    println!("simulated datasets (Table II analogs; see DESIGN.md for the substitution):");
    for d in Dataset::ALL {
        let (pn, pm) = d.paper_scale_millions();
        println!(
            "  {:<3} {:<28} paper: N={pn}M M={pm}M",
            d.name(),
            d.full_name()
        );
    }
    println!("\nbuild with --dataset <name> [--scale f] (default scale 0.1)");
    Ok(())
}
