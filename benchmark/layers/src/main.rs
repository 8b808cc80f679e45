//! `layers` — the traced half of the benchmark (`--trace 1`).
//!
//! It replays one workload's pipeline step by step, from outside: the
//! `light` binary as a child process (cli), then the same work in-process
//! through a small façade of public functions (graph → order → setops →
//! core → parallel → serve), then the daemon over its socket. Around every
//! call it records a span (name, layer, workload, cell, start, end,
//! parent) and the counters the call returns. Spans stay in memory and are
//! written to `out/trace.<workload>.json` at exit; the attribution table sets the sum
//! of the layers against the end-to-end figure and names the residual.
//!
//! The façade, and nothing else of the workspace, may be called here. What
//! ISSUE 11 lists:
//! `graph::io::{open_any, load_edge_list, save_snapshot_v2}`,
//! `graph::stats::compute_stats`, `CsrGraph::{num_vertices, neighbors}`,
//! `graph::delta::DeltaGraph::{new, apply, merged_arc}`,
//! `order::QueryPlan::optimized`,
//! `setops::{Intersector, IntersectKind, trim_into}`,
//! `core::{EngineConfig::light, engine::run_plan, CountVisitor}`,
//! `parallel::{run_plan_parallel, ParallelConfig::new}`,
//! `serve::{GraphCatalog, QueryService::{new, handle_line},
//! ServeConfig::default}`, `metrics::Recorder::new`.
//! And four additions the replay cannot do without (README.md, "Deviations"):
//! `pattern::Query::parse` (the only way from a pattern's name to the
//! `PatternGraph` `QueryPlan::optimized` takes),
//! `setops::IntersectStats` and `metrics::LocalRecorder` (out-parameters of
//! `intersect_into` / `trim_into`), and
//! `graph::ordered::{is_degree_ordered, into_degree_ordered}` (what the CLI
//! does to a snapshot / a text graph between load and plan; without them
//! that time would sit in `attr.residual_pct`).

mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use light::core::{engine::run_plan, CountVisitor, EngineConfig, Report};
use light::graph::delta::DeltaGraph;
use light::graph::{io, ordered, stats::compute_stats, CsrGraph};
use light::order::QueryPlan;
use light::parallel::{run_plan_parallel, ParallelConfig, ParallelReport};
use light::pattern::{PatternGraph, Query};
use light::serve::{GraphCatalog, QueryService, ServeConfig};
use light::setops::{trim_into, IntersectKind, IntersectStats, Intersector};

use lightbench::catalog::PER_LAYER;
use lightbench::cli;
use lightbench::client::{ok_matches, query_line};
use lightbench::json::Json;
use lightbench::proc::run_capture;
use lightbench::rng::SplitMix64;
use lightbench::run::{
    build_fixture, light_count, mib, ms, Checks, Env, Metric, RunResult, Source,
};
use lightbench::serve::{
    check_served, churn, closed_loop, mixed, one_query, one_update, open_loop, start_serving,
    subscribe, update_line, Expected, Reply, UpdateGen, CHURN_PATTERNS,
};
use lightbench::stats::{median, percentile};
use lightbench::workload::{find, Cell, Traffic, Workload};

use trace::Tracer;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args).and_then(|o| run(&o)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &cli::Opts) -> Result<ExitCode, String> {
    let env = opts.env();
    // One workload per process: the in-process replay raises this process's
    // peak RSS, which every later `light` child would inherit as its own.
    let name = opts.workload.as_deref().ok_or("layers needs --workload")?;
    let w = find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut tracer = Tracer::new();
    let result = replay(&env, w, &mut tracer);
    // The daemon handle of a failed replay is dropped (killed and reaped)
    // by now; the fixtures go with the directory.
    let _ = std::fs::remove_dir_all(env.work_dir(w));
    let result = result?;
    let out = env.out_dir().join(format!("trace.{}.json", w.name));
    std::fs::create_dir_all(env.out_dir())
        .and_then(|()| std::fs::write(&out, tracer.to_json(&env).render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {} ({} spans)", out.display(), tracer.len());
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn pattern(name: &str) -> PatternGraph {
    Query::parse(name)
        .expect("benchmark patterns are catalog queries")
        .pattern()
}

/// `reps` calls of `f`, each its own span; returns the walls in ms and the
/// last call's result.
fn timed_all<R>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &str,
    cell: &str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (Vec<f64>, R) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let id = tr.enter(layer, name, cell);
        last = Some(std::hint::black_box(f()));
        samples.push(tr.exit(id));
    }
    (samples, last.expect("reps >= 1"))
}

/// The median wall of [`timed_all`].
fn timed<R>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &str,
    cell: &str,
    reps: usize,
    f: impl FnMut() -> R,
) -> (f64, R) {
    let (samples, last) = timed_all(tr, layer, name, cell, reps, f);
    (median(&samples), last)
}

fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Everything measured for one cell, the row of the attribution table.
struct CellTimes {
    cell: &'static Cell,
    cli_ms: f64,
    load_ms: f64,
    plan_ms: f64,
    /// Planning minus the stats pass it starts with, from each side's
    /// fastest run (the difference of two medians is mostly their noise).
    search_ms: f64,
    serial_ms: f64,
    parallel_ms: f64,
    served_ms: f64,
}

fn replay(env: &Env, w: &'static Workload, tr: &mut Tracer) -> Result<RunResult, String> {
    tr.set_workload(w.name);
    let root = tr.enter("bench", "replay", "");
    let mut checks = Checks::default();
    let mut m: Vec<Metric> = Vec::new();
    let threads = env.threads();
    let dir = env.work_dir(w);

    let id = tr.enter("bench", "fixture", "");
    let built = build_fixture(env, Source::Workload(w), &dir, w.fixture.graph)?;
    tr.exit(id);

    // ---- cli: the shipped binary, as e2e runs it ------------------------
    let (spawn_ms, _) = timed(tr, "cli", "cli.spawn", "", 7, || {
        run_capture(Command::new(&env.light).arg("datasets")).map(|c| ms(c.wall))
    });
    m.push(Metric::single("cli.spawn_ms", "ms", spawn_ms));
    let mut expected = Expected::new();
    let mut cli_ms = Vec::new();
    let mut cli_rss = 0u64;
    for cell in w.cells {
        let mut walls = Vec::new();
        for _ in 0..3 {
            let id = tr.enter("cli", "cli.count", cell.name);
            let c = light_count(env, cell.pattern, built.path(cell), threads)?;
            tr.counter(id, "matches", c.matches as f64);
            tr.counter(id, "max_rss_kib", c.run.exit.max_rss_kib as f64);
            tr.exit(id);
            walls.push(ms(c.run.wall));
            cli_rss = cli_rss.max(c.run.exit.max_rss_kib);
            let want = *expected.entry(cell.pattern).or_insert(c.matches);
            checks.equal(&format!("{} cli", cell.name), c.matches, want);
        }
        cli_ms.push(median(&walls));
    }
    m.push(Metric::single("cli.count_ms", "ms", cli_ms.iter().sum()));
    m.push(Metric::single("cli.rss_mib", "MiB", mib(cli_rss)));

    // ---- graph: storage ------------------------------------------------
    let open = |path: &Path| {
        io::open_any(path, true)
            .map(|(g, _)| g)
            .map_err(|e| e.to_string())
    };
    let (open_ms, _) = timed(tr, "graph", "graph.open", "", 5, || open(&built.snapshot));
    // Touch every adjacency list right after a fresh mmap open, then
    // again: the difference is what first-touch page faults cost.
    let g = open(&built.snapshot)?;
    let scan = |g: &CsrGraph| -> u64 {
        (0..g.num_vertices() as u32)
            .map(|v| g.neighbors(v).iter().map(|&x| u64::from(x)).sum::<u64>())
            .sum()
    };
    let (scan_first_ms, sum1) = timed(tr, "graph", "graph.scan_first", "", 1, || scan(&g));
    let (scan_again_ms, sum2) = timed(tr, "graph", "graph.scan_again", "", 1, || scan(&g));
    checks.equal("adjacency checksum across scans", sum1, sum2);
    let (parse_ms, parsed) = timed(tr, "graph", "graph.parse", "", 3, || {
        io::load_edge_list(&built.text).map_err(|e| e.to_string())
    });
    let parsed = parsed?;
    let text_bytes = std::fs::metadata(&built.text).map_or(0, |md| md.len());
    // The CLI verifies a snapshot's degree order and relabels a text graph.
    let (verify_order_ms, ordered_ok) = timed(tr, "graph", "graph.verify_order", "", 3, || {
        ordered::is_degree_ordered(&g)
    });
    if !ordered_ok {
        checks.fail("the converted snapshot is not degree-ordered".into());
    }
    let (relabel_ms, g_text) = timed(tr, "graph", "graph.relabel", "", 1, || {
        ordered::into_degree_ordered(&parsed).0
    });
    let (stats_all, stats) = timed_all(tr, "graph", "graph.stats", "", 3, || compute_stats(&g));
    let stats_ms = median(&stats_all);
    m.extend([
        Metric::single("graph.open_ms", "ms", open_ms),
        Metric::single("graph.scan_first_ms", "ms", scan_first_ms),
        Metric::single("graph.scan_again_ms", "ms", scan_again_ms),
        Metric::single("graph.parse_ms", "ms", parse_ms),
        Metric::single(
            "graph.parse_mb_per_s",
            "MB/s",
            text_bytes as f64 / 1e6 / (parse_ms / 1e3),
        ),
        Metric::single("graph.relabel_ms", "ms", relabel_ms),
        Metric::single("graph.stats_ms", "ms", stats_ms),
    ]);

    // Update path pieces: overlay apply, merged CSR rebuild, snapshot write.
    let base = Arc::new(open(&built.snapshot)?);
    let mut gen = UpdateGen::new(env.seed, stats.num_vertices as u64);
    let mut delta = DeltaGraph::new(Arc::clone(&base));
    let mut apply_us = Vec::new();
    let mut merged_ms = Vec::new();
    for _ in 0..5 {
        let (inserts, deletes) = gen.next_batch();
        let id = tr.enter("graph", "graph.delta_apply", "");
        let report = delta.apply(&deletes, &inserts);
        apply_us.push(tr.exit(id) * 1e3);
        gen.committed(inserts, report.dup_inserts as u64);
        let id = tr.enter("graph", "graph.merged_arc", "");
        let merged = delta.merged_arc();
        merged_ms.push(tr.exit(id));
        std::hint::black_box(merged.num_vertices());
    }
    let save_path = dir.join("save.v2");
    let (save_ms, saved) = timed(tr, "graph", "graph.save_v2", "", 1, || {
        io::save_snapshot_v2(&g, &save_path).map_err(|e| e.to_string())
    });
    saved?;
    let merged_arc_ms = median(&merged_ms);
    m.extend([
        Metric::single("graph.delta_apply_us", "us", median(&apply_us)),
        Metric::single("graph.merged_arc_ms", "ms", merged_arc_ms),
        Metric::single("graph.save_v2_ms", "ms", save_ms),
    ]);

    // ---- order, core, parallel: per cell -------------------------------
    let cfg = EngineConfig::light();
    let mut cells: Vec<CellTimes> = Vec::new();
    let mut serial_total = SerialTotals::default();
    let mut par = ParallelTotals::default();
    for (cell, &cli_cell_ms) in w.cells.iter().zip(&cli_ms) {
        let graph = if cell.text { &g_text } else { &g };
        let p = pattern(cell.pattern);
        let (plan_all, plan) = timed_all(tr, "order", "order.plan", cell.name, 3, || {
            QueryPlan::optimized(&p, graph)
        });
        let plan_ms = median(&plan_all);
        let id = tr.enter("core", "core.run", cell.name);
        let serial = run_plan(&plan, graph, &cfg, &mut CountVisitor::default());
        tr.counter(id, "matches", serial.matches as f64);
        tr.counter(id, "intersections", serial.stats.intersect.total as f64);
        tr.counter(id, "galloping", serial.stats.intersect.galloping as f64);
        tr.counter(id, "aux_hits", serial.stats.aux.hits as f64);
        tr.counter(id, "aux_misses", serial.stats.aux.misses as f64);
        let serial_ms = tr.exit(id);
        checks.equal(
            &format!("{} serial", cell.name),
            serial.matches,
            expected[cell.pattern],
        );
        serial_total.add(&serial);

        let id = tr.enter("parallel", "parallel.run", cell.name);
        let pr = run_plan_parallel(&plan, graph, &cfg, &ParallelConfig::new(threads));
        tr.counter(id, "matches", pr.report.matches as f64);
        let parallel_ms = tr.exit(id);
        checks.equal(
            &format!("{} parallel", cell.name),
            pr.report.matches,
            expected[cell.pattern],
        );
        par.add(&pr);
        for ws in &pr.workers {
            let id = tr.enter("parallel", "parallel.worker", cell.name);
            tr.counter(id, "worker", ws.worker as f64);
            tr.counter(id, "matches", ws.matches as f64);
            tr.counter(id, "steals", ws.steals as f64);
            tr.counter(id, "donations", ws.donations as f64);
            tr.counter(id, "parked_ms", ws.parked_nanos as f64 / 1e6);
            tr.exit(id);
        }
        cells.push(CellTimes {
            cell,
            cli_ms: cli_cell_ms,
            load_ms: if cell.text {
                parse_ms + relabel_ms
            } else {
                open_ms + verify_order_ms
            },
            plan_ms,
            search_ms: (min(&plan_all) - min(&stats_all)).max(0.0),
            serial_ms,
            parallel_ms,
            served_ms: 0.0,
        });
    }
    let plan_total: f64 = cells.iter().map(|c| c.plan_ms).sum();
    let serial_ms: f64 = cells.iter().map(|c| c.serial_ms).sum();
    let parallel_ms: f64 = cells.iter().map(|c| c.parallel_ms).sum();
    m.extend([
        Metric::single("order.plan_ms", "ms", plan_total),
        Metric::single(
            "order.search_us",
            "us",
            cells.iter().map(|c| c.search_ms).sum::<f64>() * 1e3,
        ),
        Metric::single("core.run_ms", "ms", serial_ms),
        Metric::single(
            "core.intersections",
            "count",
            serial_total.intersections as f64,
        ),
        Metric::single(
            "core.galloping_share",
            "ratio",
            ratio(serial_total.galloping, serial_total.intersections),
        ),
        Metric::single(
            "core.aux_hit_ratio",
            "ratio",
            ratio(
                serial_total.aux_hits,
                serial_total.aux_hits + serial_total.aux_misses,
            ),
        ),
        Metric::single(
            "core.peak_candidate_bytes",
            "bytes",
            serial_total.peak_candidate_bytes as f64,
        ),
        Metric::single("parallel.run_ms", "ms", parallel_ms),
        Metric::single("parallel.speedup", "ratio", serial_ms / parallel_ms),
        Metric::single("parallel.steals", "count", par.steals as f64),
        Metric::single("parallel.donations", "count", par.donations as f64),
        Metric::single(
            "parallel.parked_share",
            "ratio",
            par.parked_ms / (parallel_ms * threads as f64),
        ),
        Metric::single(
            "parallel.match_imbalance",
            "ratio",
            par.max_worker_matches as f64 * threads as f64 / par.matches.max(1) as f64,
        ),
    ]);

    // Recorder and 1-thread scheduler overheads, on the cheapest cell,
    // alternating the three runs so drift hits all sides; two to five
    // rounds, as many as fit in about three seconds.
    {
        let cheapest = cells
            .iter()
            .min_by(|a, b| a.serial_ms.total_cmp(&b.serial_ms))
            .expect("a workload has cells");
        let cell = cheapest.cell;
        let graph = if cell.text { &g_text } else { &g };
        let plan = QueryPlan::optimized(&pattern(cell.pattern), graph);
        let (mut plain, mut recorded, mut one) = (Vec::new(), Vec::new(), Vec::new());
        let rounds = ((1000.0 / cheapest.serial_ms) as usize).clamp(2, 5);
        for _ in 0..rounds {
            let id = tr.enter("core", "core.run_plain", cell.name);
            run_plan(&plan, graph, &cfg, &mut CountVisitor::default());
            plain.push(tr.exit(id));
            let id = tr.enter("metrics", "core.run_recorded", cell.name);
            let rec_cfg = EngineConfig::light().metrics(light::metrics::Recorder::new());
            run_plan(&plan, graph, &rec_cfg, &mut CountVisitor::default());
            recorded.push(tr.exit(id));
            let id = tr.enter("parallel", "parallel.run_t1", cell.name);
            run_plan_parallel(&plan, graph, &cfg, &ParallelConfig::new(1));
            one.push(tr.exit(id));
        }
        let base_ms = median(&plain);
        m.push(Metric::single(
            "metrics.overhead_pct",
            "%",
            100.0 * (median(&recorded) - base_ms) / base_ms,
        ));
        m.push(Metric::single(
            "parallel.t1_overhead_pct",
            "%",
            100.0 * (median(&one) - base_ms) / base_ms,
        ));
    }

    // ---- setops: kernels by tier and shape -----------------------------
    setops_metrics(env.seed, tr, &mut m);

    // ---- serve, in-process ---------------------------------------------
    let mut catalog = GraphCatalog::new();
    catalog.load_entry("g", &built.snapshot.to_string_lossy())?;
    let service = QueryService::new(catalog, ServeConfig::default());
    let (handle_us, _) = timed(tr, "serve", "serve.handle_health", "", 200, || {
        service.handle_line(r#"{"op":"health"}"#)
    });
    let handle_us = handle_us * 1e3;
    for c in &mut cells {
        let cell = c.cell;
        let id = tr.enter("serve", "serve.handle_query", cell.name);
        let resp = service.handle_line(&query_line(cell.pattern, 0));
        tr.exit(id);
        let resp = Json::parse(&resp).map_err(|e| format!("in-process response: {e}"))?;
        check_served(
            &mut checks,
            &format!("{} served in-process", cell.name),
            &resp,
            expected[cell.pattern],
        );
        c.served_ms = resp.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0);
    }
    // Served singleton engine time over the serial engine's: both run one
    // thread over the same plan, so 1.0 is the expectation.
    let served_total: f64 = cells.iter().map(|c| c.served_ms).sum();
    m.push(Metric::single(
        "serve.served_vs_oneshot",
        "ratio",
        served_total / serial_ms,
    ));
    let mut gen = UpdateGen::new(env.seed ^ 1, stats.num_vertices as u64);
    let mut inproc = Vec::new();
    for _ in 0..3 {
        let (inserts, deletes) = gen.next_batch();
        let line = update_line(&inserts, &deletes);
        let id = tr.enter("serve", "serve.handle_update", "");
        let resp = service.handle_line(&line);
        inproc.push(tr.exit(id));
        let resp = Json::parse(&resp).map_err(|e| format!("in-process response: {e}"))?;
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            checks.fail(format!("in-process update failed: {}", resp.render()));
        }
        gen.committed(
            inserts,
            resp.get("dup_inserts").and_then(Json::as_u64).unwrap_or(1),
        );
    }
    let update_inproc_ms = median(&inproc);
    m.push(Metric::single(
        "serve.update_inproc_ms",
        "ms",
        update_inproc_ms,
    ));
    // What an update costs beyond the two O(|E|) passes the layers above
    // already account for.
    m.push(Metric::single(
        "serve.update_residual_ms",
        "ms",
        update_inproc_ms - merged_arc_ms - stats_ms,
    ));
    drop(service);

    // ---- serve, over the socket ----------------------------------------
    let serve_residual_pct = socket_metrics(env, w, &expected, handle_us, tr, &mut checks, &mut m)?;

    // ---- attribution ---------------------------------------------------
    println!("\n== attribution: {} (T = C = {threads})", w.name);
    println!(
        "  {:<16} {:>9} = {:>8} + {:>8} + {:>8} + {:>9} + {:>9}   ({:>9} {:>9})",
        "one-shot cell",
        "cli ms",
        "spawn",
        "load",
        "plan",
        "parallel",
        "residual",
        "serial",
        "served"
    );
    let (mut wall_sum, mut residual_sum) = (0.0, 0.0);
    for c in &cells {
        let explained = spawn_ms + c.load_ms + c.plan_ms + c.parallel_ms;
        let residual = c.cli_ms - explained;
        wall_sum += c.cli_ms;
        residual_sum += residual;
        println!(
            "  {:<16} {:>9.2} = {:>8.2} + {:>8.2} + {:>8.2} + {:>9.2} + {:>9.2}   ({:>9.2} {:>9.2})",
            c.cell.name, c.cli_ms, spawn_ms, c.load_ms, c.plan_ms, c.parallel_ms, residual, c.serial_ms, c.served_ms
        );
        if residual.abs() > 0.10 * c.cli_ms {
            println!(
                "  FINDING: {:.1}% of {}'s wall is not explained by the layers",
                100.0 * residual / c.cli_ms,
                c.cell.name
            );
        }
    }
    let residual_pct = 100.0 * residual_sum / wall_sum;
    m.push(Metric::single("attr.residual_pct", "%", residual_pct));
    m.push(Metric::single(
        "attr.serve_residual_pct",
        "%",
        serve_residual_pct,
    ));
    println!("  one-shot residual {residual_pct:.1}% of {wall_sum:.1} ms; served residual {serve_residual_pct:.1}% of the p50 latency");
    if serve_residual_pct.abs() > 10.0 {
        println!("  FINDING: {serve_residual_pct:.1}% of served latency is outside engine and queue time");
    }
    println!("  layer self-times (ms):");
    for (layer, self_ms) in tr.self_times(root) {
        println!("    {layer:<10} {self_ms:>10.2}");
    }
    m.push(Metric::single("attr.traced_s", "s", tr.exit(root) / 1e3));
    // BENCHMARK.json lists exactly these names, in this order.
    let names: Vec<(&str, &str)> = m.iter().map(|x| (x.name.as_str(), x.unit)).collect();
    let catalog: Vec<(&str, &str)> = PER_LAYER.iter().map(|x| (x.0, x.1)).collect();
    if names != catalog {
        return Err(format!(
            "emitted metrics {names:?} differ from the catalog {catalog:?}"
        ));
    }

    let result = RunResult {
        workload: w.name,
        attempted: checks.performed,
        failed: checks.problems.len() as u64,
        correct: checks.problems.is_empty(),
        metrics: m,
        problems: checks.problems,
        notes: Vec::new(),
    };
    result.print_table();
    Ok(result)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sums of the serial engine's counters over a workload's cells.
#[derive(Default)]
struct SerialTotals {
    intersections: u64,
    galloping: u64,
    aux_hits: u64,
    aux_misses: u64,
    peak_candidate_bytes: usize,
}

impl SerialTotals {
    fn add(&mut self, r: &Report) {
        self.intersections += r.stats.intersect.total;
        self.galloping += r.stats.intersect.galloping;
        self.aux_hits += r.stats.aux.hits;
        self.aux_misses += r.stats.aux.misses;
        self.peak_candidate_bytes = self.peak_candidate_bytes.max(r.stats.peak_candidate_bytes);
    }
}

#[derive(Default)]
struct ParallelTotals {
    steals: u64,
    donations: u64,
    parked_ms: f64,
    matches: u64,
    max_worker_matches: u64,
}

impl ParallelTotals {
    fn add(&mut self, pr: &ParallelReport) {
        self.steals += pr.workers.iter().map(|w| w.steals).sum::<u64>();
        self.donations += pr.workers.iter().map(|w| w.donations).sum::<u64>();
        self.parked_ms += pr
            .workers
            .iter()
            .map(|w| w.parked_nanos as f64 / 1e6)
            .sum::<f64>();
        self.matches += pr.report.matches;
        self.max_worker_matches += pr.workers.iter().map(|w| w.matches).max().unwrap_or(0);
    }
}

/// Sorted duplicate-free `u32`s; `b` shares about a tenth of the shorter
/// side's elements with `a`.
fn sorted_pair(rng: &mut SplitMix64, la: usize, lb: usize) -> (Vec<u32>, Vec<u32>) {
    let universe = 16 * la.max(lb) as u64;
    let draw = |rng: &mut SplitMix64, n: usize| {
        let mut v: Vec<u32> = (0..n + n / 8).map(|_| rng.below(universe) as u32).collect();
        v.sort_unstable();
        v.dedup();
        v.truncate(n);
        v
    };
    let a = draw(rng, la);
    let mut b = draw(rng, lb);
    let shared = la.min(lb) / 10;
    for i in 0..shared {
        let j = i * b.len() / shared.max(1);
        b[j] = a[i * a.len() / shared.max(1)];
    }
    b.sort_unstable();
    b.dedup();
    (a, b)
}

fn setops_metrics(seed: u64, tr: &mut Tracer, m: &mut Vec<Metric>) {
    const SHAPES: [(&str, usize, usize); 4] = [
        ("bal256", 256, 256),
        ("bal4096", 4096, 4096),
        ("skew16x4096", 16, 4096),
        ("skew16x65536", 16, 65536),
    ];
    // The hybrid kinds, as the engine uses them: balanced shapes dispatch
    // to the merge kernel, skewed ones (ratio >= delta) to galloping. A
    // tier the CPU lacks falls back at run time and repeats the tier below.
    let tiers = [
        ("scalar", IntersectKind::HybridScalar),
        ("avx2", IntersectKind::HybridAvx2),
        ("avx512", IntersectKind::HybridAvx512),
    ];
    let mut rng = SplitMix64::stream(seed, "setops");
    let mut out = Vec::new();
    let mut stats = IntersectStats::default();
    for (shape, la, lb) in SHAPES {
        let (a, b) = sorted_pair(&mut rng, la, lb);
        let reps = (4_000_000 / (a.len() + b.len())).max(64);
        for (tier, kind) in tiers {
            let isec = Intersector::new(kind);
            let id = tr.enter("setops", "setops.intersect", &format!("{tier}.{shape}"));
            let t0 = Instant::now();
            for _ in 0..reps {
                isec.intersect_into(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut out,
                    &mut stats,
                );
                std::hint::black_box(out.len());
            }
            let ns = t0.elapsed().as_nanos() as f64;
            tr.counter(id, "reps", reps as f64);
            tr.counter(id, "result_len", out.len() as f64);
            tr.exit(id);
            m.push(Metric::single(
                &format!("setops.ns_per_elem.{tier}.{shape}"),
                "ns",
                ns / (reps * (a.len() + b.len())) as f64,
            ));
        }
    }
    let (base, f1) = sorted_pair(&mut rng, 4096, 4096);
    let (_, f2) = sorted_pair(&mut rng, 4096, 4096);
    // The widest tier; one the CPU lacks falls back at run time.
    let isec = Intersector::new(IntersectKind::HybridAvx512);
    let mut scratch = Vec::new();
    let mut rec = light::metrics::LocalRecorder::default();
    let reps = 400;
    let id = tr.enter("setops", "setops.trim", "4096x2");
    let t0 = Instant::now();
    for _ in 0..reps {
        trim_into(
            &isec,
            std::hint::black_box(&base),
            &[&f1, &f2],
            &mut out,
            &mut scratch,
            &mut stats,
            &mut rec,
        );
        std::hint::black_box(out.len());
    }
    let ns = t0.elapsed().as_nanos() as f64;
    tr.exit(id);
    m.push(Metric::single(
        "setops.trim_ns_per_elem",
        "ns",
        ns / (reps * (base.len() + f1.len() + f2.len())) as f64,
    ));
}

/// `a.b.c` as a float out of a `stats` response, 0 when absent.
fn stat(j: &Json, path: &str) -> f64 {
    j.path(path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Per-conn open-loop rates of the `serve.max_rate_ok` ladder, req/s.
const RATE_LADDER: [f64; 4] = [25.0, 50.0, 100.0, 200.0];
const LADDER_STEP_S: f64 = 1.5;
/// A step whose generator is this far behind at its end has failed.
const LADDER_GRACE_S: f64 = 0.5;
/// Updates sent over the socket at the most, each followed by one read.
const UPDATE_PAIRS: usize = 8;
/// The latency limit a ladder rate must meet at p95.
const LADDER_P95_LIMIT_MS: f64 = 250.0;

/// The daemon driven over its socket: transport cost, the workload's own
/// traffic (shortened) with latency attributed from response fields and
/// `stats` deltas, the rate ladder, and the update path. Returns the share
/// of served p50 latency that engine and queue time do not explain.
#[allow(clippy::too_many_arguments)]
fn socket_metrics(
    env: &Env,
    w: &'static Workload,
    expected: &Expected,
    handle_us: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
    m: &mut Vec<Metric>,
) -> Result<f64, String> {
    // Enough connections for the ladder (C) and the update path (2). The
    // one-shot workloads' queries are too slow to spend a warm-up on.
    let warm_rounds = usize::from(w.is_serve());
    let id = tr.enter("serve", "serve.start", "");
    let mut serving = start_serving(env, w, env.threads().max(2), warm_rounds, expected, checks)?;
    tr.counter(id, "start_to_ready_ms", ms(serving.daemon.start_to_ready));
    tr.exit(id);

    let mut rtt = Vec::with_capacity(200);
    let id = tr.enter("serve", "serve.rtt_health", "");
    for _ in 0..200 {
        let t0 = Instant::now();
        serving.conns[0].request(r#"{"op":"health"}"#)?;
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    tr.exit(id);
    let rtt_us = median(&rtt);
    m.extend([
        Metric::single("serve.handle_us.health", "us", handle_us),
        Metric::single("serve.rtt_us.health", "us", rtt_us),
        Metric::single("serve.transport_us", "us", rtt_us - handle_us),
    ]);

    // The workload's own traffic, shortened.
    let patterns = w.patterns();
    let before = serving.conns[0].request(r#"{"op":"stats"}"#)?;
    let id = tr.enter("serve", "serve.traffic", "");
    let mut check = |p: &str, n: u64| n == expected[p];
    let mut stale_reads = 0;
    let (replies, updates, compact_ms): (Vec<Reply>, Vec<Reply>, Option<f64>) = match w.traffic {
        Traffic::OneShot => {
            // Each cell twice on one connection, closed loop.
            let mut out = Vec::new();
            let origin = Instant::now();
            for round in 0..2 {
                for &p in &patterns {
                    let due = origin.elapsed().as_secs_f64();
                    let conn = &mut serving.conns[0];
                    match one_query(conn, p, round, origin, due, &mut check) {
                        Ok(r) | Err(r) => out.push(r),
                    }
                }
            }
            (out, Vec::new(), None)
        }
        Traffic::Point => {
            let mut rng = SplitMix64::stream(env.seed, "point.conn0");
            let out = closed_loop(
                &mut serving.conns[0],
                &patterns,
                &mut rng,
                Instant::now(),
                3.0,
                &mut check,
            );
            (out, Vec::new(), None)
        }
        Traffic::Mixed { open_rate_per_conn } => {
            let n = env.threads();
            let out = mixed(
                &mut serving.conns[..n],
                &patterns,
                expected,
                env.seed,
                open_rate_per_conn,
                [1.5, 1.55, 4.0],
            );
            (out, Vec::new(), None)
        }
        Traffic::Churn { updates_per_s } => {
            let short = Env {
                seconds: 3.0,
                ..env.clone()
            };
            let log = churn(&short, &mut serving, updates_per_s, checks)?;
            stale_reads = log.stale_reads;
            (log.reads, log.updates, Some(log.compact_ms))
        }
    };
    let traffic_ms = tr.exit(id);
    let after = serving.conns[0].request(r#"{"op":"stats"}"#)?;
    for r in replies.iter().chain(&updates).filter(|r| !r.ok) {
        checks.fail(format!("a traced request due at {:.3} s failed", r.due_s));
    }
    if replies.is_empty() {
        return Err("the traced traffic completed no request".into());
    }
    let col = |f: &dyn Fn(&Reply) -> f64| -> Vec<f64> { replies.iter().map(f).collect() };
    let p50_latency = median(&col(&|r| r.latency_ms));
    let overhead = median(&col(&|r| {
        r.latency_ms - r.late_ms - r.engine_ms - r.queue_ms
    }));
    let batched: Vec<f64> = replies
        .iter()
        .filter(|r| r.batch > 1)
        .map(|r| r.batch as f64)
        .collect();
    let delta = |path: &str| stat(&after, path) - stat(&before, path);
    let queries = replies.len() as f64;
    let (aux_hits, aux_misses) = (
        delta("multiquery.shared_aux.hits"),
        delta("multiquery.shared_aux.misses"),
    );
    let open: Vec<f64> = replies.iter().map(|r| r.late_ms).collect();
    m.extend([
        Metric::single("serve.engine_ms", "ms", median(&col(&|r| r.engine_ms))),
        Metric::single("serve.queue_ms", "ms", median(&col(&|r| r.queue_ms))),
        Metric::single("serve.overhead_ms", "ms", overhead),
        Metric::single(
            "serve.plan_cache_hit_ratio",
            "ratio",
            replies.iter().filter(|r| r.plan_hit).count() as f64 / queries,
        ),
        Metric::single(
            "serve.batched_share",
            "ratio",
            batched.len() as f64 / queries,
        ),
        Metric::single(
            "serve.batch_mean_size",
            "count",
            if batched.is_empty() {
                1.0
            } else {
                batched.iter().sum::<f64>() / batched.len() as f64
            },
        ),
        Metric::single(
            "serve.shared_aux_hit_ratio",
            "ratio",
            if aux_hits + aux_misses > 0.0 {
                aux_hits / (aux_hits + aux_misses)
            } else {
                0.0
            },
        ),
        Metric::single(
            "serve.shared_aux_stores_per_query",
            "count",
            delta("multiquery.shared_aux.stores") / queries,
        ),
        Metric::single(
            "serve.query_p99_ms",
            "ms",
            percentile(&col(&|r| r.latency_ms), 0.99),
        ),
        Metric::single("serve.open_lateness_ms", "ms", percentile(&open, 0.95)),
        // Reads beside writes that returned a count no generation committed
        // while they ran had (README.md, baseline finding 5).
        Metric::single("serve.stale_reads", "count", stale_reads as f64),
    ]);
    println!(
        "  traced traffic: {} queries in {traffic_ms:.0} ms, p50 {p50_latency:.3} ms = engine {:.3} + queue {:.3} + other {overhead:.3}",
        replies.len(),
        median(&col(&|r| r.engine_ms)),
        median(&col(&|r| r.queue_ms)),
    );

    // Rate ladder: the highest per-connection rate that keeps p95 under
    // the limit without the generator falling behind. Diagnostic only.
    let n = env.threads();
    let mut max_rate_ok = 0.0;
    for rate in RATE_LADDER {
        let id = tr.enter("serve", "serve.ladder", &format!("{rate}"));
        let origin = Instant::now();
        let seed = env.seed;
        let patterns = &patterns;
        let step: Vec<Reply> = std::thread::scope(|scope| {
            let handles: Vec<_> = serving.conns[..n]
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    scope.spawn(move || {
                        let mut rng = SplitMix64::stream(seed, &format!("ladder.conn{i}"));
                        open_loop(
                            conn,
                            patterns,
                            &mut rng,
                            origin,
                            i as f64 / (n as f64 * rate),
                            rate,
                            LADDER_STEP_S,
                            LADDER_GRACE_S,
                            &mut |p, c| c == expected[p],
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("ladder thread panicked"))
                .collect()
        });
        tr.counter(id, "requests", step.len() as f64);
        tr.exit(id);
        let lat: Vec<f64> = step.iter().map(|r| r.latency_ms).collect();
        let tail: Vec<f64> = step
            .iter()
            .filter(|r| r.due_s >= LADDER_STEP_S * 2.0 / 3.0)
            .map(|r| r.late_ms)
            .collect();
        let ok = step.iter().all(|r| r.ok)
            && percentile(&lat, 0.95) <= LADDER_P95_LIMIT_MS
            && !tail.is_empty()
            && median(&tail) <= 1e3 / rate;
        if !ok {
            break;
        }
        max_rate_ok = rate * n as f64;
    }
    m.push(Metric::single("serve.max_rate_ok", "1/s", max_rate_ok));

    // The update path over the socket: a batch, then a read that has to
    // re-plan at the new generation.
    let vertices = serving.vertices;
    let [writer, reader, ..] = &mut serving.conns[..] else {
        return Err("the update path needs two connections".into());
    };
    if serving.subscribed.is_none() {
        subscribe(writer)?;
    }
    let mut gen = UpdateGen::new(env.seed ^ 2, vertices);
    let origin = Instant::now();
    let (mut upd, mut after_update) = (updates, Vec::new());
    // At least three pairs, then as many of the rest as fit in two seconds
    // (on count_cold's graph one pair takes most of a second).
    for pair in 0..UPDATE_PAIRS {
        if pair >= 3 && origin.elapsed().as_secs_f64() > 2.0 {
            break;
        }
        let id = tr.enter("serve", "serve.update", "");
        let due = origin.elapsed().as_secs_f64();
        let (reply, _) = one_update(writer, &mut gen, origin, due)
            .map_err(|_| "the daemon dropped the update connection")?;
        tr.counter(id, "engine_ms", reply.engine_ms);
        tr.exit(id);
        if !reply.ok {
            checks.fail("a traced update failed".into());
        }
        upd.push(reply);
        let id = tr.enter("serve", "serve.query_after_update", "");
        let t0 = Instant::now();
        let resp = reader.request(&query_line(CHURN_PATTERNS[0], 0))?;
        after_update.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.exit(id);
        if ok_matches(&resp).is_none() {
            checks.fail(format!("read after update failed: {}", resp.render()));
        }
    }
    let compact_ms = match compact_ms {
        Some(x) => x,
        None => {
            let id = tr.enter("serve", "serve.compact", "");
            let resp = writer.request(r#"{"op":"update","graph":"g","compact":true}"#)?;
            let x = tr.exit(id);
            if resp.get("compacted").and_then(Json::as_bool) != Some(true) {
                checks.fail(format!("compaction was not performed: {}", resp.render()));
            }
            x
        }
    };
    let upd_latency: Vec<f64> = upd.iter().map(|r| r.latency_ms - r.late_ms).collect();
    let upd_engine: Vec<f64> = upd.iter().map(|r| r.engine_ms).collect();
    m.extend([
        Metric::single("serve.update_p95_ms", "ms", percentile(&upd_latency, 0.95)),
        Metric::single("serve.update_engine_ms", "ms", median(&upd_engine)),
        Metric::single("serve.query_after_update_ms", "ms", median(&after_update)),
        Metric::single("serve.compact_ms", "ms", compact_ms),
    ]);

    let id = tr.enter("serve", "serve.shutdown", "");
    let exit = serving.daemon.shutdown()?;
    tr.counter(id, "max_rss_kib", exit.max_rss_kib as f64);
    tr.counter(id, "cpu_s", exit.cpu_s);
    tr.exit(id);
    Ok(100.0 * overhead / p50_latency)
}
