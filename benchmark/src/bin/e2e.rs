//! `e2e` — the untraced, end-to-end half of the benchmark.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> [--trace 0]   one run; last stdout line is the result object
//! e2e [--seed <n>] [--seconds <s>]                              all six workloads; writes out/result.json
//! e2e compare <a.json> <b.json> [--benchmark BENCHMARK.json]    apply the bounds to two result files
//! e2e goldens                                                   print goldens.json for the default seed
//! e2e manifest                                                  print BENCHMARK.json from the metric catalog
//! e2e graph --workload <name> --seed <n> --out <file>           write one workload's graph as text (the harness
//!                                                               spawns this; see `run::Source`)
//! ```
//!
//! Common options: `--light <path>` (the built binary; default
//! `$CARGO_TARGET_DIR/release/light`, else `target/release/light`) and
//! `--bench-dir <dir>` (default `benchmark`). Runs start in the checkout
//! root.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use lightbench::compare::{compare, print_rows, Verdict};
use lightbench::gen::write_edge_list;
use lightbench::json::{obj, Json};
use lightbench::run::{build_fixture, generate, light_count, Env, Source, GOLDEN_SEED};
use lightbench::workload::{find, WORKLOADS};
use lightbench::{cli, run_workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some("goldens") => cli::parse(&args[1..]).and_then(|o| cmd_goldens(&o)),
        Some("graph") => cli::parse(&args[1..]).and_then(|o| cmd_graph(&o)),
        Some("manifest") => {
            print!("{}", lightbench::catalog::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => cli::parse(&args).and_then(|o| cmd_run(&o)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(opts: &cli::Opts) -> Result<ExitCode, String> {
    if opts.trace {
        return Err("--trace 1 is the `layers` binary's job (benchmark/run.sh dispatches)".into());
    }
    let env = opts.env();
    if let Some(name) = &opts.workload {
        let w = find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let result = run_workload(&env, w)?;
        result.print_table();
        // The contract: the result object is the last line of stdout. A
        // wrong count is reported in it (`correct: false`), not hidden
        // behind an exit code the driver would read as "did not run".
        println!("{}", result.contract_line());
        return Ok(ExitCode::SUCCESS);
    }
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let result = run_workload(&env, w)?;
        result.print_table();
        all_correct &= result.correct;
        workloads.push((w.name.to_string(), result.to_json()));
    }
    let doc = obj([
        ("seed", Json::U64(env.seed)),
        ("seconds", Json::F64(env.seconds)),
        ("host", env.host.to_json()),
        ("workloads", Json::Obj(workloads)),
    ]);
    let out = env.out_dir().join("result.json");
    std::fs::create_dir_all(env.out_dir())
        .and_then(|()| std::fs::write(&out, doc.render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.into();
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [a, b] = &files[..] else {
        return Err("usage: e2e compare <a.json> <b.json> [--benchmark BENCHMARK.json]".into());
    };
    let load = |p: &PathBuf| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare(&load(&benchmark)?, &load(a)?, &load(b)?)?;
    print_rows(&rows);
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Worse) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Counts for the default seed by two independent paths — the serial
/// engine over the mmapped snapshot and the parallel driver over the text
/// edge list — which must agree before anything is printed.
fn cmd_goldens(opts: &cli::Opts) -> Result<ExitCode, String> {
    let env = Env {
        seed: GOLDEN_SEED,
        ..opts.env()
    };
    let mut graphs: BTreeMap<&str, BTreeMap<&str, u64>> = BTreeMap::new();
    for w in &WORKLOADS {
        let built = build_fixture(&env, Source::Workload(w), &env.work_dir(w), "golden")?;
        for p in w.patterns() {
            let serial = light_count(&env, p, &built.snapshot, 1)?.matches;
            let parallel = light_count(&env, p, &built.text, env.threads().max(2))?.matches;
            if serial != parallel {
                return Err(format!(
                    "{p} on {}: serial {serial} != parallel {parallel}",
                    w.fixture.graph
                ));
            }
            graphs.entry(w.fixture.graph).or_default().insert(p, serial);
        }
        let _ = std::fs::remove_dir_all(env.work_dir(w));
    }
    let mut doc = vec![("seed".to_string(), Json::U64(env.seed))];
    for (graph, counts) in graphs {
        let counts = counts
            .into_iter()
            .map(|(p, n)| (p.to_string(), Json::U64(n)))
            .collect();
        doc.push((graph.to_string(), Json::Obj(counts)));
    }
    print!("{}", Json::Obj(doc).render_pretty());
    Ok(ExitCode::SUCCESS)
}

/// Generate one workload's full-size graph and write it as text.
fn cmd_graph(opts: &cli::Opts) -> Result<ExitCode, String> {
    let name = opts.workload.as_deref().ok_or("graph needs --workload")?;
    let w = find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let out = opts.out.as_deref().ok_or("graph needs --out")?;
    let file =
        std::fs::File::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    write_edge_list(&generate(w, opts.seed), file)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(ExitCode::SUCCESS)
}
