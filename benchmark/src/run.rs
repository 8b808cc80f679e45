//! What every workload shares: where files go, how fixtures are built
//! through the `light` CLI, how a count is taken and checked, and the
//! result a run reports.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::gen::{write_edge_list, EdgeList};
use crate::host::HostShape;
use crate::json::{obj, Json};
use crate::proc::{run_capture, Captured};
use crate::rng::SplitMix64;
use crate::workload::{Cell, Workload};
use crate::{oracle, stats};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPEATS`, then more while they have taken less than
/// `SETUP_FILL_S` together, up to `SETUP_MAX_REPEATS`. A 60 ms set-up is
/// thus repeated until a 15 ms hiccup of the box no longer moves the median.
pub const SETUP_MIN_REPEATS: usize = 5;
pub const SETUP_MAX_REPEATS: usize = 15;
pub const SETUP_FILL_S: f64 = 1.5;
/// The seed `goldens.json` holds counts for.
pub const GOLDEN_SEED: u64 = 1;

/// One run's surroundings.
#[derive(Clone)]
pub struct Env {
    /// The built `light` binary.
    pub light: PathBuf,
    /// The benchmark's own `e2e` binary; its `graph` subcommand generates
    /// the full-size graphs in a process of its own (see [`Source`]).
    pub e2e: PathBuf,
    /// The benchmark's own directory (`benchmark/`), relative to the
    /// checkout root the run starts in.
    pub bench_dir: PathBuf,
    pub host: HostShape,
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
}

impl Env {
    /// Private scratch directory of one workload; short and relative, so
    /// a socket path inside it stays under the 108-byte limit.
    pub fn work_dir(&self, w: &Workload) -> PathBuf {
        self.bench_dir.join("fixtures").join(w.name)
    }

    pub fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }

    pub fn threads(&self) -> usize {
        self.host.parallelism()
    }
}

/// One reported number with how many samples it summarises and its
/// `spread`. Every timing is a median of a handful of values — set-ups, or
/// one statistic taken on each segment of the timed window — and its spread
/// is the inter-quartile range of that median's own sampling distribution
/// (`stats::median_iqr`) as a share of it: how far a repetition would move
/// the reported number, half of the time.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub spread: f64,
}

impl Metric {
    /// The median of `samples`.
    pub fn of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let value = stats::median(samples);
        Metric {
            name: name.to_string(),
            unit,
            value,
            n: samples.len(),
            spread: stats::median_iqr(samples) / value,
        }
    }

    /// A single observed value.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            spread: 0.0,
        }
    }
}

/// A statistic of a window with its spread (see [`Metric`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub spread: f64,
}

/// The latency samples of one timed window, summarised.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub p50: Stat,
    pub p90: Stat,
    /// Operations a second per request in flight: a closed loop with k
    /// requests in flight completes k / (mean latency) a second. Taken from
    /// the latencies, a continuous quantity, because a count of completions
    /// per segment moves by a whole `count_*` pass in five.
    pub rate: Stat,
    pub n: usize,
}

/// A window's samples are cut, in due order, into this many segments of
/// equal count. Each statistic is taken on every segment and the median of
/// the segments' values is reported: the box has slow episodes of a few
/// seconds (README.md, "Steadiness"), and an episode that owns one or two
/// segments moves no median of five.
pub const SEGMENTS: usize = 5;

/// Summarise `(at_s, latency_ms)` samples falling in `[from_s, until_s)`,
/// `at_s` being when the operation was due. Fewer samples than segments is
/// an error: the window is too short for the workload.
pub fn summarise(samples: &[(f64, f64)], from_s: f64, until_s: f64) -> Result<Window, String> {
    let mut inside: Vec<(f64, f64)> = samples
        .iter()
        .copied()
        .filter(|&(at_s, _)| at_s >= from_s && at_s < until_s)
        .collect();
    let n = inside.len();
    if n < SEGMENTS {
        return Err(format!(
            "the timed window [{from_s:.1} s, {until_s:.1} s) completed {n} operations, fewer than {SEGMENTS}"
        ));
    }
    inside.sort_by(|a, b| a.0.total_cmp(&b.0));
    let all: Vec<f64> = inside.iter().map(|&(_, latency_ms)| latency_ms).collect();
    let over_segments = |f: &dyn Fn(&[f64]) -> f64| -> Stat {
        let values: Vec<f64> = (0..SEGMENTS)
            .map(|i| f(&all[i * n / SEGMENTS..(i + 1) * n / SEGMENTS]))
            .collect();
        let value = stats::median(&values);
        Stat {
            value,
            spread: stats::median_iqr(&values) / value,
        }
    };
    Ok(Window {
        p50: over_segments(&stats::median),
        p90: over_segments(&|s| stats::percentile(s, 0.90)),
        rate: over_segments(&|s| 1e3 * s.len() as f64 / s.iter().sum::<f64>()),
        n,
    })
}

/// The five end-to-end metrics every workload reports. `in_flight` is how
/// many operations the closed loop behind `throughput` keeps in flight.
pub fn end_to_end(
    setup_s: &[f64],
    latency: &Window,
    throughput: &Window,
    in_flight: f64,
    peak_rss_kib: u64,
) -> Vec<Metric> {
    let stat = |name: &str, unit, s: Stat, n| Metric {
        name: name.to_string(),
        unit,
        value: s.value,
        n,
        spread: s.spread,
    };
    vec![
        Metric::of("setup_s", "s", setup_s),
        stat("latency_p50_ms", "ms", latency.p50, latency.n),
        stat("latency_p90_ms", "ms", latency.p90, latency.n),
        stat(
            "throughput_per_s",
            "1/s",
            Stat {
                value: throughput.rate.value * in_flight,
                ..throughput.rate
            },
            throughput.n,
        ),
        Metric::single("peak_rss_mib", "MiB", mib(peak_rss_kib)),
    ]
}

/// A note for the result when `peak_kib`, the children's reported peak RSS,
/// does not exceed this harness's own: the kernel hands a child its
/// parent's high-water mark, so the figure is then the harness's.
pub fn rss_floor_note(peak_kib: u64) -> Option<String> {
    let own = crate::proc::own_peak_rss_kib();
    (peak_kib <= own).then(|| {
        format!(
            "peak_rss_mib {:.1} is not above the harness's own peak {:.1}: it is a floor, not a measurement",
            mib(peak_kib),
            mib(own)
        )
    })
}

/// What one workload run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Every count check passed and no operation failed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Failed checks, in words.
    pub problems: Vec<String>,
    /// Observations that are no failure of this run.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The one-line object the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`, each metric a value and a unit.
    pub fn contract_line(&self) -> String {
        self.json(false).render()
    }

    /// The richer form `result.json` keeps: each metric also carries its
    /// sample count and spread.
    pub fn to_json(&self) -> Json {
        self.json(true)
    }

    fn json(&self, detailed: bool) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::F64(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.into())),
                ];
                if detailed {
                    fields.push(("n".to_string(), Json::U64(m.n as u64)));
                    fields.push(("spread".to_string(), Json::F64(m.spread)));
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Every metric by name with unit, sample count and spread.
    pub fn print_table(&self) {
        println!(
            "== {}: attempted {}, failed {}, correct {}",
            self.workload, self.attempted, self.failed, self.correct
        );
        for m in &self.metrics {
            println!(
                "  {:<34} {:>14.4} {:<6} n={:<6} spread={:.1}%",
                m.name,
                m.value,
                m.unit,
                m.n,
                100.0 * m.spread
            );
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
        for n in &self.notes {
            println!("  NOTE: {n}");
        }
    }
}

/// The files of one built fixture.
pub struct Built {
    pub text: PathBuf,
    pub snapshot: PathBuf,
}

impl Built {
    pub fn path(&self, cell: &Cell) -> &Path {
        if cell.text {
            &self.text
        } else {
            &self.snapshot
        }
    }
}

/// The workload's graph for this seed.
pub fn generate(w: &Workload, seed: u64) -> EdgeList {
    w.fixture
        .spec
        .generate(&mut SplitMix64::stream(seed, w.fixture.graph))
}

/// Where a fixture's edges come from.
pub enum Source<'a> {
    /// A graph already in memory: the small twins.
    Edges(&'a EdgeList),
    /// The workload's full-size graph for `env.seed`, generated and written
    /// by a child `e2e graph` process. A child spawned by this process
    /// starts with this process's peak RSS as its own `ru_maxrss` (the
    /// kernel carries the high-water mark across `vfork` + `exec`), so a
    /// harness that had held a 20 MB edge list would report 20 MB for every
    /// `light` child after it. Generating out of process keeps the
    /// harness's peak below any `light` process's.
    Workload(&'a Workload),
}

/// Write the source's edges as text into `dir/<stem>.txt` and convert them
/// with `light convert --to snapshot-v2` into `dir/<stem>.v2`.
pub fn build_fixture(env: &Env, source: Source, dir: &Path, stem: &str) -> Result<Built, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let text = dir.join(format!("{stem}.txt"));
    let snapshot = dir.join(format!("{stem}.v2"));
    match source {
        Source::Edges(g) => {
            let file = std::fs::File::create(&text)
                .map_err(|e| format!("cannot create {}: {e}", text.display()))?;
            write_edge_list(g, file)
                .map_err(|e| format!("cannot write {}: {e}", text.display()))?;
        }
        Source::Workload(w) => {
            let c = run_capture(
                Command::new(&env.e2e)
                    .arg("graph")
                    .args(["--workload", w.name])
                    .args(["--seed", &env.seed.to_string()])
                    .arg("--out")
                    .arg(&text),
            )
            .map_err(|e| format!("cannot run {}: {e}", env.e2e.display()))?;
            if !c.exit.success() {
                return Err(format!("e2e graph failed: {}", c.stderr.trim()));
            }
        }
    }
    // `convert` warns when the output exists; a fresh file keeps reruns
    // identical to first runs.
    let _ = std::fs::remove_file(&snapshot);
    let c = run_capture(
        Command::new(&env.light)
            .arg("convert")
            .arg(&text)
            .arg(&snapshot)
            .args(["--to", "snapshot-v2"]),
    )
    .map_err(|e| format!("cannot run {}: {e}", env.light.display()))?;
    if !c.exit.success() {
        return Err(format!("light convert failed: {}", c.stderr.trim()));
    }
    Ok(Built { text, snapshot })
}

/// One `light count` run: its count and the process's cost.
pub struct Counted {
    pub matches: u64,
    pub run: Captured,
}

/// `light count --pattern <p> --graph <file> --threads <t>`, default flags
/// otherwise. An unsuccessful exit or an unparsable count is an error.
pub fn light_count(
    env: &Env,
    pattern: &str,
    graph: &Path,
    threads: usize,
) -> Result<Counted, String> {
    let run = run_capture(
        Command::new(&env.light)
            .arg("count")
            .args(["--pattern", pattern])
            .arg("--graph")
            .arg(graph)
            .args(["--threads", &threads.to_string()]),
    )
    .map_err(|e| format!("cannot run {}: {e}", env.light.display()))?;
    if !run.exit.success() {
        return Err(format!(
            "light count {pattern} on {} exited with {:?}: {}",
            graph.display(),
            run.exit.code,
            run.stderr.trim()
        ));
    }
    let matches = parse_field(&run.stdout, "matches:")
        .ok_or_else(|| format!("no match count in output {:?}", run.stdout))?;
    Ok(Counted { matches, run })
}

/// The integer after `label` on the line of `light count` output that
/// starts with it.
pub fn parse_field(stdout: &str, label: &str) -> Option<u64> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Collects failed checks.
#[derive(Default)]
pub struct Checks {
    /// Checks made so far, passed or not.
    pub performed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn equal(&mut self, what: &str, got: u64, want: u64) -> bool {
        self.performed += 1;
        if got != want {
            self.problems
                .push(format!("{what}: got {got}, expected {want}"));
        }
        got == want
    }

    pub fn fail(&mut self, what: String) {
        self.performed += 1;
        self.problems.push(what);
    }
}

/// The untimed correctness gate run before any set-up is timed. Returns
/// the expected count per pattern on the full-size fixture.
///
/// 1. Brute force: on the ~1/100-scale twin drawn from the same seed,
///    `light count` must agree with the benchmark's own oracle.
/// 2. Cross-path: the expected counts are taken with `--threads 1`; the
///    timed runs (`--threads T`, served, batched) must reproduce them.
/// 3. Goldens: for the default seed the counts must equal the committed
///    `goldens.json`.
pub fn verify(
    env: &Env,
    w: &Workload,
    checks: &mut Checks,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let dir = env.work_dir(w);
    let twin_spec = w.fixture.spec.scaled_down();
    let twin = twin_spec.generate(&mut SplitMix64::stream(
        env.seed,
        &format!("{}.twin", w.fixture.graph),
    ));
    let twin_files = build_fixture(env, Source::Edges(&twin), &dir, "twin")?;
    let full = build_fixture(env, Source::Workload(w), &dir, "verify")?;
    let goldens = load_goldens(env)?;
    let mut expected = BTreeMap::new();
    for pattern in w.patterns() {
        let served = light_count(env, pattern, &twin_files.text, env.threads())?.matches;
        checks.equal(
            &format!("{pattern} on the {} twin vs brute force", w.fixture.graph),
            served,
            oracle::count(&twin, pattern),
        );
        let serial = light_count(env, pattern, &full.snapshot, 1)?.matches;
        if env.seed == GOLDEN_SEED {
            match goldens
                .get(w.fixture.graph)
                .and_then(|f| f.get(pattern))
                .and_then(Json::as_u64)
            {
                Some(want) => {
                    checks.equal(
                        &format!("{pattern} on {} vs goldens.json", w.fixture.graph),
                        serial,
                        want,
                    );
                }
                None => checks.fail(format!(
                    "goldens.json has no count for {pattern} on {}",
                    w.fixture.graph
                )),
            }
        }
        expected.insert(pattern, serial);
    }
    for f in [
        &twin_files.text,
        &twin_files.snapshot,
        &full.text,
        &full.snapshot,
    ] {
        let _ = std::fs::remove_file(f);
    }
    Ok(expected)
}

fn load_goldens(env: &Env) -> Result<Json, String> {
    let path = env.bench_dir.join("goldens.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Time the run's set-ups (see `SETUP_MIN_REPEATS`); the last one's
/// product is kept for the timed section, the earlier ones are torn down by
/// `discard` (untimed).
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(SETUP_MAX_REPEATS);
    let mut kept = None;
    while samples.len() < SETUP_MIN_REPEATS
        || (samples.len() < SETUP_MAX_REPEATS && samples.iter().sum::<f64>() < SETUP_FILL_S)
    {
        if let Some(prev) = kept.take() {
            discard(prev)?;
        }
        let t0 = Instant::now();
        kept = Some(setup()?);
        samples.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_MIN_REPEATS >= 1"), samples))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_light_count_output() {
        let out =
            "matches:            604375\noutcome:            Complete\nset intersections:  12\n";
        assert_eq!(parse_field(out, "matches:"), Some(604375));
        assert_eq!(parse_field(out, "set intersections:"), Some(12));
        assert_eq!(parse_field(out, "nothing:"), None);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = RunResult {
            workload: "w",
            attempted: 10,
            failed: 0,
            correct: true,
            metrics: vec![Metric::of("latency_p50_ms", "ms", &[1.0, 2.0, 4.0])],
            problems: vec![],
            notes: vec![],
        };
        let j = Json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.path("metrics.latency_p50_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(m.as_obj().unwrap().len(), 2);
        assert_eq!(
            r.to_json()
                .path("metrics.latency_p50_ms.n")
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn windows_report_medians_over_their_segments() {
        // 90 samples, one every 0.1 s, latency = 10 + index ms.
        let samples: Vec<(f64, f64)> = (0..90).map(|i| (i as f64 * 0.1, 10.0 + i as f64)).collect();
        let w = summarise(&samples, 0.0, 9.0).unwrap();
        assert_eq!(w.n, 90);
        // Segments of 18: medians 18.5, 36.5, 54.5, 72.5, 90.5.
        assert_eq!(w.p50.value, 54.5);
        // Ranks 2.246 and 3.754 of those: 18 · 1.508 apart.
        assert!((w.p50.spread - 18.0 * 1.508 / 54.5).abs() < 1e-3);
        // p90 of 18 is the 17th: 10 + 36 + 16 in the middle segment.
        assert_eq!(w.p90.value, 62.0);
        // Mean latency 54.5 ms there: 18.35 a second per request in flight.
        assert!((w.rate.value - 1e3 / 54.5).abs() < 1e-9);
        // A window ignores what lies outside it, in whatever order it came.
        let mut reversed = samples.clone();
        reversed.reverse();
        let late = summarise(&reversed, 6.0, 9.0).unwrap();
        assert_eq!((late.n, late.p50.value), (30, 84.5));
        assert!(summarise(&samples, 8.7, 30.0).is_err());
        let m = end_to_end(&[1.0, 2.0, 3.0], &w, &late, 2.0, 2048);
        assert_eq!(m.len(), crate::catalog::END_TO_END.len());
        assert!((m[3].value - 2e3 / 84.5).abs() < 1e-9);
        assert_eq!((m[0].value, m[4].value), (2.0, 2.0));
        for (got, want) in m.iter().zip(crate::catalog::END_TO_END) {
            assert_eq!((got.name.as_str(), got.unit), (want.0, want.1));
        }
    }

    #[test]
    fn a_slow_episode_moves_no_median_of_segments() {
        // 200 requests at 1 ms; 30 consecutive ones, 15 % of the run and
        // most of one segment, take 50 ms.
        let samples: Vec<(f64, f64)> = (0..200)
            .map(|i| (i as f64, if (45..75).contains(&i) { 50.0 } else { 1.0 }))
            .collect();
        let w = summarise(&samples, 0.0, 200.0).unwrap();
        assert_eq!((w.p50.value, w.p90.value), (1.0, 1.0));
        assert!((w.rate.value - 1e3).abs() < 1e-9);
        assert_eq!((w.p50.spread, w.p90.spread, w.rate.spread), (0.0, 0.0, 0.0));
    }

    #[test]
    fn setups_keep_the_last_and_discard_the_rest() {
        let mut made = 0;
        let mut discarded = Vec::new();
        // Instant set-ups never fill SETUP_FILL_S: the maximum is made.
        let (kept, samples) = timed_setups(
            || {
                made += 1;
                Ok(made)
            },
            |x| {
                discarded.push(x);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(kept, SETUP_MAX_REPEATS);
        assert_eq!(samples.len(), SETUP_MAX_REPEATS);
        assert_eq!(discarded, (1..SETUP_MAX_REPEATS).collect::<Vec<_>>());
        // Slow ones stop at the minimum.
        let (_, slow) = timed_setups(
            || {
                std::thread::sleep(Duration::from_secs_f64(SETUP_FILL_S / 4.0));
                Ok(())
            },
            |()| Ok(()),
        )
        .unwrap();
        assert_eq!(slow.len(), SETUP_MIN_REPEATS);
    }
}
