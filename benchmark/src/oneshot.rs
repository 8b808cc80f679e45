//! The `count_*` workloads: cold `light count` processes, one per cell,
//! timed from process spawn to exit.

use std::time::Instant;

use crate::run::{
    build_fixture, end_to_end, light_count, ms, rss_floor_note, summarise, timed_setups, verify,
    Built, Checks, Env, RunResult, Source,
};
use crate::workload::Workload;

/// Passes timed at the least, however short `--seconds` is: one a segment.
const MIN_PASSES: usize = crate::run::SEGMENTS;

pub fn run(env: &Env, w: &'static Workload) -> Result<RunResult, String> {
    let dir = env.work_dir(w);
    let mut checks = Checks::default();
    let expected = verify(env, w, &mut checks)?;
    let (mut attempted, mut failed) = (0u64, 0u64);

    // One pass: every cell once. Returns the pass wall in ms (the sum of
    // the cells' spawn-to-exit times) and the largest child RSS.
    let mut pass = |built: &Built, checks: &mut Checks| -> Result<(f64, u64), String> {
        let (mut wall, mut rss) = (0.0, 0u64);
        for cell in w.cells {
            attempted += 1;
            let c = light_count(env, cell.pattern, built.path(cell), env.threads())?;
            if !checks.equal(cell.name, c.matches, expected[cell.pattern]) {
                failed += 1;
            }
            wall += ms(c.run.wall);
            rss = rss.max(c.run.exit.max_rss_kib);
        }
        Ok((wall, rss))
    };

    // Set-up, never memoised: generate, write, convert, one untimed pass.
    let (built, setup_s) = timed_setups(
        || {
            let built = build_fixture(env, Source::Workload(w), &dir, w.fixture.graph)?;
            pass(&built, &mut checks)?;
            Ok(built)
        },
        |_| Ok(()),
    )?;

    let start = Instant::now();
    let (mut passes, mut peak_rss) = (Vec::new(), 0u64);
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < env.seconds {
        let at_s = start.elapsed().as_secs_f64();
        let (wall, rss) = pass(&built, &mut checks)?;
        passes.push((at_s, wall));
        peak_rss = peak_rss.max(rss);
    }
    let window = summarise(&passes, 0.0, f64::INFINITY)?;

    Ok(RunResult {
        workload: w.name,
        attempted,
        failed,
        correct: checks.problems.is_empty(),
        // Throughput counts queries: a pass in flight is `cells` queries.
        metrics: end_to_end(&setup_s, &window, &window, w.cells.len() as f64, peak_rss),
        problems: checks.problems,
        notes: rss_floor_note(peak_rss).into_iter().collect(),
    })
}
