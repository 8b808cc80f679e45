//! Fig. 4 — execution time of the redundancy-reduction comparison.
//!
//! Serial (1 thread), no SIMD — exactly §VIII-B1's setup: EH, CFL, SE, LM,
//! MSC and LIGHT on P2, P4, P6 over yt and lj. SE/LM/MSC/LIGHT share the
//! same enumeration order π (the §VI optimizer's choice); EH and CFL use
//! their own orders.
//!
//! Paper shape to reproduce: LIGHT fastest everywhere; LM close behind;
//! MSC ≈ SE on P4 (no per-path reduction) but better on P2/P6; EH worse
//! than SE on P2 (non-connected order) and OOS on P4/P6; CFL ≈ SE on
//! P2/P6, worse or failing on P4.

use std::time::Duration;

use light_bench::{dataset, fmt_secs, scale, space_budget, time_budget, TablePrinter};
use light_core::{EngineConfig, EngineVariant, Outcome};
use light_distributed::{Budget, CflSim, EhSim, SimOutcome};
use light_graph::datasets::Dataset;
use light_pattern::Query;
use light_setops::IntersectKind;

fn main() {
    let s = scale(0.05);
    let tb = time_budget(60);
    let sb = space_budget(256);
    println!(
        "Fig. 4: serial execution time (s), scale {s}, budget {}s/{}MB",
        tb.as_secs(),
        sb >> 20
    );
    println!("algorithms: EH, CFL, SE, LM, MSC, LIGHT (serial, scalar Merge — no SIMD)\n");

    let queries = [Query::P2, Query::P4, Query::P6];
    let datasets = [Dataset::Yt, Dataset::Lj];

    let mut t = TablePrinter::new(&["case", "EH", "CFL", "SE", "LM", "MSC", "LIGHT", "matches"]);
    let mut split_rows: Vec<(String, EngineVariant, light_metrics::Summary)> = Vec::new();
    for d in datasets {
        let g = dataset(d, s);
        for q in queries {
            let p = q.pattern();
            let budget = Budget::unlimited().with_time(tb).with_bytes(sb);

            let eh = EhSim::run(&p, &g, &budget);
            let cfl = CflSim::run(&p, &g, &budget);

            let mut cells = vec![format!("{} on {}", q.name(), d.name())];
            cells.push(sim_cell(eh.outcome, eh.elapsed));
            cells.push(sim_cell(cfl.outcome, cfl.elapsed));

            let mut matches = None;
            for v in EngineVariant::ALL {
                // Fig. 4 isolates the redundancy techniques: serial, scalar.
                let rec = light_metrics::Recorder::new();
                let cfg = EngineConfig::with_variant(v)
                    .intersect(IntersectKind::MergeScalar)
                    .budget(tb)
                    .metrics(rec.clone());
                let r = light_core::run_query(&p, &g, &cfg);
                cells.push(match r.outcome {
                    Outcome::Complete => fmt_secs(r.elapsed),
                    _ => "INF".into(),
                });
                if r.outcome == Outcome::Complete {
                    matches = Some(r.matches);
                }
                if r.outcome == Outcome::Complete {
                    split_rows.push((format!("{} on {}", q.name(), d.name()), v, rec.summary()));
                }
            }
            cells.push(
                matches
                    .map(light_bench::fmt_count)
                    .unwrap_or_else(|| "-".into()),
            );
            t.row(&cells);
        }
    }
    t.print();
    println!("\nINF = out of time budget, OOS = out of space budget (paper: missing bar).");
    print_split(&split_rows);
    print_shape_notes();
}

/// The recorder's per-stage split: where each variant's time goes. LM/LIGHT
/// convert COMP copies into aliases (alias share ↑) and MSC/LIGHT shrink
/// the COMP count itself — the mechanism behind the Fig. 4 ranking, now
/// measured instead of inferred.
fn print_split(rows: &[(String, EngineVariant, light_metrics::Summary)]) {
    if rows.is_empty() {
        return;
    }
    println!("\nrecorder: COMP/MAT split per variant (sampled wall time, estimated totals)");
    let mut t = TablePrinter::new(&[
        "case",
        "variant",
        "COMP(s)",
        "MAT-incl(s)",
        "COMP calls",
        "alias share",
    ]);
    for (case, v, s) in rows {
        let alias_pct = if s.alias_assignments + s.owned_intersections > 0 {
            100.0 * s.alias_assignments as f64
                / (s.alias_assignments + s.owned_intersections) as f64
        } else {
            0.0
        };
        t.row(&[
            case.clone(),
            v.name().into(),
            format!("{:.2}", s.comp_est_ns as f64 / 1e9),
            format!("{:.2}", s.mat_est_ns as f64 / 1e9),
            light_bench::fmt_count(s.comp_calls),
            format!("{alias_pct:.0}%"),
        ]);
    }
    t.print();
}

fn sim_cell(outcome: SimOutcome, elapsed: Duration) -> String {
    match outcome {
        SimOutcome::Done => fmt_secs(elapsed),
        SimOutcome::OutOfTime => "INF".into(),
        SimOutcome::OutOfSpace => "OOS".into(),
    }
}

fn print_shape_notes() {
    println!("paper shape: LIGHT < LM <= MSC/SE; EH >> SE on P2; EH fails P4/P6 (OOS);");
    println!("             CFL ~ SE on P2/P6; MSC ~ SE on P4 (set cover cannot help there).");
}
