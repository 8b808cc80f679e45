//! End-to-end flows through the public (umbrella) API: datasets, planning,
//! serial + parallel enumeration, budgets, and persistence.

use std::time::Duration;

use light::core::Outcome;
use light::graph::datasets::Dataset;
use light::order::QueryPlan;
use light::prelude::*;

#[test]
fn full_pipeline_on_simulated_dataset() {
    let g = Dataset::Yt.build_scaled(0.05);
    for q in [Query::Triangle, Query::P1, Query::P2, Query::P3] {
        let serial = run_query(&q.pattern(), &g, &EngineConfig::light());
        assert!(serial.is_complete());
        let par = run_query_parallel(
            &q.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(3),
        );
        assert_eq!(par.report.matches, serial.matches, "{}", q.name());
    }
}

#[test]
fn plans_expose_paper_structures() {
    let g = Dataset::Yt.build_scaled(0.05);
    let plan = QueryPlan::optimized(&Query::P2.pattern(), &g);
    // Lazy plan on the diamond: exactly one real intersection per path.
    assert_eq!(plan.per_path_intersections(), 1);
    // Execution order has 2n-1 ops and validates.
    assert_eq!(plan.sigma().len(), 7);
    assert!(plan.execution_order().validate(plan.pattern()).is_ok());
}

#[test]
fn snapshot_roundtrip_through_enumeration() {
    let g = Dataset::Eu.build_scaled(0.03);
    let bytes = light::graph::io::to_snapshot_v2(&g);
    let g2 = light::graph::io::from_snapshot(&bytes).unwrap();
    let a = run_query(&Query::Triangle.pattern(), &g, &EngineConfig::light()).matches;
    let b = run_query(&Query::Triangle.pattern(), &g2, &EngineConfig::light()).matches;
    assert_eq!(a, b);
}

#[test]
fn edge_list_import_path() {
    let text = "# tiny graph\n0 1\n1 2\n2 0\n2 3\n3 0\n";
    let raw = light::graph::io::read_edge_list(text.as_bytes()).unwrap();
    let (g, _) = light::graph::ordered::into_degree_ordered(&raw);
    let r = run_query(&Query::Triangle.pattern(), &g, &EngineConfig::light());
    assert_eq!(r.matches, 2); // {0,1,2} and {0,2,3}
}

#[test]
fn time_budget_is_honored_end_to_end() {
    let g = light::graph::generators::complete(200);
    let cfg = EngineConfig::light().budget(Duration::from_millis(20));
    let r = run_query(&Query::P7.pattern(), &g, &cfg);
    assert_eq!(r.outcome, Outcome::OutOfTime);
    // It must return promptly (within a generous multiple of the budget).
    assert!(r.elapsed < Duration::from_secs(5));
}

#[test]
fn all_patterns_complete_on_yt() {
    // The Fig. 8 headline at test scale: LIGHT completes every pattern on
    // the sparse dataset. (The dense analogs at debug-build speed are
    // exercised pattern-by-pattern below and at full scale by the
    // fig8_overall harness.)
    let g = Dataset::Yt.build_scaled(0.02);
    for q in Query::ALL {
        let cfg = EngineConfig::light().budget(Duration::from_secs(60));
        let r = run_query(&q.pattern(), &g, &cfg);
        assert!(r.is_complete(), "{} on yt did not complete", q.name());
    }
}

#[test]
fn dense_patterns_complete_on_every_dataset() {
    // Dense patterns have small outputs, so they stay debug-feasible on
    // every dataset analog.
    for d in Dataset::ALL {
        let g = d.build_scaled(0.01);
        for q in [Query::P2, Query::P3, Query::P7] {
            let cfg = EngineConfig::light().budget(Duration::from_secs(60));
            let r = run_query(&q.pattern(), &g, &cfg);
            assert!(
                r.is_complete(),
                "{} on {} did not complete",
                q.name(),
                d.name()
            );
        }
    }
}

#[test]
fn collecting_api_returns_verified_matches() {
    let g = Dataset::Yt.build_scaled(0.02);
    let p = Query::P2.pattern();
    let (report, matches) = light::core::run_query_collecting(&p, &g, &EngineConfig::light());
    assert_eq!(report.matches as usize, matches.len());
    for m in matches.iter().take(500) {
        for (a, b) in p.edges() {
            assert!(g.contains_edge(m[a as usize], m[b as usize]));
        }
    }
}
