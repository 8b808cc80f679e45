//! Differential test for concurrent same-graph queries: every query takes
//! its own plan → `run_plan_parallel` pass, with plans shared the way the
//! serve tier's plan cache shares them, and the counts must be
//! **bit-identical** to independent one-shot engine runs — for duplicate
//! queries, beside a sibling that runs out of time, and end to end
//! through the query service.

use std::sync::Arc;
use std::time::Duration;

use light::core::{run_query, EngineConfig, Outcome};
use light::graph::generators;
use light::graph::CsrGraph;
use light::order::QueryPlan;
use light::parallel::{run_plan_parallel, ParallelConfig};
use light::pattern::{PatternGraph, Query};

/// The full pattern catalog: the paper's P1..P7 plus the triangle.
fn catalog() -> Vec<Query> {
    let mut qs = vec![Query::Triangle];
    qs.extend(Query::ALL);
    qs
}

/// One-shot reference counts under the same engine configuration.
fn one_shot(qs: &[Query], g: &CsrGraph, cfg: &EngineConfig) -> Vec<u64> {
    qs.iter()
        .map(|q| run_query(&q.pattern(), g, cfg).matches)
        .collect()
}

/// Runs every `(plan, config)` pair on its own thread at once, each with
/// `threads` workers, and returns the reports in input order.
fn run_concurrently(
    g: &Arc<CsrGraph>,
    runs: Vec<(Arc<QueryPlan>, EngineConfig)>,
    threads: usize,
) -> Vec<light::parallel::ParallelReport> {
    let handles: Vec<_> = runs
        .into_iter()
        .map(|(plan, cfg)| {
            let g = Arc::clone(g);
            std::thread::spawn(move || {
                run_plan_parallel(&plan, &g, &cfg, &ParallelConfig::new(threads))
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Duplicate queries (the common serving case: several clients asking
/// the same pattern at once) share one cached plan, run side by side, and
/// each still gets the exact count.
#[test]
fn duplicate_members_each_get_the_exact_count() {
    let g = Arc::new(generators::barabasi_albert(300, 4, 13));
    let cfg = EngineConfig::light();
    let qs = vec![
        Query::Triangle,
        Query::P1,
        Query::Triangle,
        Query::P1,
        Query::Triangle,
    ];
    let expect = one_shot(&qs, &g, &cfg);
    let tri = Arc::new(cfg.plan(&Query::Triangle.pattern(), &g));
    let p1 = Arc::new(cfg.plan(&Query::P1.pattern(), &g));
    for threads in [1, 4] {
        let runs = qs
            .iter()
            .map(|q| {
                let plan = if *q == Query::Triangle { &tri } else { &p1 };
                (Arc::clone(plan), cfg.clone())
            })
            .collect();
        let reports = run_concurrently(&g, runs, threads);
        for (m, q) in qs.iter().enumerate() {
            assert!(reports[m].failures.is_empty());
            assert_eq!(reports[m].report.outcome, Outcome::Complete);
            assert_eq!(
                reports[m].report.matches,
                expect[m],
                "{threads}t: duplicate {} #{m} must be exact",
                q.name()
            );
        }
    }
}

/// A query whose budget expires (zero budget: the earliest possible
/// expiry, on a 6-edge path far too large to finish before the first
/// budget poll) is isolated from the
/// queries running beside it: `OutOfTime` for it, exact counts for every
/// sibling.
#[test]
fn timed_out_member_never_perturbs_siblings() {
    let qs = catalog();
    let g = Arc::new(generators::barabasi_albert(300, 4, 13));
    let cfg = EngineConfig::light();
    let expect = one_shot(&qs, &g, &cfg);
    let slow = PatternGraph::parse("0-1,1-2,2-3,3-4,4-5,5-6").unwrap();
    let victim_cfg = EngineConfig::light().budget(Duration::ZERO);
    for threads in [1, 4] {
        let mut runs: Vec<_> = qs
            .iter()
            .map(|q| (Arc::new(cfg.plan(&q.pattern(), &g)), cfg.clone()))
            .collect();
        let victim = 1;
        runs.insert(
            victim,
            (Arc::new(victim_cfg.plan(&slow, &g)), victim_cfg.clone()),
        );
        let mut reports = run_concurrently(&g, runs, threads);
        let victim_report = reports.remove(victim);
        assert_eq!(
            victim_report.report.outcome,
            Outcome::OutOfTime,
            "{threads}t: zero budget must expire"
        );
        for (m, q) in qs.iter().enumerate() {
            assert_eq!(reports[m].report.outcome, Outcome::Complete);
            assert_eq!(
                reports[m].report.matches,
                expect[m],
                "{threads}t: sibling {} must be exact despite the timeout",
                q.name()
            );
        }
    }
}

/// End to end through the serve tier: concurrent same-graph queries each
/// run their own pass, every response carries the exact one-shot count,
/// and no response carries a `batch` field.
#[test]
fn serve_tier_batched_responses_match_one_shot() {
    use light::serve::json::Json;
    use light::serve::{GraphCatalog, QueryService, ServeConfig};

    let g = generators::barabasi_albert(300, 4, 13);
    let qs = catalog();
    let expect = one_shot(&qs, &g, &EngineConfig::light());

    let mut cat = GraphCatalog::new();
    cat.insert("g", g).unwrap();
    let svc = Arc::new(QueryService::new(
        cat,
        ServeConfig {
            max_concurrent: qs.len(),
            queue_depth: 2 * qs.len(),
            ..ServeConfig::default()
        },
    ));

    for round in 0..3 {
        let handles: Vec<_> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let svc = Arc::clone(&svc);
                let pat = q.name().to_string();
                std::thread::spawn(move || {
                    svc.handle_line(&format!(
                        "{{\"op\":\"query\",\"pattern\":\"{pat}\",\"id\":\"r{round}-m{i}\"}}"
                    ))
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let resp = h.join().unwrap();
            let doc = Json::parse(&resp).unwrap();
            assert_eq!(
                doc.get("status").and_then(Json::as_str),
                Some("ok"),
                "{resp}"
            );
            assert_eq!(
                doc.get("matches").and_then(Json::as_u64),
                Some(expect[i]),
                "round {round}: {} through the service must be exact",
                qs[i].name()
            );
            assert!(doc.get("batch").is_none(), "{resp}");
        }
    }
    let stats = svc.handle_line("{\"op\":\"stats\",\"id\":\"s\"}");
    let doc = Json::parse(&stats).unwrap();
    let q = doc.get("queries").expect("queries object");
    let total = 3 * qs.len() as u64;
    assert_eq!(
        q.get("total").and_then(Json::as_u64),
        Some(total),
        "{stats}"
    );
    assert_eq!(q.get("ok").and_then(Json::as_u64), Some(total), "{stats}");
}
