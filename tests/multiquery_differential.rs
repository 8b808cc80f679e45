//! Differential test for multi-query (batched) execution: counts emitted
//! by a shared pass must be **bit-identical** to independent one-shot
//! engine runs, across the full pattern catalog, serial and parallel
//! drivers, aux-cache and shared-aux configurations, and with members
//! being cancelled or timing out mid-batch — one member's fate must
//! never perturb a sibling's count (ISSUE 9 / DESIGN.md §16).

use std::sync::Arc;
use std::time::Duration;

use light::core::{
    run_multi, run_query, CancelToken, EngineConfig, MemberSpec, Outcome, SharedAuxStore,
};
use light::graph::generators;
use light::graph::CsrGraph;
use light::order::{MultiPlan, QueryPlan, MAX_MULTI_MEMBERS};
use light::parallel::{run_multi_parallel, ParallelConfig};
use light::pattern::Query;

/// The full pattern catalog: the paper's P1..P7 plus the triangle.
fn catalog() -> Vec<Query> {
    let mut qs = vec![Query::Triangle];
    qs.extend(Query::ALL);
    assert!(qs.len() <= MAX_MULTI_MEMBERS);
    qs
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("ba", generators::barabasi_albert(300, 4, 13)),
        ("grid", generators::grid(18, 18)),
    ]
}

fn plans(qs: &[Query], g: &CsrGraph, cfg: &EngineConfig) -> Vec<Arc<QueryPlan>> {
    qs.iter()
        .map(|q| Arc::new(cfg.plan(&q.pattern(), g)))
        .collect()
}

/// One-shot reference counts under the same engine configuration.
fn one_shot(qs: &[Query], g: &CsrGraph, cfg: &EngineConfig) -> Vec<u64> {
    qs.iter()
        .map(|q| run_query(&q.pattern(), g, cfg).matches)
        .collect()
}

/// The config matrix: baseline, intra-query aux cache off, and the
/// cross-query shared aux tier on (fresh store per leg).
fn config_legs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("base", EngineConfig::light()),
        ("aux-off", EngineConfig::light().aux_cache(false)),
        (
            "shared-aux",
            EngineConfig::light().shared_aux(Arc::new(SharedAuxStore::new(None)).at(0)),
        ),
    ]
}

#[test]
fn batched_counts_match_one_shot_across_catalog_serial_and_parallel() {
    let qs = catalog();
    for (gname, g) in graphs() {
        for (leg, cfg) in config_legs() {
            let expect = one_shot(&qs, &g, &cfg);
            let mp = MultiPlan::build(&plans(&qs, &g, &cfg)).unwrap();
            let specs = vec![MemberSpec::default(); qs.len()];

            let serial = run_multi(&mp, &g, &cfg, &specs);
            for (m, q) in qs.iter().enumerate() {
                assert_eq!(
                    serial.members[m].matches,
                    expect[m],
                    "{gname}/{leg}/serial: {} must match one-shot",
                    q.name()
                );
                assert_eq!(serial.members[m].outcome, Outcome::Complete);
            }

            for threads in [2, 4] {
                let par = run_multi_parallel(&mp, &g, &cfg, &specs, &ParallelConfig::new(threads));
                assert_eq!(par.failures, 0);
                for (m, q) in qs.iter().enumerate() {
                    assert_eq!(
                        par.members[m].matches,
                        expect[m],
                        "{gname}/{leg}/{threads}t: {} must match one-shot",
                        q.name()
                    );
                    assert_eq!(par.members[m].outcome, Outcome::Complete);
                }
            }
        }
    }
}

/// Duplicate members (the common serving case: several clients asking
/// the same pattern in one window) fully share one enumeration tree and
/// each still gets the exact count.
#[test]
fn duplicate_members_each_get_the_exact_count() {
    let g = generators::barabasi_albert(300, 4, 13);
    let cfg = EngineConfig::light();
    let qs = vec![
        Query::Triangle,
        Query::P1,
        Query::Triangle,
        Query::P1,
        Query::Triangle,
    ];
    let expect = one_shot(&qs, &g, &cfg);
    let mp = MultiPlan::build(&plans(&qs, &g, &cfg)).unwrap();
    let specs = vec![MemberSpec::default(); qs.len()];
    for threads in [1, 4] {
        let par = run_multi_parallel(&mp, &g, &cfg, &specs, &ParallelConfig::new(threads));
        for (m, q) in qs.iter().enumerate() {
            assert_eq!(
                par.members[m].matches,
                expect[m],
                "{threads}t: duplicate member {m} ({}) must be exact",
                q.name()
            );
        }
    }
    // Duplicates must actually share: every member's whole plan is a
    // shared prefix with its twin.
    let st = mp.reuse_summary();
    assert!(
        st.member_shared_depth.iter().all(|&d| d >= 1),
        "duplicates must share a prefix: {st:?}"
    );
}

/// A shared store that is *warm* (fed by a previous pass) must not change
/// any count either — reuse is correctness-neutral by construction.
#[test]
fn warm_shared_store_is_count_neutral() {
    let qs = catalog();
    let g = generators::barabasi_albert(300, 4, 13);
    let store = Arc::new(SharedAuxStore::new(None));
    let cfg = EngineConfig::light().shared_aux(store.at(0));
    let expect = one_shot(&qs, &g, &EngineConfig::light());
    let mp = MultiPlan::build(&plans(&qs, &g, &cfg)).unwrap();
    let specs = vec![MemberSpec::default(); qs.len()];
    for pass in 0..3 {
        let par = run_multi_parallel(&mp, &g, &cfg, &specs, &ParallelConfig::new(4));
        for (m, q) in qs.iter().enumerate() {
            assert_eq!(
                par.members[m].matches,
                expect[m],
                "pass {pass}: {} must match one-shot against a warm store",
                q.name()
            );
        }
    }
    let c = store.counters();
    assert!(
        c.hits + c.misses > 0,
        "the shared store must actually be consulted"
    );
}

/// A member cancelled before the batch starts is isolated: it reports
/// `Cancelled`, every sibling still returns its exact one-shot count.
#[test]
fn pre_cancelled_member_never_perturbs_siblings() {
    let qs = catalog();
    let g = generators::barabasi_albert(300, 4, 13);
    for (leg, cfg) in config_legs() {
        let expect = one_shot(&qs, &g, &cfg);
        let mp = MultiPlan::build(&plans(&qs, &g, &cfg)).unwrap();
        for victim in [0, qs.len() / 2, qs.len() - 1] {
            let tok = CancelToken::new();
            tok.cancel();
            let specs: Vec<MemberSpec> = (0..qs.len())
                .map(|m| MemberSpec {
                    cancel: (m == victim).then(|| tok.clone()),
                    ..Default::default()
                })
                .collect();
            for threads in [1, 4] {
                let par = run_multi_parallel(&mp, &g, &cfg, &specs, &ParallelConfig::new(threads));
                assert_eq!(
                    par.members[victim].outcome,
                    Outcome::Cancelled,
                    "{leg}/{threads}t: victim {victim} must be cancelled"
                );
                for (m, q) in qs.iter().enumerate() {
                    if m == victim {
                        continue;
                    }
                    assert_eq!(par.members[m].outcome, Outcome::Complete);
                    assert_eq!(
                        par.members[m].matches,
                        expect[m],
                        "{leg}/{threads}t: sibling {} must be exact despite victim {victim}",
                        q.name()
                    );
                }
            }
        }
    }
}

/// A member whose budget expires mid-batch (zero budget: the earliest
/// possible expiry) is isolated the same way: `OutOfTime` for it, exact
/// counts for every sibling.
#[test]
fn timed_out_member_never_perturbs_siblings() {
    let qs = catalog();
    let g = generators::barabasi_albert(300, 4, 13);
    let cfg = EngineConfig::light();
    let expect = one_shot(&qs, &g, &cfg);
    let mp = MultiPlan::build(&plans(&qs, &g, &cfg)).unwrap();
    let victim = 1;
    let specs: Vec<MemberSpec> = (0..qs.len())
        .map(|m| MemberSpec {
            time_budget: (m == victim).then_some(Duration::ZERO),
            ..Default::default()
        })
        .collect();
    for threads in [1, 4] {
        let par = run_multi_parallel(&mp, &g, &cfg, &specs, &ParallelConfig::new(threads));
        assert_eq!(
            par.members[victim].outcome,
            Outcome::OutOfTime,
            "{threads}t: zero budget must expire"
        );
        for (m, q) in qs.iter().enumerate() {
            if m == victim {
                continue;
            }
            assert_eq!(par.members[m].outcome, Outcome::Complete);
            assert_eq!(
                par.members[m].matches,
                expect[m],
                "{threads}t: sibling {} must be exact despite the timeout",
                q.name()
            );
        }
    }
}

/// Cancellation raced against a live run: whatever the victim's final
/// outcome (it may legitimately finish first), siblings are exact.
#[test]
fn live_cancel_mid_batch_leaves_siblings_exact() {
    let qs = catalog();
    let g = generators::barabasi_albert(400, 5, 29);
    let cfg = EngineConfig::light();
    let expect = one_shot(&qs, &g, &cfg);
    let mp = MultiPlan::build(&plans(&qs, &g, &cfg)).unwrap();
    let victim = qs.len() - 1;
    let tok = CancelToken::new();
    let specs: Vec<MemberSpec> = (0..qs.len())
        .map(|m| MemberSpec {
            cancel: (m == victim).then(|| tok.clone()),
            ..Default::default()
        })
        .collect();
    let killer = {
        let tok = tok.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            tok.cancel();
        })
    };
    let par = run_multi_parallel(&mp, &g, &cfg, &specs, &ParallelConfig::new(4));
    killer.join().unwrap();
    assert!(
        matches!(
            par.members[victim].outcome,
            Outcome::Cancelled | Outcome::Complete
        ),
        "victim outcome: {:?}",
        par.members[victim].outcome
    );
    for (m, q) in qs.iter().enumerate() {
        if m == victim {
            continue;
        }
        assert_eq!(par.members[m].outcome, Outcome::Complete);
        assert_eq!(
            par.members[m].matches,
            expect[m],
            "sibling {} must be exact under a racing cancel",
            q.name()
        );
    }
}

/// End-to-end through the serve tier: a service with the gate on answers
/// concurrent same-graph queries via shared passes, and every response
/// carries the exact one-shot count (plus a `batch` size when batched).
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
            batch_window: Some(Duration::from_millis(25)),
            shared_aux: true,
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
                "round {round}: {} through the serve gate must be exact",
                qs[i].name()
            );
        }
    }
    // With 8 concurrent same-graph queries per round, shared passes must
    // have formed; the stats section records them.
    let stats = svc.handle_line("{\"op\":\"stats\",\"id\":\"s\"}");
    let doc = Json::parse(&stats).unwrap();
    let mq = doc.get("multiquery").expect("multiquery section");
    assert!(
        mq.get("batches").and_then(Json::as_u64).unwrap_or(0) > 0,
        "{stats}"
    );
}
