//! End-to-end tests for the serve tier's dynamic-graph ops: `update`
//! batches that mutate a served graph in place, the plan-cache
//! invalidation contract (an update between two identical queries must
//! change the answer — and the second query must not be served a stale
//! plan or a stale count), and `subscribe`/`unsubscribe` incremental
//! count maintenance whose deltas ride on every update response.

use std::sync::Arc;
use std::time::Duration;

use light::core::{run_query, EngineConfig};
use light::pattern::Query;
use light::serve::json::Json;
use light::serve::{GraphCatalog, QueryService, ServeConfig};

fn service() -> Arc<QueryService> {
    let mut catalog = GraphCatalog::new();
    catalog
        .insert("g", light::graph::generators::barabasi_albert(250, 3, 41))
        .unwrap();
    Arc::new(QueryService::new(
        catalog,
        ServeConfig {
            max_concurrent: 4,
            queue_depth: 16,
            threads_per_query: 1,
            default_timeout: Some(Duration::from_secs(60)),
            drain_grace: Duration::from_secs(5),
            idle_timeout: Some(Duration::from_secs(30)),
            mem_watermark: None,
            compact_threshold: Some(32_768),
            engine: EngineConfig::light(),
        },
    ))
}

fn parse(resp: &str) -> Json {
    Json::parse(resp).unwrap_or_else(|e| panic!("invalid response JSON ({e}): {resp}"))
}

fn ok(doc: &Json) -> &Json {
    assert_eq!(
        doc.get("status").and_then(Json::as_str),
        Some("ok"),
        "{doc:?}"
    );
    doc
}

/// An edge absent from the served graph whose insertion creates at least
/// one new triangle: two neighbors of some vertex not yet adjacent.
fn missing_triangle_edge(g: &light::graph::CsrGraph) -> (u32, u32) {
    for u in 0..g.num_vertices() as u32 {
        let nbrs = g.neighbors(u);
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if !g.neighbors(a).contains(&b) {
                    return (a, b);
                }
            }
        }
    }
    panic!("graph has no open wedge");
}

/// Satellite regression: an `update` between two identical queries must
/// change the served count, with the post-update query reflecting the
/// mutated graph exactly (a stale plan would surface here as a wrong
/// second count).
#[test]
fn update_between_identical_queries_changes_the_count() {
    let svc = service();
    let q = |id: &str| {
        format!("{{\"op\":\"query\",\"pattern\":\"triangle\",\"graph\":\"g\",\"id\":\"{id}\"}}")
    };

    let before = parse(&svc.handle_line(&q("before")));
    let count_before = ok(&before).get("matches").and_then(Json::as_u64).unwrap();

    // Warm the plan cache with a second identical query: must be a hit.
    let warm = parse(&svc.handle_line(&q("warm")));
    assert_eq!(
        ok(&warm).get("matches").and_then(Json::as_u64),
        Some(count_before)
    );
    assert_eq!(warm.get("plan_cache").and_then(Json::as_str), Some("hit"));

    let (a, b) = missing_triangle_edge(&svc.catalog().get("g").unwrap().graph());
    let upd = parse(&svc.handle_line(&format!(
        "{{\"op\":\"update\",\"graph\":\"g\",\"inserts\":[[{a},{b}]],\"id\":\"u\"}}"
    )));
    assert_eq!(ok(&upd).get("inserted").and_then(Json::as_u64), Some(1));
    assert_eq!(upd.get("generation").and_then(Json::as_u64), Some(1));

    let after = parse(&svc.handle_line(&q("after")));
    let count_after = ok(&after).get("matches").and_then(Json::as_u64).unwrap();
    assert!(
        count_after > count_before,
        "closing an open wedge must create triangles ({count_before} -> {count_after})"
    );
    // The generation is part of the plan key: the post-update query can
    // never reuse a pre-update plan.
    assert_eq!(after.get("plan_cache").and_then(Json::as_str), Some("miss"));

    // Ground truth: the daemon's count equals a fresh one-shot run on the
    // mutated graph it now serves.
    let g = svc.catalog().get("g").unwrap().graph();
    let want = run_query(&Query::Triangle.pattern(), &g, &EngineConfig::light()).matches;
    assert_eq!(count_after, want);

    // Deleting the edge again restores the original count exactly.
    let upd = parse(&svc.handle_line(&format!(
        "{{\"op\":\"update\",\"graph\":\"g\",\"deletes\":[[{a},{b}]],\"id\":\"u2\"}}"
    )));
    assert_eq!(ok(&upd).get("deleted").and_then(Json::as_u64), Some(1));
    assert_eq!(upd.get("generation").and_then(Json::as_u64), Some(2));
    let restored = parse(&svc.handle_line(&q("restored")));
    assert_eq!(
        ok(&restored).get("matches").and_then(Json::as_u64),
        Some(count_before)
    );
}

/// The update response's bookkeeping fields: generations are monotone,
/// idempotent no-ops are counted but change nothing, and a forced
/// compaction folds the overlay (pending returns to zero) without
/// touching any count.
#[test]
fn update_bookkeeping_and_forced_compaction() {
    let svc = service();
    let (a, b) = missing_triangle_edge(&svc.catalog().get("g").unwrap().graph());

    let upd = parse(&svc.handle_line(&format!(
        "{{\"op\":\"update\",\"graph\":\"g\",\"inserts\":[[{a},{b}],[{a},{b}],[{a},{a}]],\"id\":\"u\"}}"
    )));
    ok(&upd);
    assert_eq!(upd.get("inserted").and_then(Json::as_u64), Some(1));
    assert_eq!(upd.get("dup_inserts").and_then(Json::as_u64), Some(2));
    assert_eq!(upd.get("pending").and_then(Json::as_u64), Some(1));
    assert_eq!(upd.get("compacted").and_then(Json::as_bool), Some(false));

    // Deleting a never-present edge is a counted no-op.
    let upd = parse(&svc.handle_line(
        "{\"op\":\"update\",\"graph\":\"g\",\"deletes\":[[0,0]],\"inserts\":[],\"id\":\"noop\",\"compact\":false}",
    ));
    // A self-loop delete is dropped by normalization; the edge list was
    // non-empty so the request is valid.
    ok(&upd);
    assert_eq!(upd.get("deleted").and_then(Json::as_u64), Some(0));
    assert_eq!(upd.get("missing_deletes").and_then(Json::as_u64), Some(1));

    let mid = parse(
        &svc.handle_line("{\"op\":\"query\",\"pattern\":\"p2\",\"graph\":\"g\",\"id\":\"mid\"}"),
    );
    let count_mid = ok(&mid).get("matches").and_then(Json::as_u64).unwrap();

    // Force compaction: the overlay folds into a fresh base.
    let upd = parse(
        &svc.handle_line("{\"op\":\"update\",\"graph\":\"g\",\"compact\":true,\"id\":\"fold\"}"),
    );
    ok(&upd);
    assert_eq!(upd.get("compacted").and_then(Json::as_bool), Some(true));
    assert_eq!(upd.get("pending").and_then(Json::as_u64), Some(0));

    let post = parse(
        &svc.handle_line("{\"op\":\"query\",\"pattern\":\"p2\",\"graph\":\"g\",\"id\":\"post\"}"),
    );
    assert_eq!(
        ok(&post).get("matches").and_then(Json::as_u64),
        Some(count_mid),
        "compaction must not change any count"
    );

    // The catalog op reports the entry's generation and pending state.
    let cat = parse(&svc.handle_line("{\"op\":\"catalog\",\"id\":\"c\"}"));
    let graphs = match cat.get("graphs") {
        Some(Json::Arr(items)) => items,
        other => panic!("catalog must list graphs, got {other:?}"),
    };
    let entry = &graphs[0];
    assert_eq!(entry.get("pending").and_then(Json::as_u64), Some(0));
    assert!(entry.get("generation").and_then(Json::as_u64).unwrap() >= 3);
}

/// Subscriptions: registering computes a full count; every later update
/// response carries the maintained count for each live subscription, and
/// that maintained count always equals a fresh full query on the mutated
/// graph. Unsubscribing stops the deltas.
#[test]
fn subscriptions_maintain_exact_counts_across_updates() {
    let svc = service();

    let sub = parse(&svc.handle_line(
        "{\"op\":\"subscribe\",\"pattern\":\"triangle\",\"graph\":\"g\",\"id\":\"s\"}",
    ));
    ok(&sub);
    let sub_id = sub.get("sub").and_then(Json::as_u64).unwrap();
    let initial = sub.get("count").and_then(Json::as_u64).unwrap();
    let g = svc.catalog().get("g").unwrap().graph();
    assert_eq!(
        initial,
        run_query(&Query::Triangle.pattern(), &g, &EngineConfig::light()).matches
    );

    // A second subscription on another pattern rides the same updates.
    let sub2 = parse(
        &svc.handle_line("{\"op\":\"subscribe\",\"pattern\":\"p1\",\"graph\":\"g\",\"id\":\"s2\"}"),
    );
    ok(&sub2);
    let sub2_id = sub2.get("sub").and_then(Json::as_u64).unwrap();
    assert_ne!(sub_id, sub2_id);

    // Drive a few mutation batches; after each, the maintained counts in
    // the update response must equal fresh full queries.
    for round in 0..3 {
        let g = svc.catalog().get("g").unwrap().graph();
        let (a, b) = missing_triangle_edge(&g);
        let nbrs = g.neighbors(0);
        let del = (0u32, nbrs[round % nbrs.len()]);
        let upd = parse(&svc.handle_line(&format!(
            "{{\"op\":\"update\",\"graph\":\"g\",\"inserts\":[[{a},{b}]],\"deletes\":[[{},{}]],\"id\":\"r{round}\"}}",
            del.0, del.1
        )));
        ok(&upd);
        let subs = match upd.get("subscriptions") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("update must carry subscription deltas, got {other:?}"),
        };
        assert_eq!(subs.len(), 2, "both subscriptions ride every update");

        let now = svc.catalog().get("g").unwrap().graph();
        for s in &subs {
            let id = s.get("sub").and_then(Json::as_u64).unwrap();
            let count = s.get("count").and_then(Json::as_u64).unwrap();
            let q = if id == sub_id {
                Query::Triangle
            } else {
                Query::P1
            };
            let want = run_query(&q.pattern(), &now, &EngineConfig::light()).matches;
            assert_eq!(
                count,
                want,
                "round {round}: maintained {} count {count} != full recount {want}",
                q.name()
            );
        }
    }

    // Unsubscribe the triangle watcher; later updates only carry the P1
    // subscription.
    let un = parse(&svc.handle_line(&format!(
        "{{\"op\":\"unsubscribe\",\"sub\":{sub_id},\"id\":\"bye\"}}"
    )));
    assert_eq!(ok(&un).get("removed").and_then(Json::as_bool), Some(true));
    let again = parse(&svc.handle_line(&format!(
        "{{\"op\":\"unsubscribe\",\"sub\":{sub_id},\"id\":\"bye2\"}}"
    )));
    assert_eq!(again.get("removed").and_then(Json::as_bool), Some(false));

    let g = svc.catalog().get("g").unwrap().graph();
    let (a, b) = missing_triangle_edge(&g);
    let upd = parse(&svc.handle_line(&format!(
        "{{\"op\":\"update\",\"graph\":\"g\",\"inserts\":[[{a},{b}]],\"id\":\"last\"}}"
    )));
    ok(&upd);
    match upd.get("subscriptions") {
        Some(Json::Arr(items)) => {
            assert_eq!(items.len(), 1);
            assert_eq!(items[0].get("sub").and_then(Json::as_u64), Some(sub2_id));
        }
        other => panic!("{other:?}"),
    }
}

/// Typed failures on the dynamic ops: unknown graph, bad pattern, and
/// the draining gate all answer with structured errors, never a panic.
#[test]
fn dynamic_op_errors_are_typed() {
    let svc = service();
    let doc =
        parse(&svc.handle_line(
            "{\"op\":\"update\",\"graph\":\"nope\",\"inserts\":[[0,1]],\"id\":\"e1\"}",
        ));
    assert_eq!(
        doc.get("code").and_then(Json::as_str),
        Some("unknown_graph")
    );
    let doc = parse(&svc.handle_line(
        "{\"op\":\"subscribe\",\"pattern\":\"heptadecagon\",\"graph\":\"g\",\"id\":\"e2\"}",
    ));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("bad_pattern"));

    let _ = svc.handle_line("{\"op\":\"shutdown\",\"id\":\"bye\"}");
    let doc = parse(
        &svc.handle_line("{\"op\":\"update\",\"graph\":\"g\",\"inserts\":[[0,1]],\"id\":\"e3\"}"),
    );
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("draining"));
    let doc =
        parse(&svc.handle_line("{\"op\":\"subscribe\",\"pattern\":\"triangle\",\"id\":\"e4\"}"));
    assert_eq!(doc.get("code").and_then(Json::as_str), Some("draining"));
}

/// Updates and queries interleaved from concurrent threads: every query
/// response must equal a full recount on some committed generation's
/// graph — never a torn view, never a count from a stale cache entry.
#[test]
fn concurrent_queries_see_committed_generations_only() {
    let svc = service();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Writer: alternately deletes and reinserts the same base edge, so
    // the graph flips between exactly two known states.
    let g0 = svc.catalog().get("g").unwrap().graph();
    let u = (0..g0.num_vertices() as u32)
        .find(|&v| !g0.neighbors(v).is_empty())
        .unwrap();
    let v = g0.neighbors(u)[0];
    let with_edge = run_query(&Query::Triangle.pattern(), &g0, &EngineConfig::light()).matches;
    let without = {
        let mut d = light::graph::delta::DeltaGraph::new(Arc::clone(&g0));
        d.apply(&[(u, v)], &[]);
        run_query(
            &Query::Triangle.pattern(),
            &d.merged_arc(),
            &EngineConfig::light(),
        )
        .matches
    };

    let writer = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut gen = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (field, id) = if gen % 2 == 0 {
                    ("deletes", "del")
                } else {
                    ("inserts", "ins")
                };
                let resp = svc.handle_line(&format!(
                    "{{\"op\":\"update\",\"graph\":\"g\",\"{field}\":[[{u},{v}]],\"id\":\"{id}\"}}"
                ));
                let doc = Json::parse(&resp).unwrap();
                assert_eq!(
                    doc.get("status").and_then(Json::as_str),
                    Some("ok"),
                    "{resp}"
                );
                gen += 1;
            }
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|r| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for i in 0..25 {
                    let resp = svc.handle_line(&format!(
                        "{{\"op\":\"query\",\"pattern\":\"triangle\",\"graph\":\"g\",\"id\":\"r{r}-{i}\"}}"
                    ));
                    let doc = Json::parse(&resp).unwrap();
                    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"), "{resp}");
                    let m = doc.get("matches").and_then(Json::as_u64).unwrap();
                    assert!(
                        m == with_edge || m == without,
                        "reader {r} iteration {i}: count {m} matches neither committed \
                         state ({with_edge} with the edge, {without} without)"
                    );
                }
            })
        })
        .collect();

    for r in readers {
        r.join().expect("reader");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().expect("writer");
}

/// One update batch: `(deletes, inserts)`.
type Batch = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// A deterministic stream of mixed update batches over `n` vertices, with
/// overlapping endpoints (so batch edges share triangles), re-deleted
/// earlier inserts, and IDs past `n` (the vertex space grows).
fn update_stream(n: u32, batches: u32) -> Vec<Batch> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x13);
    let mut next = move |bound: u32| rng.random_range(0..bound);
    let mut stream: Vec<Batch> = Vec::new();
    for b in 0..batches {
        let hub = next(n);
        let inserts: Vec<(u32, u32)> = (0..6).map(|_| (hub, next(n + 3))).collect();
        // Delete half of the previous batch's inserts, plus one random pair.
        let mut deletes: Vec<(u32, u32)> = stream
            .last()
            .map(|(_, ins)| ins.iter().step_by(2).copied().collect())
            .unwrap_or_default();
        deletes.push((next(n), next(n)));
        if b % 3 == 0 {
            // The same edge in both lists: ends present.
            deletes.push(inserts[0]);
        }
        stream.push((deletes, inserts));
    }
    stream
}

/// Plan identity: after a stream of updates, the plan built from the
/// catalog's incrementally maintained stats is the plan `cfg.plan` builds
/// from scratch on the served graph, for every pattern, with and without
/// symmetry breaking, in every engine variant.
#[test]
fn plans_from_catalog_stats_equal_plans_from_scratch() {
    let svc = service();
    let entry = svc.catalog().get("g").unwrap();
    let n = entry.graph().num_vertices() as u32;
    let (mut deleted, mut inserted) = (0, 0);
    for (i, (deletes, inserts)) in update_stream(n, 12).iter().enumerate() {
        let out = entry
            .apply_update(deletes, inserts, None, i == 7)
            .expect("memory entries cannot fail a commit");
        deleted += out.report.deleted.len();
        inserted += out.report.inserted.len();
    }
    assert!(deleted >= 12 && inserted >= 36, "{deleted} / {inserted}");
    let view = entry.view();
    assert_eq!(view.generation, 12);
    assert_eq!(view.stats, light::graph::stats::compute_stats(&view.graph));
    for q in Query::ALL {
        for symmetry in [true, false] {
            for variant in light::core::EngineVariant::ALL {
                let cfg = EngineConfig::with_variant(variant).symmetry(symmetry);
                let pattern = q.pattern();
                let maintained = cfg.plan_from_stats(&pattern, &view.stats);
                let scratch = cfg.plan(&pattern, &view.graph);
                assert_eq!(
                    format!("{maintained:?}"),
                    format!("{scratch:?}"),
                    "{} symmetry={symmetry} {}",
                    q.name(),
                    variant.name()
                );
                assert_eq!(maintained.explain(), scratch.explain());
            }
        }
    }
}

/// The `catalog` op reports the maintained stats: after an update stream
/// that ends in a compaction, its `triangles` equal what `light stats`
/// computes from scratch on the rewritten snapshot.
#[test]
fn catalog_triangles_after_updates_equal_light_stats_on_the_compacted_snapshot() {
    let dir = std::env::temp_dir().join(format!("light_serve_dyn_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("g.v2");
    let g = light::graph::generators::barabasi_albert(400, 4, 13);
    let (ordered, _) = light::graph::ordered::into_degree_ordered(&g);
    light::graph::io::save_snapshot_v2(&ordered, &snap).unwrap();

    let mut catalog = GraphCatalog::new();
    catalog.load_entry("g", snap.to_str().unwrap()).unwrap();
    let svc = QueryService::new(catalog, ServeConfig::default());
    let pairs = |edges: &[(u32, u32)]| {
        let items: Vec<String> = edges.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
        format!("[{}]", items.join(","))
    };
    let stream = update_stream(400, 10);
    for (i, (deletes, inserts)) in stream.iter().enumerate() {
        let compact = i + 1 == stream.len();
        let resp = parse(&svc.handle_line(&format!(
            "{{\"op\":\"update\",\"graph\":\"g\",\"deletes\":{},\"inserts\":{},\"compact\":{compact},\"id\":\"u{i}\"}}",
            pairs(deletes),
            pairs(inserts),
        )));
        ok(&resp);
    }
    let cat = parse(&svc.handle_line("{\"op\":\"catalog\",\"id\":\"c\"}"));
    let Some(Json::Arr(graphs)) = ok(&cat).get("graphs") else {
        panic!("catalog response without graphs: {cat:?}");
    };
    let entry = &graphs[0];
    assert_eq!(entry.get("generation").and_then(Json::as_u64), Some(10));
    assert_eq!(entry.get("pending").and_then(Json::as_u64), Some(0));
    let served = entry.get("triangles").and_then(Json::as_u64).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_light"))
        .args(["stats", "--graph", snap.to_str().unwrap()])
        .output()
        .expect("run light stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let field = |name: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .unwrap_or_else(|| panic!("no {name} line in {stdout}"))
            .trim()
            .parse()
            .unwrap()
    };
    assert_eq!(served, field("triangles:"));
    assert_eq!(
        entry.get("edges").and_then(Json::as_u64),
        Some(field("edges:"))
    );
    std::fs::remove_dir_all(&dir).ok();
}
