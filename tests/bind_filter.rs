//! The bind-filter extension point: labeled subgraph matching and custom
//! pruning on top of the unlabeled engine.
//!
//! §II-B: "Unlabeled subgraph enumeration can be viewed as a special case
//! of labeled subgraph enumeration [where] all vertices have the same
//! label." The converse embedding — labels as a bind-time admission filter
//! — gives the library labeled matching without touching the planner.

use std::sync::Arc;

use light::core::{run_query, EngineConfig};
use light::graph::generators;
use light::pattern::Query;

#[test]
fn label_filter_restricts_matches() {
    // K6 with labels: vertices 0..3 red, 4..5 blue.
    let g = generators::complete(6);
    let labels: Arc<Vec<u8>> = Arc::new(vec![0, 0, 0, 0, 1, 1]);

    // All-red triangles: C(4,3) = 4.
    let l = labels.clone();
    let cfg = EngineConfig::light().filter(move |_, v| l[v as usize] == 0);
    assert_eq!(run_query(&Query::Triangle.pattern(), &g, &cfg).matches, 4);

    // Pattern-vertex-specific labels: u0 must be blue, u1/u2 red.
    // Matches = 2 (blue choices) * C(3,2)... careful with symmetry breaking:
    // the triangle's partial order forces φ(u0)<φ(u1)<φ(u2), but blue
    // vertices have the largest IDs in K6 (degree ties broken by ID), so
    // φ(u0) ∈ {4,5} < φ(u1) is unsatisfiable; disable symmetry breaking and
    // divide by the 2 automorphisms fixing u0 (swap u1,u2).
    let l = labels.clone();
    let cfg = EngineConfig::light()
        .symmetry(false)
        .filter(move |u, v| (l[v as usize] == 1) == (u == 0));
    let raw = run_query(&Query::Triangle.pattern(), &g, &cfg).matches;
    // u0: 2 blue choices; (u1,u2): ordered pairs of distinct reds = 4*3.
    assert_eq!(raw, 2 * 4 * 3);
}

#[test]
fn filter_composes_with_every_variant() {
    let g = generators::barabasi_albert(200, 4, 5);
    // "Label" = parity of the vertex ID.
    let mk = |variant| {
        let mut cfg = EngineConfig::with_variant(variant);
        cfg = cfg.filter(|_, v| v % 2 == 0);
        run_query(&Query::P2.pattern(), &g, &cfg).matches
    };
    let counts: Vec<u64> = light::core::EngineVariant::ALL
        .iter()
        .map(|&v| mk(v))
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    // And the filtered count is strictly below the unfiltered one.
    let unfiltered = run_query(&Query::P2.pattern(), &g, &EngineConfig::light()).matches;
    assert!(counts[0] < unfiltered);
}

#[test]
fn filter_equals_post_filtering() {
    // Filtering at bind time must equal filtering the full result set.
    let g = generators::erdos_renyi(60, 200, 9);
    let p = Query::Triangle.pattern();
    let accept = |v: u32| !v.is_multiple_of(3);

    let cfg = EngineConfig::light();
    let (_, all) = light::core::run_query_collecting(&p, &g, &cfg);
    let expected = all.iter().filter(|m| m.iter().all(|&v| accept(v))).count() as u64;

    let cfg_f = EngineConfig::light().filter(move |_, v| accept(v));
    assert_eq!(run_query(&p, &g, &cfg_f).matches, expected);
}

#[test]
fn filter_works_in_serial_and_parallel() {
    let g = generators::barabasi_albert(150, 3, 11);
    let p = Query::Triangle.pattern();
    let cfg = EngineConfig::light().filter(|_, v| v % 2 == 1);
    let serial = run_query(&p, &g, &cfg).matches;
    assert!(serial > 0);

    let par =
        light::parallel::run_query_parallel(&p, &g, &cfg, &light::parallel::ParallelConfig::new(3));
    assert_eq!(par.report.matches, serial);
}

#[test]
fn degree_threshold_pruning() {
    // A minimum-degree filter is sound for clique queries: every vertex of
    // a k-clique has degree >= k-1, so pruning candidates below that can
    // not lose matches.
    let g = generators::barabasi_albert(300, 4, 21);
    let p = Query::P3.pattern(); // 4-clique
    let unpruned = run_query(&p, &g, &EngineConfig::light()).matches;
    let gg = g.clone();
    let cfg = EngineConfig::light().filter(move |_, v| gg.degree(v) >= 3);
    assert_eq!(run_query(&p, &g, &cfg).matches, unpruned);
}
