//! Labeled subgraph search via the bind-filter extension point.
//!
//! §II-B of the paper frames unlabeled enumeration as the hard special case
//! of labeled matching. The converse embedding is free in this library: a
//! label array plus a bind-time filter turns LIGHT into a labeled matcher.
//! Here: find "collaboration triangles" — one *manager* connected to two
//! *engineers* who also work together — in a synthetic org network.
//!
//! Run with: `cargo run --release --example labeled_search`

use std::ops::ControlFlow;
use std::sync::Arc;

use light::core::visitor::FnVisitor;
use light::prelude::*;

const ENGINEER: u8 = 0;
const MANAGER: u8 = 1;

fn main() {
    // A social-like collaboration network.
    let raw = light::graph::generators::barabasi_albert(5_000, 5, 31);
    let (g, mapping) = light::graph::ordered::into_degree_ordered(&raw);

    // Assign roles: every 10th original vertex is a manager. (Labels are
    // user-side data — the library never sees them except via the filter.)
    let mut labels = vec![ENGINEER; g.num_vertices()];
    for old in (0..g.num_vertices()).step_by(10) {
        labels[mapping[old] as usize] = MANAGER;
    }
    let labels = Arc::new(labels);
    let managers = labels.iter().filter(|&&l| l == MANAGER).count();
    println!(
        "org network: {} people ({} managers), {} edges",
        g.num_vertices(),
        managers,
        g.num_edges()
    );

    // Pattern: a triangle where u0 is the manager. The label constraint
    // breaks the triangle's symmetry between u0 and {u1, u2}, but u1 and u2
    // stay interchangeable — handle that by disabling the automatic
    // symmetry breaking and keeping only φ(u1) < φ(u2).
    let triangle = Query::Triangle.pattern();
    let l = labels.clone();
    let cfg = EngineConfig::light().symmetry(false).filter(move |u, v| {
        let want = if u == 0 { MANAGER } else { ENGINEER };
        l[v as usize] == want
    });

    let plan = cfg.plan(&triangle, &g);
    let mut count = 0u64;
    let mut visitor = FnVisitor(|m: &[VertexId]| {
        if m[1] < m[2] {
            // residual symmetry: u1 <-> u2
            count += 1;
        }
        ControlFlow::Continue(())
    });
    light::core::engine::run_plan(&plan, &g, &cfg, &mut visitor);
    println!("manager-engineer-engineer triangles: {count}");

    // Cross-check: all triangles minus label-filtered should dominate.
    let all = run_query(&triangle, &g, &EngineConfig::light());
    println!("total triangles (unlabeled):          {}", all.matches);
    assert!(count <= all.matches);

    // Degree-pruned clique search: a sound filter for clique patterns.
    let k4 = Query::P3.pattern();
    let gg = g.clone();
    let pruned_cfg = EngineConfig::light().filter(move |_, v| gg.degree(v) >= 3);
    let pruned = run_query(&k4, &g, &pruned_cfg);
    let plain = run_query(&k4, &g, &EngineConfig::light());
    assert_eq!(pruned.matches, plain.matches);
    println!(
        "4-cliques: {} (degree-pruned run attempted {} bindings vs {} unpruned)",
        plain.matches, pruned.stats.bindings, plain.stats.bindings
    );
}
