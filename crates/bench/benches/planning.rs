//! Criterion benchmarks of the planning layer (once-per-query work):
//! statistics + estimation, order search (Equation 8 over all connected
//! orders), set-cover operand generation, and substrate construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use light_graph::generators;
use light_order::cost::choose_order;
use light_order::estimate::Estimator;
use light_order::setcover::generate_operands;
use light_order::QueryPlan;
use light_pattern::Query;

fn bench_planning(c: &mut Criterion) {
    let g = generators::barabasi_albert(20_000, 8, 3);
    let est = Estimator::from_stats(&light_graph::stats::compute_stats(&g));

    let mut group = c.benchmark_group("planning");
    for q in Query::ALL {
        let p = q.pattern();
        let po = q.partial_order();
        group.bench_with_input(BenchmarkId::new("choose_order", q.name()), &(), |b, _| {
            b.iter(|| choose_order(&p, &po, &est));
        });
        let pi = choose_order(&p, &po, &est);
        group.bench_with_input(
            BenchmarkId::new("generate_operands", q.name()),
            &(),
            |b, _| {
                b.iter(|| generate_operands(&p, &pi));
            },
        );
    }
    // End-to-end planning (includes graph statistics + triangle count).
    group.bench_function("full_plan_P5", |b| {
        b.iter(|| QueryPlan::optimized(&Query::P5.pattern(), &g));
    });
    group.finish();
}

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);
    group.bench_function("build_ba_20k", |b| {
        b.iter(|| generators::barabasi_albert(20_000, 8, 3));
    });
    let g = generators::barabasi_albert(20_000, 8, 3);
    group.bench_function("degree_ordering_20k", |b| {
        b.iter(|| light_graph::ordered::into_degree_ordered(&g));
    });
    group.bench_function("triangle_count_20k", |b| {
        b.iter(|| light_graph::stats::count_triangles(&g));
    });
    group.bench_function("core_numbers_20k", |b| {
        b.iter(|| light_graph::algos::core_numbers(&g));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_planning, bench_substrate
}
criterion_main!(benches);
