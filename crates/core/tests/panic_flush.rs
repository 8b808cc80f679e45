//! Regression test for metrics-shard loss on panic.
//!
//! The COMP hot path used to `mem::take` the enumerator's
//! `LocalRecorder` shard around the intersection kernel; a panic inside
//! the kernel dropped the taken shard, silently losing every counter
//! recorded since the last flush. The engine now field-borrows the shard
//! in place, so the unwind path (recover_after_panic, or Drop) still
//! flushes everything recorded before the panic.
//!
//! Needs the `failpoint` feature (the `engine::intersect` site to panic
//! from). Run with `cargo test -p light-core --features failpoint`.

#![cfg(feature = "failpoint")]

use light_core::{CountVisitor, EngineConfig, Enumerator};
use light_failpoint as failpoint;
use light_graph::generators;
use light_pattern::Query;

#[test]
fn panic_in_intersection_keeps_metrics_shard() {
    let _scenario = failpoint::FailScenario::setup();
    let g = generators::complete(12);
    let p = Query::Triangle.pattern();
    let rec = light_metrics::Recorder::new();
    let cfg = EngineConfig::light().metrics(rec.clone());
    let plan = cfg.plan(&p, &g);
    let mut v = CountVisitor::default();
    let mut e = Enumerator::new(&plan, &g, &cfg, &mut v);

    // Shard activity (comp_call, owned_intersection) is recorded before
    // the kernel runs; the armed site then panics mid-COMP.
    failpoint::configure("engine::intersect", "panic").unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        e.run();
    }));
    std::panic::set_hook(hook);
    assert!(res.is_err(), "armed engine::intersect must panic");
    failpoint::remove("engine::intersect");

    // Recovery flushes the shard; the pre-panic counters must survive.
    e.recover_after_panic();
    let s = rec.summary();
    assert!(s.comp_calls >= 1, "comp_calls lost on unwind: {s:?}");
    assert!(
        s.owned_intersections >= 1,
        "owned_intersections lost on unwind: {s:?}"
    );

    // And the same instance still enumerates correctly afterwards.
    let report = e.run();
    assert_eq!(report.matches, 220); // C(12,3) triangles in K12
}
