//! Observability must be observation-only: attaching a live metrics
//! recorder must never change what any engine variant enumerates, serial
//! or parallel.
//!
//! This is the differential guard for the recording call sites threaded
//! through `do_comp`/`do_mat`, the setops dispatch layer, and the
//! scheduler: a recording bug that perturbs control flow (e.g. a sampling
//! branch that skips work) shows up here as a count mismatch.

use proptest::prelude::*;

use light::core::{EngineConfig, EngineVariant};
use light::graph::generators;
use light::metrics::Recorder;
use light::parallel::{run_query_parallel, ParallelConfig};
use light::pattern::Query;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recorder_never_changes_serial_counts(
        n in 15usize..50,
        seed in 0u64..300,
    ) {
        let g = generators::barabasi_albert(n, 3, seed);
        for q in [Query::Triangle, Query::P1, Query::P2, Query::P4] {
            let p = q.pattern();
            for variant in EngineVariant::ALL {
                let bare = light::core::run_query(&p, &g, &EngineConfig::with_variant(variant));
                let rec = Recorder::new();
                let cfg = EngineConfig::with_variant(variant).metrics(rec.clone());
                let recorded = light::core::run_query(&p, &g, &cfg);
                prop_assert_eq!(
                    recorded.matches,
                    bare.matches,
                    "{} {}",
                    q.name(),
                    variant.name()
                );
                // The engine-level work statistics must be untouched too:
                // recording may not alter how the answer is computed.
                prop_assert_eq!(
                    recorded.stats.intersect.total,
                    bare.stats.intersect.total,
                    "{} {} intersections",
                    q.name(),
                    variant.name()
                );
                // And the recorder must have actually seen the run (equal
                // work, not skipped work).
                prop_assert_eq!(
                    rec.summary().tier_calls.iter().sum::<u64>(),
                    recorded.stats.intersect.total,
                    "{} {} recorder vs stats",
                    q.name(),
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn recorder_never_changes_parallel_counts(
        n in 20usize..60,
        seed in 0u64..200,
        threads in 1usize..5,
    ) {
        let g = generators::barabasi_albert(n, 3, seed);
        for q in [Query::Triangle, Query::P2] {
            let p = q.pattern();
            let bare = run_query_parallel(
                &p,
                &g,
                &EngineConfig::light(),
                &ParallelConfig::new(threads),
            );
            let rec = Recorder::new();
            let cfg = EngineConfig::light().metrics(rec.clone());
            let recorded = run_query_parallel(&p, &g, &cfg, &ParallelConfig::new(threads));
            prop_assert_eq!(
                recorded.report.matches,
                bare.report.matches,
                "{} x{}",
                q.name(),
                threads
            );
            prop_assert_eq!(rec.summary().workers.len(), threads, "{}", q.name());
        }
    }
}
