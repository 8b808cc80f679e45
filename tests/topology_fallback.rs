//! Topology fallback coverage: the scheduler must produce identical
//! counts and sane stats whether the CPU hierarchy is detected,
//! fabricated, absent (`/sys` masked — containers), or refused by the
//! kernel (affinity syscalls failing).

use std::path::Path;

use light::core::EngineConfig;
use light::graph::generators;
use light::parallel::{run_query_parallel, CpuSlot, CpuTopology, ParallelConfig, TopologyMode};
use light::pattern::Query;

fn serial_count(q: Query, g: &light::graph::CsrGraph) -> u64 {
    light::core::run_query(&q.pattern(), g, &EngineConfig::light()).matches
}

/// Write a fabricated sysfs tree: 4 CPUs, SMT pairs (0,1) and (2,3), one
/// LLC each pair, two NUMA nodes.
fn write_fake_sysfs(root: &Path) {
    let cpu = root.join("devices/system/cpu");
    let node = root.join("devices/system/node");
    std::fs::create_dir_all(&cpu).unwrap();
    std::fs::create_dir_all(&node).unwrap();
    std::fs::write(cpu.join("online"), "0-3\n").unwrap();
    for c in 0..4usize {
        let base = cpu.join(format!("cpu{c}"));
        std::fs::create_dir_all(base.join("topology")).unwrap();
        std::fs::create_dir_all(base.join("cache/index3")).unwrap();
        let pair = if c < 2 { "0-1" } else { "2-3" };
        std::fs::write(base.join("topology/thread_siblings_list"), pair).unwrap();
        std::fs::write(base.join("cache/index3/shared_cpu_list"), pair).unwrap();
    }
    std::fs::create_dir_all(node.join("node0")).unwrap();
    std::fs::create_dir_all(node.join("node1")).unwrap();
    std::fs::write(node.join("node0/cpulist"), "0-1\n").unwrap();
    std::fs::write(node.join("node1/cpulist"), "2-3\n").unwrap();
}

#[test]
fn fake_sysfs_detection_reads_the_hierarchy() {
    let root = std::env::temp_dir().join(format!("light_topo_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    write_fake_sysfs(&root);
    let t = CpuTopology::detect_from(&root);
    std::fs::remove_dir_all(&root).unwrap();

    assert!(!t.is_flat(), "a populated sysfs tree must detect as tiered");
    assert_eq!(t.num_cpus(), 4);
    // Workers 0..4 map to the four CPUs in placement order; with SMT pair
    // == LLC == node here, siblings are Smt and cross-pair is Remote.
    use light::parallel::StealTier;
    assert_eq!(t.tier_between(0, 1), StealTier::Smt);
    assert_eq!(t.tier_between(0, 2), StealTier::Remote);
    let order = t.victim_order(0, 4);
    // Nearest first: the SMT sibling must lead the sweep.
    assert_eq!(order[0].1, StealTier::Smt);
    assert!(order.windows(2).all(|w| w[0].1 <= w[1].1));
}

#[test]
fn missing_sysfs_falls_back_to_flat_and_counts_agree() {
    let t = CpuTopology::detect_from(Path::new("/definitely/not/a/sysfs"));
    assert!(t.is_flat());

    let g = generators::barabasi_albert(400, 5, 61);
    let expect = serial_count(Query::Triangle, &g);
    let pr = run_query_parallel(
        &Query::Triangle.pattern(),
        &g,
        &EngineConfig::light(),
        &ParallelConfig::new(4).topology(TopologyMode::Custom(t)),
    );
    assert_eq!(pr.report.matches, expect);
}

#[test]
fn all_topology_modes_agree_with_serial() {
    let g = {
        let raw = generators::rmat(11, 10_000, (0.55, 0.2, 0.2, 0.05), 43);
        light::graph::ordered::into_degree_ordered(&raw).0
    };
    let expect = serial_count(Query::P2, &g);
    let fabricated = CpuTopology::from_slots(
        (0..8)
            .map(|cpu| CpuSlot {
                cpu,
                core: cpu / 2,
                llc: cpu / 4,
                node: cpu / 4,
            })
            .collect(),
    );
    for (name, mode) in [
        ("auto", TopologyMode::Auto),
        ("flat", TopologyMode::Custom(CpuTopology::flat(4))),
        ("custom", TopologyMode::Custom(fabricated)),
    ] {
        let pr = run_query_parallel(
            &Query::P2.pattern(),
            &g,
            &EngineConfig::light(),
            &ParallelConfig::new(4).topology(mode),
        );
        assert_eq!(pr.report.matches, expect, "{name}");
        // Sanity on stats regardless of mode: tier counters never exceed
        // total steals, and every worker reported.
        let steals: u64 = pr.workers.iter().map(|w| w.steals).sum();
        let tiered: u64 = pr.steal_tier_totals().iter().sum();
        assert!(tiered <= steals, "{name}");
        assert_eq!(pr.workers.len(), 4, "{name}");
    }
}

#[test]
fn affinity_refusal_is_invisible_in_results() {
    // Bogus CPU ids: every sched_setaffinity call fails, all workers run
    // unpinned, and the run is indistinguishable count-wise.
    let g = generators::barabasi_albert(300, 4, 71);
    let expect = serial_count(Query::P1, &g);
    let topo = CpuTopology::from_slots(
        (0..4)
            .map(|i| CpuSlot {
                cpu: 90_000 + i,
                core: i,
                llc: 0,
                node: 0,
            })
            .collect(),
    );
    let pr = run_query_parallel(
        &Query::P1.pattern(),
        &g,
        &EngineConfig::light(),
        &ParallelConfig::new(4).topology(TopologyMode::Custom(topo)),
    );
    assert_eq!(pr.report.matches, expect);
    assert!(
        pr.workers.iter().all(|w| w.cpu.is_none()),
        "refused affinity must not be reported as pinned"
    );
}
