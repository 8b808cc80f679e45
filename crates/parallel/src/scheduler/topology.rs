//! CPU topology detection from `/sys/devices/system/cpu`.
//!
//! The scheduler wants to know, for any two logical CPUs, how far apart
//! they are in the cache hierarchy, so steal victims can be tried
//! nearest-first (a stolen task's root candidates are warm in the victim's
//! caches; stealing across a socket drags them over the interconnect).
//! Three nested groupings are read per online CPU:
//!
//! * **SMT core** — `cpuN/topology/thread_siblings_list`: hyperthread
//!   siblings share L1/L2;
//! * **LLC domain** — `cpuN/cache/index3/shared_cpu_list` (falling back to
//!   `index2` on parts without an L3): CPUs sharing the last-level cache;
//! * **NUMA node** — `/sys/devices/system/node/node*/cpulist`: CPUs with
//!   uniform memory latency.
//!
//! Detection never fails hard. Anything missing or malformed — a
//! container with `/sys` masked, a non-Linux host, an exotic layout —
//! degrades to the **flat topology**: every CPU in one core, one LLC, one
//! node. Flat topology makes every steal tier identical, so tiered victim
//! ordering decays to exactly the old round-robin sweep and the scheduler
//! behaves as before (the fallback the container test matrix pins).

use std::path::{Path, PathBuf};

/// How far a steal victim sits from the thief, nearest first. The
/// numeric order is load-bearing: victim lists are sorted by tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StealTier {
    /// Same physical core (SMT sibling): shares L1/L2.
    Smt = 0,
    /// Same last-level-cache domain.
    Llc = 1,
    /// Same NUMA node, different LLC.
    Node = 2,
    /// Different NUMA node (or unknown).
    Remote = 3,
}

impl StealTier {
    /// Display name, index-compatible with
    /// [`light_metrics::STEAL_TIER_NAMES`].
    pub fn name(self) -> &'static str {
        light_metrics::STEAL_TIER_NAMES[self as usize]
    }
}

/// One logical CPU's placement in the hierarchy. Group ids are dense
/// small integers private to the owning [`CpuTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSlot {
    /// Logical CPU id (the `N` of `cpuN`, what `sched_setaffinity` wants).
    pub cpu: usize,
    /// SMT core group id.
    pub core: usize,
    /// Last-level-cache group id.
    pub llc: usize,
    /// NUMA node id.
    pub node: usize,
}

/// The machine's CPU hierarchy as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuTopology {
    /// Online CPUs in placement order: sorted by (node, LLC, core, cpu),
    /// so workers assigned to consecutive slots land close together and
    /// fill whole cores/LLC domains before spilling to the next.
    slots: Vec<CpuSlot>,
    /// Whether this is the degenerate single-group fallback.
    flat: bool,
}

impl CpuTopology {
    /// Detect from the live `/sys`; flat fallback on any failure.
    pub fn detect() -> CpuTopology {
        Self::detect_from(Path::new("/sys"))
    }

    /// Detect from a sysfs-shaped tree rooted at `root` (tests point this
    /// at a fabricated directory). Expects `root/devices/system/cpu` and
    /// `root/devices/system/node`; returns [`CpuTopology::flat`] with the
    /// host's parallelism if anything essential is missing.
    pub fn detect_from(root: &Path) -> CpuTopology {
        match Self::try_detect(root) {
            Some(t) if !t.slots.is_empty() => t,
            _ => Self::flat(available_cpus()),
        }
    }

    /// The degenerate topology: `n` CPUs, one core, one LLC, one node.
    /// The detection fallback; inject it with `TopologyMode::Custom` for
    /// the topology-blind scheduler (no pinning, round-robin victims).
    pub fn flat(n: usize) -> CpuTopology {
        CpuTopology {
            slots: (0..n.max(1))
                .map(|cpu| CpuSlot {
                    cpu,
                    core: 0,
                    llc: 0,
                    node: 0,
                })
                .collect(),
            flat: true,
        }
    }

    /// Build a topology from explicit slots — tests and harnesses
    /// fabricate multi-node layouts on any host. Slots are sorted into
    /// placement order; the result is always treated as a real (tiered)
    /// hierarchy, never flat.
    pub fn from_slots(mut slots: Vec<CpuSlot>) -> CpuTopology {
        assert!(!slots.is_empty(), "a topology needs at least one CPU");
        slots.sort_by_key(|s| (s.node, s.llc, s.core, s.cpu));
        CpuTopology { slots, flat: false }
    }

    fn try_detect(root: &Path) -> Option<CpuTopology> {
        let cpu_dir = root.join("devices/system/cpu");
        let online = parse_cpu_list(&std::fs::read_to_string(cpu_dir.join("online")).ok()?)?;
        if online.is_empty() {
            return None;
        }
        // Group-id interner: identical membership lists get one id.
        let mut core_ids: Vec<Vec<usize>> = Vec::new();
        let mut llc_ids: Vec<Vec<usize>> = Vec::new();
        let intern = |table: &mut Vec<Vec<usize>>, members: Vec<usize>| -> usize {
            if let Some(i) = table.iter().position(|m| *m == members) {
                i
            } else {
                table.push(members);
                table.len() - 1
            }
        };
        // NUMA: cpu -> node from node*/cpulist (absent on single-node
        // kernels without CONFIG_NUMA exposure; default node 0).
        let node_of = read_numa_nodes(&root.join("devices/system/node"));

        let mut slots = Vec::with_capacity(online.len());
        for &cpu in &online {
            let base = cpu_dir.join(format!("cpu{cpu}"));
            let siblings =
                read_list(&base.join("topology/thread_siblings_list")).unwrap_or_else(|| vec![cpu]);
            // LLC: deepest cache index present (index3, else index2).
            let llc = read_list(&base.join("cache/index3/shared_cpu_list"))
                .or_else(|| read_list(&base.join("cache/index2/shared_cpu_list")))
                .unwrap_or_else(|| vec![cpu]);
            slots.push(CpuSlot {
                cpu,
                core: intern(&mut core_ids, siblings),
                llc: intern(&mut llc_ids, llc),
                node: node_of.get(&cpu).copied().unwrap_or(0),
            });
        }
        slots.sort_by_key(|s| (s.node, s.llc, s.core, s.cpu));
        Some(CpuTopology { slots, flat: false })
    }

    /// Whether this is the single-group fallback (no real hierarchy).
    pub fn is_flat(&self) -> bool {
        self.flat
    }

    /// Online CPU count.
    pub fn num_cpus(&self) -> usize {
        self.slots.len()
    }

    /// The slot worker `i` is assigned to (round-robin past the CPU
    /// count, so oversubscribed runs still get a deterministic mapping).
    pub fn slot_for_worker(&self, worker: usize) -> CpuSlot {
        self.slots[worker % self.slots.len()]
    }

    /// Distance tier between two workers' assigned CPUs.
    pub fn tier_between(&self, a: usize, b: usize) -> StealTier {
        let (sa, sb) = (self.slot_for_worker(a), self.slot_for_worker(b));
        if sa.core == sb.core {
            StealTier::Smt
        } else if sa.llc == sb.llc {
            StealTier::Llc
        } else if sa.node == sb.node {
            StealTier::Node
        } else {
            StealTier::Remote
        }
    }

    /// The victim sweep order for `worker` among `k` workers: every other
    /// worker, sorted nearest tier first; within a tier, rotated to start
    /// just past `worker` so concurrent thieves fan out instead of all
    /// hammering worker 0. On a flat topology every tier ties and this is
    /// exactly the old `(id + step) % k` sweep.
    pub fn victim_order(&self, worker: usize, k: usize) -> Vec<(usize, StealTier)> {
        let mut order: Vec<(usize, StealTier)> = (1..k)
            .map(|step| {
                let v = (worker + step) % k;
                (v, self.tier_between(worker, v))
            })
            .collect();
        // Stable: preserves the rotated within-tier order.
        order.sort_by_key(|&(_, tier)| tier);
        order
    }

    /// Human-readable affinity map for diagnostics: one
    /// `worker->cpu(core/llc/node)` entry per worker.
    pub fn affinity_map(&self, k: usize) -> String {
        (0..k)
            .map(|w| {
                let s = self.slot_for_worker(w);
                format!("w{w}->cpu{}(c{}/l{}/n{})", s.cpu, s.core, s.llc, s.node)
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// `std::thread::available_parallelism` with a 1 floor.
pub fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn read_list(path: &PathBuf) -> Option<Vec<usize>> {
    parse_cpu_list(&std::fs::read_to_string(path).ok()?)
}

/// Parse the kernel's cpulist format: `0-3,5,8-9`. Returns `None` on any
/// malformed field (the caller falls back rather than guessing).
fn parse_cpu_list(s: &str) -> Option<Vec<usize>> {
    let s = s.trim();
    let mut out = Vec::new();
    if s.is_empty() {
        return Some(out);
    }
    for part in s.split(',') {
        let part = part.trim();
        if let Some((lo, hi)) = part.split_once('-') {
            let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
            if lo > hi || hi - lo > 4096 {
                return None;
            }
            out.extend(lo..=hi);
        } else {
            out.push(part.parse().ok()?);
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

/// Map cpu -> NUMA node by scanning `node*/cpulist`.
fn read_numa_nodes(node_dir: &Path) -> std::collections::HashMap<usize, usize> {
    let mut map = std::collections::HashMap::new();
    let Ok(entries) = std::fs::read_dir(node_dir) else {
        return map;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("node"))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        if let Some(cpus) = read_list(&e.path().join("cpulist")) {
            for c in cpus {
                map.insert(c, id);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_list_parsing() {
        assert_eq!(parse_cpu_list("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpu_list("0-1,4,6-7\n"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list(""), Some(vec![]));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        assert_eq!(parse_cpu_list("0-999999999"), None);
    }

    #[test]
    fn flat_topology_is_single_group() {
        let t = CpuTopology::flat(4);
        assert!(t.is_flat());
        assert_eq!(t.num_cpus(), 4);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.tier_between(a, b), StealTier::Smt);
            }
        }
        // Victim order decays to the old round-robin sweep.
        let order = t.victim_order(1, 4);
        let victims: Vec<usize> = order.iter().map(|&(v, _)| v).collect();
        assert_eq!(victims, vec![2, 3, 0]);
    }

    #[test]
    fn flat_zero_floors_to_one_cpu() {
        assert_eq!(CpuTopology::flat(0).num_cpus(), 1);
    }

    #[test]
    fn missing_sysfs_falls_back_flat() {
        let t = CpuTopology::detect_from(Path::new("/nonexistent/sysfs/root"));
        assert!(t.is_flat());
        assert!(t.num_cpus() >= 1);
    }

    #[test]
    fn live_detection_never_panics() {
        let t = CpuTopology::detect();
        assert!(t.num_cpus() >= 1);
        let _ = t.victim_order(0, t.num_cpus().max(2));
        let _ = t.affinity_map(2);
    }

    #[test]
    fn tier_ordering_is_nearest_first() {
        assert!(StealTier::Smt < StealTier::Llc);
        assert!(StealTier::Llc < StealTier::Node);
        assert!(StealTier::Node < StealTier::Remote);
        assert_eq!(StealTier::Smt.name(), "smt");
        assert_eq!(StealTier::Remote.name(), "remote");
    }
}
