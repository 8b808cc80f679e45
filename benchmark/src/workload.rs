//! The six workloads: which graph, which queries, which traffic. Names are
//! normative (BENCHMARK.json, README.md); sizes were calibrated once on
//! the 2-core reference box so that one pass or one request is short
//! against the 15 s a run measures.

use crate::gen::GraphSpec;

/// A generated graph. Graphs are drawn from `stream(seed, graph)`, so two
/// workloads naming the same `graph` get the same edges for a seed (and
/// share golden counts) while keeping private files.
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    pub graph: &'static str,
    pub spec: GraphSpec,
}

/// One `light count` invocation of a one-shot pass.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub name: &'static str,
    pub pattern: &'static str,
    /// Count over the text edge list instead of the v2 snapshot.
    pub text: bool,
}

#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Cold `light count` processes, one per cell, `--threads T`.
    OneShot,
    /// One connection, closed loop.
    Point,
    /// `C` connections: a closed-loop capacity segment, then an open-loop
    /// segment at `open_rate_per_conn` requests per second per connection.
    Mixed { open_rate_per_conn: f64 },
    /// A writer sending `update` batches open-loop at `updates_per_s`
    /// beside one closed-loop reader.
    Churn { updates_per_s: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub fixture: Fixture,
    /// One-shot cells; for serve workloads, one per pattern of the mix
    /// (they give the expected counts and feed the layer replay).
    pub cells: &'static [Cell],
    pub traffic: Traffic,
}

impl Workload {
    /// Distinct patterns of the cells, in first-use order.
    pub fn patterns(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for c in self.cells {
            if !out.contains(&c.pattern) {
                out.push(c.pattern);
            }
        }
        out
    }

    pub fn is_serve(&self) -> bool {
        !matches!(self.traffic, Traffic::OneShot)
    }
}

const fn v2(name: &'static str, pattern: &'static str) -> Cell {
    Cell {
        name,
        pattern,
        text: false,
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "count_dense",
        why: "enumeration-bound one-shot counts on a social graph: core, merge kernels, aux cache and parallel do the work; storage and planning are noise",
        fixture: Fixture {
            graph: "ba_mid",
            spec: GraphSpec::Ba {
                n: 3_000,
                k: 12,
                core: 13,
            },
        },
        cells: &[v2("dense.P1", "P1"), v2("dense.P4", "P4")],
        traffic: Traffic::OneShot,
    },
    Workload {
        name: "count_skew",
        why: "the same layers on a hub-skewed R-MAT graph: galloping kernels, skewed root subtrees, lazy materialisation; a kernel or donation change that only helps count_dense must show here",
        fixture: Fixture {
            graph: "rmat_mid",
            spec: GraphSpec::Rmat {
                scale: 15,
                m: 200_000,
            },
        },
        cells: &[
            v2("skew.P3", "P3"),
            v2("skew.P6", "P6"),
            v2("skew.P7", "P7"),
        ],
        traffic: Traffic::OneShot,
    },
    Workload {
        name: "count_cold",
        why: "a cheap query on a large graph from a cold process: mmap open, text parse, stats pass and planning dominate and are serial; an engine optimisation predicts no change here",
        fixture: Fixture {
            graph: "ba_large",
            spec: GraphSpec::Ba {
                n: 100_000,
                k: 8,
                core: 9,
            },
        },
        cells: &[
            v2("cold.v2", "triangle"),
            Cell {
                name: "cold.txt",
                pattern: "triangle",
                text: true,
            },
        ],
        traffic: Traffic::OneShot,
    },
    Workload {
        name: "serve_point",
        why: "one closed-loop connection, millisecond queries: per-request fixed cost (reactor, JSON, admission, batch gate as a singleton, plan-cache hit, render) dominates; batching can only cost here",
        fixture: Fixture {
            graph: "ba_point",
            spec: GraphSpec::Ba {
                n: 2_000,
                k: 3,
                core: 4,
            },
        },
        cells: &[
            v2("point.triangle", "triangle"),
            v2("point.P2", "P2"),
            v2("point.P3", "P3"),
        ],
        traffic: Traffic::Point,
    },
    Workload {
        name: "serve_mixed",
        why: "C connections, six-pattern mix, closed loop for capacity then open loop at a fixed rate: real batch overlap, shared aux store and queueing matter; batching should pay here",
        // The square is the one heavy query (~20 ms served, the rest ~3 ms),
        // so the open loop's p90 is its latency. It is the square and a
        // 128-founder core because that latency must not hang on the seed:
        // over 20 seeds its intersections stay within ±3 % here, where on
        // classic BA(4 000, 3) the house's time ranged 8–27 ms (hub sizes)
        // and its plan flipped between two near-tied orders.
        fixture: Fixture {
            graph: "ba_serve",
            spec: GraphSpec::Ba {
                n: 2_000,
                k: 3,
                core: 128,
            },
        },
        cells: &[
            v2("mixed.triangle", "triangle"),
            v2("mixed.P1", "P1"),
            v2("mixed.P2", "P2"),
            v2("mixed.P3", "P3"),
            v2("mixed.P6", "P6"),
            v2("mixed.P7", "P7"),
        ],
        traffic: Traffic::Mixed {
            open_rate_per_conn: 20.0,
        },
    },
    Workload {
        name: "serve_churn",
        why: "update batches beside reads on a private snapshot: commit cost (CSR rebuild + stats recompute, O(|E|)) and invalidation dominate, every read re-plans; a read cache that slows commits is caught",
        fixture: Fixture {
            graph: "ba_churn",
            spec: GraphSpec::Ba {
                n: 16_000,
                k: 8,
                core: 9,
            },
        },
        cells: &[v2("churn.triangle", "triangle"), v2("churn.P2", "P2")],
        traffic: Traffic::Churn {
            updates_per_s: 20.0,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_patterns_known() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            for c in w.cells {
                assert!(crate::oracle::pattern(c.pattern).is_some());
                assert!(!c.text || !w.is_serve());
            }
        }
        assert_eq!(find("serve_mixed").unwrap().patterns().len(), 6);
        assert_eq!(find("count_cold").unwrap().patterns(), ["triangle"]);
        assert!(find("nope").is_none());
    }
}
