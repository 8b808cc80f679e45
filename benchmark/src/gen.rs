//! Seeded graph generators. The program under test never sees these — it
//! only sees the text edge lists they write.

use std::io::{BufWriter, Write};

use crate::rng::SplitMix64;

/// An undirected simple graph as a list of `(u, v)` with `u < v`, each
/// edge once, over vertices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    pub n: u32,
    pub edges: Vec<(u32, u32)>,
}

/// What to generate. `scaled_down` gives the small twin the brute-force
/// oracle can count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSpec {
    /// Barabási–Albert preferential attachment: `n` vertices, `k` edges
    /// per arriving vertex, seeded by a ring of `core` vertices each joined
    /// to its `k` successors. `core = k + 1` is the classic `(k+1)`-clique
    /// seed, whose few founders become hubs of a size that differs widely
    /// from seed to seed; a wide core shares the early edges among `core`
    /// equal founders, so hub-driven query costs repeat across seeds.
    Ba { n: u32, k: u32, core: u32 },
    /// R-MAT with `2^scale` vertices and `m` edge draws (duplicates and
    /// self-loops dropped) at quadrant probabilities 0.5/0.2/0.2/0.1.
    Rmat { scale: u32, m: u32 },
}

impl GraphSpec {
    pub fn generate(self, rng: &mut SplitMix64) -> EdgeList {
        match self {
            GraphSpec::Ba { n, k, core } => barabasi_albert(n, k, core, rng),
            GraphSpec::Rmat { scale, m } => rmat(scale, m, rng),
        }
    }

    /// The ~1/100-scale twin: same model and density (a BA twin always
    /// grows from the clique), small enough for the brute-force oracle.
    pub fn scaled_down(self) -> GraphSpec {
        match self {
            GraphSpec::Ba { n, k, .. } => GraphSpec::Ba {
                n: (n / 100).max(k + 2),
                k,
                core: k + 1,
            },
            GraphSpec::Rmat { scale, m } => GraphSpec::Rmat {
                scale: scale.saturating_sub(7).max(4),
                m: (m / 100).max(16),
            },
        }
    }
}

pub fn barabasi_albert(n: u32, k: u32, core: u32, rng: &mut SplitMix64) -> EdgeList {
    assert!(k >= 1 && core > k && n > core, "BA needs n > core > k >= 1");
    let mut edges = Vec::with_capacity(n as usize * k as usize);
    for u in 0..core {
        for d in 1..=k {
            let v = (u + d) % core;
            edges.push((u.min(v), u.max(v)));
        }
    }
    // A ring narrower than 2k + 1 names some pairs from both ends.
    edges.sort_unstable();
    edges.dedup();
    // One entry per edge endpoint: drawing uniformly from it is drawing a
    // vertex proportionally to its degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n as usize * k as usize);
    endpoints.extend(edges.iter().flat_map(|&(u, v)| [u, v]));
    let mut picked: Vec<u32> = Vec::with_capacity(k as usize);
    for v in core..n {
        picked.clear();
        while picked.len() < k as usize {
            let t = endpoints[rng.below(endpoints.len() as u64) as usize];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            edges.push((t, v));
            endpoints.extend([t, v]);
        }
    }
    EdgeList { n, edges }
}

pub fn rmat(scale: u32, m: u32, rng: &mut SplitMix64) -> EdgeList {
    assert!((1..=30).contains(&scale));
    const A: f64 = 0.5;
    const B: f64 = 0.2;
    const C: f64 = 0.2;
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let r = rng.unit();
            let (du, dv) = if r < A {
                (0, 0)
            } else if r < A + B {
                (0, 1)
            } else if r < A + B + C {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u != v {
            edges.push((u.min(v), u.max(v)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    EdgeList {
        n: 1 << scale,
        edges,
    }
}

/// SNAP-style text: a `#` header, then one `u v` pair per line.
pub fn write_edge_list(g: &EdgeList, out: impl Write) -> std::io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, out);
    writeln!(w, "# vertices {} edges {}", g.n, g.edges.len())?;
    let mut line = Vec::with_capacity(24);
    for &(u, v) in &g.edges {
        line.clear();
        push_u32(&mut line, u);
        line.push(b' ');
        push_u32(&mut line, v);
        line.push(b'\n');
        w.write_all(&line)?;
    }
    w.flush()
}

fn push_u32(out: &mut Vec<u8>, mut x: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_simple(g: &EdgeList) -> bool {
        let mut e = g.edges.clone();
        e.sort_unstable();
        e.dedup();
        e.len() == g.edges.len() && g.edges.iter().all(|&(u, v)| u < v && v < g.n)
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for spec in [
            GraphSpec::Ba {
                n: 300,
                k: 4,
                core: 5,
            },
            GraphSpec::Ba {
                n: 300,
                k: 4,
                core: 40,
            },
            GraphSpec::Rmat { scale: 8, m: 900 },
        ] {
            let a = spec.generate(&mut SplitMix64::stream(5, "g"));
            let b = spec.generate(&mut SplitMix64::stream(5, "g"));
            let c = spec.generate(&mut SplitMix64::stream(6, "g"));
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert!(is_simple(&a) && is_simple(&c));
        }
    }

    #[test]
    fn ba_has_the_expected_edge_count() {
        let g = barabasi_albert(500, 3, 4, &mut SplitMix64::new(1));
        // 4-clique seed (6 edges) + 3 per later vertex.
        assert_eq!(g.edges.len(), 6 + 3 * (500 - 4));
        assert_eq!(
            g.edges[..6],
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        // A 20-ring joined to 3 successors each (60 edges), all founders
        // of degree 6 before the first arrival.
        let wide = barabasi_albert(500, 3, 20, &mut SplitMix64::new(1));
        assert_eq!(wide.edges.len(), 60 + 3 * (500 - 20));
        for u in 0..20 {
            let seed_degree = wide.edges[..60]
                .iter()
                .filter(|&&(a, b)| a == u || b == u)
                .count();
            assert_eq!(seed_degree, 6);
        }
    }

    #[test]
    fn twins_keep_the_model_and_shrink() {
        assert_eq!(
            GraphSpec::Ba {
                n: 30_000,
                k: 9,
                core: 64
            }
            .scaled_down(),
            GraphSpec::Ba {
                n: 300,
                k: 9,
                core: 10
            }
        );
        assert_eq!(
            GraphSpec::Rmat {
                scale: 17,
                m: 800_000
            }
            .scaled_down(),
            GraphSpec::Rmat { scale: 10, m: 8000 }
        );
    }

    #[test]
    fn edge_list_text_round_trips() {
        let g = barabasi_albert(50, 2, 3, &mut SplitMix64::new(9));
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let parsed: Vec<(u32, u32)> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let (a, b) = l.split_once(' ').unwrap();
                (a.parse().unwrap(), b.parse().unwrap())
            })
            .collect();
        assert_eq!(parsed, g.edges);
    }
}
