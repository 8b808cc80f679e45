//! Brute-force subgraph counter: the benchmark's own notion of the right
//! answer, sharing no code with the program under test. It counts
//! non-induced embeddings by plain backtracking and divides by the
//! pattern's automorphism count, which is what `light count` reports.
//! Only ever run on the ~1/100-scale twins.

use crate::gen::EdgeList;

/// The paper's query catalog by the names the CLI and the wire protocol
/// accept: `(vertices, edges)`.
pub fn pattern(name: &str) -> Option<(usize, &'static [(usize, usize)])> {
    Some(match name {
        "triangle" => (3, &[(0, 1), (1, 2), (2, 0)]),
        "P1" => (4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
        "P2" => (4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        "P3" => (4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        "P4" => (5, &[(0, 1), (1, 4), (4, 3), (3, 0), (0, 2), (2, 3)]),
        "P6" => (
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (0, 4),
                (1, 4),
            ],
        ),
        "P7" => (
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
            ],
        ),
        _ => return None,
    })
}

/// Matches of `pattern_name` in `g`, up to automorphism.
pub fn count(g: &EdgeList, pattern_name: &str) -> u64 {
    let (k, pedges) = pattern(pattern_name).expect("pattern is in the benchmark catalog");
    let data = adjacency(g.n as usize, &g.edges);
    let pat_edges: Vec<(u32, u32)> = pedges.iter().map(|&(a, b)| (a as u32, b as u32)).collect();
    let pat = adjacency(k, &pat_edges);
    let embeddings = embeddings_of(&pat, &data);
    let automorphisms = embeddings_of(&pat, &pat);
    debug_assert_eq!(embeddings % automorphisms, 0);
    embeddings / automorphisms
}

fn adjacency(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    adj
}

/// Injective maps `f: V(pat) → V(data)` with every pattern edge mapped
/// onto a data edge, pattern vertices bound in index order.
fn embeddings_of(pat: &[Vec<u32>], data: &[Vec<u32>]) -> u64 {
    fn extend(pat: &[Vec<u32>], data: &[Vec<u32>], bound: &mut Vec<u32>) -> u64 {
        let u = bound.len();
        if u == pat.len() {
            return 1;
        }
        let back: Vec<u32> = pat[u]
            .iter()
            .filter(|&&w| (w as usize) < u)
            .map(|&w| bound[w as usize])
            .collect();
        // Candidates: neighbours of the first bound pattern-neighbour, or
        // every vertex when `u` has none yet.
        let all: Vec<u32>;
        let candidates: &[u32] = match back.first() {
            Some(&x) => &data[x as usize],
            None => {
                all = (0..data.len() as u32).collect();
                &all
            }
        };
        let mut total = 0;
        for &v in candidates {
            if bound.contains(&v) {
                continue;
            }
            if back[back.len().min(1)..]
                .iter()
                .all(|&x| data[x as usize].binary_search(&v).is_ok())
            {
                bound.push(v);
                total += extend(pat, data, bound);
                bound.pop();
            }
        }
        total
    }
    extend(pat, data, &mut Vec::with_capacity(pat.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: u32) -> EdgeList {
        let edges = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        EdgeList { n, edges }
    }

    #[test]
    fn k5_hand_counts() {
        let k5 = complete(5);
        assert_eq!(count(&k5, "triangle"), 10);
        assert_eq!(count(&k5, "P3"), 5); // four-cliques
        assert_eq!(count(&k5, "P1"), 15); // squares: C(5,4) x 3 cycles
        assert_eq!(count(&k5, "P7"), 1); // the five-clique itself
        assert_eq!(count(&k5, "P2"), 30); // diamonds: 5 x C(4,2) chords
    }

    #[test]
    fn sparse_hand_counts() {
        // A square with one chord: 2 triangles, 1 square, 1 diamond.
        let g = EdgeList {
            n: 4,
            edges: vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
        };
        assert_eq!(count(&g, "triangle"), 2);
        assert_eq!(count(&g, "P1"), 1);
        assert_eq!(count(&g, "P2"), 1);
        assert_eq!(count(&g, "P3"), 0);
        // A house: square 0-1-2-3 with roof 4 over the wall (0,1).
        let house = EdgeList {
            n: 5,
            edges: vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)],
        };
        assert_eq!(count(&house, "P4"), 1);
        assert_eq!(count(&house, "triangle"), 1);
    }

    #[test]
    fn k6_p6_count() {
        // 4-clique + pendant triangle vertex on one clique edge, in K6:
        // C(6,4) cliques x 6 edges x 2 outside vertices.
        assert_eq!(count(&complete(6), "P6"), 15 * 6 * 2);
    }
}
