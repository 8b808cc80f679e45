//! The cost model of Equation 8 and the enumeration-order optimizer (§VI).
//!
//! `T = α · Σ_u w_u^(2) · |R(P[A^π(u)])|  +  Σ_i |R(P_i^{π'})|`
//!
//! where `π'` is the materialization order (MAT sequence of σ). LIGHT
//! "simply enumerates all the connected orders of V(P)" — patterns are tiny
//! — scores each with Equation 8, prunes by symmetry breaking (`u < u'` in
//! the partial order ⇒ `u` before `u'` in π), and breaks ties by
//! prioritizing orders that place constrained vertices early.

use light_pattern::{PartialOrder, PatternGraph, PatternVertex};

use crate::anchor::anchor_info;
use crate::estimate::Estimator;
use crate::exec_order::ExecutionOrder;
use crate::setcover::generate_operands;

/// Equation 8 for one candidate order. Exposed for the ablation bench that
/// compares the optimizer against naive orders.
pub fn order_cost(p: &PatternGraph, pi: &[PatternVertex], est: &Estimator) -> f64 {
    let eo = ExecutionOrder::generate(p, pi);
    let ops = generate_operands(p, pi);
    let ai = anchor_info(p, &eo);
    let alpha = est.alpha(p);

    // Computation term: α Σ_u w_u^(2) |R(P[A(u)])|.
    let mut comp = 0.0;
    for &u in &pi[1..] {
        let w = ops[u as usize].intersections() as f64;
        if w > 0.0 {
            comp += w * est.cardinality(p, ai.anchors[u as usize]);
        }
    }

    // Materialization term: Σ_i |R(P_i^{π'})| over prefixes of the MAT
    // order.
    let mat_order = eo.mat_order();
    let mut mat = 0.0;
    let mut prefix = 0u16;
    for &u in &mat_order {
        prefix |= 1 << u;
        mat += est.cardinality(p, prefix);
    }

    alpha * comp + mat
}

/// Enumerate every connected enumeration order of `p` compatible with the
/// symmetry-breaking partial order, and return the one minimizing
/// Equation 8. Ties prefer orders whose constrained vertices appear
/// earliest.
pub fn choose_order(p: &PatternGraph, po: &PartialOrder, est: &Estimator) -> Vec<PatternVertex> {
    let n = p.num_vertices();
    let mut best: Option<(f64, u64, Vec<PatternVertex>)> = None;
    let mut current: Vec<PatternVertex> = Vec::with_capacity(n);
    let constrained = po.constrained_mask();

    enumerate_orders(p, po, &mut current, &mut |pi| {
        let cost = order_cost(p, pi, est);
        // Tie-break key: sum of positions of constrained vertices (lower =
        // earlier placement).
        let tie: u64 = pi
            .iter()
            .enumerate()
            .filter(|(_, &u)| constrained & (1 << u) != 0)
            .map(|(pos, _)| pos as u64)
            .sum();
        let better = match &best {
            None => true,
            Some((bc, bt, _)) => cost < *bc || (cost == *bc && tie < *bt),
        };
        if better {
            best = Some((cost, tie, pi.to_vec()));
        }
    });

    best.expect("connected pattern must admit a connected order")
        .2
}

/// Backtracking enumeration of connected orders compatible with `po`
/// ("given u_i < u_j, u_i must be positioned before u_j in π", §VI).
fn enumerate_orders(
    p: &PatternGraph,
    po: &PartialOrder,
    current: &mut Vec<PatternVertex>,
    visit: &mut impl FnMut(&[PatternVertex]),
) {
    let n = p.num_vertices();
    if current.len() == n {
        visit(current);
        return;
    }
    let placed: u16 = current.iter().fold(0, |m, &u| m | (1 << u));
    for v in p.vertices() {
        if placed & (1 << v) != 0 {
            continue;
        }
        // Connectivity: after the first vertex, v needs a backward neighbor.
        if !current.is_empty() && p.neighbors_mask(v) & placed == 0 {
            continue;
        }
        // Symmetry pruning: every u with u < v constraint must already be
        // placed.
        if po
            .pairs()
            .iter()
            .any(|&(a, b)| b == v && placed & (1 << a) == 0)
        {
            continue;
        }
        current.push(v);
        enumerate_orders(p, po, current, visit);
        current.pop();
    }
}

/// Count connected orders compatible with the partial order (test/diagnostic
/// helper; shows how much the symmetry pruning shrinks the search).
pub fn count_orders(p: &PatternGraph, po: &PartialOrder) -> usize {
    let mut count = 0;
    let mut current = Vec::new();
    enumerate_orders(p, po, &mut current, &mut |_| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use light_graph::generators;
    use light_pattern::Query;

    fn estimator() -> Estimator {
        let g = generators::barabasi_albert(2000, 4, 11);
        Estimator::from_stats(&light_graph::stats::compute_stats(&g))
    }

    #[test]
    fn chosen_orders_are_connected_and_compatible() {
        let est = estimator();
        for q in Query::ALL {
            let p = q.pattern();
            let po = q.partial_order();
            let pi = choose_order(&p, &po, &est);
            assert!(p.is_connected_order(&pi), "{}: {pi:?}", q.name());
            for &(a, b) in po.pairs() {
                let pa = pi.iter().position(|&x| x == a).unwrap();
                let pb = pi.iter().position(|&x| x == b).unwrap();
                assert!(
                    pa < pb,
                    "{}: constraint {a}<{b} violated in {pi:?}",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn symmetry_pruning_shrinks_search() {
        let p = Query::P3.pattern(); // K4: all 24 permutations are connected
        let none = PartialOrder::none();
        let po = Query::P3.partial_order(); // total order on 4 vertices
        assert_eq!(count_orders(&p, &none), 24);
        assert_eq!(count_orders(&p, &po), 1);
    }

    #[test]
    fn connected_order_counts() {
        // Path 0-1-2: connected orders are those where each next vertex
        // touches the placed set: (0,1,2),(1,0,2),(1,2,0),(2,1,0) = 4.
        let p = light_pattern::PatternGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(count_orders(&p, &PartialOrder::none()), 4);
    }

    #[test]
    fn cost_is_positive_and_finite() {
        let est = estimator();
        for q in Query::ALL {
            let p = q.pattern();
            let pi: Vec<u8> = (0..p.num_vertices() as u8).collect();
            if !p.is_connected_order(&pi) {
                continue;
            }
            let c = order_cost(&p, &pi, &est);
            assert!(c.is_finite() && c > 0.0, "{}: cost {c}", q.name());
        }
    }

    #[test]
    fn optimizer_beats_or_matches_every_compatible_order() {
        let est = estimator();
        let p = Query::P2.pattern();
        let po = Query::P2.partial_order();
        let chosen = choose_order(&p, &po, &est);
        let chosen_cost = order_cost(&p, &chosen, &est);
        let mut current = Vec::new();
        enumerate_orders(&p, &po, &mut current, &mut |pi| {
            assert!(order_cost(&p, pi, &est) >= chosen_cost);
        });
    }

    #[test]
    fn dense_anchor_orders_win_on_dense_graphs() {
        // On any graph, the diamond's best order should start from the
        // chord {u0, u2} (the degree-3 pair), matching the paper's
        // π(P2) = (u0, u2, u1, u3): anchoring on the chord lets both u1 and
        // u3 share one intersection.
        let est = estimator();
        let p = Query::P2.pattern();
        let po = Query::P2.partial_order();
        let pi = choose_order(&p, &po, &est);
        assert_eq!(&pi[..2], &[0, 2], "got {pi:?}");
    }
}
