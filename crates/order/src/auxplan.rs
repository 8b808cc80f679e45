//! Auxiliary-cache planning: which COMPs profit from trimmed-adjacency
//! reuse across sibling subtrees (GraphMini-style, adapted to LIGHT's σ).
//!
//! ## The redundancy being attacked
//!
//! Consider `COMP(u)` with operands `N(φ(w)) ∩ F1 ∩ … ∩ Fk` where the
//! `Fi` become *ready* (their contents fixed) at σ slots at or below some
//! slot `s`, while `w` is materialized at a deeper slot `m > s`. Every MAT
//! loop at a slot strictly between `s` and `COMP(u)` re-executes `COMP(u)`
//! with the `Fi` unchanged:
//!
//! * MAT loops in `(m, c)` repeat the computation with the *same* `φ(w)` —
//!   guaranteed recomputation of an identical result;
//! * MAT loops in `(s, m)` change `φ(w)`, but the same data vertex `v`
//!   recurs as the binding of `w` across sibling iterations (on the square
//!   pattern, `v` recurs once per common neighbor of the root and `v`).
//!
//! Both redundancies vanish if the engine memoizes the *trimmed* list
//! `N(v) ∩ F1 ∩ … ∩ Fk` keyed by `(slot, v)` and invalidated when any
//! binding at a slot `≤ s` changes. That memo is exactly `C_φ(u)` for the
//! current fixed prefix, so a hit replaces the whole intersection with a
//! copy.
//!
//! ## The decision rule (Eq. 8 cardinality estimates)
//!
//! A [`TrimDirective`] is emitted for `COMP(u)` when
//!
//! 1. `u` has ≥ 2 operands (single-operand COMPs are alias assignments —
//!    already free);
//! 2. the last-ready operand is a K1 anchor `w` (its value is determined
//!    by the single data vertex `φ(w)`, giving a small cache key);
//! 3. at least one MAT slot lies strictly between the fixed-prefix slot
//!    `s` and `COMP(u)` (otherwise every execution sees a fresh prefix and
//!    nothing can recur);
//! 4. the estimated reuse per cached entry clears a benefit threshold.
//!
//! The reuse estimate composes the same expand factors the Eq. 8 cost
//! model uses: MAT loops in `(m, c)` multiply in their expected candidate
//! counts directly (guaranteed repeats), MAT loops in `(s, m)` contribute
//! their expected counts discounted by the closure probability (how often
//! the *same* `v` recurs under a different sibling binding). Plans built
//! without a data graph (no [`Estimator`]) enable every structurally
//! eligible directive — the engine's differential tests exercise both.

use light_pattern::{PatternGraph, PatternVertex};

use crate::estimate::Estimator;
use crate::exec_order::{ExecOp, ExecutionOrder};
use crate::setcover::Operands;

/// Default benefit threshold: a cached entry must be expected to be
/// reused at least this many times (1.0 = every entry used once, i.e.
/// pure overhead) before the planner enables trimming for a slot.
pub const DEFAULT_AUX_THRESHOLD: f64 = 1.5;

/// One auxiliary-cache decision: memoize `COMP(target)` keyed by the data
/// vertex bound to `key`, valid while no σ slot at or below `anchor_slot`
/// re-binds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrimDirective {
    /// The pattern vertex whose candidate computation is memoized.
    pub target: PatternVertex,
    /// The last-ready K1 operand; the cache key is `φ(key)`.
    pub key: PatternVertex,
    /// σ index of `COMP(target)`.
    pub comp_slot: usize,
    /// σ index of `MAT(key)` — where the key binding is introduced.
    pub key_slot: usize,
    /// Deepest σ slot whose binding the fixed operands depend on.
    pub anchor_slot: usize,
    /// Deepest MAT slot `≤ anchor_slot`. Any re-binding that could change
    /// a fixed operand re-executes this MAT before control reaches
    /// `comp_slot` again, so comparing one bind stamp at this slot against
    /// the entry's fill stamp is a sound O(1) validity check.
    pub guard_slot: usize,
    /// Estimated reuses per cached entry (∞ for structural-only plans).
    pub est_reuse: f64,
}

/// Compute the trim directives for a plan. `operands` is indexed by
/// pattern vertex; `est` is `None` for plans built without a data graph
/// (every structurally eligible slot is then enabled).
pub fn plan_trims(
    p: &PatternGraph,
    exec: &ExecutionOrder,
    operands: &[Operands],
    est: Option<&Estimator>,
    threshold: f64,
) -> Vec<TrimDirective> {
    let sigma = exec.sigma();
    let pi = exec.pi();
    let n = p.num_vertices();

    // σ positions of each vertex's MAT and COMP.
    let mut mat_slot = vec![usize::MAX; n];
    let mut comp_slot = vec![usize::MAX; n];
    for (i, op) in sigma.iter().enumerate() {
        match *op {
            ExecOp::Mat(u) => mat_slot[u as usize] = i,
            ExecOp::Comp(u) => comp_slot[u as usize] = i,
        }
    }

    // Expected MAT loop count per σ slot (expand factor of the vertex's
    // backward-edge count), for the reuse estimate.
    let loop_count = |x: PatternVertex| -> f64 {
        let Some(e) = est else { return 1.0 };
        let j = pi.iter().position(|&v| v == x).unwrap();
        let b = p.backward_neighbors(pi, j).count_ones() as usize;
        if b == 0 {
            1.0
        } else {
            e.expand_factor(b).max(1.0)
        }
    };
    // Probability that an additional backward edge closes — how often the
    // same key vertex recurs under a different sibling binding.
    let closure = est.map(|e| {
        let f1 = e.expand_factor(1);
        if f1 > 0.0 {
            (e.expand_factor(2) / f1).clamp(0.0, 1.0)
        } else {
            0.0
        }
    });

    let mut out = Vec::new();
    for &u in &pi[1..] {
        let ops = &operands[u as usize];
        if ops.num_operands() < 2 {
            continue;
        }
        // Ready slot of each operand: K1 anchors at their MAT, K2 cached
        // sets at their COMP. The last-ready operand varies fastest; the
        // rest form the fixed prefix.
        let mut last: Option<(usize, bool, PatternVertex)> = None; // (slot, is_k1, vertex)
        let mut anchor_slot = 0usize;
        for &w in &ops.k1 {
            let s = mat_slot[w as usize];
            if last.is_none_or(|(ls, _, _)| s > ls) {
                if let Some((ls, _, _)) = last {
                    anchor_slot = anchor_slot.max(ls);
                }
                last = Some((s, true, w));
            } else {
                anchor_slot = anchor_slot.max(s);
            }
        }
        for &x in &ops.k2 {
            let s = comp_slot[x as usize];
            if last.is_none_or(|(ls, _, _)| s > ls) {
                if let Some((ls, _, _)) = last {
                    anchor_slot = anchor_slot.max(ls);
                }
                last = Some((s, false, x));
            } else {
                anchor_slot = anchor_slot.max(s);
            }
        }
        let Some((key_slot, is_k1, key)) = last else {
            continue;
        };
        // Only K1 last-ready operands give a single-vertex cache key.
        if !is_k1 {
            continue;
        }
        let c = comp_slot[u as usize];
        debug_assert!(anchor_slot < key_slot && key_slot < c);

        // Reuse windows: MATs in (anchor, key_slot) create sibling
        // recurrence of the key; MATs in (key_slot, c) repeat the exact
        // computation.
        let mut sibling = 1.0f64;
        let mut repeat = 1.0f64;
        let mut any_intermediate = false;
        for (i, op) in sigma.iter().enumerate() {
            let ExecOp::Mat(x) = *op else { continue };
            if i > anchor_slot && i < key_slot {
                sibling *= loop_count(x);
                any_intermediate = true;
            } else if i > key_slot && i < c {
                repeat *= loop_count(x);
                any_intermediate = true;
            }
        }
        if !any_intermediate {
            continue;
        }
        let est_reuse = match closure {
            Some(cl) => repeat * (1.0 + cl * (sibling - 1.0).max(0.0)),
            None => f64::INFINITY,
        };
        if est_reuse < threshold {
            continue;
        }

        // Deepest MAT at or below the anchor: the O(1) invalidation guard.
        let guard_slot = (0..=anchor_slot)
            .rev()
            .find(|&i| sigma[i].is_mat())
            .expect("σ[0] is always a MAT");

        out.push(TrimDirective {
            target: u,
            key,
            comp_slot: c,
            key_slot,
            anchor_slot,
            guard_slot,
            est_reuse,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setcover::generate_operands;
    use light_graph::generators;
    use light_pattern::Query;

    fn trims_for(q: Query, pi: &[PatternVertex]) -> Vec<TrimDirective> {
        let p = q.pattern();
        let exec = ExecutionOrder::generate(&p, pi);
        let ops = generate_operands(&p, pi);
        plan_trims(&p, &exec, &ops, None, DEFAULT_AUX_THRESHOLD)
    }

    #[test]
    fn square_gets_a_directive() {
        // P1 (4-cycle), π = (0,1,2,3): σ = MAT0 COMP1 MAT1 COMP2 MAT2
        // COMP3 MAT3. The set-cover operands give COMP(3) = C(u1) ∩
        // N(φ(u2)); C(u1) is fixed once COMP(1) runs at slot 1, the key
        // operand u2 materializes at slot 4, and MAT1 (slot 2) sits in
        // between — the classic 4-cycle sharing opportunity.
        let ds = trims_for(Query::P1, &[0, 1, 2, 3]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        let d = ds[0];
        assert_eq!(d.target, 3);
        assert_eq!(d.key, 2);
        assert_eq!(d.comp_slot, 5);
        assert_eq!(d.key_slot, 4);
        assert_eq!(d.anchor_slot, 1);
        assert_eq!(d.guard_slot, 0);
        assert!(d.est_reuse.is_infinite());
    }

    #[test]
    fn clique_gets_no_directive() {
        // K4: every COMP's operands become ready immediately before it —
        // no intermediate MAT, nothing recurs.
        assert!(trims_for(Query::P3, &[0, 1, 2, 3]).is_empty());
    }

    #[test]
    fn diamond_gets_no_directive() {
        // Example IV.1's σ: COMP(1)'s operands (C(u2), N(φ(u2))) are both
        // ready at MAT2/COMP2 with no MAT in between, and COMP(3) is a
        // single-operand alias.
        assert!(trims_for(Query::P2, &[0, 2, 1, 3]).is_empty());
    }

    #[test]
    fn threshold_filters_low_reuse_slots() {
        // With a real estimator on a graph with tiny closure, the square
        // directive's est_reuse is finite; an absurd threshold kills it,
        // a zero threshold keeps it.
        let p = Query::P1.pattern();
        let pi = [0u8, 1, 2, 3];
        let exec = ExecutionOrder::generate(&p, &pi);
        let ops = generate_operands(&p, &pi);
        let g = generators::barabasi_albert(500, 4, 3);
        let est = Estimator::from_stats(&light_graph::stats::compute_stats(&g));
        let keep = plan_trims(&p, &exec, &ops, Some(&est), 0.0);
        assert_eq!(keep.len(), 1);
        assert!(keep[0].est_reuse.is_finite() && keep[0].est_reuse >= 1.0);
        let drop = plan_trims(&p, &exec, &ops, Some(&est), 1e12);
        assert!(drop.is_empty());
    }

    #[test]
    fn eager_plans_can_direct_too() {
        // SE's eager σ on the square has the same COMP(3) shape: MAT1 and
        // MAT2 both sit between the fixed N(φ0) and COMP(3).
        let p = Query::P1.pattern();
        let pi = [0u8, 1, 2, 3];
        let exec = ExecutionOrder::eager(&p, &pi);
        let ops = crate::plan::plain_operands(&p, &pi);
        let ds = plan_trims(&p, &exec, &ops, None, DEFAULT_AUX_THRESHOLD);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].target, 3);
        assert_eq!(ds[0].key, 2);
    }

    #[test]
    fn guard_slot_is_deepest_mat_at_or_below_anchor() {
        for q in Query::ALL {
            let p = q.pattern();
            let pi: Vec<u8> = (0..p.num_vertices() as u8).collect();
            if !p.is_connected_order(&pi) {
                continue;
            }
            let exec = ExecutionOrder::generate(&p, &pi);
            let ops = generate_operands(&p, &pi);
            for d in plan_trims(&p, &exec, &ops, None, DEFAULT_AUX_THRESHOLD) {
                assert!(d.guard_slot <= d.anchor_slot);
                assert!(exec.sigma()[d.guard_slot].is_mat());
                for i in d.guard_slot + 1..=d.anchor_slot {
                    assert!(!exec.sigma()[i].is_mat());
                }
                assert!(d.anchor_slot < d.key_slot && d.key_slot < d.comp_slot);
                assert!(matches!(exec.sigma()[d.key_slot], ExecOp::Mat(v) if v == d.key));
                assert!(matches!(exec.sigma()[d.comp_slot], ExecOp::Comp(v) if v == d.target));
            }
        }
    }
}
