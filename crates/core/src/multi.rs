//! The multi-query enumerator: one pass over a [`MultiPlan`] trie counts
//! several patterns at once (DESIGN.md §16).
//!
//! The serve tier's batch gate compiles concurrent queries on the same
//! graph into a [`light_order::MultiPlan`] — a prefix trie over normalized
//! execution orders. This module walks that trie the way
//! [`crate::Enumerator`] walks a single σ: COMP nodes compute candidate
//! sets (slot-indexed, alias-aware, pooled buffers, shared-aux probes),
//! MAT nodes bind candidates under injectivity and the node's filtered
//! symmetry constraints, and **emit points** fire per-member match counts
//! where a member's σ ends.
//!
//! ## Per-member isolation
//!
//! Each member carries its own deadline and [`CancelToken`]. Liveness is a
//! `u64` bitmask: a node is executed only while it still serves a live
//! member, a dead member stops accruing matches instantly, and one
//! member's timeout or cancellation never perturbs a sibling's count —
//! the counts a sibling emits are decided solely by the trie path, which
//! is fixed at compile (batch) time. Differential legs in
//! `tests/multiquery_differential.rs` pin this: batched counts are
//! bit-identical to one-shot engine counts, with and without mid-batch
//! cancellation.
//!
//! ## What is intentionally not here
//!
//! The intra-query [`crate::AuxCache`] is not consulted: its trim
//! directives are planned against one member's σ slot numbering and guard
//! stamps. The cross-query [`crate::SharedAuxStore`] *is* probed — its
//! all-K1 entries are plan-agnostic. `EngineConfig::bind_filter` is
//! ignored (it is keyed by pattern-vertex numbering, which differs per
//! member); the serve tier never sets one.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use light_graph::{CsrGraph, VertexId, INVALID_VERTEX};
use light_order::multiplan::{MultiNode, MultiPlan, NormOp};
use light_setops::{intersect_many_recorded, Intersector};

use crate::auxcache::{SharedAuxHandle, SharedKey};
use crate::cancel::CancelToken;
use crate::config::EngineConfig;
use crate::engine::DEADLINE_POLL_PERIOD;
use crate::pool::BufferPool;
use crate::report::{EnumStats, Outcome};

/// COMP operand lists up to this length are gathered on the stack (mirrors
/// the single-query engine's bound).
const STACK_OPERANDS: usize = 32;

/// Observer of multi-pass matches: like [`crate::MatchVisitor`], plus the
/// index of the batch member the match belongs to. `phi` is indexed by
/// *normalized slot* (position in the member's π); `Break` stops that
/// member only — siblings keep enumerating.
pub trait MultiVisitor {
    /// Called once per verified match of member `member`.
    fn on_match(&mut self, member: usize, phi: &[VertexId]) -> ControlFlow<()>;
}

/// Counts matches per member.
#[derive(Debug, Default)]
pub struct MultiCountVisitor {
    counts: Vec<u64>,
}

impl MultiCountVisitor {
    /// Zeroed counters for `members` members.
    pub fn new(members: usize) -> Self {
        MultiCountVisitor {
            counts: vec![0; members],
        }
    }

    /// Per-member match counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

impl MultiVisitor for MultiCountVisitor {
    fn on_match(&mut self, member: usize, _phi: &[VertexId]) -> ControlFlow<()> {
        self.counts[member] += 1;
        ControlFlow::Continue(())
    }
}

/// Per-member runtime limits, fixed before the pass starts.
#[derive(Debug, Clone, Default)]
pub struct MemberSpec {
    /// Wall-clock budget for this member (measured from `run` entry; the
    /// parallel driver converts budgets to shared absolute deadlines).
    pub time_budget: Option<Duration>,
    /// Absolute deadline — takes precedence over `time_budget` when set
    /// (the parallel driver uses this so every worker agrees).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation for this member alone.
    pub cancel: Option<CancelToken>,
}

/// How one member's enumeration ended.
#[derive(Debug, Clone, Copy)]
pub struct MemberReport {
    /// Matches emitted for this member.
    pub matches: u64,
    /// This member's outcome (siblings' outcomes are independent).
    pub outcome: Outcome,
}

/// The result of one multi-pass.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Per-member results, batch order.
    pub members: Vec<MemberReport>,
    /// Wall-clock time of the pass.
    pub elapsed: Duration,
    /// Aggregate statistics (the pass is one enumeration; per-member
    /// attribution of shared work is not meaningful).
    pub stats: EnumStats,
}

/// Where a slot's candidate set currently lives (mirror of the single
/// engine's `CandRef`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotRef {
    Owned,
    AliasSlot(u8),
    AliasNbr(VertexId),
}

/// Recursive enumerator over a multi-plan trie.
pub struct MultiEnumerator<'a, V: MultiVisitor> {
    plan: &'a MultiPlan,
    g: &'a CsrGraph,
    visitor: &'a mut V,
    isec: Intersector,
    symmetry: bool,
    shared: Option<SharedAuxHandle>,

    phi: Vec<VertexId>,
    cands: Vec<Vec<VertexId>>,
    cand_ref: Vec<SlotRef>,
    scratch: Vec<VertexId>,
    pool: BufferPool,
    cand_bytes: usize,

    live: u64,
    member_matches: Vec<u64>,
    member_timed_out: Vec<bool>,
    member_cancelled: Vec<bool>,
    member_stopped: Vec<bool>,
    deadlines: Vec<Option<Instant>>,
    cancels: Vec<Option<CancelToken>>,

    global_deadline: Option<Instant>,
    global_cancel: Option<CancelToken>,
    timed_out: bool,
    cancelled: bool,
    mem_exceeded: bool,
    poll_tick: u64,

    // Inert shard for the recorded-kernel call signature. Per-slot metrics
    // are not attributed in multi passes: slot numbering is normalized and
    // shared across members, so per-pattern attribution is undefined.
    local: light_metrics::LocalRecorder,
    stats: EnumStats,
}

impl<'a, V: MultiVisitor> MultiEnumerator<'a, V> {
    /// Build a multi-enumerator. `config` supplies the kernel, symmetry
    /// flag, watermark, shared store, and *global* budget/cancel; `specs`
    /// supplies per-member limits (must match the plan's member count).
    pub fn new(
        plan: &'a MultiPlan,
        g: &'a CsrGraph,
        config: &EngineConfig,
        specs: &[MemberSpec],
        visitor: &'a mut V,
    ) -> Self {
        let m = plan.members().len();
        assert_eq!(specs.len(), m, "one MemberSpec per plan member");
        let slots = plan.max_slots();
        let mut pool = BufferPool::new();
        pool.set_watermark(config.max_memory_bytes);
        let now = Instant::now();
        let deadlines = specs
            .iter()
            .map(|s| s.deadline.or_else(|| s.time_budget.map(|b| now + b)))
            .collect();
        MultiEnumerator {
            plan,
            g,
            visitor,
            isec: Intersector::with_delta(config.intersect, config.delta),
            symmetry: config.symmetry_breaking,
            shared: config.shared_aux.clone(),
            phi: vec![INVALID_VERTEX; slots],
            cands: vec![Vec::new(); slots],
            cand_ref: vec![SlotRef::Owned; slots],
            scratch: Vec::new(),
            pool,
            cand_bytes: 0,
            live: if m == 64 { u64::MAX } else { (1u64 << m) - 1 },
            member_matches: vec![0; m],
            member_timed_out: vec![false; m],
            member_cancelled: vec![false; m],
            member_stopped: vec![false; m],
            deadlines,
            cancels: specs.iter().map(|s| s.cancel.clone()).collect(),
            global_deadline: config.time_budget.map(|b| now + b),
            global_cancel: config.cancel.clone(),
            timed_out: false,
            cancelled: false,
            mem_exceeded: false,
            poll_tick: 0,
            local: light_metrics::LocalRecorder::default(),
            stats: EnumStats::default(),
        }
    }

    /// Matches per member so far (accumulates across `run_range` calls).
    pub fn member_matches(&self) -> &[u64] {
        &self.member_matches
    }

    /// Statistics so far.
    pub fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Whether the candidate-memory watermark was crossed.
    pub fn memory_exceeded(&self) -> bool {
        self.mem_exceeded
    }

    /// Restore internal invariants after a panic unwound through the
    /// recursion (parallel-driver containment; see
    /// [`crate::Enumerator::recover_after_panic`]). Per-member match
    /// counters are kept — they only count fully verified emissions.
    pub fn recover_after_panic(&mut self) {
        for p in &mut self.phi {
            *p = INVALID_VERTEX;
        }
        for r in &mut self.cand_ref {
            *r = SlotRef::Owned;
        }
        for c in &mut self.cands {
            c.clear();
        }
        self.scratch.clear();
        self.cand_bytes = 0;
    }

    #[inline]
    fn should_halt(&self) -> bool {
        self.live == 0 || self.timed_out || self.cancelled || self.mem_exceeded
    }

    /// Poll global and per-member deadlines/cancellations once per
    /// [`DEADLINE_POLL_PERIOD`] ticks. A dead member's bit leaves `live`;
    /// the trie walk prunes its nodes from then on.
    #[inline]
    fn tick(&mut self) {
        self.poll_tick += 1;
        if self.poll_tick & (DEADLINE_POLL_PERIOD - 1) != 0 {
            return;
        }
        if let Some(tok) = &self.global_cancel {
            if tok.is_cancelled() {
                self.cancelled = true;
            }
        }
        let has_member_limits =
            self.deadlines.iter().any(Option::is_some) || self.cancels.iter().any(Option::is_some);
        if self.global_deadline.is_none() && !has_member_limits {
            return;
        }
        let now = Instant::now();
        if let Some(d) = self.global_deadline {
            if now >= d {
                self.timed_out = true;
            }
        }
        for m in 0..self.member_matches.len() {
            let bit = 1u64 << m;
            if self.live & bit == 0 {
                continue;
            }
            if let Some(tok) = &self.cancels[m] {
                if tok.is_cancelled() {
                    self.member_cancelled[m] = true;
                    self.live &= !bit;
                    continue;
                }
            }
            if let Some(d) = self.deadlines[m] {
                if now >= d {
                    self.member_timed_out[m] = true;
                    self.live &= !bit;
                }
            }
        }
    }

    /// Enumerate the full graph.
    pub fn run(&mut self) -> MultiReport {
        self.run_range(0, self.g.num_vertices() as VertexId)
    }

    /// Enumerate with the shared root slot restricted to `[lo, hi)` — the
    /// partitioning unit of the parallel multi driver.
    pub fn run_range(&mut self, lo: VertexId, hi: VertexId) -> MultiReport {
        let start = Instant::now();
        let plan = self.plan;
        for v in lo..hi {
            if self.should_halt() {
                break;
            }
            self.tick();
            self.stats.bindings += 1;
            self.phi[0] = v;
            for &r in plan.roots() {
                if self.should_halt() {
                    break;
                }
                self.exec_node(&plan.nodes()[r]);
            }
            self.phi[0] = INVALID_VERTEX;
        }
        self.stats.pool = self.pool.stats();
        MultiReport {
            members: self.member_reports(),
            elapsed: start.elapsed(),
            stats: self.stats,
        }
    }

    /// Per-member outcomes under the engine's precedence (OutOfTime >
    /// MemoryExceeded > Cancelled > StoppedByVisitor > Complete).
    pub fn member_reports(&self) -> Vec<MemberReport> {
        (0..self.member_matches.len())
            .map(|m| {
                let outcome = if self.member_timed_out[m] || self.timed_out {
                    Outcome::OutOfTime
                } else if self.mem_exceeded {
                    Outcome::MemoryExceeded
                } else if self.member_cancelled[m] || self.cancelled {
                    Outcome::Cancelled
                } else if self.member_stopped[m] {
                    Outcome::StoppedByVisitor
                } else {
                    Outcome::Complete
                };
                MemberReport {
                    matches: self.member_matches[m],
                    outcome,
                }
            })
            .collect()
    }

    fn exec_node(&mut self, node: &'a MultiNode) {
        if node.members & self.live == 0 || self.should_halt() {
            return;
        }
        match node.op {
            NormOp::Comp(slot) => self.do_comp(node, slot),
            NormOp::Mat(slot) => self.do_mat(node, slot),
        }
    }

    #[inline]
    fn cand_slice(&self, slot: u8) -> &[VertexId] {
        resolve_slot(&self.cand_ref, &self.cands, self.g, slot)
    }

    fn do_comp(&mut self, node: &'a MultiNode, slot: u8) {
        light_failpoint::fail_point!("engine::comp");
        self.tick();
        if self.should_halt() {
            return;
        }
        let u = slot as usize;
        // Retire this slot's previous contents (a sibling branch's result)
        // from the memory account before reuse.
        if self.cand_ref[u] == SlotRef::Owned {
            self.cand_bytes -= self.cands[u].len() * 4;
        }
        self.cand_ref[u] = SlotRef::Owned;

        let ops = &node.operands;
        debug_assert!(!ops.is_empty(), "COMP with no operands");
        if ops.len() == 1 {
            if self.cands[u].capacity() > 0 {
                let buf = std::mem::take(&mut self.cands[u]);
                self.pool.release(buf);
            }
            self.cand_ref[u] = if let Some(&w) = ops.k1.first() {
                SlotRef::AliasNbr(self.phi[w as usize])
            } else {
                SlotRef::AliasSlot(ops.k2[0])
            };
        } else {
            let mut out = std::mem::take(&mut self.cands[u]);
            if out.capacity() == 0 {
                out = self.pool.acquire();
            }
            // Cross-query shared tier probe: same soundness rule as the
            // single engine — every operand must resolve to a plain
            // neighbor list (K1 always; K2 via its alias chain).
            let mut have_result = false;
            let mut shared_key: Option<SharedKey> = None;
            if let Some(store) = &self.shared {
                if let Some(key) =
                    crate::engine::shared_probe_key(&ops.k1, &ops.k2, &self.phi, |w| {
                        resolve_slot_nbr(&self.cand_ref, w)
                    })
                {
                    if store.lookup(&key, &mut out) {
                        have_result = true;
                        self.stats.aux.shared_hits += 1;
                    } else {
                        shared_key = Some(key);
                        self.stats.aux.shared_misses += 1;
                    }
                }
            }
            if !have_result {
                let MultiEnumerator {
                    g,
                    isec,
                    phi,
                    cands,
                    cand_ref,
                    scratch,
                    stats,
                    local,
                    ..
                } = self;
                let (g, cands, cand_ref, phi) = (*g, &**cands, &**cand_ref, &**phi);
                light_failpoint::fail_point!("engine::intersect");
                debug_assert!(ops.len() <= STACK_OPERANDS);
                let mut sets: [&[VertexId]; STACK_OPERANDS] = [&[]; STACK_OPERANDS];
                let mut k = 0;
                for &w in &ops.k1 {
                    debug_assert_ne!(phi[w as usize], INVALID_VERTEX);
                    sets[k] = g.neighbors(phi[w as usize]);
                    k += 1;
                }
                for &w in &ops.k2 {
                    sets[k] = resolve_slot(cand_ref, cands, g, w);
                    k += 1;
                }
                intersect_many_recorded(
                    isec,
                    &sets[..k],
                    &mut out,
                    scratch,
                    &mut stats.intersect,
                    local,
                );
            }
            if let Some(key) = shared_key {
                if let Some(store) = &self.shared {
                    store.store(&key, &out);
                }
            }
            self.cand_bytes += out.len() * 4;
            self.cands[u] = out;
            self.stats.peak_candidate_bytes = self.stats.peak_candidate_bytes.max(self.cand_bytes);
            if self.pool.over_watermark(self.cand_bytes) {
                self.mem_exceeded = true;
            }
        }

        if !self.cand_slice(slot).is_empty() {
            let plan = self.plan;
            for &c in &node.children {
                if self.should_halt() {
                    break;
                }
                self.exec_node(&plan.nodes()[c]);
            }
        }
    }

    fn do_mat(&mut self, node: &'a MultiNode, slot: u8) {
        light_failpoint::fail_point!("engine::mat");
        let u = slot as usize;
        let len = self.cand_slice(slot).len();
        for idx in 0..len {
            if node.members & self.live == 0 || self.should_halt() {
                break;
            }
            let v = self.cand_slice(slot)[idx];
            // Injectivity over the bound prefix (unbound slots are INVALID).
            if self.phi.contains(&v) {
                continue;
            }
            // Filtered symmetry constraints: normalization kept only the
            // comparisons whose other endpoint is materialized by now, so
            // no bound-check is needed here.
            if self.symmetry {
                let lower_ok = node.greater_than.iter().all(|&w| self.phi[w as usize] < v);
                let upper_ok = node.smaller_than.iter().all(|&w| v < self.phi[w as usize]);
                if !lower_ok || !upper_ok {
                    continue;
                }
            }
            self.stats.bindings += 1;
            self.tick();
            self.phi[u] = v;
            for &m in &node.emit {
                let m = m as usize;
                if self.live & (1u64 << m) != 0 {
                    self.member_matches[m] += 1;
                    if self.visitor.on_match(m, &self.phi) == ControlFlow::Break(()) {
                        self.member_stopped[m] = true;
                        self.live &= !(1u64 << m);
                    }
                }
            }
            let plan = self.plan;
            for &c in &node.children {
                if self.should_halt() {
                    break;
                }
                self.exec_node(&plan.nodes()[c]);
            }
            self.phi[u] = INVALID_VERTEX;
        }
    }
}

/// Resolve a slot to a data vertex iff its alias chain terminates at a
/// neighbor list (the shared-store shareability test).
#[inline]
fn resolve_slot_nbr(cand_ref: &[SlotRef], mut slot: u8) -> Option<VertexId> {
    loop {
        match cand_ref[slot as usize] {
            SlotRef::Owned => return None,
            SlotRef::AliasSlot(w) => slot = w,
            SlotRef::AliasNbr(v) => return Some(v),
        }
    }
}

/// Resolve a slot's candidate set through alias links.
#[inline]
fn resolve_slot<'s>(
    cand_ref: &[SlotRef],
    cands: &'s [Vec<VertexId>],
    g: &'s CsrGraph,
    mut slot: u8,
) -> &'s [VertexId] {
    loop {
        match cand_ref[slot as usize] {
            SlotRef::Owned => return &cands[slot as usize],
            SlotRef::AliasSlot(w) => slot = w,
            SlotRef::AliasNbr(v) => return g.neighbors(v),
        }
    }
}

/// Run a compiled multi-plan serially, counting matches per member. The
/// entry point the differential tests and the serial serve path use.
pub fn run_multi(
    plan: &MultiPlan,
    g: &CsrGraph,
    config: &EngineConfig,
    specs: &[MemberSpec],
) -> MultiReport {
    let mut visitor = MultiCountVisitor::new(plan.members().len());
    MultiEnumerator::new(plan, g, config, specs, &mut visitor).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, EngineVariant};
    use crate::visitor::CountVisitor;
    use light_graph::generators;
    use light_order::QueryPlan;
    use light_pattern::Query;
    use std::sync::Arc;

    fn one_shot(q: Query, g: &CsrGraph, cfg: &EngineConfig) -> u64 {
        let plan = cfg.plan(&q.pattern(), g);
        let mut v = CountVisitor::default();
        crate::engine::run_plan(&plan, g, cfg, &mut v).matches
    }

    fn batch_counts(qs: &[Query], g: &CsrGraph, cfg: &EngineConfig) -> Vec<u64> {
        let plans: Vec<Arc<QueryPlan>> = qs
            .iter()
            .map(|q| Arc::new(cfg.plan(&q.pattern(), g)))
            .collect();
        let mp = MultiPlan::build(&plans).unwrap();
        let specs = vec![MemberSpec::default(); qs.len()];
        let report = run_multi(&mp, g, cfg, &specs);
        assert!(report
            .members
            .iter()
            .all(|m| m.outcome == Outcome::Complete));
        report.members.iter().map(|m| m.matches).collect()
    }

    #[test]
    fn batched_counts_match_one_shot() {
        let g = generators::barabasi_albert(200, 4, 9);
        let cfg = EngineConfig::light();
        let qs = [Query::Triangle, Query::P1, Query::P2];
        let batched = batch_counts(&qs, &g, &cfg);
        for (q, &got) in qs.iter().zip(&batched) {
            assert_eq!(got, one_shot(*q, &g, &cfg), "{}", q.name());
        }
    }

    #[test]
    fn duplicate_members_count_independently() {
        let g = generators::barabasi_albert(150, 4, 23);
        let cfg = EngineConfig::light();
        let batched = batch_counts(&[Query::Triangle, Query::Triangle], &g, &cfg);
        let solo = one_shot(Query::Triangle, &g, &cfg);
        assert_eq!(batched, vec![solo, solo]);
    }

    #[test]
    fn mixed_variants_agree() {
        let g = generators::barabasi_albert(150, 4, 31);
        for variant in EngineVariant::ALL {
            let cfg = EngineConfig::with_variant(variant);
            let qs = [Query::P1, Query::Triangle];
            let batched = batch_counts(&qs, &g, &cfg);
            for (q, &got) in qs.iter().zip(&batched) {
                assert_eq!(
                    got,
                    one_shot(*q, &g, &cfg),
                    "{} {}",
                    variant.name(),
                    q.name()
                );
            }
        }
    }

    #[test]
    fn cancelled_member_leaves_siblings_exact() {
        let g = generators::barabasi_albert(200, 4, 9);
        let cfg = EngineConfig::light();
        let plans: Vec<Arc<QueryPlan>> = [Query::Triangle, Query::P2]
            .iter()
            .map(|q| Arc::new(cfg.plan(&q.pattern(), &g)))
            .collect();
        let mp = MultiPlan::build(&plans).unwrap();
        let tok = CancelToken::new();
        tok.cancel(); // member 0 dead before the first poll lands
        let specs = vec![
            MemberSpec {
                cancel: Some(tok),
                ..Default::default()
            },
            MemberSpec::default(),
        ];
        let report = run_multi(&mp, &g, &cfg, &specs);
        assert_eq!(report.members[0].outcome, Outcome::Cancelled);
        assert_eq!(report.members[1].outcome, Outcome::Complete);
        assert_eq!(
            report.members[1].matches,
            one_shot(Query::P2, &g, &cfg),
            "sibling count perturbed by member cancellation"
        );
    }

    #[test]
    fn shared_aux_store_is_count_neutral_in_multi() {
        let g = generators::barabasi_albert(250, 5, 41);
        let base = EngineConfig::light();
        let qs = [Query::Triangle, Query::P1, Query::P3];
        let baseline = batch_counts(&qs, &g, &base);
        let store = Arc::new(crate::SharedAuxStore::new(None));
        let cfg = base.clone().shared_aux(store.at(0));
        // Two passes: the second must hit what the first stored.
        let first = batch_counts(&qs, &g, &cfg);
        let second = batch_counts(&qs, &g, &cfg);
        assert_eq!(first, baseline);
        assert_eq!(second, baseline);
        let c = store.counters();
        assert!(c.hits > 0, "second pass found no shared entries: {c:?}");
    }

    #[test]
    fn member_mask_prunes_dead_branches() {
        // With both members pre-cancelled the pass must do (almost) no work.
        let g = generators::complete(60);
        let cfg = EngineConfig::light();
        let plans: Vec<Arc<QueryPlan>> = [Query::P7, Query::P3]
            .iter()
            .map(|q| Arc::new(cfg.plan(&q.pattern(), &g)))
            .collect();
        let mp = MultiPlan::build(&plans).unwrap();
        let t0 = CancelToken::new();
        let t1 = CancelToken::new();
        t0.cancel();
        t1.cancel();
        let specs = vec![
            MemberSpec {
                cancel: Some(t0),
                ..Default::default()
            },
            MemberSpec {
                cancel: Some(t1),
                ..Default::default()
            },
        ];
        let report = run_multi(&mp, &g, &cfg, &specs);
        assert!(report
            .members
            .iter()
            .all(|m| m.outcome == Outcome::Cancelled));
        let full = (56..=60).product::<u64>() / 120;
        assert!(report.members[0].matches < full);
    }
}
