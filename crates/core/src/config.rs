//! Engine configuration: variant, intersection kernel, budgets.

use std::sync::Arc;
use std::time::Duration;

use light_graph::stats::{compute_stats, GraphStats};
use light_graph::{CsrGraph, VertexId};
use light_order::plan::{CandidateStrategy, Materialization, QueryPlan};
use light_pattern::{PartialOrder, PatternGraph, PatternVertex};
use light_setops::{IntersectKind, DEFAULT_DELTA};

/// The four engine variants of §VIII-B1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineVariant {
    /// Algorithm 1 — eager materialization, backward-neighbor operands.
    Se,
    /// Lazy materialization only.
    Lm,
    /// Minimum-set-cover candidate computation only.
    Msc,
    /// Both techniques — the full LIGHT engine.
    Light,
}

impl EngineVariant {
    /// The four variants in §VIII-B1 order.
    pub const ALL: [EngineVariant; 4] = [
        EngineVariant::Se,
        EngineVariant::Lm,
        EngineVariant::Msc,
        EngineVariant::Light,
    ];

    /// Display name ("SE", "LM", "MSC", "LIGHT").
    pub fn name(self) -> &'static str {
        match self {
            EngineVariant::Se => "SE",
            EngineVariant::Lm => "LM",
            EngineVariant::Msc => "MSC",
            EngineVariant::Light => "LIGHT",
        }
    }

    /// The (materialization, candidate-strategy) pair of this variant.
    pub fn knobs(self) -> (Materialization, CandidateStrategy) {
        match self {
            EngineVariant::Se => (Materialization::Eager, CandidateStrategy::BackwardNeighbors),
            EngineVariant::Lm => (Materialization::Lazy, CandidateStrategy::BackwardNeighbors),
            EngineVariant::Msc => (Materialization::Eager, CandidateStrategy::MinSetCover),
            EngineVariant::Light => (Materialization::Lazy, CandidateStrategy::MinSetCover),
        }
    }
}

/// A bind-time admission filter: `filter(u, v)` decides whether pattern
/// vertex `u` may map to data vertex `v`. The extension point for labeled
/// matching (compare label arrays) or custom pruning (degree thresholds);
/// `None` admits everything — the paper's unlabeled setting.
pub type BindFilter = Arc<dyn Fn(PatternVertex, VertexId) -> bool + Send + Sync>;

/// Full engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Which algorithm variant to run.
    pub variant: EngineVariant,
    /// Set-intersection kernel (§VII-A / Fig. 6).
    pub intersect: IntersectKind,
    /// Hybrid skew threshold δ (paper: 50).
    pub delta: usize,
    /// Enable the auxiliary candidate cache (trimmed-adjacency reuse
    /// across sibling subtrees, DESIGN.md §11). On by default;
    /// [`EngineConfig::aux_cache`] turns it off.
    pub aux_cache: bool,
    /// Benefit threshold for the auxiliary-cache planner: a σ slot is only
    /// memoized when a cached entry's estimated reuse (Eq. 8 expand
    /// factors) clears this value. Default
    /// [`light_order::DEFAULT_AUX_THRESHOLD`].
    pub aux_threshold: f64,
    /// Enforce the symmetry-breaking partial order (§II-A). Disable only
    /// for tests that count raw (duplicate-inclusive) matches, as in
    /// Example IV.2's note.
    pub symmetry_breaking: bool,
    /// Wall-clock budget; exceeded runs return [`crate::Outcome::OutOfTime`]
    /// (the paper's 24 h / 72 h limits, scaled).
    pub time_budget: Option<Duration>,
    /// Optional bind-time admission filter (labeled matching / pruning).
    pub bind_filter: Option<BindFilter>,
    /// Cooperative cancellation token, polled on the deadline cadence;
    /// cancelled runs return [`crate::Outcome::Cancelled`] with the
    /// matches counted so far.
    pub cancel: Option<crate::cancel::CancelToken>,
    /// Candidate-memory watermark in bytes (per enumerator — the parallel
    /// driver divides its process-wide budget by the worker count).
    /// Crossing it stops the run with [`crate::Outcome::MemoryExceeded`].
    pub max_memory_bytes: Option<usize>,
    /// Metrics sink: attach a live [`light_metrics::Recorder`] to collect
    /// per-slot COMP/MAT counters, candidate histograms, and setops tier
    /// breakdowns. Disabled by default; inert unless a live recorder is
    /// attached.
    pub metrics: light_metrics::Recorder,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("variant", &self.variant)
            .field("intersect", &self.intersect)
            .field("delta", &self.delta)
            .field("aux_cache", &self.aux_cache)
            .field("aux_threshold", &self.aux_threshold)
            .field("symmetry_breaking", &self.symmetry_breaking)
            .field("time_budget", &self.time_budget)
            .field("bind_filter", &self.bind_filter.as_ref().map(|_| "<fn>"))
            .field("cancel", &self.cancel.is_some())
            .field("max_memory_bytes", &self.max_memory_bytes)
            .field("metrics", &self.metrics.is_active())
            .finish()
    }
}

impl EngineConfig {
    /// LIGHT with the best intersection kernel available on this CPU.
    pub fn light() -> Self {
        Self::with_variant(EngineVariant::Light)
    }

    /// SE baseline with the scalar merge kernel, as in Algorithm 1.
    pub fn se() -> Self {
        EngineConfig {
            variant: EngineVariant::Se,
            intersect: IntersectKind::MergeScalar,
            ..Self::light()
        }
    }

    /// A given variant with defaults (best kernel, symmetry breaking on,
    /// no time budget).
    pub fn with_variant(variant: EngineVariant) -> Self {
        EngineConfig {
            variant,
            intersect: IntersectKind::best_available(),
            delta: DEFAULT_DELTA,
            aux_cache: true,
            aux_threshold: light_order::DEFAULT_AUX_THRESHOLD,
            symmetry_breaking: true,
            time_budget: None,
            bind_filter: None,
            cancel: None,
            max_memory_bytes: None,
            metrics: light_metrics::Recorder::disabled(),
        }
    }

    /// Builder-style kernel override.
    pub fn intersect(mut self, kind: IntersectKind) -> Self {
        self.intersect = kind;
        self
    }

    /// Builder-style Hybrid galloping threshold δ override (paper: 50).
    pub fn delta(mut self, delta: usize) -> Self {
        self.delta = delta;
        self
    }

    /// Builder-style auxiliary-cache toggle.
    pub fn aux_cache(mut self, on: bool) -> Self {
        self.aux_cache = on;
        self
    }

    /// Builder-style auxiliary-cache benefit threshold override.
    pub fn aux_threshold(mut self, threshold: f64) -> Self {
        self.aux_threshold = threshold;
        self
    }

    /// Builder-style symmetry-breaking toggle.
    pub fn symmetry(mut self, on: bool) -> Self {
        self.symmetry_breaking = on;
        self
    }

    /// Builder-style time budget.
    pub fn budget(mut self, d: Duration) -> Self {
        self.time_budget = Some(d);
        self
    }

    /// Builder-style cancellation token (see [`crate::cancel::CancelToken`]).
    pub fn cancel_token(mut self, token: crate::cancel::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Builder-style candidate-memory watermark (bytes, per enumerator).
    pub fn max_memory(mut self, bytes: usize) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Builder-style metrics sink (see [`light_metrics::Recorder`]).
    pub fn metrics(mut self, rec: light_metrics::Recorder) -> Self {
        self.metrics = rec;
        self
    }

    /// Builder-style bind filter (see [`BindFilter`]).
    pub fn filter(
        mut self,
        f: impl Fn(PatternVertex, light_graph::VertexId) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.bind_filter = Some(Arc::new(f));
        self
    }

    /// Build the query plan this configuration implies for `(pattern, g)`:
    /// compute `g`'s stats, then [`EngineConfig::plan_from_stats`].
    pub fn plan(&self, pattern: &PatternGraph, g: &CsrGraph) -> QueryPlan {
        self.plan_from_stats(pattern, &compute_stats(g))
    }

    /// Build the query plan this configuration implies for a pattern on a
    /// data graph with the given stats. Without symmetry breaking there is
    /// no partial order to respect; the optimizer still picks π.
    pub fn plan_from_stats(&self, pattern: &PatternGraph, stats: &GraphStats) -> QueryPlan {
        let (mat, strat) = self.variant.knobs();
        let po = if self.symmetry_breaking {
            PartialOrder::for_pattern(pattern)
        } else {
            PartialOrder::none()
        };
        QueryPlan::from_stats(pattern, stats, po, mat, strat, self.aux_threshold)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::light()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names() {
        let names: Vec<_> = EngineVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["SE", "LM", "MSC", "LIGHT"]);
    }

    #[test]
    fn knobs_matrix() {
        assert_eq!(
            EngineVariant::Light.knobs(),
            (Materialization::Lazy, CandidateStrategy::MinSetCover)
        );
        assert_eq!(
            EngineVariant::Se.knobs(),
            (Materialization::Eager, CandidateStrategy::BackwardNeighbors)
        );
    }

    #[test]
    fn builders() {
        let c = EngineConfig::light()
            .intersect(IntersectKind::MergeScalar)
            .symmetry(false)
            .budget(Duration::from_secs(1));
        assert_eq!(c.intersect, IntersectKind::MergeScalar);
        assert!(!c.symmetry_breaking);
        assert!(c.time_budget.is_some());
    }

    #[test]
    fn se_uses_scalar_merge() {
        assert_eq!(EngineConfig::se().intersect, IntersectKind::MergeScalar);
    }
}
