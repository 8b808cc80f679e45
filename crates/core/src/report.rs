//! Run reports and enumeration statistics.

use std::time::Duration;

use light_setops::IntersectStats;

use crate::pool::PoolStats;

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All matches enumerated.
    Complete,
    /// The visitor requested an early stop (e.g. first-k).
    StoppedByVisitor,
    /// The wall-clock budget was exhausted (the paper's OOT bars).
    OutOfTime,
    /// Cancellation was requested via [`crate::CancelToken`] (Ctrl-C, a
    /// test watchdog, a coordinating scheduler). Matches counted so far
    /// are valid.
    Cancelled,
    /// The candidate-memory watermark (`EngineConfig::max_memory_bytes`)
    /// was crossed; the run stopped with a partial count rather than
    /// risk an OOM kill.
    MemoryExceeded,
}

/// Auxiliary candidate-cache counters (DESIGN.md §11). All zero when the
/// cache is disabled or the plan has no trim directives.
#[derive(Debug, Default, Clone, Copy)]
pub struct AuxStats {
    /// COMPs answered from a memoized trimmed list (no intersection ran).
    pub hits: u64,
    /// COMPs that computed and attempted a store.
    pub misses: u64,
    /// Entries dropped: collision overwrites plus watermark purges.
    pub evictions: u64,
    /// Stores skipped because they would have crossed the watermark.
    pub skipped_stores: u64,
    /// Peak bytes of cached buffer capacity.
    pub bytes_peak: usize,
}

/// Counters gathered during one enumeration.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnumStats {
    /// Set-intersection counters (drives Fig. 5 and Table III).
    pub intersect: IntersectStats,
    /// Pattern-vertex bindings attempted (MAT loop iterations).
    pub bindings: u64,
    /// Peak bytes held in candidate sets (drives Table V).
    pub peak_candidate_bytes: usize,
    /// Candidate-buffer pool effectiveness counters.
    pub pool: PoolStats,
    /// Auxiliary candidate-cache counters.
    pub aux: AuxStats,
}

impl EnumStats {
    /// Merge counters from another run (parallel workers).
    pub fn merge_from(&mut self, other: &EnumStats) {
        self.intersect.merge_from(&other.intersect);
        self.bindings += other.bindings;
        // Workers hold candidate sets concurrently, so peaks add (the
        // paper's O(k · n · d_max) bound, §VII-B).
        self.peak_candidate_bytes += other.peak_candidate_bytes;
        self.pool.reused += other.pool.reused;
        self.pool.fresh += other.pool.fresh;
        self.pool.released += other.pool.released;
        self.aux.hits += other.aux.hits;
        self.aux.misses += other.aux.misses;
        self.aux.evictions += other.aux.evictions;
        self.aux.skipped_stores += other.aux.skipped_stores;
        // Per-worker caches are held concurrently, so peaks add like
        // candidate peaks above.
        self.aux.bytes_peak += other.aux.bytes_peak;
    }
}

/// The result of a run.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Number of matches found (valid even on early exit: counts matches
    /// seen so far).
    pub matches: u64,
    /// How the run ended.
    pub outcome: Outcome,
    /// Wall-clock enumeration time (excludes planning).
    pub elapsed: Duration,
    /// Statistics.
    pub stats: EnumStats,
}

impl Report {
    /// Whether the run enumerated everything.
    pub fn is_complete(&self) -> bool {
        self.outcome == Outcome::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_peaks() {
        let mut a = EnumStats {
            peak_candidate_bytes: 100,
            bindings: 5,
            ..Default::default()
        };
        let b = EnumStats {
            peak_candidate_bytes: 50,
            bindings: 7,
            ..Default::default()
        };
        a.merge_from(&b);
        assert_eq!(a.peak_candidate_bytes, 150);
        assert_eq!(a.bindings, 12);
    }

    #[test]
    fn outcome_helpers() {
        let r = Report {
            matches: 1,
            outcome: Outcome::Complete,
            elapsed: Duration::ZERO,
            stats: EnumStats::default(),
        };
        assert!(r.is_complete());
    }
}
