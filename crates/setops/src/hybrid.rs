//! The Hybrid dispatch of Algorithm 4 and the kernel selector.
//!
//! `Hybrid(S1, S2)` chooses Merge when the sizes are within a factor of `δ`
//! of each other and Galloping otherwise (the *cardinality skew* case). The
//! paper sets `δ = 50` based on the performance study of Lemire et al. [14].

use crate::scalar;
use crate::simd;
use crate::simd512;
use crate::stats::{IntersectStats, KernelTier};

/// Default skew threshold δ from the paper (§VII-A).
pub const DEFAULT_DELTA: usize = 50;

/// Which intersection implementation an engine uses. The four variants of
/// the paper's SIMD evaluation (§VIII-B2, Fig. 6), extended with the
/// AVX-512 tier (the paper's hardware predates it; same kernels, 16 lanes
/// per instruction plus compress-store emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntersectKind {
    /// Merge only, scalar ("Merge" in Fig. 6).
    MergeScalar,
    /// Merge only, AVX2 ("MergeAVX2").
    MergeAvx2,
    /// Merge only, AVX-512 ("MergeAVX512").
    MergeAvx512,
    /// Hybrid merge/galloping, scalar ("Hybrid").
    HybridScalar,
    /// Hybrid merge/galloping, AVX2 ("HybridAVX2").
    HybridAvx2,
    /// Hybrid merge/galloping, AVX-512 ("HybridAVX512") — the default for
    /// LIGHT on capable hardware.
    HybridAvx512,
}

impl IntersectKind {
    /// All variants, in Fig. 6 order (merge family then hybrid family,
    /// each scalar → AVX2 → AVX-512).
    pub const ALL: [IntersectKind; 6] = [
        IntersectKind::MergeScalar,
        IntersectKind::MergeAvx2,
        IntersectKind::MergeAvx512,
        IntersectKind::HybridScalar,
        IntersectKind::HybridAvx2,
        IntersectKind::HybridAvx512,
    ];

    /// Display name as used in Fig. 6.
    pub fn name(self) -> &'static str {
        match self {
            IntersectKind::MergeScalar => "Merge",
            IntersectKind::MergeAvx2 => "MergeAVX2",
            IntersectKind::MergeAvx512 => "MergeAVX512",
            IntersectKind::HybridScalar => "Hybrid",
            IntersectKind::HybridAvx2 => "HybridAVX2",
            IntersectKind::HybridAvx512 => "HybridAVX512",
        }
    }

    /// The best kind available on this machine: three-tier runtime
    /// selection — HybridAVX512 when the CPU has AVX-512F, else HybridAVX2
    /// when it has AVX2, else scalar Hybrid.
    pub fn best_available() -> IntersectKind {
        if simd512::avx512_available() {
            IntersectKind::HybridAvx512
        } else if simd::avx2_available() {
            IntersectKind::HybridAvx2
        } else {
            IntersectKind::HybridScalar
        }
    }

    /// Whether this kind uses SIMD kernels (AVX2 or AVX-512).
    pub fn uses_simd(self) -> bool {
        !matches!(
            self,
            IntersectKind::MergeScalar | IntersectKind::HybridScalar
        )
    }

    /// The kernel tier this kind *requests*. The tier actually executed can
    /// be lower when the hardware lacks the feature (runtime fallback);
    /// [`IntersectKind::effective_tier`] reports that one.
    pub fn tier(self) -> KernelTier {
        match self {
            IntersectKind::MergeScalar | IntersectKind::HybridScalar => KernelTier::Scalar,
            IntersectKind::MergeAvx2 | IntersectKind::HybridAvx2 => KernelTier::Avx2,
            IntersectKind::MergeAvx512 | IntersectKind::HybridAvx512 => KernelTier::Avx512,
        }
    }

    /// The kernel tier that actually executes on this machine after runtime
    /// feature detection (AVX-512 kinds fall back to AVX2, then scalar).
    pub fn effective_tier(self) -> KernelTier {
        match self.tier() {
            KernelTier::Avx512 if simd512::avx512_available() => KernelTier::Avx512,
            KernelTier::Avx512 | KernelTier::Avx2 if simd::avx2_available() => KernelTier::Avx2,
            _ => KernelTier::Scalar,
        }
    }
}

/// A configured intersector: kernel kind + skew threshold. The effective
/// kernel tier is resolved once at construction (runtime feature detection
/// is a cached atomic load, but even that is worth keeping off the
/// per-intersection hot path).
#[derive(Debug, Clone, Copy)]
pub struct Intersector {
    kind: IntersectKind,
    delta: usize,
    tier: KernelTier,
}

impl Intersector {
    /// Create with the paper's default δ = 50.
    pub fn new(kind: IntersectKind) -> Self {
        Intersector {
            kind,
            delta: DEFAULT_DELTA,
            tier: kind.effective_tier(),
        }
    }

    /// Override δ (ablation benches sweep this).
    pub fn with_delta(kind: IntersectKind, delta: usize) -> Self {
        assert!(delta >= 1, "delta must be >= 1");
        Intersector {
            kind,
            delta,
            tier: kind.effective_tier(),
        }
    }

    /// The configured kernel kind.
    pub fn kind(&self) -> IntersectKind {
        self.kind
    }

    /// The configured skew threshold δ.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Whether Hybrid would pick Galloping for these sizes.
    #[inline]
    fn is_skewed(&self, la: usize, lb: usize) -> bool {
        // |S1|/|S2| >= δ or |S2|/|S1| >= δ  (Algorithm 4, negated guard).
        la >= lb.saturating_mul(self.delta) || lb >= la.saturating_mul(self.delta)
    }

    /// Intersect two sorted duplicate-free sets into `out` (cleared first),
    /// recording one intersection in `stats`.
    #[inline]
    pub fn intersect_into(
        &self,
        a: &[u32],
        b: &[u32],
        out: &mut Vec<u32>,
        stats: &mut IntersectStats,
    ) {
        self.intersect_into_recorded(
            a,
            b,
            out,
            stats,
            &mut light_metrics::LocalRecorder::default(),
        )
    }

    /// [`Intersector::intersect_into`] that additionally records the
    /// dispatch decision (operand lengths, skew ratio, tier, kernel) into
    /// a metrics shard. The shard is a no-op unless a live recorder is
    /// attached, so this is the same hot path either way.
    #[inline]
    pub fn intersect_into_recorded(
        &self,
        a: &[u32],
        b: &[u32],
        out: &mut Vec<u32>,
        stats: &mut IntersectStats,
        rec: &mut light_metrics::LocalRecorder,
    ) {
        let tier = self.tier;
        // An empty operand forces an empty result: return before kernel
        // dispatch. This also fixes Hybrid's skew test, which otherwise
        // sees `len >= 0 * δ` (always true) and mis-classifies every
        // empty-operand call as a Galloping search, skewing the Table III
        // share. Count it as a (trivial) Merge: zero elements scanned.
        if a.is_empty() || b.is_empty() {
            out.clear();
            stats.record(tier, false);
            rec.intersect_pair(a.len(), b.len(), tier as usize, false);
            return;
        }
        let galloping = match self.kind {
            IntersectKind::MergeScalar | IntersectKind::MergeAvx2 | IntersectKind::MergeAvx512 => {
                false
            }
            IntersectKind::HybridScalar
            | IntersectKind::HybridAvx2
            | IntersectKind::HybridAvx512 => self.is_skewed(a.len(), b.len()),
        };
        stats.record(tier, galloping);
        rec.intersect_pair(a.len(), b.len(), tier as usize, galloping);
        let scanned = match (tier, galloping) {
            (KernelTier::Scalar, false) => scalar::merge_into(a, b, out),
            (KernelTier::Scalar, true) => scalar::galloping_into(a, b, out),
            (KernelTier::Avx2, false) => simd::merge_avx2_into(a, b, out),
            (KernelTier::Avx2, true) => simd::galloping_avx2_into(a, b, out),
            (KernelTier::Avx512, false) => simd512::merge_avx512_into(a, b, out),
            (KernelTier::Avx512, true) => simd512::galloping_avx512_into(a, b, out),
        };
        stats.elements_scanned += scanned;
    }
}

impl Default for Intersector {
    fn default() -> Self {
        Intersector::new(IntersectKind::best_available())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::reference_intersection;

    #[test]
    fn all_kinds_agree() {
        let a: Vec<u32> = (0..500).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..500).map(|x| x * 3).collect();
        let expect = reference_intersection(&a, &b);
        for kind in IntersectKind::ALL {
            let isec = Intersector::new(kind);
            let mut out = Vec::new();
            let mut st = IntersectStats::default();
            isec.intersect_into(&a, &b, &mut out, &mut st);
            assert_eq!(out, expect, "{}", kind.name());
            assert_eq!(st.total, 1);
        }
    }

    #[test]
    fn hybrid_dispatch_follows_delta() {
        let small: Vec<u32> = (0..10).collect();
        let large: Vec<u32> = (0..10_000).collect();
        let similar: Vec<u32> = (0..15).collect();

        let isec = Intersector::new(IntersectKind::HybridScalar);
        let mut out = Vec::new();
        let mut st = IntersectStats::default();
        // 10 vs 10000: ratio 1000 >= 50 -> galloping.
        isec.intersect_into(&small, &large, &mut out, &mut st);
        assert_eq!(st.galloping, 1);
        assert_eq!(st.merge, 0);
        // 10 vs 15: ratio < 50 -> merge.
        isec.intersect_into(&small, &similar, &mut out, &mut st);
        assert_eq!(st.galloping, 1);
        assert_eq!(st.merge, 1);
        assert_eq!(st.total, 2);
    }

    #[test]
    fn delta_boundary() {
        // Exactly δx difference must dispatch to galloping (strict '<' in
        // Algorithm 4's merge guard).
        let a: Vec<u32> = (0..2).collect();
        let b: Vec<u32> = (0..100).collect(); // ratio exactly 50
        let isec = Intersector::new(IntersectKind::HybridScalar);
        let mut out = Vec::new();
        let mut st = IntersectStats::default();
        isec.intersect_into(&a, &b, &mut out, &mut st);
        assert_eq!(st.galloping, 1);

        let c: Vec<u32> = (0..99).collect(); // ratio 49.5 < 50
        isec.intersect_into(&a, &c, &mut out, &mut st);
        assert_eq!(st.merge, 1);
    }

    #[test]
    fn custom_delta() {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (0..30).collect();
        let isec = Intersector::with_delta(IntersectKind::HybridScalar, 2);
        let mut out = Vec::new();
        let mut st = IntersectStats::default();
        isec.intersect_into(&a, &b, &mut out, &mut st); // ratio 3 >= 2
        assert_eq!(st.galloping, 1);
    }

    #[test]
    fn custom_delta_boundary_is_exact() {
        // The dispatch boundary must sit exactly at the configured δ, for
        // every kind that runs on this CPU: |b| = δ·|a| gallops, one
        // element fewer merges. Pins the `>=`-vs-`>` convention so a
        // configurable δ cannot silently shift it.
        let delta = 7;
        let a: Vec<u32> = (0..12).collect();
        let at: Vec<u32> = (0..12 * delta as u32).collect();
        let under: Vec<u32> = (0..12 * delta as u32 - 1).collect();
        for kind in [
            IntersectKind::HybridScalar,
            IntersectKind::HybridAvx2,
            IntersectKind::HybridAvx512,
        ] {
            let isec = Intersector::with_delta(kind, delta);
            let mut out = Vec::new();
            let mut st = IntersectStats::default();
            isec.intersect_into(&a, &at, &mut out, &mut st);
            assert_eq!((st.galloping, st.merge), (1, 0), "{} at δ×", kind.name());
            isec.intersect_into(&a, &under, &mut out, &mut st);
            assert_eq!((st.galloping, st.merge), (1, 1), "{} under δ×", kind.name());
        }
    }

    #[test]
    fn merge_kinds_never_gallop() {
        let a: Vec<u32> = (0..2).collect();
        let b: Vec<u32> = (0..10_000).collect();
        for kind in [
            IntersectKind::MergeScalar,
            IntersectKind::MergeAvx2,
            IntersectKind::MergeAvx512,
        ] {
            let mut st = IntersectStats::default();
            let mut out = Vec::new();
            Intersector::new(kind).intersect_into(&a, &b, &mut out, &mut st);
            assert_eq!(st.galloping, 0, "{}", kind.name());
            assert_eq!(st.merge, 1);
        }
    }

    #[test]
    fn stats_attribute_the_effective_tier() {
        use crate::stats::KernelTier;
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (50..150).collect();
        for kind in IntersectKind::ALL {
            let mut st = IntersectStats::default();
            let mut out = Vec::new();
            Intersector::new(kind).intersect_into(&a, &b, &mut out, &mut st);
            let tier = kind.effective_tier();
            assert_eq!(st.tier_calls[tier as usize], 1, "{}", kind.name());
            let others: u64 = KernelTier::ALL
                .iter()
                .filter(|t| **t != tier)
                .map(|t| st.tier_calls[*t as usize])
                .sum();
            assert_eq!(others, 0, "{}", kind.name());
        }
    }

    #[test]
    fn requested_vs_effective_tier() {
        use crate::stats::KernelTier;
        assert_eq!(IntersectKind::MergeScalar.tier(), KernelTier::Scalar);
        assert_eq!(IntersectKind::HybridAvx2.tier(), KernelTier::Avx2);
        assert_eq!(IntersectKind::HybridAvx512.tier(), KernelTier::Avx512);
        // The effective tier never exceeds the requested one.
        for kind in IntersectKind::ALL {
            assert!(kind.effective_tier() as usize <= kind.tier() as usize);
        }
        // best_available's effective tier is its requested tier by
        // construction (it only names kinds the hardware supports).
        let best = IntersectKind::best_available();
        assert_eq!(best.tier(), best.effective_tier());
    }

    #[test]
    fn empty_operands_never_gallop() {
        // Regression: `is_skewed(0, n)` reduced to `n >= 0 * δ`, which is
        // always true, so Hybrid dispatched every empty-operand call to
        // Galloping (inflating the Table III share) instead of returning
        // the trivially empty result.
        let b: Vec<u32> = (0..100).collect();
        for kind in IntersectKind::ALL {
            let isec = Intersector::new(kind);
            for (x, y) in [(&[][..], &b[..]), (&b[..], &[][..]), (&[][..], &[][..])] {
                let mut out = vec![99];
                let mut st = IntersectStats::default();
                isec.intersect_into(x, y, &mut out, &mut st);
                assert!(out.is_empty(), "{}", kind.name());
                assert_eq!(st.total, 1, "{}", kind.name());
                assert_eq!(st.galloping, 0, "{}: empty operand galloped", kind.name());
                assert_eq!(st.merge, 1, "{}", kind.name());
                assert_eq!(st.elements_scanned, 0, "{}", kind.name());
            }
        }
    }

    #[test]
    fn len_one_operands_all_kinds() {
        let b: Vec<u32> = (0..200).map(|x| x * 2).collect();
        for kind in IntersectKind::ALL {
            let isec = Intersector::new(kind);
            for (x, y, expect) in [
                (&[42u32][..], &b[..], vec![42u32]),
                (&b[..], &[42u32][..], vec![42u32]),
                (&[43u32][..], &b[..], vec![]),
                (&b[..], &[43u32][..], vec![]),
                (&[7u32][..], &[7u32][..], vec![7u32]),
                (&[7u32][..], &[8u32][..], vec![]),
            ] {
                let mut out = vec![99];
                let mut st = IntersectStats::default();
                isec.intersect_into(x, y, &mut out, &mut st);
                assert_eq!(out, expect, "{}", kind.name());
                assert_eq!(st.total, 1, "{}", kind.name());
            }
        }
    }

    #[test]
    fn empty_input_is_counted() {
        let isec = Intersector::default();
        let mut out = vec![7];
        let mut st = IntersectStats::default();
        isec.intersect_into(&[], &[1, 2], &mut out, &mut st);
        assert!(out.is_empty());
        assert_eq!(st.total, 1);
    }

    #[test]
    fn names_and_flags() {
        assert_eq!(IntersectKind::HybridAvx2.name(), "HybridAVX2");
        assert_eq!(IntersectKind::HybridAvx512.name(), "HybridAVX512");
        assert_eq!(IntersectKind::MergeAvx512.name(), "MergeAVX512");
        assert!(IntersectKind::HybridAvx2.uses_simd());
        assert!(IntersectKind::HybridAvx512.uses_simd());
        assert!(IntersectKind::MergeAvx512.uses_simd());
        assert!(!IntersectKind::HybridScalar.uses_simd());
        assert!(!IntersectKind::MergeScalar.uses_simd());
        let _ = IntersectKind::best_available();
    }
}
