//! splitmix64: the one source of randomness in the benchmark. Every input
//! (graphs, pattern draws, open-loop stagger, update edges) derives from
//! `--seed` through it, so the same seed gives the same inputs on any host.

#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one purpose (`"ba_mid"`, `"conn0"`, ...),
    /// so adding a consumer never shifts another consumer's draws.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = SplitMix64::new(seed ^ 0x6c69_6768_7462_656e);
        for b in purpose.bytes() {
            h.state = h.state.wrapping_add(u64::from(b));
            h.next_u64();
        }
        SplitMix64::new(h.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); multiply-shift, bias below 2^-32 for
    /// the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        // Reference value of splitmix64(seed = 0), first output.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
        let x = SplitMix64::stream(1, "ba_mid").next_u64();
        let y = SplitMix64::stream(1, "rmat_mid").next_u64();
        let z = SplitMix64::stream(2, "ba_mid").next_u64();
        assert!(x != y && x != z);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(3);
        for n in [1u64, 2, 7, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
        let u = r.unit();
        assert!((0.0..1.0).contains(&u));
    }
}
