//! Seedable pseudo-random generators with stable stream splitting.
//!
//! The kernel ships its own small generator (SplitMix64 seeding a
//! xoshiro256** state) so that the exact bit streams used by experiments
//! are pinned by this repository, not by a dependency's minor version.
//! The few distributions the workloads draw from ([`SimRng::below`],
//! [`SimRng::chance`], [`SimRng::exponential`],
//! [`SimRng::standard_normal`]) are inherent methods.
//!
//! # Stream splitting
//!
//! Experiments use many independent random consumers (per-sensor mobility,
//! per-link loss, workload arrivals). Deriving each consumer's generator
//! with [`SimRng::fork`] from a named label keeps streams independent *and*
//! stable: adding a new consumer does not shift the draws seen by existing
//! ones, which keeps regression baselines meaningful.

/// Advances a SplitMix64 state and returns the next output.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string; used to hash fork labels into seed space.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A deterministic xoshiro256** generator.
///
/// # Example
///
/// ```
/// use garnet_simkit::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Forked streams are independent of the parent's subsequent draws.
/// let mut mobility = a.fork("mobility");
/// assert!((0.0..1.0).contains(&mobility.next_f64()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; SplitMix64 expansion guarantees a non-degenerate state.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// Derives an independent generator for the consumer named `label`.
    ///
    /// The child stream depends only on the parent's *seed lineage* and
    /// the label, not on how many values the parent has produced, so the
    /// set of forks is order-insensitive.
    pub fn fork(&self, label: &str) -> SimRng {
        let mix = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ fnv1a(label.as_bytes());
        SimRng::seed(mix)
    }

    /// The next value in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Exponentially distributed value with the given mean (inverse rate).
    /// Used for Poisson arrival processes in workload generators.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        // Inverse-CDF; guard the log argument away from zero.
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Standard normal draw (Box–Muller, one value per call).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// The next 64-bit output (one xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = SimRng::seed(0);
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn fork_is_order_insensitive() {
        let parent = SimRng::seed(99);
        let mut child1 = parent.fork("loss");
        let parent2 = SimRng::seed(99);
        let _ = parent2.fork("mobility"); // extra fork must not matter
        let mut child2 = parent2.fork("loss");
        assert_eq!(child1.next_u64(), child2.next_u64());
    }

    #[test]
    fn fork_labels_give_distinct_streams() {
        let parent = SimRng::seed(5);
        let mut a = parent.fork("a");
        let mut b = parent.fork("b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = SimRng::seed(11);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_is_uniformish_and_in_range() {
        let mut r = SimRng::seed(13);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10k; allow generous tolerance.
            assert!((8_000..12_000).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        SimRng::seed(1).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(17);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut r = SimRng::seed(19);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seed(23);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((3.8..4.2).contains(&mean), "mean={mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::seed(29);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((0.95..1.05).contains(&var), "var={var}");
    }
}
