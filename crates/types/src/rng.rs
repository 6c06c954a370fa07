//! Deterministic randomness.
//!
//! Every stochastic component in the workspace — channel delays, fault
//! injection, workload generators — draws from a
//! [`DetRng`] seeded explicitly by the experiment configuration. The
//! same seed always reproduces the same trace, which is essential when
//! a test asserts that a particular interleaving violates (or upholds)
//! a transient property.
//!
//! [`SplitMix64`] provides cheap, well-distributed sub-seed derivation
//! so independent components (e.g. the per-switch channel and the
//! packet injector) consume decorrelated streams derived from one
//! master seed.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The SplitMix64 generator (Steele, Lea, Flood 2014). Used only to
/// derive decorrelated sub-seeds from a master seed; simulation-quality
/// sampling goes through [`DetRng`]'s `StdRng`.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix_finalize(self.state)
    }
}

/// SplitMix64's output mixer: a bijection on `u64` whose every output
/// bit depends on every input bit. [`SplitMix64`] applies it to its
/// counter, [`IdHasher`](crate::IdHasher) to its folded key.
#[inline]
pub(crate) const fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random number generator with explicit seeding and
/// named sub-stream derivation.
#[derive(Clone, Debug)]
pub struct DetRng {
    seed: u64,
    inner: StdRng,
}

impl DetRng {
    /// Create a generator from an explicit experiment seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent generator for a named component. The label
    /// is hashed (FNV-1a) into the derivation so different components
    /// with the same index still decorrelate.
    pub fn derive(&self, label: &str, index: u64) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut mix = SplitMix64::new(self.seed ^ h ^ index.rotate_left(17));
        // burn a few outputs so nearby seeds diverge
        let a = mix.next_u64();
        let b = mix.next_u64();
        DetRng::new(a ^ b.rotate_left(23))
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() on empty domain");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Sample an exponential distribution with the given mean, via
    /// inverse CDF. Returns 0 for non-positive means.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Choose a uniformly random element (by reference). Returns `None`
    /// on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            let i = self.index(xs.len());
            Some(&xs[i])
        }
    }

    /// Access the underlying `rand` generator for APIs that need one.
    pub fn inner(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should diverge");
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let root = DetRng::new(7);
        let mut c1 = root.derive("channel", 0);
        let mut c2 = root.derive("channel", 0);
        let mut inj = root.derive("injector", 0);
        let mut c1b = root.derive("channel", 1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let x = c1.next_u64();
        assert_ne!(x, inj.next_u64());
        assert_ne!(x, c1b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut r = DetRng::new(11);
        let hits = (0..20_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = DetRng::new(5);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exponential(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "got {mean}");
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // and with overwhelming probability not the identity
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut r = DetRng::new(13);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let one = [42u8];
        assert_eq!(r.choose(&one), Some(&42));
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = DetRng::new(17);
        for _ in 0..1000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
            let i = r.index(5);
            assert!(i < 5);
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 0 of the standard SplitMix64
        // algorithm definition.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_eq!((a, b), (0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4));
        // Determinism check.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }
}
