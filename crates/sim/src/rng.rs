//! Deterministic, stream-splittable randomness.
//!
//! Every stochastic element of a simulation (arrival processes, service
//! times, RSS hashes of random flows, …) draws from a [`SimRng`] derived
//! from the experiment's single seed plus a human-readable stream label.
//! Two consequences:
//!
//! * runs are bit-for-bit reproducible given the seed, and
//! * adding a new consumer of randomness does not perturb the draws seen
//!   by existing consumers (each stream is independent).
//!
//! The generator is an in-tree ChaCha8: cryptographic-quality mixing,
//! no external dependency, and a stable output stream across toolchains
//! (the parallel sweep executor relies on runs being a pure function of
//! `(seed, label)` regardless of which thread executes them).

use crate::hash::Fnv1a;

/// The ChaCha8 block function over a 16-word state.
#[derive(Clone)]
struct ChaCha8 {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// Block counter (state words 12..14).
    counter: u64,
    /// Buffered keystream block.
    block: [u32; 16],
    /// Next unread word in `block` (16 = exhausted).
    word: usize,
}

/// One ChaCha quarter round over four named state words. Operating on
/// named variables (not array indices) keeps the block function free of
/// any bounds checks.
macro_rules! quarter {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(16);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(12);
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(8);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(7);
    };
}

impl ChaCha8 {
    fn new(key: [u32; 8]) -> Self {
        ChaCha8 {
            key,
            counter: 0,
            block: [0; 16],
            word: 16,
        }
    }

    fn refill(&mut self) {
        let [k0, k1, k2, k3, k4, k5, k6, k7] = self.key;
        let init: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            k0,
            k1,
            k2,
            k3,
            k4,
            k5,
            k6,
            k7,
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let [mut s0, mut s1, mut s2, mut s3, mut s4, mut s5, mut s6, mut s7, mut s8, mut s9, mut s10, mut s11, mut s12, mut s13, mut s14, mut s15] =
            init;
        for _ in 0..4 {
            // Two rounds (one column + one diagonal pass) per iteration.
            quarter!(s0, s4, s8, s12);
            quarter!(s1, s5, s9, s13);
            quarter!(s2, s6, s10, s14);
            quarter!(s3, s7, s11, s15);
            quarter!(s0, s5, s10, s15);
            quarter!(s1, s6, s11, s12);
            quarter!(s2, s7, s8, s13);
            quarter!(s3, s4, s9, s14);
        }
        let mixed = [
            s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15,
        ];
        for ((b, s), i) in self.block.iter_mut().zip(mixed).zip(init) {
            *b = s.wrapping_add(i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.word = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.word >= 16 {
            self.refill();
        }
        // lint:allow(unchecked-index): refill above resets word to 0, so word < 16
        let w = self.block[self.word];
        self.word += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

/// SplitMix64 step, used to expand a 64-bit seed into a ChaCha key.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn key_from_seed(seed: u64) -> [u32; 8] {
    let mut s = seed;
    let mut key = [0u32; 8];
    for pair in key.chunks_exact_mut(2) {
        let w = splitmix64(&mut s);
        if let [lo, hi] = pair {
            *lo = w as u32;
            *hi = (w >> 32) as u32;
        }
    }
    key
}

/// A named, deterministic random stream.
pub struct SimRng {
    inner: ChaCha8,
}

/// Stable 64-bit FNV-1a hash of a label, used to derive per-stream seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

impl SimRng {
    /// Creates the root stream for an experiment seed.
    pub fn root(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8::new(key_from_seed(seed)),
        }
    }

    /// Creates a stream named `label`, derived from `seed`.
    ///
    /// The same `(seed, label)` pair always yields the same stream, and
    /// distinct labels yield independent streams.
    pub fn stream(seed: u64, label: &str) -> Self {
        Self::root(seed ^ fnv1a(label.as_bytes()))
    }

    /// Derives a child stream from this one; used when a component wants
    /// to hand isolated randomness to a sub-component.
    pub fn fork(&mut self, label: &str) -> Self {
        let s = self.inner.next_u64();
        Self::root(s ^ fnv1a(label.as_bytes()))
    }

    /// Uniform sample from an integer range (rejection sampling,
    /// unbiased). Accepts `lo..hi` and `lo..=hi`.
    pub fn gen_range(&mut self, range: impl std::ops::RangeBounds<usize>) -> usize {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&v) => v as u64,
            Bound::Excluded(&v) => v as u64 + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&v) => v as u64,
            Bound::Excluded(&v) => {
                debug_assert!(v > 0, "empty range");
                (v as u64).saturating_sub(1)
            }
            Bound::Unbounded => usize::MAX as u64,
        };
        debug_assert!(lo <= hi);
        lo.wrapping_add(self.below((hi - lo).wrapping_add(1))) as usize
    }

    /// Uniform u64 in `[0, n)`; `n == 0` means the full 64-bit range.
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return self.inner.next_u64();
        }
        // Rejection sampling on the top of the range keeps it unbiased.
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.inner.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform u64.
    pub fn gen_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Bernoulli draw with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Used for Poisson inter-arrival times and memoryless service times.
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse-CDF; 1-u avoids ln(0).
        let u = self.gen_f64();
        -mean * (1.0 - u).ln()
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.gen_f64();
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fills `buf` with random bytes (e.g. synthetic payloads).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.inner.next_u64().to_le_bytes();
            for (dst, src) in chunk.iter_mut().zip(w) {
                *dst = src;
            }
        }
    }

    /// Chooses an index in `0..n` weighted by `weights` (need not be
    /// normalised). Returns `None` when `weights` is empty or sums to 0.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 || total.is_nan() {
            return None;
        }
        let mut x = self.gen_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return Some(i);
            }
            x -= w;
        }
        Some(weights.len() - 1)
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_label_reproduce() {
        let mut a = SimRng::stream(42, "arrivals");
        let mut b = SimRng::stream(42, "arrivals");
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_labels_are_independent() {
        let mut a = SimRng::stream(42, "arrivals");
        let mut b = SimRng::stream(42, "service");
        let same = (0..64).filter(|_| a.gen_u64() == b.gen_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chacha_keystream_is_well_distributed() {
        // Bit-balance sanity: over 64k words the ones-density must sit
        // near 50%.
        let mut r = SimRng::root(1234);
        let ones: u32 = (0..65_536).map(|_| r.gen_u64().count_ones()).sum::<u32>();
        let density = ones as f64 / (65_536.0 * 64.0);
        assert!((density - 0.5).abs() < 0.005, "density {density}");
    }

    #[test]
    fn gen_range_is_inclusive_and_bounded() {
        let mut r = SimRng::stream(3, "range");
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..10_000 {
            let v = r.gen_range(5..=8);
            assert!((5..=8).contains(&v));
            hit_lo |= v == 5;
            hit_hi |= v == 8;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::stream(7, "exp");
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::stream(7, "norm");
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "var was {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::stream(9, "w");
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
    }

    #[test]
    fn weighted_index_empty_or_zero() {
        let mut r = SimRng::stream(9, "w2");
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn fork_differs_from_parent() {
        let mut a = SimRng::stream(1, "p");
        let mut child = a.fork("c");
        assert_ne!(a.gen_u64(), child.gen_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::stream(2, "bytes");
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // 13 random bytes being all zero has probability 2^-104.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
