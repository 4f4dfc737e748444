//! RPC payload size distributions.

use lauberhorn_sim::SimRng;

/// A payload-size distribution.
#[derive(Debug, Clone, Copy)]
pub enum SizeDist {
    /// Every payload is `bytes` long.
    Fixed {
        /// Payload size.
        bytes: usize,
    },
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Smallest payload.
        lo: usize,
        /// Largest payload.
        hi: usize,
    },
    /// The cloud RPC mixture, following the shape reported by
    /// Seemakhupt et al. \[23\]: the majority of RPCs are small
    /// (sub-512 B), with a long but light tail of large transfers.
    ///
    /// Mixture: 55% ≤128 B, 25% 129–512 B, 12% 513–2 KiB,
    /// 6% 2–16 KiB, 2% 16–56 KiB (log-uniform within each band; the
    /// tail is capped at one UDP datagram, since the transports here
    /// do not model fragmentation).
    CloudRpc,
}

impl SizeDist {
    /// Draws a payload size in bytes (at least 1).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        match self {
            SizeDist::Fixed { bytes } => (*bytes).max(1),
            SizeDist::Uniform { lo, hi } => rng.gen_range(*lo..=*hi).max(1),
            SizeDist::CloudRpc => {
                let bands: [(f64, usize, usize); 5] = [
                    (0.55, 1, 128),
                    (0.25, 129, 512),
                    (0.12, 513, 2048),
                    (0.06, 2049, 16 * 1024),
                    (0.02, 16 * 1024 + 1, 56 * 1024),
                ];
                let mut x = rng.gen_f64();
                for (p, lo, hi) in bands {
                    if x < p {
                        // Log-uniform within the band keeps small sizes
                        // dominant inside wide bands.
                        let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
                        let v = (llo + rng.gen_f64() * (lhi - llo)).exp();
                        return (v.round() as usize).clamp(lo, hi);
                    }
                    x -= p;
                }
                64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_uniform() {
        let mut rng = SimRng::stream(1, "sz");
        assert_eq!(SizeDist::Fixed { bytes: 64 }.sample(&mut rng), 64);
        for _ in 0..1000 {
            let v = SizeDist::Uniform { lo: 10, hi: 20 }.sample(&mut rng);
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn cloud_rpc_majority_small() {
        // The paper's premise [23]: "the great majority of RPC requests
        // and responses are small".
        let mut rng = SimRng::stream(2, "sz");
        let d = SizeDist::CloudRpc;
        let n = 100_000;
        let small = (0..n).filter(|_| d.sample(&mut rng) <= 512).count();
        let frac = small as f64 / n as f64;
        assert!(frac > 0.75, "only {frac} of RPCs were ≤512 B");
    }

    #[test]
    fn cloud_rpc_has_a_tail() {
        let mut rng = SimRng::stream(3, "sz");
        let d = SizeDist::CloudRpc;
        let big = (0..100_000)
            .map(|_| d.sample(&mut rng))
            .filter(|s| *s > 16 * 1024)
            .count();
        assert!(big > 200, "tail too thin: {big}");
    }

    #[test]
    fn zero_fixed_size_clamped_to_one() {
        let mut rng = SimRng::stream(4, "sz");
        assert_eq!(SizeDist::Fixed { bytes: 0 }.sample(&mut rng), 1);
    }
}
