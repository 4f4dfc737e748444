//! Deterministic hashes: [`IdHasher`] for the simulator's id-keyed
//! tables, and [`Fnv1a`] for stream seeds and run digests.
//!
//! The device tables the paper's NIC resolves a request with (demux,
//! endpoints, the scheduler mirror), the coherence directory, the IOMMU
//! page table and the OS thread table are all keyed by integers the
//! simulator itself hands out: line addresses, fill tokens, endpoint,
//! thread and request ids, page numbers. The default SipHash
//! `RandomState` defends against keys crafted to collide, which such
//! keys never are, and runs several rounds per key; a simulated
//! Lauberhorn echo request hashes about two dozen keys.
//!
//! [`IdHasher`] is an FxHash-style multiply. Its [`Hasher::finish`]
//! rotates the product so that its well-mixed high bits land in the low
//! bits, which hashbrown uses as the bucket index: line addresses are
//! multiples of the line size, and an unrotated product of such a key
//! keeps its low bits zero. The hasher carries no random seed, so a
//! map's layout, and its iteration order, repeat across processes; code
//! that iterates a map still sorts, because the order depends on the
//! map's history.
//!
//! Maps spell the hasher out, `HashMap<K, V, IdBuildHasher>`, so the
//! `unordered-collection` lint still sees every map in `sim` and `rpc`.
//!
//! [`Fnv1a`] is the 64-bit FNV-1a hash. It derives each named RNG
//! stream's seed from its label, and it folds the request stream and
//! the report into the digests that pin a run.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier: 2^64 divided by the golden ratio, the
/// constant of Fibonacci hashing.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// How far [`Hasher::finish`] rotates the product left: bits 38.. of
/// the product, the best mixed, become the bucket index.
const ROTATE: u32 = 26;

/// Multiply-and-rotate hasher for integer keys the simulator assigns.
/// Not for keys from outside the program: it has no collision defence.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

/// The [`std::hash::BuildHasher`] for maps keyed by simulator ids.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MUL);
    }
}

/// The 64-bit FNV-1a hash, folding one byte at a time.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty hash (the FNV offset basis).
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds in `bytes`, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in the eight little-endian bytes of `x`.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (w, b) in word.iter_mut().zip(chunk) {
                *w = *b;
            }
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        IdBuildHasher::default().hash_one(key)
    }

    /// Distinct `hash & 4095` buckets the keys reach.
    fn buckets(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|k| hash_of(k) & 4095)
            .collect::<BTreeSet<_>>()
            .len()
    }

    #[test]
    fn output_is_pinned() {
        // Fixed values: a map's layout must not vary between processes,
        // as it would under `RandomState`.
        assert_eq!(hash_of(0x1_0000_0000u64), 6_052_837_899_219_315_184);
        assert_eq!(hash_of(7u32), 5_326_673_769_564_868_944);
    }

    #[test]
    fn aligned_and_dense_keys_spread_over_buckets() {
        // 4,096 consecutive 64-byte line addresses in the device range
        // reach 2,831 buckets; an unrotated multiply leaves their low 6
        // bits zero and reaches only 64.
        let lines = buckets((0..4096u64).map(|i| 0x1_0000_0000 + 64 * i));
        assert!(lines >= 2000, "line keys reach {lines} of 4096 buckets");
        let unrotated = (0..4096u64)
            .map(|i| (0x1_0000_0000 + 64 * i).wrapping_mul(MUL) & 4095)
            .collect::<BTreeSet<_>>()
            .len();
        assert_eq!(unrotated, 64);
        // 4,096 consecutive page numbers (an IOMMU mapping) reach 3,905.
        let pages = buckets(0..4096u64);
        assert!(pages >= 2000, "page keys reach {pages} of 4096 buckets");
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        let fnv = |s: &str| {
            let mut h = Fnv1a::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(fnv(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv("foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        h.write_u64(u64::from_le_bytes(*b"foobar\0\0"));
        let mut g = Fnv1a::new();
        g.write(b"foobar\0\0");
        assert_eq!(h.finish(), g.finish());
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
