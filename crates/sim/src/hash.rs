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
//! stream's seed from its label, and it folds the report into the
//! digest that pins a run. Its word fold, [`Fnv1a::write_words`], runs
//! the same xor-multiply step once per eight little-endian bytes
//! instead of once per byte, so it is not FNV-1a; the driver folds the
//! request stream through it, where cloud-mix payloads average about
//! 1.3 KB a request.

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

/// The 64-bit FNV-1a hash, folding one byte at a time, plus a word
/// fold ([`Fnv1a::write_words`]) that runs its step once per eight
/// bytes.
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

    /// Folds in `word` with one xor-multiply, where
    /// [`Fnv1a::write_u64`] takes eight.
    #[inline]
    pub fn write_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }

    /// Folds in `bytes` one little-endian word of eight bytes at a
    /// time ([`Fnv1a::write_word`]), then a tail of under eight bytes
    /// one byte at a time, as [`Fnv1a::write`] does. Each step is a
    /// bijection of the running hash and of the word, so inputs of one
    /// length that differ in any one bit never collide.
    #[inline]
    pub fn write_words(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.write_word(u64::from_le_bytes(*word));
        }
        self.write(tail);
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

    fn words(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_words(bytes);
        h.finish()
    }

    #[test]
    fn word_fold_is_pinned() {
        // Five words and a five-byte tail; the value comes from an
        // independent implementation of the fold.
        assert_eq!(
            words(b"The NIC should be part of the OS (HotOS 2025)"),
            0x55f2_5176_b661_f339
        );
        let mut h = Fnv1a::new();
        h.write_word(u64::from_le_bytes(*b"The NIC "));
        assert_eq!(h.finish(), words(b"The NIC "));
    }

    #[test]
    fn word_fold_of_a_short_input_is_the_byte_fold() {
        let input = [0xa5u8, 0x00, 0xff, 0x3c, 0x01, 0x80, 0x7f];
        for len in 0..=7 {
            let bytes = input.get(..len).unwrap_or_default();
            let mut h = Fnv1a::new();
            h.write(bytes);
            assert_eq!(words(bytes), h.finish(), "{len} bytes");
        }
    }

    #[test]
    fn word_fold_sees_every_bit() {
        // Each step h -> (h ^ w) * PRIME is a bijection in h and in w,
        // so equal-length inputs that differ in one bit never collide.
        for len in 0..=40usize {
            let input: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37) ^ 0x5a)
                .collect();
            let base = words(&input);
            for bit in 0..len * 8 {
                let mut flipped = input.clone();
                if let Some(b) = flipped.get_mut(bit / 8) {
                    *b ^= 1 << (bit % 8);
                }
                assert_ne!(words(&flipped), base, "{len} bytes, bit {bit}");
            }
        }
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
