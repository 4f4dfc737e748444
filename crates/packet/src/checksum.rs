//! The Internet checksum (RFC 1071), shared by IPv4 and UDP.

/// Incremental one's-complement sum over 16-bit big-endian words.
///
/// Odd trailing bytes are padded with a zero byte, per RFC 1071.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Checksum { sum: 0 }
    }

    /// Feeds a byte slice into the sum.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            self.sum += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            self.sum += u16::from_be_bytes([*last, 0]) as u32;
        }
    }

    /// Feeds a single 16-bit word.
    pub fn add_u16(&mut self, w: u16) {
        self.sum += w as u32;
    }

    /// Finalises to the one's-complement checksum field value.
    pub fn finish(self) -> u16 {
        let mut s = self.sum;
        while s > 0xffff {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Verifies that `data` (which contains its checksum field) sums to the
/// all-ones pattern, i.e. the checksum is valid.
pub fn verify(data: &[u8]) -> bool {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verify_round_trip() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11];
        // Compute checksum, place it, and verify over the whole buffer.
        let ck = checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut inc = Checksum::new();
        inc.add_bytes(&data[..100]);
        inc.add_bytes(&data[100..]);
        assert_eq!(inc.finish(), checksum(&data));
    }

    #[test]
    fn all_zero_checksums_to_all_ones() {
        assert_eq!(checksum(&[0u8; 64]), 0xffff);
    }
}
