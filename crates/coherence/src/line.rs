//! Cache-line addressing, line contents, and per-cache MESI states.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Largest line any modelled fabric uses (ECI: 128 B; CXL: 64 B).
pub const MAX_LINE_SIZE: usize = 128;

/// The contents of one cache line: up to [`MAX_LINE_SIZE`] bytes held
/// inline with their length, so a line moves through the data path
/// (directory, fills, NIC answers) without touching the heap.
///
/// Dereferences to its `len` bytes.
///
/// ```
/// use lauberhorn_coherence::Line;
///
/// let line = Line::padded(b"args", 64);
/// assert_eq!(line.len(), 64);
/// assert_eq!(&line[..4], b"args");
/// assert!(line[4..].iter().all(|&b| b == 0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Line {
    len: u8,
    bytes: [u8; MAX_LINE_SIZE],
}

impl Line {
    /// A zero-filled line of `len` bytes (at most [`MAX_LINE_SIZE`];
    /// longer requests are clamped).
    pub fn zeroed(len: usize) -> Self {
        debug_assert!(
            len <= MAX_LINE_SIZE,
            "{len}-byte line exceeds {MAX_LINE_SIZE}"
        );
        Line {
            len: len.min(MAX_LINE_SIZE) as u8,
            bytes: [0; MAX_LINE_SIZE],
        }
    }

    /// A `len`-byte line starting with `prefix` and zero-padded; bytes
    /// of `prefix` past `len` are dropped.
    pub fn padded(prefix: &[u8], len: usize) -> Self {
        let mut line = Self::zeroed(len);
        let n = prefix.len().min(line.len());
        // lint:allow(unchecked-index): n is clamped to both lengths
        line[..n].copy_from_slice(&prefix[..n]);
        line
    }
}

impl Default for Line {
    /// The empty (zero-length) line.
    fn default() -> Self {
        Self::zeroed(0)
    }
}

impl Deref for Line {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // lint:allow(unchecked-index): len <= MAX_LINE_SIZE by construction
        &self.bytes[..self.len as usize]
    }
}

impl DerefMut for Line {
    fn deref_mut(&mut self) -> &mut [u8] {
        // lint:allow(unchecked-index): len <= MAX_LINE_SIZE by construction
        &mut self.bytes[..self.len as usize]
    }
}

impl fmt::Debug for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Identifier of a caching agent: a core's private cache or the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheId(pub usize);

/// A line-aligned physical address.
///
/// Stored as the raw byte address; [`LineAddr::new`] enforces alignment
/// to the owning system's line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Creates a line address, asserting alignment to `line_size`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not `line_size`-aligned (a construction bug
    /// in the caller, never data-dependent).
    pub fn new(addr: u64, line_size: usize) -> Self {
        // lint:allow(panic-path): construction bug in the caller, documented above
        assert!(
            addr.is_multiple_of(line_size as u64),
            "address {addr:#x} not aligned to {line_size}"
        );
        LineAddr(addr)
    }

    /// The line containing byte address `addr`.
    pub fn containing(addr: u64, line_size: usize) -> Self {
        LineAddr(addr - addr % line_size as u64)
    }

    /// The `n`-th line after this one.
    pub fn offset(self, n: u64, line_size: usize) -> Self {
        LineAddr(self.0 + n * line_size as u64)
    }
}

/// MESI state of a line in one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LineState {
    /// Not present.
    #[default]
    Invalid,
    /// Present, read-only, possibly also in other caches.
    Shared,
    /// Present, read-write, clean, exclusive to this cache.
    Exclusive,
    /// Present, read-write, dirty, exclusive to this cache.
    Modified,
}

impl LineState {
    /// Whether a load hits in this state.
    pub fn readable(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether a store hits (no upgrade needed) in this state.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_enforced() {
        let _ = LineAddr::new(0x1000, 128);
        let r = std::panic::catch_unwind(|| LineAddr::new(0x1001, 128));
        assert!(r.is_err());
    }

    #[test]
    fn containing_rounds_down() {
        assert_eq!(LineAddr::containing(0x10f, 128), LineAddr(0x100));
        assert_eq!(LineAddr::containing(0x80, 128), LineAddr(0x80));
        assert_eq!(LineAddr::containing(0, 64), LineAddr(0));
    }

    #[test]
    fn offset_steps_by_lines() {
        let a = LineAddr::new(0x1000, 64);
        assert_eq!(a.offset(2, 64), LineAddr(0x1080));
    }

    #[test]
    fn line_is_a_padded_fixed_capacity_buffer() {
        let line = Line::padded(b"abc", 8);
        assert_eq!(&line[..], b"abc\0\0\0\0\0");
        assert_eq!(Line::padded(&[7; 200], 64)[..], [7; 64]);
        assert!(Line::default().is_empty());
        assert_eq!(Line::zeroed(MAX_LINE_SIZE).len(), MAX_LINE_SIZE);
        // Bytes past `len` are never written, so equality is equality
        // of the visible bytes and the length.
        let mut a = Line::zeroed(4);
        a[0] = 1;
        assert_eq!(a, Line::padded(&[1], 4));
        assert_ne!(a, Line::padded(&[1], 5));
    }

    #[test]
    fn state_predicates() {
        assert!(!LineState::Invalid.readable());
        assert!(LineState::Shared.readable());
        assert!(!LineState::Shared.writable());
        assert!(LineState::Exclusive.writable());
        assert!(LineState::Modified.writable());
    }
}
