//! Reference-counted packet buffers with a recycling pool.
//!
//! Every simulated frame used to be a bare `Vec<u8>` that was cloned
//! at each hop: the client driver kept one copy for retransmission,
//! the stack's event queue carried another, and fault duplication
//! cloned again. [`PktBuf`] makes a frame a cheap handle — cloning
//! bumps a reference count instead of copying bytes — so a frame
//! built once by the marshaller flows unchanged through the NIC
//! pipeline, the coherence fabric, and the RPC stacks.
//!
//! Mutation (fault-injected corruption is the only in-tree case) goes
//! through [`PktBuf::make_mut`], which is copy-on-write: the clean
//! path never copies, and a corrupted retransmission never disturbs
//! the pristine copy held for later retries.
//!
//! [`BufPool`] recycles frames their sender has finished with. It
//! keeps a handle to each frame it is shown, and [`BufPool::take`]
//! hands back the oldest one that no other holder still references,
//! for the sender to rewrite in place through [`PktBuf::make_mut`].
//! Steady-state simulation thus reuses a small set of allocations
//! instead of hitting the allocator per frame. A frame that is still
//! shared is never handed out, and even if it were, `make_mut` would
//! copy it rather than overwrite another holder's bytes, so
//! correctness never depends on the pool's policy. The pool is
//! deterministic: it carries no addresses or clocks and affects only
//! *where* bytes live.
//!
//! `Arc` (not `Rc`) so stacks owning buffers can move across the
//! parallel sweep's worker threads.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

/// A reference-counted, immutable-by-default packet buffer.
#[derive(Debug, Clone, Default)]
pub struct PktBuf(Arc<Vec<u8>>);

impl PktBuf {
    /// Wraps an existing byte vector without copying it.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        PktBuf(Arc::new(bytes))
    }

    /// The frame length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the frame is empty (the degenerate error frame).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Mutable access, copy-on-write: sole owners mutate in place,
    /// shared buffers are cloned first so other holders are unharmed.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.0)
    }

    /// How many handles share this buffer.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl Deref for PktBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for PktBuf {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for PktBuf {
    fn from(bytes: Vec<u8>) -> Self {
        PktBuf::from_vec(bytes)
    }
}

impl PartialEq for PktBuf {
    fn eq(&self, other: &Self) -> bool {
        self.0.as_slice() == other.0.as_slice()
    }
}

impl Eq for PktBuf {}

/// Longest frame a [`BufPool`] keeps. A kept frame pins the capacity
/// of the largest frame it ever carried, so keeping the rare frames of
/// tens of KiB in a heavy-tailed size mix would pin that much per
/// slot for the rest of the run; they are allocated afresh instead.
const MAX_KEPT_LEN: usize = 16 * 1024;

/// A recycler of sent frames.
///
/// [`keep`](BufPool::keep) retains a handle to a frame just sent;
/// [`take`](BufPool::take) hands back the oldest kept frame that no
/// other holder references any more. Bounded in the number of frames
/// and in their length, so a burst cannot pin memory forever.
#[derive(Debug, Default)]
pub struct BufPool {
    kept: VecDeque<PktBuf>,
    cap: usize,
}

impl BufPool {
    /// A pool keeping at most `cap` frames.
    pub fn new(cap: usize) -> Self {
        BufPool {
            kept: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// The oldest kept frame that no other handle references, removed
    /// from the pool, or a new empty frame when every kept one is
    /// still in use. Its bytes are stale: rewrite them through
    /// [`PktBuf::make_mut`], which reuses the allocation.
    pub fn take(&mut self) -> PktBuf {
        self.kept
            .iter()
            .position(|f| f.ref_count() == 1)
            .and_then(|i| self.kept.remove(i))
            .unwrap_or_default()
    }

    /// Keeps a handle to `frame` for a later [`take`](BufPool::take),
    /// unless the pool is full or the frame is longer than 16 KiB.
    pub fn keep(&mut self, frame: &PktBuf) {
        if self.kept.len() < self.cap && frame.len() <= MAX_KEPT_LEN {
            self.kept.push_back(frame.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = PktBuf::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a.ref_count(), 2);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut a = PktBuf::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        if let Some(x) = a.make_mut().get_mut(0) {
            *x = 9;
        }
        assert_eq!(a.as_slice(), &[9, 2, 3]);
        // The shared copy is untouched.
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(b.ref_count(), 1);
    }

    #[test]
    fn sole_owner_mutates_in_place() {
        let mut a = PktBuf::from_vec(Vec::with_capacity(64));
        let cap = a.make_mut().capacity();
        a.make_mut().extend_from_slice(&[7; 10]);
        assert_eq!(a.make_mut().capacity(), cap, "no reallocation");
        assert_eq!(a.len(), 10);
    }

    /// Takes a frame from `pool` and writes `len` bytes of `fill`.
    fn write(pool: &mut BufPool, len: usize, fill: u8) -> PktBuf {
        let mut f = pool.take();
        let v = f.make_mut();
        v.clear();
        v.resize(len, fill);
        f
    }

    #[test]
    fn pool_recycles_last_owner_only() {
        let mut pool = BufPool::new(4);
        let sent = write(&mut pool, 100, 1);
        pool.keep(&sent);
        let sent_ptr = sent.as_ptr();
        // Another handle is live: the frame is not handed out.
        let other = pool.take();
        assert!(other.is_empty());
        assert_ne!(other.as_ptr(), sent_ptr);
        assert_eq!(sent.as_slice(), &[1; 100]);
        // Released: the same allocation comes back, sole-owned.
        drop(sent);
        let mut again = pool.take();
        assert_eq!(again.as_ptr(), sent_ptr);
        assert_eq!(again.ref_count(), 1);
        let cap = again.make_mut().capacity();
        let v = again.make_mut();
        v.clear();
        v.resize(100, 3);
        assert_eq!(
            again.as_ptr(),
            sent_ptr,
            "a same-size rewrite reallocates nothing"
        );
        assert_eq!(again.make_mut().capacity(), cap);
        assert_eq!(again.as_slice(), &[3; 100]);
    }

    #[test]
    fn oldest_free_frame_comes_back_first() {
        let mut pool = BufPool::new(4);
        let frames: Vec<PktBuf> = (0..3).map(|i| write(&mut pool, 8, i)).collect();
        for f in &frames {
            pool.keep(f);
        }
        let ptrs: Vec<*const u8> = frames.iter().map(|f| f.as_ptr()).collect();
        // The oldest is still held elsewhere; the next two are free.
        let mut frames = frames.into_iter();
        let held = frames.next();
        drop(frames);
        assert_eq!(pool.take().as_ptr(), ptrs[1]);
        assert_eq!(pool.take().as_ptr(), ptrs[2]);
        assert!(pool.take().is_empty());
        drop(held);
        assert_eq!(pool.take().as_ptr(), ptrs[0]);
    }

    #[test]
    fn frames_over_the_length_cap_are_not_kept() {
        let mut pool = BufPool::new(4);
        let at_cap = write(&mut pool, MAX_KEPT_LEN, 1);
        let over = write(&mut pool, MAX_KEPT_LEN + 1, 2);
        pool.keep(&at_cap);
        pool.keep(&over);
        let at_cap_ptr = at_cap.as_ptr();
        drop((at_cap, over));
        assert_eq!(pool.take().as_ptr(), at_cap_ptr);
        assert!(pool.take().is_empty(), "the long frame was not kept");
    }

    #[test]
    fn pool_is_bounded() {
        let mut pool = BufPool::new(2);
        let frames: Vec<PktBuf> = (0..5).map(|i| write(&mut pool, 8, i)).collect();
        for f in &frames {
            pool.keep(f);
        }
        drop(frames);
        assert_eq!(pool.take().as_slice(), &[0; 8]);
        assert_eq!(pool.take().as_slice(), &[1; 8]);
        assert!(pool.take().is_empty(), "only two frames were kept");
    }

    #[test]
    fn corrupting_a_taken_frame_spares_the_retransmit_copy() {
        let mut pool = BufPool::new(4);
        let sent = write(&mut pool, 64, 7);
        pool.keep(&sent);
        let retransmit = sent.clone();
        // The wire copy is corrupted in flight: copy-on-write.
        let mut wire = sent;
        if let Some(b) = wire.make_mut().get_mut(20) {
            *b ^= 0x40;
        }
        assert_ne!(wire, retransmit);
        assert_eq!(retransmit.as_slice(), &[7; 64]);
        // Nothing hands out the retransmit copy while it is held.
        drop(wire);
        assert!(pool.take().is_empty());
        assert_eq!(retransmit.as_slice(), &[7; 64]);
    }
}
