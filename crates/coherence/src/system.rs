//! The directory coherence protocol tying cores and the device home
//! together.
//!
//! [`CoherentSystem`] models one coherence domain containing:
//!
//! * N core caches (`CacheId(0..n)`),
//! * a DRAM home agent behind an intra-socket fabric, and
//! * a *device home agent* (the NIC) behind a peripheral fabric (ECI or
//!   CXL), owning a dedicated physical address range.
//!
//! The one behaviour everything in the paper hangs off is that a load
//! miss on a **device-homed** line does not complete synchronously: the
//! request is parked at the device ([`LoadResult::Deferred`]) and the
//! device chooses when to answer ([`CoherentSystem::complete_fill`]) —
//! with an RPC payload, a TRYAGAIN dummy, or whatever else the protocol
//! above defines. The stalled core consumes no active cycles meanwhile.
//!
//! Data is kept canonically at the home (see the crate docs for why);
//! ownership, sharing, invalidation and recall latencies are all still
//! modelled and charged.

use std::collections::{BTreeSet, HashMap};

use lauberhorn_sim::{IdBuildHasher, SimDuration};

use crate::fabric::FabricModel;
use crate::line::{CacheId, Line, LineAddr, LineState, MAX_LINE_SIZE};
use crate::stats::CoherenceStats;

/// Token identifying a parked (deferred) device fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FillToken(pub u64);

/// Outcome of a load.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadResult {
    /// The line was present; data returned after the L1 hit latency.
    Hit {
        /// Access latency.
        latency: SimDuration,
        /// Line contents.
        data: Line,
    },
    /// The line was filled from a home agent.
    Fill {
        /// Total fill latency (request + data, plus recall if a dirty
        /// copy had to be fetched from another cache).
        latency: SimDuration,
        /// Line contents.
        data: Line,
    },
    /// The line is device-homed: the request has been parked at the
    /// device, which will answer via [`CoherentSystem::complete_fill`].
    Deferred {
        /// Token the device uses to answer.
        token: FillToken,
        /// Latency until the request message reaches the device (the
        /// device learns of the load this much later).
        request_arrival: SimDuration,
    },
}

/// Outcome of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreResult {
    /// Held Exclusive/Modified: no traffic.
    Hit {
        /// Access latency.
        latency: SimDuration,
    },
    /// Held Shared: ownership upgraded, sharers invalidated.
    Upgraded {
        /// Upgrade round-trip latency.
        latency: SimDuration,
    },
    /// Not present: read-for-ownership fill performed.
    Filled {
        /// Fill round-trip latency.
        latency: SimDuration,
    },
}

/// Errors from protocol misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoherenceError {
    /// A store targeted a device-homed line the cache does not hold.
    ///
    /// The Lauberhorn protocol always loads a control line (acquiring
    /// ownership) before writing it, so this is a protocol violation by
    /// the caller, reported rather than silently modelled.
    StoreToUnheldDeviceLine {
        /// Offending cache.
        cache: CacheId,
        /// Offending line.
        addr: LineAddr,
    },
    /// An unknown or already-completed fill token was used.
    BadToken(FillToken),
    /// A cache id outside the configured range was used.
    BadCache(CacheId),
    /// A store or fill carried more bytes than fit in one line.
    OversizeWrite {
        /// Bytes supplied.
        len: usize,
        /// Line size of the domain.
        line_size: usize,
    },
}

impl std::fmt::Display for CoherenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoherenceError::StoreToUnheldDeviceLine { cache, addr } => write!(
                f,
                "cache {cache:?} stored to device line {addr:?} without holding it"
            ),
            CoherenceError::BadToken(t) => write!(f, "unknown fill token {t:?}"),
            CoherenceError::BadCache(c) => write!(f, "cache id {c:?} out of range"),
            CoherenceError::OversizeWrite { len, line_size } => {
                write!(f, "{len}-byte write exceeds the {line_size}-byte line")
            }
        }
    }
}

impl std::error::Error for CoherenceError {}

#[derive(Debug)]
struct DirEntry {
    owner: Option<CacheId>,
    dirty: bool,
    sharers: BTreeSet<CacheId>,
    data: Line,
}

#[derive(Debug)]
struct PendingFill {
    cache: CacheId,
    addr: LineAddr,
}

/// One coherence domain: cores, DRAM home, device home.
///
/// # Examples
///
/// A deferred device fill — the paper's blocked-load primitive:
///
/// ```
/// use lauberhorn_coherence::{
///     CacheId, CoherentSystem, FabricModel, LineAddr, LoadResult,
/// };
///
/// let mut sys = CoherentSystem::new(
///     1,
///     FabricModel::intra_socket(128),
///     FabricModel::eci(),
///     0x1_0000_0000,
///     0x1_0010_0000,
/// );
/// let ctrl = LineAddr(0x1_0000_0000);
/// // The load parks at the device instead of completing.
/// let LoadResult::Deferred { token, .. } = sys.load(CacheId(0), ctrl).unwrap() else {
///     unreachable!()
/// };
/// // Later, the device answers with a prepared line.
/// let (core, _, _) = sys.complete_fill(token, b"dispatch!").unwrap();
/// assert_eq!(core, CacheId(0));
/// ```
#[derive(Debug)]
pub struct CoherentSystem {
    line_size: usize,
    num_caches: usize,
    host_fabric: FabricModel,
    device_fabric: FabricModel,
    device_base: u64,
    device_limit: u64,
    l1_latency: SimDuration,
    dram_latency: SimDuration,
    dirs: HashMap<LineAddr, DirEntry, IdBuildHasher>,
    pending: HashMap<FillToken, PendingFill, IdBuildHasher>,
    next_token: u64,
    stats: CoherenceStats,
}

impl CoherentSystem {
    /// Creates a domain with `num_caches` core caches.
    ///
    /// `device_fabric` carries traffic to lines in
    /// `[device_base, device_limit)`; everything else is DRAM-homed over
    /// `host_fabric`. Line size is taken from the device fabric (ECI:
    /// 128 B, CXL: 64 B) and used for both homes, matching Enzian where
    /// the CPU's line size equals ECI's, and must not exceed
    /// [`MAX_LINE_SIZE`].
    pub fn new(
        num_caches: usize,
        host_fabric: FabricModel,
        device_fabric: FabricModel,
        device_base: u64,
        device_limit: u64,
    ) -> Self {
        // lint:allow(panic-path): construction-time address-map validation
        assert!(device_base < device_limit);
        // lint:allow(panic-path): construction-time fabric validation
        assert!(device_fabric.line_size <= MAX_LINE_SIZE);
        CoherentSystem {
            line_size: device_fabric.line_size,
            num_caches,
            host_fabric,
            device_fabric,
            device_base,
            device_limit,
            // ~4 cycles at 2 GHz.
            l1_latency: SimDuration::from_ns(2),
            dram_latency: SimDuration::from_ns(60),
            dirs: HashMap::default(),
            pending: HashMap::default(),
            next_token: 0,
            stats: CoherenceStats::default(),
        }
    }

    /// Cache-line size of this domain, in bytes.
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// The device fabric model (for latency queries by the NIC).
    pub fn device_fabric(&self) -> &FabricModel {
        &self.device_fabric
    }

    /// Protocol statistics accumulated so far.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// Whether `addr` falls in the device-homed range.
    pub fn is_device_line(&self, addr: LineAddr) -> bool {
        (self.device_base..self.device_limit).contains(&addr.0)
    }

    fn check_cache(&self, cache: CacheId) -> Result<(), CoherenceError> {
        if cache.0 < self.num_caches {
            Ok(())
        } else {
            Err(CoherenceError::BadCache(cache))
        }
    }

    fn entry(&mut self, addr: LineAddr) -> &mut DirEntry {
        let line_size = self.line_size;
        self.dirs.entry(addr).or_insert_with(|| DirEntry {
            owner: None,
            dirty: false,
            sharers: BTreeSet::new(),
            data: Line::zeroed(line_size),
        })
    }

    /// MESI state of `addr` in `cache`.
    pub fn state_of(&self, cache: CacheId, addr: LineAddr) -> LineState {
        match self.dirs.get(&addr) {
            None => LineState::Invalid,
            Some(e) => {
                if e.owner == Some(cache) {
                    if e.dirty {
                        LineState::Modified
                    } else {
                        LineState::Exclusive
                    }
                } else if e.sharers.contains(&cache) {
                    LineState::Shared
                } else {
                    LineState::Invalid
                }
            }
        }
    }

    /// Performs a load by `cache` from `addr`.
    pub fn load(&mut self, cache: CacheId, addr: LineAddr) -> Result<LoadResult, CoherenceError> {
        self.check_cache(cache)?;
        let state = self.state_of(cache, addr);
        if state.readable() {
            self.stats.load_hits += 1;
            let l1 = self.l1_latency;
            let e = self.entry(addr);
            return Ok(LoadResult::Hit {
                latency: l1,
                data: e.data,
            });
        }
        if self.is_device_line(addr) {
            // Park the request at the device; the device answers later.
            self.stats.deferred_fills += 1;
            let token = FillToken(self.next_token);
            self.next_token += 1;
            self.pending.insert(token, PendingFill { cache, addr });
            return Ok(LoadResult::Deferred {
                token,
                request_arrival: self.device_fabric.req_lat,
            });
        }
        // DRAM-homed fill.
        let fabric = self.host_fabric;
        let mut latency = fabric.fill_rtt() + self.dram_latency;
        let l1 = self.l1_latency;
        let mut recalled = false;
        let data;
        {
            let e = self.entry(addr);
            if let Some(owner) = e.owner {
                if owner != cache {
                    // Dirty/exclusive copy elsewhere: recall it
                    // (intervention), then the requester and the recalled
                    // owner both end Shared.
                    latency += fabric.req_lat + fabric.data_lat;
                    recalled = true;
                    e.dirty = false;
                    e.owner = None;
                    e.sharers.insert(owner);
                }
            }
            let grant_exclusive = e.sharers.is_empty() && e.owner.is_none();
            if grant_exclusive {
                e.owner = Some(cache);
                e.dirty = false;
            } else {
                e.sharers.insert(cache);
            }
            data = e.data;
        }
        if recalled {
            self.stats.recalls += 1;
        }
        self.stats.fills += 1;
        Ok(LoadResult::Fill {
            latency: latency + l1,
            data,
        })
    }

    /// Performs a store by `cache` of `bytes` into `addr` (at offset 0;
    /// partial-line stores write a prefix, which is all the protocol
    /// needs).
    pub fn store(
        &mut self,
        cache: CacheId,
        addr: LineAddr,
        bytes: &[u8],
    ) -> Result<StoreResult, CoherenceError> {
        self.check_cache(cache)?;
        if bytes.len() > self.line_size {
            return Err(CoherenceError::OversizeWrite {
                len: bytes.len(),
                line_size: self.line_size,
            });
        }
        let state = self.state_of(cache, addr);
        let is_device = self.is_device_line(addr);
        let host_fabric = self.host_fabric;
        let device_fabric = self.device_fabric;
        let l1 = self.l1_latency;
        let dram = self.dram_latency;
        match state {
            LineState::Exclusive | LineState::Modified => {
                self.stats.store_hits += 1;
                let e = self.entry(addr);
                e.dirty = true;
                // lint:allow(unchecked-index): len <= line_size checked at entry
                e.data[..bytes.len()].copy_from_slice(bytes);
                Ok(StoreResult::Hit { latency: l1 })
            }
            LineState::Shared => {
                // Upgrade: invalidate other sharers via the home.
                let fabric = if is_device {
                    device_fabric
                } else {
                    host_fabric
                };
                let others;
                {
                    let e = self.entry(addr);
                    others = e.sharers.iter().filter(|&&c| c != cache).count() as u64;
                    e.sharers.clear();
                    e.owner = Some(cache);
                    e.dirty = true;
                    // lint:allow(unchecked-index): len <= line_size checked at entry
                    e.data[..bytes.len()].copy_from_slice(bytes);
                }
                self.stats.upgrades += 1;
                self.stats.invalidations += others;
                Ok(StoreResult::Upgraded {
                    latency: fabric.req_lat * 2 + l1,
                })
            }
            LineState::Invalid => {
                if is_device {
                    // The Lauberhorn protocol never blind-writes a device
                    // line; surface the violation.
                    return Err(CoherenceError::StoreToUnheldDeviceLine { cache, addr });
                }
                // Read-for-ownership from DRAM, invalidating all copies.
                let mut latency = host_fabric.fill_rtt() + dram + l1;
                let mut invals;
                let mut recalled = false;
                {
                    let e = self.entry(addr);
                    invals = e.sharers.len() as u64;
                    if let Some(owner) = e.owner {
                        if owner != cache {
                            invals += 1;
                            latency += host_fabric.req_lat + host_fabric.data_lat;
                            recalled = true;
                        }
                    }
                    e.sharers.clear();
                    e.owner = Some(cache);
                    e.dirty = true;
                    // lint:allow(unchecked-index): len <= line_size checked at entry
                    e.data[..bytes.len()].copy_from_slice(bytes);
                }
                if recalled {
                    self.stats.recalls += 1;
                }
                self.stats.fills += 1;
                self.stats.invalidations += invals;
                Ok(StoreResult::Filled { latency })
            }
        }
    }

    /// The device answers a parked fill with `data`, granting the line
    /// Exclusive (the Lauberhorn protocol always grants E so the core
    /// can write its response in place).
    ///
    /// Returns the requesting cache, the line, and the latency from the
    /// device's decision to the data landing in the core's registers.
    pub fn complete_fill(
        &mut self,
        token: FillToken,
        data: &[u8],
    ) -> Result<(CacheId, LineAddr, SimDuration), CoherenceError> {
        let PendingFill { cache, addr } = self
            .pending
            .remove(&token)
            .ok_or(CoherenceError::BadToken(token))?;
        if data.len() > self.line_size {
            return Err(CoherenceError::OversizeWrite {
                len: data.len(),
                line_size: self.line_size,
            });
        }
        let device_fabric = self.device_fabric;
        let line_size = self.line_size;
        let mut latency = device_fabric.data_lat;
        let invals;
        {
            let e = self.entry(addr);
            // Invalidate any stale copies (possible if the device re-homes
            // an endpoint across cores).
            let mut n = e.sharers.len() as u64;
            if let Some(owner) = e.owner {
                if owner != cache {
                    n += 1;
                }
            }
            invals = n;
            e.sharers.clear();
            e.owner = Some(cache);
            e.dirty = false;
            // lint:allow(unchecked-index): len <= line_size checked at entry
            e.data[..data.len()].copy_from_slice(data);
            if data.len() < line_size {
                let len = data.len();
                // lint:allow(unchecked-index): len < line_size inside this branch
                e.data[len..].fill(0);
            }
        }
        if invals > 0 {
            latency += device_fabric.req_lat;
        }
        self.stats.deferred_completions += 1;
        self.stats.invalidations += invals;
        Ok((cache, addr, latency + self.l1_latency))
    }

    /// Number of fills currently parked at the device.
    pub fn pending_fills(&self) -> usize {
        self.pending.len()
    }

    /// Parked fills for `addr`, oldest first.
    pub fn pending_for(&self, addr: LineAddr) -> Vec<(FillToken, CacheId)> {
        let mut v: Vec<(FillToken, CacheId)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.addr == addr)
            .map(|(t, p)| (*t, p.cache))
            .collect();
        v.sort_by_key(|(t, _)| *t);
        v
    }

    /// Device-initiated fetch-exclusive: the NIC pulls `addr` out of
    /// whichever core holds it (§5.1 — retrieving the RPC response
    /// before transmitting it).
    ///
    /// Returns the line data and the round-trip latency.
    pub fn device_fetch_exclusive(&mut self, addr: LineAddr) -> (Line, SimDuration) {
        let device_fabric = self.device_fabric;
        let e = self.entry(addr);
        let had_copy = e.owner.is_some() || !e.sharers.is_empty();
        e.owner = None;
        e.dirty = false;
        e.sharers.clear();
        let data = e.data;
        self.stats.device_fetch_excl += 1;
        let latency = if had_copy {
            // Invalidate+recall round trip to the owning core.
            device_fabric.req_lat + device_fabric.data_lat
        } else {
            // Nothing cached: local to the device.
            SimDuration::from_ns(5)
        };
        (data, latency)
    }

    /// Silently drops `cache`'s copy of `addr` without data movement.
    ///
    /// Models the self-invalidating grants the NIC uses for TRYAGAIN and
    /// RETIRE lines: the core consumes the message once, and its next
    /// load of the same address must miss back to the device (otherwise
    /// the NIC would never observe the re-issued load).
    pub fn drop_line(&mut self, cache: CacheId, addr: LineAddr) {
        if let Some(e) = self.dirs.get_mut(&addr) {
            if e.owner == Some(cache) {
                e.owner = None;
                e.dirty = false;
            }
            e.sharers.remove(&cache);
        }
    }

    /// Direct device write into memory, as DMA performs it: updates the
    /// canonical copy and invalidates all cached copies.
    ///
    /// Returns the number of invalidation messages this generated.
    pub fn dma_write(&mut self, addr: LineAddr, bytes: &[u8]) -> u64 {
        // Oversized DMA writes are clamped to one line; debug builds flag
        // the caller bug loudly.
        debug_assert!(bytes.len() <= self.line_size);
        let bytes = &bytes[..bytes.len().min(self.line_size)]; // lint:allow(unchecked-index): end clamped to len
        let e = self.entry(addr);
        let mut invals = e.sharers.len() as u64;
        if e.owner.is_some() {
            invals += 1;
        }
        e.owner = None;
        e.dirty = false;
        e.sharers.clear();
        // lint:allow(unchecked-index): bytes clamped to line_size above
        e.data[..bytes.len()].copy_from_slice(bytes);
        self.stats.invalidations += invals;
        invals
    }

    /// Direct device read of the canonical copy (DMA read).
    pub fn dma_read(&mut self, addr: LineAddr) -> Line {
        self.entry(addr).data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV_BASE: u64 = 0x1_0000_0000;
    const DEV_LIMIT: u64 = 0x1_0100_0000;

    fn system(caches: usize) -> CoherentSystem {
        CoherentSystem::new(
            caches,
            FabricModel::intra_socket(128),
            FabricModel::eci(),
            DEV_BASE,
            DEV_LIMIT,
        )
    }

    fn dram_line(n: u64) -> LineAddr {
        LineAddr(n * 128)
    }

    fn dev_line(n: u64) -> LineAddr {
        LineAddr(DEV_BASE + n * 128)
    }

    #[test]
    fn dram_load_fill_then_hit() {
        let mut s = system(2);
        let a = dram_line(1);
        match s.load(CacheId(0), a).unwrap() {
            LoadResult::Fill { latency, .. } => assert!(latency > SimDuration::from_ns(50)),
            other => panic!("expected fill, got {other:?}"),
        }
        assert_eq!(s.state_of(CacheId(0), a), LineState::Exclusive);
        match s.load(CacheId(0), a).unwrap() {
            LoadResult::Hit { latency, .. } => assert!(latency < SimDuration::from_ns(10)),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn second_reader_demotes_owner_to_shared() {
        let mut s = system(2);
        let a = dram_line(2);
        s.load(CacheId(0), a).unwrap();
        s.store(CacheId(0), a, b"dirty").unwrap();
        assert_eq!(s.state_of(CacheId(0), a), LineState::Modified);
        let r = s.load(CacheId(1), a).unwrap();
        match r {
            LoadResult::Fill { data, .. } => assert_eq!(&data[..5], b"dirty"),
            other => panic!("expected fill, got {other:?}"),
        }
        assert_eq!(s.state_of(CacheId(0), a), LineState::Shared);
        assert_eq!(s.state_of(CacheId(1), a), LineState::Shared);
        assert_eq!(s.stats().recalls, 1);
    }

    #[test]
    fn store_upgrade_invalidates_sharers() {
        let mut s = system(3);
        let a = dram_line(3);
        s.load(CacheId(0), a).unwrap();
        s.load(CacheId(1), a).unwrap();
        s.load(CacheId(2), a).unwrap();
        let r = s.store(CacheId(1), a, b"x").unwrap();
        assert!(matches!(r, StoreResult::Upgraded { .. }));
        assert_eq!(s.state_of(CacheId(0), a), LineState::Invalid);
        assert_eq!(s.state_of(CacheId(1), a), LineState::Modified);
        assert_eq!(s.state_of(CacheId(2), a), LineState::Invalid);
        assert_eq!(s.stats().invalidations, 2);
    }

    #[test]
    fn store_miss_performs_rfo() {
        let mut s = system(2);
        let a = dram_line(4);
        s.load(CacheId(0), a).unwrap();
        s.store(CacheId(0), a, b"one").unwrap();
        let r = s.store(CacheId(1), a, b"two").unwrap();
        assert!(matches!(r, StoreResult::Filled { .. }));
        assert_eq!(s.state_of(CacheId(0), a), LineState::Invalid);
        assert_eq!(s.state_of(CacheId(1), a), LineState::Modified);
        // The new owner's data prefix is "two".
        match s.load(CacheId(1), a).unwrap() {
            LoadResult::Hit { data, .. } => assert_eq!(&data[..3], b"two"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn device_load_defers_until_completed() {
        let mut s = system(2);
        let a = dev_line(0);
        let token = match s.load(CacheId(0), a).unwrap() {
            LoadResult::Deferred {
                token,
                request_arrival,
            } => {
                assert_eq!(request_arrival, FabricModel::eci().req_lat);
                token
            }
            other => panic!("expected deferral, got {other:?}"),
        };
        assert_eq!(s.pending_fills(), 1);
        assert_eq!(s.state_of(CacheId(0), a), LineState::Invalid);
        let (cache, addr, latency) = s.complete_fill(token, b"rpc-args").unwrap();
        assert_eq!(cache, CacheId(0));
        assert_eq!(addr, a);
        assert!(latency >= FabricModel::eci().data_lat);
        assert_eq!(s.state_of(CacheId(0), a), LineState::Exclusive);
        assert_eq!(s.pending_fills(), 0);
        // The core can now write its response without traffic.
        let r = s.store(CacheId(0), a, b"resp").unwrap();
        assert!(matches!(r, StoreResult::Hit { .. }));
    }

    #[test]
    fn complete_fill_zero_pads_line() {
        let mut s = system(1);
        let a = dev_line(1);
        // Pre-dirty the canonical copy.
        s.dma_write(a, &[0xEE; 128]);
        let token = match s.load(CacheId(0), a).unwrap() {
            LoadResult::Deferred { token, .. } => token,
            other => panic!("{other:?}"),
        };
        s.complete_fill(token, b"short").unwrap();
        match s.load(CacheId(0), a).unwrap() {
            LoadResult::Hit { data, .. } => {
                assert_eq!(&data[..5], b"short");
                assert!(data[5..].iter().all(|&b| b == 0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stale_token_rejected() {
        let mut s = system(1);
        let a = dev_line(2);
        let token = match s.load(CacheId(0), a).unwrap() {
            LoadResult::Deferred { token, .. } => token,
            other => panic!("{other:?}"),
        };
        s.complete_fill(token, b"x").unwrap();
        assert_eq!(
            s.complete_fill(token, b"y"),
            Err(CoherenceError::BadToken(token))
        );
    }

    #[test]
    fn blind_store_to_device_line_is_a_violation() {
        let mut s = system(1);
        let a = dev_line(3);
        assert!(matches!(
            s.store(CacheId(0), a, b"x"),
            Err(CoherenceError::StoreToUnheldDeviceLine { .. })
        ));
    }

    #[test]
    fn fetch_exclusive_pulls_response_from_core() {
        let mut s = system(1);
        let a = dev_line(4);
        let token = match s.load(CacheId(0), a).unwrap() {
            LoadResult::Deferred { token, .. } => token,
            other => panic!("{other:?}"),
        };
        s.complete_fill(token, b"request").unwrap();
        s.store(CacheId(0), a, b"response").unwrap();
        let (data, latency) = s.device_fetch_exclusive(a);
        assert_eq!(&data[..8], b"response");
        assert!(latency >= FabricModel::eci().req_lat);
        assert_eq!(s.state_of(CacheId(0), a), LineState::Invalid);
        assert_eq!(s.stats().device_fetch_excl, 1);
    }

    #[test]
    fn two_cores_can_park_on_same_line() {
        let mut s = system(2);
        let a = dev_line(5);
        let t0 = match s.load(CacheId(0), a).unwrap() {
            LoadResult::Deferred { token, .. } => token,
            other => panic!("{other:?}"),
        };
        let t1 = match s.load(CacheId(1), a).unwrap() {
            LoadResult::Deferred { token, .. } => token,
            other => panic!("{other:?}"),
        };
        assert_eq!(s.pending_for(a), vec![(t0, CacheId(0)), (t1, CacheId(1))]);
        // Answer the second; the first stays parked, and the grant to
        // core 1 is exclusive.
        s.complete_fill(t1, b"msg").unwrap();
        assert_eq!(s.pending_fills(), 1);
        assert_eq!(s.state_of(CacheId(1), a), LineState::Exclusive);
        assert_eq!(s.state_of(CacheId(0), a), LineState::Invalid);
    }

    #[test]
    fn dma_write_invalidates_cached_copies() {
        let mut s = system(2);
        let a = dram_line(7);
        s.load(CacheId(0), a).unwrap();
        s.load(CacheId(1), a).unwrap();
        let invals = s.dma_write(a, &[1, 2, 3]);
        assert_eq!(invals, 2);
        assert_eq!(s.state_of(CacheId(0), a), LineState::Invalid);
        assert_eq!(s.dma_read(a)[..3], [1, 2, 3]);
    }

    #[test]
    fn bad_cache_id_rejected() {
        let mut s = system(1);
        assert_eq!(
            s.load(CacheId(5), dram_line(0)),
            Err(CoherenceError::BadCache(CacheId(5)))
        );
    }

    #[test]
    fn drop_line_forces_next_load_to_miss() {
        let mut s = system(1);
        let a = dev_line(6);
        let token = match s.load(CacheId(0), a).unwrap() {
            LoadResult::Deferred { token, .. } => token,
            other => panic!("{other:?}"),
        };
        s.complete_fill(token, b"tryagain").unwrap();
        assert_eq!(s.state_of(CacheId(0), a), LineState::Exclusive);
        s.drop_line(CacheId(0), a);
        assert_eq!(s.state_of(CacheId(0), a), LineState::Invalid);
        // Re-load defers to the device again.
        assert!(matches!(
            s.load(CacheId(0), a).unwrap(),
            LoadResult::Deferred { .. }
        ));
    }

    #[test]
    fn stats_track_hits_without_traffic() {
        let mut s = system(1);
        let a = dram_line(9);
        s.load(CacheId(0), a).unwrap();
        let before = s.stats().fabric_messages();
        for _ in 0..100 {
            s.load(CacheId(0), a).unwrap();
        }
        assert_eq!(s.stats().fabric_messages(), before);
        assert_eq!(s.stats().load_hits, 100);
    }
}
