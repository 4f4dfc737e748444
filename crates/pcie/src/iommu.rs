//! IOMMU/SMMU model: IOVA translation with an IOTLB.
//!
//! Section 3 of the paper singles out the IOMMU as the institutional
//! embodiment of "the OS doesn't trust the NIC": every DMA the
//! traditional NIC performs is translated and checked. The model
//! charges an IOTLB lookup on every access and a multi-level page walk
//! on a miss — costs Lauberhorn's device-homed protocol never pays on
//! its fast path.

use std::collections::HashMap;

use lauberhorn_sim::{IdBuildHasher, SimDuration};

/// Page size used by the I/O page tables.
pub const IO_PAGE_SIZE: u64 = 4096;

/// Translation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// IOTLB hits.
    pub iotlb_hits: u64,
    /// IOTLB misses (page walks).
    pub iotlb_misses: u64,
    /// Translation faults (unmapped or permission).
    pub faults: u64,
}

/// Errors surfaced to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IommuError {
    /// No mapping for the IOVA.
    Unmapped {
        /// Faulting I/O virtual address.
        iova: u64,
    },
    /// Mapping exists but does not permit the access.
    Permission {
        /// Faulting I/O virtual address.
        iova: u64,
        /// Whether the access was a write.
        write: bool,
    },
}

impl std::fmt::Display for IommuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IommuError::Unmapped { iova } => write!(f, "iommu fault: iova {iova:#x} unmapped"),
            IommuError::Permission { iova, write } => write!(
                f,
                "iommu fault: iova {iova:#x} {} not permitted",
                if *write { "write" } else { "read" }
            ),
        }
    }
}

impl std::error::Error for IommuError {}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    phys: u64,
    writable: bool,
}

/// An IOMMU translation domain for one device.
#[derive(Debug)]
pub struct Iommu {
    /// Keyed by IOVA page number.
    pages: HashMap<u64, PageEntry, IdBuildHasher>,
    iotlb: Vec<u64>, // LRU queue of page numbers, most recent last.
    iotlb_capacity: usize,
    walk_latency: SimDuration,
    hit_latency: SimDuration,
    stats: IommuStats,
}

impl Default for Iommu {
    fn default() -> Self {
        Self::new(64)
    }
}

impl Iommu {
    /// Creates a domain with an IOTLB of `iotlb_capacity` entries.
    pub fn new(iotlb_capacity: usize) -> Self {
        Iommu {
            pages: HashMap::default(),
            iotlb: Vec::new(),
            iotlb_capacity,
            // A 2-level I/O page walk: two dependent DRAM accesses.
            walk_latency: SimDuration::from_ns(140),
            hit_latency: SimDuration::from_ns(4),
            stats: IommuStats::default(),
        }
    }

    /// Maps `len` bytes at `iova` to `phys` (both page-aligned).
    ///
    /// # Panics
    ///
    /// Panics on unaligned arguments — mapping setup is OS code, and an
    /// unaligned mapping is a bug, not an input condition.
    pub fn map(&mut self, iova: u64, phys: u64, len: u64, writable: bool) {
        assert!(iova.is_multiple_of(IO_PAGE_SIZE), "iova not page aligned");
        assert!(phys.is_multiple_of(IO_PAGE_SIZE), "phys not page aligned");
        let pages = len.div_ceil(IO_PAGE_SIZE);
        // One allocation for a large mapping instead of a rehash at
        // every doubling.
        self.pages.reserve(pages as usize);
        for i in 0..pages {
            self.pages.insert(
                iova / IO_PAGE_SIZE + i,
                PageEntry {
                    phys: phys + i * IO_PAGE_SIZE,
                    writable,
                },
            );
        }
    }

    /// Removes the mapping for `len` bytes at `iova` and shoots down
    /// IOTLB entries covering it.
    pub fn unmap(&mut self, iova: u64, len: u64) {
        let first = iova / IO_PAGE_SIZE;
        let pages = len.div_ceil(IO_PAGE_SIZE);
        for i in 0..pages {
            self.pages.remove(&(first + i));
        }
        self.iotlb.retain(|p| *p < first || *p >= first + pages);
    }

    /// Translates one access of `len` bytes at `iova`.
    ///
    /// Returns the physical address and the translation latency.
    /// Accesses must not cross a page boundary (DMA engines split at
    /// page boundaries; callers use [`Iommu::translate_range`]).
    pub fn translate(
        &mut self,
        iova: u64,
        len: u64,
        write: bool,
    ) -> Result<(u64, SimDuration), IommuError> {
        debug_assert!(len > 0);
        let page = iova / IO_PAGE_SIZE;
        debug_assert_eq!(
            (iova + len - 1) / IO_PAGE_SIZE,
            page,
            "access crosses page boundary"
        );
        let mut latency = self.hit_latency;
        let hit = self.iotlb.iter().position(|p| *p == page);
        match hit {
            Some(pos) => {
                self.stats.iotlb_hits += 1;
                // Move to MRU position.
                let p = self.iotlb.remove(pos);
                self.iotlb.push(p);
            }
            None => {
                self.stats.iotlb_misses += 1;
                latency += self.walk_latency;
                if self.pages.contains_key(&page) {
                    if self.iotlb.len() >= self.iotlb_capacity {
                        self.iotlb.remove(0);
                    }
                    self.iotlb.push(page);
                }
            }
        }
        let Some(entry) = self.pages.get(&page) else {
            self.stats.faults += 1;
            return Err(IommuError::Unmapped { iova });
        };
        if write && !entry.writable {
            self.stats.faults += 1;
            return Err(IommuError::Permission { iova, write });
        }
        Ok((entry.phys + iova % IO_PAGE_SIZE, latency))
    }

    /// Translates a multi-page range, splitting at page boundaries.
    ///
    /// Calls `segment(phys, len)` for each page-bounded piece in order
    /// and returns the total translation latency: exactly the sum of
    /// one [`Iommu::translate`] call per piece, with the same IOTLB
    /// accounting. Stops at the first faulting page.
    pub fn translate_range(
        &mut self,
        iova: u64,
        len: u64,
        write: bool,
        mut segment: impl FnMut(u64, u64),
    ) -> Result<SimDuration, IommuError> {
        let mut total = SimDuration::ZERO;
        let mut off = 0;
        while off < len {
            let cur = iova + off;
            let in_page = IO_PAGE_SIZE - cur % IO_PAGE_SIZE;
            let chunk = in_page.min(len - off);
            let (phys, lat) = self.translate(cur, chunk, write)?;
            total += lat;
            segment(phys, chunk);
            off += chunk;
        }
        Ok(total)
    }

    /// Translation statistics.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_within_mapped_page() {
        let mut io = Iommu::new(8);
        io.map(0x10000, 0x9_0000, 4096, true);
        let (phys, lat) = io.translate(0x10040, 64, false).unwrap();
        assert_eq!(phys, 0x9_0040);
        assert!(lat >= SimDuration::from_ns(100)); // First access walks.
        let (_, lat2) = io.translate(0x10080, 64, true).unwrap();
        assert!(lat2 < SimDuration::from_ns(20)); // IOTLB hit.
        assert_eq!(io.stats().iotlb_hits, 1);
        assert_eq!(io.stats().iotlb_misses, 1);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut io = Iommu::new(8);
        assert_eq!(
            io.translate(0x4000, 4, false),
            Err(IommuError::Unmapped { iova: 0x4000 })
        );
        assert_eq!(io.stats().faults, 1);
    }

    #[test]
    fn readonly_mapping_rejects_writes() {
        let mut io = Iommu::new(8);
        io.map(0, 0x1000, 4096, false);
        assert!(io.translate(0, 64, false).is_ok());
        assert_eq!(
            io.translate(0x10, 64, true),
            Err(IommuError::Permission {
                iova: 0x10,
                write: true
            })
        );
        assert_eq!(io.stats().faults, 1);
    }

    #[test]
    fn unmap_shoots_down_iotlb() {
        let mut io = Iommu::new(8);
        io.map(0x2000, 0x8000, 4096, true);
        io.translate(0x2000, 8, false).unwrap(); // Cached.
        io.unmap(0x2000, 4096);
        assert!(io.translate(0x2000, 8, false).is_err());
    }

    #[test]
    fn multi_page_mapping_and_range_translation() {
        let mut io = Iommu::new(8);
        io.map(0, 0x10_0000, 3 * 4096, true);
        // A 10000-byte DMA starting mid-page spans 3 pages.
        let mut segs = Vec::new();
        let lat = io
            .translate_range(2048, 10000, true, |phys, len| segs.push((phys, len)))
            .unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], (0x10_0000 + 2048, 2048));
        assert_eq!(segs[1], (0x10_1000, 4096));
        assert_eq!(segs[2], (0x10_2000, 10000 - 2048 - 4096));
        // The same pieces one `translate` at a time, on a twin domain
        // whose IOTLB saw the same history: same latency, same counts.
        let mut twin = Iommu::new(8);
        twin.map(0, 0x10_0000, 3 * 4096, true);
        let mut per_page = SimDuration::ZERO;
        let mut iova = 2048;
        for &(phys, len) in &segs {
            let (p, l) = twin.translate(iova, len, true).unwrap();
            assert_eq!(p, phys);
            per_page += l;
            iova += len;
        }
        assert_eq!(lat, per_page);
        assert_eq!(io.stats(), twin.stats());
    }

    #[test]
    fn iotlb_evicts_lru() {
        let mut io = Iommu::new(2);
        for p in 0..3u64 {
            io.map(p * 4096, 0x100_0000 + p * 4096, 4096, true);
        }
        io.translate(0, 8, false).unwrap(); // Page 0 cached.
        io.translate(4096, 8, false).unwrap(); // Page 1 cached.
        io.translate(0, 8, false).unwrap(); // Page 0 now MRU.
        io.translate(2 * 4096, 8, false).unwrap(); // Evicts page 1.
        let before = io.stats().iotlb_misses;
        io.translate(4096, 8, false).unwrap(); // Page 1 misses again, evicting page 0.
        assert_eq!(io.stats().iotlb_misses, before + 1);
        let before_hits = io.stats().iotlb_hits;
        io.translate(2 * 4096, 8, false).unwrap();
        assert!(io.stats().iotlb_hits > before_hits, "page 2 stayed cached");
    }

    #[test]
    fn negative_cache_is_not_kept() {
        // Faults must not populate the IOTLB.
        let mut io = Iommu::new(2);
        assert!(io.translate(0x7000, 8, false).is_err());
        io.map(0x7000, 0x1000, 4096, true);
        // Next access misses (walks) and then succeeds.
        let (_, lat) = io.translate(0x7000, 8, false).unwrap();
        assert!(lat > SimDuration::from_ns(100));
    }
}
