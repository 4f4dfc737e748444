//! Randomized tests for the IOMMU and MSI-X models.
//!
//! Deterministic in-tree replacement for an external property-testing
//! framework: cases are generated from seeded `SimRng` streams.

use lauberhorn_pcie::iommu::IO_PAGE_SIZE;
use lauberhorn_pcie::{Iommu, MsixTable};
use lauberhorn_sim::{SimDuration, SimRng};

#[test]
fn translations_match_the_mapping() {
    for case in 0..64u64 {
        let mut rng = SimRng::stream(case, "iommu-map");
        let pages = rng.gen_range(1..=15) as u64;
        let n = rng.gen_range(1..=50);
        let mut io = Iommu::new(8);
        let iova_base = 0x10_0000u64;
        let phys_base = 0x90_0000u64;
        io.map(iova_base, phys_base, pages * IO_PAGE_SIZE, true);
        for _ in 0..n {
            let page = rng.gen_u64() % 16;
            let off = rng.gen_u64() % 4096;
            let iova = iova_base + (page % pages) * IO_PAGE_SIZE + off % IO_PAGE_SIZE;
            let len = (IO_PAGE_SIZE - iova % IO_PAGE_SIZE).min(64);
            let (phys, _) = io.translate(iova, len, true).unwrap();
            assert_eq!(phys - phys_base, iova - iova_base);
        }
    }
}

#[test]
fn unmapped_addresses_always_fault() {
    for case in 0..64u64 {
        let mut rng = SimRng::stream(case, "iommu-fault");
        let n = rng.gen_range(1..=50);
        let mut io = Iommu::new(8);
        // Map only one page; everything outside must fault.
        io.map(0x5000, 0x9000, IO_PAGE_SIZE, true);
        for _ in 0..n {
            let a = rng.gen_u64() % 0x100_0000;
            let in_page = (0x5000..0x6000).contains(&a);
            let r = io.translate(a, 1, false);
            assert_eq!(r.is_ok(), in_page, "at {a:#x}");
        }
    }
}

#[test]
fn range_translation_covers_every_byte() {
    for case in 0..64u64 {
        let mut rng = SimRng::stream(case, "iommu-range");
        let start_off = rng.gen_u64() % 4096;
        let len = 1 + rng.gen_u64() % 19_999;
        let mut io = Iommu::new(16);
        let pages = 8u64;
        io.map(0, 0x100_0000, pages * IO_PAGE_SIZE, true);
        let len = len.min(pages * IO_PAGE_SIZE - start_off);
        // A twin domain translates the same pieces one page at a time.
        let mut twin = Iommu::new(16);
        twin.map(0, 0x100_0000, pages * IO_PAGE_SIZE, true);
        // Twice, so the second pass hits the IOTLB the first filled.
        for _ in 0..2 {
            let mut segs = Vec::new();
            let lat = io
                .translate_range(start_off, len, true, |phys, l| segs.push((phys, l)))
                .unwrap();
            // Segments are contiguous in IOVA space and sum to len.
            let total: u64 = segs.iter().map(|(_, l)| l).sum();
            assert_eq!(total, len);
            // No segment crosses a page boundary.
            for (phys, l) in &segs {
                assert!(phys % IO_PAGE_SIZE + l <= IO_PAGE_SIZE);
            }
            // The range costs exactly its per-page translations.
            let mut per_page = SimDuration::ZERO;
            let mut iova = start_off;
            for &(phys, l) in &segs {
                let (p, t) = twin.translate(iova, l, true).unwrap();
                assert_eq!(p, phys);
                per_page += t;
                iova += l;
            }
            assert_eq!(lat, per_page, "case {case}");
            assert_eq!(io.stats(), twin.stats(), "case {case}");
        }
    }
}

#[test]
fn msix_latching_never_loses_the_last_event() {
    for case in 0..64u64 {
        let mut rng = SimRng::stream(case, "msix");
        let n_ops = rng.gen_range(1..=100);
        // Ops: 0 = raise, 1 = mask, 2 = unmask. Invariant: after any
        // sequence, if an event was raised while masked and we unmask,
        // we get exactly one delivery for the latched window.
        let mut t = MsixTable::new(1);
        let mut masked = false;
        let mut latched = false;
        for _ in 0..n_ops {
            match rng.gen_range(0..=2) {
                0 => {
                    let r = t.raise(0);
                    if masked {
                        assert!(r.is_none());
                        latched = true;
                    } else {
                        assert!(r.is_some());
                    }
                }
                1 => {
                    t.mask(0);
                    masked = true;
                }
                _ => {
                    let r = t.unmask(0);
                    assert_eq!(r.is_some(), masked && latched);
                    masked = false;
                    latched = false;
                }
            }
        }
    }
}
