//! Randomized tests for the DMA NIC: conservation of frames across
//! random traffic, and RSS determinism.
//!
//! Deterministic in-tree replacement for an external property-testing
//! framework: cases are generated from seeded `SimRng` streams.

use lauberhorn_nic_dma::ring::RxDescriptor;
use lauberhorn_nic_dma::{DmaNic, DmaNicConfig};
use lauberhorn_packet::frame::{build_udp_frame, EndpointAddr};
use lauberhorn_sim::{SimRng, SimTime};

#[test]
fn frames_are_delivered_or_counted_dropped() {
    for case in 0..32u64 {
        let mut rng = SimRng::stream(case, "dma-conserve");
        let n_flows = rng.gen_range(1..=60);
        let flows: Vec<(u16, usize)> = (0..n_flows)
            .map(|_| (rng.gen_range(1..=59_999) as u16, rng.gen_range(1..=511)))
            .collect();
        let buffers = rng.gen_range(1..=31);
        let mut nic = DmaNic::new(DmaNicConfig::modern_server(4));
        nic.iommu_mut().map(0x10_0000, 0x10_0000, 32 << 20, true);
        for q in 0..4u32 {
            for b in 0..buffers as u64 {
                nic.post_rx(
                    q,
                    RxDescriptor {
                        buf_iova: 0x10_0000 + (q as u64 * 64 + b) * 16384,
                        buf_len: 16384,
                    },
                )
                .unwrap();
            }
        }
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for (i, (port, len)) in flows.iter().enumerate() {
            let raw = build_udp_frame(
                EndpointAddr::host(1, *port),
                EndpointAddr::host(2, 9000),
                &vec![0xAA; *len],
                i as u16,
            )
            .unwrap();
            match nic.rx_packet(SimTime::from_us(i as u64), &raw) {
                Ok(d) => {
                    delivered += 1;
                    // Recycle so later frames have buffers.
                    nic.post_rx(d.queue, d.desc).unwrap();
                    assert_eq!(d.payload_len, *len);
                }
                Err(_) => dropped += 1,
            }
        }
        let stats = nic.stats();
        assert_eq!(stats.rx_delivered, delivered);
        assert_eq!(
            stats.rx_delivered + stats.rx_no_desc + stats.rx_bad_frame + stats.rx_iommu_fault,
            delivered + dropped
        );
    }
}

#[test]
fn rss_steering_is_deterministic_per_flow() {
    for case in 0..32u64 {
        let mut rng = SimRng::stream(case, "dma-rss");
        let n_ports = rng.gen_range(1..=40);
        let ports: Vec<u16> = (0..n_ports)
            .map(|_| rng.gen_range(1..=59_999) as u16)
            .collect();
        let mut nic = DmaNic::new(DmaNicConfig::modern_server(8));
        nic.iommu_mut().map(0, 0, 32 << 20, true);
        for q in 0..8u32 {
            for b in 0..4u64 {
                nic.post_rx(
                    q,
                    RxDescriptor {
                        buf_iova: (q as u64 * 8 + b) * 16384,
                        buf_len: 16384,
                    },
                )
                .unwrap();
            }
        }
        for port in ports {
            let raw = build_udp_frame(
                EndpointAddr::host(1, port),
                EndpointAddr::host(2, 9000),
                b"x",
                0,
            )
            .unwrap();
            let q1 = nic.rx_packet(SimTime::ZERO, &raw).map(|d| {
                nic.post_rx(d.queue, d.desc).unwrap();
                d.queue
            });
            let q2 = nic.rx_packet(SimTime::from_us(1), &raw).map(|d| {
                nic.post_rx(d.queue, d.desc).unwrap();
                d.queue
            });
            if let (Ok(a), Ok(b)) = (q1, q2) {
                assert_eq!(a, b, "same flow steered to different queues");
            }
        }
    }
}
