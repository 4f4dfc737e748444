//! The composed DMA NIC: receive and transmit paths.
//!
//! The receive path performs the paper's steps 1–4: read the packet,
//! verify checksums (offload), demultiplex via RSS to a descriptor
//! queue, DMA the frame into a host buffer, write a completion, and —
//! when the queue's interrupts are enabled — raise an MSI-X interrupt.
//! Everything after that (steps 5–12) is software and lives in the
//! `lauberhorn-os` / `lauberhorn-rpc` crates.

use lauberhorn_packet::{parse_udp_frame_ref, PacketError};
use lauberhorn_pcie::iommu::IommuError;
use lauberhorn_pcie::msix::MSIX_DELIVERY;
use lauberhorn_pcie::{Iommu, MsixTable, PcieLink};
use lauberhorn_sim::{SimDuration, SimTime};

use crate::moderation::Moderation;
use crate::ring::{DescRing, RxDescriptor, TxDescriptor};
use crate::rss::RssTable;

/// Static configuration of a [`DmaNic`].
#[derive(Debug, Clone)]
pub struct DmaNicConfig {
    /// Number of RX queues (and MSI-X vectors).
    pub num_queues: u32,
    /// Descriptor ring capacity per queue.
    pub ring_size: usize,
    /// The PCIe link the NIC sits behind.
    pub link: PcieLink,
    /// Interrupt holdoff; `SimDuration::ZERO` disables moderation.
    pub interrupt_holdoff: SimDuration,
    /// Latency of the on-NIC pipeline (MAC, parser, RSS, scheduler)
    /// from last wire byte to the first DMA issue. ~500 ns on ASICs.
    pub pipeline_latency: SimDuration,
}

impl DmaNicConfig {
    /// A typical modern server NIC (Gen4 x16).
    pub fn modern_server(num_queues: u32) -> Self {
        DmaNicConfig {
            num_queues,
            ring_size: 1024,
            link: PcieLink::modern_server(),
            interrupt_holdoff: SimDuration::from_us(20),
            pipeline_latency: SimDuration::from_ns(500),
        }
    }

    /// The Enzian FPGA implementing a conventional DMA NIC (the
    /// "DMA over PCIe on the same machine" series of Figure 2).
    pub fn enzian_fpga(num_queues: u32) -> Self {
        DmaNicConfig {
            num_queues,
            ring_size: 256,
            link: PcieLink::enzian_fpga(),
            interrupt_holdoff: SimDuration::from_us(20),
            pipeline_latency: SimDuration::from_ns(800),
        }
    }
}

/// Why a packet was not delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxDrop {
    /// Frame failed parsing or checksum verification.
    BadFrame(PacketError),
    /// The selected queue had no free descriptor.
    NoDescriptor {
        /// Queue that was out of buffers.
        queue: u32,
    },
    /// IOMMU refused the buffer translation.
    IommuFault(IommuError),
}

/// A successfully received packet, as the driver will observe it.
#[derive(Debug, Clone)]
pub struct RxDelivery {
    /// Queue the packet was steered to.
    pub queue: u32,
    /// The descriptor consumed (buffer the frame now occupies).
    pub desc: RxDescriptor,
    /// UDP payload bytes of the frame the NIC wrote to the buffer.
    pub payload_len: usize,
    /// Absolute time the completion (and data) are visible to software.
    pub ready_at: SimTime,
    /// If an interrupt fires for this packet: `(core, at)`.
    pub interrupt: Option<(usize, SimTime)>,
}

/// Device counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Frames delivered to host memory.
    pub rx_delivered: u64,
    /// Frames dropped: parse/checksum.
    pub rx_bad_frame: u64,
    /// Frames dropped: ring empty.
    pub rx_no_desc: u64,
    /// Frames dropped: IOMMU fault.
    pub rx_iommu_fault: u64,
    /// Interrupts raised.
    pub interrupts: u64,
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Payload bytes received.
    pub rx_bytes: u64,
}

impl NicStats {
    /// Exports under the `nic-dma.*` names (DESIGN.md §11).
    pub fn export(&self, reg: &mut lauberhorn_sim::MetricsRegistry) {
        reg.counter("nic-dma.rx.delivered", self.rx_delivered);
        reg.counter("nic-dma.rx.bad_frame", self.rx_bad_frame);
        reg.counter("nic-dma.rx.no_desc", self.rx_no_desc);
        reg.counter("nic-dma.rx.iommu_fault", self.rx_iommu_fault);
        reg.counter("nic-dma.rx.bytes", self.rx_bytes);
        reg.counter("nic-dma.irq.raised", self.interrupts);
        reg.counter("nic-dma.tx.frames", self.tx_frames);
    }
}

/// The traditional DMA NIC of Figure 1.
#[derive(Debug)]
pub struct DmaNic {
    cfg: DmaNicConfig,
    rx_rings: Vec<DescRing<RxDescriptor>>,
    rss: RssTable,
    msix: MsixTable,
    moderation: Vec<Moderation>,
    iommu: Iommu,
    stats: NicStats,
}

impl DmaNic {
    /// Creates the NIC with empty rings; the driver must post buffers.
    pub fn new(cfg: DmaNicConfig) -> Self {
        let q = cfg.num_queues as usize;
        DmaNic {
            rx_rings: (0..q).map(|_| DescRing::new(cfg.ring_size)).collect(),
            rss: RssTable::new(cfg.num_queues),
            msix: MsixTable::new(q),
            moderation: vec![Moderation::new(cfg.interrupt_holdoff); q],
            iommu: Iommu::new(64),
            stats: NicStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DmaNicConfig {
        &self.cfg
    }

    /// Mutable access to the IOMMU domain (the OS maps buffers here).
    pub fn iommu_mut(&mut self) -> &mut Iommu {
        &mut self.iommu
    }

    /// Steers queue `q`'s interrupt vector to `core`.
    pub fn steer_queue(&mut self, q: u32, core: usize) {
        self.msix.steer(q as usize, core);
    }

    /// Masks queue `q`'s vector (NAPI: entering polled mode).
    pub fn mask_queue(&mut self, q: u32) {
        self.msix.mask(q as usize);
    }

    /// Unmasks queue `q`'s vector; returns a core to interrupt if an
    /// event was latched while masked.
    pub fn unmask_queue(&mut self, q: u32) -> Option<usize> {
        self.msix.unmask(q as usize)
    }

    /// CPU-side cost of ringing a doorbell (posted MMIO write).
    pub fn doorbell_cost(&self) -> SimDuration {
        self.cfg.link.mmio_write_cpu
    }

    /// Driver posts a free RX buffer to queue `q`.
    pub fn post_rx(&mut self, q: u32, desc: RxDescriptor) -> Result<(), crate::ring::RingError> {
        self.rx_rings[q as usize].post(desc)
    }

    /// A frame arrives from the wire at `now`, steered by RSS.
    pub fn rx_packet(&mut self, now: SimTime, raw: &[u8]) -> Result<RxDelivery, RxDrop> {
        self.rx_packet_inner(now, raw, None)
    }

    /// A frame arrives from the wire at `now`, steered to an explicit
    /// queue (flow-director / ntuple exact-match rule hit — the bypass
    /// stacks program these instead of relying on RSS).
    pub fn rx_packet_steered(
        &mut self,
        now: SimTime,
        raw: &[u8],
        queue: u32,
    ) -> Result<RxDelivery, RxDrop> {
        self.rx_packet_inner(now, raw, Some(queue))
    }

    fn rx_packet_inner(
        &mut self,
        now: SimTime,
        raw: &[u8],
        steer: Option<u32>,
    ) -> Result<RxDelivery, RxDrop> {
        // Steps 1–2: read the packet, protocol processing (checksum
        // offload). A bad frame is dropped in hardware. The frame is
        // validated in place; nothing is copied.
        let frame = match parse_udp_frame_ref(raw) {
            Ok(f) => f,
            Err(e) => {
                self.stats.rx_bad_frame += 1;
                return Err(RxDrop::BadFrame(e));
            }
        };
        // Step 3: demultiplex to a queue.
        let queue = steer.unwrap_or_else(|| {
            self.rss.queue_for(
                frame.ip.src,
                frame.ip.dst,
                frame.udp.src_port,
                frame.udp.dst_port,
            )
        });
        let payload_len = frame.payload.len();
        let desc = match self.rx_rings[queue as usize].take() {
            Ok(d) => d,
            Err(_) => {
                self.stats.rx_no_desc += 1;
                return Err(RxDrop::NoDescriptor { queue });
            }
        };
        // Translate the buffer (every page of it the frame touches).
        let mut when = now + self.cfg.pipeline_latency;
        match self
            .iommu
            .translate_range(desc.buf_iova, raw.len() as u64, true, |_, _| {})
        {
            Ok(lat) => when += lat,
            Err(e) => {
                self.stats.rx_iommu_fault += 1;
                return Err(RxDrop::IommuFault(e));
            }
        }
        // DMA the frame, then the completion record (32 B writeback).
        when += self.cfg.link.dma_write_time(raw.len());
        when += self.cfg.link.serialize_time(32);
        self.stats.rx_delivered += 1;
        self.stats.rx_bytes += payload_len as u64;
        // Step 4: interrupt, subject to masking and moderation.
        let interrupt = match self.moderation[queue as usize].request(when) {
            Some(at) => self.msix.raise(queue as usize).map(|core| {
                self.stats.interrupts += 1;
                (core, at + MSIX_DELIVERY)
            }),
            None => None,
        };
        Ok(RxDelivery {
            queue,
            desc,
            payload_len,
            ready_at: when,
            interrupt,
        })
    }

    /// Transmit path: the driver rang the doorbell at `now` for `desc`.
    ///
    /// Returns the time the last byte leaves the wire-side of the NIC.
    /// Costs: doorbell delivery, descriptor fetch (DMA read), payload
    /// fetch (DMA read of `len` bytes), pipeline.
    pub fn tx_packet(&mut self, now: SimTime, desc: TxDescriptor) -> Result<SimTime, RxDrop> {
        let mut when = now + self.cfg.link.mmio_write_delivery;
        match self
            .iommu
            .translate_range(desc.buf_iova, desc.len as u64, false, |_, _| {})
        {
            Ok(lat) => when += lat,
            Err(e) => return Err(RxDrop::IommuFault(e)),
        }
        when += self.cfg.link.dma_read_time(16); // Descriptor fetch.
        when += self.cfg.link.dma_read_time(desc.len as usize); // Payload.
        when += self.cfg.pipeline_latency;
        self.stats.tx_frames += 1;
        Ok(when)
    }

    /// Device counters.
    pub fn stats(&self) -> NicStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lauberhorn_packet::frame::{build_udp_frame, EndpointAddr};

    fn frame_bytes(src_port: u16) -> Vec<u8> {
        build_udp_frame(
            EndpointAddr::host(1, src_port),
            EndpointAddr::host(2, 7000),
            b"payload",
            0,
        )
        .unwrap()
    }

    fn nic_with_buffers() -> DmaNic {
        let mut nic = DmaNic::new(DmaNicConfig::modern_server(4));
        // Map a buffer arena and post descriptors on all queues.
        nic.iommu_mut().map(0x100000, 0x900000, 1 << 20, true);
        for q in 0..4 {
            for i in 0..16u64 {
                nic.post_rx(
                    q,
                    RxDescriptor {
                        buf_iova: 0x100000 + (q as u64 * 16 + i) * 2048,
                        buf_len: 2048,
                    },
                )
                .unwrap();
            }
        }
        nic
    }

    #[test]
    fn rx_delivers_with_latency_and_interrupt() {
        let mut nic = nic_with_buffers();
        let raw = frame_bytes(1234);
        let d = nic.rx_packet(SimTime::from_us(10), &raw).unwrap();
        assert_eq!(d.payload_len, b"payload".len());
        assert!(d.ready_at > SimTime::from_us(10));
        // First packet on an idle queue interrupts.
        let (core, at) = d.interrupt.expect("interrupt fires");
        assert_eq!(core, 0);
        assert!(at > d.ready_at);
        assert_eq!(nic.stats().rx_delivered, 1);
    }

    #[test]
    fn same_flow_lands_on_same_queue() {
        let mut nic = nic_with_buffers();
        let raw = frame_bytes(42);
        let q1 = nic.rx_packet(SimTime::ZERO, &raw).unwrap().queue;
        let q2 = nic.rx_packet(SimTime::from_us(1), &raw).unwrap().queue;
        assert_eq!(q1, q2);
    }

    #[test]
    fn corrupted_frame_dropped_in_hardware() {
        let mut nic = nic_with_buffers();
        let mut raw = frame_bytes(1);
        let n = raw.len();
        raw[n - 1] ^= 0xff;
        assert!(matches!(
            nic.rx_packet(SimTime::ZERO, &raw),
            Err(RxDrop::BadFrame(_))
        ));
        assert_eq!(nic.stats().rx_bad_frame, 1);
    }

    #[test]
    fn empty_ring_drops() {
        let mut nic = DmaNic::new(DmaNicConfig::modern_server(1));
        nic.iommu_mut().map(0, 0, 1 << 20, true);
        let raw = frame_bytes(5);
        assert!(matches!(
            nic.rx_packet(SimTime::ZERO, &raw),
            Err(RxDrop::NoDescriptor { queue: 0 })
        ));
        assert_eq!(nic.stats().rx_no_desc, 1);
    }

    #[test]
    fn unmapped_buffer_faults() {
        let mut nic = DmaNic::new(DmaNicConfig::modern_server(1));
        nic.post_rx(
            0,
            RxDescriptor {
                buf_iova: 0xdead_0000,
                buf_len: 2048,
            },
        )
        .unwrap();
        let raw = frame_bytes(5);
        assert!(matches!(
            nic.rx_packet(SimTime::ZERO, &raw),
            Err(RxDrop::IommuFault(_))
        ));
    }

    #[test]
    fn moderation_suppresses_burst_interrupts() {
        let mut nic = nic_with_buffers();
        let raw = frame_bytes(9);
        let first = nic.rx_packet(SimTime::from_us(0), &raw).unwrap();
        assert!(first.interrupt.is_some());
        let mut suppressed = 0;
        for i in 1..10 {
            let d = nic.rx_packet(SimTime::from_us(i), &raw).unwrap();
            if d.interrupt.is_none() {
                suppressed += 1;
            }
        }
        assert_eq!(suppressed, 9, "holdoff must suppress the burst");
    }

    #[test]
    fn masked_queue_never_interrupts() {
        let mut nic = nic_with_buffers();
        let raw = frame_bytes(3);
        let q = nic.rx_packet(SimTime::ZERO, &raw).unwrap().queue;
        nic.mask_queue(q);
        // Push past the holdoff so moderation would allow firing.
        let d = nic.rx_packet(SimTime::from_ms(1), &raw).unwrap();
        assert!(d.interrupt.is_none());
        // Unmasking reports the latched event.
        assert!(nic.unmask_queue(q).is_some());
    }

    #[test]
    fn tx_charges_descriptor_and_payload_fetches() {
        let mut nic = nic_with_buffers();
        let done = nic
            .tx_packet(
                SimTime::ZERO,
                TxDescriptor {
                    buf_iova: 0x100000,
                    len: 1500,
                },
            )
            .unwrap();
        // Two DMA read RTTs plus change: > 1.2 us on Gen4.
        assert!(done > SimTime::from_ns(1200), "tx path too fast: {done}");
        assert_eq!(nic.stats().tx_frames, 1);
    }
}
