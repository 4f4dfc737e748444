//! The host side of a DMA NIC, shared by the bypass and kernel stacks:
//! device bring-up, the RX descriptor refill, the TX ring and the PCIe
//! message count. What differs between the two stacks stays in them:
//! flow-director steering against RSS, masked polling against NAPI
//! interrupts, DDIO, and their software backlogs.

use lauberhorn_nic_dma::nic::{RxDelivery, RxDrop};
use lauberhorn_nic_dma::ring::{RxDescriptor, TxDescriptor};
use lauberhorn_nic_dma::{DmaNic, DmaNicConfig};
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_sim::{MetricsRegistry, SimDuration, SimTime};

use crate::stack::{Machine, StackCommon, BASE_PORT};

/// Base of the identity-mapped buffer arena.
const ARENA_BASE: u64 = 0x100_0000;
/// Size of the buffer arena.
const ARENA_BYTES: u64 = 256 << 20;
/// Size of one RX or TX buffer.
const BUF_BYTES: u32 = 16384;
/// RX buffers posted per queue at bring-up.
const RX_BUFS_PER_QUEUE: u64 = 128;
/// TX buffers the driver cycles through.
const TX_BUFS: u64 = 1024;

/// A DMA NIC and the driver state around it. The per-request methods
/// are `#[inline]` for the reason given on
/// [`StackCommon`](crate::stack::StackCommon).
pub(crate) struct DmaHost {
    /// The device. Stacks reach it to mask, steer and unmask queues
    /// and for the doorbell cost.
    pub(crate) nic: DmaNic,
    /// TX buffer the last response was sent from.
    next_tx: u64,
}

impl DmaHost {
    /// Brings up `machine`'s DMA NIC with `queues` RX queues and no
    /// interrupt holdoff: maps the buffer arena and posts every queue's
    /// RX buffers.
    pub(crate) fn new(machine: Machine, queues: u32) -> Self {
        let preset = match machine {
            Machine::EnzianPcie => DmaNicConfig::enzian_fpga(queues),
            _ => DmaNicConfig::modern_server(queues),
        };
        let mut nic = DmaNic::new(DmaNicConfig {
            interrupt_holdoff: SimDuration::ZERO,
            ..preset
        });
        nic.iommu_mut()
            .map(ARENA_BASE, ARENA_BASE, ARENA_BYTES, true);
        for q in 0..queues {
            for b in 0..RX_BUFS_PER_QUEUE {
                let slot = q as u64 * RX_BUFS_PER_QUEUE + b;
                nic.post_rx(
                    q,
                    RxDescriptor {
                        buf_iova: ARENA_BASE + slot * BUF_BYTES as u64,
                        buf_len: BUF_BYTES,
                    },
                )
                // lint:allow(panic-path): construction-time ring setup
                .expect("fresh ring has room");
            }
        }
        DmaHost { nic, next_tx: 0 }
    }

    /// `request_id`'s frame `raw` reaches the NIC at `now`: DMAs it into
    /// a buffer of queue `steer` (RSS picks the queue when `None`) and
    /// reposts the consumed descriptor, as a driver refills its ring.
    /// Returns the delivery, or `None` when the NIC dropped the frame,
    /// in which case the request has been dropped too.
    #[inline]
    pub(crate) fn receive(
        &mut self,
        common: &mut StackCommon,
        raw: &[u8],
        request_id: u64,
        now: SimTime,
        steer: Option<u32>,
    ) -> Option<RxDelivery> {
        let rx = match steer {
            Some(queue) => self.nic.rx_packet_steered(now, raw, queue),
            None => self.nic.rx_packet(now, raw),
        };
        match rx {
            Ok(delivery) => {
                if self.nic.post_rx(delivery.queue, delivery.desc).is_err() {
                    debug_assert!(false, "slot was just freed");
                }
                Some(delivery)
            }
            Err(e) => {
                debug_assert!(matches!(e, RxDrop::NoDescriptor { .. }), "rx failed: {e:?}");
                common.drop_request(request_id, now);
                None
            }
        }
    }

    /// Sends a `frame_len`-byte response whose doorbell the core rings
    /// at `at`. Returns when the frame has left the NIC.
    #[inline]
    pub(crate) fn transmit(&mut self, at: SimTime, frame_len: usize) -> SimTime {
        let doorbell = at + self.nic.doorbell_cost();
        self.next_tx = (self.next_tx + 1) % TX_BUFS;
        let desc = TxDescriptor {
            buf_iova: ARENA_BASE + self.next_tx * BUF_BYTES as u64,
            len: frame_len as u32,
        };
        match self.nic.tx_packet(doorbell, desc) {
            Ok(t) => t,
            Err(e) => {
                // TX ring exhaustion is not modelled as backpressure:
                // send at the doorbell time and flag the model bug.
                debug_assert!(false, "tx failed: {e:?}");
                doorbell
            }
        }
    }

    /// Where clients address `service`: its own UDP port.
    #[inline]
    pub(crate) fn server_addr(service: u16) -> EndpointAddr {
        EndpointAddr::host(1, BASE_PORT + service)
    }

    /// Exports the NIC counters into `reg` and returns the run's PCIe
    /// transactions: about 4 per received frame (descriptor fetch,
    /// payload write, completion write, refill), 3 per sent frame,
    /// plus the stack's `extra`.
    pub(crate) fn finish(&self, reg: &mut MetricsRegistry, extra: u64) -> u64 {
        let stats = self.nic.stats();
        stats.export(reg);
        stats.rx_delivered * 4 + stats.tx_frames * 3 + extra
    }
}
