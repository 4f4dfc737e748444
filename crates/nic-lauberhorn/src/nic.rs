//! The composed Lauberhorn NIC.
//!
//! [`LauberhornNic`] owns all device-resident state — demux tables,
//! endpoint protocol engines, the scheduler mirror, continuations —
//! and exposes three event entry points the machine simulation drives:
//!
//! * [`LauberhornNic::on_core_load`] — a core's load on a device-homed
//!   line was parked by the coherence system,
//! * [`LauberhornNic::on_request_frame`] — a frame arrived from the
//!   wire ([`LauberhornNic::on_parsed_frame`] when the caller already
//!   parsed it),
//! * [`LauberhornNic::on_timeout`] — a TRYAGAIN timer fired.
//!
//! Each appends [`NicAction`]s — timestamped instructions for the
//! simulation (answer this fill, arm this timer, fetch-exclusive and
//! transmit, …) — to a buffer the caller owns and reuses, so a
//! steady-state transition allocates nothing. Every action drives the
//! machine; counters live in [`LbNicStats`]. Keeping the NIC pure in
//! this sense makes every decision unit-testable and lets the model
//! checker drive the same logic.

use std::collections::HashMap;

use lauberhorn_coherence::{FillToken, Line, LineAddr};
use lauberhorn_os::ProcessId;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::marshal::{append_dispatch_form, dispatch_form_len};
use lauberhorn_packet::{
    parse_udp_frame_ref, write_udp_frame, PacketError, RpcHeader, RpcKind, UdpFrameRef,
    RPC_HEADER_LEN,
};
use lauberhorn_sim::{
    AdmissionCtl, IdBuildHasher, OverloadConfig, ShedReason, SimDuration, SimTime, TenancyConfig,
};

use crate::continuation::ContinuationTable;
use crate::demux::{DemuxError, DemuxTable};
use crate::dispatch::{DispatchKind, DispatchLine};
use crate::endpoint::{
    Effect, Endpoint, EndpointId, EndpointLayout, LineRole, RequestCtx, RequestOutcome,
};
use crate::large::LargeTransferModel;
use crate::sched_mirror::SchedMirror;
use crate::tenancy::{RateLimited, TenantPipeline};

/// Most argument buffers [`ArgPool`] keeps.
const ARG_POOL_LEN: usize = 8;
/// Largest buffer, in bytes of capacity, [`ArgPool`] keeps: with
/// [`ARG_POOL_LEN`], the pool holds at most 64 KiB.
const ARG_POOL_MAX_CAP: usize = 8 << 10;

/// Queue depth at a busy user endpoint beyond which the NIC routes
/// the request to a kernel dispatcher instead, recruiting another
/// core for the service (§5.2's "dynamic scaling of the cores used
/// for RPC based on load").
const SCALE_UP_QUEUE_DEPTH: usize = 2;

/// Dispatch-form argument buffers handed back at response collection,
/// reused last-in first-out for the next requests' arguments.
#[derive(Debug, Default)]
struct ArgPool(Vec<Vec<u8>>);

impl ArgPool {
    /// An empty buffer with room for `len` bytes, reused when the pool
    /// holds one.
    fn take(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.0.pop().unwrap_or_default();
        buf.reserve_exact(len);
        buf
    }

    /// Keeps `buf` for reuse, unless the pool is full or the buffer is
    /// empty or oversized.
    fn put(&mut self, mut buf: Vec<u8>) {
        if self.0.len() < ARG_POOL_LEN && (1..=ARG_POOL_MAX_CAP).contains(&buf.capacity()) {
            buf.clear();
            self.0.push(buf);
        }
    }
}

/// Static configuration.
#[derive(Debug, Clone)]
pub struct LauberhornNicConfig {
    /// Base of the device-homed address range endpoints are carved from.
    pub device_base: u64,
    /// Cache-line size (must match the coherence domain).
    pub line_size: usize,
    /// AUX lines per endpoint.
    pub n_aux: usize,
    /// Ready-queue capacity per endpoint.
    pub endpoint_queue_cap: usize,
    /// Wire → parsed/demultiplexed latency of the hardware pipeline.
    pub pipeline_latency: SimDuration,
    /// Fixed latency of the deserialization offload.
    pub deser_fixed: SimDuration,
    /// Additional deserialization latency per 64 bytes of wire payload.
    pub deser_per_64b: SimDuration,
    /// Internal decision latency for protocol events (load handling).
    pub nic_proc: SimDuration,
    /// Transfer model for the large-message fallback.
    pub transfer: LargeTransferModel,
    /// Payload size (bytes of wire arguments) at which the DMA fallback
    /// engages. The paper's Enzian figure: ~4 KiB.
    pub dma_threshold: usize,
    /// Base host address DMA fallback buffers are allocated from.
    pub dma_buffer_base: u64,
    /// TRYAGAIN window for all endpoints (the paper: 15 ms, chosen to
    /// stay inside the coherence protocol's fatal timeout).
    pub tryagain_timeout: lauberhorn_sim::SimDuration,
    /// The NIC's own network address (source of responses).
    pub nic_addr: EndpointAddr,
}

impl LauberhornNicConfig {
    /// Lauberhorn on Enzian, as the paper prototypes it.
    pub fn enzian(nic_addr: EndpointAddr) -> Self {
        let transfer = LargeTransferModel::enzian();
        LauberhornNicConfig {
            device_base: 0x1_0000_0000,
            line_size: transfer.fabric.line_size,
            n_aux: 30, // ~4 KiB of AUX per endpoint at 128 B lines.
            endpoint_queue_cap: 64,
            pipeline_latency: SimDuration::from_ns(300),
            deser_fixed: SimDuration::from_ns(80),
            deser_per_64b: SimDuration::from_ns(10),
            nic_proc: SimDuration::from_ns(40),
            transfer,
            dma_threshold: transfer.crossover_bytes(),
            dma_buffer_base: 0x4000_0000,
            tryagain_timeout: crate::endpoint::TRYAGAIN_TIMEOUT,
            nic_addr,
        }
    }

    /// The CC-NIC configuration \[22\]: the NIC emulated by a second
    /// NUMA node over the processor interconnect.
    pub fn numa_emulated(nic_addr: EndpointAddr) -> Self {
        let transfer = LargeTransferModel::numa_emulated();
        LauberhornNicConfig {
            transfer,
            dma_threshold: transfer.crossover_bytes(),
            line_size: transfer.fabric.line_size,
            ..Self::cxl_server(nic_addr)
        }
    }

    /// A projected CXL 3.0 server implementation.
    pub fn cxl_server(nic_addr: EndpointAddr) -> Self {
        let transfer = LargeTransferModel::cxl_server();
        LauberhornNicConfig {
            device_base: 0x1_0000_0000,
            line_size: transfer.fabric.line_size,
            n_aux: 62,
            endpoint_queue_cap: 64,
            pipeline_latency: SimDuration::from_ns(250),
            deser_fixed: SimDuration::from_ns(60),
            deser_per_64b: SimDuration::from_ns(8),
            nic_proc: SimDuration::from_ns(30),
            transfer,
            dma_threshold: transfer.crossover_bytes(),
            dma_buffer_base: 0x4000_0000,
            tryagain_timeout: crate::endpoint::TRYAGAIN_TIMEOUT,
            nic_addr,
        }
    }
}

/// Why the NIC dropped a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// Frame failed header parsing or checksums.
    BadFrame,
    /// No RPC header / bad magic.
    BadRpcHeader,
    /// Service not registered.
    UnknownService(u16),
    /// Method not registered.
    UnknownMethod(u16, u16),
    /// Arguments failed the deserialization offload.
    Malformed,
    /// Every candidate queue was full.
    Overflow,
    /// A response arrived with an unknown continuation hint.
    UnknownContinuation(u32),
}

/// Timestamped instructions for the machine simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum NicAction {
    /// Answer a parked fill with this line data at `at`.
    CompleteFill {
        /// The parked fill to answer.
        token: FillToken,
        /// Line contents.
        data: Line,
        /// When the NIC issues the response.
        at: SimTime,
    },
    /// Schedule [`LauberhornNic::on_timeout`] for this endpoint.
    ArmTimeout {
        /// Endpoint whose timer is armed.
        endpoint: EndpointId,
        /// Generation to pass back.
        generation: u64,
        /// Fire time.
        at: SimTime,
    },
    /// Fetch-exclusive `line` and transmit the response it contains to
    /// `ctx.client`.
    CollectAndTransmit {
        /// Line holding the response.
        line: LineAddr,
        /// Routing context.
        ctx: RequestCtx,
        /// When the fetch begins.
        at: SimTime,
    },
    /// A request is waiting but no core is parked anywhere useful: the
    /// NIC asks the OS to preempt `core` (a user-loop poller) back into
    /// the kernel dispatch loop (§4: the NIC "requests the OS to
    /// reschedule processes in response to new packets arriving").
    RequestPreempt {
        /// Victim core (currently parked in a user-mode loop).
        core: usize,
        /// When the request is raised.
        at: SimTime,
    },
    /// Frame dropped.
    Dropped {
        /// Why.
        reason: DropReason,
        /// Request the frame carried, when the header parsed far
        /// enough to know (lets the host account the loss per-request).
        request_id: Option<u64>,
    },
    /// The tenant pipeline holds frames in service and needs
    /// [`LauberhornNic::pump_tenancy`] called at `at` to advance them.
    /// Only emitted while an enforcing tenancy plan is armed.
    PipelinePump {
        /// When the next stage service completes (or, on ingress, the
        /// arrival instant — the pipeline may be idle).
        at: SimTime,
    },
    /// A request was shed by overload control (admission, deadline,
    /// fairness, or a tenant rate limit). Accounted at the NIC; with
    /// pushback armed the sim NACKs the client, advertising `hint`.
    Shed {
        /// Why overload control rejected it.
        reason: ShedReason,
        /// Service the request targeted.
        service: u16,
        /// The shed request.
        request_id: u64,
        /// Load hint (0–255) the NACK advertises.
        hint: u8,
        /// When the shed was decided.
        at: SimTime,
    },
}

/// NIC-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LbNicStats {
    /// RPC request frames accepted.
    pub rx_requests: u64,
    /// Requests delivered straight into a parked user-mode load.
    pub fast_path: u64,
    /// Requests queued at a user endpoint.
    pub queued_user: u64,
    /// Requests handed to a parked kernel-mode dispatch loop.
    pub kernel_path: u64,
    /// Requests queued at a kernel endpoint (no core was parked).
    pub queued_kernel: u64,
    /// Large messages diverted through the DMA fallback.
    pub dma_fallbacks: u64,
    /// Frames dropped (all reasons).
    pub dropped: u64,
    /// Responses transmitted.
    pub responses_tx: u64,
    /// Nested-RPC replies dispatched via continuations.
    pub continuations_hit: u64,
    /// Requests shed by overload control (all reasons).
    pub shed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpMode {
    User,
    Kernel { core: usize },
}

/// What the watchdog's health probe sees on the CONTROL fabric: the
/// NIC's self-reported ECC status, per-endpoint lease state, and the
/// scheduler mirror's sync flag. All lists are sorted for determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicHealth {
    /// Demux entries whose ECC check fails (fail-stop lookups).
    pub corrupted_services: Vec<u16>,
    /// Endpoints whose CONTROL line engine is wedged.
    pub stuck_endpoints: Vec<EndpointId>,
    /// The scheduler mirror lost the kernel's pushes.
    pub mirror_desynced: bool,
}

impl NicHealth {
    /// No fault visible.
    pub fn healthy(&self) -> bool {
        self.corrupted_services.is_empty()
            && self.stuck_endpoints.is_empty()
            && !self.mirror_desynced
    }
}

/// Per-endpoint protocol state salvaged across a NIC reset: what the
/// kernel writes back into the reconstructed endpoint so it is
/// bisimilar to the pre-fault one (invariant I9).
#[derive(Debug, Clone, PartialEq)]
pub struct SalvagedEndpointState {
    /// The endpoint (ids are preserved across reconstruction).
    pub endpoint: EndpointId,
    /// CONTROL parity the next request will be delivered on.
    pub expect: usize,
    /// Timeout generation (keeps pre-reset timers stale).
    pub generation: u64,
    /// Uncollected response: `(control index, routing ctx)`.
    pub outstanding: Option<(usize, RequestCtx)>,
}

/// Everything the kernel's recovery handler salvages from a quiesced
/// NIC before reinitialization. The reset is *controlled*: the
/// fabric-addressable SRAM stays readable until
/// [`LauberhornNic::reset`] returns, which is what makes the orphan
/// queues and parked fill tokens recoverable at all (the same property
/// PR 2's per-process crash recovery relies on).
#[derive(Debug, Clone, PartialEq)]
pub struct NicSalvage {
    /// Parked fills, per endpoint: the kernel answers each with a
    /// RETIRE line so the stalled core returns to the dispatch loop.
    pub parked: Vec<(EndpointId, FillToken)>,
    /// Requests that were queued on-NIC: requeued to the kernel path.
    pub orphans: Vec<(DispatchLine, RequestCtx)>,
    /// Protocol state to write back at reconstruction time.
    pub protocol: Vec<SalvagedEndpointState>,
    /// Live continuations dropped by the reset (their replies miss and
    /// fall back to client retransmission).
    pub lost_continuations: usize,
}

/// The Lauberhorn NIC device model.
#[derive(Debug)]
pub struct LauberhornNic {
    cfg: LauberhornNicConfig,
    demux: DemuxTable,
    /// Endpoint `i` covers the `endpoint_span()` bytes at
    /// `endpoint_base(i)`; a restored endpoint keeps its id and base.
    endpoints: HashMap<EndpointId, Endpoint, IdBuildHasher>,
    modes: HashMap<EndpointId, EpMode, IdBuildHasher>,
    parked_core: HashMap<EndpointId, usize, IdBuildHasher>,
    /// Core → endpoint holding an uncollected response that core
    /// produced (for cross-endpoint collection, Figure 5 lifecycle).
    pending_response_by_core: HashMap<usize, EndpointId, IdBuildHasher>,
    mirror: SchedMirror,
    conts: ContinuationTable,
    kernel_eps: Vec<Option<EndpointId>>,
    next_ep: u32,
    dma_cursor: u64,
    stats: LbNicStats,
    /// Overload control, when armed ([`LauberhornNic::arm_overload`]).
    admission: Option<AdmissionCtl>,
    /// Per-tenant staged pipeline, when an *enforcing* tenancy plan is
    /// armed ([`LauberhornNic::arm_tenancy`]).
    tenancy: Option<TenantPipeline>,
    /// Effects of the endpoint transition in progress; always empty
    /// between calls, kept only to reuse its capacity.
    fx: Vec<Effect>,
    /// Argument buffers of collected requests, for reuse.
    arg_pool: ArgPool,
}

impl LauberhornNic {
    /// Creates the NIC for a machine with `num_cores` cores.
    pub fn new(cfg: LauberhornNicConfig, num_cores: usize) -> Self {
        LauberhornNic {
            dma_cursor: cfg.dma_buffer_base,
            demux: DemuxTable::new(),
            endpoints: HashMap::default(),
            modes: HashMap::default(),
            parked_core: HashMap::default(),
            pending_response_by_core: HashMap::default(),
            mirror: SchedMirror::new(num_cores),
            conts: ContinuationTable::new(4096),
            kernel_eps: vec![None; num_cores],
            next_ep: 0,
            stats: LbNicStats::default(),
            admission: None,
            tenancy: None,
            fx: Vec::new(),
            arg_pool: ArgPool::default(),
            cfg,
        }
    }

    /// Arms NIC-driven overload control: bounded queues at
    /// `overload.queue_cap`, deadline-aware shedding when
    /// `overload.deadline` is set, and (under congestion) weighted
    /// max-min fair admission across `services`. Call before creating
    /// endpoints so the queue cap applies to all of them; the deadline
    /// is retrofitted onto any that already exist.
    pub fn arm_overload(&mut self, overload: OverloadConfig, services: &[u16]) {
        self.cfg.endpoint_queue_cap = overload.queue_cap;
        for ep in self.endpoints.values_mut() {
            ep.set_deadline(overload.deadline);
            ep.set_queue_cap(overload.queue_cap);
        }
        self.admission = Some(AdmissionCtl::new(overload, services));
    }

    /// The overload controller, when armed (experiments read shed and
    /// admitted-share counters from here).
    pub fn admission(&self) -> Option<&AdmissionCtl> {
        self.admission.as_ref()
    }

    /// Arms the per-tenant staged pipeline (ISSUE 10's isolation
    /// domains). A measurement-only plan (`enforce == false`) arms
    /// nothing here — the NIC's data path stays byte-identical and the
    /// per-tenant SLO ledgers live host-side in the driver — so the
    /// unbounded baseline arm really is the untenanted NIC.
    pub fn arm_tenancy(&mut self, tenancy: TenancyConfig) {
        if !tenancy.enforce {
            return;
        }
        self.tenancy = Some(TenantPipeline::new(tenancy));
    }

    /// The tenant pipeline, when an enforcing plan is armed.
    pub fn tenancy(&self) -> Option<&TenantPipeline> {
        self.tenancy.as_ref()
    }

    /// Whether the service's delivery queues have built past half the
    /// per-endpoint cap: the fairness gate only engages under
    /// congestion, so an uncontended NIC admits everything.
    fn congested(&self, endpoints: &[EndpointId]) -> bool {
        let depth: usize = endpoints
            .iter()
            .map(|id| self.endpoints.get(id).map_or(0, |e| e.queue_depth()))
            .sum::<usize>()
            + self.kernel_queue_depth();
        depth >= (self.cfg.endpoint_queue_cap / 2).max(2)
    }

    /// Aggregate queue occupancy of the service's endpoints (plus the
    /// kernel dispatch queues) scaled to a 0–255 load hint.
    fn service_hint(&self, endpoints: &[EndpointId]) -> u8 {
        let (depth, cap) = endpoints.iter().fold((0usize, 0usize), |(d, c), id| {
            self.endpoints
                .get(id)
                .map_or((d, c), |e| (d + e.queue_depth(), c + e.queue_cap()))
        });
        lauberhorn_sim::load_hint(
            depth + self.kernel_queue_depth(),
            cap.max(self.cfg.endpoint_queue_cap),
        )
    }

    fn shed_frame(
        &mut self,
        reason: ShedReason,
        service: u16,
        request_id: u64,
        hint: u8,
        at: SimTime,
        out: &mut Vec<NicAction>,
    ) {
        // Fairness refusals are already counted inside
        // `AdmissionCtl::admit`; noting them again here would double
        // the per-service shed counters.
        if reason != ShedReason::Fairness {
            if let Some(adm) = self.admission.as_mut() {
                adm.note_shed(service, reason);
            }
        }
        self.stats.shed += 1;
        out.push(NicAction::Shed {
            reason,
            service,
            request_id,
            hint,
            at,
        });
    }

    /// The configuration.
    pub fn config(&self) -> &LauberhornNicConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> LbNicStats {
        self.stats
    }

    /// The scheduler mirror (read access for experiments).
    pub fn mirror(&self) -> &SchedMirror {
        &self.mirror
    }

    /// The continuation table.
    pub fn continuations_mut(&mut self) -> &mut ContinuationTable {
        &mut self.conts
    }

    /// The demux table (service registration).
    pub fn demux_mut(&mut self) -> &mut DemuxTable {
        &mut self.demux
    }

    /// Read access to the demux table.
    pub fn demux(&self) -> &DemuxTable {
        &self.demux
    }

    /// End of the device-homed range currently allocated.
    pub fn device_limit(&self) -> u64 {
        self.endpoint_base(EndpointId(self.next_ep))
            .max(self.cfg.device_base + 1)
    }

    /// Bytes of device address space each endpoint covers: two CONTROL
    /// lines and the AUX lines.
    fn endpoint_span(&self) -> u64 {
        ((2 + self.cfg.n_aux) * self.cfg.line_size) as u64
    }

    /// Where endpoint `id` starts: endpoints are carved from
    /// `device_base` in id order.
    fn endpoint_base(&self, id: EndpointId) -> u64 {
        self.cfg.device_base + id.0 as u64 * self.endpoint_span()
    }

    fn alloc_endpoint(&mut self, process: ProcessId, mode: EpMode) -> (EndpointId, EndpointLayout) {
        let id = EndpointId(self.next_ep);
        self.next_ep += 1;
        let layout = EndpointLayout {
            base: LineAddr::new(self.endpoint_base(id), self.cfg.line_size),
            line_size: self.cfg.line_size,
            n_aux: self.cfg.n_aux,
        };
        let mut ep = Endpoint::with_timeout(
            id,
            process,
            layout,
            self.cfg.endpoint_queue_cap,
            self.cfg.tryagain_timeout,
        );
        if let Some(adm) = &self.admission {
            ep.set_deadline(adm.config().deadline);
        }
        self.endpoints.insert(id, ep);
        self.modes.insert(id, mode);
        (id, layout)
    }

    /// Creates a user-mode endpoint for `process`.
    pub fn create_endpoint(&mut self, process: ProcessId) -> (EndpointId, EndpointLayout) {
        self.alloc_endpoint(process, EpMode::User)
    }

    /// Creates the kernel-mode endpoint for `core` (Figure 5's
    /// dispatch-loop channel).
    pub fn create_kernel_endpoint(&mut self, core: usize) -> (EndpointId, EndpointLayout) {
        let (id, layout) = self.alloc_endpoint(ProcessId(u32::MAX), EpMode::Kernel { core });
        if let Some(slot) = self.kernel_eps.get_mut(core) {
            *slot = Some(id);
        }
        (id, layout)
    }

    /// The endpoint covering `addr`, with the line's role.
    pub fn endpoint_at(&self, addr: LineAddr) -> Option<(EndpointId, LineRole)> {
        let offset = addr.0.checked_sub(self.cfg.device_base)?;
        let id = EndpointId(u32::try_from(offset.checked_div(self.endpoint_span())?).ok()?);
        let ep = self.endpoints.get(&id)?;
        ep.layout.role_of(addr).map(|r| (id, r))
    }

    /// Read access to an endpoint (tests/experiments).
    pub fn endpoint(&self, id: EndpointId) -> Option<&Endpoint> {
        self.endpoints.get(&id)
    }

    /// Sum of all endpoints' protocol statistics.
    pub fn total_endpoint_stats(&self) -> crate::endpoint::EndpointStats {
        let mut total = crate::endpoint::EndpointStats::default();
        for e in self.endpoints.values() {
            let s = e.stats();
            total.delivered_parked += s.delivered_parked;
            total.delivered_queued += s.delivered_queued;
            total.tryagains += s.tryagains;
            total.retires += s.retires;
            total.responses += s.responses;
            total.max_queue = total.max_queue.max(s.max_queue);
            total.shed_stale += s.shed_stale;
        }
        total
    }

    /// Exports dispatch, endpoint and sched-mirror counters under the
    /// `nic-lauberhorn.*` names (DESIGN.md §11).
    pub fn export_metrics(&self, reg: &mut lauberhorn_sim::MetricsRegistry) {
        let s = self.stats;
        reg.counter("nic-lauberhorn.rx.requests", s.rx_requests);
        reg.counter("nic-lauberhorn.rx.dropped", s.dropped);
        reg.counter("nic-lauberhorn.dispatch.fast_path", s.fast_path);
        reg.counter("nic-lauberhorn.dispatch.queued_user", s.queued_user);
        reg.counter("nic-lauberhorn.dispatch.kernel_path", s.kernel_path);
        reg.counter("nic-lauberhorn.dispatch.queued_kernel", s.queued_kernel);
        reg.counter("nic-lauberhorn.dispatch.dma_fallbacks", s.dma_fallbacks);
        reg.counter("nic-lauberhorn.dispatch.continuations", s.continuations_hit);
        reg.counter("nic-lauberhorn.tx.responses", s.responses_tx);
        reg.counter(
            "nic-lauberhorn.sched-mirror.updates",
            self.mirror.update_count(),
        );
        let ep = self.total_endpoint_stats();
        reg.counter(
            "nic-lauberhorn.endpoint.delivered_parked",
            ep.delivered_parked,
        );
        reg.counter(
            "nic-lauberhorn.endpoint.delivered_queued",
            ep.delivered_queued,
        );
        reg.counter("nic-lauberhorn.endpoint.tryagains", ep.tryagains);
        reg.counter("nic-lauberhorn.endpoint.retires", ep.retires);
        reg.counter("nic-lauberhorn.endpoint.responses", ep.responses);
        reg.gauge("nic-lauberhorn.endpoint.max_queue", ep.max_queue as f64);
        // Overload counters only exist when overload control is armed,
        // preserving the zero-perturbation digest of clean runs.
        if let Some(adm) = &self.admission {
            adm.export(reg, "nic-lauberhorn");
            reg.counter("nic-lauberhorn.endpoint.shed_stale", ep.shed_stale);
        }
        // Likewise the per-tenant pipeline counters: present only when
        // an enforcing tenancy plan is armed.
        if let Some(pipe) = &self.tenancy {
            pipe.export(reg, "nic-lauberhorn");
        }
    }

    /// Kernel push: `process` now runs on `core` (cost:
    /// [`crate::sched_mirror::MIRROR_PUSH_COST`], charged by the caller).
    pub fn push_running(&mut self, core: usize, process: Option<ProcessId>, now: SimTime) {
        self.mirror.set_running(core, process, now);
    }

    /// Turns the effects endpoint `id` buffered in `self.fx` into
    /// actions appended to `out`, leaving `self.fx` empty.
    fn map_effects(
        &mut self,
        id: EndpointId,
        at: SimTime,
        loading_core: Option<usize>,
        out: &mut Vec<NicAction>,
    ) {
        let mut fx = std::mem::take(&mut self.fx);
        for e in fx.drain(..) {
            match e {
                Effect::Respond { token, data } => {
                    // Answering a fill unparks whatever core was waiting.
                    let core = self.parked_core.remove(&id).or(loading_core);
                    if let Some(core) = core {
                        self.mirror.observe_unpark(core, at);
                        // An RPC (or DMA-descriptor) delivery means this
                        // core will produce a response on this endpoint;
                        // remember it for cross-endpoint collection.
                        if matches!(data.get(28), Some(1 | 4)) {
                            self.pending_response_by_core.insert(core, id);
                        }
                    }
                    out.push(NicAction::CompleteFill { token, data, at });
                }
                Effect::ArmTimeout {
                    generation,
                    deadline,
                } => out.push(NicAction::ArmTimeout {
                    endpoint: id,
                    generation,
                    at: deadline,
                }),
                Effect::CollectResponse { line, ctx, args } => {
                    self.arg_pool.put(args);
                    self.stats.responses_tx += 1;
                    if let Some(core) = loading_core {
                        self.pending_response_by_core.remove(&core);
                    }
                    out.push(NicAction::CollectAndTransmit { line, ctx, at });
                }
                Effect::ShedStale { ctx } => {
                    let hint = self.endpoints.get(&id).map_or(0, |e| {
                        lauberhorn_sim::load_hint(e.queue_depth(), e.queue_cap())
                    });
                    if let Some(adm) = self.admission.as_mut() {
                        adm.note_shed(ctx.service_id, ShedReason::Deadline);
                    }
                    self.stats.shed += 1;
                    out.push(NicAction::Shed {
                        reason: ShedReason::Deadline,
                        service: ctx.service_id,
                        request_id: ctx.request_id,
                        hint,
                        at,
                    });
                }
            }
        }
        self.fx = fx;
    }

    /// Offers a request to endpoint `id`, buffering a delivery's
    /// effects in `self.fx`. A missing endpoint refuses the request
    /// like a full one, handing it back.
    fn offer(
        &mut self,
        id: EndpointId,
        line: DispatchLine,
        ctx: RequestCtx,
        t: SimTime,
    ) -> RequestOutcome {
        match self.endpoints.get_mut(&id) {
            Some(ep) => ep.on_request(line, ctx, t, &mut self.fx),
            None => RequestOutcome::Rejected(line, ctx),
        }
    }

    /// A core's load on device line `addr` was parked with `token`.
    pub fn on_core_load(
        &mut self,
        now: SimTime,
        core: usize,
        token: FillToken,
        addr: LineAddr,
        out: &mut Vec<NicAction>,
    ) {
        let at = now + self.cfg.nic_proc;
        let Some((id, role)) = self.endpoint_at(addr) else {
            // Not an endpoint line: answer zeros (device register space).
            out.push(NicAction::CompleteFill {
                token,
                data: Line::zeroed(self.cfg.line_size),
                at,
            });
            return;
        };
        let is_kernel = matches!(self.modes.get(&id), Some(EpMode::Kernel { .. }));
        // Kernel-endpoint work stealing: a core parking on an empty
        // kernel endpoint takes the oldest request queued at any other
        // kernel endpoint, so queued work never waits for one specific
        // core to return to the dispatch loop.
        if is_kernel
            && matches!(role, LineRole::Control(_))
            && self
                .endpoints
                .get(&id)
                .is_some_and(|e| e.queue_depth() == 0)
        {
            let donor = self
                .kernel_eps
                .iter()
                .flatten()
                .filter(|d| **d != id)
                .max_by_key(|d| self.endpoints.get(d).map_or(0, |e| e.queue_depth()))
                .copied();
            if let Some(donor) = donor {
                let stolen = self
                    .endpoints
                    .get_mut(&donor)
                    .and_then(|e| e.steal_request());
                if let Some((line, ctx)) = stolen {
                    let outcome = self.offer(id, line, ctx, now);
                    debug_assert!(
                        matches!(outcome, RequestOutcome::Queued { .. }),
                        "not parked yet, so the steal queues"
                    );
                }
            }
        }
        // Cross-endpoint collection: if this core took its request on
        // the *kernel* endpoint and now parks on the process endpoint
        // (the Figure 5 lifecycle), this load is the completion signal
        // for the response it wrote there. The donor must be a kernel
        // endpoint: a handler parking on a *continuation* endpoint
        // mid-request (nested RPC, §6) has not finished its request,
        // so user-endpoint responses are only ever collected by the
        // endpoint's own other-line load.
        if let Some(prev) = self.pending_response_by_core.get(&core).copied() {
            let prev_is_kernel = matches!(self.modes.get(&prev), Some(EpMode::Kernel { .. }));
            if prev != id && prev_is_kernel {
                if let Some(pep) = self.endpoints.get_mut(&prev) {
                    if let Some((line, ctx, args)) = pep.take_outstanding() {
                        self.arg_pool.put(args);
                        self.stats.responses_tx += 1;
                        out.push(NicAction::CollectAndTransmit { line, ctx, at });
                    }
                }
                self.pending_response_by_core.remove(&core);
            }
        }
        let ep_process = match self.endpoints.get_mut(&id) {
            Some(ep) => {
                ep.on_load(role, token, now, &mut self.fx);
                Some(ep.process)
            }
            None => None,
        };
        // If the load parked (an ArmTimeout was emitted), record the
        // poller; the NIC infers user/kernel mode from the address (§4).
        let parked = self
            .fx
            .iter()
            .any(|e| matches!(e, Effect::ArmTimeout { .. }));
        if parked {
            // lint:allow(unbounded-growth): keyed by endpoint id; at most one parked core per endpoint
            self.parked_core.insert(id, core);
            self.mirror.observe_poll(core, id, is_kernel, now);
            if let (false, true, Some(process)) =
                (is_kernel, self.kernel_queue_depth() > 0, ep_process)
            {
                // A user loop just went idle while requests wait in the
                // kernel dispatch queues. If any of them target *this*
                // endpoint's process, migrate one straight into the
                // parked load (no context switch needed); otherwise,
                // load-driven rescheduling (§5.2): RETIRE the waiter so
                // the core can serve the other process — the NIC
                // "provides dynamic load information to the kernel ...
                // to reallocate cores".
                let matching = {
                    let demux = &self.demux;
                    let mut found = None;
                    for kid in self.kernel_eps.iter().flatten() {
                        let stolen = self.endpoints.get_mut(kid).and_then(|e| {
                            e.steal_where(|ctx| {
                                demux
                                    .service(ctx.service_id)
                                    .map(|s| s.process == process)
                                    .unwrap_or(false)
                            })
                        });
                        if stolen.is_some() {
                            found = stolen;
                            break;
                        }
                    }
                    found
                };
                if let Some((line, ctx)) = matching {
                    self.stats.fast_path += 1;
                    let outcome = self.offer(id, line, ctx, now);
                    debug_assert!(
                        outcome == RequestOutcome::DeliveredToParked,
                        "endpoint just parked"
                    );
                } else if let Some(ep) = self.endpoints.get_mut(&id) {
                    ep.retire(&mut self.fx);
                }
            }
        }
        self.map_effects(id, at, Some(core), out);
    }

    /// Total requests waiting in kernel dispatch queues.
    fn kernel_queue_depth(&self) -> usize {
        self.kernel_eps
            .iter()
            .flatten()
            .map(|id| self.endpoints.get(id).map_or(0, |e| e.queue_depth()))
            .sum()
    }

    /// A TRYAGAIN timer fired.
    pub fn on_timeout(
        &mut self,
        now: SimTime,
        endpoint: EndpointId,
        generation: u64,
        out: &mut Vec<NicAction>,
    ) {
        let at = now + self.cfg.nic_proc;
        if let Some(ep) = self.endpoints.get_mut(&endpoint) {
            ep.on_timeout(generation, &mut self.fx);
        }
        self.map_effects(endpoint, at, None, out);
    }

    /// Retires the waiter parked on `endpoint` (§5.2 core reallocation).
    pub fn retire_endpoint(
        &mut self,
        now: SimTime,
        endpoint: EndpointId,
        out: &mut Vec<NicAction>,
    ) {
        let at = now + self.cfg.nic_proc;
        if let Some(ep) = self.endpoints.get_mut(&endpoint) {
            ep.retire(&mut self.fx);
        }
        self.map_effects(endpoint, at, None, out);
    }

    fn deser_time(&self, wire_len: usize) -> SimDuration {
        self.cfg.deser_fixed
            + self
                .cfg
                .deser_per_64b
                .saturating_mul(wire_len.div_ceil(64) as u64)
    }

    /// Builds the response frame for `ctx` carrying `payload` into
    /// `out`, replacing its contents (a reused buffer makes this
    /// allocation-free).
    ///
    /// Fails if the payload cannot fit a UDP datagram (a handler
    /// producing > 64 KiB); callers drop the response rather than
    /// crash the NIC pipeline.
    pub fn build_response_frame(
        &self,
        ctx: &RequestCtx,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), PacketError> {
        let header = RpcHeader {
            kind: RpcKind::Response,
            service_id: ctx.service_id,
            method_id: ctx.method_id,
            request_id: ctx.request_id,
            payload_len: payload.len() as u32,
            cont_hint: ctx.cont_hint,
        };
        let mut head = [0u8; RPC_HEADER_LEN];
        header.write(&mut head)?;
        write_udp_frame(self.cfg.nic_addr, ctx.client, &[&head, payload], 0, out)
    }

    /// Aux capacity of one endpoint in argument bytes.
    fn aux_capacity(&self) -> usize {
        DispatchLine::inline_capacity(self.cfg.line_size) + self.cfg.n_aux * self.cfg.line_size
    }

    fn drop_frame(
        &mut self,
        reason: DropReason,
        request_id: Option<u64>,
        out: &mut Vec<NicAction>,
    ) {
        self.stats.dropped += 1;
        out.push(NicAction::Dropped { reason, request_id });
    }

    /// A frame arrives from the wire at `now`.
    pub fn on_request_frame(&mut self, now: SimTime, raw: &[u8], out: &mut Vec<NicAction>) {
        // Zero-copy parse: the headers are decoded in place and the RPC
        // payload is borrowed from the wire buffer until the dispatch
        // line is built.
        let Ok(frame) = parse_udp_frame_ref(raw) else {
            return self.drop_frame(DropReason::BadFrame, None, out);
        };
        self.on_parsed_frame(now, raw, &frame, out);
    }

    /// A frame arrives from the wire at `now`, already parsed and
    /// validated by the caller: `frame` borrows from `raw`.
    pub fn on_parsed_frame(
        &mut self,
        now: SimTime,
        raw: &[u8],
        frame: &UdpFrameRef<'_>,
        out: &mut Vec<NicAction>,
    ) {
        let Ok((header, wire_payload)) = RpcHeader::decode_message(frame.payload) else {
            return self.drop_frame(DropReason::BadRpcHeader, None, out);
        };
        let client = EndpointAddr {
            mac: frame.eth.src,
            ip: frame.ip.src,
            port: frame.udp.src_port,
        };
        let mut t = now + self.cfg.pipeline_latency;
        match header.kind {
            RpcKind::Request => {
                // Tenant isolation: a covered tenant's frame crosses
                // the per-tenant staged pipeline (rate limit, then DRR
                // arbitration at parse/demux/dispatch) instead of the
                // monolithic pipeline latency; dispatch happens when
                // the frame exits ([`Self::pump_tenancy`]).
                if self
                    .tenancy
                    .as_ref()
                    .is_some_and(|p| p.covers(header.service_id))
                {
                    return self.tenant_ingress(
                        now,
                        header.service_id,
                        header.request_id,
                        raw,
                        out,
                    );
                }
                self.handle_request(t, header, wire_payload, client, out);
            }
            RpcKind::Response | RpcKind::Error => {
                // A reply for a nested RPC: dispatch via continuation.
                let Ok(cont) = self.conts.resolve(header.cont_hint) else {
                    return self.drop_frame(
                        DropReason::UnknownContinuation(header.cont_hint),
                        Some(header.request_id),
                        out,
                    );
                };
                self.stats.continuations_hit += 1;
                t += self.deser_time(wire_payload.len());
                let line = DispatchLine {
                    code_ptr: 0,
                    data_ptr: 0,
                    request_id: header.request_id,
                    service_id: header.service_id,
                    method_id: header.method_id,
                    kind: DispatchKind::Rpc,
                    args: wire_payload.to_vec(),
                };
                let ctx = RequestCtx {
                    request_id: header.request_id,
                    service_id: header.service_id,
                    method_id: header.method_id,
                    client,
                    cont_hint: 0,
                };
                let id = cont.endpoint;
                match self.offer(id, line, ctx, t) {
                    RequestOutcome::DeliveredToParked => self.map_effects(id, t, None, out),
                    RequestOutcome::Queued { .. } => {}
                    RequestOutcome::Rejected(..) => {
                        self.drop_frame(DropReason::Overflow, Some(header.request_id), out)
                    }
                }
            }
        }
    }

    /// Routes a covered tenant's request frame into the staged
    /// pipeline: the token-bucket clip sits at the very front (a
    /// storming tenant is shed before occupying any queue), everything
    /// admitted joins the parse stage's per-tenant DRR queue.
    fn tenant_ingress(
        &mut self,
        now: SimTime,
        service: u16,
        request_id: u64,
        raw: &[u8],
        out: &mut Vec<NicAction>,
    ) {
        let hint = self
            .demux
            .service(service)
            .map_or(0, |svc| self.service_hint(&svc.endpoints));
        // The caller only routes covered tenants here; with no armed
        // pipeline there is nothing to admit into.
        let Some(pipe) = self.tenancy.as_mut() else {
            return;
        };
        match pipe.offer(now, service, raw.to_vec()) {
            Ok(()) => out.push(NicAction::PipelinePump { at: now }),
            Err(RateLimited) => {
                self.shed_frame(ShedReason::RateLimit, service, request_id, hint, now, out)
            }
        }
    }

    /// Advances the tenant pipeline to `now`. Frames whose dispatch
    /// stage completed go through the normal target-selection path
    /// (re-parsed from the wire bytes the ingress already validated),
    /// and a follow-up pump is requested while any stage remains in
    /// service. A no-op unless an enforcing plan is armed.
    pub fn pump_tenancy(&mut self, now: SimTime, out: &mut Vec<NicAction>) {
        let (exits, next) = match self.tenancy.as_mut() {
            Some(p) => p.pump(now),
            None => return,
        };
        for (done, _tenant, raw) in exits {
            let Ok(frame) = parse_udp_frame_ref(&raw) else {
                self.drop_frame(DropReason::BadFrame, None, out);
                continue;
            };
            let Ok((header, wire_payload)) = RpcHeader::decode_message(frame.payload) else {
                self.drop_frame(DropReason::BadRpcHeader, None, out);
                continue;
            };
            let client = EndpointAddr {
                mac: frame.eth.src,
                ip: frame.ip.src,
                port: frame.udp.src_port,
            };
            self.handle_request(done, header, wire_payload, client, out);
        }
        if let Some(at) = next {
            out.push(NicAction::PipelinePump { at });
        }
    }

    fn handle_request(
        &mut self,
        mut t: SimTime,
        header: RpcHeader,
        wire_payload: &[u8],
        client: EndpointAddr,
        out: &mut Vec<NicAction>,
    ) {
        let (sid, rid) = (header.service_id, header.request_id);
        // Demultiplexing borrows the method entry (for its signature)
        // and the service entry (for its endpoint list).
        let (method, svc) = match self.demux.method(sid, header.method_id) {
            Ok(m) => match self.demux.service(sid) {
                Ok(svc) => (m, svc),
                Err(_) => return self.drop_frame(DropReason::UnknownService(sid), Some(rid), out),
            },
            Err(DemuxError::UnknownService(s)) => {
                return self.drop_frame(DropReason::UnknownService(s), Some(rid), out)
            }
            Err(DemuxError::UnknownMethod { service, method }) => {
                return self.drop_frame(DropReason::UnknownMethod(service, method), Some(rid), out)
            }
        };
        // Deserialization offload: wire form → dispatch form (§5.1). A
        // sizing pass validates the payload first, so arguments bound
        // for the DMA fallback are never materialized and in-line ones
        // stream into one exactly-sized buffer (below).
        let Ok(arg_len) = dispatch_form_len(&method.signature, wire_payload) else {
            return self.drop_frame(DropReason::Malformed, Some(rid), out);
        };
        t += self.deser_time(wire_payload.len());
        self.stats.rx_requests += 1;
        // Weighted max-min fair admission (overload control): under
        // congestion, a service pulling more than its fair share of the
        // admission window is shed before it can occupy a queue slot.
        if self.admission.is_some() {
            let congested = self.congested(&svc.endpoints);
            let hint = self.service_hint(&svc.endpoints);
            let verdict = self
                .admission
                .as_mut()
                .map_or(Ok(()), |adm| adm.admit(sid, t, congested));
            if let Err(reason) = verdict {
                return self.shed_frame(reason, sid, rid, hint, t, out);
            }
        }
        let ctx = RequestCtx {
            request_id: rid,
            service_id: sid,
            method_id: header.method_id,
            client,
            cont_hint: header.cont_hint,
        };
        // Large-message fallback (§6): payload too big for the line
        // protocol goes through DMA and the line carries a descriptor;
        // the line is delivered once the payload write completes.
        let (kind, args) = if arg_len > self.aux_capacity() || arg_len >= self.cfg.dma_threshold {
            self.stats.dma_fallbacks += 1;
            let buffer = self.dma_cursor;
            self.dma_cursor += (arg_len as u64).div_ceil(4096) * 4096;
            t += self.cfg.transfer.dma_time(arg_len);
            let mut descriptor = self.arg_pool.take(16);
            descriptor.extend_from_slice(&buffer.to_le_bytes());
            descriptor.extend_from_slice(&(arg_len as u64).to_le_bytes());
            (DispatchKind::DmaDescriptor, descriptor)
        } else {
            let mut args = self.arg_pool.take(arg_len);
            if append_dispatch_form(&method.signature, wire_payload, &mut args).is_err() {
                // The sizing pass has already accepted these bytes.
                return self.drop_frame(DropReason::Malformed, Some(rid), out);
            }
            (DispatchKind::Rpc, args)
        };
        let line = DispatchLine {
            code_ptr: method.code_ptr,
            data_ptr: method.data_ptr,
            request_id: rid,
            service_id: sid,
            method_id: header.method_id,
            kind,
            args,
        };
        // Target selection, in the paper's preference order (§5.2):
        // 1. a core parked on a user-mode endpoint of this service;
        let parked_user = svc
            .endpoints
            .iter()
            .find(|id| self.endpoints.get(id).is_some_and(|e| e.is_parked()))
            .copied();
        if let Some(id) = parked_user {
            match self.offer(id, line, ctx, t) {
                RequestOutcome::DeliveredToParked => {
                    self.stats.fast_path += 1;
                    self.map_effects(id, t, None, out);
                }
                RequestOutcome::Queued { .. } => {
                    // A wedged line engine (stuck-line fault) holds a
                    // parked fill it cannot answer: the request queues
                    // behind it until the watchdog repairs the line.
                    self.stats.queued_user += 1;
                }
                // Only a wedged engine with a full queue refuses.
                RequestOutcome::Rejected(..) => {}
            }
            return;
        }
        // 2. the process is running (busy): queue at its least-loaded
        //    endpoint — unless the queue has built past the scale-up
        //    threshold and a kernel dispatcher is free, in which case
        //    the NIC recruits another core for the service (§5.2);
        let process = svc.process;
        let least_loaded_user = svc
            .endpoints
            .iter()
            .min_by_key(|id| {
                self.endpoints
                    .get(id)
                    .map_or(usize::MAX, |e| e.queue_depth())
            })
            .copied();
        let (line, ctx) = match least_loaded_user {
            Some(id) if self.mirror.is_running(process) => {
                let depth = self.endpoints.get(&id).map_or(0, |e| e.queue_depth());
                let scale_out =
                    depth >= SCALE_UP_QUEUE_DEPTH && self.mirror.kernel_pollers().next().is_some();
                if scale_out {
                    (line, ctx)
                } else {
                    match self.offer(id, line, ctx, t) {
                        RequestOutcome::Queued { .. } => {
                            self.stats.queued_user += 1;
                            return;
                        }
                        RequestOutcome::DeliveredToParked => {
                            // Raced with a park between the check and now.
                            self.stats.fast_path += 1;
                            return self.map_effects(id, t, None, out);
                        }
                        // Fall through to kernel delivery on overflow.
                        RequestOutcome::Rejected(line, ctx) => (line, ctx),
                    }
                }
            }
            _ => (line, ctx),
        };
        // 3–4. a core parked in the kernel-mode dispatch loop takes it,
        //    or it queues at the least-loaded kernel endpoint
        //    (`deliver_to_kernel`);
        let Err((line, ctx)) = self.deliver_to_kernel(line, ctx, t, out) else {
            return;
        };
        // 5. last resort: queue at a user endpoint of the service even
        //    if the process is not known to be running (better than
        //    dropping; the process will drain it when scheduled). Steps
        //    2–4 queued nothing at a user endpoint, so the least-loaded
        //    one is still `least_loaded_user`.
        if let Some(id) = least_loaded_user {
            match self.offer(id, line, ctx, t) {
                RequestOutcome::Queued { .. } => {
                    self.stats.queued_user += 1;
                    return;
                }
                RequestOutcome::DeliveredToParked => {
                    self.stats.fast_path += 1;
                    return self.map_effects(id, t, None, out);
                }
                RequestOutcome::Rejected(..) => {}
            }
        }
        if self.admission.is_some() {
            let hint = self
                .demux
                .service(sid)
                .map_or(0, |svc| self.service_hint(&svc.endpoints));
            return self.shed_frame(ShedReason::Capacity, sid, rid, hint, t, out);
        }
        self.drop_frame(DropReason::Overflow, Some(rid), out);
    }

    /// Steps 3–4 of the delivery preference order: a core parked in
    /// the kernel-mode dispatch loop takes the request, otherwise it
    /// queues at the least-loaded kernel endpoint (asking the OS to
    /// preempt a user poller when every core is busy, so the queue
    /// drains promptly). If no kernel endpoint takes it, the request
    /// comes back as the error.
    fn deliver_to_kernel(
        &mut self,
        line: DispatchLine,
        ctx: RequestCtx,
        t: SimTime,
        out: &mut Vec<NicAction>,
    ) -> Result<(), (DispatchLine, RequestCtx)> {
        // The mirror is the NIC's view of scheduler state and may be
        // stale; a poller that left (or an endpoint that was torn down)
        // between observations is not a crash, the request just falls
        // through to the kernel queues.
        let poller = self.mirror.kernel_pollers().next();
        let (line, ctx) = match poller {
            Some((_, kep)) => match self.offer(kep, line, ctx, t) {
                RequestOutcome::DeliveredToParked => {
                    self.stats.kernel_path += 1;
                    self.map_effects(kep, t, None, out);
                    return Ok(());
                }
                RequestOutcome::Queued { .. } => {
                    // Stale mirror: the poller had already woken, but
                    // the request is safely queued at its endpoint.
                    self.stats.queued_kernel += 1;
                    return Ok(());
                }
                RequestOutcome::Rejected(line, ctx) => (line, ctx),
            },
            None => (line, ctx),
        };
        let least_loaded = self
            .kernel_eps
            .iter()
            .flatten()
            .min_by_key(|id| {
                self.endpoints
                    .get(id)
                    .map_or(usize::MAX, |e| e.queue_depth())
            })
            .copied();
        let Some(id) = least_loaded else {
            return Err((line, ctx));
        };
        match self.offer(id, line, ctx, t) {
            RequestOutcome::Queued { .. } => {
                self.stats.queued_kernel += 1;
                if let Some(core) = self.preemption_victim() {
                    out.push(NicAction::RequestPreempt { core, at: t });
                }
                Ok(())
            }
            RequestOutcome::DeliveredToParked => {
                self.stats.kernel_path += 1;
                self.map_effects(id, t, None, out);
                Ok(())
            }
            RequestOutcome::Rejected(line, ctx) => Err((line, ctx)),
        }
    }

    /// Re-queues a request salvaged from a crashed process (or a
    /// repaired or reset NIC) onto the kernel dispatch path.
    pub fn redeliver_to_kernel(
        &mut self,
        now: SimTime,
        line: DispatchLine,
        ctx: RequestCtx,
        out: &mut Vec<NicAction>,
    ) {
        let t = now + self.cfg.nic_proc;
        let request_id = ctx.request_id;
        if self.demux.service(ctx.service_id).is_err() {
            return self.drop_frame(
                DropReason::UnknownService(ctx.service_id),
                Some(request_id),
                out,
            );
        }
        if self.deliver_to_kernel(line, ctx, t, out).is_err() {
            self.drop_frame(DropReason::Overflow, Some(request_id), out);
        }
    }

    /// Drains every request queued at `endpoint` (used when its owning
    /// process crashes: the salvaged requests are re-delivered through
    /// [`LauberhornNic::redeliver_to_kernel`]).
    pub fn drain_endpoint_queue(
        &mut self,
        endpoint: EndpointId,
    ) -> Vec<(DispatchLine, RequestCtx)> {
        let mut out = Vec::new();
        if let Some(ep) = self.endpoints.get_mut(&endpoint) {
            while let Some(pair) = ep.steal_request() {
                out.push(pair);
            }
        }
        out
    }

    /// Forgets the uncollected-response bookkeeping for `core` (its
    /// process crashed before the response could be collected).
    pub fn forget_pending_response(&mut self, core: usize) {
        self.pending_response_by_core.remove(&core);
    }

    // ---- NIC failure domain (fault injection + recovery API) ----
    //
    // The injectors model the fault classes of `sim::fault::NicFaultKind`;
    // the recovery methods are the device half of the OS health layer
    // (`lauberhorn_os::health`): the kernel probes, salvages,
    // reinitializes, and reconstructs from its shadow registry.

    /// Injects an SEU into the `nth` (deterministically chosen, sorted)
    /// demux entry; returns the corrupted service id.
    pub fn inject_table_fault(&mut self, nth: usize) -> Option<u16> {
        let ids = self.demux.service_ids();
        if ids.is_empty() {
            return None;
        }
        let sid = *ids.get(nth % ids.len())?;
        self.demux.corrupt_service(sid).then_some(sid)
    }

    /// Wedges the CONTROL line engine of the `nth` endpoint, preferring
    /// one with a core parked on it (the observable worst case).
    /// Returns the victim.
    pub fn inject_stuck_line(&mut self, nth: usize) -> Option<EndpointId> {
        let mut ids: Vec<EndpointId> = self
            .endpoints
            .iter()
            .filter(|(_, e)| e.is_parked())
            .map(|(id, _)| *id)
            .collect();
        if ids.is_empty() {
            ids = self.endpoints.keys().copied().collect();
        }
        if ids.is_empty() {
            return None;
        }
        ids.sort_unstable();
        let id = *ids.get(nth % ids.len())?;
        self.endpoints.get_mut(&id)?.set_stuck(true);
        Some(id)
    }

    /// Desyncs the scheduler mirror (an upset in the push channel).
    pub fn inject_mirror_desync(&mut self) {
        self.mirror.desync();
    }

    /// What the watchdog's lease probe sees. In hardware this is the
    /// NIC's ECC status registers plus a per-endpoint "line transitioned
    /// since last lease" epoch; here the model reports it directly.
    pub fn probe_health(&self) -> NicHealth {
        let mut stuck: Vec<EndpointId> = self
            .endpoints
            .iter()
            .filter(|(_, e)| e.is_stuck())
            .map(|(id, _)| *id)
            .collect();
        stuck.sort_unstable();
        NicHealth {
            corrupted_services: self.demux.corrupted_services(),
            stuck_endpoints: stuck,
            mirror_desynced: self.mirror.is_desynced(),
        }
    }

    /// Repairs a wedged endpoint: unsticks the line engine and drains
    /// its queue. The caller requeues the drained requests on the
    /// kernel path and then retires the (still parked) waiter so the
    /// stalled core returns to the dispatch loop.
    pub fn repair_stuck_endpoint(
        &mut self,
        endpoint: EndpointId,
    ) -> Vec<(DispatchLine, RequestCtx)> {
        if let Some(ep) = self.endpoints.get_mut(&endpoint) {
            ep.set_stuck(false);
        }
        self.drain_endpoint_queue(endpoint)
    }

    /// Declares the scheduler mirror coherent again after the kernel
    /// re-pushed ground truth via [`LauberhornNic::push_running`].
    pub fn resync_mirror(&mut self) {
        self.mirror.resync();
    }

    /// Full NIC reset: the kernel's recovery handler salvages all
    /// fabric-recoverable state, then every device table is cleared.
    ///
    /// The endpoint id allocator, which also places endpoint addresses,
    /// and the lifetime counters survive (ids and addresses are
    /// reconstructed identically from the shadow registry; counters are
    /// a metrics surface, not device state). Everything else — demux entries, endpoints, the
    /// scheduler mirror's views, continuations, parked-core
    /// bookkeeping — is gone until reconstruction.
    pub fn reset(&mut self) -> NicSalvage {
        let mut ids: Vec<EndpointId> = self.endpoints.keys().copied().collect();
        ids.sort_unstable();
        let mut salvage = NicSalvage {
            parked: Vec::new(),
            orphans: Vec::new(),
            protocol: Vec::new(),
            lost_continuations: 0,
        };
        for id in ids {
            let Some(ep) = self.endpoints.get_mut(&id) else {
                continue;
            };
            if let Some(token) = ep.take_parked() {
                salvage.parked.push((id, token));
            }
            while let Some(pair) = ep.steal_request() {
                salvage.orphans.push(pair);
            }
            let (expect, generation, outstanding) = ep.protocol_snapshot();
            salvage.protocol.push(SalvagedEndpointState {
                endpoint: id,
                expect,
                generation,
                outstanding,
            });
        }
        salvage.lost_continuations = self.conts.clear();
        self.demux = DemuxTable::new();
        self.endpoints.clear();
        self.modes.clear();
        self.parked_core.clear();
        self.pending_response_by_core.clear();
        self.mirror.clear_views();
        for slot in &mut self.kernel_eps {
            *slot = None;
        }
        salvage
    }

    /// Reconstructs one endpoint from the kernel's shadow registry:
    /// same id, same layout, same mode as before the reset. Pass
    /// `kernel_core` for the per-core kernel dispatch endpoints.
    pub fn restore_endpoint(
        &mut self,
        id: EndpointId,
        process: ProcessId,
        layout: EndpointLayout,
        kernel_core: Option<usize>,
    ) {
        debug_assert_eq!(
            layout.base.0,
            self.endpoint_base(id),
            "a restored endpoint keeps its id and base"
        );
        let mut ep = Endpoint::with_timeout(
            id,
            process,
            layout,
            self.cfg.endpoint_queue_cap,
            self.cfg.tryagain_timeout,
        );
        if let Some(adm) = &self.admission {
            ep.set_deadline(adm.config().deadline);
        }
        self.endpoints.insert(id, ep);
        let mode = match kernel_core {
            Some(core) => {
                if let Some(slot) = self.kernel_eps.get_mut(core) {
                    *slot = Some(id);
                }
                EpMode::Kernel { core }
            }
            None => EpMode::User,
        };
        self.modes.insert(id, mode);
        // The id allocator must stay ahead of every restored id so
        // future endpoints never collide.
        self.next_ep = self.next_ep.max(id.0 + 1);
    }

    /// Writes salvaged protocol state back into a reconstructed
    /// endpoint (the last step of reconstruction; invariant I9).
    pub fn restore_protocol_state(&mut self, s: SalvagedEndpointState) {
        if let Some(ep) = self.endpoints.get_mut(&s.endpoint) {
            ep.restore_protocol(s.expect, s.generation, s.outstanding);
        }
    }

    /// Picks a user-loop poller to preempt back into the kernel
    /// dispatch loop: prefer one whose endpoint has nothing queued.
    fn preemption_victim(&self) -> Option<usize> {
        if self.mirror.kernel_pollers().next().is_some() {
            return None;
        }
        let mut best: Option<(usize, usize)> = None; // (queue depth, core)
        for core in 0..self.mirror.num_cores() {
            if let crate::sched_mirror::CoreMode::PollingUser(ep) = self.mirror.core(core).mode {
                let depth = self.endpoints.get(&ep).map_or(0, |e| e.queue_depth());
                if best.is_none_or(|(d, _)| depth < d) {
                    best = Some((depth, core));
                }
            }
        }
        best.map(|(_, core)| core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lauberhorn_packet::build_udp_frame;
    use lauberhorn_packet::marshal::Codec;
    use lauberhorn_packet::marshal::{ArgType, Signature, Value, VarintCodec};

    /// Runs one NIC transition, returning the actions it appended.
    fn run(f: impl FnOnce(&mut Vec<NicAction>)) -> Vec<NicAction> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    fn nic() -> LauberhornNic {
        let mut n = LauberhornNic::new(
            LauberhornNicConfig::enzian(EndpointAddr::host(100, 9000)),
            4,
        );
        n.demux_mut().register_service(1, ProcessId(10));
        n.demux_mut()
            .register_method(1, 0xAAAA, 0xBBBB, Signature::of(&[ArgType::U64]))
            .unwrap();
        n
    }

    fn request_frame(request_id: u64, value: u64) -> Vec<u8> {
        let sig = Signature::of(&[ArgType::U64]);
        let payload = VarintCodec.encode(&sig, &[Value::U64(value)]).unwrap();
        let header = RpcHeader {
            kind: RpcKind::Request,
            service_id: 1,
            method_id: 0,
            request_id,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        let msg = header.encode_message(&payload).unwrap();
        build_udp_frame(
            EndpointAddr::host(5, 700),
            EndpointAddr::host(100, 9000),
            &msg,
            0,
        )
        .unwrap()
    }

    #[test]
    fn fast_path_delivers_into_parked_load() {
        let mut n = nic();
        let (ep, layout) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        // Core 2 parks on CONTROL[0].
        let acts = run(|o| n.on_core_load(SimTime::ZERO, 2, FillToken(1), layout.ctrl(0), o));
        assert!(matches!(acts[0], NicAction::ArmTimeout { .. }));
        // A request arrives: the fill is answered with the dispatch line,
        // and that answer is the only thing the fast path emits.
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(7, 42), o));
        assert_eq!(acts.len(), 1, "{acts:?}");
        let fill = acts
            .iter()
            .find_map(|a| match a {
                NicAction::CompleteFill { token, data, at } => Some((token, data, at)),
                _ => None,
            })
            .expect("fill answered");
        assert_eq!(*fill.0, FillToken(1));
        let line = DispatchLine::decode(&fill.1[..], &[]).unwrap();
        assert_eq!(line.code_ptr, 0xAAAA);
        assert_eq!(line.request_id, 7);
        // Args are in fixed dispatch form: little-endian u64.
        assert_eq!(u64::from_le_bytes(line.args[..8].try_into().unwrap()), 42);
        assert!(*fill.2 > SimTime::from_us(1));
        assert_eq!(n.stats().fast_path, 1);
    }

    #[test]
    fn unknown_service_dropped() {
        let mut n = nic();
        let sig = Signature::of(&[ArgType::U64]);
        let payload = VarintCodec.encode(&sig, &[Value::U64(1)]).unwrap();
        let header = RpcHeader {
            kind: RpcKind::Request,
            service_id: 99,
            method_id: 0,
            request_id: 1,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        let msg = header.encode_message(&payload).unwrap();
        let raw = build_udp_frame(
            EndpointAddr::host(5, 700),
            EndpointAddr::host(100, 9000),
            &msg,
            0,
        )
        .unwrap();
        let acts = run(|o| n.on_request_frame(SimTime::ZERO, &raw, o));
        assert_eq!(
            acts,
            vec![NicAction::Dropped {
                reason: DropReason::UnknownService(99),
                request_id: Some(1),
            }]
        );
    }

    #[test]
    fn busy_process_queues_at_endpoint() {
        let mut n = nic();
        let (ep, _layout) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        // Process is running (pushed by the kernel) but not parked.
        n.push_running(0, Some(ProcessId(10)), SimTime::ZERO);
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(1, 1), o));
        assert!(acts.is_empty(), "queued silently: {acts:?}");
        assert_eq!(n.stats().queued_user, 1);
        assert_eq!(n.endpoint(ep).unwrap().queue_depth(), 1);
    }

    #[test]
    fn not_running_goes_to_kernel_poller() {
        let mut n = nic();
        let (ep, _) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        let (_kep, klayout) = n.create_kernel_endpoint(3);
        // Core 3 parks on the kernel endpoint.
        run(|o| n.on_core_load(SimTime::ZERO, 3, FillToken(9), klayout.ctrl(0), o));
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(2, 5), o));
        assert!(acts.iter().any(|a| matches!(
            a,
            NicAction::CompleteFill {
                token: FillToken(9),
                ..
            }
        )));
        assert_eq!(n.stats().kernel_path, 1);
    }

    #[test]
    fn nothing_available_queues_at_kernel_endpoint() {
        let mut n = nic();
        let (ep, _) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        n.create_kernel_endpoint(0);
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(3, 5), o));
        assert!(acts.is_empty());
        assert_eq!(n.stats().queued_kernel, 1);
    }

    #[test]
    fn timeout_path_returns_tryagain() {
        let mut n = nic();
        let (ep, layout) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        let acts = run(|o| n.on_core_load(SimTime::ZERO, 0, FillToken(1), layout.ctrl(0), o));
        let NicAction::ArmTimeout {
            endpoint,
            generation,
            at,
        } = acts[0]
        else {
            panic!("expected arm")
        };
        assert_eq!(at, SimTime::ZERO + crate::endpoint::TRYAGAIN_TIMEOUT);
        let acts = run(|o| n.on_timeout(at, endpoint, generation, o));
        let NicAction::CompleteFill { data, .. } = &acts[0] else {
            panic!("expected fill")
        };
        assert_eq!(
            DispatchLine::decode(&data[..], &[]).unwrap().kind,
            DispatchKind::TryAgain
        );
    }

    #[test]
    fn response_collection_emits_transmit() {
        let mut n = nic();
        let (ep, layout) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        run(|o| n.on_core_load(SimTime::ZERO, 0, FillToken(1), layout.ctrl(0), o));
        run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(7, 42), o));
        // Core handled it and loads CONTROL[1].
        let acts = run(|o| n.on_core_load(SimTime::from_us(5), 0, FillToken(2), layout.ctrl(1), o));
        let collect = acts
            .iter()
            .find_map(|a| match a {
                NicAction::CollectAndTransmit { line, ctx, .. } => Some((line, ctx)),
                _ => None,
            })
            .expect("collects response");
        assert_eq!(*collect.0, layout.ctrl(0));
        assert_eq!(collect.1.request_id, 7);
        assert_eq!(n.stats().responses_tx, 1);
    }

    #[test]
    fn large_payload_takes_dma_fallback() {
        let mut n = nic();
        let (ep, layout) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        n.demux_mut()
            .register_method(1, 0xCCCC, 0xDDDD, Signature::of(&[ArgType::Bytes]))
            .unwrap();
        run(|o| n.on_core_load(SimTime::ZERO, 0, FillToken(1), layout.ctrl(0), o));
        // Build a request with a payload beyond the DMA threshold.
        let big = vec![0xEE; n.config().dma_threshold + 1000];
        let sig = Signature::of(&[ArgType::Bytes]);
        let payload = VarintCodec.encode(&sig, &[Value::Bytes(big)]).unwrap();
        let header = RpcHeader {
            kind: RpcKind::Request,
            service_id: 1,
            method_id: 1,
            request_id: 11,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        let msg = header.encode_message(&payload).unwrap();
        let raw = build_udp_frame(
            EndpointAddr::host(5, 700),
            EndpointAddr::host(100, 9000),
            &msg,
            0,
        )
        .unwrap();
        let arrival = SimTime::from_us(1);
        let acts = run(|o| n.on_request_frame(arrival, &raw, o));
        let fill = acts
            .iter()
            .find_map(|a| match a {
                NicAction::CompleteFill { data, at, .. } => Some((data, at)),
                _ => None,
            })
            .expect("dispatch line still delivered");
        let line = DispatchLine::decode(&fill.0[..], &[]).unwrap();
        assert_eq!(line.kind, DispatchKind::DmaDescriptor);
        let buf = u64::from_le_bytes(line.args[0..8].try_into().unwrap());
        let len = u64::from_le_bytes(line.args[8..16].try_into().unwrap()) as usize;
        // The first fallback buffer, holding the whole payload.
        assert_eq!(buf, n.config().dma_buffer_base);
        assert!(len > n.config().dma_threshold, "len {len}");
        // The line is delivered only after the DMA completes.
        assert!(*fill.1 >= arrival + n.config().transfer.dma_time(len));
        assert_eq!(n.stats().dma_fallbacks, 1);
    }

    #[test]
    fn continuation_reply_dispatches_to_client_endpoint() {
        let mut n = nic();
        let (cep, clayout) = n.create_endpoint(ProcessId(10));
        let hint = n
            .continuations_mut()
            .create(cep, ProcessId(10), true)
            .unwrap();
        // Client parks on its continuation endpoint.
        run(|o| n.on_core_load(SimTime::ZERO, 1, FillToken(4), clayout.ctrl(0), o));
        // A response frame arrives with the hint.
        let header = RpcHeader {
            kind: RpcKind::Response,
            service_id: 1,
            method_id: 0,
            request_id: 77,
            payload_len: 4,
            cont_hint: hint,
        };
        let msg = header.encode_message(b"okay").unwrap();
        let raw = build_udp_frame(
            EndpointAddr::host(5, 700),
            EndpointAddr::host(100, 9000),
            &msg,
            0,
        )
        .unwrap();
        let acts = run(|o| n.on_request_frame(SimTime::from_us(2), &raw, o));
        let NicAction::CompleteFill { data, .. } = &acts[0] else {
            panic!("expected fill, got {acts:?}")
        };
        let line = DispatchLine::decode(&data[..], &[]).unwrap();
        assert_eq!(line.request_id, 77);
        assert_eq!(line.args, b"okay");
        assert_eq!(n.stats().continuations_hit, 1);
        // One-shot: a second reply with the same hint is dropped.
        let acts = run(|o| n.on_request_frame(SimTime::from_us(3), &raw, o));
        assert!(matches!(
            acts[0],
            NicAction::Dropped {
                reason: DropReason::UnknownContinuation(_),
                ..
            }
        ));
    }

    #[test]
    fn response_frame_round_trips() {
        let n = nic();
        let ctx = RequestCtx {
            request_id: 9,
            service_id: 1,
            method_id: 0,
            client: EndpointAddr::host(5, 700),
            cont_hint: 3,
        };
        let mut raw = vec![0xEE; 7];
        n.build_response_frame(&ctx, b"result", &mut raw).unwrap();
        let frame = parse_udp_frame_ref(&raw).unwrap();
        let (h, payload) = RpcHeader::decode_message(frame.payload).unwrap();
        assert_eq!(h.kind, RpcKind::Response);
        assert_eq!(h.request_id, 9);
        assert_eq!(h.cont_hint, 3);
        assert_eq!(payload, b"result");
        assert_eq!(frame.udp.dst_port, 700);
    }

    #[test]
    fn endpoint_at_resolves_addresses() {
        let mut n = nic();
        let (ep0, l0) = n.create_endpoint(ProcessId(10));
        let (ep1, l1) = n.create_endpoint(ProcessId(11));
        assert_eq!(n.endpoint_at(l0.ctrl(0)), Some((ep0, LineRole::Control(0))));
        assert_eq!(n.endpoint_at(l1.ctrl(1)), Some((ep1, LineRole::Control(1))));
        assert_eq!(n.endpoint_at(l1.aux(0)), Some((ep1, LineRole::Aux(0))));
        assert_eq!(n.endpoint_at(LineAddr(0x9_0000_0000)), None);
        // Below the device range, and the first line past the last
        // endpoint.
        let base = n.config().device_base;
        let line = n.config().line_size as u64;
        assert_eq!(n.endpoint_at(LineAddr(base - line)), None);
        let past = l1.aux(l1.n_aux - 1).0 + line;
        assert_eq!(past, n.device_limit());
        assert_eq!(n.endpoint_at(LineAddr(past)), None);
        // After a reset only restored endpoints resolve again.
        n.reset();
        n.restore_endpoint(ep1, ProcessId(11), l1, None);
        assert_eq!(n.endpoint_at(l0.ctrl(0)), None);
        assert_eq!(n.endpoint_at(l1.ctrl(0)), Some((ep1, LineRole::Control(0))));
    }

    #[test]
    fn kernel_endpoints_steal_queued_work() {
        let mut n = nic();
        let (_k0, _l0) = n.create_kernel_endpoint(0);
        let (_k1, l1) = n.create_kernel_endpoint(1);
        // Two requests queue while no core is parked; both land on the
        // least-loaded kernel endpoints (one each).
        run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(1, 10), o));
        run(|o| n.on_request_frame(SimTime::from_us(2), &request_frame(2, 20), o));
        assert_eq!(n.stats().queued_kernel, 2);
        // Core 1 parks on ITS endpoint: it serves its own queued
        // request first...
        let acts = run(|o| n.on_core_load(SimTime::from_us(3), 1, FillToken(1), l1.ctrl(0), o));
        assert!(acts
            .iter()
            .any(|a| matches!(a, NicAction::CompleteFill { .. })));
        // ...and when it parks again, steals core 0's queued request
        // rather than leaving it stranded.
        let acts = run(|o| n.on_core_load(SimTime::from_us(4), 1, FillToken(2), l1.ctrl(1), o));
        let fill = acts.iter().find_map(|a| match a {
            NicAction::CompleteFill { data, .. } => Some(data),
            _ => None,
        });
        let line = DispatchLine::decode(fill.expect("stolen request delivered"), &[]).unwrap();
        assert!(line.request_id == 1 || line.request_id == 2);
    }

    #[test]
    fn preemption_requested_when_all_cores_hoard_user_loops() {
        let mut n = nic();
        n.create_kernel_endpoint(0);
        n.create_kernel_endpoint(1);
        // Both cores park in user loops of service 1.
        let (ep0, l0) = n.create_endpoint(ProcessId(10));
        let (ep1, l1) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep0).unwrap();
        n.demux_mut().add_endpoint(1, ep1).unwrap();
        run(|o| n.on_core_load(SimTime::ZERO, 0, FillToken(1), l0.ctrl(0), o));
        run(|o| n.on_core_load(SimTime::ZERO, 1, FillToken(2), l1.ctrl(0), o));
        // A request for an *unknown-process* service: register service 2
        // with no endpoints; it must queue at a kernel endpoint and ask
        // the OS to preempt one of the user pollers.
        n.demux_mut().register_service(2, ProcessId(20));
        n.demux_mut()
            .register_method(2, 0x2222, 0x3333, Signature::of(&[ArgType::U64]))
            .unwrap();
        let sig = Signature::of(&[ArgType::U64]);
        let payload = VarintCodec.encode(&sig, &[Value::U64(1)]).unwrap();
        let header = RpcHeader {
            kind: RpcKind::Request,
            service_id: 2,
            method_id: 0,
            request_id: 9,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        let msg = header.encode_message(&payload).unwrap();
        let raw = build_udp_frame(
            EndpointAddr::host(5, 700),
            EndpointAddr::host(100, 9000),
            &msg,
            0,
        )
        .unwrap();
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &raw, o));
        assert!(
            acts.iter()
                .any(|a| matches!(a, NicAction::RequestPreempt { .. })),
            "no preemption requested: {acts:?}"
        );
        assert_eq!(n.stats().queued_kernel, 1);
    }

    #[test]
    fn no_preemption_request_when_a_kernel_poller_exists() {
        let mut n = nic();
        let (_k0, kl0) = n.create_kernel_endpoint(0);
        // Core 0 parks in the kernel loop; the request is delivered
        // there directly — no preemption needed.
        run(|o| n.on_core_load(SimTime::ZERO, 0, FillToken(1), kl0.ctrl(0), o));
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(7, 7), o));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, NicAction::RequestPreempt { .. })));
        assert!(acts.iter().any(|a| matches!(
            a,
            NicAction::CompleteFill {
                token: FillToken(1),
                ..
            }
        )));
        assert_eq!(n.stats().kernel_path, 1);
    }

    #[test]
    fn overload_armed_sheds_at_capacity_with_hint() {
        let mut n = nic();
        n.arm_overload(OverloadConfig::drop_tail(2), &[1]);
        let (ep, _) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        // No parked core, no kernel endpoints: requests land in the
        // last-resort user queue, whose cap arm_overload set to 2.
        run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(1, 1), o));
        run(|o| n.on_request_frame(SimTime::from_us(2), &request_frame(2, 2), o));
        assert_eq!(n.endpoint(ep).unwrap().queue_depth(), 2);
        let acts = run(|o| n.on_request_frame(SimTime::from_us(3), &request_frame(3, 3), o));
        match &acts[0] {
            NicAction::Shed {
                reason: ShedReason::Capacity,
                request_id: 3,
                hint,
                ..
            } => assert_eq!(*hint, 255, "full queue advertises a full-scale hint"),
            other => panic!("expected a capacity shed, got {other:?}"),
        }
        assert_eq!(n.stats().shed, 1);
        assert_eq!(n.admission().unwrap().shed_total(), 1);
        // The queue never exceeded its cap.
        assert_eq!(n.endpoint(ep).unwrap().queue_depth(), 2);
    }

    #[test]
    fn malformed_args_dropped_by_deserializer() {
        let mut n = nic();
        let (ep, layout) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        run(|o| n.on_core_load(SimTime::ZERO, 0, FillToken(1), layout.ctrl(0), o));
        // Garbage payload that is not a valid varint encoding.
        let header = RpcHeader {
            kind: RpcKind::Request,
            service_id: 1,
            method_id: 0,
            request_id: 1,
            payload_len: 3,
            cont_hint: 0,
        };
        let msg = header.encode_message(&[0xff, 0xff, 0xff]).unwrap();
        let raw = build_udp_frame(
            EndpointAddr::host(5, 700),
            EndpointAddr::host(100, 9000),
            &msg,
            0,
        )
        .unwrap();
        let acts = run(|o| n.on_request_frame(SimTime::ZERO, &raw, o));
        assert_eq!(
            acts,
            vec![NicAction::Dropped {
                reason: DropReason::Malformed,
                request_id: Some(1),
            }]
        );
    }

    fn frame_for_service(service_id: u16, request_id: u64, value: u64) -> Vec<u8> {
        let sig = Signature::of(&[ArgType::U64]);
        let payload = VarintCodec.encode(&sig, &[Value::U64(value)]).unwrap();
        let header = RpcHeader {
            kind: RpcKind::Request,
            service_id,
            method_id: 0,
            request_id,
            payload_len: payload.len() as u32,
            cont_hint: 0,
        };
        let msg = header.encode_message(&payload).unwrap();
        build_udp_frame(
            EndpointAddr::host(5, 700),
            EndpointAddr::host(100, 9000),
            &msg,
            0,
        )
        .unwrap()
    }

    #[test]
    fn reset_salvages_state_and_reconstruction_is_bisimilar() {
        let mut n = nic();
        n.demux_mut().register_service(2, ProcessId(20));
        n.demux_mut()
            .register_method(2, 0x2222, 0x3333, Signature::of(&[ArgType::U64]))
            .unwrap();
        let (e1, l1) = n.create_endpoint(ProcessId(10));
        let (e2, l2) = n.create_endpoint(ProcessId(10));
        let (k0, lk0) = n.create_kernel_endpoint(0);
        n.demux_mut().add_endpoint(1, e1).unwrap();
        n.demux_mut().add_endpoint(1, e2).unwrap();
        n.continuations_mut()
            .create(e1, ProcessId(10), true)
            .unwrap();
        // Core 2 parks on e1, core 3 on e2.
        run(|o| n.on_core_load(SimTime::ZERO, 2, FillToken(21), l1.ctrl(0), o));
        run(|o| n.on_core_load(SimTime::ZERO, 3, FillToken(31), l2.ctrl(0), o));
        // Request 7 delivers into e1's parked fill: its response is now
        // outstanding on CONTROL[0]. Request 9 (service 2, nobody home)
        // queues at the kernel endpoint.
        run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(7, 42), o));
        run(|o| n.on_request_frame(SimTime::from_us(2), &frame_for_service(2, 9, 5), o));
        assert_eq!(n.stats().queued_kernel, 1);

        let salvage = n.reset();
        // Fabric-recoverable state came out before the tables cleared.
        assert_eq!(salvage.parked, vec![(e2, FillToken(31))]);
        assert_eq!(salvage.orphans.len(), 1);
        assert_eq!(salvage.orphans[0].1.request_id, 9);
        assert_eq!(salvage.lost_continuations, 1);
        let e1_state = salvage
            .protocol
            .iter()
            .find(|s| s.endpoint == e1)
            .expect("e1 snapshot");
        assert_eq!(e1_state.expect, 1);
        assert_eq!(
            e1_state
                .outstanding
                .as_ref()
                .map(|(l, c)| (*l, c.request_id)),
            Some((0, 7))
        );
        // The blank NIC knows nothing: requests fail-stop, addresses
        // no longer resolve.
        let acts = run(|o| n.on_request_frame(SimTime::from_us(3), &request_frame(8, 1), o));
        assert!(matches!(
            acts[0],
            NicAction::Dropped {
                reason: DropReason::UnknownService(1),
                ..
            }
        ));
        assert_eq!(n.endpoint_at(l1.ctrl(0)), None);

        // Reconstruction from the (simulated) shadow registry: same
        // ids, same layouts, same bindings, then protocol write-back.
        n.demux_mut().register_service(1, ProcessId(10));
        n.demux_mut()
            .register_method(1, 0xAAAA, 0xBBBB, Signature::of(&[ArgType::U64]))
            .unwrap();
        n.demux_mut().register_service(2, ProcessId(20));
        n.demux_mut()
            .register_method(2, 0x2222, 0x3333, Signature::of(&[ArgType::U64]))
            .unwrap();
        n.restore_endpoint(e1, ProcessId(10), l1, None);
        n.restore_endpoint(e2, ProcessId(10), l2, None);
        n.restore_endpoint(k0, ProcessId(u32::MAX), lk0, Some(0));
        n.demux_mut().add_endpoint(1, e1).unwrap();
        n.demux_mut().add_endpoint(1, e2).unwrap();
        for s in salvage.protocol.clone() {
            n.restore_protocol_state(s);
        }
        assert_eq!(n.endpoint_at(l2.ctrl(0)), Some((e2, LineRole::Control(0))));
        // I9 at unit level: the handler finishes and loads CONTROL[1];
        // the reconstructed endpoint collects the pre-fault request's
        // response exactly as the un-reset NIC would have.
        let acts = run(|o| n.on_core_load(SimTime::from_us(10), 2, FillToken(22), l1.ctrl(1), o));
        let collect = acts
            .iter()
            .find_map(|a| match a {
                NicAction::CollectAndTransmit { line, ctx, .. } => Some((line, ctx)),
                _ => None,
            })
            .expect("pre-fault response collected after reconstruction");
        assert_eq!(*collect.0, l1.ctrl(0));
        assert_eq!(collect.1.request_id, 7);
        // Salvaged orphans requeue on the kernel path (PR 2's crash
        // recovery, generalized to the whole NIC).
        run(|o| n.on_core_load(SimTime::from_us(11), 0, FillToken(40), lk0.ctrl(0), o));
        let (line, ctx) = salvage.orphans.into_iter().next().unwrap();
        let acts = run(|o| n.redeliver_to_kernel(SimTime::from_us(12), line, ctx, o));
        assert!(acts.iter().any(|a| matches!(
            a,
            NicAction::CompleteFill {
                token: FillToken(40),
                ..
            }
        )));
        assert_eq!(n.stats().kernel_path, 1);
        // New endpoints never collide with restored ids.
        let (e_new, _) = n.create_endpoint(ProcessId(30));
        assert!(e_new.0 > k0.0);
    }

    #[test]
    fn stuck_line_black_holes_until_repaired() {
        let mut n = nic();
        let (ep, layout) = n.create_endpoint(ProcessId(10));
        n.demux_mut().add_endpoint(1, ep).unwrap();
        let acts = run(|o| n.on_core_load(SimTime::ZERO, 1, FillToken(5), layout.ctrl(0), o));
        let NicAction::ArmTimeout { generation, at, .. } = acts[0] else {
            panic!("expected arm");
        };
        // The injector prefers the endpoint with a core parked on it.
        assert_eq!(n.inject_stuck_line(0), Some(ep));
        let health = n.probe_health();
        assert!(!health.healthy());
        assert_eq!(health.stuck_endpoints, vec![ep]);
        // A request queues behind the wedged fill instead of delivering.
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(5, 1), o));
        assert!(acts.is_empty(), "black hole: {acts:?}");
        assert_eq!(n.stats().queued_user, 1);
        assert_eq!(n.stats().fast_path, 0);
        // Even the TRYAGAIN timer is swallowed: the line never
        // transitions, which is exactly what the lease watchdog detects.
        assert!(run(|o| n.on_timeout(at, ep, generation, o)).is_empty());
        // Repair: unstick, drain the blocked queue for kernel-path
        // requeue, then retire the stalled waiter.
        let drained = n.repair_stuck_endpoint(ep);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1.request_id, 5);
        let acts = run(|o| n.retire_endpoint(SimTime::from_us(2), ep, o));
        let NicAction::CompleteFill { token, data, .. } = &acts[0] else {
            panic!("expected retire fill, got {acts:?}");
        };
        assert_eq!(*token, FillToken(5));
        assert_eq!(
            DispatchLine::decode(&data[..], &[]).unwrap().kind,
            DispatchKind::Retire
        );
        assert!(n.probe_health().healthy());
    }

    #[test]
    fn table_fault_is_fail_stop_until_reprogrammed() {
        let mut n = nic();
        let (_k0, lk0) = n.create_kernel_endpoint(0);
        run(|o| n.on_core_load(SimTime::ZERO, 0, FillToken(1), lk0.ctrl(0), o));
        // nth wraps over the (single) registered service.
        assert_eq!(n.inject_table_fault(3), Some(1));
        assert_eq!(n.probe_health().corrupted_services, vec![1]);
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(1, 1), o));
        assert!(matches!(
            acts[0],
            NicAction::Dropped {
                reason: DropReason::UnknownService(1),
                ..
            }
        ));
        // The kernel reprograms the entry from its shadow registry;
        // dispatch resumes.
        n.demux_mut().register_service(1, ProcessId(10));
        n.demux_mut()
            .register_method(1, 0xAAAA, 0xBBBB, Signature::of(&[ArgType::U64]))
            .unwrap();
        assert!(n.probe_health().healthy());
        let acts = run(|o| n.on_request_frame(SimTime::from_us(2), &request_frame(2, 2), o));
        assert!(acts.iter().any(|a| matches!(
            a,
            NicAction::CompleteFill {
                token: FillToken(1),
                ..
            }
        )));
        assert_eq!(n.stats().kernel_path, 1);
    }

    #[test]
    fn mirror_desync_reads_idle_until_resync() {
        let mut n = nic();
        n.push_running(0, Some(ProcessId(10)), SimTime::ZERO);
        n.inject_mirror_desync();
        assert!(n.probe_health().mirror_desynced);
        assert!(!n.mirror().is_running(ProcessId(10)));
        // Kernel repair: re-push ground truth, then declare coherence.
        n.push_running(0, Some(ProcessId(10)), SimTime::from_us(1));
        n.resync_mirror();
        assert!(n.probe_health().healthy());
        assert!(n.mirror().is_running(ProcessId(10)));
    }

    #[test]
    fn stale_kernel_poller_mirror_falls_through_to_queue() {
        let mut n = nic();
        let (kep, _) = n.create_kernel_endpoint(0);
        // The mirror believes core 0 is parked in the dispatch loop,
        // but the endpoint holds no fill (the poller left between
        // observations). Delivery must fall through to the queue, not
        // crash or drop.
        n.mirror.observe_poll(0, kep, true, SimTime::ZERO);
        let acts = run(|o| n.on_request_frame(SimTime::from_us(1), &request_frame(4, 4), o));
        assert!(acts.is_empty(), "no fill to answer: {acts:?}");
        assert_eq!(n.stats().kernel_path, 0);
        assert_eq!(n.stats().queued_kernel, 1);
        assert_eq!(n.endpoint(kep).unwrap().queue_depth(), 1);
    }

    #[test]
    fn out_of_range_core_degrades_without_panic() {
        let mut n = nic(); // 4 cores: valid ids are 0..4.
        n.push_running(99, Some(ProcessId(10)), SimTime::ZERO);
        assert!(!n.mirror().is_running(ProcessId(10)));
        // A kernel endpoint for a core beyond the mirror: it allocates,
        // parks and answers fills, but is invisible to dispatch (no
        // kernel_eps slot, no mirror view) rather than corrupting state.
        let (_k7, lk7) = n.create_kernel_endpoint(7);
        let acts = run(|o| n.on_core_load(SimTime::from_us(1), 7, FillToken(1), lk7.ctrl(0), o));
        assert!(matches!(acts[0], NicAction::ArmTimeout { .. }));
        assert_eq!(n.mirror().kernel_pollers().next(), None);
        let acts = run(|o| n.on_request_frame(SimTime::from_us(2), &request_frame(6, 6), o));
        assert_eq!(
            acts,
            vec![NicAction::Dropped {
                reason: DropReason::Overflow,
                request_id: Some(6),
            }]
        );
    }
}
