//! The [`ServerStack`] abstraction: one interface over all three
//! whole-machine simulations, plus the centralized machine catalogue.
//!
//! Before this module existed each `sim_*.rs` carried its own copy of
//! the client model, the open/closed-loop generator, warmup handling
//! and metrics finalisation. Now a stack only implements the
//! *server-side mechanics* (what happens to a frame once it reaches
//! the NIC) and the generic driver in [`crate::driver`] does the rest,
//! so every stack is measured by exactly the same harness over exactly
//! the same request byte stream.

use std::collections::BTreeMap;
use std::ops::Range;

use lauberhorn_os::CostModel;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::{PktBuf, UdpFrameRef};
use lauberhorn_sim::energy::CycleAccount;
use lauberhorn_sim::fault::{FaultDecision, FaultInjector};
use lauberhorn_sim::{
    EventQueue, IdBuildHasher, SimDuration, SimRng, SimTime, SpanId, SpanTracer, Stage,
};

use crate::driver::ClientEv;
use crate::report::MetricsCollector;
use crate::spec::{ServiceSpec, WorkloadSpec};
use crate::wire::{RequestTimes, WireModel};

/// Nominal on-wire size of a replayed response frame (Eth/IPv4/UDP
/// around a small RPC response); only used when the dedup window
/// answers a duplicate from its cache, so it never affects clean runs.
const REPLAY_FRAME_BYTES: usize = 110;

/// Nominal on-wire size of a pushback NACK (a minimum Ethernet frame
/// carrying the request id and the one-byte load hint). Only sent when
/// the workload armed overload control with pushback.
const NACK_FRAME_BYTES: usize = 64;

/// Server-side at-most-once state of one request id: one byte per
/// id in [`StackCommon`]'s dedup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DedupState {
    /// Never admitted, or released so a retransmit may run.
    Unseen,
    /// Accepted for execution; the response has not yet left.
    Executing,
    /// Executed and answered; duplicates replay the cached response.
    Done,
}

/// Everything the simulator keeps about one request between its
/// generation and its answer: the driver creates it at `Gen` and
/// removes it at `Response` or on any abandon; stacks reach it only
/// through [`StackCommon`]'s methods.
#[derive(Debug)]
pub(crate) struct InFlight {
    /// Client, NIC and handler timestamps.
    pub(crate) times: RequestTimes,
    /// Stack software overhead charged to the request.
    pub(crate) sw_cycles: u64,
    /// Which closed-loop client issued it.
    pub(crate) client: usize,
    /// Target service, which is also the tenant.
    pub(crate) service: u16,
    /// The exact frame, kept for retransmission while a
    /// [`RetryPolicy`](crate::RetryPolicy) is in force.
    pub(crate) retransmit: Option<PktBuf>,
    /// Root (`Stage::Request`) span, set at first arrival while tracing
    /// (`Some(SpanId::NONE)` if the tracer was full) and taken when the
    /// response leaves.
    root_span: Option<SpanId>,
    /// Open wait-class span (recovery / retry-wait / shed-backoff), so
    /// the critical path shows *why* a request stalled.
    wait_span: SpanId,
    /// When the request's last wait-class stall resolved (`ZERO`: none
    /// did). Spans that backdate to NIC arrival (e.g. CONTROL fill)
    /// clamp to this, so stalled time stays attributed to the wait,
    /// not the fill.
    wait_resolved: SimTime,
}

impl InFlight {
    /// A request the client sent at `sent`.
    pub(crate) fn new(
        sent: SimTime,
        client: usize,
        service: u16,
        retransmit: Option<PktBuf>,
    ) -> Self {
        InFlight {
            times: RequestTimes {
                sent,
                ..Default::default()
            },
            sw_cycles: 0,
            client,
            service,
            retransmit,
            root_span: None,
            wait_span: SpanId::NONE,
            wait_resolved: SimTime::ZERO,
        }
    }

    /// Closes the open wait span, if any, and notes when the stall
    /// resolved.
    fn end_wait(&mut self, tracer: &mut SpanTracer, now: SimTime) {
        let id = std::mem::replace(&mut self.wait_span, SpanId::NONE);
        if id.is_some() {
            tracer.end(id, now);
            self.wait_resolved = self.wait_resolved.max(now);
        }
    }
}

/// What the server should do with an arriving request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxGate {
    /// First sighting: execute it.
    Execute,
    /// Duplicate (suppressed or replayed from cache): do not execute.
    Duplicate,
}

/// Base UDP port: in the DMA stacks, service `s` listens on
/// `BASE_PORT + s`.
pub const BASE_PORT: u16 = 10_000;

/// Display track (Chrome-trace `tid`) of the NIC lane in span traces;
/// cores use their index directly (0, 1, …).
pub const NIC_TRACK: u32 = 900;

/// Root (`Stage::Request`) spans cycle over this many display lanes
/// starting at [`ROOT_TRACK_BASE`], so overlapping requests stay
/// readable in a timeline viewer.
pub const ROOT_TRACKS: u64 = 8;
/// First display lane used for root spans.
pub const ROOT_TRACK_BASE: u32 = 1000;

/// Every concrete machine an experiment can run on, in one place.
///
/// The paper compares the same software architectures across hardware
/// substrates; centralizing the catalogue keeps "which machine is
/// this?" decisions out of the individual simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// Enzian with the Lauberhorn NIC on the ECI coherent fabric
    /// (2 GHz ARMv8, 128 B lines) — the paper's prototype.
    EnzianEci,
    /// Enzian's FPGA exposed as a conventional PCIe DMA NIC.
    EnzianPcie,
    /// A modern x86 PC server with a Gen4 PCIe DMA NIC.
    PcPcie,
    /// A projected CXL 3.0 x86 server carrying the Lauberhorn NIC.
    CxlProjected,
    /// A NUMA-emulated coherent NIC (the CC-NIC configuration \[22\]):
    /// a second socket's home agent stands in for the device, over the
    /// processor interconnect. No special hardware required.
    NumaEmulated,
}

impl Machine {
    /// The OS/software cost model for this machine's cores.
    pub fn cost_model(self) -> CostModel {
        match self {
            Machine::EnzianEci | Machine::EnzianPcie => CostModel::enzian(),
            Machine::PcPcie | Machine::CxlProjected | Machine::NumaEmulated => {
                CostModel::linux_server()
            }
        }
    }

    /// Short machine label used in stack names.
    pub fn label(self) -> &'static str {
        match self {
            Machine::EnzianEci => "enzian-eci",
            Machine::EnzianPcie => "enzian-pcie-dma",
            Machine::PcPcie => "pc-pcie-dma",
            Machine::CxlProjected => "cxl-server",
            Machine::NumaEmulated => "numa-emulated",
        }
    }

    /// Whether the machine exposes a coherent (Lauberhorn-capable)
    /// fabric, as opposed to a plain PCIe DMA path.
    pub fn is_coherent(self) -> bool {
        matches!(
            self,
            Machine::EnzianEci | Machine::CxlProjected | Machine::NumaEmulated
        )
    }
}

/// The machine-level configuration every stack shares: which hardware
/// and how many cores.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// The hardware substrate.
    pub machine: Machine,
    /// Cores available for RPC serving.
    pub cores: usize,
}

impl MachineConfig {
    /// `cores` serving cores of `machine`.
    pub fn new(machine: Machine, cores: usize) -> Self {
        MachineConfig { machine, cores }
    }
}

/// Driver-visible state every stack owns: metrics, per-request
/// bookkeeping, the server-side RNG, and the client-side event queue
/// the generic driver drains.
///
/// Stacks report a request's milestones here from their event handlers
/// (frame arrived, handler started or ended, a stage ran, response
/// left, request dropped) and never touch its timestamps or root span
/// themselves; the driver owns generation, warmup and finalisation.
/// The milestone methods run on every request from other modules, so
/// they are `#[inline]`: without it they stay out-of-line calls across
/// codegen units, which measurably slowed the stacks.
pub struct StackCommon {
    /// Network model between client and server: the same-rack
    /// 100 Gb/s link.
    pub wire: WireModel,
    /// Server-side randomness (handler service times). The *client*
    /// stream lives in the driver so that every stack sees an
    /// identical request byte stream for a given seed.
    pub rng: SimRng,
    /// Accumulating run metrics.
    pub metrics: MetricsCollector,
    /// One record per in-flight request, by request id.
    // lint:allow(unordered-collection): looked up by request id and never iterated
    pub(crate) in_flight: std::collections::HashMap<u64, InFlight, IdBuildHasher>,
    /// Load generation stops here.
    pub end_of_load: SimTime,
    /// Absolute simulation cutoff (`end_of_load` + drain window).
    pub hard_end: SimTime,
    /// Client-side events (generation ticks, response arrivals),
    /// interleaved with the stack's own queue by the driver.
    pub(crate) client_q: EventQueue<ClientEv>,
    /// Whether a retransmission policy is in force. When true, stack
    /// drops hand the request back to the client's retry timer instead
    /// of terminating it.
    retry_active: bool,
    /// Whether overload sheds answer the client with a NACK carrying a
    /// load hint (armed by the workload's `OverloadConfig::pushback`).
    pushback: bool,
    /// At-most-once dedup window, present when duplicates are possible
    /// (faults or retry enabled). `None` on clean runs: zero cost.
    /// Indexed by request id — the driver's dense `0..offered` counter —
    /// and kept apart from [`InFlight`] because it must outlive the
    /// client's record to answer late duplicates.
    dedup: Option<Vec<DedupState>>,
    /// Server→client response fault injector (`"fault.wire.rx"`).
    rx_fault: Option<FaultInjector>,
    /// Coherence fill-response fault injector (`"fault.fill"`), applied
    /// by the Lauberhorn stack to NIC→core fill deliveries.
    pub(crate) fill_fault: Option<FaultInjector>,
    /// Span tracer (inert unless the workload's [`ObserveSpec`] enables
    /// it). Spans never touch the event queue, the RNG, or simulated
    /// time, so enabling them cannot perturb a run.
    ///
    /// [`ObserveSpec`]: lauberhorn_sim::ObserveSpec
    pub tracer: SpanTracer,
    /// Target service per request, recorded only while tracing so the
    /// blame profile gets its per-service dimension. Never read by any
    /// simulation path.
    pub service_of: BTreeMap<u64, u16>,
}

impl Default for StackCommon {
    fn default() -> Self {
        StackCommon {
            wire: WireModel::same_rack_100g(),
            rng: SimRng::root(0),
            metrics: MetricsCollector::default(),
            in_flight: Default::default(),
            end_of_load: SimTime::ZERO,
            hard_end: SimTime::ZERO,
            client_q: EventQueue::new(),
            retry_active: false,
            pushback: false,
            dedup: None,
            rx_fault: None,
            fill_fault: None,
            tracer: SpanTracer::default(),
            service_of: BTreeMap::new(),
        }
    }
}

impl StackCommon {
    /// Resets per-run state. Called by the driver before `prepare`.
    pub fn begin(&mut self, workload: &WorkloadSpec) {
        self.rng = SimRng::stream(workload.seed, "server");
        self.metrics = MetricsCollector::default();
        self.in_flight.clear();
        self.end_of_load = SimTime::ZERO + workload.duration;
        self.hard_end = self.end_of_load + SimDuration::from_ms(20);
        self.client_q = EventQueue::new();
        self.retry_active = workload.effective_retry().is_some();
        self.pushback = workload.overload.as_ref().is_some_and(|o| o.pushback);
        self.dedup = (self.retry_active || workload.faults.enabled()).then(Vec::new);
        self.rx_fault =
            workload.faults.wire_rx.enabled().then(|| {
                FaultInjector::new(workload.faults.wire_rx, workload.seed, "fault.wire.rx")
            });
        self.fill_fault = workload
            .faults
            .fill
            .enabled()
            .then(|| FaultInjector::new(workload.faults.fill, workload.seed, "fault.fill"));
        self.tracer.configure(&workload.observe);
        self.service_of.clear();
    }

    /// Whether a retransmission policy is in force this run.
    pub fn retry_active(&self) -> bool {
        self.retry_active
    }

    /// `request_id`'s frame `raw` reached the server NIC at `now`: notes
    /// the arrival, then checks the real IPv4/UDP checksums. `None`
    /// means the frame was corrupt or truncated; it has been counted
    /// and the request dropped.
    #[inline]
    pub fn receive_frame<'a>(
        &mut self,
        raw: &'a [u8],
        request_id: u64,
        now: SimTime,
    ) -> Option<UdpFrameRef<'a>> {
        self.note_arrival(request_id, now);
        match lauberhorn_packet::parse_udp_frame_ref(raw) {
            Ok(frame) => Some(frame),
            Err(_) => {
                self.reject_corrupt(request_id, now);
                None
            }
        }
    }

    /// Records that `request_id`'s frame reached the server NIC. Under
    /// retransmission only the first arrival counts, so a duplicate
    /// arriving mid-execution, or a frame replayed from a backlog,
    /// cannot corrupt the latency accounting.
    #[inline]
    fn note_arrival(&mut self, request_id: u64, now: SimTime) {
        let Some(r) = self.in_flight.get_mut(&request_id) else {
            return;
        };
        if r.times.nic_arrival == SimTime::ZERO {
            r.times.nic_arrival = now;
            if self.tracer.is_enabled() {
                r.root_span = Some(self.tracer.begin(
                    now,
                    Stage::Request,
                    Some(request_id),
                    SpanId::NONE,
                    ROOT_TRACK_BASE + (request_id % ROOT_TRACKS) as u32,
                ));
            }
        }
    }

    /// The open root span for `request_id` ([`SpanId::NONE`] when
    /// tracing is off or the request has no root) — the parent for
    /// every stage span recorded about this request.
    #[inline]
    fn root_span(&self, request_id: u64) -> SpanId {
        self.in_flight
            .get(&request_id)
            .and_then(|r| r.root_span)
            .unwrap_or(SpanId::NONE)
    }

    /// Attributes `cycles` of stack software overhead to `request_id`.
    #[inline]
    pub fn charge_req(&mut self, request_id: u64, cycles: u64) {
        if let Some(r) = self.in_flight.get_mut(&request_id) {
            r.sw_cycles += cycles;
        }
    }

    /// `request_id` spent `[start, end)` in `stage` on display `lane`:
    /// records the span under the request's root. Free while tracing is
    /// off.
    #[inline]
    pub fn stage_span(
        &mut self,
        stage: Stage,
        request_id: u64,
        lane: u32,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let root = self.root_span(request_id);
        self.tracer
            .span(stage, Some(request_id), root, lane, start, end);
    }

    /// Splits one charged window of `request_id` on `lane` into
    /// back-to-back stage spans: each `(stage, cycles)` part in order,
    /// then `rest` up to `window.end`. Boundaries re-derive the
    /// breakdown from the same `cost` model values the single charge
    /// used, and clamp to `window.end`, so per-term rounding can never
    /// push a span past the charged window. Free while tracing is off.
    #[inline]
    pub fn split_spans(
        &mut self,
        request_id: u64,
        lane: u32,
        window: Range<SimTime>,
        cost: &CostModel,
        parts: &[(Stage, u64)],
        rest: Stage,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let root = self.root_span(request_id);
        let mut t = window.start;
        for &(stage, cycles) in parts {
            let end = (t + cost.cycles(cycles)).min(window.end);
            self.tracer
                .span(stage, Some(request_id), root, lane, t, end);
            t = end;
        }
        self.tracer
            .span(rest, Some(request_id), root, lane, t, window.end);
    }

    /// `request_id`'s handler starts at `at`.
    #[inline]
    pub fn start_handler(&mut self, request_id: u64, at: SimTime) {
        if let Some(r) = self.in_flight.get_mut(&request_id) {
            r.times.handler_start = at;
        }
    }

    /// `request_id`'s handler on `lane` ended at `now`: stamps the end
    /// and records the `Handler` span from the handler's start. A
    /// request no longer in flight gets a zero-length span at `now`,
    /// with no parent.
    #[inline]
    pub fn end_handler(&mut self, request_id: u64, lane: u32, now: SimTime) {
        let (root, start) = match self.in_flight.get_mut(&request_id) {
            Some(r) => {
                r.times.handler_end = now;
                (r.root_span.unwrap_or(SpanId::NONE), r.times.handler_start)
            }
            None => (SpanId::NONE, now),
        };
        if self.tracer.is_enabled() {
            self.tracer
                .span(Stage::Handler, Some(request_id), root, lane, start, now);
        }
    }

    /// Opens a wait-class span (recovery, retry-wait, shed-backoff)
    /// under `request_id`'s root. No-op when tracing is off, the
    /// request has no root yet, or a wait span is already open — the
    /// first cause of a stall wins.
    pub fn begin_wait(&mut self, request_id: u64, stage: Stage, now: SimTime) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Some(r) = self.in_flight.get_mut(&request_id) else {
            return;
        };
        let root = r.root_span.unwrap_or(SpanId::NONE);
        if r.wait_span.is_some() || !root.is_some() {
            return;
        }
        r.wait_span = self.tracer.begin(
            now,
            stage,
            Some(request_id),
            root,
            ROOT_TRACK_BASE + (request_id % ROOT_TRACKS) as u32,
        );
    }

    /// The earliest honest start for a stage span that backdates to a
    /// request's NIC arrival (e.g. the CONTROL-line fill): a stall
    /// that resolved later pushes the start forward — the device was
    /// not working on the request while it was paused.
    pub fn arrival_span_start(&self, request_id: u64) -> SimTime {
        self.in_flight
            .get(&request_id)
            .map_or(SimTime::ZERO, |r| r.times.nic_arrival.max(r.wait_resolved))
    }

    /// Admission check for an arriving (checksum-valid) request frame.
    ///
    /// Call after the stack validated the frame and before executing
    /// it. First sighting registers the id in the dedup window;
    /// duplicates are suppressed (in-flight original) or answered by
    /// replaying the cached completion (already done) — either way the
    /// caller must not execute. Without faults/retry this is one
    /// `Option` check.
    pub fn rx_gate(&mut self, request_id: u64, now: SimTime) -> RxGate {
        // A frame for this id reached the gate again: whatever stall
        // the open wait span was timing is over (a retransmit arrived,
        // the backlog replayed). Wait spans exist only while tracing.
        if self.tracer.is_enabled() {
            if let Some(r) = self.in_flight.get_mut(&request_id) {
                r.end_wait(&mut self.tracer, now);
            }
        }
        let Some(window) = self.dedup.as_mut() else {
            return RxGate::Execute;
        };
        // Frame ids are the driver's dense `0..offered` counter, so the
        // table grows by one slot per request.
        let i = request_id as usize;
        if window.len() <= i {
            window.resize(i + 1, DedupState::Unseen);
        }
        let Some(state) = window.get_mut(i) else {
            return RxGate::Execute;
        };
        match *state {
            DedupState::Unseen => {
                *state = DedupState::Executing;
                return RxGate::Execute;
            }
            DedupState::Executing => self.metrics.faults.dedup_dropped += 1,
            DedupState::Done => {
                self.metrics.faults.dedup_replayed += 1;
                let arrive = now + self.wire.deliver(REPLAY_FRAME_BYTES);
                self.deliver_response(arrive, request_id);
            }
        }
        RxGate::Duplicate
    }

    /// Releases `request_id` from the dedup window if it is still
    /// executing: it never answered, so a retransmit must be allowed
    /// to run.
    fn dedup_release(&mut self, request_id: u64) {
        if let Some(s @ DedupState::Executing) = self.dedup_state(request_id) {
            *s = DedupState::Unseen;
        }
    }

    /// `request_id`'s dedup state, if a window is armed and covers it.
    fn dedup_state(&mut self, request_id: u64) -> Option<&mut DedupState> {
        self.dedup.as_mut()?.get_mut(request_id as usize)
    }

    /// `request_id`'s `frame_len`-byte response left the server NIC at
    /// `tx_done`: stamps it and schedules its delivery to the client,
    /// which closes the request's root span on arrival. The driver
    /// does the warmup/metrics/closed-loop bookkeeping.
    #[inline]
    pub fn respond(&mut self, request_id: u64, tx_done: SimTime, frame_len: usize) {
        let arrive = tx_done + self.wire.deliver(frame_len);
        if let Some(r) = self.in_flight.get_mut(&request_id) {
            r.times.response_tx = tx_done;
            if let Some(root) = r.root_span.take() {
                r.end_wait(&mut self.tracer, arrive);
                self.tracer.end(root, arrive);
            }
        }
        // Every execution passed `rx_gate`, so the table covers the id.
        if let Some(state) = self.dedup_state(request_id) {
            // `Done` → `Done` means the handler ran twice: the
            // at-most-once guarantee was violated. The counter is the
            // proof the FAULT experiment checks.
            if std::mem::replace(state, DedupState::Done) == DedupState::Done {
                self.metrics.faults.dup_executions += 1;
            }
        }
        self.deliver_response(arrive, request_id);
    }

    /// Schedules the response delivery, subject to response-leg wire
    /// faults. A corrupted response is counted lost: the client NIC's
    /// checksum rejects it.
    fn deliver_response(&mut self, arrive: SimTime, request_id: u64) {
        let Some(inj) = self.rx_fault.as_mut() else {
            self.client_q
                .schedule(arrive, ClientEv::Response { request_id });
            return;
        };
        match inj.decide_frame(REPLAY_FRAME_BYTES, 0) {
            FaultDecision::Deliver => {
                self.client_q
                    .schedule(arrive, ClientEv::Response { request_id });
            }
            FaultDecision::Drop => {
                self.metrics.faults.wire_rx_lost += 1;
            }
            FaultDecision::Corrupt { .. } => {
                self.metrics.faults.corrupted += 1;
                self.metrics.faults.wire_rx_lost += 1;
            }
            FaultDecision::Duplicate { gap } => {
                self.client_q
                    .schedule(arrive, ClientEv::Response { request_id });
                self.client_q
                    .schedule(arrive + gap, ClientEv::Response { request_id });
            }
            FaultDecision::Delay { extra } => {
                self.client_q
                    .schedule(arrive + extra, ClientEv::Response { request_id });
            }
        }
    }

    /// `request_id` was dropped somewhere in the stack (no descriptor,
    /// queue overflow, lost frame…) at `at`. Without retransmission
    /// this is terminal; with it, the request's fate belongs to the
    /// client's retry timer — the wait is timed as a retry-wait span —
    /// and the id is released from the dedup window so a retransmit
    /// can execute.
    pub fn drop_request(&mut self, request_id: u64, at: SimTime) {
        if self.retry_active {
            self.begin_wait(request_id, Stage::RetryWait, at);
            self.dedup_release(request_id);
            return;
        }
        self.abandon_request(request_id, at);
    }

    /// `request_id` was refused by overload control (queue full, past
    /// deadline, over fair share). With pushback armed the client gets
    /// a NACK carrying the NIC's load `hint` and terminates the
    /// request itself (feeding its AIMD pacer); without, the shed
    /// behaves like any other stack drop — the retry timer (if any)
    /// decides the request's fate.
    ///
    /// Either way the id leaves the dedup window: the shed happened
    /// before execution, so a later retransmit must be allowed to run.
    pub fn shed_request(&mut self, request_id: u64, hint: u8, now: SimTime) {
        if !self.pushback {
            // The retry timer (if armed) owns the wait; time it as
            // shed-backoff rather than a generic retry-wait.
            if self.retry_active {
                self.begin_wait(request_id, Stage::Backoff, now);
            }
            self.drop_request(request_id, now);
            return;
        }
        self.dedup_release(request_id);
        let arrive = now + self.wire.deliver(NACK_FRAME_BYTES);
        if self.tracer.is_enabled() {
            // The NACK flight is the whole backoff the request pays
            // here: the client terminates it on receipt.
            let root = self.root_span(request_id);
            if root.is_some() {
                self.tracer.span(
                    Stage::Backoff,
                    Some(request_id),
                    root,
                    ROOT_TRACK_BASE + (request_id % ROOT_TRACKS) as u32,
                    now,
                    arrive,
                );
            }
        }
        self.client_q
            .schedule(arrive, ClientEv::Pushback { request_id, hint });
    }

    /// A corrupted or truncated frame failed validation at the server
    /// at `at`: count it and (without retry) terminate the request.
    fn reject_corrupt(&mut self, request_id: u64, at: SimTime) {
        self.metrics.faults.checksum_dropped += 1;
        self.drop_request(request_id, at);
    }

    /// Terminally abandons `request_id` at `at`: counted dropped, its
    /// record removed and returned, spans closed at the moment the
    /// request's fate was sealed. The driver calls this when it gives
    /// up on a request; stacks reach it through
    /// [`StackCommon::drop_request`].
    pub(crate) fn abandon_request(&mut self, request_id: u64, at: SimTime) -> Option<InFlight> {
        self.metrics.dropped += 1;
        let mut r = self.in_flight.remove(&request_id)?;
        // The wait span is a leaf: closing it at the abandonment is
        // always containment-safe.
        r.end_wait(&mut self.tracer, at);
        // The root span (if any) stays open; the driver's end-of-run
        // `tracer.finish` closes it as truncated — a child (a handler
        // whose response was lost) may still be executing past `at`.
        Some(r)
    }

    /// Releases `request_id` from the dedup window (crash recovery:
    /// the execution was lost, a retransmit must be allowed to run).
    pub fn dedup_forget(&mut self, request_id: u64) {
        if let Some(s) = self.dedup_state(request_id) {
            *s = DedupState::Unseen;
        }
    }
}

/// A whole-machine server simulation the generic driver can run.
///
/// Implementations provide the server-side mechanics; the driver in
/// [`crate::driver`] provides the client model, load generation,
/// warmup, metrics collection and report emission, identically for
/// every stack.
pub trait ServerStack {
    /// Builds this stack on `machine` with its default stack-specific
    /// knobs, serving `services`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` cannot carry this stack (e.g. the kernel
    /// stack on [`Machine::EnzianEci`], which has no DMA NIC).
    fn build(machine: MachineConfig, services: Vec<ServiceSpec>) -> Self
    where
        Self: Sized;

    /// The stack's display name, e.g. `"kernel/pc-pcie-dma"`.
    fn name(&self) -> &'static str;

    /// Where clients address requests for `service`.
    fn server_addr(&self, service: u16) -> EndpointAddr;

    /// The shared driver-visible state.
    fn common(&mut self) -> &mut StackCommon;

    /// One-time per-run setup (park cores, arm epoch timers, …).
    /// Called after [`StackCommon::begin`] and before the event loop.
    fn prepare(&mut self, workload: &WorkloadSpec);

    /// The time of the stack's earliest pending internal event.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Processes exactly one internal event (the one `next_event_time`
    /// reported).
    fn step(&mut self, workload: &WorkloadSpec);

    /// Schedules a client request frame to reach the NIC at `at`.
    /// The [`PktBuf`] is shared, not copied: the driver's retransmit
    /// buffer and any fault-duplicated deliveries alias the same bytes.
    fn inject_frame(&mut self, at: SimTime, raw: PktBuf, request_id: u64);

    /// Finalises the run at `end`: returns the aggregate core-time
    /// account and the fabric/bus message count for the report.
    fn finish(&mut self, end: SimTime) -> (CycleAccount, u64);
}

#[cfg(test)]
mod tests {
    use lauberhorn_sim::{ObserveSpec, SpanRecord};
    use lauberhorn_workload::SizeDist;

    use super::*;
    use crate::RetryPolicy;

    fn echo_workload() -> WorkloadSpec {
        WorkloadSpec::open_poisson(1000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 1, 7)
    }

    /// Common state for a run observed through `observe`, with request
    /// `id` in flight and its frame at the NIC at `arrival`, which
    /// opens its root span while tracing.
    fn with_request(observe: ObserveSpec, id: u64, arrival: SimTime) -> StackCommon {
        let mut c = StackCommon::default();
        c.begin(&echo_workload().with_observe(observe));
        c.in_flight
            .insert(id, InFlight::new(SimTime::ZERO, 0, 0, None));
        c.note_arrival(id, arrival);
        c
    }

    /// `(stage, start, end)` of every span after the root, checking
    /// that each belongs to `id` and hangs off the root.
    fn children(spans: &[SpanRecord], id: u64) -> Vec<(Stage, SimTime, Option<SimTime>)> {
        let (root, rest) = spans.split_first().expect("a root span");
        assert_eq!(root.stage, Stage::Request);
        rest.iter()
            .map(|s| {
                assert_eq!(s.parent, root.id, "{:?} is not under the root", s.stage);
                assert_eq!(s.request_id, Some(id));
                (s.stage, s.start, s.end)
            })
            .collect()
    }

    /// The at-most-once byte table through every transition the
    /// stacks drive: execute, suppress, replay, forget, re-execute,
    /// and the double-completion alarm.
    #[test]
    fn dedup_table_walks_the_at_most_once_state_machine() {
        let wl = echo_workload().with_retry(RetryPolicy::same_rack());
        let mut c = StackCommon::default();
        c.begin(&wl);
        let t = SimTime::from_us(1);
        let id = 5;

        assert_eq!(c.rx_gate(id, t), RxGate::Execute);
        assert_eq!(c.rx_gate(id, t), RxGate::Duplicate);
        assert_eq!(c.metrics.faults.dedup_dropped, 1);

        c.respond(id, t, 0);
        assert_eq!(c.rx_gate(id, t), RxGate::Duplicate);
        assert_eq!(c.metrics.faults.dedup_replayed, 1);

        c.dedup_forget(id);
        assert_eq!(c.rx_gate(id, t), RxGate::Execute);
        c.respond(id, t, 0);
        assert_eq!(c.metrics.faults.dup_executions, 0);
        c.respond(id, t, 0);
        assert_eq!(c.metrics.faults.dup_executions, 1);

        // Lower ids the table grew over are untouched.
        assert_eq!(c.rx_gate(0, t), RxGate::Execute);
    }

    /// Each part of a charged window becomes one span, back to back,
    /// and `rest` runs to the window's end, all under the root.
    #[test]
    fn split_spans_chains_the_parts_under_the_root() {
        let id = 3;
        let mut c = with_request(ObserveSpec::full(), id, SimTime::from_us(1));
        let cost = CostModel::linux_server();
        let start = SimTime::from_us(2);
        let end = start + cost.cycles(1000);
        let parts = [(Stage::Poll, 100), (Stage::Protocol, 300)];
        c.split_spans(id, 0, start..end, &cost, &parts, Stage::Unmarshal);

        let poll_end = start + cost.cycles(100);
        let protocol_end = poll_end + cost.cycles(300);
        assert_eq!(
            children(c.tracer.spans(), id),
            [
                (Stage::Poll, start, Some(poll_end)),
                (Stage::Protocol, poll_end, Some(protocol_end)),
                (Stage::Unmarshal, protocol_end, Some(end)),
            ]
        );
    }

    /// A part that runs past the window's end is cut there; the parts
    /// after it and `rest` are zero-length at the end.
    #[test]
    fn split_spans_clamps_to_the_window_end() {
        let id = 4;
        let mut c = with_request(ObserveSpec::full(), id, SimTime::from_us(1));
        let cost = CostModel::linux_server();
        let start = SimTime::from_us(2);
        let end = start + cost.cycles(1000);
        let parts = [
            (Stage::Syscall, 100),
            (Stage::Copy, 5000),
            (Stage::ContextSwitch, 50),
        ];
        c.split_spans(id, 1, start..end, &cost, &parts, Stage::Unmarshal);

        let syscall_end = start + cost.cycles(100);
        assert_eq!(
            children(c.tracer.spans(), id),
            [
                (Stage::Syscall, start, Some(syscall_end)),
                (Stage::Copy, syscall_end, Some(end)),
                (Stage::ContextSwitch, end, Some(end)),
                (Stage::Unmarshal, end, Some(end)),
            ]
        );
    }

    #[test]
    fn split_spans_records_nothing_while_tracing_is_off() {
        let id = 6;
        let mut c = with_request(ObserveSpec::none(), id, SimTime::from_us(1));
        let cost = CostModel::linux_server();
        let start = SimTime::from_us(2);
        let end = start + cost.cycles(1000);
        c.split_spans(
            id,
            0,
            start..end,
            &cost,
            &[(Stage::Poll, 100)],
            Stage::Unmarshal,
        );
        assert!(c.tracer.spans().is_empty());
    }

    /// The response leaves at `tx_done`, reaches the client one wire
    /// flight later, and the root span closes on that arrival.
    #[test]
    fn respond_stamps_schedules_and_closes_the_root() {
        let id = 9;
        let mut c = with_request(ObserveSpec::full(), id, SimTime::from_us(1));
        let tx_done = SimTime::from_us(5);
        c.respond(id, tx_done, 110);

        let arrive = tx_done + c.wire.deliver(110);
        assert_eq!(
            c.in_flight.get(&id).map(|r| r.times.response_tx),
            Some(tx_done)
        );
        match c.client_q.pop() {
            Some((at, ClientEv::Response { request_id })) => {
                assert_eq!((at, request_id), (arrive, id));
            }
            other => panic!("expected the client response, got {other:?}"),
        }
        let root = c.tracer.spans().first().expect("a root span");
        assert_eq!(root.stage, Stage::Request);
        assert_eq!(root.end, Some(arrive));
    }
}
