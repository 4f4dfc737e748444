//! The Lauberhorn machine simulation.
//!
//! Composes the coherent fabric ([`lauberhorn_coherence`]), the
//! Lauberhorn NIC device model ([`lauberhorn_nic`]) and the OS cost
//! model into one event-driven server, implementing the full Figure 5
//! core lifecycle:
//!
//! * cores configured as *kernel dispatchers* park on kernel-mode
//!   CONTROL lines; the NIC can dispatch a request for any process
//!   there, paying one software context switch;
//! * after serving a kernel-delivered request the core *stays* in that
//!   process and parks on the process's dedicated CONTROL lines, where
//!   subsequent requests dispatch with essentially zero software cost;
//! * a core whose user loop sees `yield_after` consecutive TRYAGAINs
//!   returns to the kernel dispatch loop (releasing the service's
//!   residency), and RETIRE does the same on kernel demand.
//!
//! Every request is a real frame: built by the client model, parsed and
//! checksummed by the NIC, transformed by the deserialization offload,
//! and delivered as real bytes through the coherence protocol.

use std::collections::{BTreeMap, BTreeSet};

use lauberhorn_coherence::{CacheId, CoherentSystem, FabricModel, Line, LineAddr, LoadResult};
use lauberhorn_nic::demux::DemuxError;
use lauberhorn_nic::dispatch::DispatchKind;
use lauberhorn_nic::endpoint::{EndpointId, EndpointLayout};
use lauberhorn_nic::nic::{DropReason, NicHealth, NicSalvage};
use lauberhorn_nic::sched_mirror::MIRROR_PUSH_COST;
use lauberhorn_nic::{LauberhornNic, LauberhornNicConfig, NicAction};
use lauberhorn_os::health::{ShadowRegistry, Watchdog};
use lauberhorn_os::{CostModel, ProcessId};
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::PktBuf;
use lauberhorn_sim::energy::{CoreState, CycleAccount, EnergyMeter};
use lauberhorn_sim::fault::{FaultDecision, NicFaultKind, NicFaultSpec};
use lauberhorn_sim::{EventQueue, SimDuration, SimRng, SimTime, SpanId, Stage};

use crate::report::Report;
use crate::spec::{Behavior, ServiceSpec, WorkloadSpec};
use crate::stack::{MachineConfig, ServerStack, StackCommon, NIC_TRACK};
use crate::wire::WireModel;

// The machine catalogue lives in the centralized `stack` module;
// re-exported here for the historical import path.
pub use crate::stack::Machine;

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct LauberhornSimConfig {
    /// Machine model ([`Machine::EnzianEci`], [`Machine::CxlProjected`]
    /// or [`Machine::NumaEmulated`]).
    pub machine: Machine,
    /// Cores participating in RPC serving; each starts parked in the
    /// kernel dispatch loop.
    pub cores: usize,
    /// Consecutive TRYAGAINs before a user loop yields its core back
    /// to the kernel dispatch loop.
    pub yield_after: u32,
    /// Overrides the 15 ms TRYAGAIN window (ablation `abl_tryagain`).
    pub tryagain_timeout: Option<lauberhorn_sim::SimDuration>,
    /// Network model.
    pub wire: WireModel,
}

impl LauberhornSimConfig {
    /// The paper's prototype machine.
    pub fn enzian(cores: usize) -> Self {
        LauberhornSimConfig {
            machine: Machine::EnzianEci,
            cores,
            yield_after: 1,
            tryagain_timeout: None,
            wire: WireModel::same_rack_100g(),
        }
    }

    /// The projected CXL server.
    pub fn cxl_server(cores: usize) -> Self {
        LauberhornSimConfig {
            machine: Machine::CxlProjected,
            ..Self::enzian(cores)
        }
    }

    /// The CC-NIC-style NUMA emulation.
    pub fn numa_emulated(cores: usize) -> Self {
        LauberhornSimConfig {
            machine: Machine::NumaEmulated,
            ..Self::enzian(cores)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopMode {
    Kernel,
    User { service: u16 },
}

#[derive(Debug)]
struct CoreCtx {
    mode: LoopMode,
    kernel_ep: (EndpointId, EndpointLayout),
    user_ep: Option<(u16, EndpointId, EndpointLayout)>,
    tryagain_streak: u32,
    /// The line the current request was delivered on (response target).
    resp_addr: Option<LineAddr>,
    /// The request whose handler is currently running on this core.
    cur_req: Option<u64>,
}

#[derive(Debug)]
enum Ev {
    /// A request frame reaches the server NIC. The buffer is shared
    /// with the driver's retransmit copy (zero-copy delivery).
    FrameAtNic { raw: PktBuf, request_id: u64 },
    /// The NIC answers a parked fill (deferred CompleteFill action)
    /// with the line in slot `line` of `LauberhornSim::lines`.
    DoCompleteFill {
        token: lauberhorn_coherence::FillToken,
        line: u32,
    },
    /// A fill response (slot `line`) lands at the core.
    FillAtCore {
        core: usize,
        addr: LineAddr,
        line: u32,
    },
    /// The NIC observes a core's load (request message arrived).
    NicSeesLoad {
        core: usize,
        token: lauberhorn_coherence::FillToken,
        addr: LineAddr,
    },
    /// A TRYAGAIN timer fires.
    Timeout { ep: EndpointId, generation: u64 },
    /// The handler on `core` finishes.
    HandlerDone { core: usize, request_id: u64 },
    /// The NIC begins collecting a response line, for the request in
    /// slot `ctx` of `LauberhornSim::ctxs`.
    DoCollect { line: LineAddr, ctx: u32 },
    /// A core finishes transition code and issues its next load.
    IssueLoad { core: usize },
    /// The NIC asked the OS to pull `core` back to the dispatch loop.
    Preempt { core: usize },
    /// Fault injection: the process backing `service` crashes. If no
    /// core is currently serving it, the crash re-arms a few times so
    /// it lands mid-request under load.
    Crash { service: u16, tries: u32 },
    /// Fault injection: the armed NIC-internal fault strikes.
    NicFault,
    /// The health watchdog's lease probe fires.
    Heartbeat,
    /// Reconstruction from the shadow registry completes.
    NicRestored,
    /// A frame backlogged during a NIC reset replays into the
    /// reconstructed NIC.
    ReplayFrame { raw: PktBuf, request_id: u64 },
    /// The tenant pipeline has stage services due: advance it. Only
    /// scheduled while an enforcing tenancy plan is armed.
    PipelinePump,
}

/// Payloads of queued events that would make [`Ev`] large (a 129-byte
/// line, a 32-byte request context): the event carries a `u32` slot
/// instead. Freed slots are reused, so a slab stops growing at the
/// most payloads ever in flight at once.
#[derive(Debug)]
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T: Copy> Slab<T> {
    fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `item`, returning its slot.
    fn put(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                // lint:allow(unchecked-index): free slots were handed out by `put`
                self.items[slot as usize] = item;
                slot
            }
            None => {
                self.items.push(item);
                (self.items.len() - 1) as u32
            }
        }
    }

    /// The item in `slot`.
    fn get(&self, slot: u32) -> &T {
        // lint:allow(unchecked-index): slots come from `put` and are live until freed
        &self.items[slot as usize]
    }

    /// Releases `slot` for reuse.
    fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Copies the item out of `slot` and releases the slot.
    fn take(&mut self, slot: u32) -> T {
        let item = *self.get(slot);
        self.free(slot);
        item
    }
}

/// Counters for the NIC failure-domain machinery, exported as
/// `nic.recovery.*` only when a fault was armed (zero-perturbation:
/// clean runs carry none of these registry entries).
#[derive(Debug, Default, Clone, Copy)]
struct RecoveryCounters {
    injected: u64,
    backlogged: u64,
    replayed: u64,
    requeued_kernel: u64,
    retired_fills: u64,
    lost_continuations: u64,
}

/// The composed Lauberhorn server simulation.
pub struct LauberhornSim {
    cfg: LauberhornSimConfig,
    cost: CostModel,
    services: Vec<ServiceSpec>,
    coh: CoherentSystem,
    nic: LauberhornNic,
    energy: EnergyMeter,
    cores: Vec<CoreCtx>,
    user_eps: BTreeMap<(u16, usize), (EndpointId, EndpointLayout)>,
    q: EventQueue<Ev>,
    common: StackCommon,
    /// Response payloads produced by real handlers, by request id.
    resp_payload: BTreeMap<u64, Vec<u8>>,
    record_responses: bool,
    server_addr: EndpointAddr,
    /// Requests whose handler was killed by an injected crash: their
    /// pending `HandlerDone` events must be ignored.
    crashed: BTreeSet<u64>,
    /// Open `Stage::Park` span per core ([`SpanId::NONE`] when the
    /// core is not parked or tracing is off).
    park_spans: Vec<SpanId>,
    /// Set when the run injects faults: stale fill completions (from
    /// duplicated fills or crash-retired endpoints) are then expected
    /// and absorbed instead of flagged as protocol bugs.
    fault_tolerant: bool,
    /// Host-side shadow of everything the kernel programs into the
    /// NIC. Recorded unconditionally on the (control-path) registration
    /// calls and never consulted on the data path, so it perturbs
    /// nothing; consulted only by the recovery machinery.
    shadow: ShadowRegistry,
    /// Lease watchdog over the CONTROL fabric; exists only when a NIC
    /// fault is armed.
    watchdog: Option<Watchdog>,
    /// The armed NIC-internal fault, if any.
    nic_fault: Option<NicFaultSpec>,
    /// Victim selection for the injectors (stream `fault.nic`);
    /// created — and drawn from — only when a fault is armed.
    nic_fault_rng: Option<SimRng>,
    /// The NIC's protocol engines are down (fault struck; reset and
    /// reconstruction not yet complete).
    nic_down: bool,
    /// State salvaged by the controlled reset, awaiting write-back.
    pending_salvage: Option<NicSalvage>,
    /// Frames held by link-level flow control while the NIC is down.
    nic_backlog: Vec<(PktBuf, u64)>,
    /// Core loads the downed NIC has not yet observed.
    held_loads: Vec<(usize, lauberhorn_coherence::FillToken, LineAddr)>,
    /// Cores whose next park is deferred until the NIC is back.
    held_cores: Vec<usize>,
    recovery: RecoveryCounters,
    /// Earliest outstanding [`Ev::PipelinePump`], for dedup: the
    /// tenant pipeline asks for a pump on every ingress and every
    /// stage completion, and scheduling each would flood the queue.
    next_pump: Option<SimTime>,
    /// Lines of the queued fill events.
    lines: Slab<Line>,
    /// Request contexts of the queued collect events.
    ctxs: Slab<lauberhorn_nic::endpoint::RequestCtx>,
    /// The NIC's action buffer, reused by every transition.
    actions: Vec<NicAction>,
    /// The transmit buffer response frames are built into.
    tx_frame: Vec<u8>,
}

impl LauberhornSim {
    /// Builds the machine and registers `services` with the NIC.
    pub fn new(cfg: LauberhornSimConfig, services: Vec<ServiceSpec>) -> Self {
        let server_addr = EndpointAddr::host(1, 9000);
        let (mut nic_cfg, host_fabric) = match cfg.machine {
            Machine::EnzianEci => (
                LauberhornNicConfig::enzian(server_addr),
                FabricModel::intra_socket(128),
            ),
            Machine::CxlProjected => (
                LauberhornNicConfig::cxl_server(server_addr),
                FabricModel::intra_socket(64),
            ),
            Machine::NumaEmulated => (
                LauberhornNicConfig::numa_emulated(server_addr),
                FabricModel::intra_socket(64),
            ),
            // lint:allow(panic-path): construction-time config validation
            m => panic!("the Lauberhorn stack needs a coherent fabric, not {m:?}"),
        };
        let cost = cfg.machine.cost_model();
        if let Some(t) = cfg.tryagain_timeout {
            nic_cfg.tryagain_timeout = t;
        }
        let device_fabric = nic_cfg.transfer.fabric;
        let device_base = nic_cfg.device_base;
        // Reserve plenty of device-homed space for endpoints.
        let coh = CoherentSystem::new(
            cfg.cores,
            host_fabric,
            device_fabric,
            device_base,
            device_base + (64 << 20),
        );
        let mut nic = LauberhornNic::new(nic_cfg, cfg.cores);
        let mut shadow = ShadowRegistry::new();
        for s in &services {
            let (code, data) = (
                0x4000_0000 + s.service_id as u64 * 0x1000,
                0x5000_0000 + s.service_id as u64 * 0x1000,
            );
            nic.demux_mut().register_service(s.service_id, s.process);
            nic.demux_mut()
                .register_method(s.service_id, code, data, ServiceSpec::signature())
                // lint:allow(panic-path): construction-time registration
                .expect("service just registered");
            shadow.record_service(s.service_id, s.process);
            shadow.record_method(s.service_id, code, data);
        }
        let cores: Vec<CoreCtx> = (0..cfg.cores)
            .map(|c| CoreCtx {
                mode: LoopMode::Kernel,
                kernel_ep: nic.create_kernel_endpoint(c),
                user_ep: None,
                tryagain_streak: 0,
                resp_addr: None,
                cur_req: None,
            })
            .collect();
        for (c, ctx) in cores.iter().enumerate() {
            let (id, layout) = ctx.kernel_ep;
            shadow.record_endpoint(id.0, layout.base.0, ProcessId(u32::MAX), Some(c));
        }
        LauberhornSim {
            energy: EnergyMeter::new(cfg.cores),
            cost,
            services,
            coh,
            nic,
            cores,
            user_eps: BTreeMap::new(),
            q: EventQueue::new(),
            common: StackCommon::new(cfg.wire),
            resp_payload: BTreeMap::new(),
            record_responses: false,
            server_addr,
            crashed: BTreeSet::new(),
            park_spans: vec![SpanId::NONE; cfg.cores],
            fault_tolerant: false,
            shadow,
            watchdog: None,
            nic_fault: None,
            nic_fault_rng: None,
            nic_down: false,
            pending_salvage: None,
            nic_backlog: Vec::new(),
            held_loads: Vec::new(),
            held_cores: Vec::new(),
            recovery: RecoveryCounters::default(),
            next_pump: None,
            lines: Slab::new(),
            ctxs: Slab::new(),
            actions: Vec::new(),
            tx_frame: Vec::new(),
            cfg,
        }
    }

    /// Read access to the NIC (experiments inspect its stats).
    pub fn nic(&self) -> &LauberhornNic {
        &self.nic
    }

    /// Read access to the coherence domain.
    pub fn coherence(&self) -> &CoherentSystem {
        &self.coh
    }

    fn spec_of(&self, service: u16) -> &ServiceSpec {
        self.services
            .iter()
            .find(|s| s.service_id == service)
            // lint:allow(panic-path): services are fixed at construction and the NIC only dispatches registered ids
            .expect("request targets a registered service")
    }

    /// Per-core contexts: created once in `new` for ids `0..cfg.cores`;
    /// every scheduled event carries one of those ids.
    fn ctx(&self, core: usize) -> &CoreCtx {
        // lint:allow(unchecked-index): core ids bounded by construction
        &self.cores[core]
    }

    fn ctx_mut(&mut self, core: usize) -> &mut CoreCtx {
        // lint:allow(unchecked-index): core ids bounded by construction
        &mut self.cores[core]
    }

    /// Schedules a tenant-pipeline pump at `at`, unless one is already
    /// outstanding at the same instant or earlier (a stale later pump
    /// is left in the queue; pumping is idempotent).
    fn schedule_pump(&mut self, at: SimTime) {
        match self.next_pump {
            Some(t) if t <= at => {}
            _ => {
                self.next_pump = Some(at);
                self.q.schedule(at, Ev::PipelinePump);
            }
        }
    }

    /// Runs one NIC transition into the reused action buffer and
    /// applies what it emitted.
    fn nic_step(&mut self, now: SimTime, f: impl FnOnce(&mut LauberhornNic, &mut Vec<NicAction>)) {
        let mut actions = std::mem::take(&mut self.actions);
        f(&mut self.nic, &mut actions);
        self.apply_actions(&mut actions, now);
        self.actions = actions;
    }

    /// Applies (and drains) the NIC's actions.
    fn apply_actions(&mut self, actions: &mut Vec<NicAction>, now: SimTime) {
        for a in actions.drain(..) {
            match a {
                NicAction::CompleteFill { token, data, at } => {
                    self.schedule_fill(token, data, at);
                }
                NicAction::ArmTimeout {
                    endpoint,
                    generation,
                    at,
                } => {
                    self.q.schedule(
                        at,
                        Ev::Timeout {
                            ep: endpoint,
                            generation,
                        },
                    );
                }
                NicAction::CollectAndTransmit { line, ctx, at } => {
                    let ctx = self.ctxs.put(ctx);
                    self.q.schedule(at, Ev::DoCollect { line, ctx });
                }
                NicAction::RequestPreempt { core, at } => {
                    self.q.schedule(at, Ev::Preempt { core });
                }
                NicAction::Dropped { reason, request_id } => {
                    // Under NIC fault injection an `UnknownService` drop
                    // is the *expected* fail-stop signature of a
                    // corrupted (or reset-blanked) demux entry; on clean
                    // runs it means the generator is misconfigured.
                    debug_assert!(
                        self.fault_tolerant || !matches!(reason, DropReason::UnknownService(_)),
                        "generator targeted an unregistered service"
                    );
                    match request_id {
                        // Known request: release it properly (under
                        // retransmission the client's timer takes over).
                        Some(id) => self.common.drop_request(id, now),
                        None => self.common.metrics.dropped += 1,
                    }
                }
                NicAction::PipelinePump { at } => {
                    self.schedule_pump(at);
                }
                NicAction::Shed {
                    request_id,
                    hint,
                    at,
                    ..
                } => {
                    // With pushback armed this NACKs the client (which
                    // paces via AIMD); otherwise it degrades to a drop.
                    self.common.shed_request(request_id, hint, at);
                }
            }
        }
    }

    /// Schedules a NIC fill response, subject to coherence-fabric fault
    /// injection. A dropped or corrupted fill is not silently lost —
    /// the fabric's link-level retry/ECC recovers it — so both manifest
    /// as a delivery delayed by the recovery spike. A duplicated fill
    /// arrives twice; the second copy hits a consumed token and is
    /// absorbed by the protocol (counted in `fill_faults`).
    fn schedule_fill(&mut self, token: lauberhorn_coherence::FillToken, data: Line, at: SimTime) {
        let line = self.lines.put(data);
        let Some(inj) = self.common.fill_fault.as_mut() else {
            self.q.schedule(at, Ev::DoCompleteFill { token, line });
            return;
        };
        let spike = inj.spec().spike;
        match inj.decide_frame(data.len(), 0) {
            FaultDecision::Deliver => {
                self.q.schedule(at, Ev::DoCompleteFill { token, line });
            }
            FaultDecision::Drop | FaultDecision::Corrupt { .. } => {
                self.common.metrics.faults.fill_faults += 1;
                self.q
                    .schedule(at + spike, Ev::DoCompleteFill { token, line });
            }
            FaultDecision::Duplicate { gap } => {
                self.common.metrics.faults.fill_faults += 1;
                self.q.schedule(at, Ev::DoCompleteFill { token, line });
                let copy = self.lines.put(data);
                self.q
                    .schedule(at + gap, Ev::DoCompleteFill { token, line: copy });
            }
            FaultDecision::Delay { extra } => {
                self.common.metrics.faults.fill_faults += 1;
                self.q
                    .schedule(at + extra, Ev::DoCompleteFill { token, line });
            }
        }
    }

    /// Charges `cycles` of software work on `core` starting at `now`,
    /// attributing them to `request_id` if given. Returns the end time.
    fn charge(
        &mut self,
        core: usize,
        now: SimTime,
        cycles: u64,
        request_id: Option<u64>,
    ) -> SimTime {
        self.energy.set_state(core, CoreState::Active, now);
        if let Some(id) = request_id {
            self.common.charge_req(id, cycles);
        }
        now + self.cost.cycles(cycles)
    }

    fn issue_load(&mut self, core: usize, now: SimTime) {
        let ctx = self.ctx(core);
        let (ep, layout) = match (ctx.mode, ctx.user_ep) {
            (LoopMode::Kernel, _) => ctx.kernel_ep,
            (LoopMode::User { .. }, Some((_, ep, layout))) => (ep, layout),
            (LoopMode::User { .. }, None) => {
                // User mode always carries an endpoint; fall back to
                // the kernel endpoint if the invariant is broken.
                debug_assert!(false, "user mode implies user endpoint");
                ctx.kernel_ep
            }
        };
        let parity = self
            .nic
            .endpoint(ep)
            .map(|e| e.expect_line())
            .unwrap_or_default();
        let addr = layout.ctrl(parity);
        // Drop any stale copy (self-invalidating grants) so the load
        // reaches the device.
        self.coh.drop_line(CacheId(core), addr);
        self.energy.set_state(core, CoreState::Stalled, now);
        match self.coh.load(CacheId(core), addr) {
            Ok(LoadResult::Deferred {
                token,
                request_arrival,
            }) => {
                self.q
                    .schedule(now + request_arrival, Ev::NicSeesLoad { core, token, addr });
            }
            other => debug_assert!(false, "device-line load must defer, got {other:?}"),
        }
        if self.common.tracer.is_enabled() {
            let id = self
                .common
                .tracer
                .begin(now, Stage::Park, None, SpanId::NONE, core as u32);
            if let Some(slot) = self.park_spans.get_mut(core) {
                *slot = id;
            }
        }
    }

    fn enter_kernel_loop(&mut self, core: usize, now: SimTime, request_id: Option<u64>) -> SimTime {
        // Yield path: syscall back into the kernel, context switch to the
        // kernel dispatch thread, tell the NIC.
        let cycles = self.cost.syscall + self.cost.full_context_switch();
        let end = self.charge(core, now, cycles, request_id);
        if let Some((svc, ep, _)) = self.ctx(core).user_ep {
            self.nic.demux_mut().remove_endpoint(svc, ep);
            self.shadow.unbind_endpoint(svc, ep.0);
        }
        self.ctx_mut(core).mode = LoopMode::Kernel;
        self.ctx_mut(core).tryagain_streak = 0;
        self.nic.push_running(core, None, end + MIRROR_PUSH_COST);
        self.q
            .schedule(end + MIRROR_PUSH_COST, Ev::IssueLoad { core });
        end + MIRROR_PUSH_COST
    }

    fn enter_user_loop(&mut self, core: usize, service: u16, now: SimTime) -> SimTime {
        // The Figure 5 transition: the core context-switches into the
        // target process and will thereafter park on that process's
        // dedicated endpoint.
        let process = self.spec_of(service).process;
        let cycles = self.cost.sched_pick + self.cost.full_context_switch();
        let end = self.charge(core, now, cycles, None);
        let (ep, layout) = match self.user_eps.get(&(service, core)) {
            Some(e) => *e,
            None => {
                let e = self.nic.create_endpoint(process);
                self.user_eps.insert((service, core), e);
                self.shadow
                    .record_endpoint(e.0 .0, e.1.base.0, process, None);
                e
            }
        };
        match self.nic.demux_mut().add_endpoint(service, ep) {
            Ok(()) | Err(DemuxError::UnknownService(_)) => {}
            Err(e) => debug_assert!(false, "add_endpoint: {e}"),
        }
        self.shadow.bind_endpoint(service, ep.0);
        self.ctx_mut(core).mode = LoopMode::User { service };
        self.ctx_mut(core).user_ep = Some((service, ep, layout));
        self.ctx_mut(core).tryagain_streak = 0;
        self.nic
            .push_running(core, Some(process), end + MIRROR_PUSH_COST);
        end + MIRROR_PUSH_COST
    }

    fn parse_ctrl(data: &[u8]) -> (DispatchKind, u64, u8, usize, u16) {
        // Field offsets per `lauberhorn_nic::dispatch`.
        use lauberhorn_nic::bytes;
        let request_id = bytes::u64_le(data, 16);
        let service = bytes::u16_be(data, 24);
        let kind = match bytes::get(data, 28) {
            1 => DispatchKind::Rpc,
            2 => DispatchKind::TryAgain,
            4 => DispatchKind::DmaDescriptor,
            k => {
                // The NIC only emits kinds 1-4; a corrupt line reads
                // as RETIRE, which funnels the core back to the
                // kernel loop instead of panicking mid-simulation.
                debug_assert!(k == 3, "NIC never emits kind {k}");
                DispatchKind::Retire
            }
        };
        let n_aux = bytes::get(data, 29);
        let arg_len = bytes::u16_be(data, 30) as usize;
        (kind, request_id, n_aux, arg_len, service)
    }

    fn on_fill_at_core(&mut self, core: usize, addr: LineAddr, data: &Line, now: SimTime) {
        if let Some(slot) = self.park_spans.get_mut(core) {
            let id = std::mem::replace(slot, SpanId::NONE);
            self.common.tracer.end(id, now);
        }
        let (kind, request_id, n_aux, arg_len, service) = Self::parse_ctrl(data);
        match kind {
            DispatchKind::TryAgain => {
                self.coh.drop_line(CacheId(core), addr);
                self.ctx_mut(core).tryagain_streak += 1;
                let is_user = matches!(self.ctx(core).mode, LoopMode::User { .. });
                // Never yield with requests queued on this endpoint (a
                // request may have raced the TRYAGAIN timer).
                let queued_here = self
                    .ctx(core)
                    .user_ep
                    .and_then(|(_, ep, _)| self.nic.endpoint(ep))
                    .is_some_and(|e| e.queue_depth() > 0);
                if is_user && !queued_here && self.ctx(core).tryagain_streak >= self.cfg.yield_after
                {
                    let ret = self.enter_kernel_loop(core, now, None);
                    self.common.tracer.span(
                        Stage::TryAgain,
                        None,
                        SpanId::NONE,
                        core as u32,
                        now,
                        ret,
                    );
                } else {
                    // Re-issue the load after a couple of cycles.
                    let end = self.charge(core, now, 20, None);
                    self.common.tracer.span(
                        Stage::TryAgain,
                        None,
                        SpanId::NONE,
                        core as u32,
                        now,
                        end,
                    );
                    self.q.schedule(end, Ev::IssueLoad { core });
                }
            }
            DispatchKind::Retire => {
                self.coh.drop_line(CacheId(core), addr);
                let ret = self.enter_kernel_loop(core, now, None);
                self.common
                    .tracer
                    .span(Stage::Retire, None, SpanId::NONE, core as u32, now, ret);
            }
            DispatchKind::Rpc | DispatchKind::DmaDescriptor => {
                self.ctx_mut(core).tryagain_streak = 0;
                let mut t = now;
                let mut sw = 0u64;
                // Fetch any AUX lines the payload spilled into: they
                // stream behind the CONTROL line, a quarter line-time
                // apart (they were prefetched by the NIC's delivery).
                if n_aux > 0 {
                    let per_line = self.coh.device_fabric().data_lat / 4;
                    t += per_line * n_aux as u64;
                }
                let root = self.common.root_span(request_id);
                if self.common.tracer.is_enabled() {
                    let t0 = self.common.arrival_span_start(request_id);
                    if t0 != SimTime::ZERO {
                        self.common.tracer.span(
                            Stage::ControlFill,
                            Some(request_id),
                            root,
                            NIC_TRACK,
                            t0,
                            now,
                        );
                    }
                }
                if self.ctx(core).mode == LoopMode::Kernel {
                    // Figure 5 kernel path: switch into the process.
                    t = self.enter_user_loop(core, service, t);
                    sw += self.cost.sched_pick + self.cost.full_context_switch();
                    self.common.tracer.span(
                        Stage::KernelDispatch,
                        Some(request_id),
                        root,
                        core as u32,
                        now,
                        t,
                    );
                } else {
                    // User fast path: consume the dispatch form.
                    t = self.charge(core, t, self.cost.dispatch_form_consume, Some(request_id));
                    sw += self.cost.dispatch_form_consume;
                    self.common.tracer.span(
                        Stage::FastDispatch,
                        Some(request_id),
                        root,
                        core as u32,
                        now,
                        t,
                    );
                }
                if kind == DispatchKind::DmaDescriptor {
                    // Handler pulls the payload from the DMA buffer.
                    let len = lauberhorn_nic::bytes::u64_le(data, 40) as usize;
                    let copy = self.cost.copy(len);
                    let copy_start = t;
                    t = self.charge(core, t, copy, Some(request_id));
                    sw += copy;
                    self.common.tracer.span(
                        Stage::Copy,
                        Some(request_id),
                        root,
                        core as u32,
                        copy_start,
                        t,
                    );
                } else {
                    let _ = arg_len; // Args arrived in-line: already in registers.
                }
                self.common.charge_req(request_id, sw);
                if let Some(times) = self.common.times_mut(request_id) {
                    times.handler_start = t;
                }
                // Application logic: run the real handler over the bytes
                // that actually arrived through the stack.
                if kind == DispatchKind::Rpc && n_aux == 0 {
                    if let Behavior::Handler(f) = &self.spec_of(service).behavior {
                        let f = f.clone();
                        if let Ok(line) = lauberhorn_nic::dispatch::DispatchLine::decode(data, &[])
                        {
                            // The dispatch form of `[Bytes]`: u32 LE length
                            // then the application payload.
                            use lauberhorn_packet::marshal::{Codec, FixedCodec, Value};
                            let sig = ServiceSpec::signature();
                            if let Ok(vals) = FixedCodec.decode(&sig, &line.args) {
                                if let Some(Value::Bytes(app)) = vals.first() {
                                    let resp = f(app);
                                    debug_assert!(
                                        resp.len() + 2 <= self.coh.line_size(),
                                        "handler response exceeds the control line"
                                    );
                                    // lint:allow(unbounded-growth): one entry per in-flight request, removed on completion
                                    self.resp_payload.insert(request_id, resp);
                                }
                            }
                        }
                    }
                }
                self.energy.set_state(core, CoreState::Active, t);
                let service_time = self.spec_of(service).service_time;
                let handler = service_time.sample(&mut self.common.rng);
                self.ctx_mut(core).resp_addr = Some(addr);
                self.ctx_mut(core).cur_req = Some(request_id);
                self.q.schedule(
                    t + self.cost.cycles(handler),
                    Ev::HandlerDone { core, request_id },
                );
            }
        }
    }

    fn on_handler_done(&mut self, core: usize, request_id: u64, now: SimTime) {
        self.ctx_mut(core).cur_req = None;
        if let Some(times) = self.common.times_mut(request_id) {
            times.handler_end = now;
        }
        // Write the response into the CONTROL line we hold Exclusive.
        let Some(addr) = self.ctx_mut(core).resp_addr.take() else {
            debug_assert!(false, "handler had a request line");
            return;
        };
        let service = match self.ctx(core).mode {
            LoopMode::User { service } => service,
            LoopMode::Kernel => {
                debug_assert!(false, "handler runs in user mode");
                return;
            }
        };
        // The response goes from the handler's stack straight into the
        // line: a real handler's payload, or a synthetic one.
        let mut synthetic = Line::zeroed(
            self.spec_of(service)
                .response_bytes
                .min(self.coh.line_size()),
        );
        for (i, b) in synthetic.iter_mut().enumerate() {
            *b = (request_id as u8).wrapping_add(i as u8);
        }
        let resp = self
            .resp_payload
            .get(&request_id)
            .map_or(&*synthetic, Vec::as_slice);
        if self.coh.store(CacheId(core), addr, resp).is_err() {
            debug_assert!(false, "core holds the line exclusive");
        }
        let end = self.charge(core, now, 15, Some(request_id)); // Store + fence.
        if self.common.tracer.is_enabled() {
            let root = self.common.root_span(request_id);
            let handler_start = self
                .common
                .times(request_id)
                .map(|t| t.handler_start)
                .unwrap_or(now);
            let tr = &mut self.common.tracer;
            tr.span(
                Stage::Handler,
                Some(request_id),
                root,
                core as u32,
                handler_start,
                now,
            );
            tr.span(
                Stage::Response,
                Some(request_id),
                root,
                core as u32,
                now,
                end,
            );
        }
        self.q.schedule(end, Ev::IssueLoad { core });
    }

    fn on_collect(
        &mut self,
        line: LineAddr,
        ctx: lauberhorn_nic::endpoint::RequestCtx,
        now: SimTime,
    ) {
        let (data, lat) = self.coh.device_fetch_exclusive(line);
        let resp_len = match self.resp_payload.remove(&ctx.request_id) {
            Some(expected) => {
                // End-to-end data integrity: the bytes pulled out of the
                // core's cache are exactly what the handler produced.
                let n = expected.len().min(data.len());
                debug_assert_eq!(
                    data.get(..n),
                    expected.get(..n),
                    "coherence protocol corrupted the response"
                );
                n
            }
            None => self.spec_of(ctx.service_id).response_bytes.min(data.len()),
        };
        if self.record_responses {
            // lint:allow(unbounded-growth): response capture is a conformance-test mode, off in benchmarks
            self.common.metrics.recorded.push((
                ctx.request_id,
                lauberhorn_nic::bytes::slice(&data, 0, resp_len).to_vec(),
            ));
        }
        let payload = lauberhorn_nic::bytes::slice(&data, 0, resp_len);
        // A real, checksummed frame, built into the reused transmit
        // buffer: only its length matters downstream.
        if self
            .nic
            .build_response_frame(&ctx, payload, &mut self.tx_frame)
            .is_err()
        {
            // Response too large for a UDP datagram: drop it; the
            // client's retry budget (if any) decides the outcome.
            self.common.drop_request(ctx.request_id, now);
            return;
        }
        let tx_time = now + lat;
        if let Some(times) = self.common.times_mut(ctx.request_id) {
            times.response_tx = tx_time;
        }
        let root = self.common.root_span(ctx.request_id);
        self.common.tracer.span(
            Stage::Collect,
            Some(ctx.request_id),
            root,
            NIC_TRACK,
            now,
            tx_time,
        );
        let arrive = tx_time + self.common.wire.deliver(self.tx_frame.len());
        self.common.complete(arrive, ctx.request_id);
    }

    /// An injected process crash ([`lauberhorn_sim::fault::CrashSpec`])
    /// hits every core currently serving `service`. The OS reaps the
    /// process: handlers die mid-request, the NIC RETIREs the orphaned
    /// CONTROL-line state so the cores fall back to the kernel dispatch
    /// loop, and requests queued at the dead process's endpoints are
    /// salvaged and re-queued on the kernel endpoints. A killed
    /// in-flight execution is released from the dedup window: it never
    /// answered, so a retransmit may legally run it again.
    fn on_crash(&mut self, service: u16, tries: u32, now: SimTime) {
        let victims: Vec<usize> = (0..self.cores.len())
            .filter(|&c| self.ctx(c).mode == LoopMode::User { service })
            .collect();
        if victims.is_empty() {
            // The service is not on-core right now: re-arm (bounded)
            // so the crash lands mid-request under load.
            if tries < 500 {
                self.q.schedule(
                    now + SimDuration::from_us(10),
                    Ev::Crash {
                        service,
                        tries: tries + 1,
                    },
                );
            }
            return;
        }
        // Tear the dead process's endpoints out of the demux table
        // first, so no new request is routed to it while the recovery
        // events are in flight.
        let eps: Vec<EndpointId> = victims
            .iter()
            .filter_map(|&c| self.ctx(c).user_ep.map(|(_, ep, _)| ep))
            .collect();
        for &ep in &eps {
            self.nic.demux_mut().remove_endpoint(service, ep);
            // The endpoint dies with the process: never reconstruct it.
            self.shadow.forget_endpoint(ep.0);
        }
        // Salvage queued-but-undelivered requests onto the kernel path.
        let mut salvaged = Vec::new();
        for &ep in &eps {
            salvaged.extend(self.nic.drain_endpoint_queue(ep));
        }
        for (line, ctx) in salvaged {
            self.nic_step(now, |nic, out| nic.redeliver_to_kernel(now, line, ctx, out));
        }
        for &core in &victims {
            if let Some(rid) = self.ctx_mut(core).cur_req.take() {
                // Mid-handler: the execution is lost with the process.
                // lint:allow(unbounded-growth): one entry per injected crash; bounded by the fault plan
                self.crashed.insert(rid);
                self.resp_payload.remove(&rid);
                self.common.dedup_forget(rid);
                self.common.drop_request(rid, now);
                if let Some(addr) = self.ctx_mut(core).resp_addr.take() {
                    self.coh.drop_line(CacheId(core), addr);
                }
                self.nic.forget_pending_response(core);
                // The OS reaps the core synchronously: back to the
                // kernel dispatch loop.
                self.enter_kernel_loop(core, now, None);
                self.ctx_mut(core).user_ep = None;
            } else if let Some((_, ep, _)) = self.ctx(core).user_ep {
                // Parked on (or about to re-park on) the dead
                // process's CONTROL line: the NIC retires the orphaned
                // state, which funnels the core back to the kernel
                // loop through the normal RETIRE path.
                self.nic_step(now, |nic, out| nic.retire_endpoint(now, ep, out));
            }
            self.user_eps.remove(&(service, core));
            self.common.metrics.faults.crashes_recovered += 1;
        }
    }

    // ---- NIC failure domain: injection, watchdog, degraded mode ----

    /// The armed NIC-internal fault strikes.
    fn on_nic_fault(&mut self) {
        let Some(spec) = self.nic_fault else {
            return;
        };
        self.recovery.injected += 1;
        let nth = self
            .nic_fault_rng
            .as_mut()
            .map_or(0, |r| r.gen_range(0..4096));
        match spec.kind {
            NicFaultKind::TableCorrupt => {
                self.nic.inject_table_fault(nth);
            }
            NicFaultKind::StuckControlLine => {
                self.nic.inject_stuck_line(nth);
            }
            NicFaultKind::MirrorDesync => {
                self.nic.inject_mirror_desync();
            }
            NicFaultKind::Reset => {
                // The protocol engines die. Fabric-addressable SRAM
                // survives until the kernel's controlled reset reads it
                // out; the MAC asserts link-level flow control, so
                // arriving frames wait instead of dropping.
                self.nic_down = true;
            }
        }
    }

    /// One watchdog lease probe: a single cache-line read of the NIC's
    /// health registers (ECC status, line-transition epochs).
    fn on_heartbeat(&mut self, now: SimTime) {
        if self.watchdog.is_none() {
            return;
        }
        let lease = {
            // lint:allow(panic-path): checked Some above
            let wd = self.watchdog.as_mut().expect("watchdog armed");
            wd.heartbeat();
            wd.lease_interval()
        };
        let reconstructing = self.pending_salvage.is_some();
        if self.nic_down && !reconstructing {
            // The lease expired: the device stopped answering.
            if let Some(wd) = self.watchdog.as_mut() {
                wd.fault_detected(now);
            }
            self.begin_reset_recovery(now);
        } else if !self.nic_down {
            let health = self.nic.probe_health();
            if !health.healthy() {
                if let Some(wd) = self.watchdog.as_mut() {
                    wd.fault_detected(now);
                }
                self.repair(health, now);
            }
        }
        // Keep probing until the armed fault has been detected and
        // recovered, then go quiet: a free-running heartbeat would
        // stretch the run's wall clock after the episode.
        let done = self
            .watchdog
            .as_ref()
            .is_some_and(|w| w.stats().repairs + w.stats().resets_recovered > 0);
        if !done {
            self.q.schedule(now + lease, Ev::Heartbeat);
        }
    }

    /// Reprograms one service's demux entry (methods and bindings)
    /// from the shadow registry.
    fn reprogram_service(&mut self, sid: u16) {
        let Some(svc) = self.shadow.service(sid) else {
            return;
        };
        let process = svc.process;
        let methods = svc.methods.clone();
        let endpoints = svc.endpoints.clone();
        self.nic.demux_mut().register_service(sid, process);
        for (code, data) in methods {
            let _ = self
                .nic
                .demux_mut()
                .register_method(sid, code, data, ServiceSpec::signature());
        }
        for e in endpoints {
            let _ = self.nic.demux_mut().add_endpoint(sid, EndpointId(e));
        }
    }

    /// The kernel re-pushes scheduler ground truth into the mirror.
    fn repush_sched_state(&mut self, now: SimTime) {
        let state: Vec<(usize, Option<ProcessId>)> = self
            .cores
            .iter()
            .enumerate()
            .map(|(c, core)| {
                let p = match core.mode {
                    LoopMode::User { service } => Some(self.spec_of(service).process),
                    LoopMode::Kernel => None,
                };
                (c, p)
            })
            .collect();
        for (c, p) in state {
            self.nic.push_running(c, p, now);
        }
    }

    /// Targeted repair of a non-reset fault: reprogram corrupted demux
    /// entries from the shadow, unstick wedged line engines (requeueing
    /// what they black-holed onto the kernel path), re-push scheduler
    /// ground truth after a mirror desync.
    fn repair(&mut self, health: NicHealth, now: SimTime) {
        for sid in health.corrupted_services.clone() {
            self.reprogram_service(sid);
        }
        for ep in health.stuck_endpoints {
            let drained = self.nic.repair_stuck_endpoint(ep);
            for (line, ctx) in drained {
                self.recovery.requeued_kernel += 1;
                self.nic_step(now, |nic, out| nic.redeliver_to_kernel(now, line, ctx, out));
            }
            // Unblock the stalled waiter: it falls back to the kernel
            // dispatch loop through the normal RETIRE path.
            self.nic_step(now, |nic, out| nic.retire_endpoint(now, ep, out));
        }
        if health.mirror_desynced {
            self.repush_sched_state(now);
            self.nic.resync_mirror();
        }
        if let Some(wd) = self.watchdog.as_mut() {
            wd.repaired(now);
        }
    }

    /// The kernel's reset handler: salvage all fabric-recoverable
    /// state, answer salvaged parked fills with RETIRE (their cores
    /// fall back to the kernel loop instead of spinning on a dead
    /// device), clear the device, and schedule reconstruction.
    fn begin_reset_recovery(&mut self, now: SimTime) {
        let salvage = self.nic.reset();
        self.recovery.lost_continuations += salvage.lost_continuations as u64;
        let line_size = self.coh.line_size();
        let retire = lauberhorn_nic::dispatch::DispatchLine::retire()
            .control_line(line_size)
            .unwrap_or_else(|_| Line::zeroed(line_size));
        for (_, token) in &salvage.parked {
            self.recovery.retired_fills += 1;
            self.schedule_fill(*token, retire, now);
        }
        let entries = self.shadow.entry_count();
        let dur = self
            .watchdog
            .as_ref()
            .map_or(SimDuration::ZERO, |w| w.reconstruction_time(entries));
        self.pending_salvage = Some(salvage);
        self.q.schedule(now + dur, Ev::NicRestored);
    }

    /// Reconstruction complete: replay the shadow into the device,
    /// write back salvaged protocol state (invariant I9: live
    /// endpoints are bisimilar to their pre-fault selves), requeue
    /// salvaged in-flight requests on the kernel path, release the
    /// frozen cores, and replay the backlog. Traffic then migrates
    /// back to the fast path through the normal Figure 5 residency
    /// mechanics.
    fn on_nic_restored(&mut self, now: SimTime) {
        let Some(salvage) = self.pending_salvage.take() else {
            return;
        };
        // 1. Demux entries, methods and bindings, in sorted id order.
        let sids: Vec<u16> = self.shadow.services().map(|(id, _)| id).collect();
        for sid in sids {
            self.reprogram_service(sid);
        }
        // 2. Endpoints: same ids, same device addresses, same modes.
        let line_size = self.nic.config().line_size;
        let n_aux = self.nic.config().n_aux;
        let eps: Vec<(u32, u64, ProcessId, Option<usize>)> = self
            .shadow
            .endpoints()
            .map(|(id, e)| (id, e.base, e.process, e.kernel_core))
            .collect();
        for (id, base, process, kernel_core) in eps {
            let layout = EndpointLayout {
                base: LineAddr::new(base, line_size),
                line_size,
                n_aux,
            };
            self.nic
                .restore_endpoint(EndpointId(id), process, layout, kernel_core);
        }
        // 3. Protocol write-back for live endpoints: outstanding
        // responses and CONTROL-line parity exactly as before the
        // fault, so handlers that survived the reset complete their
        // requests through the normal collect path (at-most-once
        // without any extra dedup state).
        for s in salvage.protocol {
            self.nic.restore_protocol_state(s);
        }
        // 4. The kernel re-pushes scheduler ground truth.
        self.repush_sched_state(now);
        self.nic_down = false;
        if let Some(wd) = self.watchdog.as_mut() {
            wd.restored(now);
        }
        // 5. Requeue salvaged in-flight requests on the kernel path
        // (PR 2's crash-recovery requeue, generalized to a whole-NIC
        // loss).
        for (line, ctx) in salvage.orphans {
            self.recovery.requeued_kernel += 1;
            self.nic_step(now, |nic, out| nic.redeliver_to_kernel(now, line, ctx, out));
        }
        // 6. Release the cores and loads frozen by the reset.
        for core in std::mem::take(&mut self.held_cores) {
            self.q.schedule(now, Ev::IssueLoad { core });
        }
        for (core, token, addr) in std::mem::take(&mut self.held_loads) {
            self.q.schedule(now, Ev::NicSeesLoad { core, token, addr });
        }
        // 7. Replay the paused backlog, staggered at line rate.
        for (i, (raw, request_id)) in std::mem::take(&mut self.nic_backlog)
            .into_iter()
            .enumerate()
        {
            self.q.schedule(
                now + SimDuration::from_ns(100) * (i as u64 + 1),
                Ev::ReplayFrame { raw, request_id },
            );
        }
    }

    /// Runs `workload` under the generic driver and reports.
    pub fn run(&mut self, workload: &WorkloadSpec) -> Report {
        crate::driver::run(self, workload)
    }
}

impl ServerStack for LauberhornSim {
    fn build(machine: MachineConfig, services: Vec<ServiceSpec>) -> Self {
        // lint:allow(panic-path): construction-time config validation
        assert!(
            machine.machine.is_coherent(),
            "the Lauberhorn stack needs a coherent fabric"
        );
        let mut cfg = LauberhornSimConfig::enzian(machine.cores);
        cfg.machine = machine.machine;
        cfg.wire = machine.wire;
        LauberhornSim::new(cfg, services)
    }

    fn name(&self) -> &'static str {
        match self.cfg.machine {
            Machine::CxlProjected => "lauberhorn/cxl-server",
            Machine::NumaEmulated => "lauberhorn/numa-emulated",
            _ => "lauberhorn/enzian-eci",
        }
    }

    fn server_addr(&self, _service: u16) -> EndpointAddr {
        self.server_addr
    }

    fn common(&mut self) -> &mut StackCommon {
        &mut self.common
    }

    fn prepare(&mut self, workload: &WorkloadSpec) {
        self.record_responses = workload.record_responses;
        self.fault_tolerant = workload.faults.enabled();
        self.crashed.clear();
        self.park_spans = vec![SpanId::NONE; self.cfg.cores];
        // NIC-driven overload control: bound the queues, arm deadline
        // shedding and (optionally) fair admission across the tenants.
        if let Some(overload) = &workload.overload {
            let ids: Vec<u16> = self.services.iter().map(|s| s.service_id).collect();
            self.nic.arm_overload(overload.clone(), &ids);
            // Multi-tenant isolation domains: an *enforcing* plan arms
            // the per-tenant staged pipeline (rate limits + DRR at
            // parse/demux/dispatch); a measurement-only plan leaves
            // the NIC untouched and only the driver's SLO ledgers see
            // the tenant table.
            if let Some(tenancy) = &overload.tenancy {
                self.nic.arm_tenancy(tenancy.clone());
            }
        }
        self.next_pump = None;
        if let Some(crash) = workload.faults.crash {
            self.q.schedule(
                SimTime::ZERO + crash.at,
                Ev::Crash {
                    service: crash.service,
                    tries: 0,
                },
            );
        }
        // NIC failure domain: arm the injected device fault and the
        // watchdog lease that detects it. With no NIC fault in the
        // plan none of this runs and no RNG stream is drawn, so
        // existing seeded runs stay byte-identical.
        self.nic_down = false;
        self.pending_salvage = None;
        self.nic_backlog.clear();
        self.held_loads.clear();
        self.held_cores.clear();
        self.recovery = RecoveryCounters::default();
        self.nic_fault = workload.faults.nic;
        self.nic_fault_rng = workload
            .faults
            .nic
            .map(|_| SimRng::stream(workload.seed, "fault.nic"));
        self.watchdog = workload.faults.nic.map(|_| Watchdog::default());
        if let Some(nf) = workload.faults.nic {
            self.q.schedule(SimTime::ZERO + nf.at, Ev::NicFault);
            self.q.schedule(
                SimTime::ZERO + lauberhorn_os::health::LEASE_INTERVAL,
                Ev::Heartbeat,
            );
        }
        // Every core starts in the kernel dispatch loop, parked at t=0.
        for core in 0..self.cfg.cores {
            self.q.schedule(SimTime::ZERO, Ev::IssueLoad { core });
        }
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.q.peek_time()
    }

    fn step(&mut self, _workload: &WorkloadSpec) {
        let Some((now, ev)) = self.q.pop() else {
            return;
        };
        match ev {
            Ev::FrameAtNic { raw, request_id } => {
                self.common.note_arrival(request_id, now);
                // The NIC's line-rate parser checks the real IPv4/UDP
                // checksums: a corrupted frame dies here, before any
                // endpoint state is touched. The NIC reuses this parse.
                let Ok(frame) = lauberhorn_packet::parse_udp_frame_ref(&raw) else {
                    self.common.reject_corrupt(request_id, now);
                    return;
                };
                // Degraded mode: a reset NIC asserts link-level flow
                // control, so frames pause at the switch instead of
                // dropping; they replay once the device is rebuilt.
                if self.nic_down {
                    self.recovery.backlogged += 1;
                    // The stall is recovery time on the request's
                    // critical path; the span closes when the replayed
                    // frame reaches the rx gate.
                    self.common.begin_wait(request_id, Stage::Recovery, now);
                    self.nic_backlog.push((raw, request_id));
                    return;
                }
                if self.common.rx_gate(request_id, now) == crate::stack::RxGate::Duplicate {
                    return;
                }
                self.nic_step(now, |nic, out| nic.on_parsed_frame(now, &raw, &frame, out));
            }
            Ev::DoCompleteFill { token, line } => {
                match self.coh.complete_fill(token, self.lines.get(line)) {
                    Ok((cache, addr, lat)) => {
                        self.q.schedule(
                            now + lat,
                            Ev::FillAtCore {
                                core: cache.0,
                                addr,
                                line,
                            },
                        );
                    }
                    Err(e) => {
                        // Only fault injection produces stale completions
                        // (a duplicated fill, or a fill raced by a crash
                        // retire); the fabric protocol absorbs them.
                        debug_assert!(self.fault_tolerant, "fill token is fresh: {e}");
                        let _ = e;
                        self.lines.free(line);
                    }
                }
            }
            Ev::FillAtCore { core, addr, line } => {
                let data = self.lines.take(line);
                self.on_fill_at_core(core, addr, &data, now);
            }
            Ev::NicSeesLoad { core, token, addr } => {
                // A dead device cannot observe loads; the core's fill
                // stays outstanding until reconstruction releases it.
                if self.nic_down {
                    self.held_loads.push((core, token, addr));
                    return;
                }
                self.nic_step(now, |nic, out| {
                    nic.on_core_load(now, core, token, addr, out)
                });
            }
            Ev::Timeout { ep, generation } => {
                self.nic_step(now, |nic, out| nic.on_timeout(now, ep, generation, out));
            }
            Ev::HandlerDone { core, request_id } => {
                // A crash killed this handler mid-request: the process
                // (and its pending response) no longer exist.
                if self.crashed.remove(&request_id) {
                    return;
                }
                self.on_handler_done(core, request_id, now);
            }
            Ev::DoCollect { line, ctx } => {
                let ctx = self.ctxs.take(ctx);
                self.on_collect(line, ctx, now);
            }
            Ev::IssueLoad { core } => {
                // Loading against a blank NIC would read the wrong
                // CONTROL parity; hold the core until the endpoint
                // table is rebuilt.
                if self.nic_down {
                    self.held_cores.push(core);
                    return;
                }
                self.issue_load(core, now);
            }
            Ev::Crash { service, tries } => {
                self.on_crash(service, tries, now);
            }
            Ev::NicFault => {
                self.on_nic_fault();
            }
            Ev::Heartbeat => {
                self.on_heartbeat(now);
            }
            Ev::NicRestored => {
                self.on_nic_restored(now);
            }
            Ev::ReplayFrame { raw, request_id } => {
                self.recovery.replayed += 1;
                let Ok(frame) = lauberhorn_packet::parse_udp_frame_ref(&raw) else {
                    self.common.reject_corrupt(request_id, now);
                    return;
                };
                if self.common.rx_gate(request_id, now) == crate::stack::RxGate::Duplicate {
                    return;
                }
                self.nic_step(now, |nic, out| nic.on_parsed_frame(now, &raw, &frame, out));
            }
            Ev::PipelinePump => {
                if self.next_pump == Some(now) {
                    self.next_pump = None;
                }
                self.nic_step(now, |nic, out| nic.pump_tenancy(now, out));
            }
            Ev::Preempt { core } => {
                // Kernel + NIC cooperate (§5.1): IPI the core, then
                // the NIC unblocks its parked load with RETIRE. We
                // model it as a RETIRE on the core's user endpoint;
                // the IPI cost is charged when the core transitions.
                if let LoopMode::User { .. } = self.ctx(core).mode {
                    if let Some((_, ep, _)) = self.ctx(core).user_ep {
                        self.nic_step(now, |nic, out| nic.retire_endpoint(now, ep, out));
                    }
                }
            }
        }
    }

    fn inject_frame(&mut self, at: SimTime, raw: PktBuf, request_id: u64) {
        self.q.schedule(at, Ev::FrameAtNic { raw, request_id });
    }

    fn finish(&mut self, end: SimTime) -> (CycleAccount, u64) {
        let energy = std::mem::replace(&mut self.energy, EnergyMeter::new(self.cfg.cores));
        let accounts = energy.finish(end);
        let mut total = CycleAccount::default();
        for a in &accounts {
            total.merge(a);
        }
        let coh_stats = self.coh.stats();
        let reg = &mut self.common.metrics.registry;
        self.nic.export_metrics(reg);
        coh_stats.export(reg);
        // Only registered when a NIC fault was armed: unconditional
        // entries would perturb the digest of every existing run.
        if let Some(wd) = &self.watchdog {
            let ws = wd.stats();
            reg.counter("os.watchdog.heartbeats", ws.heartbeats);
            reg.counter("os.watchdog.faults_detected", ws.faults_detected);
            reg.counter("os.watchdog.repairs", ws.repairs);
            reg.counter("os.watchdog.resets_recovered", ws.resets_recovered);
            reg.gauge("os.watchdog.degraded_us", wd.degraded_total().as_us_f64());
            reg.counter("nic.recovery.injected", self.recovery.injected);
            reg.counter("nic.recovery.backlogged", self.recovery.backlogged);
            reg.counter("nic.recovery.replayed", self.recovery.replayed);
            reg.counter(
                "nic.recovery.requeued_kernel",
                self.recovery.requeued_kernel,
            );
            reg.counter("nic.recovery.retired_fills", self.recovery.retired_fills);
            reg.counter(
                "nic.recovery.lost_continuations",
                self.recovery.lost_continuations,
            );
        }
        (total, coh_stats.fabric_messages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every delivered request leaves a stale 15 ms TRYAGAIN timer in
    /// the event wheel (on echo-64b, 97,829 `Timeout` events per
    /// 100,502 requests, only 4 of them fresh), so the wheel's arena
    /// holds about 2,048 nodes of `Ev` plus 24 bytes of bookkeeping, and
    /// each byte added to `Ev` costs about 2 KiB of peak heap. Lines and
    /// request contexts therefore ride in slabs, not in events.
    #[test]
    fn ev_stays_small() {
        let size = std::mem::size_of::<Ev>();
        assert!(size <= 32, "Ev grew to {size} bytes");
    }
}
