//! The kernel-bypass machine simulation.
//!
//! An IX/Demikernel/DPDK-style dataplane: each dedicated core busy-polls
//! one RX queue on the DMA NIC; flows are steered to queues by
//! exact-match flow-director rules programmed per service; handlers run
//! to completion on the owning core. The strengths (no interrupts, no
//! kernel, no context switches) and the weaknesses (cores burn cycles
//! while idle; requests for unbound services are dropped; changing a
//! binding costs a control-plane operation and a drain window) both
//! fall out of the structure.

use lauberhorn_nic_dma::DmaNic;
use lauberhorn_os::{CostModel, SocketBacklog};
use lauberhorn_packet::frame::{EndpointAddr, FRAME_OVERHEAD};
use lauberhorn_packet::rpcwire::RPC_HEADER_LEN;
use lauberhorn_packet::PktBuf;
use lauberhorn_sim::energy::{CoreState, CycleAccount, EnergyMeter};
use lauberhorn_sim::{EventQueue, OverloadConfig, SimDuration, SimTime, Stage};

use crate::bypass_ctl::{BindingManager, FlowDirector};
use crate::dma_host::DmaHost;
use crate::report::Report;
use crate::spec::{spec_of, ServiceSpec, WorkloadSpec};
use crate::stack::{Machine, MachineConfig, ServerStack, StackCommon, NIC_TRACK};

// The canonical home of this constant is the centralized machine
// catalogue; re-exported here for the historical import path.
pub use crate::stack::BASE_PORT;

/// Configuration.
#[derive(Debug, Clone)]
pub struct BypassSimConfig {
    /// Machine model ([`Machine::PcPcie`] or [`Machine::EnzianPcie`]).
    pub machine: Machine,
    /// Dedicated dataplane cores (one RX queue each).
    pub cores: usize,
    /// Rebind hot services to cores at every mix epoch (the policy a
    /// static stack is forced into under a rotating hot set);
    /// otherwise bindings are fixed at start.
    pub rebind_on_epoch: bool,
}

impl BypassSimConfig {
    /// Bypass on a modern server.
    pub fn modern(cores: usize) -> Self {
        BypassSimConfig {
            machine: Machine::PcPcie,
            cores,
            rebind_on_epoch: false,
        }
    }

    /// Bypass on Enzian's PCIe DMA path.
    pub fn enzian(cores: usize) -> Self {
        BypassSimConfig {
            machine: Machine::EnzianPcie,
            ..Self::modern(cores)
        }
    }
}

/// A packet in a core's backlog, queued at its DMA completion.
#[derive(Debug)]
struct PendingPkt {
    request_id: u64,
    service: u16,
    payload_len: usize,
}

#[derive(Debug)]
enum Ev {
    FrameAtNic {
        raw: PktBuf,
        request_id: u64,
    },
    CoreCheck {
        core: usize,
    },
    HandlerDone {
        core: usize,
        request_id: u64,
        service: u16,
    },
    EpochRebind,
}

/// The bypass server simulation.
pub struct BypassSim {
    cfg: BypassSimConfig,
    cost: CostModel,
    services: Vec<ServiceSpec>,
    host: DmaHost,
    fdir: FlowDirector,
    bindings: BindingManager,
    energy: EnergyMeter,
    /// Each core's software backlog. Under overload control the poll
    /// loop bounds it and sheds stale work at poll time. Fairness and
    /// pushback stay Lauberhorn-only -- a dataplane core has no
    /// per-service view and no NACK channel back to clients.
    pending: Vec<SocketBacklog<PendingPkt>>,
    overload: Option<OverloadConfig>,
    busy_until: Vec<SimTime>,
    check_scheduled: Vec<bool>,
    q: EventQueue<Ev>,
    common: StackCommon,
}

impl BypassSim {
    /// Builds the dataplane and binds every service round-robin over
    /// the dedicated cores.
    pub fn new(cfg: BypassSimConfig, services: Vec<ServiceSpec>) -> Self {
        let mut host = DmaHost::new(cfg.machine, cfg.cores as u32);
        for q in 0..cfg.cores as u32 {
            host.nic.mask_queue(q); // Polled mode: interrupts never fire.
        }
        let mut fdir = FlowDirector::new(4096);
        let mut bindings = BindingManager::default();
        for (i, s) in services.iter().enumerate() {
            let core = i % cfg.cores;
            bindings.bind(s.service_id, core, SimTime::ZERO);
            fdir.program(BASE_PORT + s.service_id, core as u32)
                // lint:allow(panic-path): construction-time flow-table setup
                .expect("table sized for the experiments");
        }
        let cost = cfg.machine.cost_model();
        BypassSim {
            cost,
            host,
            fdir,
            bindings,
            energy: EnergyMeter::new(cfg.cores),
            pending: (0..cfg.cores)
                .map(|_| SocketBacklog::for_overload(None))
                .collect(),
            overload: None,
            busy_until: vec![SimTime::ZERO; cfg.cores],
            check_scheduled: vec![false; cfg.cores],
            q: EventQueue::new(),
            common: StackCommon::default(),
            services,
            cfg,
        }
    }

    /// Read access to the NIC.
    pub fn nic(&self) -> &DmaNic {
        &self.host.nic
    }

    /// Rebinds performed over the run.
    pub fn rebinds(&self) -> u64 {
        self.bindings.rebinds()
    }

    fn schedule_check(&mut self, core: usize, at: SimTime) {
        if let Some(flag) = self.check_scheduled.get_mut(core) {
            if !*flag {
                *flag = true;
                self.q.schedule(at, Ev::CoreCheck { core });
            }
        }
    }

    fn on_frame(&mut self, raw: PktBuf, request_id: u64, now: SimTime) {
        // The NIC validates the IPv4/UDP checksums before steering: a
        // corrupted frame never reaches a descriptor.
        let Some(frame) = self.common.receive_frame(&raw, request_id, now) else {
            return;
        };
        // Steering: exact-match rule, else drop (no kernel to fall back
        // to in a pure bypass deployment).
        let Some(queue) = self.fdir.steer(frame.udp.dst_port) else {
            self.common.drop_request(request_id, now);
            return;
        };
        if self.common.rx_gate(request_id, now) == crate::stack::RxGate::Duplicate {
            return;
        }
        let service = frame.udp.dst_port.wrapping_sub(BASE_PORT);
        let payload_len = raw.len() - FRAME_OVERHEAD - RPC_HEADER_LEN;
        // The driver recycles the buffer at once (refill happens in the
        // poll loop on real systems; the copy to user space has
        // completed by then).
        let Some(delivery) =
            self.host
                .receive(&mut self.common, &raw, request_id, now, Some(queue))
        else {
            return;
        };
        let core = queue as usize;
        let pkt = PendingPkt {
            request_id,
            service,
            payload_len,
        };
        // A full backlog drops the newest packet (drop-tail, like the
        // kernel's SYN-style backlog).
        let queued = self
            .pending
            .get_mut(core)
            .is_some_and(|q| q.push(delivery.ready_at, pkt).is_ok());
        if !queued {
            self.common.drop_request(request_id, now);
            return;
        }
        self.schedule_check(core, delivery.ready_at);
    }

    fn on_core_check(&mut self, core: usize, now: SimTime) {
        if let Some(flag) = self.check_scheduled.get_mut(core) {
            *flag = false;
        }
        // Deadline shedding at poll time: work that has waited past its
        // budget is stale by the time a response could reach the client,
        // so the poll loop discards it instead of burning the core.
        while let Some(p) = self.pending.get_mut(core).and_then(|q| q.pop_stale(now)) {
            self.common.drop_request(p.request_id, now);
        }
        let Some((ready_at, front)) = self.pending.get(core).and_then(|q| q.front()) else {
            return;
        };
        let service = front.service;
        // The service may be mid-rebind (drain window).
        let bind_ok = self.bindings.available(service, now);
        let busy = self.busy_until.get(core).copied().unwrap_or(now);
        let start = now.max(busy).max(ready_at);
        if start > now || !bind_ok {
            let retry = if bind_ok {
                start
            } else {
                now + SimDuration::from_us(5)
            };
            self.schedule_check(core, retry);
            return;
        }
        let Some((_, pkt)) = self.pending.get_mut(core).and_then(|q| q.pop()) else {
            return;
        };
        let lane = core as u32;
        if now > ready_at {
            // RX-ring residence: DMA-complete at `ready_at`, poll
            // pick-up now. Queueing on the critical path.
            self.common
                .stage_span(Stage::Queue, pkt.request_id, lane, ready_at, now);
        }
        // The bypass receive path: one poll iteration found the packet,
        // minimal user-space protocol handling, dispatch, software
        // unmarshal (no NIC offload here), then the handler.
        let m = &self.cost;
        let spec = spec_of(&self.services, service);
        let sw = m.poll_iteration + 250 + 30 + m.unmarshal(pkt.payload_len) + 60;
        let sw_total = sw + m.copy(spec.response_bytes);
        let handler = spec.service_time.sample(&mut self.common.rng);
        let handler_start = now + m.cycles(sw);
        self.common.start_handler(pkt.request_id, handler_start);
        // Attributed per request (the driver folds it in only for
        // warmed completions, like the other stacks).
        self.common.charge_req(pkt.request_id, sw_total);
        self.common.split_spans(
            pkt.request_id,
            lane,
            now..handler_start,
            m,
            &[(Stage::Poll, m.poll_iteration), (Stage::Protocol, 250 + 30)],
            Stage::Unmarshal,
        );
        let done = now + self.cost.cycles(sw + handler);
        if let Some(b) = self.busy_until.get_mut(core) {
            *b = done;
        }
        self.q.schedule(
            done,
            Ev::HandlerDone {
                core,
                request_id: pkt.request_id,
                service,
            },
        );
    }

    fn on_handler_done(&mut self, core: usize, request_id: u64, service: u16, now: SimTime) {
        // Transmit the response: build descriptor, ring the doorbell.
        let resp_len = spec_of(&self.services, service).response_bytes;
        let frame_len = FRAME_OVERHEAD + RPC_HEADER_LEN + resp_len;
        let tx_done = self.host.transmit(now, frame_len);
        self.common.end_handler(request_id, core as u32, now);
        self.common
            .stage_span(Stage::Response, request_id, NIC_TRACK, now, tx_done);
        self.common.respond(request_id, tx_done, frame_len);
        let doorbell_done = now + self.host.nic.doorbell_cost();
        if let Some(b) = self.busy_until.get_mut(core) {
            *b = (*b).max(doorbell_done);
        }
        // Back to polling.
        if self.pending.get(core).is_some_and(|q| !q.is_empty()) {
            let busy = self.busy_until.get(core).copied().unwrap_or(doorbell_done);
            self.schedule_check(core, busy);
        }
    }

    fn on_epoch_rebind(&mut self, now: SimTime, workload: &WorkloadSpec) {
        // The forced reconfiguration of a static stack under a rotating
        // hot set: put the top-`cores` services on dedicated cores.
        let hot = workload.mix.hot_set(self.cfg.cores, now);
        for (i, s) in hot.iter().enumerate() {
            self.bindings.bind(*s, i, now);
            if self.fdir.program(BASE_PORT + s, i as u32).is_err() {
                debug_assert!(false, "flow table sized for the experiments");
            }
        }
    }

    /// The epoch length of `workload`'s mix, in picoseconds, found by
    /// bisecting `epoch_at`.
    fn epoch_len_ps(workload: &WorkloadSpec) -> u64 {
        let mut hi = 1u64;
        while workload.mix.epoch_at(SimTime::from_ps(hi)) == 0 {
            if hi > u64::MAX / 2 {
                return u64::MAX;
            }
            hi *= 2;
        }
        let mut lo = hi / 2;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if workload.mix.epoch_at(SimTime::from_ps(mid)) == 0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Runs `workload` under the generic driver and reports.
    pub fn run(&mut self, workload: &WorkloadSpec) -> Report {
        crate::driver::run(self, workload)
    }
}

impl ServerStack for BypassSim {
    fn build(machine: MachineConfig, services: Vec<ServiceSpec>) -> Self {
        // lint:allow(panic-path): construction-time config validation
        assert!(
            !machine.machine.is_coherent(),
            "the bypass stack needs a DMA NIC, not a coherent fabric"
        );
        let cfg = BypassSimConfig {
            machine: machine.machine,
            ..BypassSimConfig::modern(machine.cores)
        };
        BypassSim::new(cfg, services)
    }

    fn name(&self) -> &'static str {
        match self.cfg.machine {
            Machine::EnzianPcie => "bypass/enzian-pcie-dma",
            _ => "bypass/pc-pcie-dma",
        }
    }

    fn server_addr(&self, service: u16) -> EndpointAddr {
        DmaHost::server_addr(service)
    }

    fn common(&mut self) -> &mut StackCommon {
        &mut self.common
    }

    fn prepare(&mut self, workload: &WorkloadSpec) {
        self.overload = workload.overload.clone();
        for q in &mut self.pending {
            *q = SocketBacklog::for_overload(self.overload.as_ref());
        }
        // Dedicated cores spin from t = 0 to the end: always Active.
        for c in 0..self.cfg.cores {
            self.energy.set_state(c, CoreState::Active, SimTime::ZERO);
        }
        if self.cfg.rebind_on_epoch {
            let epoch_ps = Self::epoch_len_ps(workload);
            let mut t = epoch_ps;
            while epoch_ps != u64::MAX && SimTime::from_ps(t) <= self.common.end_of_load {
                self.q.schedule(SimTime::from_ps(t), Ev::EpochRebind);
                t = t.saturating_add(epoch_ps);
            }
        }
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.q.peek_time()
    }

    fn step(&mut self, workload: &WorkloadSpec) {
        let Some((now, ev)) = self.q.pop() else {
            return;
        };
        match ev {
            Ev::FrameAtNic { raw, request_id } => self.on_frame(raw, request_id, now),
            Ev::CoreCheck { core } => self.on_core_check(core, now),
            Ev::HandlerDone {
                core,
                request_id,
                service,
            } => self.on_handler_done(core, request_id, service, now),
            Ev::EpochRebind => self.on_epoch_rebind(now, workload),
        }
    }

    fn inject_frame(&mut self, at: SimTime, raw: PktBuf, request_id: u64) {
        self.q.schedule(at, Ev::FrameAtNic { raw, request_id });
    }

    fn finish(&mut self, end: SimTime) -> (CycleAccount, u64) {
        let total = self.energy.snapshot_total(end);
        // Bus traffic: the NIC's PCIe transactions plus one memory poll
        // per spin iteration (the dominant idle-time term).
        let per_poll = self.cost.cycles(self.cost.poll_iteration);
        let spin_reads = total.active.as_ps() / per_poll.as_ps().max(1);
        let reg = &mut self.common.metrics.registry;
        let fabric = self.host.finish(reg, spin_reads);
        reg.counter("bypass.rebinds", self.bindings.rebinds());
        reg.counter("bypass.spin_reads", spin_reads);
        // Exported only when overload control is armed so clean runs
        // keep a byte-identical metrics digest.
        if self.overload.is_some() {
            let (rej, exp) = self
                .pending
                .iter()
                .fold((0u64, 0u64), |(r, e), b| (r + b.rejected, e + b.expired));
            reg.counter("bypass.overload.shed_capacity", rej);
            reg.counter("bypass.overload.shed_deadline", exp);
            reg.counter("bypass.overload.shed", rej + exp);
        }
        (total, fabric)
    }
}
