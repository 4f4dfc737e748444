//! The traditional kernel-stack machine simulation.
//!
//! The Figure 1 receive path, end to end: the DMA NIC steers by RSS and
//! DMAs frames into ring buffers; an MSI-X interrupt enters the kernel;
//! NAPI masks the vector and polls the ring in softirq context; each
//! packet pays driver + IP + UDP processing and a socket lookup; the
//! blocked receiver thread is woken through the scheduler (IPI if it
//! lands on another core); a context switch and a `recvmsg` copyout
//! later, user space unmarshals and finally calls the handler. The
//! response pays `sendmsg`, a doorbell, and two DMA reads on the NIC.
//!
//! The flexibility the paper credits this design with is real and
//! modelled: any service runs anywhere, cores sleep when idle, and no
//! reconfiguration is ever needed — the costs are just paid per packet.

use std::collections::{BTreeMap, VecDeque};

use lauberhorn_coherence::cache::{Access, SetAssocCache};
use lauberhorn_coherence::LineAddr;
use lauberhorn_nic_dma::nic::RxDrop;
use lauberhorn_nic_dma::ring::{RxDescriptor, TxDescriptor};
use lauberhorn_nic_dma::{DmaNic, DmaNicConfig};
use lauberhorn_os::proc::ThreadId;
use lauberhorn_os::sched::WakeDecision;
use lauberhorn_os::{CostModel, OsScheduler, SocketBacklog};
use lauberhorn_packet::frame::{EndpointAddr, FRAME_OVERHEAD};
use lauberhorn_packet::rpcwire::RPC_HEADER_LEN;
use lauberhorn_packet::PktBuf;
use lauberhorn_sim::energy::{CoreState, CycleAccount, EnergyMeter};
use lauberhorn_sim::{EventQueue, SimDuration, SimTime, SpanId, Stage};

use crate::report::Report;
use crate::spec::{ServiceSpec, WorkloadSpec};
use crate::stack::{Machine, MachineConfig, ServerStack, StackCommon, BASE_PORT, NIC_TRACK};
use crate::wire::WireModel;

/// NAPI poll budget (packets per softirq pass).
const NAPI_BUDGET: usize = 16;

/// Configuration.
#[derive(Debug, Clone)]
pub struct KernelSimConfig {
    /// Machine model ([`Machine::PcPcie`] or [`Machine::EnzianPcie`]).
    pub machine: Machine,
    /// Cores available to the OS.
    pub cores: usize,
    /// Whether the NIC allocates incoming payloads into the LLC
    /// (DDIO-style). Off, every payload copy misses to DRAM.
    pub ddio: bool,
    /// Network model.
    pub wire: WireModel,
}

impl KernelSimConfig {
    /// Kernel stack on a modern server.
    pub fn modern(cores: usize) -> Self {
        KernelSimConfig {
            machine: Machine::PcPcie,
            cores,
            ddio: true,
            wire: WireModel::same_rack_100g(),
        }
    }

    /// Kernel stack on Enzian.
    pub fn enzian(cores: usize) -> Self {
        KernelSimConfig {
            machine: Machine::EnzianPcie,
            ..Self::modern(cores)
        }
    }
}

#[derive(Debug)]
struct PendingPkt {
    ready_at: SimTime,
    request_id: u64,
    service: u16,
    payload_len: usize,
    buf_iova: u64,
}

#[derive(Debug)]
enum Ev {
    FrameAtNic {
        raw: PktBuf,
        request_id: u64,
    },
    Irq {
        queue: u32,
        core: usize,
    },
    SoftirqPoll {
        queue: u32,
        core: usize,
    },
    UserRun {
        core: usize,
        service: u16,
        fresh: bool,
    },
    HandlerDone {
        core: usize,
        request_id: u64,
        service: u16,
    },
}

/// The kernel-stack server simulation.
pub struct KernelSim {
    cfg: KernelSimConfig,
    cost: CostModel,
    services: Vec<ServiceSpec>,
    nic: DmaNic,
    sched: OsScheduler,
    energy: EnergyMeter,
    pending: Vec<VecDeque<PendingPkt>>,
    socket_q: BTreeMap<u16, SocketBacklog<(u64, usize, u64)>>,
    /// Per-socket backlog limits when overload control is armed
    /// (`cap`, deadline budget); `(None, None)` = the traditional
    /// unbounded receive queue.
    sock_limits: (Option<usize>, Option<SimDuration>),
    /// LLC model for DDIO: did the payload land in cache before the
    /// copy touches it?
    llc: SetAssocCache,
    poll_active: Vec<bool>,
    busy_until: Vec<SimTime>,
    q: EventQueue<Ev>,
    common: StackCommon,
    next_buf: u64,
    server_ip: EndpointAddr,
}

impl KernelSim {
    /// Builds the machine; one receiver thread per service, all blocked
    /// in `recvmsg`.
    pub fn new(cfg: KernelSimConfig, services: Vec<ServiceSpec>) -> Self {
        let queues = cfg.cores.min(16) as u32;
        let nic_cfg = match cfg.machine {
            Machine::EnzianPcie => DmaNicConfig {
                interrupt_holdoff: SimDuration::ZERO,
                ..DmaNicConfig::enzian_fpga(queues)
            },
            // NAPI masking governs interrupt moderation.
            _ => DmaNicConfig {
                interrupt_holdoff: SimDuration::ZERO,
                ..DmaNicConfig::modern_server(queues)
            },
        };
        let mut nic = DmaNic::new(nic_cfg);
        nic.iommu_mut().map(0x100_0000, 0x100_0000, 256 << 20, true);
        for qi in 0..queues {
            for b in 0..128u64 {
                nic.post_rx(
                    qi,
                    RxDescriptor {
                        buf_iova: 0x100_0000 + (qi as u64 * 128 + b) * 16384,
                        buf_len: 16384,
                    },
                )
                // lint:allow(panic-path): construction-time ring setup
                .expect("fresh ring has room");
            }
            nic.steer_queue(qi, qi as usize % cfg.cores);
        }
        let mut sched = OsScheduler::new(cfg.cores);
        for s in &services {
            sched.register(ThreadId(s.service_id as u32), s.process, None);
        }
        let cost = cfg.machine.cost_model();
        KernelSim {
            cost,
            nic,
            sched,
            energy: EnergyMeter::new(cfg.cores),
            pending: (0..queues as usize).map(|_| VecDeque::new()).collect(),
            socket_q: BTreeMap::new(),
            sock_limits: (None, None),
            // A 1 MiB slice of LLC capacity for network buffers.
            llc: SetAssocCache::new(1 << 20, 16, 64),
            poll_active: vec![false; queues as usize],
            busy_until: vec![SimTime::ZERO; cfg.cores],
            q: EventQueue::new(),
            common: StackCommon::new(cfg.wire),
            next_buf: 0,
            server_ip: EndpointAddr::host(1, BASE_PORT),
            services,
            cfg,
        }
    }

    /// Read access to the NIC.
    pub fn nic(&self) -> &DmaNic {
        &self.nic
    }

    fn spec_of(&self, service: u16) -> &ServiceSpec {
        self.services
            .iter()
            .find(|s| s.service_id == service)
            // lint:allow(panic-path): services are fixed at construction and ports map to registered ids
            .expect("request targets a registered service")
    }

    /// Runs `cycles` of work on `core` no earlier than `earliest`,
    /// serialized behind whatever the core was doing. Returns
    /// `(start, end)`.
    fn charge_core(&mut self, core: usize, earliest: SimTime, cycles: u64) -> (SimTime, SimTime) {
        let start = earliest.max(self.busy_until.get(core).copied().unwrap_or(earliest));
        let end = start + self.cost.cycles(cycles);
        self.energy.set_state(core, CoreState::Active, start);
        self.energy.set_state(core, CoreState::Idle, end);
        if let Some(b) = self.busy_until.get_mut(core) {
            *b = end;
        }
        (start, end)
    }

    fn on_frame(&mut self, raw: PktBuf, request_id: u64, now: SimTime) {
        self.common.note_arrival(request_id, now);
        // The real IPv4/UDP checksums catch in-flight corruption here,
        // exactly where a kernel NIC driver would discard the frame.
        let Ok(frame) = lauberhorn_packet::parse_udp_frame_ref(&raw) else {
            self.common.reject_corrupt(request_id, now);
            return;
        };
        let service = frame.udp.dst_port.wrapping_sub(BASE_PORT);
        if self.common.rx_gate(request_id, now) == crate::stack::RxGate::Duplicate {
            return;
        }
        let payload_len = raw.len() - FRAME_OVERHEAD - RPC_HEADER_LEN;
        match self.nic.rx_packet(now, &raw) {
            Ok(delivery) => {
                let queue = delivery.queue;
                // Recycle the buffer (drivers refill during NAPI polls).
                if self.nic.post_rx(queue, delivery.desc).is_err() {
                    debug_assert!(false, "slot was just freed");
                }
                // DDIO: the DMA write allocates the payload into the LLC.
                if self.cfg.ddio {
                    let lines = (raw.len()).div_ceil(64) as u64;
                    for i in 0..lines {
                        self.llc
                            .install(LineAddr::containing(delivery.desc.buf_iova + i * 64, 64));
                    }
                }
                if let Some(q) = self.pending.get_mut(queue as usize) {
                    q.push_back(PendingPkt {
                        ready_at: delivery.ready_at,
                        request_id,
                        service,
                        payload_len,
                        buf_iova: delivery.desc.buf_iova,
                    });
                }
                if let Some((core, at)) = delivery.interrupt {
                    self.q.schedule(at, Ev::Irq { queue, core });
                }
                // If the vector was masked, NAPI is active (or the
                // unmask on poll completion will re-raise).
            }
            Err(RxDrop::NoDescriptor { .. }) => {
                self.common.drop_request(request_id, now);
            }
            Err(e) => {
                debug_assert!(false, "rx failed: {e:?}");
                self.common.drop_request(request_id, now);
            }
        }
    }

    fn on_irq(&mut self, queue: u32, core: usize, now: SimTime) {
        // Hard IRQ: mask the vector, schedule the softirq.
        self.nic.mask_queue(queue);
        if let Some(p) = self.poll_active.get_mut(queue as usize) {
            *p = true;
        }
        let (s, end) =
            self.charge_core(core, now, self.cost.irq_entry + self.cost.softirq_dispatch);
        self.common
            .tracer
            .span(Stage::Irq, None, SpanId::NONE, core as u32, s, end);
        self.q.schedule(end, Ev::SoftirqPoll { queue, core });
    }

    fn on_softirq(&mut self, queue: u32, core: usize, now: SimTime) {
        let qi = queue as usize;
        let mut t = now.max(self.busy_until.get(core).copied().unwrap_or(now));
        let sirq_start = t;
        let mut processed = 0usize;
        while processed < NAPI_BUDGET {
            let Some(front_ready) = self
                .pending
                .get(qi)
                .and_then(|q| q.front())
                .map(|p| p.ready_at)
            else {
                break;
            };
            if front_ready > t {
                break;
            }
            let Some(pkt) = self.pending.get_mut(qi).and_then(|q| q.pop_front()) else {
                break;
            };
            let per_pkt =
                self.cost.netstack_per_pkt + self.cost.skb_management + self.cost.socket_lookup;
            let (ps, end) = self.charge_core(core, t, per_pkt);
            t = end;
            self.common.charge_req(pkt.request_id, per_pkt);
            let root = self.common.root_span(pkt.request_id);
            self.common.tracer.span(
                Stage::Protocol,
                Some(pkt.request_id),
                root,
                core as u32,
                ps,
                end,
            );
            // Enqueue on the destination socket (bounded SYN-style when
            // overload control is armed) and wake its thread.
            let (cap, deadline) = self.sock_limits;
            let backlog = self.socket_q.entry(pkt.service).or_insert_with(|| {
                let b = match cap {
                    Some(c) => SocketBacklog::bounded(c),
                    None => SocketBacklog::unbounded(),
                };
                match deadline {
                    Some(d) => b.with_deadline(d),
                    None => b,
                }
            });
            if backlog
                .push(t, (pkt.request_id, pkt.payload_len, pkt.buf_iova))
                .is_err()
            {
                // Backlog full: shed at the socket instead of letting
                // the queue grow without bound (graceful degradation).
                self.common.drop_request(pkt.request_id, t);
                processed += 1;
                continue;
            }
            let tid = ThreadId(pkt.service as u32);
            match self.sched.wakeup(tid) {
                Ok(WakeDecision::RunOn { core: target }) => {
                    let wake = self.cost.wakeup + self.cost.sched_pick;
                    let (ws, end) = self.charge_core(core, t, wake);
                    t = end;
                    self.common.charge_req(pkt.request_id, wake);
                    let mut start_at = t;
                    if target != core {
                        // Cross-core wakeup: IPI.
                        let (_, e2) = self.charge_core(core, t, self.cost.ipi_send);
                        t = e2;
                        start_at = e2 + self.cost.cycles(self.cost.ipi_receive);
                        self.common
                            .charge_req(pkt.request_id, self.cost.ipi_send + self.cost.ipi_receive);
                    }
                    self.common.tracer.span(
                        Stage::Wakeup,
                        Some(pkt.request_id),
                        root,
                        core as u32,
                        ws,
                        t,
                    );
                    self.q.schedule(
                        start_at,
                        Ev::UserRun {
                            core: target,
                            service: pkt.service,
                            fresh: true,
                        },
                    );
                }
                Ok(WakeDecision::Enqueued { .. }) | Ok(WakeDecision::AlreadyActive) => {
                    // The thread is running or queued; it will drain its
                    // socket when it gets the CPU.
                    let wake = self.cost.wakeup;
                    let (ws, end) = self.charge_core(core, t, wake);
                    t = end;
                    self.common.tracer.span(
                        Stage::Wakeup,
                        Some(pkt.request_id),
                        root,
                        core as u32,
                        ws,
                        end,
                    );
                }
                Err(_) => {
                    // No thread serves this socket (the workload asked
                    // for a service nobody registered): the kernel
                    // discards the datagram instead of crashing.
                    self.socket_q
                        .get_mut(&pkt.service)
                        .and_then(|q| q.pop_newest());
                    self.common.drop_request(pkt.request_id, t);
                }
            }
            processed += 1;
        }
        let next_ready = self
            .pending
            .get(qi)
            .and_then(|q| q.front())
            .map(|p| p.ready_at);
        if let Some(next_ready) = next_ready {
            // More work (or not yet DMA-complete): poll again.
            self.common.tracer.span(
                Stage::Softirq,
                None,
                SpanId::NONE,
                core as u32,
                sirq_start,
                t,
            );
            self.q
                .schedule(t.max(next_ready), Ev::SoftirqPoll { queue, core });
        } else {
            // Drained: exit softirq, unmask; a latched interrupt
            // re-enters immediately.
            if let Some(p) = self.poll_active.get_mut(qi) {
                *p = false;
            }
            let (_, end) = self.charge_core(core, t, self.cost.irq_exit);
            self.common.tracer.span(
                Stage::Softirq,
                None,
                SpanId::NONE,
                core as u32,
                sirq_start,
                end,
            );
            if let Some(target) = self.nic.unmask_queue(queue) {
                self.q.schedule(
                    end,
                    Ev::Irq {
                        queue,
                        core: target,
                    },
                );
            }
        }
    }

    fn on_user_run(&mut self, core: usize, service: u16, fresh: bool, now: SimTime) {
        let (stale, next) = match self.socket_q.get_mut(&service) {
            Some(queue) => {
                // Deadline-aware shedding at dequeue: a datagram that
                // already blew its latency budget in the backlog is
                // not worth a recvmsg.
                let mut stale = Vec::new();
                while let Some((id, _, _)) = queue.pop_stale(now) {
                    stale.push(id);
                }
                (stale, queue.pop())
            }
            None => (Vec::new(), None),
        };
        for id in stale {
            self.common.drop_request(id, now);
        }
        let Some((enq_t, (request_id, payload_len, buf_iova))) = next else {
            // Spurious wakeup (or everything shed): block again.
            self.block_and_dispatch(core, now);
            return;
        };
        if self.common.tracer.is_enabled() && now > enq_t {
            // Socket-backlog residence: enqueue at softirq time, pick-up
            // now. Queueing, not service — blame tables split on it.
            let root = self.common.root_span(request_id);
            self.common.tracer.span(
                Stage::Queue,
                Some(request_id),
                root,
                core as u32,
                enq_t,
                now,
            );
        }
        // The recvmsg copy touches every payload line: LLC hits are the
        // base copy cost; misses stall to DRAM (~180 cycles each).
        let mut miss_cycles = 0u64;
        for i in 0..(payload_len.div_ceil(64) as u64) {
            if let Access::Miss { .. } =
                self.llc.access(LineAddr::containing(buf_iova + i * 64, 64))
            {
                miss_cycles += 180;
            }
        }
        let m = &self.cost;
        let mut sw =
            m.syscall + m.copy(payload_len) + miss_cycles + m.unmarshal(payload_len) + 60 + 5;
        if fresh {
            sw += m.full_context_switch();
        }
        let (s0, handler_start) = self.charge_core(core, now, sw);
        self.common.charge_req(request_id, sw);
        if let Some(t) = self.common.times_mut(request_id) {
            t.handler_start = handler_start;
        }
        if self.common.tracer.is_enabled() {
            // Sub-span boundaries re-derive the cost breakdown from the
            // same model values; the single charge above is untouched.
            // Boundaries clamp to `handler_start` so per-term rounding
            // can never push a sub-span past the charged window.
            let root = self.common.root_span(request_id);
            let lane = core as u32;
            let m = &self.cost;
            let mut t = s0;
            let mut sub = |tr: &mut lauberhorn_sim::SpanTracer, stage, cycles: u64| {
                let e = (t + m.cycles(cycles)).min(handler_start);
                tr.span(stage, Some(request_id), root, lane, t, e);
                t = e;
            };
            let tr = &mut self.common.tracer;
            if fresh {
                sub(tr, Stage::ContextSwitch, m.full_context_switch());
            }
            sub(tr, Stage::Syscall, m.syscall);
            sub(tr, Stage::Copy, m.copy(payload_len) + miss_cycles);
            tr.span(
                Stage::Unmarshal,
                Some(request_id),
                root,
                lane,
                t,
                handler_start,
            );
        }
        let spec_time = self.spec_of(service).service_time;
        let handler = spec_time.sample(&mut self.common.rng);
        let (_, done) = self.charge_core(core, handler_start, handler);
        self.q.schedule(
            done,
            Ev::HandlerDone {
                core,
                request_id,
                service,
            },
        );
    }

    fn block_and_dispatch(&mut self, core: usize, now: SimTime) {
        match self.sched.block_current(core) {
            Ok(Some(next)) => {
                let service = next.0 as u16;
                let (_, end) = self.charge_core(core, now, self.cost.sched_pick);
                self.q.schedule(
                    end,
                    Ev::UserRun {
                        core,
                        service,
                        fresh: true,
                    },
                );
            }
            Ok(None) => {
                self.energy.set_state(core, CoreState::Idle, now);
            }
            Err(e) => {
                debug_assert!(false, "block: {e}");
                self.energy.set_state(core, CoreState::Idle, now);
            }
        }
    }

    fn on_handler_done(&mut self, core: usize, request_id: u64, service: u16, now: SimTime) {
        let resp_len = self.spec_of(service).response_bytes;
        let frame_len = FRAME_OVERHEAD + RPC_HEADER_LEN + resp_len;
        // sendmsg: syscall, copy, doorbell.
        let sw = self.cost.syscall + self.cost.copy(resp_len);
        let (send_s, end) = self.charge_core(core, now, sw);
        self.common.charge_req(request_id, sw);
        self.next_buf = (self.next_buf + 1) % 1024;
        let tx_done = match self.nic.tx_packet(
            end + self.nic.doorbell_cost(),
            TxDescriptor {
                buf_iova: 0x100_0000 + self.next_buf * 16384,
                len: frame_len as u32,
            },
        ) {
            Ok(t) => t,
            Err(e) => {
                // TX ring exhaustion is not modelled as backpressure:
                // send at the doorbell time and flag the model bug.
                debug_assert!(false, "tx failed: {e:?}");
                end + self.nic.doorbell_cost()
            }
        };
        if let Some(t) = self.common.times_mut(request_id) {
            t.handler_end = now;
            t.response_tx = tx_done;
        }
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
                Stage::SendMsg,
                Some(request_id),
                root,
                core as u32,
                send_s,
                end,
            );
            tr.span(
                Stage::Response,
                Some(request_id),
                root,
                NIC_TRACK,
                end,
                tx_done,
            );
        }
        let arrive = tx_done + self.common.wire.deliver(frame_len);
        self.common.complete(arrive, request_id);
        // More requests on this socket? Stay in recvmsg loop (warm).
        let more = self.socket_q.get(&service).is_some_and(|q| !q.is_empty());
        if more {
            self.q.schedule(
                end,
                Ev::UserRun {
                    core,
                    service,
                    fresh: false,
                },
            );
        } else {
            self.block_and_dispatch(core, end);
        }
    }

    /// Runs `workload` under the generic driver and reports.
    pub fn run(&mut self, workload: &WorkloadSpec) -> Report {
        crate::driver::run(self, workload)
    }
}

impl ServerStack for KernelSim {
    fn build(machine: MachineConfig, services: Vec<ServiceSpec>) -> Self {
        // lint:allow(panic-path): construction-time config validation
        assert!(
            !machine.machine.is_coherent(),
            "the kernel stack needs a DMA NIC, not a coherent fabric"
        );
        let cfg = KernelSimConfig {
            machine: machine.machine,
            cores: machine.cores,
            wire: machine.wire,
            ..KernelSimConfig::modern(machine.cores)
        };
        KernelSim::new(cfg, services)
    }

    fn name(&self) -> &'static str {
        match self.cfg.machine {
            Machine::EnzianPcie => "kernel/enzian-pcie-dma",
            _ => "kernel/pc-pcie-dma",
        }
    }

    fn server_addr(&self, service: u16) -> EndpointAddr {
        EndpointAddr {
            port: BASE_PORT + service,
            ..self.server_ip
        }
    }

    fn common(&mut self) -> &mut StackCommon {
        &mut self.common
    }

    fn prepare(&mut self, workload: &WorkloadSpec) {
        // Kernel analogue of the NIC's overload control: bounded
        // per-socket backlogs (SYN-backlog style) plus a deadline
        // budget. Fairness and pushback stay Lauberhorn-only — a DMA
        // NIC has no per-service view and no NACK channel.
        if let Some(overload) = &workload.overload {
            self.sock_limits = (Some(overload.queue_cap), overload.deadline);
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
            Ev::FrameAtNic { raw, request_id } => self.on_frame(raw, request_id, now),
            Ev::Irq { queue, core } => self.on_irq(queue, core, now),
            Ev::SoftirqPoll { queue, core } => self.on_softirq(queue, core, now),
            Ev::UserRun {
                core,
                service,
                fresh,
            } => self.on_user_run(core, service, fresh, now),
            Ev::HandlerDone {
                core,
                request_id,
                service,
            } => self.on_handler_done(core, request_id, service, now),
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
        let stats = self.nic.stats();
        let reg = &mut self.common.metrics.registry;
        stats.export(reg);
        self.sched.stats().export(reg);
        // Overload counters only exist when overload control is armed,
        // preserving the zero-perturbation digest of clean runs.
        if self.sock_limits != (None, None) {
            let (rej, exp) = self
                .socket_q
                .values()
                .fold((0u64, 0u64), |(r, e), b| (r + b.rejected, e + b.expired));
            reg.counter("os.overload.shed_capacity", rej);
            reg.counter("os.overload.shed_deadline", exp);
            reg.counter("os.overload.shed", rej + exp);
        }
        let fabric = stats.rx_delivered * 4 + stats.tx_frames * 3 + stats.interrupts;
        (total, fabric)
    }
}
