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
use lauberhorn_nic_dma::DmaNic;
use lauberhorn_os::proc::ThreadId;
use lauberhorn_os::sched::WakeDecision;
use lauberhorn_os::{CostModel, OsScheduler, SocketBacklog};
use lauberhorn_packet::frame::{EndpointAddr, FRAME_OVERHEAD};
use lauberhorn_packet::rpcwire::RPC_HEADER_LEN;
use lauberhorn_packet::PktBuf;
use lauberhorn_sim::energy::{CoreState, CycleAccount, EnergyMeter};
use lauberhorn_sim::{EventQueue, OverloadConfig, SimTime, SpanId, Stage};

use crate::dma_host::DmaHost;
use crate::report::Report;
use crate::spec::{spec_of, ServiceSpec, WorkloadSpec};
use crate::stack::{Machine, MachineConfig, ServerStack, StackCommon, BASE_PORT, NIC_TRACK};

/// NAPI poll budget (packets per softirq pass).
const NAPI_BUDGET: usize = 16;

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
    machine: Machine,
    cost: CostModel,
    services: Vec<ServiceSpec>,
    host: DmaHost,
    sched: OsScheduler,
    energy: EnergyMeter,
    pending: Vec<VecDeque<PendingPkt>>,
    socket_q: BTreeMap<u16, SocketBacklog<(u64, usize, u64)>>,
    /// Overload control, when the workload arms it: it bounds each
    /// socket backlog.
    overload: Option<OverloadConfig>,
    /// LLC model for DDIO (the NIC allocates incoming payloads into
    /// the LLC): did the payload land in cache before the copy touches
    /// it?
    llc: SetAssocCache,
    poll_active: Vec<bool>,
    busy_until: Vec<SimTime>,
    q: EventQueue<Ev>,
    common: StackCommon,
}

impl KernelSim {
    /// Builds the machine; one receiver thread per service, all blocked
    /// in `recvmsg`.
    pub fn new(machine: MachineConfig, services: Vec<ServiceSpec>) -> Self {
        let MachineConfig { machine, cores } = machine;
        let queues = cores.min(16) as u32;
        // NAPI masking governs interrupt moderation.
        let mut host = DmaHost::new(machine, queues);
        for q in 0..queues {
            host.nic.steer_queue(q, q as usize % cores);
        }
        let mut sched = OsScheduler::new(cores);
        for s in &services {
            sched.register(ThreadId(s.service_id as u32));
        }
        KernelSim {
            machine,
            cost: machine.cost_model(),
            host,
            sched,
            energy: EnergyMeter::new(cores),
            pending: (0..queues as usize).map(|_| VecDeque::new()).collect(),
            socket_q: BTreeMap::new(),
            overload: None,
            // A 1 MiB slice of LLC capacity for network buffers.
            llc: SetAssocCache::new(1 << 20, 16, 64),
            poll_active: vec![false; queues as usize],
            busy_until: vec![SimTime::ZERO; cores],
            q: EventQueue::new(),
            common: StackCommon::default(),
            services,
        }
    }

    /// Read access to the NIC.
    pub fn nic(&self) -> &DmaNic {
        &self.host.nic
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
        // The real IPv4/UDP checksums catch in-flight corruption here,
        // exactly where a kernel NIC driver would discard the frame.
        let Some(frame) = self.common.receive_frame(&raw, request_id, now) else {
            return;
        };
        let service = frame.udp.dst_port.wrapping_sub(BASE_PORT);
        if self.common.rx_gate(request_id, now) == crate::stack::RxGate::Duplicate {
            return;
        }
        let payload_len = raw.len() - FRAME_OVERHEAD - RPC_HEADER_LEN;
        // RSS picks the queue; the buffer is recycled at once (drivers
        // refill during NAPI polls).
        let Some(delivery) = self
            .host
            .receive(&mut self.common, &raw, request_id, now, None)
        else {
            return;
        };
        let queue = delivery.queue;
        // DDIO: the DMA write allocates the payload into the LLC.
        let lines = (raw.len()).div_ceil(64) as u64;
        for i in 0..lines {
            self.llc
                .install(LineAddr::containing(delivery.desc.buf_iova + i * 64, 64));
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
        // If the vector was masked, NAPI is active (or the unmask on
        // poll completion will re-raise).
    }

    fn on_irq(&mut self, queue: u32, core: usize, now: SimTime) {
        // Hard IRQ: mask the vector, schedule the softirq.
        self.host.nic.mask_queue(queue);
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
            self.common
                .stage_span(Stage::Protocol, pkt.request_id, core as u32, ps, end);
            // Enqueue on the destination socket (bounded SYN-style when
            // overload control is armed) and wake its thread.
            let backlog = self
                .socket_q
                .entry(pkt.service)
                .or_insert_with(|| SocketBacklog::for_overload(self.overload.as_ref()));
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
                    self.common
                        .stage_span(Stage::Wakeup, pkt.request_id, core as u32, ws, t);
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
                    self.common
                        .stage_span(Stage::Wakeup, pkt.request_id, core as u32, ws, end);
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
            if let Some(target) = self.host.nic.unmask_queue(queue) {
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
        let lane = core as u32;
        if now > enq_t {
            // Socket-backlog residence: enqueue at softirq time, pick-up
            // now. Queueing, not service — blame tables split on it.
            self.common
                .stage_span(Stage::Queue, request_id, lane, enq_t, now);
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
        let copy = m.copy(payload_len) + miss_cycles;
        let mut sw = m.syscall + copy + m.unmarshal(payload_len) + 60 + 5;
        if fresh {
            sw += m.full_context_switch();
        }
        let (s0, handler_start) = self.charge_core(core, now, sw);
        self.common.charge_req(request_id, sw);
        self.common.start_handler(request_id, handler_start);
        // The single charge above, broken down by stage; a warm
        // receiver pays no context switch.
        let m = &self.cost;
        let parts = [
            (Stage::ContextSwitch, m.full_context_switch()),
            (Stage::Syscall, m.syscall),
            (Stage::Copy, copy),
        ];
        let parts = parts.get(usize::from(!fresh)..).unwrap_or_default();
        self.common.split_spans(
            request_id,
            lane,
            s0..handler_start,
            m,
            parts,
            Stage::Unmarshal,
        );
        let spec_time = spec_of(&self.services, service).service_time;
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
        let resp_len = spec_of(&self.services, service).response_bytes;
        let frame_len = FRAME_OVERHEAD + RPC_HEADER_LEN + resp_len;
        // sendmsg: syscall, copy, doorbell.
        let sw = self.cost.syscall + self.cost.copy(resp_len);
        let (send_s, end) = self.charge_core(core, now, sw);
        self.common.charge_req(request_id, sw);
        let tx_done = self.host.transmit(end, frame_len);
        let lane = core as u32;
        self.common.end_handler(request_id, lane, now);
        self.common
            .stage_span(Stage::SendMsg, request_id, lane, send_s, end);
        self.common
            .stage_span(Stage::Response, request_id, NIC_TRACK, end, tx_done);
        self.common.respond(request_id, tx_done, frame_len);
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
        KernelSim::new(machine, services)
    }

    fn name(&self) -> &'static str {
        match self.machine {
            Machine::EnzianPcie => "kernel/enzian-pcie-dma",
            _ => "kernel/pc-pcie-dma",
        }
    }

    fn server_addr(&self, service: u16) -> EndpointAddr {
        DmaHost::server_addr(service)
    }

    fn common(&mut self) -> &mut StackCommon {
        &mut self.common
    }

    fn prepare(&mut self, workload: &WorkloadSpec) {
        // Kernel analogue of the NIC's overload control: bounded
        // per-socket backlogs (SYN-backlog style) plus a deadline
        // budget. Fairness and pushback stay Lauberhorn-only — a DMA
        // NIC has no per-service view and no NACK channel.
        self.overload = workload.overload.clone();
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
        let total = self.energy.snapshot_total(end);
        let reg = &mut self.common.metrics.registry;
        let irqs = self.host.nic.stats().interrupts;
        let fabric = self.host.finish(reg, irqs);
        self.sched.stats().export(reg);
        // Overload counters only exist when overload control is armed,
        // preserving the zero-perturbation digest of clean runs.
        if self.overload.is_some() {
            let (rej, exp) = self
                .socket_q
                .values()
                .fold((0u64, 0u64), |(r, e), b| (r + b.rejected, e + b.expired));
            reg.counter("os.overload.shed_capacity", rej);
            reg.counter("os.overload.shed_deadline", exp);
            reg.counter("os.overload.shed", rej + exp);
        }
        (total, fabric)
    }
}
