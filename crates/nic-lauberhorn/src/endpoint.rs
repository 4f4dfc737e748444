//! The per-endpoint NIC↔CPU protocol of Figure 4.
//!
//! Each endpoint comprises two CONTROL cache lines plus AUX lines, all
//! homed on the NIC. The protocol, as the paper describes it (§5.1):
//!
//! 1. The core loads CONTROL\[i\] and stalls; the NIC parks the fill.
//! 2. When a request arrives (or was queued), the NIC answers the fill
//!    with the prepared dispatch line; the next request will use
//!    CONTROL\[1-i\].
//! 3. The core runs the handler, writes the response into CONTROL\[i\]
//!    (which it holds Exclusive), and loads CONTROL\[1-i\].
//! 4. Seeing the load on CONTROL\[1-i\], the NIC knows request *i* is
//!    done: it fetch-exclusives CONTROL\[i\], obtaining the response, and
//!    transmits it — then answers the new load when the next request
//!    arrives.
//! 5. If no request arrives within [`TRYAGAIN_TIMEOUT`], the NIC
//!    answers with a TRYAGAIN dummy so the coherence protocol never
//!    times out fatally; the core simply re-issues the load.
//! 6. RETIRE tells a waiting thread to return to the scheduler (§5.2).
//!
//! The state machine here is *pure*: it consumes events and emits
//! [`Effect`]s into a buffer the caller owns (and reuses, so a
//! transition never allocates); the composed NIC (`crate::nic`) turns
//! effects into coherence operations and timer arms. This purity is
//! what lets the `lauberhorn-mc` crate model-check the same logic.

use std::collections::VecDeque;

use lauberhorn_coherence::{FillToken, Line, LineAddr};
use lauberhorn_os::ProcessId;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_sim::{SimDuration, SimTime};

use crate::dispatch::{self, DispatchKind, DispatchLine};

/// The TRYAGAIN window: the paper returns dummies "after 15 ms" to stay
/// inside the coherence protocol's timeout.
pub const TRYAGAIN_TIMEOUT: SimDuration = SimDuration::from_ms(15);

/// Identifier of an endpoint on one NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

/// Everything needed to route a response back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCtx {
    /// Request id echoed into the response.
    pub request_id: u64,
    /// Service the request targeted.
    pub service_id: u16,
    /// Method within the service.
    pub method_id: u16,
    /// Where the response goes.
    pub client: EndpointAddr,
    /// Continuation-endpoint hint from the request (nested RPC, §6).
    pub cont_hint: u32,
}

/// Effects the endpoint asks the NIC to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Answer a parked fill with this line data.
    Respond {
        /// The parked fill.
        token: FillToken,
        /// Line contents (a [`DispatchLine`] CONTROL line, or AUX bytes).
        data: Line,
    },
    /// Arm the TRYAGAIN timer; fire [`Endpoint::on_timeout`] with this
    /// generation at `deadline` (stale generations are ignored).
    ArmTimeout {
        /// Generation to echo back.
        generation: u64,
        /// When to fire.
        deadline: SimTime,
    },
    /// The previous request's response is ready in `line`:
    /// fetch-exclusive it and transmit to `ctx.client`.
    CollectResponse {
        /// CONTROL line holding the response.
        line: LineAddr,
        /// Response routing context.
        ctx: RequestCtx,
        /// The collected request's dispatch-form arguments, handed back
        /// so the NIC can reuse the buffer.
        args: Vec<u8>,
    },
    /// A queued request was already past its deadline budget when the
    /// core came to take it: shed instead of delivered (serving it
    /// would be wasted work). The NIC accounts the shed and, with
    /// pushback armed, NACKs the client.
    ShedStale {
        /// The shed request's routing context.
        ctx: RequestCtx,
    },
}

/// Outcome of offering a request to the endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// A parked load consumed it immediately (the fast path); the
    /// answer is in the effect buffer.
    DeliveredToParked,
    /// Queued at the endpoint; depth after queueing.
    Queued {
        /// Resulting queue depth.
        depth: usize,
    },
    /// The endpoint queue is full; the request comes back so the NIC
    /// can fall back (another endpoint, kernel delivery, or drop).
    Rejected(DispatchLine, RequestCtx),
}

/// Endpoint statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Requests delivered into a parked load (zero-software-cost path).
    pub delivered_parked: u64,
    /// Requests delivered from the queue when the core next loaded.
    pub delivered_queued: u64,
    /// TRYAGAIN dummies returned.
    pub tryagains: u64,
    /// RETIRE messages returned.
    pub retires: u64,
    /// Responses collected and transmitted.
    pub responses: u64,
    /// Maximum queue depth observed.
    pub max_queue: usize,
    /// Queued requests shed at delivery because they were already past
    /// the deadline budget.
    pub shed_stale: u64,
}

/// Addressing of an endpoint's cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointLayout {
    /// Address of CONTROL\[0\]; CONTROL\[1\] and AUX lines follow.
    pub base: LineAddr,
    /// Line size in bytes.
    pub line_size: usize,
    /// Number of AUX lines.
    pub n_aux: usize,
}

impl EndpointLayout {
    /// Address of CONTROL\[i\] (i in 0..2).
    pub fn ctrl(&self, i: usize) -> LineAddr {
        debug_assert!(i < 2);
        self.base.offset(i as u64, self.line_size)
    }

    /// Address of AUX\[j\].
    pub fn aux(&self, j: usize) -> LineAddr {
        debug_assert!(j < self.n_aux);
        self.base.offset(2 + j as u64, self.line_size)
    }

    /// Total lines (2 CONTROL + AUX).
    pub fn total_lines(&self) -> usize {
        2 + self.n_aux
    }

    /// Which role an address plays for this endpoint, if any.
    pub fn role_of(&self, addr: LineAddr) -> Option<LineRole> {
        let step = self.line_size as u64;
        if addr.0 < self.base.0 {
            return None;
        }
        let idx = (addr.0 - self.base.0) / step;
        if !(addr.0 - self.base.0).is_multiple_of(step) {
            return None;
        }
        match idx {
            0 | 1 => Some(LineRole::Control(idx as usize)),
            j if (j as usize) < self.total_lines() => Some(LineRole::Aux(j as usize - 2)),
            _ => None,
        }
    }
}

/// Role of a line within an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRole {
    /// CONTROL\[i\].
    Control(usize),
    /// AUX\[j\].
    Aux(usize),
}

#[derive(Debug, Clone)]
struct QueuedRequest {
    line: DispatchLine,
    ctx: RequestCtx,
    /// When the request entered this queue (deadline-aware shedding).
    enqueued: SimTime,
}

/// One endpoint's protocol state.
#[derive(Debug)]
pub struct Endpoint {
    /// Endpoint id.
    pub id: EndpointId,
    /// Owning process (the isolation domain requests dispatch into).
    pub process: ProcessId,
    /// Line addressing.
    pub layout: EndpointLayout,
    /// Which CONTROL line the next request will be delivered on.
    expect: usize,
    /// Parked load, if any: `(token, control index, generation)`.
    parked: Option<(FillToken, usize, u64)>,
    /// Monotonic generation for timeout staleness.
    generation: u64,
    /// Response awaiting collection: `(control index, ctx)`.
    outstanding: Option<(usize, RequestCtx)>,
    /// Ready requests not yet delivered.
    queue: VecDeque<QueuedRequest>,
    /// Max ready-queue length before rejecting.
    queue_cap: usize,
    /// Dispatch-form arguments of the request in service: AUX loads
    /// are answered by slicing them ([`dispatch::aux_line`]). Handed
    /// back to the NIC when its response is collected.
    args: Vec<u8>,
    /// Deliver RETIRE at the next opportunity.
    retire_pending: bool,
    /// TRYAGAIN window for this endpoint (the paper: 15 ms).
    timeout: SimDuration,
    /// Deadline budget for queued requests: entries older than this at
    /// delivery time are shed ([`Effect::ShedStale`]). `None` (the
    /// default) sheds nothing.
    deadline: Option<SimDuration>,
    /// Fault injection: the CONTROL line engine is wedged. Loads park
    /// forever (no delivery, no TRYAGAIN), requests only queue, and
    /// RETIRE cannot be delivered. AUX reads (plain SRAM) still work.
    stuck: bool,
    stats: EndpointStats,
}

impl Endpoint {
    /// Creates an idle endpoint with the paper's 15 ms TRYAGAIN window.
    pub fn new(
        id: EndpointId,
        process: ProcessId,
        layout: EndpointLayout,
        queue_cap: usize,
    ) -> Self {
        Self::with_timeout(id, process, layout, queue_cap, TRYAGAIN_TIMEOUT)
    }

    /// Creates an idle endpoint with an explicit TRYAGAIN window
    /// (the `abl_tryagain` ablation sweeps this).
    pub fn with_timeout(
        id: EndpointId,
        process: ProcessId,
        layout: EndpointLayout,
        queue_cap: usize,
        timeout: SimDuration,
    ) -> Self {
        Endpoint {
            id,
            process,
            layout,
            expect: 0,
            parked: None,
            generation: 0,
            outstanding: None,
            queue: VecDeque::new(),
            queue_cap,
            args: Vec::new(),
            retire_pending: false,
            timeout,
            deadline: None,
            stuck: false,
            stats: EndpointStats::default(),
        }
    }

    /// Fault injection / repair: wedges (or unwedges) the CONTROL line
    /// engine. See the `stuck` field for the failure semantics.
    pub fn set_stuck(&mut self, stuck: bool) {
        self.stuck = stuck;
    }

    /// Whether the CONTROL line engine is wedged.
    pub fn is_stuck(&self) -> bool {
        self.stuck
    }

    /// Arms (or disarms) deadline-aware shedding of queued requests.
    pub fn set_deadline(&mut self, deadline: Option<SimDuration>) {
        self.deadline = deadline;
    }

    /// Rebounds the ready-queue capacity (overload control armed after
    /// construction). Requests already queued beyond the new cap stay;
    /// the bound applies to subsequent arrivals.
    pub fn set_queue_cap(&mut self, cap: usize) {
        self.queue_cap = cap;
    }

    /// The queue capacity bound.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// The one-byte load hint this endpoint advertises on TRYAGAIN and
    /// RETIRE lines: queue occupancy scaled to 0–255.
    fn hint(&self) -> u8 {
        lauberhorn_sim::load_hint(self.queue.len(), self.queue_cap)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Whether a load is currently parked here.
    pub fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Ready-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Which CONTROL line the next request will be delivered on.
    pub fn expect_line(&self) -> usize {
        self.expect
    }

    fn deliver(&mut self, token: FillToken, req: QueuedRequest, out: &mut Vec<Effect>) {
        // Encoding only fails on a degenerate layout (line smaller than
        // the header) or an oversized argument list, which endpoint
        // construction and the NIC's size checks rule out; delivering an
        // empty line (and no AUX data) keeps the hot path panic-free
        // regardless.
        let ctrl = match req.line.control_line(self.layout.line_size) {
            Ok(ctrl) => {
                self.args = req.line.args;
                ctrl
            }
            Err(_) => {
                self.args = Vec::new();
                Line::default()
            }
        };
        // The response for this request will appear in the line we are
        // delivering on, and will be collected when the *other* line is
        // next loaded.
        self.outstanding = Some((self.expect, req.ctx));
        self.expect = 1 - self.expect;
        out.push(Effect::Respond { token, data: ctrl });
    }

    /// A core's load on `role` was parked with `token` at time `now`;
    /// the resulting effects are appended to `out`.
    pub fn on_load(
        &mut self,
        role: LineRole,
        token: FillToken,
        now: SimTime,
        out: &mut Vec<Effect>,
    ) {
        match role {
            LineRole::Aux(j) => {
                // AUX fills are always answerable immediately: the data
                // are the delivered request's arguments.
                let data = dispatch::aux_line(&self.args, j, self.layout.line_size);
                out.push(Effect::Respond { token, data });
            }
            LineRole::Control(i) => {
                if self.stuck {
                    // Wedged engine: the fill parks and nothing else
                    // happens — no collection, no delivery, no TRYAGAIN
                    // timer. The watchdog's repair path answers it.
                    self.generation += 1;
                    self.parked = Some((token, i, self.generation));
                    return;
                }
                // Loading a CONTROL line signals the previous request (on
                // the other line) is complete: collect its response.
                if let Some((line_idx, ctx)) = self.outstanding.take() {
                    if line_idx != i {
                        self.stats.responses += 1;
                        out.push(Effect::CollectResponse {
                            line: self.layout.ctrl(line_idx),
                            ctx,
                            args: std::mem::take(&mut self.args),
                        });
                    } else {
                        // A re-load of the same line (after TRYAGAIN the
                        // core re-issues on the same parity): response not
                        // ready yet, keep it outstanding.
                        self.outstanding = Some((line_idx, ctx));
                    }
                }
                if self.retire_pending {
                    self.retire_pending = false;
                    self.stats.retires += 1;
                    let data = self.signal_line(DispatchLine::retire_with_hint(self.hint()));
                    out.push(Effect::Respond { token, data });
                    return;
                }
                // Deadline-aware shedding: a queued request already past
                // its budget is abandoned by the client anyway, so
                // delivering it burns a service slot for zero goodput.
                if let Some(deadline) = self.deadline {
                    while self
                        .queue
                        .front()
                        .is_some_and(|q| now.since(q.enqueued) > deadline)
                    {
                        if let Some(stale) = self.queue.pop_front() {
                            self.stats.shed_stale += 1;
                            out.push(Effect::ShedStale { ctx: stale.ctx });
                        }
                    }
                }
                if let Some(req) = self.queue.pop_front() {
                    self.stats.delivered_queued += 1;
                    self.deliver(token, req, out);
                    return;
                }
                // Nothing ready: park and arm the TRYAGAIN timer.
                self.generation += 1;
                self.parked = Some((token, i, self.generation));
                out.push(Effect::ArmTimeout {
                    generation: self.generation,
                    deadline: now + self.timeout,
                });
            }
        }
    }

    /// A TRYAGAIN or RETIRE CONTROL line for this endpoint's layout
    /// (empty on a degenerate layout, as in [`Endpoint::deliver`]).
    fn signal_line(&self, line: DispatchLine) -> Line {
        line.control_line(self.layout.line_size).unwrap_or_default()
    }

    /// A deserialized request arrives for this endpoint at `now`. A
    /// delivery's effects are appended to `out`.
    pub fn on_request(
        &mut self,
        line: DispatchLine,
        ctx: RequestCtx,
        now: SimTime,
        out: &mut Vec<Effect>,
    ) -> RequestOutcome {
        debug_assert!(
            matches!(line.kind, DispatchKind::Rpc | DispatchKind::DmaDescriptor),
            "only dispatchable kinds may be offered"
        );
        if self.stuck {
            // Wedged engine: the parked fill (if any) cannot be
            // answered, so the request can only queue.
            if self.queue.len() >= self.queue_cap {
                return RequestOutcome::Rejected(line, ctx);
            }
            self.queue.push_back(QueuedRequest {
                line,
                ctx,
                enqueued: now,
            });
            self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
            return RequestOutcome::Queued {
                depth: self.queue.len(),
            };
        }
        let req = QueuedRequest {
            line,
            ctx,
            enqueued: now,
        };
        if let Some((token, _i, _gen)) = self.parked.take() {
            self.stats.delivered_parked += 1;
            self.deliver(token, req, out);
            return RequestOutcome::DeliveredToParked;
        }
        if self.queue.len() >= self.queue_cap {
            return RequestOutcome::Rejected(req.line, req.ctx);
        }
        self.queue.push_back(req);
        self.stats.max_queue = self.stats.max_queue.max(self.queue.len());
        RequestOutcome::Queued {
            depth: self.queue.len(),
        }
    }

    /// The TRYAGAIN timer for `generation` fired; the resulting
    /// effects are appended to `out`.
    pub fn on_timeout(&mut self, generation: u64, out: &mut Vec<Effect>) {
        if self.stuck {
            // The timer engine is part of the wedged line engine: the
            // TRYAGAIN never goes out, which is precisely what lets a
            // lease watchdog notice the line "never transitions".
            return;
        }
        match self.parked {
            Some((token, _i, gen)) if gen == generation => {
                self.parked = None;
                self.stats.tryagains += 1;
                let data = self.signal_line(DispatchLine::try_again_with_hint(self.hint()));
                out.push(Effect::Respond { token, data });
            }
            _ => {} // Stale: a request beat the timer.
        }
    }

    /// Removes and returns the oldest queued request, if any.
    ///
    /// Used by the NIC to migrate work between kernel endpoints: a core
    /// parking on its own (empty) kernel endpoint steals the oldest
    /// request queued at a sibling, so no request waits for one
    /// specific core.
    pub fn steal_request(&mut self) -> Option<(DispatchLine, RequestCtx)> {
        self.queue.pop_front().map(|q| (q.line, q.ctx))
    }

    /// Removes and returns the oldest queued request whose context
    /// satisfies `pred` (used by the NIC to migrate kernel-queued
    /// requests to a matching user endpoint that just parked).
    pub fn steal_where(
        &mut self,
        pred: impl Fn(&RequestCtx) -> bool,
    ) -> Option<(DispatchLine, RequestCtx)> {
        let pos = self.queue.iter().position(|q| pred(&q.ctx))?;
        let q = self.queue.remove(pos)?;
        Some((q.line, q.ctx))
    }

    /// Takes the uncollected response, if any.
    ///
    /// Used for *cross-endpoint* collection: in the Figure 5 lifecycle a
    /// core that took a request on the kernel endpoint parks next on the
    /// process's own endpoint, so the NIC treats that first foreign load
    /// as the completion signal and collects the kernel endpoint's
    /// response through this method. The request's argument buffer
    /// comes back with it, as in [`Effect::CollectResponse`].
    pub fn take_outstanding(&mut self) -> Option<(LineAddr, RequestCtx, Vec<u8>)> {
        let (line_idx, ctx) = self.outstanding.take()?;
        self.stats.responses += 1;
        Some((
            self.layout.ctrl(line_idx),
            ctx,
            std::mem::take(&mut self.args),
        ))
    }

    /// Whether a response awaits collection.
    pub fn has_outstanding(&self) -> bool {
        self.outstanding.is_some()
    }

    /// Reset salvage: removes and returns the parked fill token, if
    /// any, without emitting effects — the kernel recovery handler
    /// answers it directly (with a RETIRE line) while the NIC protocol
    /// engine is being reinitialized.
    pub fn take_parked(&mut self) -> Option<FillToken> {
        self.parked.take().map(|(token, _i, _gen)| token)
    }

    /// Reset salvage: the protocol-visible state the kernel must write
    /// back into a reconstructed endpoint so it is bisimilar to the
    /// pre-fault one — `(expect parity, generation, outstanding)`.
    pub fn protocol_snapshot(&self) -> (usize, u64, Option<(usize, RequestCtx)>) {
        (self.expect, self.generation, self.outstanding)
    }

    /// Reconstruction: writes back a [`Endpoint::protocol_snapshot`]
    /// taken before a NIC reset.
    pub fn restore_protocol(
        &mut self,
        expect: usize,
        generation: u64,
        outstanding: Option<(usize, RequestCtx)>,
    ) {
        self.expect = expect;
        self.generation = generation;
        self.outstanding = outstanding;
    }

    /// The kernel (or the NIC's load logic) retires this endpoint's
    /// waiter so the core can be reallocated (§5.2); the resulting
    /// effects are appended to `out`.
    pub fn retire(&mut self, out: &mut Vec<Effect>) {
        if self.stuck {
            // The wedged engine cannot deliver RETIRE either; remember
            // the intent for after repair.
            self.retire_pending = true;
            return;
        }
        match self.parked.take() {
            Some((token, _i, _gen)) => {
                self.stats.retires += 1;
                let data = self.signal_line(DispatchLine::retire_with_hint(self.hint()));
                out.push(Effect::Respond { token, data });
            }
            None => {
                self.retire_pending = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> EndpointLayout {
        EndpointLayout {
            base: LineAddr(0x1_0000_0000),
            line_size: 128,
            n_aux: 4,
        }
    }

    fn ep() -> Endpoint {
        Endpoint::new(EndpointId(0), ProcessId(1), layout(), 8)
    }

    fn rpc(request_id: u64, args: &[u8]) -> (DispatchLine, RequestCtx) {
        (
            DispatchLine {
                code_ptr: 0x1000,
                data_ptr: 0x2000,
                request_id,
                service_id: 1,
                method_id: 1,
                kind: DispatchKind::Rpc,
                args: args.to_vec(),
            },
            RequestCtx {
                request_id,
                service_id: 1,
                method_id: 1,
                client: EndpointAddr::host(9, 999),
                cont_hint: 0,
            },
        )
    }

    fn tok(n: u64) -> FillToken {
        FillToken(n)
    }

    fn load(e: &mut Endpoint, role: LineRole, token: FillToken, now: SimTime) -> Vec<Effect> {
        let mut fx = Vec::new();
        e.on_load(role, token, now, &mut fx);
        fx
    }

    /// Offers a request; a delivery's effects come back with the outcome.
    fn offer(
        e: &mut Endpoint,
        line: DispatchLine,
        ctx: RequestCtx,
        now: SimTime,
    ) -> (RequestOutcome, Vec<Effect>) {
        let mut fx = Vec::new();
        let outcome = e.on_request(line, ctx, now, &mut fx);
        (outcome, fx)
    }

    fn timeout(e: &mut Endpoint, generation: u64) -> Vec<Effect> {
        let mut fx = Vec::new();
        e.on_timeout(generation, &mut fx);
        fx
    }

    fn retire(e: &mut Endpoint) -> Vec<Effect> {
        let mut fx = Vec::new();
        e.retire(&mut fx);
        fx
    }

    #[test]
    fn layout_addressing() {
        let l = layout();
        assert_eq!(l.ctrl(0), LineAddr(0x1_0000_0000));
        assert_eq!(l.ctrl(1), LineAddr(0x1_0000_0080));
        assert_eq!(l.aux(0), LineAddr(0x1_0000_0100));
        assert_eq!(
            l.role_of(LineAddr(0x1_0000_0080)),
            Some(LineRole::Control(1))
        );
        assert_eq!(l.role_of(LineAddr(0x1_0000_0180)), Some(LineRole::Aux(1)));
        assert_eq!(l.role_of(LineAddr(0x1_0000_0081)), None);
        assert_eq!(l.role_of(LineAddr(0x0)), None);
        assert_eq!(l.role_of(LineAddr(0x1_0000_0000 + 6 * 128)), None);
    }

    #[test]
    fn park_then_request_fast_path() {
        let mut e = ep();
        let fx = load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        assert!(matches!(fx[0], Effect::ArmTimeout { generation: 1, .. }));
        assert!(e.is_parked());
        let (line, ctx) = rpc(7, b"abc");
        let (out, fx) = offer(&mut e, line, ctx, SimTime::ZERO);
        assert_eq!(out, RequestOutcome::DeliveredToParked);
        let Effect::Respond { token, data } = &fx[0] else {
            panic!("expected respond")
        };
        assert_eq!(*token, tok(1));
        let d = DispatchLine::decode(data, &[]).unwrap();
        assert_eq!(d.request_id, 7);
        assert_eq!(d.args, b"abc");
        assert_eq!(e.expect_line(), 1);
        assert_eq!(e.stats().delivered_parked, 1);
    }

    #[test]
    fn request_then_load_queued_path() {
        let mut e = ep();
        let (line, ctx) = rpc(1, b"x");
        assert_eq!(
            offer(&mut e, line, ctx, SimTime::ZERO).0,
            RequestOutcome::Queued { depth: 1 }
        );
        let fx = load(&mut e, LineRole::Control(0), tok(2), SimTime::ZERO);
        assert!(matches!(fx[0], Effect::Respond { .. }));
        assert_eq!(e.stats().delivered_queued, 1);
    }

    #[test]
    fn response_collected_on_next_load() {
        let mut e = ep();
        // Deliver request on CONTROL[0].
        load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        let (line, ctx) = rpc(5, b"req");
        offer(&mut e, line, ctx, SimTime::ZERO);
        // Core handles it, writes response in CONTROL[0], loads CONTROL[1].
        let fx = load(&mut e, LineRole::Control(1), tok(2), SimTime::from_us(3));
        let collect = fx
            .iter()
            .find_map(|f| match f {
                Effect::CollectResponse { line, ctx, .. } => Some((line, ctx)),
                _ => None,
            })
            .expect("collects the response");
        assert_eq!(*collect.0, layout().ctrl(0));
        assert_eq!(collect.1.request_id, 5);
        assert_eq!(e.stats().responses, 1);
    }

    #[test]
    fn pipelined_requests_alternate_lines() {
        let mut e = ep();
        load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        let (l1, c1) = rpc(1, b"a");
        offer(&mut e, l1, c1, SimTime::ZERO); // Delivered on line 0.
        let (l2, c2) = rpc(2, b"b");
        offer(&mut e, l2, c2, SimTime::ZERO); // Queued.
                                              // Core finishes req 1, loads line 1: collect resp 1 AND deliver req 2.
        let fx = load(&mut e, LineRole::Control(1), tok(2), SimTime::from_us(1));
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::CollectResponse { .. })));
        assert!(fx.iter().any(|f| matches!(f, Effect::Respond { .. })));
        assert_eq!(e.expect_line(), 0);
        // Core finishes req 2, loads line 0: collect resp 2, park.
        let fx = load(&mut e, LineRole::Control(0), tok(3), SimTime::from_us(2));
        let collected: Vec<_> = fx
            .iter()
            .filter_map(|f| match f {
                Effect::CollectResponse { ctx, .. } => Some(ctx.request_id),
                _ => None,
            })
            .collect();
        assert_eq!(collected, vec![2]);
        assert!(e.is_parked());
    }

    #[test]
    fn timeout_returns_tryagain_only_when_fresh() {
        let mut e = ep();
        load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        // Request arrives before the timer: delivered.
        let (l, c) = rpc(1, b"z");
        offer(&mut e, l, c, SimTime::ZERO);
        // Old timer fires: stale, no effect.
        assert!(timeout(&mut e, 1).is_empty());
        assert_eq!(e.stats().tryagains, 0);
        // Core loads line 1 (collect), parks again; this timer is fresh.
        load(&mut e, LineRole::Control(1), tok(2), SimTime::from_us(5));
        let fx = timeout(&mut e, 2);
        let Effect::Respond { data, .. } = &fx[0] else {
            panic!("expected respond")
        };
        assert_eq!(
            DispatchLine::decode(data, &[]).unwrap().kind,
            DispatchKind::TryAgain
        );
        assert!(!e.is_parked());
        assert_eq!(e.stats().tryagains, 1);
    }

    #[test]
    fn tryagain_does_not_flip_parity() {
        let mut e = ep();
        load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        timeout(&mut e, 1);
        assert_eq!(e.expect_line(), 0);
        // Core re-loads the same line; next request delivered there.
        load(&mut e, LineRole::Control(0), tok(2), SimTime::from_ms(15));
        let (l, c) = rpc(3, b"c");
        let (out, _) = offer(&mut e, l, c, SimTime::ZERO);
        assert_eq!(out, RequestOutcome::DeliveredToParked);
        assert_eq!(e.expect_line(), 1);
    }

    #[test]
    fn reload_same_line_does_not_collect_own_response() {
        let mut e = ep();
        load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        let (l, c) = rpc(1, b"a");
        offer(&mut e, l, c, SimTime::ZERO); // Delivered on line 0; outstanding = line 0.
                                            // TRYAGAIN cannot happen here (not parked), but a buggy or
                                            // preempted core might re-load line 0. The response in line 0 is
                                            // NOT ready to collect (the core would be overwriting it).
        let fx = load(&mut e, LineRole::Control(0), tok(2), SimTime::from_us(1));
        assert!(!fx
            .iter()
            .any(|f| matches!(f, Effect::CollectResponse { .. })));
        // Parked now; when the core later loads line 1, collection happens.
        let g = e.generation;
        timeout(&mut e, g); // Unpark via tryagain to keep state sane.
        let fx = load(&mut e, LineRole::Control(1), tok(3), SimTime::from_us(2));
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::CollectResponse { .. })));
    }

    #[test]
    fn queue_overflow_rejects() {
        let mut e = Endpoint::new(EndpointId(0), ProcessId(1), layout(), 2);
        let (l, c) = rpc(1, b"");
        offer(&mut e, l.clone(), c, SimTime::ZERO);
        offer(&mut e, l.clone(), c, SimTime::ZERO);
        // The refused request comes back to the caller.
        let (out, _) = offer(&mut e, l.clone(), c, SimTime::ZERO);
        assert_eq!(out, RequestOutcome::Rejected(l, c));
        assert_eq!(e.queue_depth(), 2);
        assert_eq!(e.stats().max_queue, 2);
    }

    #[test]
    fn stale_queued_requests_shed_at_delivery() {
        let mut e = ep();
        e.set_deadline(Some(SimDuration::from_us(100)));
        let (l1, c1) = rpc(1, b"old");
        offer(&mut e, l1, c1, SimTime::ZERO);
        let (l2, c2) = rpc(2, b"fresh");
        offer(&mut e, l2, c2, SimTime::from_us(150));
        // The core arrives at 200 µs: request 1 is 200 µs old (past the
        // 100 µs budget) and must be shed; request 2 is delivered.
        let fx = load(&mut e, LineRole::Control(0), tok(1), SimTime::from_us(200));
        let shed: Vec<u64> = fx
            .iter()
            .filter_map(|f| match f {
                Effect::ShedStale { ctx } => Some(ctx.request_id),
                _ => None,
            })
            .collect();
        assert_eq!(shed, vec![1]);
        let delivered = fx.iter().find_map(|f| match f {
            Effect::Respond { data, .. } => DispatchLine::decode(data, &[]).ok(),
            _ => None,
        });
        assert_eq!(delivered.map(|d| d.request_id), Some(2));
        assert_eq!(e.stats().shed_stale, 1);
        assert_eq!(e.stats().delivered_queued, 1);
    }

    #[test]
    fn tryagain_carries_queue_occupancy_hint() {
        let mut e = Endpoint::new(EndpointId(0), ProcessId(1), layout(), 4);
        load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        // Empty queue: TRYAGAIN advertises hint 0.
        let fx = timeout(&mut e, 1);
        let Effect::Respond { data, .. } = &fx[0] else {
            panic!("expected respond")
        };
        let d = DispatchLine::decode(data, &[]).unwrap();
        assert_eq!(d.kind, DispatchKind::TryAgain);
        assert_eq!(d.load_hint(), 0);
        // Half-full queue: RETIRE advertises a mid-scale hint.
        let (l, c) = rpc(1, b"");
        offer(&mut e, l.clone(), c, SimTime::ZERO);
        offer(&mut e, l, c, SimTime::ZERO);
        let fx = retire(&mut e);
        assert!(fx.is_empty()); // Not parked: retire pends.
        let fx = load(&mut e, LineRole::Control(0), tok(2), SimTime::from_us(1));
        let Effect::Respond { data, .. } = &fx[0] else {
            panic!("expected respond")
        };
        let d = DispatchLine::decode(data, &[]).unwrap();
        assert_eq!(d.kind, DispatchKind::Retire);
        assert_eq!(d.load_hint(), 127); // 2 of 4 slots.
    }

    #[test]
    fn retire_parked_waiter() {
        let mut e = ep();
        load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        let fx = retire(&mut e);
        let Effect::Respond { data, .. } = &fx[0] else {
            panic!("expected respond")
        };
        assert_eq!(
            DispatchLine::decode(data, &[]).unwrap().kind,
            DispatchKind::Retire
        );
        assert!(!e.is_parked());
    }

    #[test]
    fn retire_pending_delivered_on_next_load() {
        let mut e = ep();
        assert!(retire(&mut e).is_empty());
        let fx = load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        let Effect::Respond { data, .. } = &fx[0] else {
            panic!("expected respond, got {fx:?}")
        };
        assert_eq!(
            DispatchLine::decode(data, &[]).unwrap().kind,
            DispatchKind::Retire
        );
    }

    #[test]
    fn stuck_line_never_transitions() {
        let mut e = ep();
        e.set_stuck(true);
        assert!(e.is_stuck());
        // A load parks forever: no timer armed, no delivery.
        let fx = load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        assert!(fx.is_empty());
        assert!(e.is_parked());
        // A request can only queue — the parked fill stays unanswered.
        let (l, c) = rpc(1, b"a");
        assert_eq!(
            offer(&mut e, l, c, SimTime::ZERO).0,
            RequestOutcome::Queued { depth: 1 }
        );
        // The TRYAGAIN timer is swallowed; RETIRE pends undelivered.
        let g = e.generation;
        assert!(timeout(&mut e, g).is_empty());
        assert!(retire(&mut e).is_empty());
        assert!(e.is_parked());
        assert_eq!(e.stats().tryagains, 0);
        // Repair: unstick, then the pending RETIRE answers the parked
        // fill on the normal path.
        e.set_stuck(false);
        let mut drained = 0;
        while e.steal_request().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 1);
        let fx = retire(&mut e);
        let Effect::Respond { data, .. } = &fx[0] else {
            panic!("expected respond")
        };
        assert_eq!(
            DispatchLine::decode(data, &[]).unwrap().kind,
            DispatchKind::Retire
        );
        assert!(!e.is_parked());
    }

    #[test]
    fn protocol_snapshot_restores_bisimilar_state() {
        // Drive an endpoint to the mid-protocol point a NIC reset is
        // hardest on: a request delivered, its response not yet
        // collected.
        let mut e = ep();
        load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
        let (l, c) = rpc(9, b"req");
        offer(&mut e, l, c, SimTime::ZERO);
        let (expect, generation, outstanding) = e.protocol_snapshot();
        assert_eq!(expect, 1);
        assert!(outstanding.is_some());

        // Reconstruct a fresh endpoint (same id/layout, as from the
        // shadow registry) and write the snapshot back.
        let mut r = ep();
        r.restore_protocol(expect, generation, outstanding);
        assert_eq!(r.expect_line(), 1);
        assert!(r.has_outstanding());
        // The completion signal (load on the other line) collects the
        // original response exactly as the pre-fault endpoint would.
        let fx = load(&mut r, LineRole::Control(1), tok(2), SimTime::from_us(5));
        let collect = fx
            .iter()
            .find_map(|f| match f {
                Effect::CollectResponse { line, ctx, .. } => Some((line, ctx)),
                _ => None,
            })
            .expect("restored endpoint collects the pre-fault response");
        assert_eq!(*collect.0, layout().ctrl(0));
        assert_eq!(collect.1.request_id, 9);
    }

    #[test]
    fn take_parked_salvages_fill_token() {
        let mut e = ep();
        load(&mut e, LineRole::Control(0), tok(7), SimTime::ZERO);
        assert_eq!(e.take_parked(), Some(tok(7)));
        assert!(!e.is_parked());
        assert_eq!(e.take_parked(), None);
    }

    #[test]
    fn aux_loads_answer_immediately_with_staged_data() {
        for line_size in [64, 128] {
            let layout = EndpointLayout {
                base: LineAddr(0x1_0000_0000),
                line_size,
                n_aux: 8,
            };
            let mut e = Endpoint::new(EndpointId(0), ProcessId(1), layout, 8);
            let inline = DispatchLine::inline_capacity(line_size);
            // What AUX[j] must hold: the argument bytes from
            // `inline + j·line_size`, zero-padded to a full line.
            let want = |args: &[u8], j: usize| {
                let mut line = vec![0u8; line_size];
                let tail = args.get(inline + j * line_size..).unwrap_or(&[]);
                let n = tail.len().min(line_size);
                line[..n].copy_from_slice(&tail[..n]);
                line
            };
            let aux = |e: &mut Endpoint, j: usize, t: u64| {
                let fx = load(e, LineRole::Aux(j), tok(100 + t), SimTime::from_us(t));
                let [Effect::Respond { data, .. }] = &fx[..] else {
                    panic!("expected one respond, got {fx:?}")
                };
                assert_eq!(data.len(), line_size);
                data.to_vec()
            };

            // Request 1 spills into three AUX lines, the last one
            // partial; distinct bytes catch a misplaced slice.
            let first: Vec<u8> = (0..inline + 2 * line_size + 40)
                .map(|i| (i % 251) as u8 | 1)
                .collect();
            assert_eq!(DispatchLine::aux_lines_needed(first.len(), line_size), 3);
            load(&mut e, LineRole::Control(0), tok(1), SimTime::ZERO);
            let (l, c) = rpc(1, &first);
            offer(&mut e, l, c, SimTime::ZERO);
            // Loads past the request's three AUX lines answer zeroes.
            for j in 0..5 {
                assert_eq!(
                    aux(&mut e, j, j as u64),
                    want(&first, j),
                    "{line_size} B AUX[{j}]"
                );
            }

            // Request 2 is shorter (one partial AUX line) and is
            // delivered when the core finishes request 1: none of
            // request 1's bytes may show through.
            let second = vec![0xC3; inline + 10];
            let (l, c) = rpc(2, &second);
            offer(&mut e, l, c, SimTime::from_us(10));
            load(&mut e, LineRole::Control(1), tok(2), SimTime::from_us(10));
            for j in 0..5 {
                let got = aux(&mut e, j, 20 + j as u64);
                assert_eq!(got, want(&second, j), "{line_size} B AUX[{j}] after reuse");
            }
            assert!(aux(&mut e, 0, 30)[10..].iter().all(|&b| b == 0));
            // Once request 2's response is collected its arguments are
            // gone too: AUX reads zeroes until the next delivery.
            load(&mut e, LineRole::Control(0), tok(3), SimTime::from_us(40));
            assert_eq!(aux(&mut e, 0, 41), vec![0; line_size]);
        }
    }
}
