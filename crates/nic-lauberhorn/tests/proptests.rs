//! Randomized tests of the endpoint protocol engine: arbitrary
//! interleavings of loads, requests, timeouts and retires never lose a
//! request, never answer a fill twice, and never collect a response
//! that was not produced.
//!
//! Deterministic in-tree replacement for an external property-testing
//! framework: cases are generated from seeded `SimRng` streams.

use lauberhorn_coherence::{FillToken, LineAddr};
use lauberhorn_nic::dispatch::{DispatchKind, DispatchLine};
use lauberhorn_nic::endpoint::{
    Effect, Endpoint, EndpointId, EndpointLayout, LineRole, RequestCtx, RequestOutcome,
};
use lauberhorn_os::ProcessId;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_sim::{SimRng, SimTime};

#[derive(Debug, Clone)]
enum Step {
    /// The core issues its next load (legal only when unblocked).
    CoreLoad,
    /// A request arrives from the network.
    Request,
    /// The pending TRYAGAIN timer fires (uses the latest generation).
    Timeout,
    /// The kernel retires the endpoint's waiter.
    Retire,
}

fn arb_steps(rng: &mut SimRng) -> Vec<Step> {
    let n = rng.gen_range(1..=120);
    (0..n)
        // Weighted 3:3:1:1 like the original strategy.
        .map(|_| match rng.gen_range(0..=7) {
            0..=2 => Step::CoreLoad,
            3..=5 => Step::Request,
            6 => Step::Timeout,
            _ => Step::Retire,
        })
        .collect()
}

fn layout() -> EndpointLayout {
    EndpointLayout {
        base: LineAddr(0x1_0000_0000),
        line_size: 128,
        n_aux: 2,
    }
}

fn rpc(id: u64) -> (DispatchLine, RequestCtx) {
    (
        DispatchLine {
            code_ptr: 0xAB,
            data_ptr: 0xCD,
            request_id: id,
            service_id: 1,
            method_id: 0,
            kind: DispatchKind::Rpc,
            args: vec![id as u8; 16],
        },
        RequestCtx {
            request_id: id,
            service_id: 1,
            method_id: 0,
            client: EndpointAddr::host(9, 99),
            cont_hint: 0,
        },
    )
}

/// Mirror of the core's protocol state, driven purely by the effects
/// the endpoint emits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CoreState {
    /// Ready to issue a load on the given CONTROL parity.
    Ready(usize),
    /// Stalled on a load of the given parity.
    Waiting(usize),
    /// Holding a delivered request on the given parity (will write a
    /// response, then load the other line).
    Holding(usize),
    /// Left the loop after RETIRE.
    Retired,
}

#[test]
fn endpoint_protocol_holds_invariants() {
    for case in 0..256u64 {
        let mut rng = SimRng::stream(case, "ep-steps");
        let steps = arb_steps(&mut rng);
        let mut ep = Endpoint::new(EndpointId(0), ProcessId(1), layout(), 4);
        let mut core = CoreState::Ready(0);
        let mut next_token = 0u64;
        let mut next_req = 0u64;
        let mut armed_gen: Option<u64> = None;

        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut rejected = 0u64;
        let mut collected = 0u64;
        let mut completed = 0u64;
        let mut answered_tokens = std::collections::HashSet::new();
        let mut outstanding_tokens = std::collections::HashSet::new();

        // One effect buffer, reused for every transition as the NIC
        // does.
        let mut fx: Vec<Effect> = Vec::new();
        // Applies (and drains) one batch of effects, updating the core
        // mirror.
        let apply = |effects: &mut Vec<Effect>,
                     core: &mut CoreState,
                     armed_gen: &mut Option<u64>,
                     collected: &mut u64,
                     delivered: &mut u64,
                     answered: &mut std::collections::HashSet<u64>,
                     outstanding: &mut std::collections::HashSet<u64>| {
            for e in effects.drain(..) {
                match e {
                    Effect::Respond { token, data } => {
                        assert!(
                            outstanding.remove(&token.0),
                            "answered a token that was not parked: {token:?}"
                        );
                        assert!(answered.insert(token.0), "token {token:?} answered twice");
                        let line = DispatchLine::decode(&data, &[]).expect("decodes");
                        let CoreState::Waiting(p) = *core else {
                            panic!("fill arrived while core not waiting: {core:?}");
                        };
                        match line.kind {
                            DispatchKind::Rpc | DispatchKind::DmaDescriptor => {
                                *delivered += 1;
                                *core = CoreState::Holding(p);
                            }
                            DispatchKind::TryAgain => {
                                *core = CoreState::Ready(p);
                            }
                            DispatchKind::Retire => {
                                *core = CoreState::Retired;
                            }
                        }
                    }
                    Effect::ArmTimeout { generation, .. } => {
                        *armed_gen = Some(generation);
                    }
                    Effect::CollectResponse { .. } => {
                        *collected += 1;
                    }
                    // No deadline is armed in this harness, so stale
                    // sheds cannot occur.
                    Effect::ShedStale { .. } => unreachable!("no deadline armed"),
                }
            }
        };

        for step in steps {
            match step {
                Step::CoreLoad => match core {
                    CoreState::Ready(p) => {
                        let token = FillToken(next_token);
                        next_token += 1;
                        outstanding_tokens.insert(token.0);
                        core = CoreState::Waiting(p);
                        ep.on_load(LineRole::Control(p), token, SimTime::ZERO, &mut fx);
                        apply(
                            &mut fx,
                            &mut core,
                            &mut armed_gen,
                            &mut collected,
                            &mut delivered,
                            &mut answered_tokens,
                            &mut outstanding_tokens,
                        );
                    }
                    CoreState::Holding(p) => {
                        // Core finished the handler: write response (not
                        // modelled here), then load the other line.
                        completed += 1;
                        let other = 1 - p;
                        let token = FillToken(next_token);
                        next_token += 1;
                        outstanding_tokens.insert(token.0);
                        core = CoreState::Waiting(other);
                        ep.on_load(LineRole::Control(other), token, SimTime::ZERO, &mut fx);
                        apply(
                            &mut fx,
                            &mut core,
                            &mut armed_gen,
                            &mut collected,
                            &mut delivered,
                            &mut answered_tokens,
                            &mut outstanding_tokens,
                        );
                    }
                    CoreState::Waiting(_) | CoreState::Retired => {}
                },
                Step::Request => {
                    let (line, ctx) = rpc(next_req);
                    next_req += 1;
                    injected += 1;
                    match ep.on_request(line, ctx, SimTime::ZERO, &mut fx) {
                        RequestOutcome::DeliveredToParked => {
                            apply(
                                &mut fx,
                                &mut core,
                                &mut armed_gen,
                                &mut collected,
                                &mut delivered,
                                &mut answered_tokens,
                                &mut outstanding_tokens,
                            );
                        }
                        RequestOutcome::Queued { .. } => {}
                        RequestOutcome::Rejected(..) => rejected += 1,
                    }
                }
                Step::Timeout => {
                    if let Some(g) = armed_gen.take() {
                        ep.on_timeout(g, &mut fx);
                        apply(
                            &mut fx,
                            &mut core,
                            &mut armed_gen,
                            &mut collected,
                            &mut delivered,
                            &mut answered_tokens,
                            &mut outstanding_tokens,
                        );
                    }
                }
                Step::Retire => {
                    ep.retire(&mut fx);
                    apply(
                        &mut fx,
                        &mut core,
                        &mut armed_gen,
                        &mut collected,
                        &mut delivered,
                        &mut answered_tokens,
                        &mut outstanding_tokens,
                    );
                }
            }
            // Conservation: every injected request is delivered, queued,
            // or rejected.
            assert_eq!(
                injected,
                delivered + ep.queue_depth() as u64 + rejected,
                "conservation violated"
            );
            // The core and the endpoint agree on parking.
            assert_eq!(
                matches!(core, CoreState::Waiting(_)),
                ep.is_parked(),
                "park state diverged: core {core:?}"
            );
            // Responses: the endpoint marks a response outstanding at
            // *delivery* time (it will appear in the delivered line);
            // collection happens at the next other-line load. At most
            // one response is ever uncollected.
            assert!(collected <= delivered);
            assert!(delivered - collected <= 1);
            assert_eq!(ep.has_outstanding(), delivered > collected);
            // The handler mirror can never be ahead of deliveries.
            assert!(completed <= delivered);
        }
    }
}
