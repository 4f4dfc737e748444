//! Cross-stack conformance: every stack kind runs the *same* workload
//! through the one generic driver, and the driver proves it offered
//! every stack a byte-identical request stream by publishing a digest
//! over `(request id, service, payload)` of every generated request:
//! FNV-1a's xor-multiply step, run once per eight-byte word with a
//! byte-wise tail. If any stack saw different bytes — a different
//! arrival count, a different service mix, a different payload — the
//! digests diverge and this test names the offender.

use std::sync::Arc;

use lauberhorn::experiment::{Experiment, StackKind};
use lauberhorn::prelude::*;
use lauberhorn::rpc::spec::PayloadGen;
use lauberhorn::workload::SizeDist;

/// An open-loop workload: arrivals are pre-scheduled by the arrival
/// process, so the client side is identical no matter how fast the
/// server answers. (Closed loops intentionally couple generation to
/// responses, so their streams legitimately differ per stack.)
fn open_workload(seed: u64) -> WorkloadSpec {
    let mut wl =
        WorkloadSpec::open_poisson(80_000.0, 4, 1.1, SizeDist::Fixed { bytes: 64 }, 5, seed);
    wl.warmup = 50;
    wl
}

#[test]
fn all_stacks_see_identical_request_streams() {
    let wl = open_workload(42);
    let services = ServiceSpec::uniform(4, 1000, 32);
    let reports: Vec<Report> = StackKind::all()
        .into_iter()
        .map(|stack| {
            Experiment::new(stack)
                .cores(2)
                .services(services.clone())
                .run(&wl)
        })
        .collect();
    let reference = &reports[0];
    assert_ne!(
        reference.request_digest, 0,
        "digest never absorbed a request"
    );
    for (stack, r) in StackKind::all().into_iter().zip(&reports) {
        assert_eq!(
            r.request_digest,
            reference.request_digest,
            "{} was offered a different request byte stream than {}",
            stack.name(),
            StackKind::all()[0].name()
        );
        assert_eq!(
            r.offered,
            reference.offered,
            "{} was offered a different request count",
            stack.name()
        );
    }
}

#[test]
fn all_stacks_produce_identically_shaped_reports() {
    let wl = open_workload(7);
    let services = ServiceSpec::uniform(4, 1000, 32);
    for stack in StackKind::all() {
        let r = Experiment::new(stack)
            .cores(2)
            .services(services.clone())
            .run(&wl);
        assert_eq!(r.stack, stack.name());
        assert!(r.offered > 0, "{}: offered nothing", stack.name());
        assert!(
            r.completed + r.dropped > 0,
            "{}: neither completed nor dropped anything",
            stack.name()
        );
        assert!(
            r.completed as f64 / r.offered as f64 > 0.5,
            "{}: completed only {}/{}",
            stack.name(),
            r.completed,
            r.offered
        );
        assert!(r.rtt.p50 > 0, "{}: empty RTT histogram", stack.name());
        assert!(
            r.rtt.p50 <= r.rtt.p99,
            "{}: percentiles out of order",
            stack.name()
        );
        assert!(
            r.duration.as_us_f64() > 0.0,
            "{}: zero-length run",
            stack.name()
        );
    }
}

/// `open_workload(seed)` with 13-byte scripted payloads (one word and
/// a five-byte tail); request 7's byte `flip`, if any, is inverted.
fn scripted_workload(seed: u64, flip: Option<usize>) -> WorkloadSpec {
    let mut wl = open_workload(seed);
    wl.payload = Some(PayloadGen::Script(Arc::new(move |id| {
        let mut bytes: Vec<u8> = (0..13u8).map(|i| i ^ id as u8).collect();
        if let (7, Some(b)) = (id, flip.and_then(|at| bytes.get_mut(at))) {
            *b = !*b;
        }
        bytes
    })));
    wl
}

#[test]
fn digest_distinguishes_different_workloads() {
    // The digest must actually depend on the stream: two different
    // seeds must not collide (they change every arrival's service draw).
    let services = ServiceSpec::uniform(4, 1000, 32);
    let run = |wl: &WorkloadSpec| {
        Experiment::new(StackKind::KernelModern)
            .cores(2)
            .services(services.clone())
            .run(wl)
    };
    let a = run(&open_workload(1));
    let b = run(&open_workload(2));
    assert_ne!(a.request_digest, b.request_digest);
    // Nor may it miss a payload byte: with the seed fixed, streams that
    // differ only in one byte of one request, inside the word the
    // digest folds whole or in the byte-wise tail, must not collide.
    let base = run(&scripted_workload(1, None));
    assert!(base.offered > 7, "request 7 was generated");
    assert_eq!(
        base.request_digest,
        run(&scripted_workload(1, None)).request_digest
    );
    for (flip, place) in [(3, "word"), (10, "tail")] {
        let other = run(&scripted_workload(1, Some(flip)));
        assert_eq!(other.offered, base.offered);
        assert_ne!(
            other.request_digest, base.request_digest,
            "a flipped {place} byte left the digest unchanged"
        );
    }
}
