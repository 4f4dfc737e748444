//! Tier-1 observability guarantees (DESIGN.md §11).
//!
//! 1. **Zero perturbation**: enabling span tracing must not change a
//!    single bit of any report — the tracer never touches the event
//!    queue, the RNG, or simulated time, and metrics come from
//!    counters the components maintain anyway (spans and metrics are
//!    the only observability paths). The
//!    check is `Report::digest()` equality, which folds in every
//!    numeric field, every latency summary, and every metrics entry.
//! 2. **Span balance**: every recorded span closes, parents are
//!    recorded before their children, and a parent's interval contains
//!    its children's — on every stack, including capped tracers.
//! 3. **Exact decomposition**: the critical-path extraction slices
//!    every request's end-to-end latency into contiguous per-stage
//!    segments whose durations sum back EXACTLY (integer picoseconds,
//!    no residue) — on every stack, under faults and under overload.

use lauberhorn::prelude::*;
use lauberhorn::rpc::{driver, RetryPolicy};
use lauberhorn::sim::fault::FaultPlan;
use lauberhorn::sim::{critical_paths, ObserveSpec};

fn digest(kind: StackKind, wl: &WorkloadSpec) -> u64 {
    Experiment::new(kind).run(wl).digest()
}

#[test]
fn observability_never_perturbs_clean_runs() {
    let base = WorkloadSpec::echo_closed(64, 2, 11);
    for stack in StackKind::all() {
        let blind = digest(stack, &base);
        let spans_only = digest(
            stack,
            &base.clone().with_observe(ObserveSpec::spans(1 << 16)),
        );
        let full = digest(stack, &base.clone().with_observe(ObserveSpec::full()));
        assert_eq!(
            blind,
            spans_only,
            "{}: span tracing perturbed the report",
            stack.name()
        );
        assert_eq!(
            blind,
            full,
            "{}: full observability perturbed the report",
            stack.name()
        );
    }
}

#[test]
fn observability_never_perturbs_faulty_runs() {
    // The hard case: wire loss, retransmission, and dedup exercise the
    // abandon/replay paths where a stray span could most plausibly
    // leak into scheduling.
    let base = WorkloadSpec::open_poisson(150_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 4, 13)
        .with_faults(FaultPlan::wire_loss(0.05))
        .with_retry(RetryPolicy::same_rack());
    for stack in [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ] {
        let blind = digest(stack, &base);
        let full = digest(stack, &base.clone().with_observe(ObserveSpec::full()));
        assert_eq!(
            blind,
            full,
            "{}: observability perturbed a faulty run",
            stack.name()
        );
    }
}

#[test]
fn spans_balance_on_every_stack() {
    let wl = WorkloadSpec::echo_closed(64, 1, 5).with_observe(ObserveSpec::full());
    for stack in StackKind::all() {
        let mut s = Experiment::new(stack).build();
        let report = driver::run(&mut *s, &wl);
        assert!(report.completed > 0, "{}", stack.name());
        let tracer = &s.common().tracer;
        assert!(
            !tracer.spans().is_empty(),
            "{}: tracing on but no spans",
            stack.name()
        );
        assert_eq!(tracer.open_count(), 0, "{}: open spans", stack.name());
        if let Err(e) = tracer.check_balance() {
            panic!("{}: {e}", stack.name());
        }
    }
}

#[test]
fn critical_path_decomposition_is_exact_on_every_stack() {
    // The exact-sum invariant: for EVERY traced request, the segment
    // durations of its critical path sum to its end-to-end latency —
    // with integer picoseconds there is no rounding to hide behind.
    // Clean, faulty, and overloaded workloads all have to satisfy it.
    let clean = WorkloadSpec::echo_closed(64, 2, 11).with_observe(ObserveSpec::full());
    let faulty =
        WorkloadSpec::open_poisson(150_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 4, 13)
            .with_faults(FaultPlan::wire_loss(0.05))
            .with_retry(RetryPolicy::same_rack())
            .with_observe(ObserveSpec::full());
    let overloaded =
        WorkloadSpec::open_poisson(300_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 5, 2)
            .with_observe(ObserveSpec::full());
    for stack in StackKind::all() {
        for (label, wl) in [
            ("clean", &clean),
            ("faulty", &faulty),
            ("overloaded", &overloaded),
        ] {
            let mut s = Experiment::new(stack).build();
            let report = driver::run(&mut *s, wl);
            let paths = critical_paths(s.common().tracer.spans());
            assert!(
                !paths.is_empty(),
                "{} ({label}): no critical paths extracted",
                stack.name()
            );
            for p in &paths {
                if let Err(e) = p.check_exact() {
                    panic!("{} ({label}): request {}: {e}", stack.name(), p.request_id);
                }
            }
            // The report's blame profile aggregates those same paths:
            // class totals must re-sum to the attributed total.
            let blame = report
                .blame
                .as_ref()
                .unwrap_or_else(|| panic!("{} ({label}): no blame profile", stack.name()));
            assert_eq!(
                blame.by_class_ps.iter().sum::<u64>(),
                blame.total_ps,
                "{} ({label}): class blame does not re-sum",
                stack.name()
            );
            assert_eq!(blame.requests, paths.len() as u64, "{}", stack.name());
        }
    }
}

#[test]
fn flight_recorder_keeps_zero_perturbation() {
    // The recorder arms the recycle-mode tracer, the streaming p99
    // estimator, and critical-path blame over retained outliers — and
    // still must not move a single bit of the report digest.
    let clean = WorkloadSpec::echo_closed(64, 2, 11);
    for stack in StackKind::all() {
        let blind = digest(stack, &clean);
        let armed = digest(stack, &clean.clone().with_observe(ObserveSpec::flight(32)));
        assert_eq!(
            blind,
            armed,
            "{}: flight recorder perturbed a clean run",
            stack.name()
        );
    }
    let faulty =
        WorkloadSpec::open_poisson(150_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 4, 13)
            .with_faults(FaultPlan::wire_loss(0.05))
            .with_retry(RetryPolicy::same_rack());
    for stack in [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ] {
        let blind = digest(stack, &faulty);
        let armed = digest(stack, &faulty.clone().with_observe(ObserveSpec::flight(32)));
        assert_eq!(
            blind,
            armed,
            "{}: flight recorder perturbed a faulty run",
            stack.name()
        );
    }
}

#[test]
fn nic_reset_episode_balances_spans_and_blames_recovery() {
    use lauberhorn::sim::fault::NicFaultKind;
    use lauberhorn::sim::SimDuration;
    // The PR 7 failure-domain episode with tracing on: a full NIC
    // reset mid-run pauses the link, backlogs arrivals, and replays
    // them after shadow reconstruction. The tracer must stay balanced
    // through the force-close window, and the requests that waited out
    // the outage must show the wait as a `recovery` segment on their
    // critical path.
    // The degraded window is a handful of microseconds (detection +
    // shadow reconstruction), so drive arrivals at 1M rps to land
    // several frames inside it.
    let plan = FaultPlan::nic_fault(NicFaultKind::Reset, SimDuration::from_ms(2));
    let mut wl =
        WorkloadSpec::open_poisson(1_000_000.0, 2, 0.5, SizeDist::Fixed { bytes: 64 }, 10, 11);
    wl.warmup = 100;
    let wl = wl.with_faults(plan).with_retry(RetryPolicy::same_rack());
    let traced = wl.clone().with_observe(ObserveSpec::full());
    let mut s = Experiment::new(StackKind::LauberhornEnzian)
        .cores(4)
        .services(ServiceSpec::uniform(2, 1000, 32))
        .build();
    let report = driver::run(&mut *s, &traced);
    let tracer = &s.common().tracer;
    assert_eq!(tracer.open_count(), 0, "open spans after the episode");
    if let Err(e) = tracer.check_balance() {
        panic!("tracer unbalanced across the NIC reset: {e}");
    }
    assert_eq!(
        report.metrics.get_counter("os.watchdog.resets_recovered"),
        Some(1),
        "episode did not run"
    );
    let backlogged = report
        .metrics
        .get_counter("nic.recovery.backlogged")
        .unwrap_or(0);
    assert!(backlogged > 0, "no arrivals were backlogged by the outage");
    let paths = critical_paths(tracer.spans());
    let recovery_ps: u64 = paths
        .iter()
        .flat_map(|p| &p.segments)
        .filter(|seg| seg.label() == "recovery")
        .map(|seg| seg.dur_ps())
        .sum();
    assert!(
        recovery_ps > 0,
        "no recovery segments on any critical path despite {backlogged} backlogged arrivals"
    );
    // And the blame profile surfaces the same story.
    let blame = report.blame.as_ref().expect("blame profile present");
    assert!(
        blame.by_stage_ps.get("recovery").copied().unwrap_or(0) > 0,
        "recovery stage missing from the blame profile"
    );
    // Zero perturbation holds through the episode, too.
    let blind = Experiment::new(StackKind::LauberhornEnzian)
        .cores(4)
        .services(ServiceSpec::uniform(2, 1000, 32))
        .run(&wl);
    assert_eq!(
        report.digest(),
        blind.digest(),
        "tracing perturbed the reset episode"
    );
}

#[test]
fn span_cap_sheds_load_without_breaking_balance() {
    // A tiny cap must drop spans (counted), never corrupt the ones
    // kept, and never perturb the run either.
    let base = WorkloadSpec::echo_closed(64, 1, 5);
    for stack in [StackKind::LauberhornEnzian, StackKind::KernelModern] {
        let capped = base.clone().with_observe(ObserveSpec::spans(32));
        let mut s = Experiment::new(stack).build();
        let report = driver::run(&mut *s, &capped);
        let tracer = &s.common().tracer;
        assert!(tracer.dropped() > 0, "{}: cap never hit", stack.name());
        assert!(tracer.spans().len() <= 32, "{}", stack.name());
        if let Err(e) = tracer.check_balance() {
            panic!("{}: {e}", stack.name());
        }
        assert_eq!(
            report.digest(),
            digest(stack, &base),
            "{}: capped tracing perturbed the report",
            stack.name()
        );
    }
}
