//! Randomized tests of the scheduler: arbitrary operation sequences
//! preserve the core/queue bookkeeping invariants.
//!
//! Deterministic in-tree replacement for an external property-testing
//! framework: cases are generated from seeded `SimRng` streams.

use lauberhorn_os::proc::{ThreadId, ThreadState};
use lauberhorn_os::OsScheduler;
use lauberhorn_sim::SimRng;

#[derive(Debug, Clone)]
enum Op {
    Wakeup(u32),
    Block(usize),
}

fn arb_op(rng: &mut SimRng, threads: u32, cores: usize) -> Op {
    match rng.gen_range(0..=1) {
        0 => Op::Wakeup(rng.gen_range(0..=threads as usize - 1) as u32),
        _ => Op::Block(rng.gen_range(0..=cores - 1)),
    }
}

fn check(s: &OsScheduler, threads: u32, cores: usize) {
    // 1. A thread is Running on exactly the core that claims it.
    let mut running_threads = std::collections::HashSet::new();
    for c in 0..cores {
        if let Some(t) = s.current(c) {
            assert_eq!(
                s.state(t),
                Some(ThreadState::Running { core: c }),
                "core {c} claims {t:?}"
            );
            assert!(running_threads.insert(t), "{t:?} on two cores");
        }
    }
    // 2. Every registered thread has a coherent state.
    let mut runnable = 0;
    for t in 0..threads {
        match s.state(ThreadId(t)) {
            Some(ThreadState::Running { core }) => {
                assert_eq!(s.current(core), Some(ThreadId(t)));
            }
            Some(ThreadState::Runnable) => runnable += 1,
            Some(ThreadState::Blocked) => {}
            None => panic!("thread {t} unregistered"),
        }
    }
    // 3. Queue accounting matches the states.
    assert_eq!(s.total_queued(), runnable, "queued != runnable");
}

#[test]
fn scheduler_invariants_hold() {
    for case in 0..128u64 {
        let mut rng = SimRng::stream(case, "sched-inv");
        let threads = 6u32;
        let cores = 3usize;
        let n_ops = rng.gen_range(1..=200);
        let mut s = OsScheduler::new(cores);
        for t in 0..threads {
            s.register(ThreadId(t));
        }
        for _ in 0..n_ops {
            match arb_op(&mut rng, threads, cores) {
                Op::Wakeup(t) => {
                    s.wakeup(ThreadId(t)).unwrap();
                }
                Op::Block(c) => {
                    s.block_current(c).unwrap();
                }
            }
            check(&s, threads, cores);
        }
    }
}

#[test]
fn work_conserving_under_wakeups() {
    // As long as there are idle cores, no woken thread may sit on a
    // queue.
    for case in 0..128u64 {
        let mut rng = SimRng::stream(case, "sched-wc");
        let n_wakes = rng.gen_range(1..=50);
        let mut s = OsScheduler::new(4);
        for t in 0..8 {
            s.register(ThreadId(t));
        }
        for _ in 0..n_wakes {
            let w = rng.gen_range(0..=7) as u32;
            s.wakeup(ThreadId(w)).unwrap();
            let idle = s.idle_cores().len();
            let queued = s.total_queued();
            assert!(
                idle == 0 || queued == 0,
                "{idle} idle cores with {queued} queued threads"
            );
        }
    }
}
