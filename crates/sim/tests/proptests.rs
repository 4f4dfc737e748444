//! Randomized property tests of the simulation engine primitives.
//!
//! Deterministic in-tree replacement for an external property-testing
//! framework: each property is checked over many seeded random cases.

use lauberhorn_sim::queue::reference::ReferenceQueue;
use lauberhorn_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime};

fn vec_u64(rng: &mut SimRng, lo: u64, hi: u64, min_len: usize, max_len: usize) -> Vec<u64> {
    let len = rng.gen_range(min_len..=max_len);
    (0..len).map(|_| lo + rng.gen_u64() % (hi - lo)).collect()
}

#[test]
fn event_queue_is_a_stable_time_sort() {
    for case in 0..100u64 {
        let mut rng = SimRng::stream(case, "pq-sort");
        let times = vec_u64(&mut rng, 0, 1_000, 1, 200);
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(*t), (*t, i));
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        // Sorted by time; equal times preserve insertion order.
        for w in out.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
        assert_eq!(out.len(), times.len());
    }
}

#[test]
fn cancelled_events_never_fire() {
    for case in 0..100u64 {
        let mut rng = SimRng::stream(case, "pq-cancel");
        let times = vec_u64(&mut rng, 0, 1_000, 1, 100);
        let cancel_mask: Vec<bool> = (0..times.len()).map(|_| rng.gen_bool(0.5)).collect();
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (i, q.schedule(SimTime::from_ns(*t), i)))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for ((i, id), c) in ids.iter().zip(cancel_mask.iter()) {
            if *c {
                q.cancel(*id);
                cancelled.insert(*i);
            }
        }
        let mut fired = std::collections::HashSet::new();
        while let Some((_, i)) = q.pop() {
            fired.insert(i);
        }
        assert!(fired.is_disjoint(&cancelled));
        assert_eq!(fired.len() + cancelled.len(), times.len());
    }
}

#[test]
fn timer_wheel_matches_reference_queue_event_for_event() {
    // Differential test: the hierarchical timer wheel must deliver the
    // exact (time, insertion-order) stream of the straightforward
    // binary-heap reference implementation under randomized interleaved
    // schedule / cancel / pop workloads, including same-time ties,
    // relative (cursor-adjacent) times, rotation-aliased distances,
    // far-future calendar times, and the driver's pattern of repeated
    // peeks followed by scheduling at (and one tick past) the peeked
    // time, which the wheel answers from its lower bound.
    for case in 0..200u64 {
        let mut rng = SimRng::stream(case, "pq-diff");
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        // Live handles for cancellation: (wheel id, ref id, key).
        let mut live = Vec::new();
        let mut next_key = 0u64;
        let ops = rng.gen_range(200..=1_200);
        for _ in 0..ops {
            match rng.gen_u64() % 11 {
                // Schedule (most ops): a spread of horizons, biased
                // toward the cursor where ordering is subtlest.
                0..=5 => {
                    let now = wheel.now();
                    let horizon = match rng.gen_u64() % 5 {
                        0 => rng.gen_u64() % 1_024,             // Same tick.
                        1 => rng.gen_u64() % (64 << 10),        // Level 0.
                        2 => rng.gen_u64() % (4096 << 10),      // Level 1.
                        3 => rng.gen_u64() % (64u64 << 40),     // Deep wheel.
                        _ => 1u64 << (41 + rng.gen_u64() % 10), // Calendar.
                    };
                    let at = SimTime::from_ps(now.as_ps() + horizon);
                    let key = next_key;
                    next_key += 1;
                    let wid = wheel.schedule(at, key);
                    let rid = reference.schedule(at, key);
                    live.push((wid, rid, key));
                }
                // Cancel a random live event.
                6 => {
                    if !live.is_empty() {
                        let i = (rng.gen_u64() % live.len() as u64) as usize;
                        let (wid, rid, _) = live.swap_remove(i);
                        assert_eq!(wheel.cancel(wid), reference.cancel(rid));
                    }
                }
                // Peek without popping, then schedule at the peeked
                // time and one tick (1024 ps) later.
                7 => {
                    let peeked = wheel.peek_time();
                    assert_eq!(peeked, reference.peek_time());
                    assert_eq!(wheel.peek_time(), peeked, "a repeat peek moved");
                    if let Some(t) = peeked {
                        for at in [t, SimTime::from_ps(t.as_ps() + 1024)] {
                            let key = next_key;
                            next_key += 1;
                            let wid = wheel.schedule(at, key);
                            let rid = reference.schedule(at, key);
                            live.push((wid, rid, key));
                        }
                    }
                }
                // Pop and compare.
                _ => {
                    assert_eq!(wheel.peek_time(), reference.peek_time());
                    let w = wheel.pop();
                    let r = reference.pop();
                    assert_eq!(w, r, "case {case}: wheel diverged from reference");
                    if let Some((_, key)) = w {
                        live.retain(|&(_, _, k)| k != key);
                    }
                }
            }
        }
        // Drain both to the end.
        loop {
            assert_eq!(wheel.len(), reference.len());
            let w = wheel.pop();
            let r = reference.pop();
            assert_eq!(w, r, "case {case}: drain diverged");
            if w.is_none() {
                break;
            }
        }
    }
}

#[test]
fn histogram_quantiles_are_monotone_and_bounded() {
    for case in 0..100u64 {
        let mut rng = SimRng::stream(case, "hist-mono");
        let samples = vec_u64(&mut rng, 1, 10_000_000, 1, 500);
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "quantile {q} went backwards");
            last = v;
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        assert!(h.quantile(0.0) >= min.min(h.min()));
        assert!(h.quantile(1.0) <= max);
        assert_eq!(h.min(), min);
        assert_eq!(h.max(), max);
    }
}

#[test]
fn histogram_quantile_relative_error_bounded() {
    for case in 0..100u64 {
        let mut rng = SimRng::stream(case, "hist-err");
        let samples = vec_u64(&mut rng, 1, 100_000_000, 50, 300);
        let q = 0.01 + rng.gen_f64() * 0.98;
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1] as f64;
        let approx = h.quantile(q) as f64;
        // HDR-style bucketing: < ~4% relative error (one bucket width
        // plus rank rounding slack on small samples).
        let err = (approx - exact).abs() / exact.max(1.0);
        assert!(err < 0.04, "q={q} exact={exact} approx={approx} err={err}");
    }
}

#[test]
fn duration_arithmetic_is_consistent() {
    let mut rng = SimRng::stream(1, "dur");
    for _ in 0..500 {
        let a = rng.gen_u64() % u32::MAX as u64;
        let b = rng.gen_u64() % u32::MAX as u64;
        let da = SimDuration::from_ps(a);
        let db = SimDuration::from_ps(b);
        assert_eq!((da + db).as_ps(), a + b);
        assert_eq!(da.saturating_sub(db).as_ps(), a.saturating_sub(b));
        let t = SimTime::from_ps(a) + db;
        assert_eq!(t.since(SimTime::from_ps(a)), db);
    }
}

#[test]
fn cycles_round_trip_within_one_cycle() {
    let mut rng = SimRng::stream(2, "cycles");
    for _ in 0..500 {
        let cycles = rng.gen_u64() % 1_000_000;
        let f = rng.gen_range(1..=4) as f64;
        let d = SimDuration::from_cycles(cycles, f);
        let back = d.as_cycles(f);
        assert!(back.abs_diff(cycles) <= 1, "{cycles} -> {back}");
    }
}
