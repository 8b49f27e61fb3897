//! Property-based tests for the simulation kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use simkit::event::{HORIZON_PS, SLOT_PS};
use simkit::rng::{seed_from, ScrambledZipf, Zipf};
use simkit::stats::{OnlineStats, TimeIntegrator};
use simkit::{EventQueue, SimTime};

/// Push time for one differential-test operation of kind `kind` (< 8),
/// relative to the queue clock `now`; `r` is the operation's random word.
fn push_time(kind: u8, r: u64, now: u64, pushed: &[u64]) -> u64 {
    let slot = now / SLOT_PS;
    match kind {
        // Zero delay: ties with everything else pushed at `now`.
        0 => now,
        // A few picoseconds.
        1 => now + r % 16,
        // DRAM/link/writeback completions.
        2 => now + 50_000 + r % 550_001,
        // Exactly on a bucket boundary, sometimes past the horizon.
        3 => (slot + 1 + r % 1_100) * SLOT_PS,
        // On the horizon boundary, or one picosecond either side.
        4 => (slot * SLOT_PS + HORIZON_PS + r % 3).saturating_sub(1),
        // Microseconds to tens of milliseconds.
        5 => now + r % 50_000_000_000,
        // Exactly the time of an earlier push (possibly already popped).
        6 => pushed
            .get((r as usize) % pushed.len().max(1))
            .copied()
            .unwrap_or(now),
        // Before the clock.
        _ => now.saturating_sub(r % 2_000_000),
    }
}

proptest! {
    /// Events pop in non-decreasing time order regardless of push order,
    /// and same-time events pop in push order.
    #[test]
    fn event_queue_orders_any_sequence(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated for equal times");
                }
            }
            last = Some((t, i));
        }
    }

    /// The calendar wheel pops, peeks and counts exactly like a reference
    /// `BinaryHeap` ordered by `(time, seq)` on random interleaved streams
    /// whose pushes cross the horizon both ways.
    #[test]
    fn event_queue_matches_reference_heap(
        ops in prop::collection::vec((0u8..12, 0u64..u64::MAX), 1..600)
    ) {
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut pushed = Vec::new();
        let mut seq = 0u64;
        for &(kind, r) in &ops {
            let now = q.now().as_ps();
            let (got, want) = match kind {
                0..=7 => {
                    let t = push_time(kind, r, now, &pushed);
                    q.push(SimTime::from_ps(t), seq);
                    reference.push(Reverse((t, seq)));
                    pushed.push(t);
                    seq += 1;
                    (None, None)
                }
                8 | 9 => (q.pop(), reference.pop().map(|Reverse(e)| e)),
                10 => {
                    let limit = now + r % 2_000_000;
                    let due = reference.peek().is_some_and(|Reverse((t, _))| *t <= limit);
                    let want = if due { reference.pop().map(|Reverse(e)| e) } else { None };
                    (q.pop_through(SimTime::from_ps(limit)), want)
                }
                _ => (None, None),
            };
            prop_assert_eq!(got.map(|(t, e)| (t.as_ps(), e)), want);
            if let Some((t, _)) = want {
                prop_assert_eq!(q.now().as_ps(), t);
            }
            prop_assert_eq!(
                q.peek_time().map(|t| t.as_ps()),
                reference.peek().map(|Reverse((t, _))| *t)
            );
            prop_assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse(want)) = reference.pop() {
            prop_assert_eq!(q.pop().map(|(t, e)| (t.as_ps(), e)), Some(want));
        }
        prop_assert!(q.is_empty() && q.pop().is_none());
        prop_assert_eq!(q.counters().pushes, seq);
    }

    /// The Zipf pmf is non-increasing in rank and sums to 1.
    #[test]
    fn zipf_pmf_shape(n in 2u64..5_000, theta in 0.01f64..0.99) {
        let z = Zipf::new(n, theta);
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for i in 0..n {
            let p = z.pmf(i);
            prop_assert!(p <= prev + 1e-12);
            prev = p;
            sum += p;
        }
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    /// Zipf samples always land in the domain.
    #[test]
    fn zipf_samples_in_domain(n in 1u64..10_000, theta in 0.01f64..0.99, seed in 0u64..1_000) {
        let z = Zipf::new(n.max(1), theta);
        let s = ScrambledZipf::new(n.max(1), theta);
        let mut rng = seed_from(seed, 0);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n.max(1));
            prop_assert!(s.sample(&mut rng) < n.max(1));
        }
    }

    /// The time integrator equals a step-function integral computed naively.
    #[test]
    fn integrator_matches_naive(steps in prop::collection::vec((1u64..100, 0.0f64..50.0), 1..100)) {
        let mut i = TimeIntegrator::new();
        let mut t = 0u64;
        let mut naive = 0.0;
        let mut cur = 0.0;
        for &(dt, v) in &steps {
            naive += cur * dt as f64; // value held over [t, t+dt)
            t += dt;
            cur = v;
            i.set(SimTime::from_ps(t), v);
        }
        // Integrate a final stretch.
        naive += cur * 1_000.0;
        let total = i.integral_at(SimTime::from_ps(t + 1_000));
        // integral_at works in ns; our naive sum is in value*ps.
        prop_assert!((total - naive / 1_000.0).abs() < 1e-6);
    }

    /// Welford mean matches the naive mean.
    #[test]
    fn online_stats_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert!(s.min() <= s.mean() + 1e-9 && s.mean() <= s.max() + 1e-9);
    }

    /// seed_from is a pure function of (seed, stream).
    #[test]
    fn seeding_is_pure(seed in 0u64..u64::MAX, stream in 0u64..1_000) {
        use rand::Rng;
        let mut a = seed_from(seed, stream);
        let mut b = seed_from(seed, stream);
        for _ in 0..16 {
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
