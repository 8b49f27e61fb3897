//! Substrate micro-benchmarks: the hot paths every figure's simulation
//! rests on — DRAM controller scheduling, CHA accounting, event queue,
//! samplers, and the page-list structures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memsim::controller::MemoryController;
use memsim::{AccessKind, Cha, DramConfig, TierId, TrafficClass};
use simkit::rng::{seed_from, ScrambledZipf, Zipf};
use simkit::{EventQueue, SimTime};
use tierctl::{FreqTracker, TierBins};

/// Pending events in the event-queue hold model.
const HOLD_DEPTH: u64 = 271;
/// Hold steps (one pop plus one push) per timed iteration.
const HOLD_STEPS: u64 = 1_000;

/// Pseudo-random 50-600 ns delays in picoseconds (64-bit LCG).
struct HoldDelays(u64);

impl HoldDelays {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        50_000 + (self.0 >> 33) % 550_001
    }
}

fn bench(c: &mut Criterion) {
    c.bench_function("kernels/controller-schedule", |b| {
        let mut mc = MemoryController::new(DramConfig::ddr4_3200_8ch());
        let mut t = SimTime::ZERO;
        let mut addr = 0u64;
        b.iter(|| {
            t += SimTime::from_ns(2.0);
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            mc.schedule(t, addr >> 32, AccessKind::Read).done
        })
    });

    c.bench_function("kernels/cha-arrival-departure", |b| {
        let mut cha = Cha::new(2);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimTime::from_ns(5.0);
            cha.on_read_arrival(TierId::DEFAULT, t, TrafficClass::App);
            cha.on_read_departure(TierId::DEFAULT, t + SimTime::from_ns(100.0));
        })
    });

    // Hold model: pop the earliest event and push it back 50-600 ns later,
    // at the mean queue depth of the contended GUPS cell. One iteration is
    // HOLD_STEPS (1000) pop+push pairs, so ns/iter / 1000 is ns per event.
    // The std heap row is the reference for the per-event ratio.
    c.bench_function("kernels/event-queue-push-pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut delays = HoldDelays(1);
        for i in 0..HOLD_DEPTH {
            q.push(SimTime::from_ps(delays.next()), i);
        }
        b.iter(|| {
            let mut sum = 0;
            for _ in 0..HOLD_STEPS {
                let (t, e) = q.pop().expect("non-empty");
                q.push(t + SimTime::from_ps(delays.next()), e);
                sum += e;
            }
            sum
        })
    });

    c.bench_function("kernels/binary-heap-push-pop", |b| {
        let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
        let mut delays = HoldDelays(1);
        let mut seq = 0u64;
        for i in 0..HOLD_DEPTH {
            q.push(Reverse((SimTime::from_ps(delays.next()), seq, i)));
            seq += 1;
        }
        b.iter(|| {
            let mut sum = 0;
            for _ in 0..HOLD_STEPS {
                let Reverse((t, _, e)) = q.pop().expect("non-empty");
                q.push(Reverse((t + SimTime::from_ps(delays.next()), seq, e)));
                seq += 1;
                sum += e;
            }
            sum
        })
    });

    c.bench_function("kernels/zipf-sample", |b| {
        let z = Zipf::new(400_000, 0.99);
        let mut rng = seed_from(1, 0);
        b.iter(|| z.sample(&mut rng))
    });

    c.bench_function("kernels/scrambled-zipf-sample", |b| {
        let z = ScrambledZipf::new(400_000, 0.99);
        let mut rng = seed_from(2, 0);
        b.iter(|| z.sample(&mut rng))
    });

    c.bench_function("kernels/freq-tracker-record", |b| {
        let mut t = FreqTracker::new(16);
        let mut vpn = 0u64;
        b.iter(|| {
            vpn = (vpn + 1) % 18_432;
            t.record(black_box(vpn))
        })
    });

    c.bench_function("kernels/tierbins-update", |b| {
        let mut bins = TierBins::new(2, 5, 16);
        for vpn in 0..18_432 {
            bins.insert(vpn, TierId::DEFAULT, 0);
        }
        let mut vpn = 0u64;
        let mut count = 0u32;
        b.iter(|| {
            vpn = (vpn + 1) % 18_432;
            count = (count + 1) % 16;
            bins.update_count(black_box(vpn), count);
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
