//! The benchmark's workloads: set-up through `build_gups` and
//! `colocation::build`, one tick through the public layer calls, and the
//! correctness checks and work counts read after every tick.

use std::time::Instant;

use experiments::colocation::{self, ColoExperiment};
use experiments::runner::RunConfig;
use experiments::scenario::{build_gups, Experiment, GupsScenario, Policy};
use memsim::{Machine, MigrationCounters, MigrationEngineConfig, TickReport, TierId};
use simkit::SimTime;
use tiersys::{SystemKind, TieringSystem};

use crate::trace::Tracer;

/// Period of the hot-set moves on `gups-shifting` (Figure 9's move,
/// repeated every 25 ticks).
const SHIFT_EVERY: SimTime = SimTime::from_ps(2_500_000_000);
/// Moves scheduled on `gups-shifting`; more than any run length needs.
const SHIFTS: u64 = 64;
/// Page offsets the 6144-page hot set cycles through inside the
/// 18432-page GUPS working set.
const SHIFT_OFFSETS: [u64; 4] = [0, 12288, 3072, 6144];
/// Ticks between two NDJSON exports on `colocation-observed`.
const EXPORT_EVERY: usize = 10;
/// Warm-up of `colocation-observed`. The arbiter's rebalancing starts
/// about 20 migrations per tick and settles below one by tick 450, past
/// the colocation grid's quick-mode warm-up of 250 and short of its full
/// 800.
const COLOCATION_WARMUP: usize = 500;
/// Event ring of `colocation-observed`; an export that finds events
/// dropped since the previous one fails a check.
const RING_EVENTS: usize = 1 << 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GUPS at 2x antagonist intensity under HeMem+Colloid, exclusive
    /// migration engine: the paper's headline cell.
    GupsContended,
    /// GUPS without antagonist, hot set moving every 2.5 ms, TPP+Colloid
    /// on the transactional migration engine.
    GupsShifting,
    /// The `ls-antagonist` colocation mix under per-tenant MEMTIS+Colloid
    /// with the QoS arbiter, a live event ring, a metrics hub and NDJSON
    /// export.
    ColocationObserved,
}

/// Fixed simulated length of one batch, in 100 us ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Ticks run from empty queues before statistics start.
    pub warmup: usize,
    /// Ticks timed after the warm-up.
    pub window: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GupsContended,
        Workload::GupsShifting,
        Workload::ColocationObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GupsContended => "gups-contended",
            Workload::GupsShifting => "gups-shifting",
            Workload::ColocationObserved => "colocation-observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The batch length the committed digests were taken at. The warm-up
    /// reaches the steady state the experiments measure: the steady-state
    /// runner's minimum for the GUPS cells, [`COLOCATION_WARMUP`] for the
    /// mix. The `gups-shifting` window spans whole cycles of its four
    /// hot-set offsets (100 ticks each).
    pub fn shape(self) -> Shape {
        match self {
            Workload::GupsContended => Shape {
                warmup: RunConfig::steady_state().min_warmup_ticks,
                window: 250,
            },
            Workload::GupsShifting => Shape {
                warmup: RunConfig::steady_state().min_warmup_ticks,
                window: 400,
            },
            Workload::ColocationObserved => Shape {
                warmup: COLOCATION_WARMUP,
                window: 300,
            },
        }
    }
}

/// Mixes the command-line seed into a scenario's root seed; seed 0 keeps
/// the scenario's own seed, so the default runs the committed cells.
fn seeded(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// FNV-1a over little-endian u64 words.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn value(self) -> u64 {
        self.0
    }
}

/// Correctness checks attempted and failed, with the first failure.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }
}

/// Simulated work of one batch, read through public calls. Every field is
/// deterministic for a given workload, seed and shape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub app_ops: u64,
    pub pebs_samples: u64,
    pub hint_faults: u64,
    pub mig_backlog_max: u64,
    pub mig: MigrationCounters,
    pub retry_scheduled: u64,
    pub retry_dropped: u64,
    pub policy_signals: u64,
    pub tenancy_vetoes: u64,
    pub reclaimed_pages: u64,
    pub telemetry_events: u64,
    pub export_bytes: u64,
}

/// `colocation-observed`'s experiment plus its observability stack.
struct Observed {
    exp: ColoExperiment,
    hub: telemetry::MetricsHub,
    /// Events recorded up to the last export.
    exported: u64,
    /// The last export's NDJSON document and whether events were lost
    /// before it, awaiting the correctness check.
    pending: Option<(String, bool)>,
}

impl Observed {
    /// Serialises the events recorded since the previous export plus a
    /// metrics snapshot as one NDJSON document.
    fn export(&mut self, t: SimTime) -> (u64, u64) {
        let (events, dropped) = self
            .exp
            .sink
            .with(|r| (r.events(), r.dropped_events()))
            .expect("the observed workload's sink is enabled");
        let total = events.len() as u64 + dropped;
        let fresh = (total - self.exported) as usize;
        let lost = fresh > events.len();
        let new = &events[events.len() - fresh.min(events.len())..];
        let mut doc = telemetry::events_to_ndjson(new);
        doc.push_str(&telemetry::export::metrics_snapshot_ndjson_from(
            &self.hub,
            t,
            new.len() as u64,
        ));
        self.exported = total;
        let bytes = doc.len() as u64;
        self.pending = Some((doc, lost));
        (fresh as u64, bytes)
    }
}

enum Exp {
    Gups(Box<Experiment>),
    Colo(Box<Observed>),
}

/// A built experiment of one workload, stepped tick by tick.
struct Sim {
    exp: Exp,
    placed: u64,
    ticks: usize,
    counts: Counts,
    prev_mig: MigrationCounters,
}

impl Sim {
    /// Builds the experiment: machine, placement, streams and systems,
    /// and for `colocation-observed` the live telemetry stack.
    fn new(w: Workload, seed: u64) -> Sim {
        let exp = match w {
            Workload::GupsContended => {
                let mut sc = GupsScenario::intensity(2);
                sc.seed = seeded(sc.seed, seed);
                Exp::Gups(Box::new(build_gups(
                    &sc,
                    Policy::System {
                        kind: SystemKind::Hemem,
                        colloid: true,
                    },
                )))
            }
            Workload::GupsShifting => {
                let mut sc = GupsScenario::intensity(0);
                sc.seed = seeded(sc.seed, seed);
                sc.engine = MigrationEngineConfig::transactional();
                sc.phases = (1..=SHIFTS)
                    .map(|k| (SHIFT_EVERY * k, SHIFT_OFFSETS[(k as usize - 1) % 4]))
                    .collect();
                Exp::Gups(Box::new(build_gups(
                    &sc,
                    Policy::System {
                        kind: SystemKind::Tpp,
                        colloid: true,
                    },
                )))
            }
            Workload::ColocationObserved => Exp::Colo(Box::new(observed(seed))),
        };
        let machine = match &exp {
            Exp::Gups(e) => &e.machine,
            Exp::Colo(o) => &o.exp.machine,
        };
        let placed = tiers(machine).map(|t| machine.used_pages(t)).sum();
        Sim {
            exp,
            placed,
            ticks: 0,
            counts: Counts::default(),
            prev_mig: MigrationCounters::default(),
        }
    }

    fn machine(&self) -> &Machine {
        match &self.exp {
            Exp::Gups(e) => &e.machine,
            Exp::Colo(o) => &o.exp.machine,
        }
    }

    fn systems(&self) -> Vec<&dyn TieringSystem> {
        match &self.exp {
            Exp::Gups(e) => vec![e.system.as_ref()],
            Exp::Colo(o) => o
                .exp
                .colo
                .tenants
                .iter()
                .map(|t| t.system.as_ref())
                .collect(),
        }
    }

    /// One 100 us tick: the machine, then the control step, then (on the
    /// observed workload, every [`EXPORT_EVERY`] ticks) the export.
    fn step(&mut self, tr: &mut Tracer) -> TickReport {
        self.ticks += 1;
        match &mut self.exp {
            Exp::Gups(e) => {
                e.apply_schedule();
                let report = tr.span("memsim.run_tick", || e.machine.run_tick(e.tick));
                tr.span("tiersys.on_tick", || {
                    e.system.on_tick(&mut e.machine, &report)
                });
                report
            }
            Exp::Colo(o) => {
                let e = &mut o.exp;
                let report = tr.span("memsim.run_tick", || e.machine.run_tick(e.tick));
                tr.span("tenancy.on_tick", || {
                    e.colo.on_tick(&mut e.machine, &report, Some(&e.sink))
                });
                if self.ticks.is_multiple_of(EXPORT_EVERY) {
                    let (events, bytes) = tr.span("telemetry.export", || o.export(report.t_end));
                    self.counts.telemetry_events += events;
                    self.counts.export_bytes += bytes;
                }
                report
            }
        }
    }

    /// Checks the invariants after one tick and folds the tick's simulated
    /// outputs into `digest`. `timed` ticks come after the warm-up.
    fn check(&mut self, report: &TickReport, timed: bool, chk: &mut Checks, digest: &mut Digest) {
        let tick = self.ticks;
        let m = self.machine();
        let mig = m.migration_counters();
        // Reservations for queued and running migrations count at their
        // destination until the page flips.
        let used: u64 = tiers(m).map(|t| m.used_pages(t)).sum();
        let reserved = m.migration_backlog() as u64 + mig.in_flight();
        let latencies: Vec<Option<f64>> = tiers(m).map(|t| report.littles_latency_ns(t)).collect();
        chk.check(used == self.placed + reserved, || {
            format!(
                "tick {tick}: tiers hold {used} pages, expected {} placed + {reserved} reserved",
                self.placed
            )
        });

        let balanced = mig
            .completed
            .checked_add(mig.aborted())
            .and_then(|x| x.checked_add(mig.in_flight()))
            == Some(mig.started);
        let monotone = mig.started >= self.prev_mig.started
            && mig.completed >= self.prev_mig.completed
            && mig.aborted() >= self.prev_mig.aborted();
        chk.check(balanced && monotone, || {
            format!("tick {tick}: migration counters do not balance: {mig:?}")
        });
        self.prev_mig = mig;

        let finite = latencies
            .iter()
            .chain(&report.true_latency_ns)
            .all(|l| l.is_none_or(|ns| ns.is_finite() && ns >= 0.0));
        chk.check(finite, || {
            format!(
                "tick {tick}: non-finite tier latency {latencies:?} / {:?}",
                report.true_latency_ns
            )
        });

        if timed {
            chk.check(report.app_ops > 0, || {
                format!("tick {tick}: no application op completed")
            });
        }

        if let Exp::Colo(o) = &mut self.exp {
            if let Some((doc, lost)) = o.pending.take() {
                let valid = telemetry::validate_ndjson(&doc);
                chk.check(!lost && valid.is_ok(), || {
                    format!("tick {tick}: export lost events ({lost}) or is invalid ({valid:?})")
                });
            }
        }

        digest.mix(report.app_ops);
        for (w, l) in report.tiers.iter().zip(&latencies) {
            w.bytes_by_class.iter().for_each(|&b| digest.mix(b));
            digest.mix(l.map_or(u64::MAX, f64::to_bits));
        }
        let c = &mut self.counts;
        c.app_ops += report.app_ops;
        c.pebs_samples += report.pebs.len() as u64;
        c.hint_faults += report.faults.len() as u64;
        c.mig_backlog_max = c.mig_backlog_max.max(report.migration_backlog as u64);
    }

    /// Reads the end-of-batch counters and folds them into `digest`.
    fn finish(&mut self, mut digest: Digest) -> (Counts, u64) {
        let mut c = self.counts;
        c.mig = self.machine().migration_counters();
        for s in self.systems() {
            if let Some(r) = s.retry_stats() {
                c.retry_scheduled += r.scheduled;
                c.retry_dropped += r.dropped;
            }
            if let Some(p) = s.policy_stats() {
                c.policy_signals += p.signals;
            }
        }
        if let Exp::Colo(o) = &self.exp {
            if let Some(arb) = &o.exp.colo.arbiter {
                c.tenancy_vetoes = arb
                    .reports()
                    .iter()
                    .map(|r| r.hook_vetoes + r.policy_vetoes)
                    .sum();
                c.reclaimed_pages = arb.reclaimed_pages;
            }
        }
        let m = c.mig;
        for x in [
            m.started,
            m.completed,
            m.aborted(),
            m.dirty_retries,
            m.failovers,
            m.commit_batches,
            m.batched_pages,
            c.pebs_samples,
            c.hint_faults,
            c.retry_scheduled,
            c.retry_dropped,
            c.policy_signals,
            c.tenancy_vetoes,
            c.reclaimed_pages,
            c.telemetry_events,
        ] {
            digest.mix(x);
        }
        (c, digest.value())
    }
}

fn tiers(m: &Machine) -> impl Iterator<Item = TierId> {
    (0..m.config().tiers.len()).map(|i| TierId(i as u8))
}

/// The `ls-antagonist` mix under MEMTIS+Colloid with the arbiter, and a
/// live event ring, SLO monitor and metrics hub wired through every layer.
fn observed(seed: u64) -> Observed {
    let mut sc = colocation::mixes(true)
        .into_iter()
        .find(|m| m.name == "ls-antagonist")
        .expect("the ls-antagonist mix exists");
    sc.seed = seeded(sc.seed, seed);
    let mut exp = colocation::build(&sc, SystemKind::Memtis, true, true);
    let sink = telemetry::Sink::ring(RING_EVENTS, 0);
    exp.machine.set_telemetry(sink.clone());
    for t in &mut exp.colo.tenants {
        sink.register_tenant_pages(t.range.clone(), t.id);
        t.system.set_telemetry(sink.clone());
    }
    exp.colo
        .attach_slo_monitor(telemetry::BurnRateConfig::default(), 0.95, &sink);
    exp.sink = sink;
    let hub = telemetry::MetricsHub::new();
    exp.machine.set_metrics(hub.clone());
    exp.colo.set_metrics(hub.clone());
    Observed {
        exp,
        hub,
        exported: 0,
        pending: None,
    }
}

/// One batch: set-up, `shape.warmup + shape.window` ticks with checks,
/// and the end-of-batch digest.
pub struct Batch {
    pub setup_s: f64,
    /// Host seconds of each timed tick (machine + control step + export).
    pub tick_s: Vec<f64>,
    /// Application ops completed in each timed tick.
    pub tick_ops: Vec<u64>,
    /// Migrations started in each timed tick.
    pub tick_mig: Vec<u64>,
    /// Host seconds of the whole batch, set-up and teardown included.
    pub wall_s: f64,
    pub counts: Counts,
    pub digest: u64,
    pub checks: Checks,
}

impl Batch {
    /// Simulated application ops per host second over the timed window.
    pub fn ops_per_host_s(&self) -> f64 {
        self.tick_ops.iter().sum::<u64>() as f64 / self.tick_s.iter().sum::<f64>()
    }
}

pub fn run_batch(w: Workload, seed: u64, shape: Shape, tr: &mut Tracer) -> Batch {
    let t0 = Instant::now();
    let batch = tr.enter("bench.batch");
    let mut sim = tr.span("bench.setup", || Sim::new(w, seed));
    let setup_s = t0.elapsed().as_secs_f64();
    let mut checks = Checks::default();
    let mut digest = Digest::new();
    let mut tick_s = Vec::with_capacity(shape.window);
    let mut tick_ops = Vec::with_capacity(shape.window);
    let mut tick_mig = Vec::with_capacity(shape.window);
    for i in 0..shape.warmup + shape.window {
        let timed = i >= shape.warmup;
        let started = sim.machine().migration_counters().started;
        let t = Instant::now();
        let report = sim.step(tr);
        if timed {
            tick_s.push(t.elapsed().as_secs_f64());
            tick_ops.push(report.app_ops);
            tick_mig.push(sim.machine().migration_counters().started - started);
        }
        tr.span("bench.check", || {
            sim.check(&report, timed, &mut checks, &mut digest)
        });
    }
    let (counts, digest) = tr.span("bench.check", || sim.finish(digest));
    drop(sim);
    tr.exit(batch);
    Batch {
        setup_s,
        tick_s,
        tick_ops,
        tick_mig,
        wall_s: t0.elapsed().as_secs_f64(),
        counts,
        digest,
        checks,
    }
}

/// Host seconds to build the experiment, without running it.
pub fn time_setup(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let _sim = Sim::new(w, seed);
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Shape = Shape {
        warmup: 2,
        window: 8,
    };

    fn digest(w: Workload, seed: u64) -> (u64, Checks) {
        let b = run_batch(w, seed, SHORT, &mut Tracer::off());
        (b.digest, b.checks)
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            let (a, chk) = digest(w, 0);
            assert_eq!(chk.failed, 0, "{}: {:?}", w.name(), chk.first_failure);
            assert!(chk.attempted > 0);
            assert_eq!(digest(w, 0).0, a, "{} is not deterministic", w.name());
            assert_ne!(digest(w, 7).0, a, "{} ignores the seed", w.name());
        }
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let w = Workload::GupsShifting;
        let plain = run_batch(w, 3, SHORT, &mut Tracer::off());
        let mut tr = Tracer::on(Instant::now());
        let traced = run_batch(w, 3, SHORT, &mut tr);
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.counts, traced.counts);
        assert!(!tr.take().is_empty());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
