//! Host-time benchmark of the tiered-memory simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <gups-contended|gups-shifting|colocation-observed|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run repeats closed batches of one workload for `--seconds`: each
//! batch builds the experiment, runs a fixed number of 100 us simulated
//! ticks from empty queues, checks invariants after every tick and hashes
//! the simulated outputs into a digest. Untraced runs report the
//! end-to-end metrics; `--trace 1` alternates untraced and traced batches
//! and reports the per-layer metrics and the self-time table. The last
//! line of standard output is one JSON object with every metric.

mod stats;
mod trace;
mod workload;

use std::time::Instant;

use trace::{Profile, Span, Tracer};
use workload::{run_batch, time_setup, Batch, Checks, Workload};

/// The seed the committed digests were taken with.
const DEFAULT_SEED: u64 = 0;
/// Extra set-ups timed before every batch; the `setup_s` median is taken
/// over these and every batch's own set-up. Spreading them over the run
/// keeps one slow stretch of the host from deciding the median.
const SETUPS_PER_BATCH: usize = 100;
/// `<workload> <digest>` lines: the end-of-batch digest of each workload
/// at [`DEFAULT_SEED`] and its default [`workload::Shape`].
const DIGESTS: &str = include_str!("../digests.txt");

/// End-to-end metrics (untraced runs): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("sim_ops_per_host_s", "1/s"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit. Times are host seconds
/// per batch; counts are per batch and deterministic.
const PER_LAYER: [(&str, &str); 26] = [
    ("memsim.run_tick_s", "s"),
    ("memsim.ns_per_op", "ns"),
    ("memsim.event_loop_s", "s"),
    ("memsim.cha_sample_s", "s"),
    ("memsim.mig_engine_s", "s"),
    ("memsim.app_ops", "count"),
    ("memsim.pebs_samples", "count"),
    ("memsim.hint_faults", "count"),
    ("memsim.mig_started", "count"),
    ("memsim.mig_completed", "count"),
    ("memsim.mig_useful_frac", "frac"),
    ("memsim.mig_backlog_max", "count"),
    ("memsim.txn_dirty_retries", "count"),
    ("tiersys.on_tick_s", "s"),
    ("tiersys.share", "frac"),
    ("tiersys.retry_scheduled", "count"),
    ("tiersys.retry_dropped", "count"),
    ("tiersys.policy_signals", "count"),
    ("colloid.on_quantum_s", "s"),
    ("tenancy.on_tick_s", "s"),
    ("tenancy.vetoes", "count"),
    ("tenancy.reclaimed_pages", "count"),
    ("telemetry.events", "count"),
    ("telemetry.export_s", "s"),
    ("telemetry.export_bytes", "count"),
    ("trace.overhead_frac", "frac"),
];

/// The report cuts the timed window into this many equal segments and
/// prints per-tick means of each; flat rows show the window lies past the
/// warm-up.
const SEGMENTS: usize = 4;

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workloads = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Opts {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything one workload's run measured.
struct Run {
    workload: Workload,
    seed: u64,
    untraced: Vec<Batch>,
    traced: Vec<Batch>,
    setups: Vec<f64>,
    /// `VmHWM` after the first batch, in MB.
    peak_rss_mb: f64,
    /// [`host_ref_ns`] before every batch.
    ref_ns: Vec<f64>,
    profile: Option<Profile>,
    spans: Vec<Span>,
    checks: Checks,
    digest: u64,
}

fn measure(w: Workload, seed: u64, seconds: f64, trace: bool, epoch: Instant) -> Run {
    let start = Instant::now();
    let shape = w.shape();
    let mut setups = Vec::new();
    let mut ref_ns = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let mut tracer = if trace {
        Tracer::on(epoch)
    } else {
        Tracer::off()
    };
    simkit::profile::reset();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        ref_ns.push(host_ref_ns());
        setups.extend((0..SETUPS_PER_BATCH).map(|_| time_setup(w, seed)));
        let b = run_batch(w, seed, shape, &mut Tracer::off());
        setups.push(b.setup_s);
        untraced.push(b);
        if untraced.len() == 1 {
            // Read once: later batches only add allocator growth, and how
            // many of them fit in the run depends on the host's speed.
            peak_rss_mb = host_peak_rss_mb();
        }
        if trace {
            simkit::profile::set_enabled(true);
            traced.push(run_batch(w, seed, shape, &mut tracer));
            simkit::profile::set_enabled(false);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / untraced.len() as f64;
        if elapsed + per_round > seconds {
            break;
        }
    }

    let mut checks = Checks::default();
    for b in untraced.iter().chain(&traced) {
        checks.absorb(&b.checks);
    }
    let digest = untraced[0].digest;
    let all_equal = untraced.iter().chain(&traced).all(|b| b.digest == digest);
    checks.check(all_equal, || {
        format!("{}: batches of one seed gave different digests", w.name())
    });
    if seed == DEFAULT_SEED {
        let committed = committed_digest(w);
        checks.check(committed == Some(digest), || {
            format!(
                "{}: digest {digest:#018x} differs from the committed {committed:#x?}",
                w.name()
            )
        });
    }
    Run {
        workload: w,
        seed,
        untraced,
        traced,
        setups,
        peak_rss_mb,
        ref_ns,
        profile: trace.then(Profile::snapshot),
        spans: tracer.take(),
        checks,
        digest,
    }
}

fn committed_digest(w: Workload) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(char::is_whitespace)?;
        let hex = hex.trim().strip_prefix("0x")?;
        (name == w.name()).then(|| u64::from_str_radix(hex, 16).ok())?
    })
}

/// Host peak resident set (`VmHWM`) in MB.
fn host_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Host speed reference: ns per step of a fixed dependent xorshift chain.
/// It touches no memory, so it moves only with the host CPU's speed; when
/// the simulator's times move with it, the host moved, not the program.
fn host_ref_ns() -> f64 {
    const STEPS: u32 = 2_000_000;
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    t.elapsed().as_nanos() as f64 / f64::from(STEPS)
}

fn tick_ms(batches: &[Batch]) -> Vec<f64> {
    batches
        .iter()
        .flat_map(|b| b.tick_s.iter().map(|s| s * 1e3))
        .collect()
}

/// One per-tick series of a batch: the value at timed tick `i`.
type PerTick = dyn Fn(&Batch, usize) -> f64;

/// Per-tick mean of `f` over each of [`SEGMENTS`] equal parts of the
/// timed window, pooled over `batches`.
fn by_segment(batches: &[Batch], f: &PerTick) -> Vec<f64> {
    let n = batches[0].tick_s.len();
    (0..SEGMENTS)
        .map(|k| {
            let ticks = k * n / SEGMENTS..(k + 1) * n / SEGMENTS;
            let sum: f64 = batches
                .iter()
                .flat_map(|b| ticks.clone().map(move |i| f(b, i)))
                .sum();
            sum / (ticks.len() * batches.len()) as f64
        })
        .collect()
}

fn end_to_end(run: &Run, name: &str) -> f64 {
    let ticks = tick_ms(&run.untraced);
    match name {
        "sim_ops_per_host_s" => {
            let per_batch: Vec<f64> = run.untraced.iter().map(Batch::ops_per_host_s).collect();
            stats::median(&per_batch)
        }
        "tick_ms_p50" => stats::percentile(&ticks, 0.50).unwrap_or(f64::NAN),
        "tick_ms_p95" => stats::percentile(&ticks, 0.95).unwrap_or(f64::NAN),
        "setup_s" => stats::median(&run.setups),
        "peak_rss_mb" => run.peak_rss_mb,
        _ => f64::NAN,
    }
}

fn per_layer(run: &Run, name: &str) -> f64 {
    let Some(p) = &run.profile else {
        return f64::NAN;
    };
    let nb = run.traced.len() as f64;
    let c = run.traced[0].counts;
    let ops: u64 = run.traced.iter().map(|b| b.counts.app_ops).sum();
    let wall = |bs: &[Batch]| stats::median(&bs.iter().map(|b| b.wall_s).collect::<Vec<_>>());
    let tick_total = [
        "memsim.run_tick",
        "tiersys.on_tick",
        "tenancy.on_tick",
        "telemetry.export",
    ]
    .iter()
    .map(|l| p.total_s(l))
    .sum::<f64>();
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    match name {
        "memsim.run_tick_s" => p.total_s("memsim.run_tick") / nb,
        "memsim.ns_per_op" => p.total_s("memsim.run_tick") * 1e9 / ops as f64,
        "memsim.event_loop_s" => p.self_s("machine.event_loop") / nb,
        "memsim.cha_sample_s" => p.self_s("machine.cha_sample") / nb,
        "memsim.mig_engine_s" => p.self_s("machine.mig_engine") / nb,
        "memsim.app_ops" => c.app_ops as f64,
        "memsim.pebs_samples" => c.pebs_samples as f64,
        "memsim.hint_faults" => c.hint_faults as f64,
        "memsim.mig_started" => c.mig.started as f64,
        "memsim.mig_completed" => c.mig.completed as f64,
        "memsim.mig_useful_frac" => frac(c.mig.completed, c.mig.started),
        "memsim.mig_backlog_max" => c.mig_backlog_max as f64,
        "memsim.txn_dirty_retries" => c.mig.dirty_retries as f64,
        "tiersys.on_tick_s" => p.total_s("tiersys.on_tick") / nb,
        "tiersys.share" => p.total_s("tiersys.on_tick") / tick_total,
        "tiersys.retry_scheduled" => c.retry_scheduled as f64,
        "tiersys.retry_dropped" => c.retry_dropped as f64,
        "tiersys.policy_signals" => c.policy_signals as f64,
        "colloid.on_quantum_s" => p.total_s("colloid.on_quantum") / nb,
        "tenancy.on_tick_s" => p.total_s("tenancy.on_tick") / nb,
        "tenancy.vetoes" => c.tenancy_vetoes as f64,
        "tenancy.reclaimed_pages" => c.reclaimed_pages as f64,
        "telemetry.events" => c.telemetry_events as f64,
        "telemetry.export_s" => p.total_s("telemetry.export") / nb,
        "telemetry.export_bytes" => c.export_bytes as f64,
        "trace.overhead_frac" => {
            let plain = wall(&run.untraced);
            (wall(&run.traced) - plain) / plain
        }
        _ => f64::NAN,
    }
}

/// Prints the human-readable report of one run and returns its metrics:
/// the per-layer ones for a traced run, the end-to-end ones otherwise.
fn report(run: &Run) -> Vec<(String, &'static str, f64)> {
    let w = run.workload;
    let shape = w.shape();
    println!(
        "== {}  seed {}  {} untraced + {} traced batches of {} warm-up + {} timed ticks (100 us simulated each)",
        w.name(),
        run.seed,
        run.untraced.len(),
        run.traced.len(),
        shape.warmup,
        shape.window
    );
    let samples = tick_ms(&run.untraced).len();
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit, end_to_end(run, name)))
        .collect();
    for (name, unit, v) in &e2e {
        let note = match name.as_str() {
            "tick_ms_p50" | "tick_ms_p95" => format!("(n={samples} ticks)"),
            "setup_s" => format!("(n={} set-ups)", run.setups.len()),
            _ => String::new(),
        };
        let v = if v.is_nan() {
            "n/a".to_string()
        } else {
            format!("{v:.6}")
        };
        println!("  {name:<26} {v:>16} {unit:<6} {note}");
    }
    let per_batch: Vec<String> = run
        .untraced
        .iter()
        .map(|b| format!("{:.0}", b.ops_per_host_s()))
        .collect();
    println!("  per-batch sim_ops_per_host_s: {}", per_batch.join(" "));
    println!("  timed window in {SEGMENTS} segments, per-tick means over the untraced batches:");
    let rows: [(&str, &PerTick); 3] = [
        ("app ops", &|b, i| b.tick_ops[i] as f64),
        ("host ms", &|b, i| b.tick_s[i] * 1e3),
        ("migrations started", &|b, i| b.tick_mig[i] as f64),
    ];
    for (label, f) in rows {
        let means: Vec<String> = by_segment(&run.untraced, f)
            .iter()
            .map(|x| format!("{x:>10.2}"))
            .collect();
        println!("    {label:<20}{}", means.join(""));
    }
    println!(
        "  host reference step: {:.4} ns (median of {}; moves only with host CPU speed)",
        stats::median(&run.ref_ns),
        run.ref_ns.len()
    );
    let failed_frac = run.checks.failed as f64 / run.checks.attempted as f64;
    println!(
        "  {:<26} {failed_frac:>16} {:<6} ({} of {} checks failed)",
        "failed_frac", "frac", run.checks.failed, run.checks.attempted
    );
    if let Some(f) = &run.checks.first_failure {
        println!("  first failure: {f}");
    }
    let committed = match (run.seed == DEFAULT_SEED, committed_digest(w)) {
        (false, _) => "not compared: only the default seed has a committed digest",
        (true, Some(d)) if d == run.digest => "matches the committed digest",
        (true, _) => "DIFFERS from the committed digest",
    };
    println!("  {:<26} {:#018x} ({committed})", "digest", run.digest);

    let Some(p) = &run.profile else {
        return e2e;
    };
    println!("  -- per-layer metrics (traced batches; times are host seconds per batch)");
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit, per_layer(run, name)))
        .collect();
    for (name, unit, v) in &layers {
        println!("  {name:<26} {v:>16.6} {unit}");
    }
    let wall: f64 = run.traced.iter().map(|b| b.wall_s).sum();
    println!("  -- self time over the traced batches");
    print!("{}", p.table(std::time::Duration::from_secs_f64(wall)));
    layers
}

fn json(correct: bool, checks: &Checks, metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut checks = Checks::default();
    let mut metrics = Vec::new();
    for &w in &opts.workloads {
        let run = measure(w, opts.seed, opts.seconds, opts.trace, epoch);
        checks.absorb(&run.checks);
        let mut m = report(&run);
        if opts.workloads.len() > 1 {
            m.iter_mut()
                .for_each(|(name, _, _)| *name = format!("{}/{name}", w.name()));
        }
        metrics.extend(m);
        if opts.trace {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{}.ndjson", w.name(), opts.seed));
            match trace::write_spans(&path, &run.spans) {
                Ok(()) => println!("  {} spans written to {}", run.spans.len(), path.display()),
                Err(e) => eprintln!("simbench: could not write spans to {}: {e}", path.display()),
            }
        }
    }
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    if !finite {
        eprintln!("simbench: a metric could not be computed");
    }
    let correct = checks.failed == 0 && finite;
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();
    println!("{}", json(correct, &checks, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark's directory");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) is not declared in BENCHMARK.json"
            );
        }
        assert!(Workload::ALL.iter().all(|w| valid_name(w.name())));
        let listed = Workload::ALL
            .iter()
            .filter(|w| spec.contains(&format!("\"name\": \"{}\"", w.name())))
            .count();
        assert!(listed >= 2, "BENCHMARK.json lists {listed} known workloads");
        let declared = spec.matches("\"name\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + listed);
    }

    #[test]
    fn every_window_is_long_enough_for_p95() {
        for w in Workload::ALL {
            assert!(w.shape().window >= stats::min_samples(0.95), "{}", w.name());
        }
    }

    #[test]
    fn every_workload_has_a_committed_digest() {
        for w in Workload::ALL {
            assert!(committed_digest(w).is_some(), "{}", w.name());
        }
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload gups-shifting --seed 5 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workloads, vec![Workload::GupsShifting]);
        assert_eq!((o.seed, o.seconds, o.trace), (5, 3.0, true));
        assert_eq!(
            parse_args(&args("--workload all")).unwrap().workloads.len(),
            3
        );
        for bad in [
            "",
            "--workload nope",
            "--workload gups-shifting --trace 2",
            "--workload gups-shifting --seconds 0",
            "--workload gups-shifting --seed",
            "--workload gups-shifting --color red",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
