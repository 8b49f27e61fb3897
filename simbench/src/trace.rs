//! Spans around the benchmark's calls into each layer, and the per-layer
//! self-time table of a traced run.
//!
//! A span records name, start, end and parent id; spans stay in memory
//! and are written out when the benchmark ends. Every span also opens a
//! `simkit::profile` scope of the same name, so the profiler's own scopes
//! inside the simulator (`machine.event_loop`, `machine.mig_engine`, ...)
//! nest under the benchmark's spans and one self-time computation covers
//! both.

use std::io::Write;
use std::time::{Duration, Instant};

/// One closed span. Ids start at 1; parent 0 means a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`] in LIFO order.
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    _prof: simkit::profile::Scope,
}

/// Span recorder; inert (no clock reads) when off.
pub struct Tracer {
    epoch: Option<Instant>,
    next_id: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from `epoch`.
    pub fn on(epoch: Instant) -> Self {
        Tracer {
            epoch: Some(epoch),
            ..Tracer::off()
        }
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span (and a profiler scope) named `name`.
    pub fn enter(&mut self, name: &'static str) -> Option<Open> {
        let epoch = self.epoch?;
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        Some(Open {
            id,
            parent,
            name,
            start_ns: Self::now_ns(epoch),
            _prof: simkit::profile::scope(name),
        })
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Option<Open>) {
        let (Some(open), Some(epoch)) = (open, self.epoch) else {
            return;
        };
        let end_ns = Self::now_ns(epoch);
        self.stack.pop();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
        // Dropping `open` here closes its profiler scope.
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Moves the recorded spans out, in close order.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Writes spans as NDJSON, one object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Profiler scope → layer row. The benchmark's own spans are the
/// `bench.*`, `memsim.run_tick`, `tiersys.on_tick`, `tenancy.on_tick` and
/// `telemetry.export` labels; the others are scopes inside the crates.
const LAYER_OF: [(&str, &str); 13] = [
    ("bench.batch", "bench.loop"),
    ("bench.setup", "bench.setup"),
    ("bench.check", "bench.check"),
    ("memsim.run_tick", "memsim.run_tick"),
    ("machine.run_tick", "memsim.run_tick"),
    ("machine.event_loop", "memsim.event_loop"),
    ("machine.cha_sample", "memsim.cha_sample"),
    ("machine.mig_engine", "memsim.mig_engine"),
    ("tiersys.on_tick", "tiersys.on_tick"),
    ("tiersys.retry_drain", "tiersys.retry_drain"),
    ("colloid.on_quantum", "colloid.on_quantum"),
    ("tenancy.on_tick", "tenancy.on_tick"),
    ("telemetry.export", "telemetry.export"),
];

/// Self and total host time per profiler label, from `simkit::profile`.
pub struct Profile {
    rows: Vec<simkit::profile::ScopeStats>,
}

impl Profile {
    /// Snapshot of the profiler's aggregates.
    pub fn snapshot() -> Self {
        Profile {
            rows: simkit::profile::stats(),
        }
    }

    fn row(&self, label: &str) -> Option<&simkit::profile::ScopeStats> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Seconds inside `label`, nested scopes included.
    pub fn total_s(&self, label: &str) -> f64 {
        self.row(label).map_or(0.0, |r| r.total.as_secs_f64())
    }

    /// Seconds inside `label`, nested scopes excluded.
    pub fn self_s(&self, label: &str) -> f64 {
        self.row(label).map_or(0.0, |r| r.self_time.as_secs_f64())
    }

    /// Self time per layer, in [`LAYER_OF`] order; labels without a
    /// mapping keep their own name.
    pub fn layers(&self) -> Vec<(String, Duration)> {
        let mut out: Vec<(String, Duration)> = Vec::new();
        let mut add = |layer: &str, d: Duration| match out.iter_mut().find(|(l, _)| l == layer) {
            Some((_, acc)) => *acc += d,
            None => out.push((layer.to_string(), d)),
        };
        for (_, layer) in LAYER_OF {
            add(layer, Duration::ZERO);
        }
        for r in &self.rows {
            let layer = LAYER_OF
                .iter()
                .find(|(label, _)| *label == r.label)
                .map_or(r.label, |(_, layer)| *layer);
            add(layer, r.self_time);
        }
        out
    }

    /// The self-time table: one row per layer, then the untimed remainder
    /// of `wall`, then `wall` itself. The rows add up to `wall`.
    pub fn table(&self, wall: Duration) -> String {
        let layers = self.layers();
        let timed: Duration = layers.iter().map(|(_, d)| *d).sum();
        let remainder = wall.as_secs_f64() - timed.as_secs_f64();
        let pct = |s: f64| 100.0 * s / wall.as_secs_f64();
        let mut out = format!(
            "  {:<22} {:>12} {:>8}\n",
            "layer (self time)", "seconds", "share"
        );
        for (layer, d) in &layers {
            let s = d.as_secs_f64();
            out.push_str(&format!("  {layer:<22} {s:>12.6} {:>7.2}%\n", pct(s)));
        }
        out.push_str(&format!(
            "  {:<22} {remainder:>12.6} {:>7.2}%\n",
            "untimed remainder",
            pct(remainder)
        ));
        out.push_str(&format!(
            "  {:<22} {:>12.6} {:>7.2}%\n",
            "traced wall",
            wall.as_secs_f64(),
            100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_times_cover_the_wall() {
        simkit::profile::reset();
        simkit::profile::set_enabled(true);
        let t0 = Instant::now();
        let mut tr = Tracer::on(t0);
        let outer = tr.enter("bench.batch");
        tr.span("memsim.run_tick", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tr.exit(outer);
        let wall = t0.elapsed();
        simkit::profile::set_enabled(false);
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "memsim.run_tick");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
        let p = Profile::snapshot();
        let timed: Duration = p.layers().iter().map(|(_, d)| *d).sum();
        assert!(timed <= wall);
        assert!(p.self_s("memsim.run_tick") >= 0.002);
        simkit::profile::reset();
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("bench.check", || 7), 7);
        assert!(tr.take().is_empty());
    }
}
