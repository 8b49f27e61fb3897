//! Memory-controller and DRAM-device timing model.
//!
//! Each tier owns one [`MemoryController`]. A controller has `channels`
//! independent channels; each channel has a data bus (serialises 64 B
//! bursts), a set of banks with open-row state, and a tFAW activation
//! window. A request's service therefore pays, in order:
//!
//! 1. **bank wait** — the target bank may still be busy with an earlier
//!    request (row cycle time);
//! 2. **activation throttling** — a row-buffer miss needs an ACT command,
//!    and at most `faw_activations` ACTs may issue per `t_faw` window per
//!    channel. This is the mechanism that caps *random-access* throughput
//!    far below the bus bandwidth, producing the paper's "latency inflates
//!    even when interconnect bandwidth is far from saturated" regime
//!    (§3.1);
//! 3. **bank service** — row hit (CAS only) vs row miss (PRE+ACT+CAS);
//! 4. **bus wait + burst** — the 64 B transfer on the shared channel bus.
//!
//! The model is a *reservation* model: because the machine processes
//! arrivals in global time order and every per-resource queue is FCFS, each
//! request's completion time can be computed at arrival by advancing
//! per-resource `free_at` horizons. This keeps the event count at one event
//! per request while still producing real queueing behaviour (waits grow
//! without bound as the closed-loop load approaches the bottleneck
//! capacity).

use simkit::SimTime;

use crate::config::DramConfig;
use crate::request::AccessKind;

/// Open-row state and busy horizon of one DRAM bank.
#[derive(Debug, Clone)]
struct Bank {
    free_at: SimTime,
    open_row: u64,
}

/// One memory channel: banks + data bus + activation window.
#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<Bank>,
    bus_free: SimTime,
    /// Ring buffer of the last `faw_activations` ACT issue times.
    act_times: Vec<SimTime>,
    act_head: usize,
}

impl Channel {
    fn new(cfg: &DramConfig) -> Self {
        Channel {
            banks: vec![
                Bank {
                    free_at: SimTime::ZERO,
                    open_row: u64::MAX,
                };
                cfg.banks_per_channel
            ],
            bus_free: SimTime::ZERO,
            act_times: vec![SimTime::ZERO; cfg.faw_activations as usize],
            act_head: 0,
        }
    }

    /// Earliest time a new activation may issue at or after `t`, respecting
    /// tFAW; records the activation.
    ///
    /// `act_times` is a ring of "slot reusable at" horizons: slot `i`
    /// becomes reusable `t_faw` after the activation that consumed it.
    fn reserve_activation(&mut self, t: SimTime, t_faw: SimTime) -> SimTime {
        let earliest = self.act_times[self.act_head].max(t);
        self.act_times[self.act_head] = earliest + t_faw;
        self.act_head += 1;
        if self.act_head == self.act_times.len() {
            self.act_head = 0;
        }
        earliest
    }
}

/// A fixed divisor: a mask or shift when it is a power of two (every
/// shipped configuration), else plain `%` and `/`.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u64,
    pow2: bool,
    shift: u32,
}

impl Divisor {
    fn new(d: u64) -> Self {
        Divisor {
            d,
            pow2: d.is_power_of_two(),
            shift: d.trailing_zeros(),
        }
    }

    fn rem(self, x: u64) -> u64 {
        if self.pow2 {
            x & (self.d - 1)
        } else {
            x % self.d
        }
    }

    fn div(self, x: u64) -> u64 {
        if self.pow2 {
            x >> self.shift
        } else {
            x / self.d
        }
    }
}

/// Outcome of scheduling one request at a controller.
#[derive(Debug, Clone, Copy)]
pub struct ServiceOutcome {
    /// Time the 64 B burst finishes on the channel bus (data available).
    pub done: SimTime,
    /// Whether the request hit the open row.
    pub row_hit: bool,
}

/// The per-tier memory controller.
///
/// # Examples
///
/// ```
/// use memsim::config::DramConfig;
/// use memsim::controller::MemoryController;
/// use memsim::request::AccessKind;
/// use simkit::SimTime;
///
/// let mut mc = MemoryController::new(DramConfig::ddr4_3200_8ch());
/// let t0 = SimTime::ZERO;
/// let first = mc.schedule(t0, 0x1000, AccessKind::Read);
/// // An unloaded row-miss read takes row-miss + bus time.
/// assert_eq!(first.done.as_ns(), 47.5);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: DramConfig,
    channels: Vec<Channel>,
    /// Channel count, banks per channel and lines per row.
    channel_div: Divisor,
    bank_div: Divisor,
    row_div: Divisor,
    /// Total 64 B bursts served, for utilisation accounting.
    pub bursts_served: u64,
    /// Row hits observed, for locality diagnostics.
    pub row_hits: u64,
}

impl MemoryController {
    /// Creates a controller over the given DRAM devices.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        MemoryController {
            channel_div: Divisor::new(cfg.channels as u64),
            bank_div: Divisor::new(cfg.banks_per_channel as u64),
            row_div: Divisor::new(cfg.row_bytes / 64),
            cfg,
            channels,
            bursts_served: 0,
            row_hits: 0,
        }
    }

    /// Mixes bits of a line address (xor-shift hash) so channel/bank
    /// assignment is free of stride aliasing, as real address-hashing
    /// performs.
    fn mix(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }

    /// Schedules one 64 B request arriving at `t` for line address
    /// `line_addr` (byte address / 64). Returns the completion outcome.
    pub fn schedule(&mut self, t: SimTime, line_addr: u64, kind: AccessKind) -> ServiceOutcome {
        let cfg = &self.cfg;
        // Channels interleave at 256 B (4-line) granularity so sequential
        // streams spread across channels, like real Intel interleaving.
        let chunk = line_addr / 4;
        let ch_idx = self.channel_div.rem(Self::mix(chunk)) as usize;
        // The global row this line belongs to; rows map to banks by hash.
        let row = self.row_div.div(line_addr);
        let bank_idx = self.bank_div.rem(Self::mix(row ^ 0x9E37_79B9)) as usize;

        let ch = &mut self.channels[ch_idx];
        let row_hit = ch.banks[bank_idx].open_row == row;
        let bank_ready = ch.banks[bank_idx].free_at.max(t);
        let (svc_start, svc) = if row_hit {
            (bank_ready, cfg.t_row_hit)
        } else {
            // A row miss requires an activation slot (tFAW) in addition to
            // the bank being precharged.
            (ch.reserve_activation(bank_ready, cfg.t_faw), cfg.t_row_miss)
        };
        let bank = &mut ch.banks[bank_idx];
        let bank_done = svc_start + svc;
        bank.free_at = bank_done;
        bank.open_row = row;

        // Data burst on the shared channel bus; writes pay the amortised
        // read/write turnaround.
        let burst = match kind {
            AccessKind::Read => cfg.t_bus,
            AccessKind::Write => cfg.t_bus + cfg.t_write_turnaround,
        };
        let bus_start = ch.bus_free.max(bank_done);
        let done = bus_start + burst;
        ch.bus_free = done;

        self.bursts_served += 1;
        if row_hit {
            self.row_hits += 1;
        }
        ServiceOutcome { done, row_hit }
    }

    /// The DRAM configuration this controller models.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }
}

/// A serial interconnect (UPI or CXL) between the CHA and a remote
/// controller, modelled as two independent directional FIFO servers plus
/// propagation delay.
#[derive(Debug, Clone)]
pub struct Link {
    t_serialize: SimTime,
    propagation: SimTime,
    req_free: SimTime,
    rsp_free: SimTime,
    /// Flits carried (both directions), for utilisation accounting.
    pub flits: u64,
}

impl Link {
    /// Creates a link from its configuration.
    pub fn new(cfg: &crate::config::LinkConfig) -> Self {
        Link {
            t_serialize: cfg.t_serialize,
            propagation: cfg.propagation,
            req_free: SimTime::ZERO,
            rsp_free: SimTime::ZERO,
            flits: 0,
        }
    }

    /// Sends a request flit at `t`; returns its arrival at the far side.
    pub fn send_request(&mut self, t: SimTime) -> SimTime {
        let start = self.req_free.max(t);
        self.req_free = start + self.t_serialize;
        self.flits += 1;
        self.req_free + self.propagation
    }

    /// Sends a response flit (64 B data) at `t`; returns its arrival back at
    /// the CHA.
    pub fn send_response(&mut self, t: SimTime) -> SimTime {
        let start = self.rsp_free.max(t);
        self.rsp_free = start + self.t_serialize;
        self.flits += 1;
        self.rsp_free + self.propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkConfig;

    fn small_dram() -> DramConfig {
        DramConfig {
            channels: 1,
            banks_per_channel: 2,
            ..DramConfig::ddr4_3200_8ch()
        }
    }

    #[test]
    fn divisor_matches_plain_arithmetic() {
        for d in 1..=70u64 {
            let div = Divisor::new(d);
            for x in [0, 1, d - 1, d, d + 1, 12_345, u64::MAX - 1, u64::MAX] {
                assert_eq!(div.rem(x), x % d, "{x} % {d}");
                assert_eq!(div.div(x), x / d, "{x} / {d}");
            }
        }
    }

    #[test]
    fn unloaded_read_pays_row_miss_plus_bus() {
        let mut mc = MemoryController::new(DramConfig::ddr4_3200_8ch());
        let out = mc.schedule(SimTime::ZERO, 0, AccessKind::Read);
        assert!(!out.row_hit);
        assert_eq!(out.done.as_ns(), 45.0 + 2.5);
    }

    #[test]
    fn second_access_to_same_row_hits() {
        let mut mc = MemoryController::new(DramConfig::ddr4_3200_8ch());
        let a = mc.schedule(SimTime::ZERO, 0, AccessKind::Read);
        // Same 4-line chunk => same channel, same row.
        let b = mc.schedule(a.done, 1, AccessKind::Read);
        assert!(b.row_hit);
        assert_eq!(mc.row_hits, 1);
    }

    #[test]
    fn bank_conflict_queues() {
        let mut mc = MemoryController::new(small_dram());
        // Find two line addresses mapping to the same bank but different
        // rows: with 2 banks, rows r and r' collide when their hashes agree.
        let lines_per_row = mc.config().row_bytes / 64;
        let mut conflicting = None;
        for row in 1..1_000 {
            let a = MemoryController::mix(0x9E37_79B9) % 2;
            let b = MemoryController::mix(row ^ 0x9E37_79B9) % 2;
            if a == b {
                conflicting = Some(row);
                break;
            }
        }
        let row = conflicting.expect("some row collides");
        let first = mc.schedule(SimTime::ZERO, 0, AccessKind::Read);
        let second = mc.schedule(SimTime::ZERO, row * lines_per_row, AccessKind::Read);
        // The second request waits for the first's bank busy time.
        assert!(second.done > first.done);
        assert!(second.done.as_ns() >= 2.0 * 45.0);
    }

    #[test]
    fn tfaw_throttles_activation_bursts() {
        let cfg = DramConfig {
            channels: 1,
            banks_per_channel: 64,
            ..DramConfig::ddr4_3200_8ch()
        };
        let lines_per_row = cfg.row_bytes / 64;
        let mut mc = MemoryController::new(cfg);
        // Issue 16 simultaneous row misses to (very likely) distinct banks:
        // only 4 ACTs may start per 25 ns window, so the last completion is
        // pushed out by roughly (16/4 - 1) * 25 ns of throttling.
        let mut last = SimTime::ZERO;
        for i in 0..16u64 {
            let out = mc.schedule(SimTime::ZERO, i * lines_per_row, AccessKind::Read);
            last = last.max(out.done);
        }
        assert!(
            last.as_ns() > 45.0 + 2.5 + 50.0,
            "tFAW should stretch a 16-activation burst, got {last:?}"
        );
    }

    #[test]
    fn bus_serializes_row_hits() {
        let mut mc = MemoryController::new(small_dram());
        // Warm the row.
        let warm = mc.schedule(SimTime::ZERO, 0, AccessKind::Read);
        // Two back-to-back row hits to lines in the same row must be spaced
        // by at least the burst time on the shared bus.
        let a = mc.schedule(warm.done, 1, AccessKind::Read);
        let b = mc.schedule(warm.done, 2, AccessKind::Read);
        assert!(b.done >= a.done + SimTime::from_ns(2.5));
    }

    #[test]
    fn writes_pay_turnaround() {
        let mut mc = MemoryController::new(small_dram());
        let warm = mc.schedule(SimTime::ZERO, 0, AccessKind::Read);
        let r = mc.schedule(warm.done, 1, AccessKind::Read);
        let mut mc2 = MemoryController::new(small_dram());
        let warm2 = mc2.schedule(SimTime::ZERO, 0, AccessKind::Read);
        let w = mc2.schedule(warm2.done, 1, AccessKind::Write);
        assert!(w.done > r.done);
    }

    #[test]
    fn link_serializes_flits() {
        let mut link = Link::new(&LinkConfig::upi());
        let t = SimTime::ZERO;
        let a = link.send_response(t);
        let b = link.send_response(t);
        assert!(b > a);
        assert_eq!(
            (b - a).as_ps(),
            LinkConfig::upi().t_serialize.as_ps(),
            "flits are spaced by the serialisation time"
        );
        assert_eq!(link.flits, 2);
    }

    #[test]
    fn link_directions_are_independent() {
        let mut link = Link::new(&LinkConfig::upi());
        let req = link.send_request(SimTime::ZERO);
        let rsp = link.send_response(SimTime::ZERO);
        // Both start immediately: no cross-direction contention.
        assert_eq!(req, rsp);
    }

    #[test]
    fn unloaded_throughput_matches_bus_rate() {
        // Stream row hits through one channel: steady-state spacing must be
        // the burst time (25.6 GB/s per channel).
        let mut mc = MemoryController::new(small_dram());
        let mut t = SimTime::ZERO;
        // Warm up.
        t = mc.schedule(t, 0, AccessKind::Read).done;
        let start = t;
        let n = 1000u64;
        for i in 1..=n {
            t = mc.schedule(t, i % 4, AccessKind::Read).done.max(t);
        }
        let per_line = (t - start).as_ns() / n as f64;
        // One request at a time: bank row-hit (6 ns) + bus burst (2.5 ns).
        assert!(
            (per_line - 8.5).abs() < 1.0,
            "closed-loop same-row hits pay bank + bus (~8.5ns), got {per_line}ns"
        );
    }
}
