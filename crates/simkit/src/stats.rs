//! Statistics primitives.
//!
//! These are the measurement tools the simulated hardware counters and the
//! Colloid controller are built from:
//!
//! - [`Ewma`]: exponentially weighted moving average — Colloid smooths its
//!   occupancy and rate measurements with EWMA (paper §3.1).
//! - [`TimeIntegrator`]: time-weighted integral of a step function — this is
//!   exactly what a CHA occupancy counter accumulates in hardware.
//! - [`OnlineStats`]: streaming mean/variance/min/max (Welford).

use crate::time::SimTime;

/// Exponentially weighted moving average.
///
/// The first observation initialises the average directly (no bias toward
/// zero); subsequent observations are blended with weight `alpha`.
///
/// # Examples
///
/// ```
/// let mut e = simkit::stats::Ewma::new(0.5);
/// e.update(10.0);
/// e.update(20.0);
/// assert_eq!(e.get(), 15.0);
/// ```
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// Larger `alpha` weighs recent samples more (less smoothing).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Feeds one observation.
    pub fn update(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// Current smoothed value (0.0 before any observation).
    pub fn get(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// True if at least one observation has been fed.
    pub fn is_initialized(&self) -> bool {
        self.value.is_some()
    }

    /// Forgets all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Time-weighted integral of a piecewise-constant signal.
///
/// This models a hardware occupancy counter: every cycle the counter adds
/// the current queue occupancy; reading it twice and dividing the delta by
/// the elapsed time yields the average occupancy — the `O` term of
/// Little's Law in the Colloid latency measurement.
///
/// # Examples
///
/// ```
/// use simkit::{stats::TimeIntegrator, SimTime};
///
/// let mut occ = TimeIntegrator::new();
/// occ.set(SimTime::from_ns(0.0), 2.0);   // 2 requests in flight
/// occ.set(SimTime::from_ns(10.0), 4.0);  // 2 more arrive at t=10
/// let integral = occ.integral_at(SimTime::from_ns(20.0));
/// // 2*10 + 4*10 = 60 request-ns
/// assert_eq!(integral, 60.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeIntegrator {
    last_time: SimTime,
    current: f64,
    integral: f64,
}

impl TimeIntegrator {
    /// Creates an integrator at value 0, time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the signal to `value` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `t` precedes the previous update.
    pub fn set(&mut self, t: SimTime, value: f64) {
        debug_assert!(t >= self.last_time, "TimeIntegrator time went backwards");
        self.integral += self.current * t.saturating_sub(self.last_time).as_ns();
        self.last_time = t;
        self.current = value;
    }

    /// Adds `delta` to the signal at time `t`.
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(t, v);
    }

    /// Current signal value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The integral `∫ value dt` (in value·ns) up to time `t`.
    pub fn integral_at(&self, t: SimTime) -> f64 {
        self.integral + self.current * t.saturating_sub(self.last_time).as_ns()
    }

    /// Mean value of the signal over `[t0, t1]` given integral snapshots.
    ///
    /// Returns 0.0 for an empty interval.
    pub fn mean_between(i0: f64, i1: f64, t0: SimTime, t1: SimTime) -> f64 {
        let dt = t1.saturating_sub(t0).as_ns();
        if dt <= 0.0 {
            0.0
        } else {
            (i1 - i0) / dt
        }
    }
}

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if self.n == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0.0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        assert!(!e.is_initialized());
        e.update(100.0);
        assert_eq!(e.get(), 100.0);
    }

    #[test]
    fn ewma_blends() {
        let mut e = Ewma::new(0.25);
        e.update(0.0);
        e.update(100.0);
        assert_eq!(e.get(), 25.0);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(42.0);
        }
        assert!((e.get() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_reset() {
        let mut e = Ewma::new(0.5);
        e.update(5.0);
        e.reset();
        assert!(!e.is_initialized());
        assert_eq!(e.get(), 0.0);
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn integrator_step_function() {
        let mut i = TimeIntegrator::new();
        i.set(SimTime::from_ns(0.0), 1.0);
        i.set(SimTime::from_ns(5.0), 3.0);
        // 1*5 + 3*5 = 20
        assert_eq!(i.integral_at(SimTime::from_ns(10.0)), 20.0);
        assert_eq!(i.current(), 3.0);
    }

    #[test]
    fn integrator_add_delta() {
        let mut i = TimeIntegrator::new();
        i.add(SimTime::from_ns(0.0), 2.0);
        i.add(SimTime::from_ns(10.0), -1.0);
        assert_eq!(i.current(), 1.0);
        assert_eq!(
            i.integral_at(SimTime::from_ns(20.0)),
            2.0 * 10.0 + 1.0 * 10.0
        );
    }

    #[test]
    fn integrator_mean_between() {
        let m = TimeIntegrator::mean_between(10.0, 70.0, SimTime::ZERO, SimTime::from_ns(20.0));
        assert_eq!(m, 3.0);
        // Empty interval yields zero, not NaN.
        let z = TimeIntegrator::mean_between(5.0, 5.0, SimTime::ZERO, SimTime::ZERO);
        assert_eq!(z, 0.0);
    }

    #[test]
    fn online_stats_mean_var() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn online_stats_empty_is_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
    }
}
