//! Simulation kernel for the Colloid reproduction.
//!
//! `simkit` provides the building blocks shared by every simulated component
//! in this workspace:
//!
//! - [`time`]: a picosecond-resolution simulated clock type ([`SimTime`])
//!   with convenient nanosecond/microsecond constructors.
//! - [`event`]: a deterministic discrete-event queue ([`EventQueue`], a
//!   calendar wheel with a heap overflow) with stable FIFO ordering among
//!   same-timestamp events.
//! - [`rng`]: seeded, splittable pseudo-random number helpers plus a Zipfian
//!   sampler (used by the YCSB-style workloads).
//! - [`stats`]: statistics primitives used throughout the simulator and the
//!   Colloid controller — EWMA smoothing, time-weighted averages and online
//!   mean/variance.
//! - [`profile`]: an opt-in wall-clock profiler for the simulator's own hot
//!   paths (scoped timers aggregated into a self/total table).
//!
//! Everything in this crate is deterministic: given the same seed and the
//! same sequence of calls, results are reproducible bit-for-bit. The one
//! deliberately non-deterministic module is [`profile`], which reads the
//! host clock — it is purely observational and feeds nothing back into
//! simulated state.

pub mod event;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, QueueCounters};
pub use time::SimTime;
