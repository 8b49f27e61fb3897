//! Discrete-event model of a tiered-memory machine.
//!
//! This crate is the hardware substrate of the Colloid reproduction: it
//! stands in for the paper's dual-socket Xeon testbed (DESIGN.md §2). The
//! model is deliberately mechanistic — loaded-latency inflation is not a
//! formula but an emergent property of banks, buses, activation windows and
//! closed-loop cores with bounded memory-level parallelism.
//!
//! Module map:
//!
//! - [`config`]: machine/tier/DRAM/link/core parameters and the paper's
//!   testbed preset.
//! - [`request`]: request vocabulary (tiers, traffic classes, object
//!   accesses, PEBS samples, hint faults).
//! - [`controller`]: the DRAM timing model (channels × banks, row buffers,
//!   tFAW activation throttling, bus serialisation) and serial links.
//! - [`cha`]: the Caching-and-Home-Agent counter block — occupancy and
//!   arrival counters per tier, the vantage point Colloid measures from.
//! - [`machine`]: the event loop gluing cores, tiers, the CHA, page
//!   placement, the migration DMA engine, and access-tracking hardware.
//! - [`faults`]: deterministic fault injection — counter
//!   noise/staleness/drops, transient migration failures, bandwidth
//!   degradation phases, PEBS sample loss, and hard faults (permanent
//!   tier shrinks, engine outages, permanent bandwidth collapse).

pub mod cha;
pub mod config;
pub mod controller;
pub mod faults;
pub mod machine;
pub mod request;

pub use cha::{Cha, ChaCounters, TierWindow};
pub use config::{
    CoreConfig, DramConfig, LinkConfig, MachineConfig, MigrationEngineConfig, TierConfig,
};
pub use faults::{
    BandwidthPhase, ChannelStall, EngineOutage, FaultPlan, FaultStats, TierShrink,
    WriteConflictStorm,
};
pub use machine::{
    AbortReason, AccessStream, CoreId, EnqueueError, EventCounts, FailedMigration, Machine,
    MigrationCounters, MigrationGate, TickReport, TxnTickStats,
};
pub use request::{
    AccessKind, HintFault, ObjectAccess, PebsSample, TierId, TrafficClass, Vpn, LINES_PER_PAGE,
    LINE_SIZE, PAGE_SIZE,
};
