#![warn(missing_docs)]

//! Simulated cluster substrate.
//!
//! The paper evaluates EFind on a 12-node Hadoop cluster connected by 1 Gbps
//! Ethernet. This crate replaces the hardware with a deterministic model:
//!
//! * [`SimDuration`]/[`SimTime`] — a virtual clock with nanosecond
//!   resolution; every reported "second" in the reproduction is virtual,
//! * [`NetworkModel`] — point-to-point bandwidth + latency inside one data
//!   center (the paper's `BW` term),
//! * [`DiskModel`] — sequential read/write bandwidth per node,
//! * [`Cluster`] — node inventory with per-node map/reduce slots,
//! * [`sched`] — an event-driven slot scheduler that turns per-task costs
//!   into a phase schedule and makespan, with Hadoop-style locality
//!   preferences plus the *index locality* affinity of §3.4.
//!
//! User code still runs for real; only durations are modeled, so counts
//! (records, bytes, lookups) are exact and times are reproducible.

pub mod chaos;
pub mod corrupt;
pub mod detector;
pub mod model;
pub mod netsplit;
pub mod node;
pub mod sched;
pub mod tenancy;
pub mod time;

pub use chaos::{ChaosPlan, CrashEvent};
pub use corrupt::CorruptionPlan;
pub use detector::{DetectorConfig, Suspicion, Verdict};
pub use model::{DiskModel, NetworkModel};
pub use netsplit::{LinkSlowdown, PartitionEvent, PartitionPlan};
pub use node::{Cluster, ClusterBuilder, NodeId};
pub use sched::{Assignment, PartitionReplay, Schedule, SlotKind, TaskSpec};
pub use tenancy::{
    Grant, IndexRateLimit, MultiTenantScheduler, QosCharge, SchedDecision, SchedLogEntry,
    TenancyConfig, TenancyLedger, TenantId, TenantLedgerRow, TenantSpec, TokenBucket,
};
pub use time::{SimDuration, SimTime};
