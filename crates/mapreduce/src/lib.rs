#![warn(missing_docs)]

//! A from-scratch MapReduce framework over the simulated cluster.
//!
//! This is the substrate the paper assumes (Hadoop 1.0.4) rebuilt in Rust:
//!
//! * [`api`] — `Mapper`/`Reducer` traits, collectors, and *chained
//!   functions*: a Map or Reduce computation is a chain of user functions
//!   where each record a function emits goes on through the next, record
//!   at a time as in Hadoop's `ChainMapper`. EFind's baseline strategy
//!   (Fig. 6) works exactly by inserting `preProcess`/`lookup`/
//!   `postProcess` into these chains.
//! * [`counters`] — Hadoop-style global counters plus mergeable FM sketches;
//!   the statistics mechanism of §4.2.
//! * [`context`] — the per-task context through which user code charges
//!   virtual time and declares index-locality affinity.
//! * [`partition`] — shuffle partitioners (hash by default, pluggable so
//!   EFind can co-partition with an index, §3.4).
//! * [`job`] — job configuration ([`JobConf`]).
//! * [`runner`] — execution: real map/reduce computation over real records,
//!   scheduled onto the simulated cluster for timing; includes the
//!   wave-split API the adaptive optimizer uses to stop a job after its
//!   first map wave and re-plan the rest (Fig. 10).
//!
//! The framework executes user code *for real* (all outputs are exact);
//! only durations come from the cluster's cost models.

pub mod api;
pub mod context;
pub mod counters;
mod group;
pub mod integrity;
pub mod job;
pub mod netsplit_log;
pub mod partition;
pub mod recovery;
pub mod report;
pub mod runner;
mod spill;
pub mod stats;
pub mod tenancy;

pub use api::{
    identity_mapper, mapper_fn, reducer_fn, Collector, Mapper, MapperFactory, Reducer,
    ReducerFactory, RowSink, ROW_WINDOW,
};
pub use context::TaskCtx;
pub use counters::{CounterHandle, Counters, Sketches};
pub use integrity::IntegrityLog;
pub use job::JobConf;
pub use netsplit_log::PartitionLog;
pub use partition::{HashPartitioner, Partitioner};
pub use recovery::RecoveryLog;
pub use runner::{
    run_job, JobResult, MapPhaseExec, MapSide, ReduceTaskExec, Reduced, Runner, Shuffle,
};
pub use stats::{JobStats, PhaseStats, TaskStats};
pub use tenancy::{run_tenant_mix, TenantJob, TenantJobOutcome, TenantMixOutcome};
