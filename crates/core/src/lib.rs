#![warn(missing_docs)]

//! # EFind — Efficient and Flexible Index Access in MapReduce
//!
//! Reproduction of Ma, Cao, Feng, Chen, Wang, *Efficient and Flexible Index
//! Access in MapReduce*, EDBT 2014. EFind is a connection layer between
//! MapReduce and arbitrary "indices" — any side data source that supports
//! selective access: KV stores, B-trees, spatial indices, remote cloud
//! services, even dynamic computation-based knowledge bases.
//!
//! ## Programming interface (§2)
//!
//! * [`IndexAccessor`] — implemented once per index *type*; its `lookup`
//!   answers a key with a list of values.
//! * [`IndexOperator`] — job-specific customization: `pre_process` extracts
//!   per-index key lists from a record, `post_process` combines lookup
//!   results into output records.
//! * [`IndexJobConf`] — places operators before Map (*head*), between Map
//!   and Reduce (*body*), or after Reduce (*tail*) and submits the enhanced
//!   job.
//!
//! ## Index access strategies (§3)
//!
//! [`Strategy`] covers the paper's four: **Baseline** (chained functions,
//! every lookup remote), **Cache** (per-task LRU removing local
//! redundancy), **Repartition** (an extra shuffle job grouping equal keys,
//! removing global redundancy), and **IndexLocality** (shuffle
//! co-partitioned with the index plus affinity scheduling, making lookups
//! local). The cost model of Table 1 / Eqs. 1–4 lives in [`cost`]; the
//! multi-index planning algorithms *FullEnumerate* and *k-Repart* live in
//! [`plan`].
//!
//! ## Adaptive optimization (§4)
//!
//! [`EFindRuntime`] runs an enhanced job in one of four [`Mode`]s. In
//! `Dynamic` mode it starts with the baseline plan, harvests counters and
//! FM sketches from the first map wave, gates on cross-task variance,
//! re-optimizes (Algorithm 1), and — when the predicted gain exceeds the
//! plan-change cost — switches plans mid-job, reusing the completed wave's
//! outputs (Fig. 10).
//!
//! ## Static plan analysis
//!
//! Before any pipeline is compiled, [`analysis`] verifies the job and its
//! plans on the runtime's own types: the job's shape (arity, unique
//! names, placement), Property 4, strategy/capability fit, key-kind
//! compatibility, cost-model sanity, and a determinism audit gating the
//! adaptive runtime's result reuse. It then checks the runtime
//! configuration — the armed injection layers, the lookup cache, tenancy
//! and hedging. Each check is written once, there. Findings are
//! `efind-analyze` diagnostics: errors (stable `EFxxx` codes) reject the
//! job or abort compilation; each distinct warning is printed once per
//! run and kept in [`EFindRuntime::warnings`]. `explain` prints the
//! report of [`analysis::analyze_costs`].
//!
//! ## Fault tolerance
//!
//! [`fault`] adds a deterministic fault-injection and tolerance layer to
//! the accessor path: a seeded [`FaultPlan`] (failures, timeouts,
//! slowdowns decided by a pure hash — no wall clock), a [`RetryPolicy`]
//! with exponential backoff charged to virtual time, per-index timeouts,
//! and a per-task circuit [`Breaker`](fault::Breaker) degrading to a
//! configurable [`MissPolicy`]. The adaptive runtime reads the failure
//! counters as a re-optimization trigger and the cost model charges
//! expected retry overhead.

pub mod accessor;
pub mod adaptive;
pub mod analysis;
pub mod cache;
pub mod carrier;
pub mod compile;
pub mod cost;
pub mod fault;
pub mod jobconf;
pub mod operator;
pub mod plan;
pub mod runtime;
pub mod statstore;
pub mod statsx;

pub use accessor::{
    ChargedLookup, HedgeConfig, HedgePolicy, IndexAccessor, LookupMode, LookupResult, LookupTally,
    PartitionScheme,
};
pub use cache::LookupCache;
pub use cost::{CostEnv, IndexStatsEstimate, OperatorStatsEstimate, Placement};
pub use efind_analyze::{DiagCode, Diagnostic, Report, Severity, Span};
pub use efind_common::KeyKind;
pub use fault::{FaultConfig, FaultKind, FaultPlan, MissPolicy, RetryPolicy};
pub use jobconf::{BoundOperator, IndexJobConf};
pub use operator::{operator_fn, IndexInput, IndexOperator, IndexOutput};
pub use plan::{forced_plan, Enumeration, OperatorPlan, Strategy};
pub use runtime::{EFindConfig, EFindJobResult, EFindRuntime, Mode};
pub use statstore::{
    fingerprint_operator, fingerprint_plan, Fingerprint, LoadStatus, MeasuredOp, RunRecord,
    StatStore,
};
pub use statsx::Catalog;
