//! `efbench`, the repository's benchmark of record.
//!
//! Seven workloads, each run in a process of its own. An untraced run
//! reports the end-to-end metrics on two clocks that are always named —
//! *host* time (what the simulator costs to run) and *virtual* time (what
//! the modelled cluster would take, the paper's metric); a traced run
//! reports the per-layer metrics from spans the bench records around its
//! own calls into each layer and from standalone replays of single
//! layers. `README.md` beside this crate has the tables.

pub mod alloc;
pub mod bench;
pub mod cli;
pub mod compare;
pub mod digest;
pub mod json;
pub mod metrics;
pub mod pipeline;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
