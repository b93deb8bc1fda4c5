#![warn(missing_docs)]
// Query compilation returns structured errors; a panic would abort the
// whole simulated cluster.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

//! # efind-ql — a minimal declarative layer over EFind
//!
//! The paper argues that "higher-level query languages [Pig, Hive] can
//! employ EFind to achieve flexible index access" (§1, Related Work).
//! This crate is that claim made concrete: a small Pig-Latin-style query
//! model — scan, filter, index join, project, group-by/aggregate — whose
//! compiler emits an [`efind::IndexJobConf`]. Every index join becomes an
//! EFind head operator, so the *entire* strategy machinery (cache,
//! re-partitioning, index locality, cost-based and adaptive optimization)
//! applies to declaratively written queries for free.
//!
//! Rows are `Datum::List` values; columns are positional.
//!
//! ```text
//! Query::scan("lineitem")
//!     .index_join(orders_idx, on: col(0), take: [0, 1, 2])   // EFind operator
//!     .filter(col(8).lt(lit(1200)))
//!     .group_by([col(0)])
//!     .aggregate([Agg::Sum(col(4))])
//!     .into_job("q", "out")
//! ```

pub mod compile;
pub mod expr;
pub mod query;

pub use compile::{compile, compile_checked};
pub use expr::{col, composite, lit, Expr, Pred};
pub use query::{Agg, IndexJoinSpec, JoinKind, Query, Step};
