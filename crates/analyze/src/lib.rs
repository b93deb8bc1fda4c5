//! Static plan analysis for the EFind reproduction.
//!
//! `efind-analyze` verifies an index job + its per-operator plans *before*
//! execution: the core crate lowers the runtime types into the neutral
//! [`model`] IR and [`analyze`] emits structured [`Diagnostic`]s with
//! stable `EFxxx` codes. The checks of the runtime configuration a job
//! runs under live beside the runtime types in `efind::analysis` and
//! report through the same [`Report`]. Errors abort compilation; warnings
//! surface in `explain` output and at job start.
//!
//! See the "Static plan analysis" section of `DESIGN.md` for the full
//! code table.

#![warn(missing_docs)]

pub mod checks;
pub mod diag;
pub mod model;

pub use checks::analyze;
pub use diag::{DiagCode, Diagnostic, Report, Severity, Span};
pub use model::{
    ChoiceModel, IndexModel, IndexStatsModel, MeasuredStatsModel, OperatorCosts, OperatorModel,
    PlacementKind, PlanModel, StrategyKind,
};
