//! Diagnostics of the EFind static analysis.
//!
//! `efind-analyze` is the vocabulary the checks report in: stable `EFxxx`
//! [`DiagCode`]s, [`Severity`], [`Span`]s, [`Diagnostic`]s and the
//! [`Report`] with its rendering. The checks themselves live beside the
//! runtime types in `efind::analysis` and read the runtime's own plans,
//! statistics and configuration. Errors abort compilation; warnings
//! surface in `explain` output and at job start.
//!
//! See the "Static plan analysis" section of `DESIGN.md` for the full
//! code table.

#![warn(missing_docs)]

pub mod diag;

pub use diag::{DiagCode, Diagnostic, Report, Severity, Span};
