//! Diagnostics of the EFind static analysis.
//!
//! `efind-analyze` is the vocabulary the checks report in: stable `EFxxx`
//! [`DiagCode`]s, [`Severity`], [`Span`]s, [`Diagnostic`]s and the
//! [`Report`] with its rendering. The checks themselves live beside the
//! runtime types in `efind::analysis` and read the runtime's own plans,
//! statistics and configuration. Errors reject the job or abort its
//! compilation; each distinct warning is reported once per run and
//! surfaces in `explain` output.
//!
//! See the "Static plan analysis" section of `DESIGN.md` for the full
//! code table.

#![warn(missing_docs)]

pub mod diag;

pub use diag::{DiagCode, Diagnostic, Report, Severity, Span};
