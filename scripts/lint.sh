#!/usr/bin/env bash
# Workspace lint gate: the determinism scanner (efind-lint), formatting,
# and clippy with warnings denied. Clippy enforces the determinism rules
# that resolve on types (the root `clippy.toml` and
# `[workspace.lints.clippy]`): wall-clock types, hash-map and hash-set
# iteration, and panics in the runner and the query compiler. Each waiver
# is a reasoned `#[expect]`, and `-D warnings` makes a stale one fail.
# Run from anywhere; operates on the repository root. Arguments go to
# efind-lint (`--json` in CI).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== efind-lint (determinism & virtual-time rules L003 L004 L006 L007) =="
# Project-specific source lint: raw seed/hash draws outside
# efind-common::det, unregistered counter names, float accumulation in a
# hash iteration (a statement whose `#[expect]` waives one), and
# injection-plan draws inside hot loops without a Quiet/Armed guard.
# Exits nonzero on any un-waived finding.
cargo run -q -p efind-lint --bin efind-lint -- "$@"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (determinism lints; deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "lint: clean"
