#!/usr/bin/env bash
# Workspace lint gate: determinism lint (efind-lint), formatting, and
# clippy with warnings denied. Run from anywhere; operates on the
# repository root. Arguments go to efind-lint (`--json` in CI).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== efind-lint (determinism & virtual-time rules L001..L007) =="
# Project-specific source lint: wall-clock reads outside the bench
# crate, unordered iteration in observable-output crates, raw seed/hash
# draws outside efind-common::det, unregistered counter names, panics in
# runner/ql error paths, float accumulation over unordered collections,
# injection-plan draws inside hot loops without a Quiet/Armed guard.
# Exits nonzero on any un-waived finding.
cargo run -q -p efind-lint --bin efind-lint -- "$@"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "lint: clean"
