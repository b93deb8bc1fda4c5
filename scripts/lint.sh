#!/usr/bin/env bash
# Workspace lint gate: formatting, and clippy with warnings denied. Clippy
# enforces the determinism rules that resolve on types (the root
# `clippy.toml` and `[workspace.lints.clippy]`): wall-clock types,
# hash-map and hash-set iteration (forbidden, so no `#[expect]` can waive
# it), and panics in the runner and the query compiler. A wall-clock
# waiver is a reasoned `#[expect]`, and `-D warnings` makes a stale one
# fail. The determinism rules that need a run are tests: counter names
# are checked as they are interned (`efind_common::intern`), and
# `tests/determinism.rs` checks that quiet injection layers draw nothing
# and that injection plans draw only through `efind_common::det`.
# Run from anywhere; operates on the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (determinism lints; deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "lint: clean"
