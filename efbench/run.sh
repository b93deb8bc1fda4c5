#!/usr/bin/env bash
# Builds efbench in release mode and runs every workload, untraced and
# traced, each in a child process of its own. Prints one line per
# `workload metric value unit` and writes efbench/out/results.json and
# efbench/out/trace-<workload>.jsonl. Extra arguments go to `efbench run`
# (`--seed N`, `--seconds S`, `--out DIR`, `--workload W`).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --manifest-path efbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-efbench/target}/release/efbench" run "$@"
