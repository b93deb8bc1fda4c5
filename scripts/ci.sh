#!/usr/bin/env bash
# Full CI gate: lint (efind-lint, fmt, clippy -D warnings), the clippy
# gate's known-bad fixture (it must fail with exactly the determinism
# lints), the complete test suite, the cost-model checks over a real
# catalog (`explain` on all seven scenarios), the goldens again under one
# worker, a build and test of efbench — the benchmark of record
# (`BENCHMARK.json`) — with its seven exact `alloc_mb` gates, and the
# pinned seed matrices. Nothing here reads the wall clock: comparing two
# commits' host time with efbench is a manual campaign, see
# efbench/README.md.
set -euo pipefail

cd "$(dirname "$0")/.."

# The determinism scanner runs once, in JSON mode (the machine-readable
# artifact; nonzero exit on any un-waived L003, L004, L006 or L007
# finding), followed by fmt and clippy.
scripts/lint.sh --json

echo "== clippy gate: known-bad fixture must fail with exactly its lints =="
# The determinism rules clippy enforces live in `clippy.toml` and the root
# `[workspace.lints.clippy]` table. The fixture crate holds one breach of
# each: a wall-clock read, hash iteration in `for` and method form, and an
# `unwrap` in a runner-style panic scope. Clippy must fail on it and name
# exactly these four lints, so an edit that loosens the policy fails here.
expected="disallowed_methods disallowed_types iter_over_hash_type unwrap_used"
if gate=$(cargo clippy -q --locked --manifest-path crates/lint/tests/fixtures/clippy/Cargo.toml \
    --target-dir target/clippy-gate --message-format=json -- -D warnings 2>/dev/null); then
    echo "clippy gate: the known-bad fixture passed clippy"
    exit 1
fi
named=$(grep -o '"code":{"code":"clippy::[a-z_]*"' <<<"$gate" | sed 's/.*clippy:://; s/"$//' |
    sort -u | paste -sd ' ' || true)
if [ "$named" != "$expected" ]; then
    echo "clippy gate: expected [$expected], clippy named [$named]"
    exit 1
fi
echo "clippy gate: fails with $named"

echo "== cargo test =="
cargo test -q --workspace

echo "== explain: cost-model checks over real catalog statistics =="
# `analyze_costs` runs the statistics-dependent checks (EF009-EF011, EF013,
# EF019) only from a catalog a real run filled, and `explain` is its one
# caller. On every scenario both reports must be clean.
for scenario in syn q9 q3 log osm topics multi; do
    explain=$(cargo run --release -q -p efind-bench --bin explain -- "$scenario")
    if ! grep -q 'structural: clean' <<<"$explain" || ! grep -q 'cost model: clean' <<<"$explain"; then
        printf '%s\n' "$explain"
        echo "explain $scenario: the static analysis is not clean"
        exit 1
    fi
    echo "explain $scenario: structural and cost-model analysis clean"
done

echo "== goldens under one worker =="
# The runner's `fan_out` is the one place available_parallelism() enters;
# virtual observables must not depend on how many workers there are.
# `cargo test` above ran the goldens under every CPU, this runs them — the
# hot-path ones and the five exits of a cold Dynamic run — pinned to one.
if command -v taskset >/dev/null; then
    taskset -c 0 cargo test -q --release --test hotpath_golden --test adaptive_golden
else
    echo "taskset not found: skipping the one-worker golden run"
fi

echo "== efbench (the benchmark of record builds and passes its own tests) =="
# efbench is a package of its own that mirrors public signatures and
# RuntimeEnv fields of the crates it measures; building and testing it
# here breaks CI, not the benchmark pipeline, when one of them changes.
# `--locked`: a change to the measured crates' dependencies that would
# rewrite efbench/Cargo.lock fails here instead of quietly changing the
# benchmark's directory.
cargo build --locked --release --manifest-path efbench/Cargo.toml &&
    cargo test --locked -q --manifest-path efbench/Cargo.toml
# Exact-count gates: `alloc_mb` is counted in a one-worker child process
# and repeats to the byte for a seed, so a gate has no noise to allow for.
# `efbench_gate <workload> <max alloc_mb>` runs the workload for a second
# on seed 1 and fails unless no iteration failed and `alloc_mb` is within
# the limit.
efbench_gate() {
    cargo run --locked --release --quiet --manifest-path efbench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 1 --trace 0 | tail -n 1 | awk -v w="$1" -v max="$2" '
        match($0, /"failed": [0-9]+/) { failed = substr($0, RSTART + 10, RLENGTH - 10) }
        match($0, /"alloc_mb": \{"value": [0-9.]+/) { alloc = substr($0, RSTART + 22, RLENGTH - 22) }
        END {
            if (failed == "" || alloc == "") { print "efbench " w ": no result line"; exit 1 }
            printf "efbench %s: failed %d, alloc_mb %.2f (gate: 0 and <= %s)\n", w, failed, alloc, max
            exit !(failed + 0 == 0 && alloc + 0 <= max + 0)
        }'
}
# A lookup hands out the value list the index stores, a map task's chain
# hands its records on one at a time into one output block, the DFS keeps
# that block as the output file's part instead of copying its records
# into chunk blocks, and a full cache stores each key once, so
# `lookup_cold` (240 k records, 1 KB values, nearly every lookup reaches
# the index) allocates 68.67 MB. A write that copies each record into its
# chunk makes it 84.02 MB, with caches that reserved their whole capacity
# and kept a second clone of every key 87.57 MB, a vector per chain stage
# 133.63 MB; one copy of the results anywhere on the per-record path adds
# about 245 MB.
efbench_gate lookup_cold 74
# `wc_shuffle` (1.2 M records, string keys, integer values) allocates
# 135.27 MB: each map task's chain emits straight into its run (keys
# encoded, values moved), each reduce task moves a value once into its
# group and writes one record a word into blocks the output file keeps.
# Reduce outputs grown by doubling and trimmed by the write made it
# 138.91 MB, map output collected into a vector before it was spilled
# 201.28 MB, records crossing the shuffle whole 220.30 MB; buckets grown
# by doubling, a merged second copy and a merge sort's scratch buffer
# 567.42 MB.
efbench_gate wc_shuffle 146
# `scanjoin_write` (integer keys, list values) is the one shuffling
# workload whose values own heap blocks. Each value moves into its map
# task's run and from there into its group, and the tagged input the
# workload writes inside its timed section is stored as the vector it
# was handed, and the join's reduce tasks write into blocks the output
# file keeps, so it allocates 238.40 MB. Reduce outputs grown by doubling
# and trimmed made it 243.04 MB, and a copying write on top 257.44 MB; a
# run that encoded the values as well would add their bytes again.
efbench_gate scanjoin_write 257
# A segment takes every record of its task through one carrier, and the
# task's chain (segment, user map, statistics counter) hands records on
# one at a time into one output block, which the output file keeps, and
# its caches grow with the keys they hold, so `lookup_hot` (120 k records,
# four in five a cache hit) allocates 34.34 MB. A copying write makes it
# 42.02 MB, with caches that reserved their whole capacity and kept a
# second clone of every key 43.79 MB, a vector per chain stage 66.82 MB,
# and a carrier, its key lists, its slots and the lookup's result vector
# built afresh for every record 90.81 MB.
efbench_gate lookup_hot 37
# The same carrier on both sides of the shuffle: a re-partitioned record
# costs its payload buffer going in and the datums it decodes to coming
# out, the map side's chain emits straight into its run, and the reduce
# side hands each group's records down its chain as the map side does,
# into blocks allocated once at their full size that the output file
# keeps, so `lookup_repart` allocates 51.18 MB. Reduce outputs grown by
# doubling and then trimmed by the write made it 71.12 MB, as much as a
# copying write (71.11 MB); map output collected into a vector before it
# was spilled 77.34 MB, with caches that reserved their whole capacity
# and kept a second clone of every key 78.52 MB, a vector per chain
# stage 86.20 MB, per-record carriers 135.64 MB.
efbench_gate lookup_repart 55
# `lookup_armed` is `lookup_hot` with faults, a node crash, corruption,
# partitions and hedging armed. Its oracle check runs on every iteration,
# so `failed` 0 says no armed layer changed the answer. A verified chunk
# read streams its CRC record by record through one buffer, an armed cache
# insert encodes into buffers it keeps, a draw hashes from the stack and
# the output file keeps the tasks' blocks, so it allocates 42.49 MB. A
# copying write makes it 50.16 MB, and encoding each whole chunk to
# checksum it 72.70 MB; with that, per-insert encode buffers and caches
# that reserved their whole capacity it read 81.73 MB, and a vector per
# chain stage made that 104.76 MB.
efbench_gate lookup_armed 46
# `q9_adaptive` (TPC-H Q9, five indices, a Dynamic then an Optimized run)
# builds a shadow cache for each index of each map task and a lookup cache
# for each cache-strategy task, most holding far fewer keys than their
# 1 024-entry capacity. They grow with what they hold, the re-plan's
# remaining file views the input's chunks and every output file keeps
# the blocks its tasks wrote, so it allocates 183.22 MB. Reduce outputs
# grown by doubling and trimmed made it 193.53 MB, a copying write on
# top 207.60 MB, and map output collected into a vector before it was
# spilled 214.97 MB; with that, reserving each cache's whole capacity up
# front made it 355.04 MB, and a second clone of every key in the
# cache's index 368.22 MB.
efbench_gate q9_adaptive 198

echo "== fault injection (pinned seed matrix) =="
# Deterministic chaos sweep: per (seed, rate, strategy) cell two runs
# must be bit-identical, and the zero-fault cell must match the hotpath
# goldens. The pinned matrix is the suite's default; widen it by
# exporting more seeds.
EFIND_FAULT_SEEDS="${EFIND_FAULT_SEEDS:-0xEF1D0001,0xC0FFEE42}" \
    cargo test -q --test fault_injection --test fault_props

echo "== node crash recovery (pinned seed matrix) =="
# Deterministic node-crash sweep: per (seed, crash count, strategy) cell
# two runs must be bit-identical, crashes under replication 3 must not
# change the output, and the zero-crash cell must match the hotpath
# goldens. Release mode: recompute waves multiply virtual work.
EFIND_CRASH_SEEDS="${EFIND_CRASH_SEEDS:-0xEF1D0003,0xDEADBEE5,41}" \
    cargo test -q --release --test node_crash

echo "== data integrity (pinned seed matrix) =="
# Deterministic corruption sweep: per (seed, rate, strategy) cell two
# runs must be bit-identical (or fail fast identically), corruption
# under replication 3 must change neither output nor non-ledger
# counters, and the zero-corruption cell must match the hotpath goldens.
EFIND_CORRUPT_SEEDS="${EFIND_CORRUPT_SEEDS:-0xEF1D0004,0xC0FFEE01,53}" \
    cargo test -q --release --test integrity

echo "== cross-job re-optimization (persistent stats store) =="
# Deterministic re-optimization sweep: a warm store must plan the
# measured winner at compile time with zero mid-job replans and
# bit-identical observables across double runs; empty, absent, corrupt,
# and version-bumped stores must be observably absent beyond their named
# counters. Release mode: each case runs the full LOG workload.
cargo test -q --release --test reopt_persistence --test reopt_props --test reopt_robustness

echo "== gray failures (pinned seed matrix) =="
# Deterministic partition/hedge sweep: configured-but-quiet partition and
# hedge layers must match the plain run byte-for-byte (the quiet golden
# smoke), hedged lookups must win time but never bytes, a partition
# healing mid-job must leave the output bit-identical, and the full gray
# stack (partition + hedge + chaos) must replay bit-identically across
# double runs. Release mode: stalled schedules multiply virtual work.
EFIND_NETSPLIT_SEEDS="${EFIND_NETSPLIT_SEEDS:-0xEF1D0010,0x5EED5EED}" \
    cargo test -q --release --test netsplit

echo "== multi-tenant serving (pinned-seed mix) =="
# Deterministic tenancy sweep: the quiet-tenancy mix must match the
# hotpath goldens byte-for-byte, the contended mix (chaos armed on one
# tenant, pinned seed 0xEF1D0009) must produce bit-identical schedules
# across double runs, the 36-job three-tenant throughput mix must admit
# every job, replay bit-identically and not see configured-but-quiet
# per-job plans, weighted contention must complete every admitted job,
# and one tenant's armed injections must not move another tenant's
# observables. Release mode: the proptest cases each run a full mix.
cargo test -q --release --test tenancy

echo "ci: clean"
