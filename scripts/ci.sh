#!/usr/bin/env bash
# Full CI gate: lint (fmt, clippy -D warnings), the clippy gate's
# known-bad crate (it must fail with exactly the determinism lints), the
# complete test suite, the cost-model checks over a real catalog
# (`explain` on all seven scenarios), the goldens again under one worker,
# a build and test of efbench — the benchmark of record
# (`BENCHMARK.json`) — with its seven exact `alloc_mb` gates, and the
# pinned seed matrices. Nothing here reads the wall clock: comparing two
# commits' host time with efbench is a manual campaign, see
# efbench/README.md.
set -euo pipefail

cd "$(dirname "$0")/.."

scripts/lint.sh

echo "== mutant catalogue: every patch applies =="
# `scripts/mutants/run.sh` stops at the first patch that no longer applies,
# so an edit that moves a mutant's context fails here, in seconds, rather
# than in a mutant run much later.
patches=0
for patch in scripts/mutants/*.patch; do
    if ! git apply --check "$patch"; then
        echo "mutant catalogue: $patch does not apply"
        exit 1
    fi
    patches=$((patches + 1))
done
echo "mutant catalogue: all $patches patches apply"

echo "== clippy gate: known-bad crate must fail with exactly its lints =="
# The determinism rules clippy enforces live in `clippy.toml` and the root
# `[workspace.lints.clippy]` table. The gate crate holds one breach of
# each: a wall-clock read, hash iteration in `for` and method form, an
# `unwrap` in a runner-style panic scope, and, in its test build, a float
# sum over a hash map whose iteration an `#[expect]` waives — an error
# (E0453) because hash iteration is forbidden. Clippy must fail on it and
# name exactly these five codes, so an edit that loosens the policy fails
# here.
expected="E0453 disallowed_methods disallowed_types iter_over_hash_type unwrap_used"
if gate=$(cargo clippy -q --locked --keep-going --all-targets \
    --manifest-path scripts/clippy-gate/Cargo.toml \
    --target-dir target/clippy-gate --message-format=json -- -D warnings 2>/dev/null); then
    echo "clippy gate: the known-bad crate passed clippy"
    exit 1
fi
named=$(grep -o '"code":{"code":"[a-zA-Z0-9_:]*"' <<<"$gate" | sed 's/.*"code":"//; s/"$//; s/^clippy:://' |
    sort -u | paste -sd ' ' || true)
if [ "$named" != "$expected" ]; then
    echo "clippy gate: expected [$expected], clippy named [$named]"
    exit 1
fi
echo "clippy gate: fails with $named"

echo "== cargo test =="
cargo test -q --workspace

echo "== explain: static analysis over real catalog statistics =="
# `analyze_costs` runs every static check over the plans `Mode::Optimized`
# would run: structural, configuration and the statistics-dependent ones
# (EF009-EF011, EF013, EF019), which need a catalog a real run filled.
# `explain` is its one caller and prints `analysis: clean`, or the
# findings, or the error when the plans cannot be formed. On every
# scenario the analysis must be clean.
for scenario in syn q9 q3 log osm topics multi; do
    explain=$(cargo run --release -q -p efind-bench --bin explain -- "$scenario")
    if ! grep -qx 'analysis: clean' <<<"$explain"; then
        printf '%s\n' "$explain"
        echo "explain $scenario: the static analysis is not clean"
        exit 1
    fi
    echo "explain $scenario: static analysis clean"
done

echo "== quick figures: the committed CSVs, byte for byte =="
# Every figure is a function of its seeds and the virtual clock, so the 14
# reduced-scale CSV series repeat exactly. `results/quick/` holds them; a
# change that moves a cell regenerates them with
# `figures --quick --csv results/quick` and says why.
quick=$(mktemp -d)
trap 'rm -rf "$quick"' EXIT
cargo run --release -q -p efind-bench --bin figures -- --quick --csv "$quick" >/dev/null
if ! diff -r results/quick "$quick"; then
    echo "quick figures: the CSVs differ from results/quick"
    exit 1
fi
echo "quick figures: all $(ls "$quick" | wc -l) CSVs match results/quick"

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
# into chunk blocks, a full cache stores each key once, a new cache
# takes the storage its worker's last one left, and the join's head
# operator copies only the join key out of the input row it is lent, so
# `lookup_cold` (240 k records, 1 KB values, nearly every lookup reaches
# the index) allocates 31.39 MB. A segment that cloned every input row
# made it 50.59 MB, with caches that grew their storage afresh in every
# task 68.67 MB, a write that copies each record into its chunk on top
# 84.02 MB, with caches that reserved their whole capacity and kept a
# second clone of every key 87.57 MB, a vector per chain stage
# 133.63 MB; one copy of the results anywhere on the per-record path adds
# about 245 MB.
efbench_gate lookup_cold 34
# `wc_shuffle` (1.2 M records, string keys, integer values) allocates
# 135.22 MB: each map task's chain emits straight into its run (keys
# encoded, values moved), each reduce task sizes its slice list once,
# moves a value once into its group and writes one record a word into
# blocks the output file keeps. Slice lists grown by doubling made it
# 135.27 MB, reduce outputs grown by doubling and trimmed by the write
# 138.91 MB, map output collected into a vector before it was spilled
# 201.28 MB, records crossing the shuffle whole 220.30 MB; buckets grown
# by doubling, a merged second copy and a merge sort's scratch buffer
# 567.42 MB.
efbench_gate wc_shuffle 146
# `scanjoin_write` (integer keys, list values) is the one shuffling
# workload whose values own heap blocks. Each value moves into its map
# task's run and from there into its group, and the tagged input the
# workload writes inside its timed section is stored as the vector it
# was handed, the join's mapper moves each record it keeps instead of
# cloning its value, and the join's reduce tasks write into blocks the
# output file keeps, so it allocates 179.09 MB. A mapper that cloned
# every value it emitted made it 238.40 MB, reduce outputs grown by
# doubling and trimmed on top 243.04 MB, and a copying write on top of
# that 257.44 MB; a run that encoded the values as well would add their
# bytes again.
efbench_gate scanjoin_write 193
# A segment takes every record of its task through one carrier, and the
# task's chain (segment, user map, statistics counter) hands records on
# one at a time into one output block, which the output file keeps, and
# its caches grow with the keys they hold on storage their worker's last
# caches left, and the segment is lent each input row and copies only the
# join key out of it, so `lookup_hot` (120 k records, four in five a cache
# hit) allocates 15.89 MB. A segment that cloned every input row made it
# 25.49 MB, with caches that grew their storage afresh in every task
# 34.34 MB, a copying write on top 42.02 MB, with caches that
# reserved their whole capacity and kept a second clone of every key
# 43.79 MB, a vector per chain stage 66.82 MB, and a carrier, its key
# lists, its slots and the lookup's result vector built afresh for every
# record 90.81 MB.
efbench_gate lookup_hot 17
# The same carrier on both sides of the shuffle: a re-partitioned record
# is written into its map task's run and decoded from it in place, the
# map side's chain emits straight into its run, and the reduce
# side hands each group's records down its chain as the map side does,
# into blocks allocated once at their full size that the output file
# keeps; its caches take the storage their worker's last ones left, a
# reduce task's slice list is sized once from the run count, and the map
# side's segment copies only the join key out of each input row it is
# lent, so `lookup_repart` allocates 32.86 MB. A payload buffer a record
# with its reduce group's value vector made it 37.65 MB, a segment that
# cloned every input row 47.25 MB, with caches that grew their storage
# afresh in every task 51.18 MB; reduce outputs grown by
# doubling and then trimmed by the write 71.12 MB, as much as a copying
# write (71.11 MB); map output collected into a vector before it was
# spilled 77.34 MB, with caches that reserved their whole capacity and
# kept a second clone of every key 78.52 MB, a vector per chain stage
# 86.20 MB, per-record carriers 135.64 MB.
efbench_gate lookup_repart 35
# `lookup_armed` is `lookup_hot` with faults, a node crash, corruption,
# partitions and hedging armed. Its oracle check runs on every iteration,
# so `failed` 0 says no armed layer changed the answer. A verified chunk
# read streams its CRC record by record through one buffer, an armed cache
# insert encodes into buffers it keeps, a new cache takes the storage its
# worker's last one left, a draw builds its payload in a buffer its thread
# keeps, the output file keeps the tasks' blocks, the segment copies
# only the join key out of each input row it is lent and an armed cache
# keeps its key generations in that storage too, so it allocates
# 16.07 MB. Generation maps grown afresh in every task made it 19.94 MB,
# draw payloads on the heap 23.99 MB, a segment that
# cloned every input row 33.64 MB, with caches that grew their
# storage afresh in every task 42.49 MB, a copying
# write on top 50.16 MB, and encoding each whole chunk to checksum it
# 72.70 MB; with that, per-insert encode buffers and caches that reserved
# their whole capacity it read 81.73 MB, and a vector per chain stage
# made that 104.76 MB.
efbench_gate lookup_armed 17
# `q9_adaptive` (TPC-H Q9, five indices, a Dynamic then an Optimized run)
# builds a shadow cache for each index of each map task and a lookup cache
# for each cache-strategy task, most holding far fewer keys than their
# 1 024-entry capacity. They grow with what they hold, on storage their
# worker's last caches left; a reduce task's slice list is sized once
# from the run count, the re-plan's remaining file views the input's
# chunks, every output file keeps the blocks its tasks wrote, a carrier
# an earlier job stored is decoded from the row that holds it into the
# storage the carrier's last record left and lent to `postProcess`, each
# join carries the input row it is lent in place, encoding it from the
# chunk's own row into its task's shuffle run, the jobs with no map
# function hand each stored carrier to their shuffle run as bytes, each
# job's map side borrows its schedule's attempts, and the joins copy only
# the rows they emit, each Q9 row growing once to its final width, so it
# allocates 87.52 MB. Those carriers cloned into the shuffle live, one
# buffer a row, and each job's map schedule copied, made it 91.09 MB
# (91.06 MB before the last job of the map-side re-plan ran the runner's
# map side). A payload buffer for each re-partitioned carrier
# made it 93.82 MB (93.53 MB before lookups tallied per task), copying each
# lent row in `preProcess` 109.65 MB, and 110.28 MB with counters
# in hash maps; decoding each stored carrier into a fresh record handed
# over to `postProcess`, and rows grown by doubling, 147.29 MB, decoding
# from a clone of each such row 148.09 MB, with caches that grew their
# storage afresh in every task and
# slice lists grown by doubling 183.22 MB, reduce
# outputs grown by doubling and trimmed on top 193.53 MB, a copying
# write on top of that 207.60 MB, and map output collected into a vector
# before it was spilled 214.97 MB; with that, reserving each cache's
# whole capacity up front made it 355.04 MB, and a second clone of every
# key in the cache's index 368.22 MB.
efbench_gate q9_adaptive 96

echo "== injection layers (pinned seed matrix) =="
# Deterministic sweep over faults, crashes, corruption, partitions and
# hedging, one harness (tests/common/layers.rs) for six suites: per (seed,
# layer mask, mode) cell two runs must be bit-identical (or fail fast
# identically with a chunk's DataCorruption or DataLoss, only when
# corruption or crashes are armed), an answered cell must give the plain
# run's output and finish no earlier unless a hedge may win time, each
# layer must do work in its cells, and every layer configured but quiet
# must match the hotpath goldens. Each layer alone and the gray-stack and
# combined-chaos masks run in their layer's suite, all five layers and
# seed-drawn masks in `injection`. A column of `Mode::Dynamic` cells over a
# tail-operator job with more reducers than reduce slots takes Fig. 10(b)'s
# reduce-phase re-plan under shuffle corruption and crashes (`injection`,
# `node_crash`), and every answered cell lists each crash in one job only.
# The pinned seeds are the union of the four per-layer seed lists; widen
# the matrix by exporting more. Release mode: 320 pinned cells, each run
# twice, plus the proptest cases.
EFIND_SEEDS="${EFIND_SEEDS:-0xEF1D0001,0xC0FFEE42,0xEF1D0003,0xDEADBEE5,41,0xEF1D0004,0xC0FFEE01,53,0xEF1D0010,0x5EED5EED}" \
    cargo test -q --release --test injection --test fault_injection --test node_crash \
    --test integrity --test netsplit --test fault_props

echo "== cross-job re-optimization (persistent stats store) =="
# Deterministic re-optimization sweep: a warm store must plan the
# measured winner at compile time with zero mid-job replans and
# bit-identical observables across double runs; empty, absent, corrupt,
# and version-bumped stores must be observably absent beyond their named
# counters. Release mode: each case runs the full LOG workload.
cargo test -q --release --test reopt_persistence --test reopt_props --test reopt_robustness

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
