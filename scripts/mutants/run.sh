#!/usr/bin/env bash
# The mutant catalogue: each `NN-name.patch` beside this script plants one
# plausible bug in the library. For every patch, this script applies it to
# a scratch copy of a source tree, runs the given test binaries against
# the mutant, and prints which of them fail ("kill" it). A mutant no
# binary kills is a survivor: a bug the suite would not notice.
#
#   scripts/mutants/run.sh [-s SRC] [-w WORK] BIN...
#
#   SRC   the tree to mutate (default: the repository holding this
#         script); its `.git/` and `target/` are not copied
#   WORK  scratch directory for the copy and its build (default:
#         ${TMPDIR:-/tmp}/efind-mutants); the build is kept between runs
#   BIN   a test binary: `NAME` is `tests/NAME.rs` of the `efind-repro`
#         package, `PKG:lib` the unit tests of workspace crate PKG and
#         `PKG:NAME` its `tests/NAME.rs` (`efind:lib`, `efind:window`,
#         `efind-mapreduce:lib`)
#
# Every patch must apply to SRC; the unmutated binaries must pass first.
# Slow (one rebuild per mutant), so it is not a CI step.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
src="$(cd "$here/../.." && pwd)"
work="${TMPDIR:-/tmp}/efind-mutants"
while getopts "s:w:" opt; do
    case "$opt" in
    s) src="$(cd "$OPTARG" && pwd)" ;;
    w) work="$OPTARG" ;;
    *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -eq 0 ]; then
    echo "usage: $0 [-s SRC] [-w WORK] BIN..." >&2
    exit 2
fi
mkdir -p "$work"
work="$(cd "$work" && pwd)"
case "$work/" in
"$src"/*) echo "WORK must lie outside SRC" >&2 && exit 2 ;;
esac

tree="$work/tree"
rm -rf "$tree"
mkdir -p "$tree"
tar -C "$src" --exclude=./.git --exclude=./target -cf - . | tar -C "$tree" -xf -
# Its own repository, so `git apply` resolves the patch paths against it.
git -C "$tree" init -q
export CARGO_TARGET_DIR="$work/target"

# The cargo arguments that select one BIN.
target() {
    case "$1" in
    *:lib) echo "-p ${1%%:*} --lib" ;;
    *:*) echo "-p ${1%%:*} --test ${1#*:}" ;;
    *) echo "-p efind-repro --test $1" ;;
    esac
}

# Prints the binaries that fail, space-separated; "build" if the tree does
# not compile. A binary that runs past 15 minutes counts as failing.
failing() {
    local bin
    for bin in "$@"; do
        # shellcheck disable=SC2046 # `target` prints separate arguments
        if ! (cd "$tree" && cargo test -q $(target "$bin") --no-run) >"$work/build.log" 2>&1; then
            echo build
            return
        fi
    done
    local failed=()
    for bin in "$@"; do
        # shellcheck disable=SC2046
        if ! (cd "$tree" && timeout 900 cargo test -q $(target "$bin")) >"$work/${bin/:/-}.log" 2>&1; then
            failed+=("$bin")
        fi
    done
    echo "${failed[*]:-}"
}

base="$(failing "$@")"
if [ -n "$base" ]; then
    echo "unmutated tree fails: $base (logs in $work)" >&2
    exit 1
fi

echo "| mutant | killed by |"
echo "|---|---|"
for patch in "$here"/*.patch; do
    name="$(basename "$patch" .patch)"
    (cd "$tree" && git apply "$patch")
    killers="$(failing "$@")"
    (cd "$tree" && git apply -R "$patch")
    echo "| $name | ${killers:-**survivor**} |"
done
