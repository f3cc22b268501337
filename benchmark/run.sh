#!/usr/bin/env bash
# Build the daemons and the benchmark, then run it.
#
#   benchmark/run.sh [--seed N] [--traced] [--smoke] [--repeat N]
#       every workload once (or N times); one result file per set in
#       benchmark/results/<sha>-seed<N>[-traced]-<k>.json
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one run of one workload; the last line of output is its JSON result
#   benchmark/run.sh compare SET_A SET_B
#       medians, quartiles and verdicts, SET = results/<sha>-seed<N>
#
# Build artifacts go to $CARGO_TARGET_DIR, <repo>/target by default.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

if [[ ! -f Cargo.toml || ! -d crates/service || ! -d crates/router ]]; then
    echo "run.sh: $root is not an sdlo checkout (no crates to build)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
[[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR"

# The daemons are built as the repository ships them, from its own manifest.
if [[ "${1:-}" != compare ]]; then
    cargo build --release --offline --locked -q -p sdlo-service -p sdlo-router >&2
fi
cargo build --release --offline --locked -q --manifest-path benchmark/Cargo.toml >&2

SDLO_BENCH_RUSTC="$(rustc --version)"
export SDLO_BENCH_RUSTC
bench="$CARGO_TARGET_DIR/release/sdlo-benchmark"
if [[ "${1:-}" = compare ]]; then
    exec "$bench" "$@"
fi
sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$bench" --bin-dir "$CARGO_TARGET_DIR/release" --results "$here/results" --sha "$sha" "$@"
