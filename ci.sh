#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, tests, self-lint.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Vendored dependency shims (vendor/) mirror external crates' APIs, so they
# are exempt from the workspace's clippy bar.
echo "==> cargo clippy -D warnings (workspace crates, vendored shims excluded)"
cargo clippy --workspace --exclude proptest --exclude criterion --exclude rayon \
    --all-targets -- -D warnings

# Public docs must build without warnings: a broken or private intra-doc
# link fails here.
echo "==> cargo doc -D warnings (workspace crates, vendored shims excluded)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude proptest --exclude criterion --exclude rayon

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
cargo test --workspace -q

# Self-lint: every builtin workload must pass the static analyzer with zero
# error-severity diagnostics (`tables lint` exits 1 otherwise). The JSON
# report lands in results/lint.json.
echo "==> tables lint --all-builtins"
cargo run --release -q -p sdlo-bench --bin tables -- lint --all-builtins --json

# Verified auto-apply: applying every *proven* fix-it must converge and the
# rewritten builtins must re-lint with zero errors.
echo "==> tables lint --apply --all-builtins"
cargo run --release -q -p sdlo-bench --bin tables -- lint --apply --all-builtins > /dev/null

# Dependence graphs of every builtin, archived as results/deps.json.
echo "==> tables deps --all-builtins"
cargo run --release -q -p sdlo-bench --bin tables -- deps --all-builtins --json > /dev/null

# Phase profiling: every builtin's model build must stay inside a generous
# wall-time budget (`tables profile` exits 1 otherwise); the Chrome trace
# lands in results/ for inspection.
echo "==> tables profile --all-builtins"
cargo run --release -q -p sdlo-bench --bin tables -- profile --all-builtins \
    --trace-out results/profile-trace.json --json --budget-ms 2000

# Disabled-tracing overhead: a span in the hot path must cost nanoseconds
# when no collector is installed (one relaxed atomic load). Exits 1 over the
# gate; the measurement is printed, not written, because it depends on the
# host and a tracked file would leave every run's tree dirty.
echo "==> tables trace-overhead"
cargo run --release -q -p sdlo-bench --bin tables -- trace-overhead --max-ns 150

# Wire compatibility: the golden reply-shape tests for every op, including
# the deadline gate — an advise with a 1 ms deadline over the largest
# builtin's full tile grid must come back `completed:false` within budget.
echo "==> wire-compat tests (release)"
cargo test --release -q -p sdlo-service --test wire_compat

# Benchmark smoke: every workload for 2 s on one fleet (about 25 s). The
# benchmark builds the daemons and itself with `--locked`, so this also
# fails when the benchmark stops building; it exits non-zero unless every
# answer matched its in-process oracle and no request failed.
echo "==> benchmark smoke (run.sh --smoke)"
benchmark/run.sh --smoke

# The search's evaluator: the compiled tape must match the tree walk at
# every grid point and evaluate a point at least 20x faster (the bench
# exits 1 otherwise), which fails if its runs leave i64 for the i128
# fallback; the measurement lands in results/search.json.
echo "==> search bench (tape vs tree walk, >=20x)"
cargo bench -q -p sdlo-bench --bench search

# Revise sessions: revising a live model (one run of its compiled tape per
# point) through a 64-point tile sweep must be at least 5x cheaper than
# building a fresh session (compiling the tape) per point, with
# byte-identical miss counts (the bench exits 1 otherwise). The measurement
# is archived in results/revise.json.
echo "==> revise bench (warm revise vs cold rebuild, >=5x)"
cargo bench -q -p sdlo-bench --bench revise

# Fleet smoke: two backends sharing one --cache-dir behind sdlo-router.
# The fleet trace smoke sends a few predicts through the router; then the
# warm-restart gate restarts a backend on the same cache directory and
# asserts it serves a previously-seen shape with zero model builds
# (sdlo_models_built_total 0). Failover under load, and the overload and
# counter checks, are tier-1 tests (crates/router/tests/failover.rs and
# crates/service/tests/loopback.rs).
echo "==> fleet smoke (2 backends behind sdlo-router)"
FLEET_CACHE=$(mktemp -d)
B1_PORT=$((20000 + $$ % 10000))
B2_PORT=$((B1_PORT + 1))
RT_PORT=$((B1_PORT + 2))
FLEET_PIDS=()
cleanup_fleet() {
    kill "${FLEET_PIDS[@]}" 2>/dev/null || true
    rm -rf "$FLEET_CACHE"
}
trap cleanup_fleet EXIT

# Bash-only TCP helpers (no nc dependency).
wait_port() { # port
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then return 0; fi
        sleep 0.1
    done
    echo "error: 127.0.0.1:$1 never started listening" >&2
    return 1
}
send_op() { # port line -> first reply line on stdout
    exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf '%s\n' "$2" >&3
    local reply
    IFS= read -r reply <&3 || true
    exec 3>&- 3<&-
    printf '%s\n' "$reply"
}

# SDLO_TRACE=1 installs each process's flight recorder as its trace
# collector, so router-minted trace ids span all three span trees.
SDLO_TRACE=1 target/release/sdlo-service --addr "127.0.0.1:$B1_PORT" --cache-dir "$FLEET_CACHE" \
    > /dev/null & FLEET_PIDS+=($!)
SDLO_TRACE=1 target/release/sdlo-service --addr "127.0.0.1:$B2_PORT" --cache-dir "$FLEET_CACHE" \
    > /dev/null & FLEET_PIDS+=($!)
wait_port "$B1_PORT"
wait_port "$B2_PORT"
SDLO_TRACE=1 target/release/sdlo-router --addr "127.0.0.1:$RT_PORT" \
    --backend "127.0.0.1:$B1_PORT" --backend "127.0.0.1:$B2_PORT" \
    --health-interval-ms 100 > /dev/null & FLEET_PIDS+=($!)
wait_port "$RT_PORT"

# Fleet trace gate: send a few distinct shapes through the router, dump
# every process's flight recorder, and merge the Chrome traces into one
# cross-process timeline. `--require-cross-process` exits 1 unless at
# least one trace_id appears in more than one process's dump.
echo "==> fleet trace smoke (trace_dump from router + both backends, trace-merge)"
for n in 48 56 64; do
    send_op "$RT_PORT" "{\"op\":\"predict\",\"request_id\":\"trace-$n\",\"program\":\"matmul\",\"bindings\":{\"Ni\":$n,\"Nj\":$n,\"Nk\":$n},\"cache\":1024}" > /dev/null
done
send_op "$B1_PORT" '{"op":"debug","what":"trace_dump"}' > results/trace-b1.json
send_op "$B2_PORT" '{"op":"debug","what":"trace_dump"}' > results/trace-b2.json
send_op "$RT_PORT" '{"op":"debug","what":"trace_dump"}' > results/trace-router.json
cargo run --release -q -p sdlo-bench --bin tables -- trace-merge \
    results/trace-router.json results/trace-b1.json results/trace-b2.json \
    --out results/fleet-trace.json --json --require-cross-process

echo "==> warm-restart gate (models served from disk, zero rebuilds)"
send_op "$RT_PORT" '{"op":"shutdown"}' > /dev/null
send_op "$B1_PORT" '{"op":"shutdown"}' > /dev/null
send_op "$B2_PORT" '{"op":"shutdown"}' > /dev/null
sleep 0.5
target/release/sdlo-service --addr "127.0.0.1:$B1_PORT" --cache-dir "$FLEET_CACHE" \
    > /dev/null & FLEET_PIDS+=($!)
wait_port "$B1_PORT"
WARM_REPLY=$(send_op "$B1_PORT" '{"op":"predict","request_id":"warm","program":"matmul","bindings":{"Ni":64,"Nj":64,"Nk":64},"cache":512}')
case "$WARM_REPLY" in
    *'"ok":true'*) ;;
    *) echo "error: warm predict failed: $WARM_REPLY" >&2; exit 1 ;;
esac
exec 3<>"/dev/tcp/127.0.0.1/$B1_PORT"
printf '{"op":"metrics","raw":true}\n' >&3
WARM_METRICS=$(cat <&3)
exec 3>&- 3<&-
grep -q '^sdlo_models_built_total 0$' <<< "$WARM_METRICS" || {
    echo "error: warm-restarted backend rebuilt models:" >&2
    grep 'sdlo_models_built_total\|sdlo_model_cache' <<< "$WARM_METRICS" >&2
    exit 1
}
grep -q '^sdlo_model_cache_disk_hits_total [1-9]' <<< "$WARM_METRICS" || {
    echo "error: warm restart did not hit the disk cache" >&2
    exit 1
}
send_op "$B1_PORT" '{"op":"shutdown"}' > /dev/null

echo "CI green."
