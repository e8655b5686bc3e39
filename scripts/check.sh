#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 build/test pass.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Each step's wall time and the total come from bash's SECONDS, so the
# gate's timings are read off its own output.
step_name=""
step_start=0
step() {
  if [ -n "$step_name" ]; then
    echo "-- $step_name: $((SECONDS - step_start))s"
  fi
  step_name=$1
  step_start=$SECONDS
  if [ -n "$step_name" ]; then
    echo "== $step_name"
  fi
}

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets also lints the tests, benches and examples.
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc --no-deps (warnings denied)"
# Vendored third_party crates are workspace members but not ours to fix.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude proptest --exclude rand

step "build: release binaries and every test binary"
# Compiling here, in a step of its own, leaves the steps below timing
# their tests and runs rather than the build they would otherwise start.
cargo build --release --workspace --bins
cargo test --workspace --release --no-run -q

step "tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

step "workspace tests: every crate's unit, integration and doc tests"
# Tier-1 runs only the root package. This step also runs every crate's
# own suites: the SMT, wrong-path, fault-injection, recovery, runner,
# ISA and property tests, and the ConfigError rejection tests.
cargo test --workspace --release -q

step "every experiment, serial, parallel and checked: the same tables"
# Every experiment makes one run_cells call whose results come back in
# cell order, so one worker and two workers must print byte-identical
# tables; only the per-experiment wall-clock in each header differs.
# Checking (oracle, invariants, watchdog) only observes, so the checked
# run must print the same tables too. It runs every experiment under
# the lockstep oracle and the per-cycle invariant checker: the SMT
# pairs and quads, the fault-injected parity/recovery sweep (soft), the
# dynamic partitions (ucp, dynway) and the shared register pool
# (fetchpol) included, and any divergence or violation fails the run.
serial_out=$(mktemp)
parallel_out=$(mktemp)
checked_out=$(mktemp)
trap 'rm -f "$serial_out" "$parallel_out" "$checked_out"' EXIT
UBRC_BENCH_WORKERS=1 cargo run --release -q -p ubrc-bench --bin experiments -- \
  all --scale tiny \
  | sed -E 's/, [0-9.]+s\]/]/' >"$serial_out"
UBRC_BENCH_WORKERS=2 cargo run --release -q -p ubrc-bench --bin experiments -- \
  all --scale tiny \
  | sed -E 's/, [0-9.]+s\]/]/' >"$parallel_out"
cargo run --release -q -p ubrc-bench --bin experiments -- \
  all --scale tiny --check --timeout 300 \
  | sed -E 's/, [0-9.]+s\]/]/' >"$checked_out"
diff "$serial_out" "$parallel_out"
diff "$serial_out" "$checked_out"

step ""
echo "all checks passed in ${SECONDS}s"
