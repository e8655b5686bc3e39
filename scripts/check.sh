#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 build/test pass.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== cargo doc --no-deps (warnings denied)"
# Vendored third_party crates are workspace members but not ours to fix.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude proptest --exclude rand

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== workspace tests: every crate's unit, integration and doc tests"
# Tier-1 runs only the root package. This step also runs every crate's
# own suites: the SMT, wrong-path, fault-injection, recovery, runner,
# ISA and property tests, and the ConfigError rejection tests.
cargo test --workspace --release -q

echo "== oracle-on smoke: Tiny suite with full runtime checking"
cargo run --release -q -p ubrc-bench --bin experiments -- \
  charstats --scale tiny --check --timeout 300 >/dev/null

echo "== SMT smoke: 2-thread Tiny kernel pairs, oracle + invariants on"
cargo run --release -q -p ubrc-bench --bin experiments -- \
  smt --scale tiny --check --timeout 300 >/dev/null

echo "== SMT smoke: 4-thread Tiny kernel quads, oracle + invariants on"
cargo run --release -q -p ubrc-bench --bin experiments -- \
  smt4 --scale tiny --check --timeout 300 >/dev/null

echo "== recovery smoke: Tiny suite, parity + injected faults, oracle on"
# The soft experiment sweeps every recoverable fault class with full
# checking: any oracle divergence or unbalanced pin/fill accounting
# fails the run. (The workspace step's recovery tests assert the
# counts are non-zero: faults actually landed and were repaired.)
cargo run --release -q -p ubrc-bench --bin experiments -- \
  soft --scale tiny --check --timeout 300 >/dev/null

echo "== dynamic-partitioning smoke: Tiny quads, DynamicCap, oracle on"
# The ucp experiment runs the shared/occupancy-cap/dynamic-cap matrix;
# with --check the invariant checker verifies per-thread containment
# against the epoch-varying caps and cap-sum conservation every cycle.
cargo run --release -q -p ubrc-bench --bin experiments -- \
  ucp --scale tiny --check --timeout 300 >/dev/null

echo "== dynamic-way smoke: Tiny quads, DynamicWay + adaptive epochs, oracle on"
# The dynway experiment runs the way-partition/dynamic-cap/dynamic-way
# matrix (fixed and adaptive epochs) at the 64x8 geometry; with --check
# the invariant checker verifies way containment against the
# epoch-varying way ownership and way-sum conservation every cycle.
cargo run --release -q -p ubrc-bench --bin experiments -- \
  dynway --scale tiny --check --timeout 300 >/dev/null

echo "== runner ordering: serial and parallel runs print the same tables"
# Every experiment makes one run_cells call whose results come back in
# cell order, so one worker and two workers must print byte-identical
# tables; only the per-experiment wall-clock in each header differs.
serial_out=$(mktemp)
parallel_out=$(mktemp)
trap 'rm -f "$serial_out" "$parallel_out"' EXIT
UBRC_BENCH_WORKERS=1 cargo run --release -q -p ubrc-bench --bin experiments -- \
  all --scale tiny \
  | sed -E 's/, [0-9.]+s\]/]/' >"$serial_out"
UBRC_BENCH_WORKERS=2 cargo run --release -q -p ubrc-bench --bin experiments -- \
  all --scale tiny \
  | sed -E 's/, [0-9.]+s\]/]/' >"$parallel_out"
diff "$serial_out" "$parallel_out"

echo "all checks passed"
