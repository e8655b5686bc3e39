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
# fails the run. The recovery test suite then asserts the counts are
# non-zero (faults actually landed and were repaired).
cargo run --release -q -p ubrc-bench --bin experiments -- \
  soft --scale tiny --check --timeout 300 >/dev/null
cargo test --release -q -p ubrc-sim --test recovery

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

echo "== throughput smoke: Tiny trajectory vs checked-in baseline (±30%)"
# Gross perf regressions (an accidental re-virtualization, a debug
# assert in the hot loop) surface here without flaking on machine
# noise: the tolerance is deliberately generous and single-threaded
# runs keep the number comparable across runs.
UBRC_BENCH_WORKERS=1 cargo run --release -q -p ubrc-bench --bin experiments -- \
  --json /tmp/ubrc_tiny_smoke.json --scale tiny >/dev/null
python3 - <<'PYEOF'
import json, pathlib
measured = json.load(open("/tmp/ubrc_tiny_smoke.json"))["total_sim_insts_per_sec"]
baseline = float(pathlib.Path("scripts/tiny_throughput_baseline.txt").read_text())
delta = 100.0 * (measured / baseline - 1.0)
print(f"   tiny throughput: {measured:,.0f} insts/s vs baseline {baseline:,.0f} ({delta:+.1f}%)")
if abs(delta) > 30.0:
    raise SystemExit(f"throughput drifted {delta:+.1f}% from scripts/tiny_throughput_baseline.txt "
                     "(tolerance ±30%); investigate or update the baseline with this machine's number")
PYEOF

echo "== ConfigError rejection tests"
cargo test --release -q -p ubrc-sim --lib -- reject

echo "== property tests: partitioning + protection invariants"
cargo test --release -q -p ubrc-core --test robustness_props

echo "all checks passed"
