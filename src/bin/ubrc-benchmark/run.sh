#!/usr/bin/env bash
# Builds the simulator's `experiments` binary and this benchmark from
# source, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash src/bin/ubrc-benchmark/run.sh --workload suite-cached --seed 1 --seconds 10 --trace 0
#
# The benchmark is the `ubrc-benchmark` bin of the root `ubrc` package,
# so one build of the root workspace makes both binaries with the
# repository's own release profile and lock file. They land in one
# target directory (CARGO_TARGET_DIR, default target), where the
# benchmark finds `experiments` beside its own executable. Cargo's
# output goes to stderr; stdout carries only the benchmark's report.
set -euo pipefail

cargo build --release --quiet --manifest-path Cargo.toml \
    -p ubrc --bin ubrc-benchmark -p ubrc-bench --bin experiments 1>&2
exec "${CARGO_TARGET_DIR:-target}/release/ubrc-benchmark" "$@"
