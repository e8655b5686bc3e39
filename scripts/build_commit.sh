#!/usr/bin/env bash
# Builds one commit's release binaries apart from the working tree.
#
#   scripts/build_commit.sh REV DIR
#
# Extracts REV with `git archive` into DIR/src-SHA and builds its
# `ubrc-benchmark` and `experiments` there with target directory
# DIR/target-SHA, so each commit's `experiments` sits beside its
# `ubrc-benchmark`. An existing source tree is reused, so a second call
# only checks that the build is fresh. Prints the release directory;
# cargo's output goes to stderr. scripts/bench_ab.sh and
# scripts/tables_ab.sh build both of their sides with it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 2 ]; then
  echo "usage: scripts/build_commit.sh REV DIR" >&2
  exit 2
fi
sha=$(git rev-parse --verify "$1^{commit}")
mkdir -p "$2"
dir=$(cd "$2" && pwd)
src=$dir/src-$sha
if [ ! -d "$src" ]; then
  mkdir -p "$src"
  git archive "$sha" | tar -x -C "$src"
fi
(cd "$src" && CARGO_TARGET_DIR=$dir/target-$sha \
  cargo build --release --quiet -p ubrc --bin ubrc-benchmark \
    -p ubrc-bench --bin experiments 1>&2)
echo "$dir/target-$sha/release"
