#!/usr/bin/env bash
# Interleaved A/B runs of the layered benchmark between two commits.
#
#   scripts/bench_ab.sh PARENT CHANGE [PAIRS] [DIR]
#
# Builds each commit once with scripts/build_commit.sh, from `git
# archive` into its own source directory and target directory under DIR
# (default: a new temporary directory), so each side's `experiments`
# sits beside its `ubrc-benchmark`. Then, for seeds 1..PAIRS (default
# 10) and every workload BENCHMARK.json lists, it runs
#
#   ubrc-benchmark --workload W --seed i --seconds 10 --trace 0
#
# on both sides, the parent first on odd seeds and the change first on
# even ones. `--json` is not written with `--workload`, so the script
# builds one `compare` document per run from that run's `metric` lines,
# then runs the change's `ubrc-benchmark compare` over each side's
# documents in seed order and exits with its status. Every run's output
# stays in DIR/runs, its document in DIR/docs, and a run whose result
# line does not read `"failed":0` is reported on stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: scripts/bench_ab.sh PARENT CHANGE [PAIRS] [DIR]" >&2
  exit 2
fi
pairs=${3:-10}
dir=${4:-$(mktemp -d)}
mkdir -p "$dir/runs" "$dir/docs"
dir=$(cd "$dir" && pwd)

base_bin=$(scripts/build_commit.sh "$1" "$dir")
new_bin=$(scripts/build_commit.sh "$2" "$dir")
workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)

# Runs side $1 (base or new) of workload $2 at seed $3, keeping its
# output and turning its metric lines into a compare document.
run() {
  local side=$1 w=$2 seed=$3 bin
  if [ "$side" = base ]; then bin=$base_bin; else bin=$new_bin; fi
  local out=$dir/runs/$side-$w-$seed.txt
  "$bin/ubrc-benchmark" --workload "$w" --seed "$seed" --seconds 10 --trace 0 >"$out"
  if ! tail -n 1 "$out" | grep -q '"failed":0[,}]'; then
    echo "bench_ab: $side $w seed $seed failed: $(tail -n 1 "$out")" >&2
  fi
  awk -v w="$w" -v seed="$seed" '
    $1 == "metric" && $2 == w && $4 ~ /^-?[0-9]+(\.[0-9]+)?$/ {
      m = m (m == "" ? "" : ",") "{\"name\":\"" $3 "\",\"value\":" $4 "}"
    }
    END {
      printf "{\"schema\":\"ubrc-benchmark/1\",\"seed\":%d,\"seconds\":10,", seed
      printf "\"workloads\":[{\"name\":\"%s\",\"metrics\":[%s]}]}\n", w, m
    }' "$out" >"$dir/docs/$side-$(printf %03d "$seed")-$w.json"
  echo "$side $w seed $seed: $(grep -c '^metric' "$out") metrics" >&2
}

for seed in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if [ $((seed % 2)) -eq 1 ]; then
      run base "$w" "$seed"
      run new "$w" "$seed"
    else
      run new "$w" "$seed"
      run base "$w" "$seed"
    fi
  done
done

# The zero-padded seed in each name keeps the globs in seed order.
exec "$new_bin/ubrc-benchmark" compare "$dir"/docs/base-*.json -- "$dir"/docs/new-*.json
