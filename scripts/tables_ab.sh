#!/usr/bin/env bash
# Checks that two commits print the same experiment tables.
#
#   scripts/tables_ab.sh PARENT CHANGE [DIR]
#
# Builds each commit with scripts/build_commit.sh under DIR (default: a
# new temporary directory; a DIR that scripts/bench_ab.sh used reuses
# its builds). On each side it then runs `experiments all` at
# `--scale tiny`, at `--scale tiny --check --timeout 300` and at
# `--scale default`, strips the `[scale=…, N.Ns]` header timings as
# scripts/check.sh does, and prints the diff of each pair of tables.
# Exits 1 if any diff is non-empty, and with the failing run's status if
# an experiment fails. The tables stay in DIR/tables.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: scripts/tables_ab.sh PARENT CHANGE [DIR]" >&2
  exit 2
fi
dir=${3:-$(mktemp -d)}
mkdir -p "$dir/tables"
dir=$(cd "$dir" && pwd)

base_bin=$(scripts/build_commit.sh "$1" "$dir")
new_bin=$(scripts/build_commit.sh "$2" "$dir")

status=0
for run in "tiny:--scale tiny" \
  "tiny-check:--scale tiny --check --timeout 300" \
  "default:--scale default"; do
  name=${run%%:*}
  read -ra args <<<"${run#*:}"
  for side in base new; do
    if [ "$side" = base ]; then bin=$base_bin; else bin=$new_bin; fi
    # From DIR, so nothing an experiment writes lands in the checkout.
    (cd "$dir" && "$bin/experiments" all "${args[@]}") \
      | sed -E 's/, [0-9.]+s\]/]/' >"$dir/tables/$side-$name.txt"
  done
  if diff "$dir/tables/base-$name.txt" "$dir/tables/new-$name.txt"; then
    echo "tables_ab: $name: identical" >&2
  else
    echo "tables_ab: $name: the tables differ" >&2
    status=1
  fi
done
exit $status
