#!/usr/bin/env bash
# Golden-snapshot maintenance for tests/golden_snapshots.txt and
# tests/program_digests.txt.
#
# Default: verify the current simulator against the committed goldens,
# and every bundled program against its committed digest, and REFUSE to
# overwrite anything — if rows differ, the diff is shown and the script
# exits non-zero. Golden rows are bit-exact cycle counts; a diff means a
# semantic change to the timing model, which must be a deliberate
# decision, not a side effect of a refactor. Digest rows pin each
# assembled kernel and synthetic program; a diff means a generator or
# the assembler changed what a program contains.
#
# To accept a deliberate change:   scripts/golden_update.sh --bless
# (re-captures both files, then shows `git diff` of them for review).
#
# To regenerate only the rows of one config block (e.g. a new trailing
# block, or one whose model deliberately changed) while every other row
# is carried over byte-identical:
#
#   scripts/golden_update.sh --only smt2
#   scripts/golden_update.sh --only minload,smt2   # comma-separated
#
# The prefix matches the row's config column. It applies to the golden
# snapshots only; the digest table is verified or blessed as a whole.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden_snapshots.txt
DIGESTS=tests/program_digests.txt
BLESS=0
ONLY=
case "${1:-}" in
    --bless) BLESS=1 ;;
    --only)
        ONLY="${2:-}"
        if [[ -z "$ONLY" ]]; then
            echo "usage: $0 --only <config-prefix>[,<config-prefix>...]" >&2
            exit 2
        fi
        ;;
    "") ;;
    *)
        echo "usage: $0 [--bless | --only <config-prefix>[,...]]" >&2
        exit 2
        ;;
esac

if [[ -n "$ONLY" ]]; then
    echo "== re-capturing rows with config prefix(es) '$ONLY' (UBRC_BLESS_ONLY)"
    UBRC_BLESS_ONLY="$ONLY" cargo test --release --test golden_snapshots -- --nocapture
    echo "== resulting change (review before committing):"
    git --no-pager diff --stat -- "$GOLDEN" || true
    git --no-pager diff -- "$GOLDEN" | head -80 || true
    echo "blessed subset. Re-run '$0' (no flags) to confirm determinism."
    exit 0
fi

if [[ "$BLESS" == 1 ]]; then
    echo "== re-capturing $GOLDEN and $DIGESTS (UBRC_BLESS=1)"
    UBRC_BLESS=1 cargo test --release --test golden_snapshots --test program_digests \
        -- --nocapture
    echo "== resulting change (review before committing):"
    git --no-pager diff --stat -- "$GOLDEN" "$DIGESTS" || true
    git --no-pager diff -- "$GOLDEN" "$DIGESTS" | head -80 || true
    echo "blessed. Re-run '$0' (no flags) to confirm determinism."
    exit 0
fi

echo "== verifying simulator output against $GOLDEN and programs against $DIGESTS (no overwrite)"
if cargo test --release --test golden_snapshots --test program_digests; then
    echo "goldens and digests are up to date."
else
    cat >&2 <<EOF

Golden snapshots or program digests DIFFER from the current output.
Refusing to overwrite $GOLDEN or $DIGESTS.

If this change is intentional (a deliberate timing-model change, a new
config row, a changed kernel generator), re-run with:   $0 --bless
and review the diff it prints before committing.
EOF
    exit 1
fi
