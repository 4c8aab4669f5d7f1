#!/usr/bin/env bash
# Compares two waldo-benchjson microbenchmark reports (BENCH_<n>.json)
# and fails when any benchmark present in both regressed its ns/op by
# more than the threshold (default 15%):
#
#   scripts/bench_regress.sh BENCH_7.baseline.json BENCH_7.json
#
# The gate fails loudly (exit 2) rather than passing vacuously when a
# report is missing, unreadable, or contains no measurements, and
# (exit 1) when a baseline measurement disappears from the candidate —
# a deleted benchmark silently shrinks coverage. Set
# BENCH_REGRESS_ALLOW_MISSING=1 to permit intentional removals.
#
# End-to-end latency is not gated here: that is the repo benchmark,
# `bash waldobench/run.sh` (BENCHMARK.json, waldobench/README.md).
#
# Usage: scripts/bench_regress.sh BASELINE.json CURRENT.json [threshold-pct]
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 BASELINE.json CURRENT.json [threshold-pct]" >&2
    exit 2
fi

BASE=$1
CURR=$2
THRESH=${3:-15}

for f in "$BASE" "$CURR"; do
    if [ ! -r "$f" ]; then
        echo "bench_regress: cannot read $f — no baseline means no gate; refusing to pass vacuously" >&2
        exit 2
    fi
done

# extract FILE: emit "name ns/op" pairs. The format is our own tool's
# stable MarshalIndent output, so line-oriented parsing is safe here.
extract() {
    awk '
        /"name":/ {
            gsub(/.*"name": *"|",?$/, "")
            name = $0
        }
        /"ns_per_op":/ {
            gsub(/.*"ns_per_op": *|,?$/, "")
            if (name != "") { print name, $0; name = "" }
        }
    ' "$1"
}

TMP_BASE=$(mktemp)
TMP_CURR=$(mktemp)
trap 'rm -f "$TMP_BASE" "$TMP_CURR"' EXIT

extract "$BASE" | sort > "$TMP_BASE"
extract "$CURR" | sort > "$TMP_CURR"

if [ ! -s "$TMP_BASE" ]; then
    echo "bench_regress: baseline $BASE yielded no measurements — refusing to pass vacuously" >&2
    exit 2
fi
if [ ! -s "$TMP_CURR" ]; then
    echo "bench_regress: candidate $CURR yielded no measurements" >&2
    exit 2
fi

MISSING=$(join -v1 <(cut -d' ' -f1 "$TMP_BASE") <(cut -d' ' -f1 "$TMP_CURR") || true)
if [ -n "$MISSING" ] && [ "${BENCH_REGRESS_ALLOW_MISSING:-0}" != "1" ]; then
    echo "bench_regress: measurements in baseline but missing from candidate:" >&2
    echo "$MISSING" | sed 's/^/  /' >&2
    echo "bench_regress: a disappearing benchmark shrinks gate coverage; set BENCH_REGRESS_ALLOW_MISSING=1 if intentional" >&2
    exit 1
fi

FAILED=$(join "$TMP_BASE" "$TMP_CURR" | awk -v t="$THRESH" '
    {
        base = $2; curr = $3
        if (base > 0) {
            pct = (curr - base) * 100.0 / base
            printf "  %-50s %12.0f -> %12.0f ns  (%+.1f%%)%s\n",
                $1, base, curr, pct, (pct > t ? "  REGRESSED" : "")
            if (pct > t) bad++
        }
    }
    END { exit bad > 0 ? 1 : 0 }
') && STATUS=0 || STATUS=1
echo "$FAILED"

if [ "$STATUS" -ne 0 ]; then
    echo "bench_regress: regression beyond ${THRESH}% detected" >&2
    exit 1
fi
echo "bench_regress: OK (threshold ${THRESH}%)"
