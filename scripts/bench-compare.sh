#!/usr/bin/env bash
# Compare a fresh bench run against the committed baselines and print
# per-bench ratios, flagging regressions — the one-command check for the
# performance gates DESIGN.md records.
#
# Usage:
#   scripts/bench-compare.sh [fresh.jsonl] [--threshold PCT] \
#     [--baseline FILE ...] [--filter REGEX]
#
# With no fresh file, runs `scripts/bench.sh compare-run` first (all
# criterion benches) and compares target/criterion/compare-run.jsonl.
# With no --baseline, every scripts/bench-baseline-*.jsonl is used.
# With --filter, only bench ids matching the extended regex (on both
# sides) are compared — e.g. --filter 'gemm/matmul_m1024' to gate one
# shape, or --filter '^scale/' for the refit-scale benches only.
# A bench regresses when its fresh median exceeds the baseline median by
# more than --threshold percent (default 25). Benchmarks present on only
# one side are reported but never fail the check. Exit code 1 iff any
# regression was found.
#
# The JSONL format is the criterion stub's:
#   {"id":"group/name","median_ns":N,"mean_ns":N,...}

set -euo pipefail
cd "$(dirname "$0")/.."

fresh=""
threshold=25
filter=""
baselines=()
while [ $# -gt 0 ]; do
  case "$1" in
    --threshold)
      threshold="$2"
      shift 2
      ;;
    --baseline)
      baselines+=("$2")
      shift 2
      ;;
    --filter)
      filter="$2"
      shift 2
      ;;
    *)
      fresh="$1"
      shift
      ;;
  esac
done

if [ -z "$fresh" ]; then
  echo "# no fresh run supplied; running scripts/bench.sh compare-run" >&2
  scripts/bench.sh compare-run
  fresh="target/criterion/compare-run.jsonl"
fi
if [ ! -f "$fresh" ]; then
  echo "error: fresh baseline $fresh not found" >&2
  exit 2
fi
if [ ${#baselines[@]} -eq 0 ]; then
  for f in scripts/bench-baseline-*.jsonl; do
    baselines+=("$f")
  done
fi

# Extract "id median_ns" pairs from the stub's fixed JSONL shape,
# keeping only ids matching --filter (matches everything when unset).
extract() {
  sed -n 's/.*"id":"\([^"]*\)".*"median_ns":\([0-9.]*\).*/\1 \2/p' "$@" |
    awk -v re="$filter" 're == "" || $1 ~ re'
}

extract "${baselines[@]}" | sort >/tmp/bench-compare-base.$$
extract "$fresh" | sort >/tmp/bench-compare-fresh.$$
trap 'rm -f /tmp/bench-compare-base.$$ /tmp/bench-compare-fresh.$$' EXIT

status=0
join /tmp/bench-compare-base.$$ /tmp/bench-compare-fresh.$$ |
  awk -v thr="$threshold" '
    BEGIN {
      printf "%-44s %12s %12s %8s\n", "bench", "base_ms", "fresh_ms", "ratio"
      worst = 0
    }
    {
      ratio = $3 / $2
      flag = ""
      if (ratio > 1 + thr / 100) { flag = "  REGRESSION"; worst++ }
      printf "%-44s %12.3f %12.3f %7.2fx%s\n", $1, $2 / 1e6, $3 / 1e6, ratio, flag
    }
    END {
      if (worst > 0) {
        printf "\n%d bench(es) regressed beyond +%s%%\n", worst, thr
        exit 1
      }
      printf "\nno regressions beyond +%s%%\n", thr
    }
  ' || status=1

# Surface one-sided ids (renamed/new/removed benches) without failing.
only_base=$(join -v1 /tmp/bench-compare-base.$$ /tmp/bench-compare-fresh.$$ | awk '{print $1}')
only_fresh=$(join -v2 /tmp/bench-compare-base.$$ /tmp/bench-compare-fresh.$$ | awk '{print $1}')
[ -n "$only_base" ] && printf "baseline-only ids (not run fresh):\n%s\n" "$only_base" >&2
[ -n "$only_fresh" ] && printf "fresh-only ids (no baseline yet):\n%s\n" "$only_fresh" >&2

exit "$status"
