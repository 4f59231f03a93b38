#!/usr/bin/env bash
# Regenerates the checked-in BENCH_p*.json perf-bench results at the repo
# root: builds the tree, then runs every google-benchmark binary
# (bench/bench_p*) with --benchmark_format=json.
#
# Each bench runs with GELC_METRICS=1 and GELC_METRICS_OUT pointed at a
# temp file; the obs exit exporter dumps the whole run's metrics snapshot
# there (single-line JSON, see src/obs/snapshot.h), which is spliced into
# the regenerated BENCH file as a top-level "gelc_metrics" key alongside
# google-benchmark's own "context"/"benchmarks". A "gelc_context" key
# records the git SHA (with a -dirty suffix when the tree has local
# edits) and the resolved SIMD tier, so diffs across the BENCH trajectory
# are attributable to a commit and an instruction set.
#
# After regenerating a BENCH file, the previously checked-in version (git
# HEAD) is compared with `gelc_stats --diff` — informational by default,
# because bench iteration counts scale with min_time and machine load;
# export GELC_BENCH_DIFF_STRICT=1 to fail the run on a deterministic
# counter regression past 5%. The parallel.* scheduling counters are
# always excluded (they track the pool schedule, not the workload).
#
# Usage: scripts/run_benches.sh [min_time] [filter-regex] [repetitions]
#   min_time      --benchmark_min_time per bench (bare seconds; the
#                 bundled benchmark version rejects an 's' suffix).
#                 Default 0.05 — enough for stable medians on the sizes
#                 the benches sweep without multi-hour runs.
#   filter-regex  only regenerate BENCH files for bench names matching
#                 this shell glob against the binary name, e.g. 'p8*'.
#   repetitions   when > 1, run each benchmark this many times and record
#                 only the mean/median/stddev aggregates in the JSON —
#                 use for comparison benches (e.g. p9's batched vs
#                 per-graph ratio) where a single run on a loaded box is
#                 too noisy to check in. Default 1 (raw single runs).
set -euo pipefail

cd "$(dirname "$0")/.."
min_time="${1:-0.05}"
filter="${2:-p*}"
reps="${3:-1}"
rep_flags=()
if [ "$reps" -gt 1 ]; then
  rep_flags=(--benchmark_repetitions="$reps"
             --benchmark_report_aggregates_only=true)
fi

cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)" >/dev/null

git_sha="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
  git_sha="${git_sha}-dirty"
fi
simd_tier="$(./build/tools/gelc_stats --simd-tier)"

for bin in build/bench/bench_p*; do
  name="${bin##*/bench_}"                  # e.g. p8_spmm
  short="${name%%_*}"                      # e.g. p8
  case "$name" in
    ${filter}) ;;
    *) continue ;;
  esac
  echo "== bench_${name} -> BENCH_${short}.json" >&2
  snap="$(mktemp)"
  raw="$(mktemp)"
  GELC_METRICS=1 GELC_METRICS_OUT="$snap" \
    "$bin" --benchmark_format=json --benchmark_min_time="$min_time" \
    ${rep_flags[@]+"${rep_flags[@]}"} \
    > "$raw"
  # The exporter only runs once something touched the metrics registry;
  # a bench whose layer records no metric gets an empty snapshot.
  [ -s "$snap" ] ||
    echo '{"counters": {}, "gauges": {}, "histograms": {}}' > "$snap"
  # The benchmark JSON opens with a bare '{' on its first line; splice
  # the single-line snapshot and the provenance block in as the first
  # top-level keys.
  old="$(mktemp)"
  git show "HEAD:BENCH_${short}.json" > "$old" 2>/dev/null || : > "$old"
  {
    echo "{"
    printf '  "gelc_context": {"git_sha": "%s", "simd_tier": "%s"},\n' \
      "$git_sha" "$simd_tier"
    printf '  "gelc_metrics": %s,\n' "$(cat "$snap")"
    tail -n +2 "$raw"
  } > "BENCH_${short}.json"
  # Compare against the checked-in trajectory point. Informational unless
  # GELC_BENCH_DIFF_STRICT=1: counters scale with bench iteration counts,
  # which vary with min_time and machine load.
  if [ -s "$old" ]; then
    if ! ./build/tools/gelc_stats --diff "$old" "BENCH_${short}.json" \
        --threshold 0.05 --ignore parallel. >&2; then
      if [ "${GELC_BENCH_DIFF_STRICT:-0}" = "1" ]; then
        echo "run_benches.sh: BENCH_${short}.json regressed vs HEAD" >&2
        rm -f "$snap" "$raw" "$old"
        exit 1
      fi
      echo "run_benches.sh: note: BENCH_${short}.json counters grew vs" \
        "HEAD (informational; set GELC_BENCH_DIFF_STRICT=1 to fail)" >&2
    fi
  fi
  rm -f "$snap" "$raw" "$old"
done
