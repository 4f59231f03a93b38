#!/usr/bin/env bash
# Checks every experiment driver (build/bench/bench_e*) against its
# recorded stdout in golden/<driver>.txt, under each of
# GELC_NUM_THREADS=1/4 x GELC_SIMD=0/default. The drivers' tables must be
# byte-identical across thread counts and SIMD tiers, and must not move
# when code changes underneath them; a driver that exits non-zero (a paper
# claim violated) fails the check too. EXPERIMENTS.md gives the command
# that re-records golden/ after an intended change to a table.
#
# Usage: scripts/check_goldens.sh   (after building into build/)
set -euo pipefail

cd "$(dirname "$0")/.."

drivers=(build/bench/bench_e*)
if [[ ! -x "${drivers[0]}" ]]; then
  echo "check_goldens.sh: no experiment drivers under build/bench" >&2
  exit 1
fi

for golden in golden/bench_e*.txt; do
  name="${golden##*/}"
  if [[ ! -x "build/bench/${name%.txt}" ]]; then
    echo "check_goldens.sh: $golden has no driver" >&2
    exit 1
  fi
done

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
failed=0
for bin in "${drivers[@]}"; do
  name="${bin##*/}"
  golden="golden/$name.txt"
  if [[ ! -f "$golden" ]]; then
    echo "FAIL $name: no $golden" >&2
    failed=1
    continue
  fi
  for threads in 1 4; do
    for simd in 0 default; do
      status=0
      if [[ "$simd" == "0" ]]; then
        GELC_NUM_THREADS=$threads GELC_SIMD=0 "$bin" > "$out" || status=$?
      else
        GELC_NUM_THREADS=$threads "$bin" > "$out" || status=$?
      fi
      if [[ "$status" != "0" ]]; then
        echo "FAIL $name (threads=$threads simd=$simd): exit $status" >&2
        failed=1
      elif ! diff -u "$golden" "$out" >&2; then
        echo "FAIL $name (threads=$threads simd=$simd): stdout differs" >&2
        failed=1
      fi
    done
  done
done

if [[ "$failed" != "0" ]]; then
  echo "check_goldens.sh: experiment drivers drifted from golden/" >&2
  exit 1
fi
echo "check_goldens.sh: ${#drivers[@]} drivers match golden/" \
  "at threads 1/4 x SIMD 0/default" >&2
