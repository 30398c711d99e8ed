#!/usr/bin/env bash
# Prints the simulated reports that tests/golden/run_tiny.json pins, one
# `run --format json` line each: Base SpMM and SDDMM on all ten graphs at
# `tiny` scale, then three plan variants of both kernels on MYC and DEL
# (rMatrix bypass, rMatrix victim cache with row panels of 4, and
# scheduling barriers). Barriers sit between column panels and a Base plan
# has one, so the barrier variant also takes column panels of 32. JSON
# reports carry no host time, so the output is deterministic byte for
# byte.
#
# Usage: scripts/golden_runs.sh <path to spade-cli>
set -euo pipefail
cli=$1
common=(--scale tiny --k 32 --pes 8 --format json)
for graph in asi liv ork pap del kro myc pac roa ser; do
  for kernel in spmm sddmm; do
    "$cli" run --benchmark "$graph" --kernel "$kernel" "${common[@]}"
  done
done
for graph in myc del; do
  for kernel in spmm sddmm; do
    for variant in "--rmatrix bypass" "--rmatrix victim --rp 4" "--barriers --cp 32"; do
      # shellcheck disable=SC2086 # each variant is a list of flags
      "$cli" run --benchmark "$graph" --kernel "$kernel" "${common[@]}" $variant
    done
  done
done
