#!/usr/bin/env bash
# Full local gate: formatting, lints and the test suite.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
# Dead intra-doc links (a public item linking a private one) and other
# rustdoc warnings fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test -q"
cargo test --workspace -q

echo "== benchmark self-test (perfbench, release)"
# `cargo test --release` of the perfbench crate (a workspace of its own
# that links spade-bench's public API), then a one-second smoke of every
# workload, traced and untraced; the serve smoke byte-checks every result
# the daemon stores, and its key, against an in-process simulation.
python3 perfbench/run.py --selftest

echo "== fault-injection stress (release, auditor on)"
SPADE_AUDIT=1 cargo test --release -p spade-core --test fault_injection -q

# The trace format and JSON run reports contain no wall-clock values, so
# their bytes are fully deterministic: any drift against a committed golden
# file is a behavior change that must be reviewed. After an *intentional*
# change, regenerate with `SPADE_UPDATE_GOLDEN=1 scripts/check.sh` and
# commit the new golden files.
smoke=$(mktemp /tmp/spade_trace_smoke.XXXXXX.json)
runs=$(mktemp /tmp/spade_run_tiny.XXXXXX.json)
bench_out=$(mktemp /tmp/spade_bench_perf.XXXXXX.json)
bench_cycles=$(mktemp /tmp/spade_bench_cycles.XXXXXX.txt)
trap 'rm -f "$smoke" "$runs" "$bench_out" "$bench_cycles"' EXIT
check_golden() { # <fresh output> <golden file>
  if [ "${SPADE_UPDATE_GOLDEN:-0}" = "1" ]; then
    cp "$1" "$2"
    echo "updated $2"
  elif ! cmp -s "$1" "$2"; then
    echo "error: output drifted from $2" >&2
    diff "$2" "$1" | head -20 >&2 || true
    echo "if the change is intentional: SPADE_UPDATE_GOLDEN=1 scripts/check.sh" >&2
    exit 1
  fi
}

echo "== trace smoke + golden-file check"
cargo run -q -p spade-cli -- trace myc --scale tiny --k 16 --pes 4 \
  --window 256 --out "$smoke"
check_golden "$smoke" tests/golden/trace_smoke.trace.json

echo "== run reports + golden-file check (release)"
# Simulated reports across the suite, not only one trace: Base SpMM and
# SDDMM on all ten graphs plus plan variants on MYC and DEL.
cargo build --release -q -p spade-cli
scripts/golden_runs.sh ./target/release/spade-cli >"$runs"
check_golden "$runs" tests/golden/run_tiny.json

echo "== Fig 10 smoke (release, fast mode)"
# The only release-mode run of Table 4's CFG0/CFG1, whose PEs take four
# pipeline steps per system cycle (clock_mult = 4).
SPADE_BENCH_FAST=1 cargo bench -q -p spade-bench --bench fig10_pipeline >/dev/null

echo "== bench-perf regression gate (release)"
# Event-driven vs naive driver: the two are equivalence-checked report
# for report on every run, and the geomean event-driver speedup must stay
# above the committed floor. bench-perf runs the pairs one at a time on
# one worker, so neither driver's wall time absorbs the other's
# interference (measured on a shared 2-core host, tiny suite, ten runs:
# 1.95-2.01x, median 1.98x, 1.4-2.2 s each).
./target/release/spade-cli bench-perf --scale tiny --k 32 --pes 8 \
  --gate-speedup 1.3 \
  --out "$bench_out" >/dev/null
# Its 20 Base jobs run on `machines::spade_system(8)` (16-way L2, 2-way
# victim cache, 12-way LLC), geometries the request-machine reports in
# run_tiny.json do not cover, so their simulated cycles are pinned too.
scripts/bench_cycles.py "$bench_out" >"$bench_cycles"
check_golden "$bench_cycles" tests/golden/bench_perf_tiny_cycles.txt

echo "== bench-advise quality gate (release)"
# Millisecond plan selection vs the simulated ground truth: per-benchmark
# leave-one-out cost models, selection latency vs quick find_opt (gated
# >= 100x — advise never simulates) and selected-plan cycles vs the
# exhaustive optimum (gated <= 1.05x geomean). Model and accuracy report
# land next to the summary for inspection.
advise_model=$(mktemp /tmp/spade_advise.XXXXXX.model)
advise_report=$(mktemp /tmp/spade_advise_acc.XXXXXX.json)
trap 'rm -f "$smoke" "$runs" "$bench_out" "$bench_cycles" "$advise_model" "$advise_report"' EXIT
./target/release/spade-cli bench-advise --scale tiny --k 32 --pes 8 \
  --gate-advise-speedup 100 --gate-advise-quality 1.05 \
  --out "$bench_out" --model-out "$advise_model" \
  --report-out "$advise_report" >/dev/null

echo "== daemon smoke (serve/client, cache hit, SIGTERM drain, restart)"
# A real `spade-cli serve` process driven over TCP: cold run, cache hit
# byte-identity, malformed-frame rejection, concurrent burst, graceful
# SIGTERM drain, and a restart on the same cache whose catalog must list
# the cached run. Keeps its cache directory on failure for postmortem.
scripts/serve_smoke.sh ./target/release/spade-cli

echo "All checks passed."
