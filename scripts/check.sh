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

echo "== trace smoke + golden-file check"
# The trace format contains no wall-clock values, so the emitted bytes are
# fully deterministic: any drift against the committed golden file is a
# behavior change that must be reviewed. After an *intentional* change,
# regenerate with `SPADE_UPDATE_GOLDEN=1 scripts/check.sh` and commit the
# new golden file.
golden=tests/golden/trace_smoke.trace.json
smoke=$(mktemp /tmp/spade_trace_smoke.XXXXXX.json)
bench_out=$(mktemp /tmp/spade_bench_perf.XXXXXX.json)
trap 'rm -f "$smoke" "$bench_out"' EXIT
cargo run -q -p spade-cli -- trace myc --scale tiny --k 16 --pes 4 \
  --window 256 --out "$smoke"
if [ "${SPADE_UPDATE_GOLDEN:-0}" = "1" ]; then
  cp "$smoke" "$golden"
  echo "updated $golden"
elif ! cmp -s "$smoke" "$golden"; then
  echo "error: trace output drifted from $golden" >&2
  diff "$golden" "$smoke" | head -20 >&2 || true
  echo "if the change is intentional: SPADE_UPDATE_GOLDEN=1 scripts/check.sh" >&2
  exit 1
fi

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
# 1.52-1.62x, median 1.58x, 2.0-2.7 s each).
cargo build --release -q -p spade-cli
./target/release/spade-cli bench-perf --scale tiny --k 32 --pes 8 \
  --gate-speedup 1.3 \
  --out "$bench_out" >/dev/null

echo "== bench-advise quality gate (release)"
# Millisecond plan selection vs the simulated ground truth: per-benchmark
# leave-one-out cost models, selection latency vs quick find_opt (gated
# >= 100x — advise never simulates) and selected-plan cycles vs the
# exhaustive optimum (gated <= 1.05x geomean). Model and accuracy report
# land next to the summary for inspection.
advise_model=$(mktemp /tmp/spade_advise.XXXXXX.model)
advise_report=$(mktemp /tmp/spade_advise_acc.XXXXXX.json)
trap 'rm -f "$smoke" "$bench_out" "$advise_model" "$advise_report"' EXIT
./target/release/spade-cli bench-advise --scale tiny --k 32 --pes 8 \
  --gate-advise-speedup 100 --gate-advise-quality 1.05 \
  --out "$bench_out" --model-out "$advise_model" \
  --report-out "$advise_report" >/dev/null

echo "== daemon smoke (serve/client, cache hit, SIGTERM drain)"
# A real `spade-cli serve` process driven over TCP: cold run, cache hit
# byte-identity, malformed-frame rejection, concurrent burst, graceful
# SIGTERM drain. Keeps its cache directory on failure for postmortem.
scripts/serve_smoke.sh ./target/release/spade-cli

echo "All checks passed."
