#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|serve --seed N \
        --seconds S --trace 0|1

It builds the `spade-cli` release binary (the daemon the `serve` workload
starts) and the `perfbench` binary, whose in-process workloads are
compiled with the root manifest's `[profile.release]` settings, then runs
`perfbench` with the same arguments. The last line of standard output is
the JSON result. `CARGO_TARGET_DIR` is honoured; by default both builds
share the repository's `target/`.

    python3 perfbench/run.py --selftest

runs the benchmark's own tests: the crate's unit tests, then a
seconds-long smoke run of every workload, traced and untraced, whose
result lines must cover every metric in BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def toml_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    return json.dumps(value)


def profile_overrides():
    """The root manifest's [profile.release] as `--config` overrides."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    args = []

    def walk(prefix, table):
        for key, value in table.items():
            if isinstance(value, dict):
                walk(f"{prefix}.{key}", value)
            else:
                args.extend(["--config", f"{prefix}.{key}={toml_value(value)}"])

    walk("profile.release", profile)
    return args


def build(args, binary):
    """Runs `cargo build --release` and returns the path of `binary`."""
    cmd = ["cargo", "build", "--release", "--message-format=json-render-diagnostics"] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed")
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == binary:
            return msg["executable"]
    sys.exit(f"run.py: cargo built no {binary} executable")


def bench_cargo_args():
    """Arguments that build this crate into the program's target directory
    with the program's release profile."""
    target = [] if os.environ.get("CARGO_TARGET_DIR") else ["--target-dir", os.path.join(ROOT, "target")]
    return ["--manifest-path", os.path.join(HERE, "Cargo.toml")] + target + profile_overrides()


def build_all():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py: run from the repository root (no Cargo.toml here)")
    target = [] if os.environ.get("CARGO_TARGET_DIR") else ["--target-dir", os.path.join(ROOT, "target")]
    daemon = build(["-p", "spade-cli", "--bin", "spade-cli"] + target, "spade-cli")
    return daemon, build(bench_cargo_args(), "perfbench")


def selftest(daemon, bench):
    unit = subprocess.run(["cargo", "test", "--release"] + bench_cargo_args(), cwd=ROOT)
    if unit.returncode != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run([bench, "--workload", workload, "--seed", "7", "--seconds", "1",
                                   "--trace", trace, "--daemon", daemon, "--smoke"],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = [m["name"] for m in spec[key]]
            ok = (proc.returncode == 0 and list(result) == ["correct", "attempted", "failed", "metrics"]
                  and result["correct"] and list(result["metrics"]) == want)
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'}")
            failures += not ok
    return 1 if failures else 0


def main():
    daemon, bench = build_all()
    if sys.argv[1:] == ["--selftest"]:
        return selftest(daemon, bench)
    return subprocess.run([bench] + sys.argv[1:] + ["--daemon", daemon], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
