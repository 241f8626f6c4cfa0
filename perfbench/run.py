#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary twice from source (the shipping build, with
telemetry compiled out, and the `traced` build) into `ship/` and
`traced/` below $CARGO_TARGET_DIR (default `.bench_build`). With `--trace 0` the shipping build runs for
`--seconds` and the last line of output carries the end-to-end metrics.
With `--trace 1` the shipping build runs for half the time, then the
traced build for the other half; the last line carries the per-layer
metrics, including `trace.overhead_share` (traced over untraced
`pass_ms`, minus one). The last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is nonzero
when the build fails or any output fails the correctness gate.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["f32_mixed_scalar", "f32_mixed_slice", "posit32_domain_scalar",
             "posit32_domain_slice", "serve_window", "offline_gen_cert"]
# Time a benchmark process may take beyond its --seconds (set-ups, gate,
# traced-run probes) before it is stopped.
RUN_SLACK_S = 60


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(traced):
    """Builds one configuration; returns the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    if traced:
        cmd += ["--features", "traced"]
    # One target directory per configuration: both builds name their
    # executable `perfbench`, and the two must not overwrite each other.
    sub = "traced" if traced else "ship"
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(target_dir(), sub))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("run.py: build failed")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            exe = msg["executable"]
    if exe is None:
        sys.exit("run.py: cargo reported no perfbench executable")
    return exe


def revision():
    """The git revision when there is one, and always a digest of the
    sources the benchmark builds, since a checkout may not be a repo."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "git:%s src:%s" % (rev or "none", h.hexdigest()[:16])


def run(exe, args, seconds):
    """Runs the benchmark binary; returns (stdout lines, result)."""
    limit = seconds + RUN_SLACK_S
    try:
        proc = subprocess.run([exe] + args + ["--seconds", str(seconds)],
                              stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark run exceeded %d s" % limit)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("run.py: benchmark exited with code %d" % proc.returncode)
    return lines, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    ship, traced = build(False), build(True)
    rev = revision()
    common = ["--workload", a.workload, "--seed", str(a.seed), "--revision", rev]
    if a.trace == 0:
        lines, result = run(ship, common, a.seconds)
        print("\n".join(lines))
        sys.exit(0 if result["correct"] else 1)

    half = a.seconds / 2
    base_lines, base = run(ship, common, half)
    spans = os.path.join(target_dir(), "perfbench", "spans-%s-%d.jsonl" % (a.workload, a.seed))
    lines, result = run(traced, common + [
        "--spans-out", spans, "--baseline-pass-ms", repr(base["metrics"]["pass_ms"]["value"]),
    ], half)
    for l in base_lines[:-1]:
        print("untraced: " + l)
    print("\n".join(lines[:-1]))
    result["attempted"] += base["attempted"]
    result["failed"] += base["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
