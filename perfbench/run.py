#!/usr/bin/env python3
"""Simulator benchmark entry point.

    python3 perfbench/run.py --workload pf_resident --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
simulator libraries from src/) into .bench_build/, runs one workload
with every MAB_* variable cleared, checks the simulated outputs and
prints the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run. Metric names and units come from
BENCHMARK.json; what each metric means and moves and the fixed
settings are in perfbench/manifest.json, the expected fingerprints of
the recorded seeds in perfbench/expected.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "manifest.json"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"
BUILD_TYPE = "RelWithDebInfo"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The caller's environment minus every MAB_* variable."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MAB_")}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / f"perfbench-{BUILD_TYPE}"


def build(env, jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(env, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(jobs)]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode:
        fail("build failed")
    return out


def cache_value(out, key):
    cache = out / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def provenance(out, manifest, args, nproc, res):
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": nproc,
        "compiler": f"{compiler} ({version})",
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "pool_threads": res["pool_threads"],
        "setups": res["setups"],
        "seed": args.seed,
        "default_seed": manifest["default_seed"],
        "held_out_seed": manifest["held_out_seed"],
        "workload": args.workload,
        "trace": args.trace,
    }


def check_expected(expected, workload, seed, res):
    """Per-cell fingerprint mismatches against the recorded seeds."""
    exp = expected.get(workload, {}).get(str(seed))
    if exp is None:
        return 0, "no recorded fingerprint for this seed"
    got = res["cell_fingerprints"]
    want = exp["cell_fingerprints"]
    if len(got) != len(want):
        return len(got), "cell count differs from the recorded grid"
    bad = sum(1 for g, w in zip(got, want) if g != w)
    status = "matches" if res["fingerprint"] == exp["fingerprint"] \
        else f"MISMATCH in {bad} cells (expected {exp['fingerprint']})"
    return bad, status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for f in (MANIFEST, EXPECTED, BENCHMARK):
        if not f.is_file():
            fail(f"missing {f}")
    manifest = json.loads(MANIFEST.read_text())
    expected = json.loads(EXPECTED.read_text())
    bench = json.loads(BENCHMARK.read_text())
    if args.workload not in manifest["workloads"]:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(manifest['workloads'])}")
    if args.seed < 0:
        fail("--seed must be non-negative")

    env = clean_env()
    nproc = len(os.sched_getaffinity(0))
    out = build(env, min(nproc, 4))
    binary = out / "mab_perfbench"

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within 170 s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"benchmark exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    bad, status = check_expected(expected, args.workload, args.seed, res)
    failed = max(res["failed"], bad)
    attempted = res["attempted"]

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in bench[section]:
        value = res[section].get(spec["name"])
        if value is None:
            fail(f"benchmark did not report {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    prov = provenance(out, manifest, args, nproc, res)
    prov.update({
        "cells": res["cells"],
        "passes": res["passes"],
        "cell_samples": res["cell_samples"],
        "pass_walls_s": [round(w, 4) for w in res["pass_walls_s"]],
        "fingerprint": res["fingerprint"],
        "expected_fingerprint": status,
        "errors": res["errors"],
        "run_s": round(time.monotonic() - t0, 3),
    })
    e2e = res["end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"cells={res['cells']} passes={res['passes']} "
          f"cells_failed={failed}/{attempted} "
          f"bandit_gain_pct={(e2e['bandit_ipc_ratio'] - 1) * 100:+.3f}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
