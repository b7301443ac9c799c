#!/usr/bin/env python3
"""Record the expected fingerprints of the default and held-out seeds.

    python3 perfbench/record_expected.py

Run from the repository root after a change that is meant to alter
simulated results (never after a speed-only change: there the recorded
fingerprints are the proof that nothing moved). Rewrites
perfbench/expected.json.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    manifest = json.loads(run.MANIFEST.read_text())
    env = run.clean_env()
    binary = run.build(env, min(len(os.sched_getaffinity(0)), 4)) / "mab_perfbench"
    expected = {}
    for workload in manifest["workloads"]:
        expected[workload] = {}
        for seed in (manifest["default_seed"], manifest["held_out_seed"]):
            proc = subprocess.run(
                [str(binary), "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0"],
                env=env, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if res["failed"]:
                run.fail(f"{workload} seed {seed}: {res['errors']}")
            expected[workload][str(seed)] = {
                "fingerprint": res["fingerprint"],
                "cell_fingerprints": res["cell_fingerprints"],
            }
            print(f"{workload} seed {seed}: {res['fingerprint']}")
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
