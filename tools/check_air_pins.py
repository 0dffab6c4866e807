#!/usr/bin/env python3
"""Check perfbench's air-time metrics against their committed pins.

Run from the repository root:

    python3 tools/check_air_pins.py     # exit 1 on any drift

mover_irr_hz, mover_cycle_irr_hz and ok_cycle_ratio are measured on the
simulated reader clock, so they repeat exactly per (workload, seed) and do
not depend on --seconds (perfbench/METRICS.md).  For every pinned workload
and seed this runs `python3 perfbench/run.py --workload W --seed S
--seconds 1` and requires each pinned metric to equal its pin exactly.  A
change that moves them on purpose re-pins them in the same commit, copying
the `got` values this prints.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "tests", "golden", "perfbench_air.json")


def measure(workload, seed, metrics):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", seed, "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {m: result["metrics"][m]["value"] for m in metrics}


def main():
    with open(PINS) as f:
        doc = json.load(f)
    drift = 0
    for workload, by_seed in doc["pins"].items():
        for seed, pinned in by_seed.items():
            got = measure(workload, seed, doc["metrics"])
            for metric in doc["metrics"]:
                ok = got[metric] == pinned[metric]
                drift += not ok
                print(f"{'ok   ' if ok else 'DRIFT'} {workload} seed {seed} "
                      f"{metric}: pinned {pinned[metric]!r}, "
                      f"got {got[metric]!r}")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
