#!/usr/bin/env python3
"""Run-set summarizer for the whole-cycle Tagwatch benchmark.

Collect a run set (one JSON line per run), summarize it, and check a second
run set against a first within the bounds in BENCHMARK.json:

    python3 perfbench/summarize.py collect --out runs-a.jsonl \
        --workloads paper_turntable,shelf_replay --seeds 1-10
    python3 perfbench/summarize.py summary runs-a.jsonl
    python3 perfbench/summarize.py compare runs-a.jsonl runs-b.jsonl

`summary` prints each (workload, metric) pair's median, first and third
quartiles and spread (quartile distance over the median), flagging an
end-to-end spread above its bound ('!') or above a third of it ('~').
`compare` exits 1 when a second-set median is worse than the first-set
median by more than the metric's bound, or when a spread other than
setup_s exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", args.trace]
                start = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL, text=True)
                wall = time.monotonic() - start
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                record = {"workload": workload, "seed": seed,
                          "trace": args.trace, "exit": proc.returncode,
                          "wall_s": round(wall, 2), "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                ok = proc.returncode == 0 and result and result["correct"]
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"{'ok' if ok else 'FAILED'}, {wall:.1f} s",
                      file=sys.stderr)


def load_runs(path):
    """{workload: {metric: [values]}} plus a count of failed runs."""
    table, failures = {}, 0
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            result = record["result"]
            if record["exit"] != 0 or not result or not result["correct"]:
                failures += 1
                continue
            metrics = table.setdefault(record["workload"], {})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return table, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summary(args):
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    table, failures = load_runs(args.runs)
    worst = {}
    for workload, metrics in table.items():
        print(f"{workload}")
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if name in bounds and name != "setup_s":
                flag = "!" if s > bounds[name] else (
                    "~" if s > bounds[name] / 3 else "")
                worst[name] = max(worst.get(name, 0.0), s / bounds[name])
            print(f"  {name:28s} n={len(values):2d} median {q2:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {s:7.4f} {flag}")
    if worst:
        print("largest spread / bound per end-to-end metric: " + ", ".join(
            f"{k} {v:.2f}" for k, v in sorted(worst.items())))
    if failures:
        print(f"{failures} failed runs")
    return 1 if failures else 0


def compare(args):
    bench = load_benchmark()
    base, base_failures = load_runs(args.base)
    new, new_failures = load_runs(args.new)
    bad = base_failures + new_failures
    for workload in sorted(base):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in base[workload] or name not in new.get(workload, {}):
                print(f"{workload} {name}: missing")
                bad += 1
                continue
            a = statistics.median(base[workload][name])
            b = statistics.median(new[workload][name])
            worse = (b - a) if metric["better"] == "lower" else (a - b)
            share = worse / abs(a) if a else (0.0 if worse <= 0 else 1.0)
            spreads = (spread(base[workload][name]),
                       spread(new[workload][name]))
            ok = share <= bound and (
                name == "setup_s" or max(spreads) <= bound)
            bad += not ok
            print(f"{workload:16s} {name:20s} {a:12.6g} -> {b:12.6g} "
                  f"worse {share:+8.4f} (bound {bound}) spreads "
                  f"{spreads[0]:.4f}/{spreads[1]:.4f} "
                  f"{'ok' if ok else 'FAIL'}")
    if bad:
        print(f"{bad} checks failed")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--trace", choices=("0", "1"), default="0")
    s = sub.add_parser("summary", help="median and quartiles per metric")
    s.add_argument("runs")
    k = sub.add_parser("compare", help="check a run set against a base set")
    k.add_argument("base")
    k.add_argument("new")
    args = parser.parse_args()
    if args.cmd == "collect":
        return collect(args) or 0
    return summary(args) if args.cmd == "summary" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
