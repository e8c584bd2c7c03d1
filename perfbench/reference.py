"""Regenerates the reference figures in README.md.

    python3 perfbench/reference.py --seeds 101-110 --seconds 60

Makes two sets of runs, one after the other: in each set, run.py runs once
per seed and workload with tracing off, one run at a time.  Then each
workload runs once with tracing on (first seed).  Prints markdown tables: for
each end-to-end metric, each set's median and quartile distance as a share of
its median, and how far the second set's median moved from the first's (what
the bounds rest on); the spread of host.calib_s over all runs; and the traced
runs' self times and tracing overhead.  Raw figures go to
.perfbench_out/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}", "run.json")) as fh:
        record = json.load(fh)
    return summary, record


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=60)
    args = ap.parse_args()
    sets = []
    for _ in range(2):
        sets.append({name: [one_run(name, seed, args.seconds, 0) for seed in args.seeds]
                     for name in WORKLOADS})
    raw = {name: {"sets": [[s for s, _ in runs[name]] for runs in sets]} for name in WORKLOADS}
    print("| workload | metric | set 1 median | (Q3-Q1)/median | set 2 median | (Q3-Q1)/median | change of median |")
    print("|---|---|---|---|---|---|---|")
    for name in WORKLOADS:
        for metric in END_TO_END:
            cells, medians = [], []
            for runs in sets:
                med, _, _, share = spread([s["metrics"][metric]["value"] for s, _ in runs[name]])
                cells += [f"{med:.4g}", f"{share:.3f}"]
                medians.append(med)
            change = (medians[1] - medians[0]) / medians[0]
            print(f"| {name} | {metric} | {' | '.join(cells)} | {change:+.3f} |")
    print()
    print("| workload | host.calib_s median | Q1 | Q3 | (Q3-Q1)/median | min | max |")
    print("|---|---|---|---|---|---|---|")
    for name in WORKLOADS:
        values = [c for runs in sets for _, r in runs[name] for c in r["calib_s"]]
        med, q1, q3, share = spread(values)
        print(f"| {name} | {med:.4f} | {q1:.4f} | {q3:.4f} | {share:.3f} | {min(values):.4f} | {max(values):.4f} |")
    print()
    print("| workload | metric | value |")
    print("|---|---|---|")
    for name in WORKLOADS:
        summary, _ = one_run(name, args.seeds[0], args.seconds, 1)
        raw[name]["traced"] = summary
        for metric, v in summary["metrics"].items():
            if v["value"]:
                print(f"| {name} | {metric} | {v['value']:.4g} {v['unit']} |")
    with open(os.path.join(ROOT, ".perfbench_out", "reference.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
