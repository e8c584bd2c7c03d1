"""The benchmark's command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  With --trace 0 a run starts one fresh
child process (child.py), which sets up once, cold, and then runs every
operation of the workload round after round, each time in a process forked
from the set-up, until S seconds are up (at least two rounds).  It reports
the end-to-end metrics: ``setup_s`` of that cold set-up, ``verdict_s`` as
the sum over the operations of each one's fastest round, and
``peak_rss_mb`` as the largest peak of an operation's process.  With
--trace 1 a run starts an untraced child for the first half of S and a
traced one for the second, each making at least one round, and reports the
per-layer metrics.  Reports, spans and a record of the run go to
.perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170  # a child still running this long after the run started is killed
CALIB_LOOPS = 1_500_000

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = tracer.LAYER_METRICS | {"process.cpu_s": "s", "host.calib_s": "s", "trace.overhead_s": "s"}


class ChildFailed(RuntimeError):
    pass


def calibrate() -> float:
    """A fixed pure-Python loop: tells a slow host from a slow program."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def child_env(out_root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONNOUSERSITE="1",
        PYTHONPYCACHEPREFIX=os.path.join(out_root, "pycache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_child(args, traced: bool, outdir: str, env: dict, deadline: float, min_rounds: int,
              limit: float) -> dict:
    """One fresh child, making rounds until ``deadline`` and killed at
    ``limit``, reaped with every process of its group whatever happens; its
    parsed result."""
    os.makedirs(outdir)
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args.workload, str(args.seed),
           "1" if traced else "0", outdir, repr(spawned), repr(deadline), str(min_rounds)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(limit - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"a child ran past the {RUN_LIMIT_S} s limit of a run")
    finally:
        stop_group(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise ChildFailed(f"child exited with code {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def stop_group(proc) -> None:
    """Kill whatever is left of the child's process group (the child and
    any fork of it) and wait until none of it runs."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def fastest(child: dict, key: str) -> float:
    """Sum over the operations of each one's smallest value over the rounds."""
    return sum(min(r[key] for r in runs) for runs in child["ops"].values())


def layers(child: dict) -> dict:
    """Set-up's counts plus, per operation, the median over its rounds."""
    totals = dict(child["setup_layers"])
    for runs in child["ops"].values():
        for key in totals:
            totals[key] += statistics.median(r["layers"][key] for r in runs)
    return tracer.finish(totals)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    limit = start + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ffpoisson", "__init__.py")):
        print(f"error: no src/ffpoisson under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, ".perfbench_out")
    run_dir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    env = child_env(out_root)
    # turn SIGTERM into an exception so the child in flight is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    calib = [calibrate()]
    if args.trace:
        plain = run_child(args, False, os.path.join(run_dir, "plain"), env, start + args.seconds / 2, 1, limit)
        traced = run_child(args, True, os.path.join(run_dir, "traced"), env, start + args.seconds, 1, limit)
        children = [plain, traced]
    else:
        plain = run_child(args, False, os.path.join(run_dir, "plain"), env, start + args.seconds, 2, limit)
        children = [plain]
    calib.append(calibrate())

    problems = []
    for name in plain["ops"]:
        runs = [r for child in children for r in child["ops"][name]]
        problems += [p for r in runs for p in r["problems"]]
        if len({r["digest"] for r in runs}) > 1:
            problems.append(f"{name}: the report differs between rounds")
    if args.trace:
        values = layers(traced)
        values["process.cpu_s"] = fastest(plain, "cpu_s")
        values["host.calib_s"] = statistics.mean(calib)
        values["trace.overhead_s"] = fastest(traced, "wall_s") - fastest(plain, "wall_s")
        units = PER_LAYER
    else:
        values = {
            "verdict_s": fastest(plain, "wall_s"),
            "setup_s": plain["setup_s"],
            "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in runs)
                               for runs in plain["ops"].values()),
        }
        units = END_TO_END
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for child in children for runs in child["ops"].values()
                         for r in runs),
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump({"args": vars(args), "calib_s": calib, "children": children,
                   "problems": problems, "summary": summary}, fh, indent=1)
    for p in problems[:10]:
        print(f"problem: {p}")
    print(f"{args.workload} seed {args.seed}: {len(plain['rounds_s'])} rounds of "
          f"{len(plain['ops'])} operations, rounds_s {[round(r, 2) for r in plain['rounds_s']]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:
        print("error: interrupted; the child in flight was stopped", file=sys.stderr)
        sys.exit(130)
