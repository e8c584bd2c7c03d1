"""One fresh process per run: set up once, then run every operation of a
workload, round after round, each time in a process forked from the set-up.

run.py starts it as

    python child.py WORKLOAD SEED TRACED OUTDIR SPAWNED DEADLINE MIN_ROUNDS

where SPAWNED is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is the same clock in every process), so ``setup_s``
counts interpreter start-up too.  Set-up imports numpy and ffpoisson and
builds every field of the workload; it runs once, cold.

Then each round runs every operation once, in a fixed order, in a process
forked from this one after set-up and the inputs: each run of an operation
starts from the same state, with the library's process-wide caches as set-up
left them, as in a fresh process.  Forks run one at a time.  A fork times the
operation, then checks its output, and sends its figures back through a
pipe.  Rounds go on, at least MIN_ROUNDS, while the next is expected to end
before the monotonic time DEADLINE.

The last line of standard output is the child's result as JSON: set-up time,
and per operation the figures of every round.  A traced child installs the
tracer before set-up, and each fork reports the per-layer counts of its own
operation; the set-up's count separately.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _jet_at():
    from ffpoisson import globalfield

    info = globalfield.jet_at.cache_info()
    return info.hits, info.misses


def measure(op, tracer) -> dict:
    """Runs in the fork: the operation timed, then its output checked."""
    import tracer as tr

    if tracer:
        del tracer.spans[:]  # the set-up's spans are counted once, by the parent
        jet0 = _jet_at()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    out = op.run()
    wall1, cpu1 = time.perf_counter(), time.process_time()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, problems = op.check(out)
    result = {
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": attempted,
        "problems": problems[:5],
        "digest": _sha256(op.report) if op.report else None,
    }
    if tracer:
        jet1 = _jet_at()
        result["layers"] = tr.summarize(
            tracer.targets, tracer.spans, [(wall0, wall1)], (jet1[0] - jet0[0], jet1[1] - jet0[1])
        )
    return result


def forked(op, tracer) -> dict:
    """Runs ``measure`` in a forked process and waits for it to end."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                fh.write(json.dumps(measure(op, tracer)))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"operation {op.name!r} ended with status {status}")
    return json.loads(data)


def main(argv: list[str]) -> int:
    name, seed, traced, outdir = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    spawned, deadline, min_rounds = float(argv[5]), float(argv[6]), int(argv[7])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (part of set-up: every workload's program imports it)

    import ffpoisson
    from ffpoisson import scalars

    if not os.path.abspath(ffpoisson.__file__).startswith(src + os.sep):
        print(f"error: imported ffpoisson from {ffpoisson.__file__}, not from {src}", file=sys.stderr)
        return 2

    import tracer as tr
    import workloads

    tracer = tr.Tracer() if traced else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[name]
    for p, e in workload.fields:
        scalars.make_field(p, e)
    setup_s = time.monotonic() - spawned

    setup_layers = tr.summarize(tracer.targets, tracer.spans, [], _jet_at()) if tracer else None
    ops = workload.ops(seed, outdir)
    runs: dict[str, list[dict]] = {op.name: [] for op in ops}
    rounds: list[float] = []
    while True:
        start = time.monotonic()
        for op in ops:
            runs[op.name].append(forked(op, tracer))
        rounds.append(time.monotonic() - start)
        if len(rounds) >= min_rounds and time.monotonic() + sum(rounds) / len(rounds) > deadline:
            break
    print(json.dumps({"setup_s": setup_s, "setup_layers": setup_layers, "rounds_s": rounds, "ops": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
