"""The workloads: the operations each runs, and how their outputs are checked.

A workload is a fixed list of operations.  An operation drives ffpoisson the
way a user does: one ``ffpoisson.cli.main`` call with the argv a user types,
or one batch of calls to the public ``localfield`` functions where the CLI
has no batch form.  ``Op.run`` is the program's work, which the child times;
``Op.check`` reads what it produced and returns how many identities it
checked and the problems it found, and runs outside the timed section.
Program functions are reached through their modules at call time, so a
tracer installed in the same process sees the calls.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]
    report: str | None = None  # the CLI report file, whose digest must repeat


def cli_op(name: str, argv: list[str], outdir: str, check_report) -> Op:
    """One CLI command; ``check_report(report)`` returns (attempted, problems)."""
    path = os.path.join(outdir, f"{name}.json")

    def run():
        from ffpoisson import cli

        return cli.main(argv + ["--out", path])

    def check(code):
        if code != 0:
            return 0, [f"{name}: exit code {code} for {' '.join(argv)}"]
        with open(path) as fh:
            return check_report(json.load(fh))

    return Op(name, run, check, path)


# -- poisson ---------------------------------------------------------------------------

# name, p, places, degrees of the places, window (N, M)
POISSON = [
    ("poisson-q2-deg2", 2, "t;t^2+t+1", [1, 2], (1, 1)),
    ("poisson-q2-three", 2, "t;inf;t^2+t+1", [1, 1, 2], (0, 1)),
    ("poisson-q3-two", 3, "t;inf", [1, 1], (1, 1)),
    ("poisson-q3-n1", 3, "t;t+1;inf", [1, 1, 1], (1, 0)),
    ("poisson-q3-m1", 3, "t;t+1;inf", [1, 1, 1], (0, 1)),
]


def poisson_ops(seed: int, outdir: str) -> list[Op]:
    ops = []
    for name, p, places, degrees, (N, M) in POISSON:
        argv = ["poisson", "--p", str(p), "--places", places, "--window", f"{N},{M}"]

        def check_report(report, p=p, degrees=degrees, N=N, M=M):
            return len(report.get("rows", [])), checks.check_poisson(report, p, degrees, N, M)

        ops.append(cli_op(name, argv, outdir, check_report))
    return ops


# -- theorem-a ---------------------------------------------------------------------------

# p = 2, n = 3, window (0, 1): 512 jets per form.  At p = 2 the b*s pairs'
# char polys X^3 - N(b) t are separable, so all 20 pairs are compared.
THEOREM_A_P = 2
THEOREM_A_PAIRS = 20
THEOREM_A_RECIPES = ["const", "psi_trace", "charpoly_coset"]


def _theorem_a_cross_check(report: dict, seed: int) -> list[str]:
    """For the const recipe, each pointwise value must equal the full-table
    fourier_D of the constant table read at the matched jet, on each form.
    The constant table is built here, not by the program's recipe code."""
    from ffpoisson import cyclic_algebra as ca
    from ffpoisson.scalars import CycScalar, make_field

    field = make_field(THEOREM_A_P, 1)
    desc = ca.AlgebraDescriptor(field, 3, 1)
    desc_dot = ca.AlgebraDescriptor(field, 3, 2)
    pairs = ca.default_pair_list(desc, desc_dot, count=THEOREM_A_PAIRS, seed=seed)
    M = 1
    K = desc.n * M
    problems = []
    for form, key, d in ((0, "value_D", desc), (1, "value_D_dot", desc_dot)):
        one = CycScalar.one(THEOREM_A_P)
        phi = ca.AlgebraTestFunction(d, 0, K, [one] * d.L.q**K)
        full = ca.fourier_D(phi)
        for row in report.get("rows", []):
            if row.get("recipe") != "const" or row.get("status") != "ok":
                continue
            pair = pairs[row["pair"]]
            element = pair.c_dot if form else pair.c
            jet = ca.element_to_jet(element, full.lo, full.hi)
            want = full.values[ca.jet_index(jet)].coeffs
            if checks.scalar(row[key]) != want:
                problems.append(f"theorem-a: pair {row['pair']} {key} differs from fourier_D")
    return problems


def theorem_a_ops(seed: int, outdir: str) -> list[Op]:
    argv = [
        "theorem-a", "--p", str(THEOREM_A_P), "--n", "3", "--exponents", "1,2", "--window", "0,1",
        "--pairs", str(THEOREM_A_PAIRS), "--seed", str(seed),
        "--recipes", ",".join(THEOREM_A_RECIPES),
    ]

    def check_report(report):
        problems = checks.check_theorem_a(report, THEOREM_A_PAIRS, THEOREM_A_PAIRS, THEOREM_A_RECIPES)
        problems += _theorem_a_cross_check(report, seed)
        return sum(1 for r in report.get("rows", []) if r.get("status") == "ok"), problems

    return [cli_op("theorem-a", argv, outdir, check_report)]


# -- local inversion -------------------------------------------------------------------


def delta_grid():
    """Every window of the criterion-2 grid: (p, d, nu, N, M)."""
    for p in (2, 3):
        for d in (1, 2):
            for nu in (0, 2):
                for N in range(0, 4):
                    for M in range(nu, 4):
                        if 1 <= N + M <= 3:
                            yield p, d, nu, N, M


# Dense tables: (p, d, nu, N, M, arity); each shape is used with every kind.
DENSE_SHAPES = [
    (2, 1, 0, 1, 2, 1),
    (3, 1, 0, 1, 2, 1),
    (2, 2, 2, 0, 2, 1),
    (2, 1, 0, 1, 1, 2),
    (3, 1, 0, 1, 1, 2),
]
# small: int64 fast path.  wide: integers of 2^58..2^59, which convert but trip
# the per-axis overflow guard.  huge: a numerator above 2^63, which does not
# convert.  The last two run the pure-object fallback.
DENSE_KINDS = ["small", "small", "wide", "huge"]
_DENOMINATORS = [1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16]


def dense_values(rng: random.Random, p: int, size: int, kind: str):
    """Coefficient tuples on 1, zeta, .., zeta^(p-2); about a quarter zero."""
    rows = []
    for i in range(size):
        coeffs = []
        for _ in range(p - 1):
            if rng.random() < 0.25:
                coeffs.append(Fraction(0))
            elif kind == "small":
                coeffs.append(Fraction(rng.randint(-60, 60), rng.choice(_DENOMINATORS)))
            elif kind == "wide":
                coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randrange(1 << 58, 1 << 59)))
            else:
                num = rng.choice((-1, 1)) * rng.randrange(1, 1 << 64)
                coeffs.append(Fraction(num, rng.choice(_DENOMINATORS)))
        rows.append(tuple(coeffs))
    # the kind must not depend on the draw: pin one entry's size
    if kind == "wide":
        rows[0] = (Fraction(1 << 58),) + rows[0][1:]
    elif kind == "huge":
        rows[0] = (Fraction((1 << 64) + 1),) + rows[0][1:]
    return rows


def _coeffs(fn) -> list:
    return [v.coeffs for v in fn.values]


# A window with more jets than this transforms a sample of this many deltas,
# drawn from the seed, so that no window takes more than about 30 ms: short
# enough for its fastest round to show the host's fast mode (see README.md).
DELTA_SAMPLE = 27


def local_inversion_ops(seed: int, outdir: str) -> list[Op]:
    """(a) one operation per window of the delta grid: its deltas (all of
    them, or a seeded sample of DELTA_SAMPLE) transformed twice; (b) one per
    dense random table.  Both are drawn here from the seed."""
    from ffpoisson import localfield as lf
    from ffpoisson.place import PlaceData
    from ffpoisson.scalars import CycScalar, make_field

    rng = random.Random(seed)
    ops = []
    for p, d, nu, N, M in delta_grid():
        label = f"delta q={p} d={d} nu={nu} ({N},{M})"
        pd = PlaceData.synthetic(make_field(p, 1), d, nu)
        win = lf.Window(N, M)
        size = lf.jet_space_size(pd, win)
        ks = sorted(rng.sample(range(size), DELTA_SAMPLE)) if size > DELTA_SAMPLE else list(range(size))

        def run(pd=pd, win=win, ks=ks):
            outs = []
            for k in ks:
                once = lf.fourier1(lf.LocalTestFunction.delta(pd, win, k))
                outs.append((once, lf.fourier1(once)))
            return outs

        def check(outs, label=label, p=p, ks=ks):
            problems = []
            for k, (once, twice) in zip(ks, outs):
                problems += checks.check_nowhere_zero(f"{label} {k}", _coeffs(once))
                problems += checks.check_delta_inversion(f"{label} {k}", k, _coeffs(twice), p)
            return len(outs), problems

        ops.append(Op(label, run, check))
    for shape in DENSE_SHAPES:
        p, d, nu, N, M, arity = shape
        pd = PlaceData.synthetic(make_field(p, 1), d, nu)
        win = lf.Window(N, M)
        size = lf.jet_space_size(pd, win) ** arity
        for i, kind in enumerate(DENSE_KINDS):
            label = f"dense {kind} {i} {shape}"
            table = dense_values(rng, p, size, kind)
            values = [CycScalar(p, c) for c in table]

            def run(pd=pd, win=win, arity=arity, values=values):
                phi = lf.LocalTestFunction(pd, win, arity, values)
                return lf.fourier_multi(lf.fourier_multi(phi))

            def check(twice, label=label, table=table, p=p):
                return 1, checks.check_inversion(label, table, _coeffs(twice), p)

            ops.append(Op(label, run, check))
    return ops


# -- motivic ---------------------------------------------------------------------------

# The smallest precisions and degrees that still reach fields above the
# 256-element table limit (2^9 and 3^6), where arithmetic is untabled.
EULER = [(2, "a1", "one", 9), (3, "gm", "psi:x0", 6)]
CHARSUM = [(3, "x0^2", 6)]


def motivic_ops(seed: int, outdir: str) -> list[Op]:
    ops = []
    for p, s, f, n in EULER:
        argv = ["euler", "--p", str(p), "--set", s, "--family", f, "--precision", str(n)]

        def check_report(report, p=p, s=s, f=f, n=n):
            return len(report.get("rows", [])), checks.check_euler(report, p, s, f, n)

        ops.append(cli_op(f"euler-p{p}-{s}-{f.replace(':', '')}", argv, outdir, check_report))
    for p, h, n in CHARSUM:
        argv = ["charsum", "--p", str(p), "--h", h, "--degrees", str(n)]

        def check_report(report, p=p, h=h, n=n):
            return len(report.get("rows", [])), checks.check_charsum(report, p, h, n)

        ops.append(cli_op(f"charsum-p{p}-{h.replace('^', '')}", argv, outdir, check_report))
    return ops


@dataclass(frozen=True)
class Workload:
    """A fixed list of operations, built from the seed after set-up."""

    name: str
    fields: tuple  # (p, e) of every field the operations build
    parts: tuple  # functions (seed, outdir) -> list[Op]

    def ops(self, seed: int, outdir: str) -> list[Op]:
        return [op for part in self.parts for op in part(seed, outdir)]


# Two workloads of about 5 s of program work per round each: `local`
# transforms on local fields and the cyclic algebra over one, `global` sums
# over the places and closed points of global fields.  No operation takes
# more than about 2 s, so a run of a minute repeats each one about eight
# times (see README.md).
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "local",
            ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)),
            (local_inversion_ops, theorem_a_ops),
        ),
        Workload(
            "global",
            tuple((2, e) for e in range(1, 10)) + tuple((3, e) for e in range(1, 7)),
            (poisson_ops, motivic_ops),
        ),
    ]
}
