"""Batch command-line front end: every verification as a reproducible run.

Subcommands: charsum, euler, local-fourier, poisson, alg-check, theorem-a.
Reports are JSON (optionally a CSV summary) with the full configuration,
library version, and exact values embedded; identical configurations give
byte-identical reports, and the exit code is 0 only if every equality flag
in the run is true; a run whose checks compare nothing reports
``all_equal: null`` and exits 4.  No value is ever a float: float64
carries integers below 2^53 only through the transforms' matmuls, where
every sum is exact.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

# each subcommand imports the modules it runs, so a command loads only what
# it needs (euler and charsum never load numpy)
from . import BudgetExceededError, __version__
from .scalars import CycScalar, make_field


class ParseError(ValueError):
    pass


class TimeoutExceeded(RuntimeError):
    """A run overran its --timeout budget; nothing was silently truncated."""


class _Watchdog:
    def __init__(self, seconds):
        import time as _time

        self.start = _time.monotonic()
        self.seconds = seconds
        self._clock = _time.monotonic

    def check(self, context: str):
        if self.seconds is not None and self._clock() - self.start > self.seconds:
            raise TimeoutExceeded(
                f"timeout of {self.seconds}s exceeded during {context}"
            )


# ---------------------------------------------------------------------------
# Polynomial expression parsing (integer coefficients, x0..x9 or t)
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
        elif ch in "+-*^()":
            out.append((ch, ch, i))
            i += 1
        elif ch.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum()):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"line 1, column {i + 1}: unexpected character {ch!r}")
    out.append(("end", None, len(text)))
    return out


def parse_mpoly(text: str, field, nvars: int, var_prefix: str = "x") -> MPoly:
    """Parse an integer-coefficient polynomial expression into an MPoly."""
    from .poly import MPoly

    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(kind=None):
        nonlocal pos
        tok = toks[pos]
        if kind and tok[0] != kind:
            raise ParseError(
                f"line 1, column {tok[2] + 1}: expected {kind}, found {tok[1]!r}"
            )
        pos += 1
        return tok

    def atom() -> MPoly:
        tok = peek()
        if tok[0] == "int":
            take()
            return MPoly.constant(field, nvars, tok[1])
        if tok[0] == "name":
            take()
            name = tok[1]
            if name == var_prefix and nvars == 1:
                return MPoly.var(field, 1, 0)
            if name.startswith(var_prefix) and name[len(var_prefix) :].isdigit():
                idx = int(name[len(var_prefix) :])
                if idx >= nvars:
                    raise ParseError(
                        f"line 1, column {tok[2] + 1}: variable {name} out of range"
                    )
                return MPoly.var(field, nvars, idx)
            raise ParseError(f"line 1, column {tok[2] + 1}: unknown name {name!r}")
        if tok[0] == "(":
            take()
            e = expr()
            take(")")
            return e
        raise ParseError(f"line 1, column {tok[2] + 1}: expected a term")

    def factor() -> MPoly:
        base = atom()
        while peek()[0] == "^":
            take()
            tok = take("int")
            power = tok[1]
            acc = MPoly.constant(field, nvars, 1)
            for _ in range(power):
                acc = acc * base
            base = acc
        return base

    def term() -> MPoly:
        acc = factor()
        while peek()[0] == "*":
            take()
            acc = acc * factor()
        return acc

    def expr() -> MPoly:
        neg = False
        if peek()[0] in "+-":
            neg = take()[0] == "-"
        acc = term()
        if neg:
            acc = -acc
        while peek()[0] in "+-":
            op = take()[0]
            rhs = term()
            acc = acc - rhs if op == "-" else acc + rhs
        return acc

    result = expr()
    take("end")
    return result


def parse_tpoly(text: str, field) -> Poly:
    from .poly import Poly

    m = parse_mpoly(text, field, 1, var_prefix="t")
    coeffs = [0] * (max((e[0] for e in m.terms), default=0) + 1)
    for (e,), c in m.terms.items():
        coeffs[e] = c
    return Poly(field, coeffs)


def parse_place(text: str, field) -> Place:
    from .place import Place

    text = text.strip()
    if text in ("inf", "infinity", "oo"):
        return Place.infinity(field)
    return Place.finite(parse_tpoly(text, field).monic())


def parse_window(text: str) -> Window:
    from .localfield import Window

    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("window must be 'N,M'")
    return Window(int(parts[0]), int(parts[1]))


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _value_json(v) -> object:
    if isinstance(v, CycScalar):
        return {"zeta_coeffs": v.to_json(), "pretty": repr(v)}
    return v


# exit code of a run whose checks compared nothing: neither a pass nor a fail
EXIT_NOTHING_COMPARED = 4


def _verdict(flags) -> bool | None:
    """all(flags), or None when there is nothing to compare."""
    flags = list(flags)
    return all(flags) if flags else None


def emit_report(report: dict, args) -> int:
    text = json.dumps(report, indent=2, sort_keys=True, default=_value_json)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    if getattr(args, "format", "json") == "csv":
        import csv

        buf = io.StringIO()
        rows = report.get("rows", [])
        if rows:
            keys = sorted({k for row in rows for k in row})
            writer = csv.DictWriter(buf, fieldnames=keys)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: str(row.get(k, "")) for k in keys})
        csv_text = buf.getvalue()
        if args.out:
            with open(args.out + ".csv", "w") as fh:
                fh.write(csv_text)
        else:
            sys.stdout.write(csv_text)
    # reports without an "all_equal" verdict (charsum, local-fourier without
    # --check-inversion) only compute values
    verdict = report.get("all_equal", True)
    if verdict is None:
        return EXIT_NOTHING_COMPARED
    return 0 if verdict else 1


def base_report(command: str, args, keys: list[str]) -> dict:
    config = {"command": command}
    for k in keys:
        config[k] = getattr(args, k.replace("-", "_"), None)
    return {"command": command, "config": config, "version": __version__}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_charsum(args) -> int:
    from .motivic import ConstructibleSet, MotivicClass

    field = make_field(args.p, args.e)
    nvars = args.m
    eqs = [parse_mpoly(s, field, nvars) for s in args.eq or []]
    neqs = [parse_mpoly(s, field, nvars) for s in args.neq or []]
    X = ConstructibleSet(field, nvars, eqs, neqs)
    h = parse_mpoly(args.h, field, nvars)
    cls = MotivicClass.generator(X, h).shift_L(args.lshift)
    rows = []
    for d in range(1, args.degrees + 1):
        val = cls.specialize(d)
        rows.append({"degree": d, "value": _value_json(val)})
    report = base_report(
        "charsum", args, ["p", "e", "m", "eq", "neq", "h", "lshift", "degrees"]
    )
    report["rows"] = rows
    return emit_report(report, args)


def _named_set(name: str, field, args) -> ConstructibleSet:
    from .motivic import ConstructibleSet

    if name == "a1":
        return ConstructibleSet.affine_line(field)
    if name == "gm":
        return ConstructibleSet.punctured_line(field)
    if name == "custom":
        eqs = [parse_mpoly(s, field, args.m) for s in args.eq or []]
        neqs = [parse_mpoly(s, field, args.m) for s in args.neq or []]
        return ConstructibleSet(field, args.m, eqs, neqs)
    raise ParseError(f"unknown set {name!r}; use a1, gm, or custom")


def cmd_euler(args) -> int:
    from .motivic import ClassFamily, euler_product

    field = make_field(args.p, args.e)
    X = _named_set(args.set, field, args)
    if args.family == "one":
        fam = ClassFamily.one(field, X.nvars)
    elif args.family == "zero":
        fam = ClassFamily.zero(field, X.nvars)
    elif args.family.startswith("psi:"):
        fam = ClassFamily.character(field, X.nvars, parse_mpoly(args.family[4:], field, X.nvars))
    else:
        raise ParseError("family must be one, zero, or psi:<poly>")
    lhs, rhs = euler_product(X, fam, args.precision)
    report = base_report("euler", args, ["p", "e", "set", "family", "precision"])
    report["rows"] = [
        {"t_power": k, "lhs": _value_json(a), "rhs": _value_json(b), "equal": a == b}
        for k, (a, b) in enumerate(zip(lhs, rhs))
    ]
    report["all_equal"] = _verdict(row["equal"] for row in report["rows"])
    return emit_report(report, args)


def cmd_local_fourier(args) -> int:
    from .localfield import LocalTestFunction, flip, fourier_multi
    from .place import PlaceData

    if args.infile:
        phi = local_fn_from_json(_read_json(args.infile))
        # the report's config describes the function that was read
        base = phi.pd.base
        args = argparse.Namespace(**vars(args))
        args.p, args.e, args.d, args.nu = base.p, base.e, phi.pd.d, phi.pd.nu
        args.window, args.arity = f"{phi.window.N},{phi.window.M}", phi.arity
        args.delta = None
    else:
        pd = PlaceData.synthetic(make_field(args.p, args.e), args.d, args.nu)
        win = parse_window(args.window)
        if args.delta is not None:
            if args.arity != 1:
                raise ParseError("--delta gives a function of one variable; --arity must be 1")
            phi = LocalTestFunction.delta(pd, win, args.delta)
        else:
            phi = LocalTestFunction.indicator_integral(pd, win, args.arity)
    out = fourier_multi(phi)
    report = base_report(
        "local-fourier", args, ["p", "e", "d", "nu", "window", "arity", "delta"]
    )
    report["result"] = local_fn_to_json(out)
    if args.check_inversion:
        # F(F(phi))(x) = phi(-x)
        ok = fourier_multi(out).table_equal(flip(phi))
        report["inversion_exact"] = ok
        report["all_equal"] = ok
    return emit_report(report, args)


def local_fn_to_json(phi: LocalTestFunction) -> dict:
    return {
        "q": phi.pd.base.q,
        "d": phi.pd.d,
        "nu": phi.pd.nu,
        "window": [phi.window.N, phi.window.M],
        "arity": phi.arity,
        "table": [v.to_json() for v in phi.values],
    }


def local_fn_from_json(data: dict) -> LocalTestFunction:
    from .localfield import LocalTestFunction, Window
    from .place import PlaceData

    where = "local function"
    p, e = _pq_split(_json_get(data, "q", int, where))
    field = make_field(p, e)
    pd = PlaceData.synthetic(
        field, _json_get(data, "d", int, where), _json_get(data, "nu", int, where)
    )
    window = _json_get(data, "window", list, where)
    if len(window) != 2 or not _all_ints(window):
        raise ParseError(f"{where}: 'window' must be a list [N, M] of two integers")
    arity = _json_get(data, "arity", int, where)
    values = _table_from_json(p, _json_get(data, "table", list, where), where)
    return LocalTestFunction(pd, Window(*window), arity, values)


def global_fn_from_json(field, data: dict) -> GlobalTestFunction:
    """GlobalTestFunction.from_json, after checking the wire schema."""
    from .globalfield import GlobalTestFunction

    where = "global function"
    q = _json_get(data, "q", int, where)
    if q != field.q:
        raise ParseError(f"{where}: the file's field has q = {q}, the run's has q = {field.q}")
    for i, entry in enumerate(_json_get(data, "places", list, where)):
        at = f"{where}: places[{i}]"
        poly = _json_get(entry, "poly", None, at)
        if poly != "inf" and not (isinstance(poly, list) and _all_ints(poly)):
            raise ParseError(f"{at}: 'poly' must be \"inf\" or a list of integers")
        _json_get(entry, "N", int, at)
        _json_get(entry, "M", int, at)
    _json_get(data, "arity", int, where)
    _table_from_json(field.p, _json_get(data, "table", list, where), where)
    return GlobalTestFunction.from_json(field, data)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: bad JSON: {exc.msg}"
        ) from None


def _all_ints(values) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


_JSON_KINDS = {int: "an integer", list: "a list"}


def _json_get(data, key: str, kind, where: str):
    """data[key], which must exist and (unless kind is None) be a kind."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected a JSON object")
    if key not in data:
        raise ParseError(f"{where}: missing key {key!r}")
    value = data[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}")
    return value


def _table_from_json(p: int, table: list, where: str) -> list[CycScalar]:
    """Table entries: p - 1 pairs [numerator, denominator] each."""
    values = []
    for i, rec in enumerate(table):
        if not (
            isinstance(rec, list)
            and len(rec) == p - 1
            and all(isinstance(r, list) and len(r) == 2 and _all_ints(r) and r[1] for r in rec)
        ):
            raise ParseError(
                f"{where}: table[{i}] must list {p - 1} integer pair(s)"
                " [numerator, denominator] with nonzero denominators"
            )
        values.append(CycScalar.from_json(p, rec))
    return values


def _pq_split(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if q != 1:
                raise ParseError("q must be a prime power")
            return p, e
    raise ParseError("q must be a prime power")


def cmd_poisson(args) -> int:
    from .globalfield import poisson_family, poisson_report

    field = make_field(args.p, args.e)
    rows = []
    if args.infile:
        phi = global_fn_from_json(field, _read_json(args.infile))
        rep = poisson_report(phi, args.max_enum)
        rows.append(
            {
                "function": "input",
                "lhs": _value_json(rep["lhs"]),
                "rhs": _value_json(rep["rhs"]),
                "equal": rep["equal"],
            }
        )
    else:
        places = [parse_place(s, field) for s in args.places.split(";")]
        win = parse_window(args.window)
        watchdog = _Watchdog(args.timeout)
        family = poisson_family(field, places, win, args.max_enum, watchdog.check)
        for label, lhs, rhs in family:
            rows.append(
                {
                    "function": label,
                    "lhs": _value_json(lhs),
                    "rhs": _value_json(rhs),
                    "equal": lhs == rhs,
                }
            )
    report = base_report(
        "poisson", args, ["p", "e", "places", "window", "max_enum"]
    )
    report["rows"] = rows
    report["all_equal"] = _verdict(row["equal"] for row in rows)
    return emit_report(report, args)


def cmd_alg_check(args) -> int:
    import random

    from .cyclic_algebra import (
        AlgebraDescriptor,
        AlgebraElement,
        AlgebraJet,
        reduced_char_polys,
        w_valuation,
    )
    from .poly import RationalFn

    field = make_field(args.p, args.e)
    desc = AlgebraDescriptor(field, args.n, args.exponent)
    rng = random.Random(args.seed)
    depth = args.depth * desc.n
    violations = 0
    checked = 0
    for _ in range(args.samples):
        a = AlgebraJet(desc, 0, depth, [rng.randrange(desc.L.q) for _ in range(depth)])
        b = AlgebraJet(desc, 0, depth, [rng.randrange(desc.L.q) for _ in range(depth)])
        wa, wb = w_valuation(a), w_valuation(b)
        if wa is None or wb is None or wa + wb >= depth:
            continue
        checked += 1
        if w_valuation(a * b) != wa + wb:
            violations += 1
    (cp,) = reduced_char_polys(desc, [AlgebraElement.s(desc)])
    t = RationalFn.t(field)
    expected = [-t] + [RationalFn.zero(field)] * (desc.n - 1) + [RationalFn.one(field)]
    # Nrd = (-1)^n c_0, and c_0 = -t, so Nrd(s) = (-1)^(n-1) t: -t at n = 2
    nrd = cp[0] if desc.n % 2 == 0 else -cp[0]
    nrd_label, nrd_expected = ("Nrd(s) = t", t) if desc.n % 2 else ("Nrd(s) = -t", -t)
    report = base_report(
        "alg-check", args, ["p", "e", "n", "exponent", "samples", "seed", "depth"]
    )
    report["rows"] = [
        {
            "check": "w_valuation additive",
            "pairs_checked": checked,
            "violations": violations,
            # no pair checked: the row compares nothing
            "equal": violations == 0 if checked else None,
        },
        {"check": "charpoly(s) = X^n - t", "equal": cp == expected},
        {"check": nrd_label, "equal": nrd == nrd_expected},
    ]
    report["all_equal"] = _verdict(
        row["equal"] for row in report["rows"] if row["equal"] is not None
    )
    return emit_report(report, args)


def cmd_theorem_a(args) -> int:
    from .cyclic_algebra import (
        AlgebraDescriptor,
        RecipeCharPolyCoset,
        RecipeConst,
        RecipePsiTrace,
        default_pair_list,
        target_s_charpoly,
        theorem_a_report,
    )

    if args.n == 2:
        raise ParseError(
            "theorem-a compares two forms, but at n = 2 the only nonzero generator"
            " exponent mod n is 1: there is one form"
        )
    field = make_field(args.p, args.e)
    exps = [int(x) for x in args.exponents.split(",")]
    if len(exps) != 2 or exps[0] % args.n == exps[1] % args.n:
        raise ParseError("need two distinct generator exponents")
    desc = AlgebraDescriptor(field, args.n, exps[0])
    desc_dot = AlgebraDescriptor(field, args.n, exps[1])
    win = parse_window(args.window)
    pairs = default_pair_list(desc, desc_dot, count=args.pairs, seed=args.seed)
    recipes = []
    for name in args.recipes.split(","):
        if name == "const":
            recipes.append(RecipeConst())
        elif name == "psi_trace":
            recipes.append(RecipePsiTrace())
        elif name == "charpoly_coset":
            recipes.append(RecipeCharPolyCoset(target_s_charpoly(desc, win.M)))
        else:
            raise ParseError(f"unknown recipe {name!r}")
    rows = []
    watchdog = _Watchdog(args.timeout)
    for recipe in recipes:
        watchdog.check(f"recipe {recipe.name}")
        for row in theorem_a_report(desc, desc_dot, recipe, pairs, win):
            out = dict(row)
            if "value_D" in out:
                out["value_D"] = _value_json(out["value_D"])
                out["value_D_dot"] = _value_json(out["value_D_dot"])
            rows.append(out)
    report = base_report(
        "theorem-a",
        args,
        ["p", "e", "n", "exponents", "recipes", "window", "pairs", "seed"],
    )
    report["rows"] = rows
    # rows of pairs that are not regular semisimple carry no "equal" flag
    report["all_equal"] = _verdict(row["equal"] for row in rows if "equal" in row)
    return emit_report(report, args)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_field_args(sp, default_p=2):
    sp.add_argument("--p", type=int, default=default_p, help="characteristic")
    sp.add_argument("--e", type=int, default=1, help="extension degree: q = p^e")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffpoisson",
        description="Exact function-field harmonic analysis checks",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("charsum", parents=[common], help="specialize a class [X,h] at degrees 1..D")
    _add_field_args(sp)
    sp.add_argument("--m", type=int, default=1, help="number of variables")
    sp.add_argument("--eq", action="append", help="equation polynomial (repeatable)")
    sp.add_argument("--neq", action="append", help="inequation polynomial (repeatable)")
    sp.add_argument("--h", default="0", help="the exponent polynomial")
    sp.add_argument("--lshift", type=int, default=0)
    sp.add_argument("--degrees", type=int, default=3)
    sp.set_defaults(func=cmd_charsum)

    sp = sub.add_parser("euler", parents=[common], help="closed-point product vs stable-subset series")
    _add_field_args(sp)
    sp.add_argument("--set", default="a1", help="a1, gm, or custom (with --eq/--neq)")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--eq", action="append")
    sp.add_argument("--neq", action="append")
    sp.add_argument("--family", default="one", help="one, zero, or psi:<poly>")
    sp.add_argument("--precision", type=int, default=4)
    sp.set_defaults(func=cmd_euler)

    sp = sub.add_parser("local-fourier", parents=[common], help="transform a local test function")
    _add_field_args(sp)
    sp.add_argument("--d", type=int, default=1, help="residue degree")
    sp.add_argument("--nu", type=int, default=0, help="duality exponent (even)")
    sp.add_argument("--window", default="1,1")
    sp.add_argument("--arity", type=int, default=1)
    sp.add_argument("--delta", type=int, default=None, help="delta at this jet index")
    sp.add_argument("--in", dest="infile", help="serialized function JSON")
    sp.add_argument("--check-inversion", action="store_true")
    sp.set_defaults(func=cmd_local_fourier)

    sp = sub.add_parser("poisson", parents=[common], help="rational-point sum vs transformed sum")
    _add_field_args(sp)
    sp.add_argument(
        "--places", default="t;inf", help="semicolon-separated places, e.g. 't;t+1;inf'"
    )
    sp.add_argument("--window", default="1,1")
    sp.add_argument("--in", dest="infile", help="global test function JSON")
    sp.add_argument("--max-enum", type=int, default=1 << 20)
    sp.add_argument("--timeout", type=float, default=None, help="wall-clock budget in seconds")
    sp.set_defaults(func=cmd_poisson)

    sp = sub.add_parser("alg-check", parents=[common], help="division-algebra structure checks")
    _add_field_args(sp)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--exponent", type=int, default=1)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--depth", type=int, default=4, help="t-adic truncation depth")
    sp.set_defaults(func=cmd_alg_check)

    sp = sub.add_parser("theorem-a", parents=[common], help="matched transform values on both forms")
    _add_field_args(sp)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--exponents", default="1,2")
    sp.add_argument("--recipes", default="const,psi_trace,charpoly_coset")
    sp.add_argument("--window", default="0,2")
    sp.add_argument("--pairs", type=int, default=20)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--timeout", type=float, default=None, help="wall-clock budget in seconds")
    sp.set_defaults(func=cmd_theorem_a)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (TimeoutExceeded, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
