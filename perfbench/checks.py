"""Output checks made apart from the program.

Each check takes what the program produced (a parsed JSON report, or tables
of exact coefficients) and returns a list of problems, empty when the output
is right.  The expected values come from closed forms computed here, with
this module's own arithmetic in Q(zeta_p); nothing is imported from
ffpoisson.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction


def scalar(value: dict) -> tuple[Fraction, ...]:
    """A report's exact value as its coefficients on 1, zeta, .., zeta^(p-2)."""
    return tuple(Fraction(n, d) for n, d in value["zeta_coeffs"])


def _rational(p: int, x) -> tuple[Fraction, ...]:
    return (Fraction(x),) + (Fraction(0),) * (p - 2)


# -- Q(zeta_3) on the basis 1, zeta, with zeta^2 = -1 - zeta -------------------


def _mul3(a, b):
    (a0, a1), (b0, b1) = a, b
    return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 - a1 * b1)


def _pow3(a, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = _mul3(out, a)
    return out


# -- poisson -------------------------------------------------------------------

_DEPTH = re.compile(r":m(\d+):\d+")


def check_poisson(report: dict, q: int, place_degrees: list[int], N: int, M: int) -> list[str]:
    """Every simple coset indicator on places of the given degrees, window
    (N, M): every row equal, the right number of rows for each depth pattern,
    and for each pattern the cosets partition the jet space, so the lhs values
    and the rhs values each sum to q^(deg D + 1) with D = sum N [u] (genus 0)."""
    problems = []
    rows = report.get("rows", [])
    sizes = [q**deg for deg in place_degrees]
    expected_rows = 1
    for qu in sizes:
        expected_rows *= qu ** (N + M) + sum(qu ** (N + m) for m in range(M))
    if len(rows) != expected_rows:
        problems.append(f"poisson q={q}: {len(rows)} rows, expected {expected_rows}")
    if not report.get("all_equal"):
        problems.append(f"poisson q={q}: all_equal is not true")
    total = q ** (N * sum(place_degrees) + 1)
    sums = defaultdict(lambda: [Fraction(0), Fraction(0), 0])
    for row in rows:
        lhs, rhs = scalar(row["lhs"]), scalar(row["rhs"])
        if lhs != rhs or row.get("equal") is not True:
            problems.append(f"poisson q={q}: row {row.get('function')} is not equal")
        if any(lhs[1:]) or any(rhs[1:]):
            problems.append(f"poisson q={q}: row {row.get('function')} is not rational")
        pattern = tuple(int(m) for m in _DEPTH.findall(row.get("function", "")))
        acc = sums[pattern]
        acc[0] += lhs[0]
        acc[1] += rhs[0]
        acc[2] += 1
    for pattern, (lhs_sum, rhs_sum, count) in sorted(sums.items()):
        want = 1
        if len(pattern) == len(sizes):
            for qu, m in zip(sizes, pattern):
                want *= qu ** (N + m)
        if len(pattern) != len(sizes) or count != want:
            problems.append(f"poisson q={q}: depth pattern {pattern} has {count} rows")
            continue
        if lhs_sum != total or rhs_sum != total:
            problems.append(
                f"poisson q={q}: depth pattern {pattern} sums to {lhs_sum} | {rhs_sum}, expected {total}"
            )
    return problems


# -- theorem-a ---------------------------------------------------------------------


def check_theorem_a(report: dict, pairs: int, regular: int, recipes: list[str]) -> list[str]:
    """All rows of the regular pairs are ok and equal across the two forms;
    the b*s pairs, whose char poly X^n - N(b) t is inseparable when p = n,
    are the only skipped ones."""
    problems = []
    rows = report.get("rows", [])
    if len(rows) != pairs * len(recipes):
        problems.append(f"theorem-a: {len(rows)} rows, expected {pairs * len(recipes)}")
    ok = [r for r in rows if r.get("status") == "ok"]
    if len(ok) != regular * len(recipes):
        problems.append(f"theorem-a: {len(ok)} ok rows, expected {regular * len(recipes)}")
    if not report.get("all_equal"):
        problems.append("theorem-a: all_equal is not true")
    for row in rows:
        tag = f"theorem-a: pair {row.get('pair')} recipe {row.get('recipe')}"
        if row.get("status") == "ok":
            if row.get("equal") is not True or scalar(row["value_D"]) != scalar(row["value_D_dot"]):
                problems.append(f"{tag}: the two forms differ")
        elif row.get("provenance") != "bs-form":
            problems.append(f"{tag}: skipped ({row.get('status')})")
    return problems


# -- local inversion -------------------------------------------------------------------


def negated_index(idx: int, p: int, digits: int) -> int:
    """The index of -x: jet indices are base-p numbers whose digits are the
    F_p-coordinates of the jet, so negation flips every digit."""
    out, scale = 0, 1
    for _ in range(digits):
        idx, digit = divmod(idx, p)
        out += (-digit % p) * scale
        scale *= p
    return out


def base_p_digits(size: int, p: int) -> int:
    digits = 0
    while size > 1:
        size, rest = divmod(size, p)
        if rest:
            raise ValueError("table size is not a power of p")
        digits += 1
    return digits


def check_inversion(label: str, table, twice, p: int) -> list[str]:
    """F(F(phi))(x) = phi(-x); tables are lists of coefficient tuples."""
    if len(table) != len(twice):
        return [f"{label}: F(F(phi)) has {len(twice)} entries, expected {len(table)}"]
    digits = base_p_digits(len(table), p)
    for idx, value in enumerate(twice):
        if value != table[negated_index(idx, p, digits)]:
            return [f"{label}: F(F(phi)) differs from phi(-x) at index {idx}"]
    return []


def check_delta_inversion(label: str, k: int, twice, p: int) -> list[str]:
    """F(F(delta_k)) = delta_k(-x), which is 1 at -k and 0 elsewhere."""
    target = negated_index(k, p, base_p_digits(len(twice), p))
    for idx, value in enumerate(twice):
        want_one = idx == target
        if (value[0] != 1 or any(value[1:])) if want_one else any(value):
            return [f"{label}: F(F(delta)) differs from delta(-x) at index {idx}"]
    return []


def check_nowhere_zero(label: str, table) -> list[str]:
    """The transform of a delta is a scaled character: no entry vanishes."""
    for idx, value in enumerate(table):
        if not any(value):
            return [f"{label}: F(delta) vanishes at index {idx}"]
    return []


# -- motivic ---------------------------------------------------------------------------


def euler_expected(p: int, set_name: str, family: str, precision: int):
    """Coefficients of prod_v (1 + a(v) t^deg v) = L(t) / L_{a^2}(t^2):
    A^1 with 1 gives (1 - q t^2)/(1 - q t); G_m with psi(x) gives
    (1 - 2t^2)/(1 + t) at p = 2 and 1/(1 + t) at p = 3."""
    q = p
    out = []
    for k in range(precision + 1):
        if (set_name, family) == ("a1", "one"):
            c = 1 if k == 0 else q**k - (q ** (k - 1) if k >= 2 else 0)
        elif (set_name, family, p) == ("gm", "psi:x0", 2):
            c = (-1) ** k - (2 * (-1) ** k if k >= 2 else 0)
        elif (set_name, family, p) == ("gm", "psi:x0", 3):
            c = (-1) ** k
        else:
            raise ValueError(f"no closed form for {set_name} {family} at p = {p}")
        out.append(_rational(p, c))
    return out


def charsum_expected(p: int, h: str, degrees: int):
    """S_d = sum over F_{p^d} of psi(h(x)).  x^2 at p = 3: the Gauss sum
    S_1 = 1 + 2 zeta and S_d = -(-S_1)^d (Hasse-Davenport).  x^3 at p = 2:
    cubing is a bijection for odd d, so S_d = 0; S_d = -2 (-2)^(d/2) for even d."""
    out = []
    for d in range(1, degrees + 1):
        if (p, h) == (3, "x0^2"):
            minus_s1 = (Fraction(-1), Fraction(-2))
            power = _pow3(minus_s1, d)
            out.append((-power[0], -power[1]))
        elif (p, h) == (2, "x0^3"):
            out.append(_rational(2, 0 if d % 2 else -2 * (-2) ** (d // 2)))
        else:
            raise ValueError(f"no closed form for {h} at p = {p}")
    return out


def check_euler(report: dict, p: int, set_name: str, family: str, precision: int) -> list[str]:
    tag = f"euler p={p} {set_name} {family}"
    want = euler_expected(p, set_name, family, precision)
    rows = report.get("rows", [])
    if len(rows) != len(want):
        return [f"{tag}: {len(rows)} coefficients, expected {len(want)}"]
    problems = []
    if not report.get("all_equal"):
        problems.append(f"{tag}: all_equal is not true")
    for row, w in zip(rows, want):
        k = row.get("t_power")
        if scalar(row["lhs"]) != w or scalar(row["rhs"]) != w or row.get("equal") is not True:
            problems.append(f"{tag}: t^{k} coefficient differs from the closed form {w}")
    return problems


def check_charsum(report: dict, p: int, h: str, degrees: int) -> list[str]:
    tag = f"charsum p={p} {h}"
    want = charsum_expected(p, h, degrees)
    rows = report.get("rows", [])
    if len(rows) != len(want):
        return [f"{tag}: {len(rows)} degrees, expected {len(want)}"]
    problems = []
    if (p, h) == (3, "x0^2") and _mul3(scalar(rows[0]["value"]), scalar(rows[0]["value"])) != (-3, 0):
        problems.append(f"{tag}: S_1^2 is not -3")
    for row, w in zip(rows, want):
        if scalar(row["value"]) != w:
            problems.append(f"{tag}: S_{row.get('degree')} differs from the closed form {w}")
    return problems
