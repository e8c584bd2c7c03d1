"""Each output check passes on the program's real output and fails on a
deliberately wrong one: one case per part of a workload, on small
configurations."""

import copy
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from ffpoisson import localfield as lf  # noqa: E402
from ffpoisson.cli import main as cli_main  # noqa: E402
from ffpoisson.place import PlaceData  # noqa: E402
from ffpoisson.scalars import CycScalar, make_field  # noqa: E402


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli_main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def _bump(value: dict, by: int = 1) -> dict:
    (n, d), *rest = value["zeta_coeffs"]
    return {"zeta_coeffs": [[n + by * d, d], *rest]}


def test_euler_coefficient_off_by_one(tmp_path):
    report = _report(tmp_path, ["euler", "--p", "2", "--set", "a1", "--family", "one", "--precision", "5"])
    assert checks.check_euler(report, 2, "a1", "one", 5) == []
    wrong = copy.deepcopy(report)
    row = wrong["rows"][3]
    row["lhs"] = row["rhs"] = _bump(row["lhs"])
    problems = checks.check_euler(wrong, 2, "a1", "one", 5)
    assert any("t^3" in p for p in problems)


def test_charsum_closed_form(tmp_path):
    report = _report(tmp_path, ["charsum", "--p", "3", "--h", "x0^2", "--degrees", "4"])
    assert checks.check_charsum(report, 3, "x0^2", 4) == []
    wrong = copy.deepcopy(report)
    wrong["rows"][2]["value"] = _bump(wrong["rows"][2]["value"])
    assert any("S_3" in p for p in checks.check_charsum(wrong, 3, "x0^2", 4))


def test_poisson_partition_sum_with_a_row_missing(tmp_path):
    report = _report(tmp_path, ["poisson", "--p", "2", "--places", "t;inf", "--window", "1,1"])
    assert checks.check_poisson(report, 2, [1, 1], 1, 1) == []
    wrong = copy.deepcopy(report)
    missing = next(i for i, r in enumerate(wrong["rows"]) if checks.scalar(r["lhs"])[0] != 0)
    del wrong["rows"][missing]
    problems = checks.check_poisson(wrong, 2, [1, 1], 1, 1)
    assert any("36" in p for p in problems)  # the row count
    assert any("sums to" in p or "has" in p for p in problems)  # the depth pattern


def test_inversion_read_at_plus_x_fails_at_p3():
    pd = PlaceData.synthetic(make_field(3), 1, 0)
    win = lf.Window(1, 1)
    rng = random.Random(7)
    table = [(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])), Fraction(rng.randint(-5, 5)))
             for _ in range(lf.jet_space_size(pd, win))]
    phi = lf.LocalTestFunction(pd, win, 1, [CycScalar(3, c) for c in table])
    twice = [v.coeffs for v in lf.fourier_multi(lf.fourier_multi(phi)).values]
    assert checks.check_inversion("dense", table, twice, 3) == []
    # phi read at +x: what F(F(phi)) would be if inversion gave phi(x)
    assert checks.check_inversion("dense", table, table, 3) != []
    once = lf.fourier1(lf.LocalTestFunction.delta(pd, win, 1))
    twice = [v.coeffs for v in lf.fourier1(once).values]
    assert checks.check_nowhere_zero("delta", [v.coeffs for v in once.values]) == []
    assert checks.check_delta_inversion("delta", 1, twice, 3) == []
    at_plus_x = [(Fraction(int(i == 1)), Fraction(0)) for i in range(len(twice))]
    assert checks.check_delta_inversion("delta", 1, at_plus_x, 3) != []


def test_negated_index_flips_base_p_digits():
    pd = PlaceData.synthetic(make_field(3), 2, 0)
    win = lf.Window(1, 1)
    D = lf.jet_space_size(pd, win)
    digits = checks.base_p_digits(D, 3)
    for k in range(D):
        want = lf.jet_to_index(-lf.index_to_jet(pd, win, k))
        assert checks.negated_index(k, 3, digits) == want


def test_theorem_a_one_mismatched_value(tmp_path):
    report = _report(tmp_path, ["theorem-a", "--p", "2", "--n", "3", "--window", "0,1", "--pairs", "4"])
    recipes = ["const", "psi_trace", "charpoly_coset"]
    assert checks.check_theorem_a(report, 4, 4, recipes) == []
    wrong = copy.deepcopy(report)
    wrong["rows"][5]["value_D_dot"] = _bump(wrong["rows"][5]["value_D_dot"])
    problems = checks.check_theorem_a(wrong, 4, 4, recipes)
    assert any("pair" in p and "differ" in p for p in problems)
