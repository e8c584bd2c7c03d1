"""The acceptance gate: one test per criterion, each printing a PASS line
with its runtime against the stated budget.  Everything is exact; no
tolerances beyond equality."""

import itertools
import json
import time
from fractions import Fraction

import pytest

from ffpoisson.cli import main as cli_main
from ffpoisson.cyclic_algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    AlgebraJet,
    RecipeCharPolyCoset,
    RecipeConst,
    RecipePsiTrace,
    default_pair_list,
    reduced_char_polys,
    target_s_charpoly,
    theorem_a_report,
    w_valuation,
)
from ffpoisson.globalfield import (
    Divisor,
    GlobalTestFunction,
    delta_K,
    global_fourier,
    indicator_everywhere_integral,
    poisson_report,
    rr_basis,
    simple_coset_functions,
)
from ffpoisson.localfield import (
    LocalTestFunction,
    Window,
    fourier1,
    index_to_jet,
    jet_space_size,
    jet_to_index,
    residue_trace,
)
from ffpoisson.motivic import (
    ClassFamily,
    ClosedPoint,
    ConstructibleSet,
    MPoly,
    closed_points,
    euler_product,
    orbit_norm_value,
)
from ffpoisson.place import Place, PlaceData, place_data
from ffpoisson.poly import Poly, RationalFn
from ffpoisson.scalars import CycScalar, cyc_normalize, make_field, psi


def _report(n, label, elapsed, limit):
    print(f"PASS criterion {n}: {label} ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit, f"criterion {n} exceeded its runtime budget"


def test_criterion_01_character_relations():
    t0 = time.time()
    for p, e in [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]:
        F = make_field(p, e)
        total = CycScalar.zero(p)
        for x in F.elements():
            total = total + psi(x)
            for y in F.elements():
                assert psi(x + y) == psi(x) * psi(y)
        assert total.is_zero()
    _report(1, "character sums vanish and psi is additive, q in {2,3,4,8,9}", time.time() - t0, 1.0)


def test_criterion_02_local_fourier_inversion():
    t0 = time.time()
    one_lookup = {}
    for p in (2, 3):
        field = make_field(p)
        one = CycScalar.one(p)
        for d in (1, 2):
            for nu in (0, 2):
                pd = PlaceData.synthetic(field, d, nu)
                for N in range(0, 4):
                    for M in range(nu, 4):
                        if not 1 <= N + M <= 3:
                            continue
                        win = Window(N, M)
                        D = jet_space_size(pd, win)
                        flip = [
                            jet_to_index(-index_to_jet(pd, win, k)) for k in range(D)
                        ]
                        for k in range(D):
                            out = fourier1(
                                fourier1(LocalTestFunction.delta(pd, win, k))
                            )
                            assert out.window == win
                            assert out.values[flip[k]] == one
                            assert (
                                sum(0 if v.is_zero() else 1 for v in out.values) == 1
                            )
    _report(2, "F(F(phi)) = phi(-x) on full delta bases", time.time() - t0, 10.0)


def _poisson_places(field):
    out = [Place.at(field, 0), Place.at(field, 1), Place.infinity(field)]
    pi = Poly(field, (1, 1, 1))
    if pi.is_irreducible():
        out.append(Place.finite(pi))
    return out


def test_criterion_03_poisson_summation():
    t0 = time.time()
    for p in (2, 3):
        field = make_field(p)
        places = _poisson_places(field)
        for label, phi in simple_coset_functions(field, places, Window(1, 1)):
            rep = poisson_report(phi)
            assert rep["equal"], f"q={p} {label}"
    # the designed Case-2 fixture: both sides vanish
    F2 = make_field(2)
    pi2 = Place.finite(Poly(F2, (1, 1, 1)))
    pd = place_data(pi2)
    theta = next(z for z in pd.ku.elements() if pi2.poly.eval(z).is_zero())
    vals = [
        CycScalar.one(2) if c == theta.code else CycScalar.zero(2) for c in range(4)
    ]
    fixture = GlobalTestFunction(F2, [(pi2, Window(0, 1))], 1, vals)
    rep = poisson_report(fixture)
    assert rep["equal"] and rep["lhs"].is_zero() and rep["rhs"].is_zero()
    _report(3, "Poisson identity on every simple coset indicator + Case-2 fixture", time.time() - t0, 60.0)


def test_criterion_04_case1_scalar():
    t0 = time.time()
    F2 = make_field(2)
    P0, P1, INF = Place.at(F2, 0), Place.at(F2, 1), Place.infinity(F2)
    for depths in ({P0: 0, INF: 0}, {P0: 1, INF: 0}, {P0: 1, P1: 1, INF: 0}):
        deg = sum(depths.values())
        support = sorted(
            [(u, Window(1, 1)) for u in depths], key=lambda pw: pw[0].sort_key()
        )
        sizes = [jet_space_size(place_data(u), w) for u, w in support]
        total = 1
        for s in sizes:
            total *= s
        vals = []
        for idx in range(total):
            digits = []
            k = idx
            for D in reversed(sizes):
                digits.append(k % D)
                k //= D
            digits.reverse()
            keep = True
            for (u, w), j in zip(support, digits):
                jet = index_to_jet(place_data(u), w, j)
                for lev in range(-w.N, -depths[u]):
                    if not jet.coeff(lev).is_zero():
                        keep = False
            vals.append(CycScalar.one(2) if keep else CycScalar.zero(2))
        phi = GlobalTestFunction(F2, support, 1, vals)
        out = global_fourier(phi)
        scale = CycScalar.rational(2, 2 ** (deg + 1))
        for idx, v in enumerate(out.values):
            digits = []
            k = idx
            out_sizes = [jet_space_size(place_data(u), w) for u, w in out.support()]
            for D in reversed(out_sizes):
                digits.append(k % D)
                k //= D
            digits.reverse()
            in_dual = True
            for (u, w), j in zip(out.support(), digits):
                jet = index_to_jet(place_data(u), w, j)
                bound = depths[u] + place_data(u).nu
                for lev in range(-w.N, min(bound, w.M)):
                    if not jet.coeff(lev).is_zero():
                        in_dual = False
            assert v == (scale if in_dual else CycScalar.zero(2))
    _report(4, "F(integer indicator) = q^(deg D + 1) x dual indicator, deg D in {0,1,2}", time.time() - t0, 10.0)


def test_criterion_05_rational_point_functional():
    t0 = time.time()
    for p, e in [(2, 1), (3, 1), (2, 2)]:
        field = make_field(p, e)
        phi = indicator_everywhere_integral(
            field, [Place.infinity(field), Place.at(field, 0)]
        )
        assert delta_K(phi) == CycScalar.rational(p, field.q)
    _report(5, "delta_K of the integral indicator counts the constants, q in {2,3,4}", time.time() - t0, 10.0)


def _power_series(num, den, B):
    """Coefficients of num/den up to t^B; integer polynomials as coefficient
    lists, low degree first, with den[0] = 1."""
    out = []
    for k in range(B + 1):
        c = Fraction(num[k] if k < len(num) else 0)
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c)
    return out


def test_criterion_06_euler_product():
    t0 = time.time()
    for p in (2, 3):
        field = make_field(p)
        q = field.q
        # closed forms: the zeta function of A^1 and of G_m, and the
        # character sums over them (Z(A^1, psi) = 1 - 2t^2 at p = 2, where
        # psi(x) = (-1)^Tr(x), and 1 at p = 3)
        zeta_num = [1, 0, -q]
        psi_num = [1, 0, -2] if p == 2 else [1]
        expected = {
            ("a1", "one"): _power_series(zeta_num, [1, -q], 4),
            ("gm", "one"): _power_series(zeta_num, [1, 1 - q, -q], 4),
            ("a1", "psi"): _power_series(psi_num, [1], 4),
            ("gm", "psi"): _power_series(psi_num, [1, 1], 4),
        }
        for name, X in (
            ("a1", ConstructibleSet.affine_line(field)),
            ("gm", ConstructibleSet.punctured_line(field)),
        ):
            for fam_name, family in (
                ("one", ClassFamily.one(field, 1)),
                ("psi", ClassFamily.character(field, 1, MPoly.var(field, 1, 0))),
            ):
                lhs, rhs = euler_product(X, family, 4)
                assert lhs == rhs
                want = [CycScalar.rational(p, c) for c in expected[name, fam_name]]
                assert lhs == want, f"p={p} {name} {fam_name}"
    _report(6, "closed-point products match stable-subset series to t^4", time.time() - t0, 30.0)


def test_criterion_07_norm_compatibility():
    t0 = time.time()
    F2 = make_field(2)
    X = ConstructibleSet.affine_line(F2)
    x = MPoly.var(F2, 1, 0)
    polys = [x, x * x, x * x * x + x]
    for P in closed_points(X, 3):
        if P.degree == 1:
            continue
        big = make_field(2, P.degree)
        for h in polys:
            got = orbit_norm_value(P, h)
            # independent oracle: explicit power-sum absolute trace
            val = h.eval(P.rep)
            acc = val
            frob = val
            for _ in range(big.e - 1):
                frob = frob * frob  # p = 2: Frobenius is squaring
                acc = acc + frob
            assert acc.code in (0, 1)
            expected = CycScalar.rational(2, 1 if acc.code == 0 else -1)
            assert got == expected
            # and independence of the representative
            for member in P.orbit():
                assert orbit_norm_value(ClosedPoint(X, P.degree, member), h) == got
    _report(7, "orbit norms equal extension-field character values (deg 2, 3)", time.time() - t0, 10.0)


def test_criterion_08_division_structure():
    import random

    t0 = time.time()
    F2 = make_field(2)
    D = AlgebraDescriptor(F2, 3, 1)
    rng = random.Random(2024)
    depth = 12  # t-adic depth 4
    checked = 0
    for _ in range(1000):
        a = AlgebraJet(D, 0, depth, [rng.randrange(8) for _ in range(depth)])
        b = AlgebraJet(D, 0, depth, [rng.randrange(8) for _ in range(depth)])
        wa, wb = w_valuation(a), w_valuation(b)
        if wa is None or wb is None or wa + wb >= depth:
            continue
        checked += 1
        assert w_valuation(a * b) == wa + wb
    assert checked > 500
    t = RationalFn.t(F2)
    (cp,) = reduced_char_polys(D, [AlgebraElement.s(D)])
    assert -cp[0] == t  # Nrd(s) = (-1)^3 c_0
    assert cp == [
        -t,
        RationalFn.zero(F2),
        RationalFn.zero(F2),
        RationalFn.one(F2),
    ]
    _report(8, f"w additive on {checked} random jet pairs; Nrd(s) = t; charpoly X^3 - t", time.time() - t0, 30.0)


def test_criterion_09_theorem_a():
    t0 = time.time()
    F2 = make_field(2)
    D = AlgebraDescriptor(F2, 3, 1)
    Ddot = AlgebraDescriptor(F2, 3, 2)
    win = Window(0, 2)
    pairs = default_pair_list(D, Ddot, count=20, seed=1)
    assert len(pairs) == 20
    assert all(p.regular for p in pairs)
    recipes = [
        RecipeConst(),
        RecipePsiTrace(),
        RecipeCharPolyCoset(target_s_charpoly(D, win.M)),
    ]
    for recipe in recipes:
        rows = theorem_a_report(D, Ddot, recipe, pairs, win)
        ok_rows = [r for r in rows if r["status"] == "ok"]
        assert len(ok_rows) == 20
        for r in ok_rows:
            assert r["equal"], f"{recipe.name} pair {r['pair']}"
            for v in (r["value_D"], r["value_D_dot"]):
                # values land in Z[1/2]
                assert v.coeffs[0].denominator & (v.coeffs[0].denominator - 1) == 0
    _report(9, "matched transform values agree on 20 pairs x 3 recipes at window (0,2)", time.time() - t0, 600.0)


def test_criterion_10_global_residue_theorem():
    t0 = time.time()
    for p in (2, 3):
        field = make_field(p)
        inf = Place.infinity(field)
        from ffpoisson.poly import monic_irreducibles

        spots = [inf] + [
            Place.finite(pi) for d in (1, 2) for pi in monic_irreducibles(field, d)
        ]
        spots = spots[:4]
        for mults in itertools.product(range(3), repeat=len(spots)):
            Ddiv = Divisor(field, dict(zip(spots, mults)))
            if not 0 <= Ddiv.degree <= 4:
                continue
            for f in rr_basis(Ddiv):
                if f.is_zero():
                    continue
                relevant = set(spots) | {inf}
                for pi, _ in f.num.factor():
                    relevant.add(Place.finite(pi))
                for pi, _ in f.den.factor():
                    relevant.add(Place.finite(pi))
                total = field.zero()
                for u in relevant:
                    total = total + residue_trace(f, place_data(u))
                assert total.is_zero(), f"residues of {f!r} do not cancel"
    _report(10, "sum of residue traces of f dt vanishes for Riemann-Roch bases, deg <= 4", time.time() - t0, 60.0)


def test_criterion_11_deterministic_reports(tmp_path):
    t0 = time.time()
    cases = [
        ["poisson", "--p", "2", "--places", "t;inf", "--window", "1,1"],
        ["alg-check", "--samples", "120", "--seed", "7"],
        ["charsum", "--p", "3", "--h", "x0^2", "--degrees", "2"],
        ["euler", "--p", "2", "--set", "gm", "--precision", "3"],
    ]
    for i, argv in enumerate(cases):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        text = json.loads(a.read_text())
        assert text["version"] and text["config"]
    _report(11, "identical configurations produce byte-identical reports", time.time() - t0, 60.0)
