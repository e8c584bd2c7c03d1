import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ffpoisson import globalfield, localfield
from ffpoisson.cli import parse_place
from ffpoisson.globalfield import (
    BudgetExceededError,
    Divisor,
    GlobalTestFunction,
    canonical_divisor,
    delta_K,
    divisor_of,
    extend_place,
    global_fourier,
    indicator_everywhere_integral,
    _poisson_functionals,
    jet_at,
    jet_counts,
    mult_by_residue_character,
    normalize_support,
    poisson_family,
    poisson_report,
    refine_place,
    rr_basis,
    scale_variable,
    simple_coset_functions,
    translate,
)
from ffpoisson.localfield import (
    Window,
    _mixed_radix_index,
    index_to_jet,
    jet_space_size,
    jet_to_index,
)
from ffpoisson.place import Place, place_data, places_up_to
from ffpoisson.poly import Poly, RationalFn
from ffpoisson.scalars import CycScalar, cyc_normalize, make_field

F2 = make_field(2)
F3 = make_field(3)

INF2 = Place.infinity(F2)
P0 = Place.at(F2, 0)
P1 = Place.at(F2, 1)
PI2 = Place.finite(Poly(F2, (1, 1, 1)))


def rr_space(D: Divisor) -> list[RationalFn]:
    """All of L(D), enumerated as F_q-combinations of the basis: the oracle
    that jet_counts, which expands only the basis, is checked against."""
    field, basis = D.field, rr_basis(D)
    consts = [RationalFn.constant(field, field.from_code(c)) for c in range(field.q)]
    out = []
    for combo in itertools.product(range(field.q), repeat=len(basis)):
        f = RationalFn.zero(field)
        for c, b in zip(combo, basis):
            if c:
                f = f + consts[c] * b
        out.append(f)
    return out


def _enumerated_counts(field, support, arity):
    """jet_counts by brute force: the jets of every arity-tuple of members
    of L(sum_u N_u [u]), each member expanded at each place."""
    members = rr_space(Divisor(field, {u: w.N for u, w in support}))
    sizes = [jet_space_size(place_data(u), w) for u, w in support]
    counts = [0] * (int(np.prod(sizes)) ** arity)
    for fs in itertools.product(members, repeat=arity):
        idx = 0
        for (u, w), D in zip(support, sizes):
            for f in fs:
                idx = idx * D + jet_to_index(jet_at(f, u, w))
        counts[idx] += 1
    return counts


# -- divisors and Riemann-Roch ---------------------------------------------------


def test_divisor_degree_additive():
    D1 = Divisor(F2, {P0: 2, PI2: 1})
    D2 = Divisor(F2, {INF2: 1, P0: -2})
    assert D1.degree == 4 and D2.degree == -1
    assert (D1 + D2).degree == 3


def test_divisor_of_rational_function_has_degree_zero():
    f = RationalFn(Poly(F2, (0, 1, 1)), Poly(F2, (1, 1, 1)))
    D = divisor_of(f)
    assert D.degree == 0
    assert D.get(P0) == 1 and D.get(P1) == 1 and D.get(PI2) == -1


def test_rr_basis_polynomials():
    D = Divisor(F2, {INF2: 2})
    assert [repr(f) for f in rr_basis(D)] == ["1", "t", "t^2"]


def test_rr_basis_two_simple_poles():
    D = Divisor(F2, {P0: 1, INF2: 1})
    assert [repr(f) for f in rr_basis(D)] == ["1", "t", "(1)/(t)"]


def test_rr_basis_degree_two_place():
    D = Divisor(F2, {PI2: 1})
    got = [repr(f) for f in rr_basis(D)]
    assert got == ["1", "(1)/(t^2+t+1)", "(t)/(t^2+t+1)"]


def test_rr_empty_for_negative_degree():
    assert rr_basis(Divisor(F2, {INF2: -1})) == []


@pytest.mark.parametrize("field", [F2, F3])
def test_riemann_roch_dimension_and_membership(field):
    inf = Place.infinity(field)
    from ffpoisson.poly import monic_irreducibles

    spots = [inf] + [
        Place.finite(pi) for d in (1, 2) for pi in monic_irreducibles(field, d)
    ]
    spots = spots[:4]
    rng = random.Random(17)
    for _ in range(25):
        mult = {u: rng.randrange(-1, 3) for u in rng.sample(spots, k=2)}
        D = Divisor(field, mult)
        if not -1 <= D.degree <= 5:
            continue
        basis = rr_basis(D)
        assert len(basis) == max(D.degree + 1, 0)
        for f in basis:
            for u in set(list(D.mult) + [inf]):
                assert u.valuation(f) >= -D.get(u)


def test_rr_space_budget(monkeypatch):
    # L(30 [inf]) has 2^31 members: refused from its dimension, before any
    # basis element is built or expanded
    def refuse(*args):
        raise AssertionError("work done past the budget")

    monkeypatch.setattr(globalfield, "rr_basis", refuse)
    monkeypatch.setattr(globalfield, "jet_at", refuse)
    with pytest.raises(BudgetExceededError, match=r"^\|L\(D\)\| = 2\^31 exceeds the budget 1024$"):
        jet_counts(F2, [(INF2, Window(30, 1))], 1, max_enum=1 << 10)
    with pytest.raises(BudgetExceededError, match=r"^enumeration of 8\^2 tuples exceeds 10$"):
        jet_counts(F2, [(INF2, Window(2, 1))], 2, max_enum=10)


# -- jets of rational functions ----------------------------------------------------


def test_jet_of_one():
    jet = jet_at(RationalFn.one(F2), P0, Window(0, 1))
    assert jet.coeffs[0].code == 1


def test_jet_of_inverse_t():
    f = RationalFn(Poly.one(F2), Poly.x(F2))
    jet = jet_at(f, P0, Window(1, 1))
    assert jet.coeff(-1).code == 1 and jet.coeff(0).code == 0


def test_jet_geometric_series():
    f = RationalFn(Poly.one(F2), Poly(F2, (1, 1)))
    jet = jet_at(f, P0, Window(0, 2))
    assert [c.code for c in jet.coeffs] == [1, 1]


def test_jet_pole_too_deep():
    f = RationalFn(Poly.one(F2), Poly.x(F2) ** 2)
    with pytest.raises(ValueError):
        jet_at(f, P0, Window(1, 1))


# -- the rational-point functional ----------------------------------------------


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_delta_K_counts_constants(p, e):
    field = make_field(p, e)
    phi = indicator_everywhere_integral(
        field, [Place.infinity(field), Place.at(field, 0)]
    )
    assert delta_K(phi) == CycScalar.rational(p, field.q)


def test_delta_K_empty_coset_is_zero():
    pd = place_data(PI2)
    theta = next(z for z in pd.ku.elements() if PI2.poly.eval(z).is_zero())
    vals = [
        CycScalar.one(2) if idx == theta.code else CycScalar.zero(2) for idx in range(4)
    ]
    phi = GlobalTestFunction(F2, [(PI2, Window(0, 1))], 1, vals)
    assert delta_K(phi).is_zero()


def test_delta_K_linearity():
    lam = Fraction(3, 7)
    vals = [CycScalar.zero(2)] * 16
    vals[5] = CycScalar.one(2)
    phi = GlobalTestFunction(F2, [(P0, Window(1, 1)), (INF2, Window(1, 1))], 1, vals)
    assert delta_K(phi.scaled(lam)) == delta_K(phi) * lam


def _big_entries(p, size, kind, seed):
    """sum: positive integers of 2^59..2^60, below the int64 guard, of which
    any 16 sum past 2^63; huge: numerators past 2^64 over non-unit
    denominators."""
    rng = random.Random(seed)
    vals = []
    for _ in range(size):
        if kind == "sum":
            coeffs = [Fraction(rng.randrange(2**59, 2**60)) for _ in range(p - 1)]
        else:
            coeffs = [
                Fraction(rng.choice((-1, 1)) * rng.randrange(2**64, 2**66), rng.choice((3, 5, 7)))
                for _ in range(p - 1)
            ]
        vals.append(CycScalar(p, coeffs))
    return vals


@pytest.mark.parametrize("kind", ["sum", "huge"])
@pytest.mark.parametrize("field", [F2, F3])
def test_delta_K_past_int64_equals_scalar_sum(field, kind):
    # L(2[inf] + [0]) has q^4 >= 16 members, so the count-weighted sum of
    # the "sum" entries passes 2^63 although every entry fits int64
    support = [(Place.infinity(field), Window(2, 1)), (Place.at(field, 0), Window(1, 1))]
    size = 1
    for u, w in support:
        size *= jet_space_size(place_data(u), w)
    phi = GlobalTestFunction(field, support, 1, _big_entries(field.p, size, kind, seed=size))
    assert (phi._arr.dtype == object) == (kind == "huge")

    def scalar_sum(fn):
        counts = jet_counts(field, fn.support(), 1)
        acc = CycScalar.zero(field.p)
        for j in np.flatnonzero(counts).tolist():
            acc = acc + fn.values[j] * int(counts[j])
        return acc

    rep = poisson_report(phi)
    assert rep["lhs"] == delta_K(phi) == scalar_sum(phi)
    assert rep["rhs"] == scalar_sum(global_fourier(phi))
    assert rep["equal"]


def test_poisson_report_builds_no_scalar_table(monkeypatch):
    # exact tables stay integer arrays from construction to the sums
    rows = []
    to_values = localfield._int_to_values

    def spy(arr, den, p):
        rows.append(len(arr))
        return to_values(arr, den, p)

    monkeypatch.setattr(localfield, "_int_to_values", spy)
    for field, text in ((F2, "t;t^2+t+1"), (F3, "inf;t")):
        places = [parse_place(s, field) for s in text.split(";")]
        for _, phi in itertools.islice(simple_coset_functions(field, places), 0, None, 7):
            assert poisson_report(phi)["equal"]
            global_fourier(phi)
    assert rows == []


def test_delta_K_budget():
    # L(12 [inf]) has 2^13 members, over the budget of 2^10
    win = Window(12, 1)
    big = GlobalTestFunction(
        F2, [(INF2, win)], 1, [CycScalar.one(2)] * jet_space_size(place_data(INF2), win)
    )
    with pytest.raises(BudgetExceededError):
        delta_K(big, max_enum=1 << 10)


# -- support normalization ---------------------------------------------------------


def test_normalize_support_preserves_delta_K():
    for label, phi in itertools.islice(simple_coset_functions(F2, [P0, INF2]), 10):
        bigger = normalize_support(phi, [P1])
        assert delta_K(bigger) == delta_K(phi)


def test_normalize_support_empty_is_identity():
    phi = indicator_everywhere_integral(F2, [INF2, P0])
    assert normalize_support(phi, []) is phi


def test_normalize_support_associative():
    vals = [CycScalar.zero(2)] * 4
    vals[2] = CycScalar.one(2)
    phi = GlobalTestFunction(F2, [(P0, Window(1, 1))], 1, vals)
    once = normalize_support(phi, [P1, INF2])
    twice = normalize_support(normalize_support(phi, [P1]), [INF2])
    assert once.table_equal(twice)


def test_normalize_support_rejects_overlap():
    phi = indicator_everywhere_integral(F2, [INF2, P0])
    with pytest.raises(ValueError):
        normalize_support(phi, [P0])


# -- the global transform -----------------------------------------------------------


def _coset_indicator(field, support, jets):
    sizes = [jet_space_size(place_data(u), w) for u, w in support]
    total = 1
    for s in sizes:
        total *= s
    idx = 0
    for D, j in zip(sizes, jets):
        idx = idx * D + j
    vals = [CycScalar.zero(field.p)] * total
    vals[idx] = CycScalar.one(field.p)
    return GlobalTestFunction(field, support, 1, vals)


def test_case1_scalar_degree_0_1_2():
    # F(indicator of prod t^(-k_u) O_u) = q^(deg D + 1) * dual indicator
    configs = [
        ({P0: 0, INF2: 0}, 0),
        ({P0: 1, INF2: 0}, 1),
        ({P0: 1, P1: 1, INF2: 0}, 2),
    ]
    for depths, deg in configs:
        support = [(u, Window(1, 1)) for u in depths]
        phi_vals = []
        support = sorted(support, key=lambda pw: pw[0].sort_key())

        def indicator(jets_by_place):
            for (u, w), jet in zip(support, jets_by_place):
                k = depths[u]
                for lev in range(-w.N, 0):
                    if lev < -k and not jet.coeff(lev).is_zero():
                        return CycScalar.zero(2)
            return CycScalar.one(2)

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
            jets = [
                index_to_jet(place_data(u), w, j)
                for (u, w), j in zip(support, digits)
            ]
            vals.append(indicator(jets))
        phi = GlobalTestFunction(F2, support, 1, vals)
        out = global_fourier(phi)
        scale = CycScalar.rational(2, 2 ** (deg + 1))
        # expected: scale on the dual coset, zero elsewhere
        nonzero = [v for v in out.values if not v.is_zero()]
        assert nonzero and all(v == scale for v in nonzero)
        # dual coset: val >= k + nu at each place
        for idx, v in enumerate(out.values):
            digits = []
            k = idx
            out_sizes = [
                jet_space_size(place_data(u), w) for u, w in out.support()
            ]
            for D in reversed(out_sizes):
                digits.append(k % D)
                k //= D
            digits.reverse()
            expected_nonzero = True
            for (u, w), j in zip(out.support(), digits):
                jet = index_to_jet(place_data(u), w, j)
                bound = depths[u] + place_data(u).nu
                for lev in range(-w.N, min(bound, w.M)):
                    if not jet.coeff(lev).is_zero():
                        expected_nonzero = False
            assert (not v.is_zero()) == expected_nonzero


def test_global_fourier_zero():
    vals = [CycScalar.zero(2)] * 4
    phi = GlobalTestFunction(F2, [(P0, Window(1, 1))], 1, vals)
    assert all(v.is_zero() for v in global_fourier(phi).values)


def test_global_fourier_symbolic_specializes_to_exact():
    # both modes run through the one engine, over F_q and over F_p
    exact = global_fourier(indicator_everywhere_integral(F2, [P0, PI2]))
    sym = global_fourier(indicator_everywhere_integral(F2, [P0, PI2], mode="symbolic"))
    assert sym.support() == exact.support()
    assert [v.specialize(1) for v in sym.values] == exact.values


def test_symbolic_tables_built_apart_are_equal():
    # equal integer rows and powers of L: equal tables, although every
    # MotivicClass read from them is a new object
    a = indicator_everywhere_integral(F2, [INF2, P0], mode="symbolic")
    b = indicator_everywhere_integral(F2, [P0, INF2], mode="symbolic")
    assert a.values[0] is not b.values[0]
    assert a.table_equal(b)
    assert global_fourier(a).table_equal(global_fourier(b))
    assert not a.table_equal(indicator_everywhere_integral(F2, [INF2, P0]))
    with pytest.raises(ValueError):
        GlobalTestFunction(F2, a.support(), 1, a.values, "symbolic")
    lifted = GlobalTestFunction._from_table(F2, a.support(), 1, a._arr, 1, "symbolic", 1)
    with pytest.raises(ValueError):
        a + lifted  # the same support, another power of L
    assert (lifted + lifted).table_equal(
        GlobalTestFunction._from_table(F2, a.support(), 1, 2 * a._arr, 1, "symbolic", 1)
    )


def test_global_double_transform_is_flip():
    # canonical support order is [inf, t]; sizes [8, 4]
    support = [(INF2, Window(1, 2)), (P0, Window(1, 1))]
    rng = random.Random(2)
    for _ in range(5):
        idx = rng.randrange(32)
        phi = _coset_indicator(F2, support, [idx // 4, idx % 4])
        out = global_fourier(global_fourier(phi))
        assert out.places == phi.places
        for u in phi.places:
            assert out.window_at(u) == phi.window_at(u)
        for k, v in enumerate(phi.values):
            digits = [k // 4, k % 4]
            jets = []
            for (u, w), j in zip(phi.support(), digits):
                jet = index_to_jet(place_data(u), w, j)
                jets.append([-jet])  # F^2 phi (x) = phi(-x)
            assert out.value_at_jets(jets) == v


def test_translate_identity():
    vals = [CycScalar.zero(2)] * 4
    vals[1] = CycScalar.one(2)
    phi = GlobalTestFunction(F2, [(P0, Window(1, 1))], 1, vals)
    assert translate(phi, RationalFn.zero(F2)).table_equal(phi)


def test_translate_twice_returns():
    vals = [CycScalar.zero(2)] * 16
    vals[9] = CycScalar.one(2)
    phi = GlobalTestFunction(F2, [(P0, Window(1, 1)), (INF2, Window(1, 1))], 1, vals)
    a = RationalFn.t(F2)
    double = translate(translate(phi, a), a)  # char 2: same as original
    base = translate(phi, RationalFn.zero(F2))
    # compare on the common (auto-enlarged) support of `double`
    widened = normalize_support(phi, [u for u in double.places if u not in phi.places])
    for u in double.places:
        if double.window_at(u).N > widened.window_at(u).N:
            widened = extend_place(widened, u, double.window_at(u).N)
    assert double.table_equal(widened)


def test_extend_and_refine_place_read_the_old_cells():
    # infinity (4 jets at window (1,1)) is the outer axis, PI2 (16 jets)
    # the inner one
    rng = random.Random(12)
    vals = [CycScalar.rational(2, rng.randrange(1, 9)) for _ in range(64)]
    phi = GlobalTestFunction(F2, [(INF2, Window(1, 1)), (PI2, Window(1, 1))], 1, vals)
    # a new leading level at PI2: the jets with a nonzero one read zero
    ext = extend_place(phi, PI2, 2)
    assert ext.windows == (Window(1, 1), Window(2, 1))
    zero = CycScalar.zero(2)
    assert ext.values == [vals[i * 16 + j] if j < 16 else zero for i in range(4) for j in range(64)]
    # two new trailing levels at infinity: a jet reads its truncation
    ref = refine_place(phi, INF2, 3)
    assert ref.windows == (Window(1, 3), Window(1, 1))
    assert ref.values == [vals[(i // 4) * 16 + j] for i in range(16) for j in range(16)]


@pytest.mark.parametrize("field,pi", [(F2, (1, 1, 1)), (F3, (1, 0, 1))])
def test_translate_matches_the_per_jet_sum(field, pi):
    # at a degree-2 place and at infinity, each cell x reads phi(x + a),
    # with x + a summed jet by jet
    u = Place.finite(Poly(field, pi))
    support = [(u, Window(1, 1)), (Place.infinity(field), Window(1, 1))]
    sizes = [jet_space_size(place_data(v), w) for v, w in support]
    rng = random.Random(field.q)
    vals = [CycScalar.rational(field.p, rng.randrange(-9, 10)) for _ in range(sizes[0] * sizes[1])]
    phi = GlobalTestFunction(field, support, 1, vals)
    a = RationalFn.t(field) + RationalFn(Poly.one(field), u.poly)  # a pole at both places
    shifted = []
    for v, w in phi.support():
        pd, ajet = place_data(v), jet_at(a, v, w)
        assert not ajet.is_zero()
        shifted.append(
            [jet_to_index(index_to_jet(pd, w, x) + ajet) for x in range(jet_space_size(pd, w))]
        )
    out = translate(phi, a)
    assert out.support() == phi.support()
    D = len(shifted[1])
    assert out.values == [phi.values[i * D + j] for i in shifted[0] for j in shifted[1]]


def test_translate_invariance_of_transformed_sum():
    # delta_K(F(translate(phi, a))) = delta_K(F(phi)), exercised on cosets
    # with a nonzero transform sum
    a = RationalFn.t(F2)
    count = 0
    for label, phi in simple_coset_functions(F2, [P0, INF2]):
        rhs = delta_K(global_fourier(phi))
        lhs = delta_K(global_fourier(translate(phi, a)))
        assert lhs == rhs
        if not rhs.is_zero():
            count += 1
    assert count > 0


# -- Poisson summation ---------------------------------------------------------------


def test_poisson_exhaustive_small_support():
    for label, phi in simple_coset_functions(F2, [P0, INF2]):
        rep = poisson_report(phi)
        assert rep["equal"], label


def test_poisson_case2_fixture():
    pd = place_data(PI2)
    theta = next(z for z in pd.ku.elements() if PI2.poly.eval(z).is_zero())
    vals = [
        CycScalar.one(2) if idx == theta.code else CycScalar.zero(2) for idx in range(4)
    ]
    phi = GlobalTestFunction(F2, [(PI2, Window(0, 1))], 1, vals)
    rep = poisson_report(phi)
    assert rep["equal"]
    assert rep["lhs"].is_zero() and rep["rhs"].is_zero()


def test_poisson_random_combination():
    rng = random.Random(23)
    fns = list(simple_coset_functions(F2, [P0, INF2]))
    support = fns[0][1].support()
    total = None
    for label, phi in rng.sample(fns, 5):
        lam = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        scaled = phi.scaled(lam)
        total = scaled if total is None else total + scaled
    rep = poisson_report(total)
    assert rep["equal"]


def test_characterization_properties():
    t = RationalFn.t(F2)
    t1 = RationalFn(Poly(F2, (1, 1)))
    inv_t = RationalFn(Poly.one(F2), Poly.x(F2))
    for label, phi in itertools.islice(simple_coset_functions(F2, [P0, INF2]), 12):
        base = delta_K(phi)
        for a in (t, t1, inv_t):
            assert delta_K(mult_by_residue_character(phi, a)) == base
            assert delta_K(scale_variable(phi, a)) == base


# -- serialization ---------------------------------------------------------------------


def test_global_function_json_roundtrip():
    vals = [CycScalar.zero(2)] * 16
    vals[3] = CycScalar.rational(2, Fraction(5, 4))
    phi = GlobalTestFunction(F2, [(P0, Window(1, 1)), (INF2, Window(1, 1))], 1, vals)
    data = phi.to_json()
    back = GlobalTestFunction.from_json(F2, data)
    assert back.table_equal(phi)
    assert data["places"][0]["poly"] == "inf"


def test_delta_K_rejects_symbolic_mode():
    from ffpoisson.localfield import LocalTestFunction

    phi = indicator_everywhere_integral(F2, [INF2, P0], mode="symbolic")
    with pytest.raises(ValueError):
        delta_K(phi)


def test_normalize_support_exhaustive_small():
    for label, phi in simple_coset_functions(F2, [P0, INF2]):
        assert delta_K(normalize_support(phi, [P1, PI2])) == delta_K(phi)


def test_jet_residue_consistency():
    from ffpoisson.localfield import residue, residue_trace

    f = RationalFn(Poly.one(F2), Poly(F2, (1, 1, 1)))
    for u in (P0, P1, PI2):
        pd = place_data(u)
        jet = jet_at(f, u, Window(1, 2))
        assert residue(jet, pd) == residue(f, pd)


# -- Poisson summation for the whole simple-coset family --------------------------------

# (p, places in the order given, window, rows checked against poisson_report:
# None for all of them, else a seeded sample of that many)
FAMILY_CASES = [
    (2, "t;t^2+t+1", (1, 1), None),  # no infinity
    (2, "t;inf;t^2+t+1", (0, 1), None),  # out of canonical order, M < nu at inf
    (3, "t;inf", (1, 1), None),
    (3, "t;t+1;inf", (1, 0), None),
    (3, "t;t+1;inf", (0, 1), None),
    (3, "inf;t", (1, 2), 60),  # M >= nu at inf: nothing refined
    (2, "t;t+1;inf;t^2+t+1", (1, 1), 60),  # the criterion-3 places at q = 2
    (3, "t;t+1;inf", (1, 1), 60),  # and at q = 3
]


def _family_places(p, text):
    field = make_field(p)
    return field, [parse_place(s, field) for s in text.split(";")]


@pytest.mark.parametrize("p,text,window,sample", FAMILY_CASES)
def test_poisson_family_matches_reports(p, text, window, sample):
    field, places = _family_places(p, text)
    win = Window(*window)
    rows = poisson_family(field, places, win)
    fns = list(simple_coset_functions(field, places, win))
    assert [label for label, _, _ in rows] == [label for label, _ in fns]
    picks = range(len(rows))
    if sample is not None:
        picks = sorted(random.Random(p).sample(picks, sample))
    for i in picks:
        rep = poisson_report(fns[i][1])
        assert (rows[i][1], rows[i][2]) == (rep["lhs"], rep["rhs"]), rows[i][0]
    assert all(lhs == rhs for _, lhs, rhs in rows)


@pytest.mark.parametrize("p,text,window,sample", FAMILY_CASES)
def test_poisson_functionals_g_equals_c(p, text, window, sample):
    # T^t F^t c' = c: Poisson summation for every function on the support
    field, places = _family_places(p, text)
    support = sorted(((u, Window(*window)) for u in places), key=lambda pw: pw[0].sort_key())
    c, g, den = _poisson_functionals(field, support)
    assert g.shape == c.shape + (p,)
    top = g[..., p - 1]
    for k in range(p - 1):
        want = c * den if k == 0 else 0
        assert np.array_equal(g[..., k] - top, np.broadcast_to(want, c.shape))


def test_poisson_functionals_mixed_windows():
    support = [(INF2, Window(0, 1)), (P0, Window(2, 1)), (PI2, Window(1, 0))]
    c, g, den = _poisson_functionals(F2, support)
    assert np.array_equal(g[..., 0] - g[..., 1], c * den)
    phi = _coset_indicator(F2, support, [1, 5, 2])
    rep = poisson_report(phi)
    assert rep["lhs"] == CycScalar.rational(2, int(c[1, 5, 2]))
    assert rep["rhs"] == cyc_normalize(2, [Fraction(x, den) for x in g[1, 5, 2].tolist()])


def test_poisson_family_without_int64_path(monkeypatch):
    # the int64 guards refuse everything: transform_axis's object path and
    # Python-int sums must give the same rows
    field, places = _family_places(2, "t;inf")
    fast = poisson_family(field, places)
    monkeypatch.setattr(localfield, "_INT64_GUARD", 1)
    monkeypatch.setattr(globalfield, "_INT64_GUARD", 1)
    dtypes = []
    contract = localfield._contract_levels

    def spy(arr, *args):
        dtypes.append(arr.dtype)
        return contract(arr, *args)

    # g's dtype alone would not show it: the later guard in
    # _poisson_functionals casts a float64 or int64 result to object too
    monkeypatch.setattr(localfield, "_contract_levels", spy)
    support = [(INF2, Window(1, 1)), (P0, Window(1, 1))]
    c, g, den = _poisson_functionals(F2, support)
    assert g.dtype == object
    assert dtypes and set(dtypes) == {np.dtype(object)}
    assert poisson_family(field, places) == fast


def test_poisson_family_budget_and_duplicates():
    field, places = _family_places(2, "t;inf")
    with pytest.raises(BudgetExceededError):
        poisson_family(field, places, Window(1, 1), max_enum=3)
    with pytest.raises(ValueError):
        poisson_family(field, [P0, INF2, P0])
    phases = []
    poisson_family(field, places, check=phases.append)
    assert phases == ["poisson jet counts", "poisson dual transform", "poisson family rows"]


def test_jet_counts_arity_two_matches_enumeration():
    support = [(INF2, Window(1, 1)), (P0, Window(1, 1))]
    counts = _enumerated_counts(F2, support, 2)
    assert jet_counts(F2, support, 2).tolist() == counts
    rng = random.Random(5)
    vals = [CycScalar.rational(2, rng.randrange(-3, 4)) for _ in range(256)]
    phi = GlobalTestFunction(F2, support, 2, vals)
    assert delta_K(phi) == sum((v * n for v, n in zip(vals, counts)), CycScalar.zero(2))


F4 = make_field(2, 2)


def _place(field, spec):
    """A place from its CLI text, or a finite one from its coefficient codes."""
    if isinstance(spec, str):
        return parse_place(spec, field)
    return Place.finite(Poly(field, spec))


# supports whose jet counts are checked against the enumeration: a degree-2
# place over F_4, the one case where the F_q -> k_u embedding (F_4 in F_16)
# is not the identity on codes; a degree-2 place over F_3; pole bounds
# N < 0, which take rr_basis's twisted branch; arity 2
JET_COUNT_CASES = [
    ("F4-deg2", F4, [("inf", (1, 0)), ((2, 1, 1), (1, 1))], 1),
    ("F3-deg2", F3, [("t", (1, 1)), ("t^2+1", (1, 1)), ("inf", (0, 1))], 1),
    ("F2-negative-N", F2, [("inf", (3, 0)), ("t", (-1, 2)), ("t^2+t+1", (1, 0))], 1),
    ("F3-negative-N", F3, [("inf", (2, 1)), ("t+1", (-1, 2))], 1),
    ("F3-arity2", F3, [("inf", (1, 0)), ("t", (0, 1))], 2),
]


@pytest.mark.parametrize(
    "field,support,arity", [c[1:] for c in JET_COUNT_CASES], ids=[c[0] for c in JET_COUNT_CASES]
)
def test_jet_counts_match_enumeration(monkeypatch, field, support, arity):
    support = sorted(
        ((_place(field, u), Window(*w)) for u, w in support), key=lambda pw: pw[0].sort_key()
    )
    monkeypatch.setattr(globalfield, "_COUNT_CACHE", {})
    calls = []
    counted = globalfield.jet_at

    def spy(f, u, w):
        calls.append(f)
        return counted(f, u, w)

    monkeypatch.setattr(globalfield, "jet_at", spy)
    got = jet_counts(field, support, arity)
    # only the basis is expanded, once per place
    dim = len(rr_basis(Divisor(field, {u: w.N for u, w in support})))
    assert len(calls) == dim * len(support)
    monkeypatch.undo()
    assert got.tolist() == _enumerated_counts(field, support, arity)
    assert got.sum() == field.q ** (dim * arity)


def test_jet_counts_embed_is_not_identity():
    # the F_4 case above only tests the embedding if it moves codes
    pd = place_data(_place(F4, (2, 1, 1)))
    assert pd.ku.q == 16
    assert pd.ku.embedding_table(F4) != list(range(4))


def test_mixed_radix_index_against_digits():
    sizes = [2, 3, 4]
    perm = [2, None, 0, 1]
    new_sizes = [4, 5, 2, 3]
    got = _mixed_radix_index(sizes, perm, new_sizes).tolist()
    want = []
    for digits in itertools.product(*[range(s) for s in new_sizes]):
        old = [0] * 3
        for d, a in zip(digits, perm):
            if a is not None:
                old[a] = d
        want.append((old[0] * 3 + old[1]) * 4 + old[2])
    assert got == want
    assert _mixed_radix_index(sizes, [1, 2, 0]).tolist() == [
        (a * 3 + b) * 4 + c for b in range(3) for c in range(4) for a in range(2)
    ]


def _residue_character(field):
    """(a, support, exps): a = 1/t + t, with simple poles at 0 and at inf,
    a support at those places deep enough for psi(sum_u r_u(a x_u)), and
    per place the map jet index -> r_u(a x_u), with x_u read off a Laurent
    polynomial in the place's uniformizer that has the jet."""
    from ffpoisson.localfield import residue_trace

    t = RationalFn.t(field)
    inv_t = RationalFn(Poly.one(field), Poly.x(field))
    a = inv_t + t
    inf, zero = Place.infinity(field), Place.at(field, 0)
    support = [(inf, Window(1, 3)), (zero, Window(1, 1))]
    consts = [RationalFn.constant(field, field.from_code(c)) for c in range(field.q)]
    exps = []
    for (u, w), s, s_inv in zip(support, (inv_t, t), (t, inv_t)):
        pd = place_data(u)
        exp = {}
        for digits in itertools.product(range(field.q), repeat=w.levels):
            f = RationalFn.zero(field)
            for k, c in zip(range(-w.N, w.M), digits):
                mono = consts[c]
                for _ in range(abs(k)):
                    mono = mono * (s if k > 0 else s_inv)
                f = f + mono
            exp[jet_to_index(jet_at(f, u, w))] = residue_trace(a * f, pd)
        assert len(exp) == jet_space_size(pd, w)
        exps.append(exp)
    return a, support, exps


@pytest.mark.parametrize("field", [F2, F3])
def test_mult_by_residue_character_cellwise(field):
    # every cell against psi(sum_u r_u(a x_u))
    from ffpoisson.scalars import psi

    a, support, exps = _residue_character(field)
    sizes = [jet_space_size(place_data(u), w) for u, w in support]
    phi = GlobalTestFunction(field, support, 1, [CycScalar.one(field.p)] * (sizes[0] * sizes[1]))
    out = mult_by_residue_character(phi, a)
    assert out.support() == support
    for idx, v in enumerate(out.values):
        x_inf, x_0 = divmod(idx, sizes[1])
        assert v == psi(exps[0][x_inf] + exps[1][x_0]), idx


@pytest.mark.parametrize("q", [3, 4])
def test_mult_by_residue_character_translates_symbolic_rows(q):
    # times psi(c) = e_c the coefficient of e_g moves to e_(g + c): each row
    # is translated in F_q by its cell's c, and the power of L stays
    field = make_field(q, 1) if q == 3 else make_field(2, 2)
    a, support, exps = _residue_character(field)
    sizes = [jet_space_size(place_data(u), w) for u, w in support]
    rng = random.Random(q)
    rows = np.array([[rng.randrange(-3, 4) for _ in range(q)] for _ in range(sizes[0] * sizes[1])])
    phi = GlobalTestFunction._from_table(field, support, 1, rows, 1, "symbolic", 1)
    out = mult_by_residue_character(phi, a)
    assert out.support() == support and out._lexp == 1
    for idx in range(len(rows)):
        x_inf, x_0 = divmod(idx, sizes[1])
        c = (exps[0][x_inf] + exps[1][x_0]).code
        assert [out._arr[idx, field.add_code(g, c)] for g in range(q)] == rows[idx].tolist(), idx
