import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from ffpoisson.cyclic_algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    AlgebraJet,
    AlgebraTestFunction,
    RecipeCharPolyCoset,
    RecipeConst,
    RecipePsiTrace,
    alg_mul,
    basis_element,
    default_pair_list,
    dual_jet_window,
    element_to_jet,
    fourier_D,
    integral_test,
    invariant_fn,
    invariant_records,
    jet_from_index,
    jet_index,
    matched_pair,
    matched_pair_L,
    random_unit_jet,
    reduced_char_polys,
    reduced_trace,
    residue_algebra_class,
    s0_test,
    target_s_charpoly,
    theorem_a_report,
    w_valuation,
)
from ffpoisson import cyclic_algebra, linalg
from ffpoisson.cyclic_algebra import _perm_sign
from ffpoisson.localfield import Window, _int64_or_object, _values_to_int
from ffpoisson.place import Place
from ffpoisson.poly import Poly, RationalFn
from ffpoisson.scalars import CycScalar, cyc_normalize, make_field

F2 = make_field(2)
D3 = AlgebraDescriptor(F2, 3, 1)
D3dot = AlgebraDescriptor(F2, 3, 2)


# ---------------------------------------------------------------------------
# Per-jet oracles: the characteristic polynomial of one jet by Leibniz over
# tuples of L-codes, and the transform at one point by a direct sum.
# ---------------------------------------------------------------------------


def _tpoly_mul(desc, a, b, M):
    """Product in L[t]/t^M on tuples of L-codes."""
    L = desc.L
    out = [0] * M
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j >= M:
                    break
                if y:
                    out[i + j] = L.add_code(out[i + j], L.mul_code(x, y))
    return tuple(out)


def _tpoly_add(desc, a, b):
    L = desc.L
    return tuple(L.add_code(x, y) for x, y in zip(a, b))


def _tpoly_neg(desc, a):
    L = desc.L
    return tuple(L.neg_code(x) for x in a)


def charpoly_jet(desc, jet, M):
    """Reduced characteristic polynomial of an S_0/t^M jet, as descended
    F_q[t]/t^M coefficient tuples (c_0, .., c_{n-1}); X^n is monic."""
    n, L = desc.n, desc.L
    if jet.lo < 0:
        raise ValueError("characteristic-polynomial jets need integral elements")
    # s-adic digits -> u_i in L[t]/t^M
    u = [[0] * M for _ in range(n)]
    for k in range(jet.lo, min(jet.hi, n * M)):
        c = jet.coeff_code(k)
        if c:
            u[k % n][k // n] = c
    zero = (0,) * M
    one = (1,) + (0,) * (M - 1) if M > 0 else ()
    tpow = [(0,) * e + (1,) + (0,) * (M - e - 1) if e < M else zero for e in range(2 * n)]
    # matrix entries: A[r][c] = g^r(u_i) * tau(r, c) with i = (c - r) mod n,
    # tau the t-power carried by the shift matrix s^i
    A = [[zero for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for c in range(n):
            i = (c - r) % n
            ui = u[i]
            if not any(ui):
                continue
            conj = tuple(desc.gpow(r, code) for code in ui)
            # s^i maps v_c back to v_{c-i}; the t factor appears once for
            # each pass of the lambda_0 = t step, i.e. when c - i < 0
            e = 1 if c - i < 0 else 0
            A[r][c] = _tpoly_mul(desc, conj, tpow[e], M) if e else tuple(conj)
    # char poly by Leibniz over the commutative ring L[t]/t^M

    def xmul(p1, p2):
        out = [zero] * (len(p1) + len(p2) - 1)
        for i1, a1 in enumerate(p1):
            if any(a1):
                for i2, a2 in enumerate(p2):
                    if any(a2):
                        out[i1 + i2] = _tpoly_add(desc, out[i1 + i2], _tpoly_mul(desc, a1, a2, M))
        return out

    total = None
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = [one]
        ok = True
        for r in range(n):
            c = perm[r]
            entry = [_tpoly_neg(desc, A[r][c]), one] if r == c else [_tpoly_neg(desc, A[r][c])]
            if len(entry) == 1 and not any(entry[0]):
                ok = False
                break
            prod = xmul(prod, entry)
        if not ok:
            continue
        if sign < 0:
            prod = [_tpoly_neg(desc, p) for p in prod]
        if total is None:
            total = prod + [zero] * (n + 1 - len(prod))
        else:
            prod = prod + [zero] * (n + 1 - len(prod))
            total = [_tpoly_add(desc, a, b) for a, b in zip(total, prod)]
    if total is None:
        total = [zero] * (n + 1)
        total[n] = one
    # descend every coefficient to F_q
    sub = desc.base
    out = []
    for xdeg in range(n):
        codes = []
        for ccode in total[xdeg]:
            codes.append(L.section(L.from_code(ccode), sub).code)
        out.append(tuple(codes))
    return tuple(out)


def _w_class(jet, cap):
    w = w_valuation(jet)
    return cap if w is None else min(w, cap)


def oracle_record(desc, jet, M):
    """The invariant record of one jet from charpoly_jet and _w_class."""
    q = desc.base.q
    rec = _w_class(jet, desc.n * M)
    for coeff in charpoly_jet(desc, jet, M):
        for code in coeff:
            rec = rec * q + code
    return rec


def fourier_D_value(phi, out_jet):
    """F(phi)(x) = vol * sum_y phi(y) psi(Tr (x y)_{-n}) at one point x."""
    desc = phi.desc
    base, L = desc.base, desc.L
    p, n = base.p, desc.n
    lo_out, hi_out = dual_jet_window(desc, phi.lo, phi.hi)
    if out_jet.lo != lo_out or out_jet.hi != hi_out:
        raise ValueError(
            f"evaluation point must live on the dual window [{lo_out},{hi_out})"
        )
    K = phi.hi - phi.lo
    D = L.q**K
    psi_exp = desc.L_place_data().psi_exponents
    # per input level j: the x-level -n-j pairs with it, after the Galois
    # twist g^(j mod n) of x's digit
    level_exp = {}
    for j in range(phi.lo, phi.hi):
        i = -n - j
        if lo_out <= i < hi_out:
            xc = desc.gpow(j % n, out_jet.coeff_code(i))
            if xc:
                level_exp[j - phi.lo] = [psi_exp[L.mul_code(xc, c)] for c in range(L.q)]
    arr, dens = _values_to_int(phi.values, p)
    # the sum of the D rows is exact in int64 only while it fits
    arr = _int64_or_object(arr, D)
    exps = np.zeros(D, dtype=np.int64)
    idxs = np.arange(D)
    for pos in range(K - 1, -1, -1):
        digit = idxs % L.q
        idxs = idxs // L.q
        tab = level_exp.get(pos)
        if tab is not None:
            exps += np.asarray(tab, dtype=np.int64)[digit]
    exps %= p
    total = np.zeros(p, dtype=arr.dtype)
    for r in range(p):
        sel = arr[exps == r]
        if len(sel):
            total += np.roll(sel.sum(axis=0), r)
    vol = Fraction(base.q) ** (-(desc.nu_D // 2) - phi.hi * desc.n)
    return cyc_normalize(p, [Fraction(int(c), dens) for c in total]) * vol


def L_elem(desc, code):
    z = desc.L.from_code(code)
    return AlgebraElement.from_L(
        desc,
        [RationalFn.constant(desc.base, desc.base.from_code(c)) for c in desc.coords(z)],
    )


def test_descriptor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        AlgebraDescriptor(F2, 4, 1)
    with pytest.raises(ValueError):
        AlgebraDescriptor(F2, 3, 3)


def test_defining_relation_s_times_a():
    s = AlgebraElement.s(D3)
    for code in range(1, D3.L.q):
        a = L_elem(D3, code)
        ga = L_elem(D3, D3.gpow(1, code))
        assert alg_mul(s, a) == alg_mul(ga, s)


def test_s_cubed_is_t():
    s = AlgebraElement.s(D3)
    t_el = AlgebraElement.central(D3, RationalFn.t(F2))
    assert alg_mul(alg_mul(s, s), s) == t_el


def test_associativity_random_triples():
    rng = random.Random(100)

    def rand_elem():
        table = []
        for i in range(3):
            row = []
            for j in range(3):
                row.append(RationalFn(Poly(F2, [rng.randrange(2) for _ in range(3)])))
            table.append(row)
        return AlgebraElement(D3, table)

    for _ in range(100):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert alg_mul(alg_mul(x, y), z) == alg_mul(x, alg_mul(y, z))


def test_distributivity_random():
    rng = random.Random(101)

    def rand_elem():
        return AlgebraElement(
            D3,
            [
                [RationalFn(Poly(F2, [rng.randrange(2) for _ in range(2)])) for _ in range(3)]
                for _ in range(3)
            ],
        )

    for _ in range(50):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert alg_mul(x, y + z) == alg_mul(x, y) + alg_mul(x, z)


def _nrd(x):
    """Nrd(x) = (-1)^n c_0 from the one characteristic-polynomial routine."""
    c0 = reduced_char_polys(x.desc, [x])[0][0]
    return c0 if x.desc.n % 2 == 0 else -c0


def _rand_poly_elem(desc, rng, deg=1):
    """An element with coefficients in F_q[t] of t-degree at most deg."""
    q = desc.base.q
    return AlgebraElement(
        desc,
        [
            [
                RationalFn(Poly(desc.base, [rng.randrange(q) for _ in range(deg + 1)]))
                for _ in range(desc.n)
            ]
            for _ in range(desc.n)
        ],
    )


def test_splitting_matrix_identity():
    # 1 is the identity matrix: its polynomial is (X - 1)^3 = X^3 + X^2 + X + 1 over F_2
    one = RationalFn.one(F2)
    assert reduced_char_polys(D3, [AlgebraElement.one(D3)]) == [[one] * 4]


def test_splitting_matrix_s_determinant():
    # det of b s is N(b) t, and every norm from F_8^* is 1
    t = RationalFn.t(F2)
    for code in range(1, 8):
        bs = alg_mul(L_elem(D3, code), AlgebraElement.s(D3))
        assert _nrd(bs) == t


def test_splitting_matrix_is_homomorphism():
    # the determinant of the splitting matrix is multiplicative
    rng = random.Random(7)
    for desc in (D3, D3dot):
        for _ in range(10):
            x, y = _rand_poly_elem(desc, rng), _rand_poly_elem(desc, rng)
            assert _nrd(alg_mul(x, y)) == _nrd(x) * _nrd(y)


def test_reduced_char_poly_of_s():
    (cp,) = reduced_char_polys(D3, [AlgebraElement.s(D3)])
    t = RationalFn.t(F2)
    assert cp == [-t, RationalFn.zero(F2), RationalFn.zero(F2), RationalFn.one(F2)]
    assert _nrd(AlgebraElement.s(D3)) == t


def test_reduced_char_poly_of_bs():
    # X^3 - N(b) t; every norm from F_8^* is 1 over F_2
    t = RationalFn.t(F2)
    for code in range(1, 8):
        b = D3.L.from_code(code)
        pair = matched_pair(D3, D3dot, b)
        assert pair.charpoly[0] == -t
        assert pair.regular


def test_reduced_char_poly_of_central_scalar():
    # (X - f)^3 = X^3 + f X^2 + f^2 X + f^3 over F_2, and f is not regular
    f = RationalFn(Poly(F2, (1, 1)))
    x = AlgebraElement.central(D3, f)
    assert reduced_char_polys(D3, [x]) == [[f * f * f, f * f, f, RationalFn.one(F2)]]
    assert not matched_pair_L(D3, D3dot, [f, RationalFn.zero(F2), RationalFn.zero(F2)]).regular


def test_reduced_trace_matches_matrix_trace():
    # -c_2 is the trace of the splitting matrix
    rng = random.Random(3)
    xs = [_rand_poly_elem(D3, rng) for _ in range(10)]
    for x, cp in zip(xs, reduced_char_polys(D3, xs)):
        assert -cp[2] == reduced_trace(x)


def test_integrality():
    s = AlgebraElement.s(D3)
    v = Place.at(F2, 1)
    assert integral_test(s, v)
    assert s0_test(s)
    bad = AlgebraElement.zero(D3)
    bad.x[0][0] = RationalFn(Poly.one(F2), Poly(F2, (1, 1)))
    bad = AlgebraElement(D3, bad.x)
    assert not integral_test(bad, v)
    poly_el = AlgebraElement.central(D3, RationalFn(Poly(F2, (1, 0, 1))))
    assert s0_test(poly_el)
    with pytest.raises(ValueError):
        integral_test(s, Place.at(F2, 0))  # v(t) != 0 there


def test_w_valuation_basics():
    assert w_valuation(AlgebraElement.s(D3)) == 1
    assert w_valuation(AlgebraElement.central(D3, RationalFn.t(F2))) == 3
    assert w_valuation(basis_element(D3, 0, 1)) == 0
    assert w_valuation(AlgebraElement.zero(D3)) is None


def test_w_valuation_additive_on_jets():
    rng = random.Random(42)
    hi = 12
    for _ in range(1000):
        a = AlgebraJet(D3, 0, hi, [rng.randrange(8) for _ in range(hi)])
        b = AlgebraJet(D3, 0, hi, [rng.randrange(8) for _ in range(hi)])
        wa, wb = w_valuation(a), w_valuation(b)
        if wa is None or wb is None or wa + wb >= hi:
            continue
        assert w_valuation(a * b) == wa + wb


def test_w_zero_iff_unit_residue():
    for idx in range(8**3):
        jet = jet_from_index(D3, 0, 3, idx)
        if jet.is_zero():
            continue
        assert (w_valuation(jet) == 0) == jet.is_unit()


def test_unit_residues_by_exhaustive_multiplication():
    # units of the level-1 quotient are exactly the jets with invertible
    # L-component: verify by searching for two-sided inverses
    jets = [jet_from_index(D3, 0, 3, i) for i in range(8**3)]
    one = jet_from_index(D3, 0, 3, jet_index(AlgebraJet(D3, 0, 3, [1, 0, 0])))
    for u in jets:
        has_inverse = False
        if u.codes[0] != 0:
            v = u.inverse()
            has_inverse = (u * v).codes == [1, 0, 0] and (v * u).codes == [1, 0, 0]
        assert has_inverse == (u.codes[0] != 0)


def test_residue_algebra_class():
    s = AlgebraElement.s(D3)
    r = residue_algebra_class(s)
    assert r.codes == [0, 1, 0]
    cubed = (r * r) * r
    assert all(c == 0 for c in cubed.codes[: cubed.hi - cubed.lo])
    d1 = basis_element(D3, 0, 1)
    assert residue_algebra_class(d1).codes[0] == D3.d_basis[1].code
    nonint = AlgebraElement.central(D3, RationalFn(Poly.one(F2), Poly.x(F2)))
    with pytest.raises(ValueError):
        residue_algebra_class(nonint)


def test_element_to_jet_multiplicative():
    s = AlgebraElement.s(D3)
    x = L_elem(D3, 5) + alg_mul(s, s)
    y = L_elem(D3, 3) + s
    jx = element_to_jet(x, 0, 6)
    jy = element_to_jet(y, 0, 6)
    jxy = element_to_jet(alg_mul(x, y), 0, 6)
    prod = jx * jy
    assert prod.codes == jxy.truncate(prod.lo, prod.hi).codes


def test_matched_pair_b_one():
    pair = matched_pair(D3, D3dot, D3.L.one())
    t = RationalFn.t(F2)
    assert pair.charpoly[0] == -t
    assert pair.provenance == "bs-form"


def test_matched_pair_L_common():
    coeffs = [
        RationalFn.zero(F2),
        RationalFn(Poly(F2, (1, 1))),
        RationalFn.zero(F2),
    ]
    pair = matched_pair_L(D3, D3dot, coeffs)
    assert pair.provenance == "L-common"
    assert pair.c.x == pair.c_dot.x
    assert pair.regular


def test_matched_pair_rejects_zero():
    with pytest.raises(ValueError):
        matched_pair(D3, D3dot, D3.L.zero())


def test_charpoly_jet_matches_exact():
    rng = random.Random(5)
    xs = [_rand_poly_elem(D3, rng) for _ in range(25)]
    M = 2
    pd = D3._pd0
    for x, cp in zip(xs, reduced_char_polys(D3, xs)):
        cp_jet = charpoly_jet(D3, element_to_jet(x, 0, 3 * M), M)
        for j in range(3):
            series = pd.expand(cp[j], M)
            assert tuple(series.at(m).code for m in range(M)) == cp_jet[j]


def test_invariant_recipe_conjugation():
    rng = random.Random(6)
    win = Window(0, 1)
    for recipe in (RecipeConst(), RecipePsiTrace(), RecipeCharPolyCoset(target_s_charpoly(D3, 1))):
        phi = invariant_fn(D3, recipe, win)
        for _ in range(60):
            u = random_unit_jet(D3, 6, rng)
            jx = jet_from_index(D3, 0, 3, rng.randrange(8**3))
            xc = jx.conjugate_by(u)
            assert phi.value_at(jx) == phi.value_at(xc.truncate(0, 3))


def test_invariant_fn_rejects_pole_window():
    with pytest.raises(ValueError):
        invariant_fn(D3, RecipeConst(), Window(1, 1))


def test_fourier_D_indicator():
    ones = [CycScalar.one(2)] * (8**3)
    phi = AlgebraTestFunction(D3, 0, 3, ones)
    out = fourier_D(phi)
    lo, hi = dual_jet_window(D3, 0, 3)
    assert (out.lo, out.hi) == (lo, hi)
    # the transform concentrates on the dual lattice {w >= -2}: within the
    # window [-5, -2) that is only the zero jet, with mass vol * |table|
    nonzero = [i for i, v in enumerate(out.values) if not v.is_zero()]
    assert nonzero == [0]
    assert out.values[0] == CycScalar.rational(2, Fraction(1, 8))


def test_fourier_D_zero():
    z = AlgebraTestFunction(D3, 0, 3, [CycScalar.zero(2)] * 512)
    assert all(v.is_zero() for v in fourier_D(z).values)


def test_fourier_D_inversion_on_deltas():
    for k in range(0, 512, 7):
        vals = [CycScalar.zero(2)] * 512
        vals[k] = CycScalar.one(2)
        phi = AlgebraTestFunction(D3, 0, 3, vals)
        ff = fourier_D(fourier_D(phi))
        assert (ff.lo, ff.hi) == (0, 3)
        for idx, v in enumerate(ff.values):
            expect = CycScalar.one(2) if idx == k else CycScalar.zero(2)
            assert v == expect  # char 2: -x = x


def test_fourier_D_value_matches_table():
    rng = random.Random(9)
    vals = [CycScalar.rational(2, rng.randrange(-3, 4)) for _ in range(512)]
    phi = AlgebraTestFunction(D3, 0, 3, vals)
    full = fourier_D(phi)
    for _ in range(25):
        k = rng.randrange(512)
        jet = jet_from_index(D3, full.lo, full.hi, k)
        assert fourier_D_value(phi, jet) == full.values[k]


def test_fourier_D_value_exact_past_int64():
    # 512 entries of 2^61 sum to 2^70: an int64 sum would wrap to 0
    big = 2**61
    phi = AlgebraTestFunction(D3, 0, 3, [CycScalar.rational(2, big)] * 512)
    lo, hi = dual_jet_window(D3, 0, 3)
    vol = Fraction(2) ** (-(D3.nu_D // 2) - 3 * D3.n)
    value = fourier_D_value(phi, jet_from_index(D3, lo, hi, 0))
    assert value == CycScalar.rational(2, big * 512 * vol)


def _odd_values(p, size, top, seed):
    """size scalars whose zeta-coefficients are odd integers of absolute
    value at most top, one of them -top and the others positive, so the
    sum over every jet is near size * top."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.randrange(top // 2, top) | 1)

    vals = [CycScalar(p, [coeff() for _ in range(p - 1)]) for _ in range(size)]
    vals[0] = CycScalar(p, [Fraction(-top)] + [Fraction(1)] * (p - 2))
    return vals


def _odd_below(limit, factor):
    """The largest odd t with factor * t < limit."""
    t = (limit - 1) // factor
    return t if t % 2 else t - 1


def _odd_above(limit, factor):
    """The smallest odd t with factor * t >= limit."""
    t = -(-limit // factor)
    return t if t % 2 else t + 1


@pytest.mark.parametrize(
    "top,dtype",
    [
        (_odd_below(1 << 53, 512 * 4), np.float64),
        (_odd_above(1 << 53, 512 * 4), np.int64),
        (_odd_below(1 << 60, 512 * 4), np.int64),
    ],
    ids=["float64-below-2^53", "int64-above-2^53", "int64-below-2^60"],
)
def test_fourier_D_contraction_tiers_at_their_bounds(top, dtype, monkeypatch):
    # D3 on [0, 3) has 512 jets and vol = 2^-12, so the guard bounds every
    # sum by 512 * 4 * max|entry|; float64 would drop the odd low bits of
    # the int64 tables' sums
    dtypes = []
    contract = cyclic_algebra._contract_levels

    def spy(arr, *args):
        dtypes.append(arr.dtype)
        return contract(arr, *args)

    monkeypatch.setattr(cyclic_algebra, "_contract_levels", spy)
    phi = AlgebraTestFunction(D3, 0, 3, _odd_values(2, 512, top, seed=top % 997))
    full = fourier_D(phi)
    assert dtypes == [np.dtype(dtype)]
    assert full._arr.dtype == np.int64
    rng = random.Random(top % 991)
    for k in sorted({0, 1, 511} | {rng.randrange(512) for _ in range(12)}):
        jet = jet_from_index(D3, full.lo, full.hi, k)
        assert fourier_D_value(phi, jet) == full.values[k], k


def test_fourier_D_past_int64_matches_value():
    # every sum of the constant 2^61 table overflows int64; fourier_D must
    # switch to Python ints and agree with the pointwise transform
    big = 2**61
    phi = AlgebraTestFunction(D3, 0, 3, [CycScalar.rational(2, big)] * 512)
    full = fourier_D(phi)
    rng = random.Random(12)
    for k in [0, 1, 511] + [rng.randrange(512) for _ in range(5)]:
        jet = jet_from_index(D3, full.lo, full.hi, k)
        assert fourier_D_value(phi, jet) == full.values[k]
    assert fourier_D(full).table_equal(phi)  # char 2: -x = x


def test_fourier_D_invariance_transport():
    rng = random.Random(10)
    phi = invariant_fn(D3, RecipePsiTrace(), Window(0, 1))
    out = fourier_D(phi)
    for _ in range(60):
        u = random_unit_jet(D3, 10, rng)
        jx = jet_from_index(D3, out.lo, out.hi, rng.randrange(512))
        xc = jx.conjugate_by(u)
        assert out.value_at(jx) == out.value_at(xc.truncate(out.lo, out.hi))


def _gram_nu_D(desc):
    """nu_D from its definition: the t-adic valuation of the determinant
    over F_q(t) of the reduced-trace Gram matrix on the d_j s^i basis."""
    n = desc.n
    basis = [basis_element(desc, i, j) for i in range(n) for j in range(n)]
    gram = [[reduced_trace(alg_mul(x, y)) for y in basis] for x in basis]
    det = linalg.determinant(gram, RationalFn.zero(desc.base), RationalFn.one(desc.base))
    assert not det.is_zero()
    return det.order_at_poly(Poly.x(desc.base))


def test_nu_D_matches_gram_determinant():
    for p, n, a in [(2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 2, 1), (2, 5, 1), (2, 5, 3)]:
        desc = AlgebraDescriptor(make_field(p), n, a)
        assert desc.nu_D == _gram_nu_D(desc) == n * (n - 1), (p, n, a)


def test_nu_D_singular_block_is_an_internal_fault():
    # with d_1 = d_0 every block B_i has two equal rows
    desc = AlgebraDescriptor(F2, 3, 1)
    desc.d_basis = [desc.d_basis[0]] * 3
    with pytest.raises(RuntimeError, match="degenerate trace pairing"):
        desc.nu_D


def test_theorem_a_small_window():
    pairs = default_pair_list(D3, D3dot, count=12, seed=3)
    assert len(pairs) == 12
    for recipe in (RecipeConst(), RecipePsiTrace()):
        rows = theorem_a_report(D3, D3dot, recipe, pairs, Window(0, 1))
        ok = [r for r in rows if r["status"] == "ok"]
        assert ok and all(r["equal"] for r in ok)


def test_theorem_a_reads_each_pairs_jets_once_per_window(monkeypatch):
    pairs = default_pair_list(D3, D3dot, count=6, seed=4)
    recipes = (RecipeConst(), RecipePsiTrace(), RecipeCharPolyCoset(target_s_charpoly(D3, 1)))
    calls = []
    to_jet = cyclic_algebra.element_to_jet

    def spy(x, lo, hi):
        calls.append((lo, hi))
        return to_jet(x, lo, hi)

    monkeypatch.setattr(cyclic_algebra, "element_to_jet", spy)
    for recipe in recipes:
        rows = theorem_a_report(D3, D3dot, recipe, pairs, Window(0, 1))
        assert all(r["equal"] for r in rows)
    # two forms per pair, once across the three recipes
    assert calls == [dual_jet_window(D3, 0, 3)] * 12
    theorem_a_report(D3, D3dot, RecipeConst(), pairs, Window(0, 2))
    assert calls[12:] == [dual_jet_window(D3, 0, 6)] * 12


def test_theorem_a_converts_only_the_rows_it_reads(monkeypatch):
    # the transformed tables stay integer arrays; each compared value is
    # one row turned into an exact scalar
    from ffpoisson import localfield

    rows = []
    to_values = localfield._int_to_values

    def spy(arr, den, p):
        rows.append(len(arr))
        return to_values(arr, den, p)

    monkeypatch.setattr(localfield, "_int_to_values", spy)
    pairs = default_pair_list(D3, D3dot, count=6, seed=3)
    report = theorem_a_report(D3, D3dot, RecipePsiTrace(), pairs, Window(0, 1))
    compared = [r for r in report if r["status"] == "ok"]
    assert compared and all(r["equal"] for r in compared)
    assert rows == [1] * (2 * len(compared))


def test_theorem_a_skips_non_regular():
    one, zero = RationalFn.one(F2), RationalFn.zero(F2)
    pair = matched_pair_L(D3, D3dot, [one, zero, zero])
    rows = theorem_a_report(D3, D3dot, RecipeConst(), [pair], Window(0, 1))
    assert rows[0]["status"].startswith("skipped")


def test_theorem_a_deep_twist_agreement():
    # scale matched pairs by the central t^-2: the evaluation points then
    # pair nontrivially against S_0/t, a sharper cross-form comparison
    t2 = RationalFn(Poly.one(F2), Poly(F2, (0, 0, 1)))
    phi = invariant_fn(D3, RecipePsiTrace(), Window(0, 1))
    phi_dot = invariant_fn(D3dot, RecipePsiTrace(), Window(0, 1))
    lo, hi = dual_jet_window(D3, 0, 3)
    nontrivial = 0
    for code in range(1, 8):
        pair = matched_pair(D3, D3dot, D3.L.from_code(code))
        c = pair.c.scale(t2)
        c_dot = pair.c_dot.scale(t2)
        jc = element_to_jet(c, lo, hi)
        jd = element_to_jet(c_dot, lo, hi)
        if not jc.is_zero():
            nontrivial += 1
        assert fourier_D_value(phi, jc) == fourier_D_value(phi_dot, jd)
    assert nontrivial == 7


def test_invariant_records_distinct_counts_match_across_forms():
    # matching masses: the multiset of invariant records agrees form to form
    from collections import Counter

    r1 = Counter(invariant_records(D3, 1))
    r2 = Counter(invariant_records(D3dot, 1))
    assert r1 == r2


def test_splitting_matrix_injective_on_nonzero():
    # D is a division algebra: Nrd(x) = 0 only for x = 0
    rng = random.Random(31)
    xs = [_rand_poly_elem(D3, rng) for _ in range(20)] + [AlgebraElement.zero(D3)]
    for x, cp in zip(xs, reduced_char_polys(D3, xs)):
        assert cp[0].is_zero() == x.is_zero()


# ---------------------------------------------------------------------------
# Batched invariant records against the per-jet oracles
# ---------------------------------------------------------------------------

F3 = make_field(3)
D3p3 = AlgebraDescriptor(F3, 3, 1)
D3p3dot = AlgebraDescriptor(F3, 3, 2)


@pytest.mark.parametrize(
    "desc,lo,hi",
    [(D3, 0, 3), (D3dot, 1, 3), (D3p3, 0, 2), (D3p3dot, 0, 1)],
    ids=["p2-g1", "p2-g2", "p3-g1", "p3-g2"],
)
def test_fourier_D_matches_value_at_p2_and_p3(desc, lo, hi):
    # cyclotomic, non-integral entries, read back at sampled dual jets
    p = desc.base.p
    D = desc.L.q ** (hi - lo)
    rng = random.Random(D + p)

    def coeff():
        return Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3)))

    vals = [CycScalar(p, [coeff() for _ in range(p - 1)]) for _ in range(D)]
    phi = AlgebraTestFunction(desc, lo, hi, vals)
    full = fourier_D(phi)
    assert (full.lo, full.hi) == dual_jet_window(desc, lo, hi)
    for k in sorted({0, 1, D - 1} | {rng.randrange(D) for _ in range(30)}):
        jet = jet_from_index(desc, full.lo, full.hi, k)
        assert fourier_D_value(phi, jet) == full.values[k], k


@pytest.mark.parametrize(
    "desc", [D3, D3dot, D3p3, D3p3dot], ids=["p2-g1", "p2-g2", "p3-g1", "p3-g2"]
)
def test_records_match_oracle_on_every_jet_at_depth_one(desc):
    records = invariant_records(desc, 1)
    D = desc.L.q**3
    assert records.dtype == np.int64 and len(records) == D
    for idx in range(D):
        jet = jet_from_index(desc, 0, 3, idx)
        assert int(records[idx]) == oracle_record(desc, jet, 1), idx


@pytest.mark.parametrize("desc", [D3, D3dot], ids=["g1", "g2"])
def test_records_match_oracle_on_sample_at_depth_two(desc):
    # M = 2 is the first depth at which the t below the diagonal reaches
    # the records, and the first with jets in more than one chunk
    records = invariant_records(desc, 2)
    D = desc.L.q**6
    assert D > cyclic_algebra._RECORD_CHUNK
    rng = random.Random(11)
    for idx in [0, 1, D - 1] + [rng.randrange(D) for _ in range(600)]:
        jet = jet_from_index(desc, 0, 6, idx)
        assert int(records[idx]) == oracle_record(desc, jet, 2), idx


def test_records_past_int64_guard_are_python_ints(monkeypatch):
    expected = invariant_records(D3, 2)
    monkeypatch.setattr(cyclic_algebra, "_RECORD_LIMIT", 400)
    fresh = AlgebraDescriptor(F2, 3, 1)
    records = invariant_records(fresh, 2)
    assert records.dtype == object and isinstance(records[5], int)
    assert records.tolist() == expected.tolist()
    # the bound (K + 1) q^(n M) is 7 * 2^6 = 448 at M = 2 and 4 * 2^3 at
    # M = 1, which stays int64
    assert invariant_records(fresh, 1).dtype == np.int64


def test_records_without_dense_field_tables():
    # L = F_289 has no dense tables; its codes go through the field's own
    # arithmetic element by element
    F17 = make_field(17)
    desc = AlgebraDescriptor(F17, 2, 1)
    assert desc.L._mul_table is None
    rng = random.Random(4)
    jets = [jet_from_index(desc, 0, 4, rng.randrange(289**4)) for _ in range(40)]
    records = cyclic_algebra._charpoly_records(
        desc, 2, np.array([jet.codes for jet in jets], dtype=np.int64)
    )
    assert [int(r) for r in records] == [oracle_record(desc, jet, 2) for jet in jets]


def test_records_descent_failure_is_an_internal_fault(monkeypatch):
    desc = AlgebraDescriptor(F2, 3, 1)
    # g^1 = g^0 makes the "conjugates" of a non-rational digit all equal,
    # so its characteristic polynomial leaves F_2
    monkeypatch.setattr(desc, "_gpow", [desc._gpow[0]] * 3)
    with pytest.raises(RuntimeError, match="Galois descent"):
        invariant_records(desc, 1)


def test_target_s_charpoly_is_x_cubed_minus_t():
    assert target_s_charpoly(D3, 2) == ((0, 1), (0, 0), (0, 0))
    assert target_s_charpoly(D3p3, 1) == ((0,), (0,), (0,))
    assert target_s_charpoly(D3p3, 2) == ((0, 2), (0, 0), (0, 0))


@pytest.mark.parametrize("p", [2, 3])
def test_records_of_matched_pairs_match_reduced_char_poly(p):
    desc, desc_dot = (D3, D3dot) if p == 2 else (D3p3, D3p3dot)
    pairs = default_pair_list(desc, desc_dot, count=20, seed=1)
    assert len(pairs) == 20
    M = 2 if p == 2 else 1
    K = desc.n * M
    pd = desc._pd0
    for pair in pairs:
        want = tuple(
            tuple(pd.expand(c, M).at(m).code for m in range(M))
            for c in pair.charpoly[: desc.n]
        )
        for d, el in ((desc, pair.c), (desc_dot, pair.c_dot)):
            jet = element_to_jet(el, 0, K)
            cp, w = cyclic_algebra.decode_record(
                d, M, int(invariant_records(d, M)[jet_index(jet)])
            )
            assert cp == want
            assert w == _w_class(jet, K)


def test_theorem_a_report_equals_pointwise_transform():
    pairs = default_pair_list(D3, D3dot, count=12, seed=2)
    win = Window(0, 1)
    for recipe in (RecipeConst(), RecipePsiTrace(), RecipeCharPolyCoset(target_s_charpoly(D3, 1))):
        phi = invariant_fn(D3, recipe, win)
        phi_dot = invariant_fn(D3dot, recipe, win)
        lo, hi = dual_jet_window(D3, 0, 3)
        rows = theorem_a_report(D3, D3dot, recipe, pairs, win)
        assert len(rows) == len(pairs)
        for row, pair in zip(rows, pairs):
            assert row["status"] == "ok"
            assert row["value_D"] == fourier_D_value(phi, element_to_jet(pair.c, lo, hi))
            assert row["value_D_dot"] == fourier_D_value(
                phi_dot, element_to_jet(pair.c_dot, lo, hi)
            )


def test_default_pairs_are_regular_semisimple_at_p3():
    # every b s pair has the inseparable char poly X^3 - N(b) t in
    # characteristic 3, so all 20 pairs are regular L-common elements
    pairs = default_pair_list(D3p3, D3p3dot, count=20, seed=1)
    assert len(pairs) == 20
    assert all(pair.regular and pair.provenance == "L-common" for pair in pairs)
    assert not matched_pair(D3p3, D3p3dot, D3p3.L.one()).regular


def test_default_pairs_skip_b_s_when_p_divides_n(monkeypatch):
    # X^3 - N(b) t has zero derivative in characteristic 3, so no b s pair
    # can be regular: none is built, and the list is what it would be if
    # all 26 were built and dropped
    assert not any(
        matched_pair(D3p3, D3p3dot, D3p3.L.from_code(code)).regular
        for code in range(1, D3p3.L.q)
    )
    built = []
    bs_element = cyclic_algebra._bs_element
    monkeypatch.setattr(
        cyclic_algebra, "_bs_element", lambda *args: built.append(args) or bs_element(*args)
    )
    pairs = default_pair_list(D3p3, D3p3dot, count=20, seed=1)
    assert built == [] and len(pairs) == 20
    # at p = 2 the b s pairs are still built, one per form, and come first
    assert default_pair_list(D3, D3dot, count=3)[0].provenance == "bs-form"
    assert len(built) == 6


# ---------------------------------------------------------------------------
# The one characteristic-polynomial routine against the algebra itself
# ---------------------------------------------------------------------------


def _cayley_hamilton_cases(desc, desc_dot):
    """Random F_q[t] elements of t-degree up to 2, the default pairs, and
    b t^d s^(n-1), whose c_0 = (-1)^(n-1) N(b) t^(n d + n - 1) reaches the
    degree bound n (d + 1) - 1 of reduced_char_polys."""
    rng = random.Random(desc.base.q)
    xs = [_rand_poly_elem(desc, rng, deg) for deg in (0, 1, 2) for _ in range(4)]
    for pair in default_pair_list(desc, desc_dot, count=8, seed=1):
        xs += [pair.c]
    s_top = AlgebraElement.s(desc)
    for _ in range(desc.n - 2):
        s_top = alg_mul(s_top, AlgebraElement.s(desc))
    for d in (0, 1, 2):
        b = L_elem(desc, rng.randrange(1, desc.L.q))
        td = AlgebraElement.central(desc, RationalFn(Poly(desc.base, [0] * d + [1])))
        xs.append(alg_mul(alg_mul(b, td), s_top))
    return xs


@pytest.mark.parametrize("p", [2, 3])
def test_charpolys_satisfy_cayley_hamilton(p):
    # sum_k c_k x^k = 0 with the algebra's own multiplication, and -c_(n-1)
    # is the reduced trace: no matrix model involved
    desc, desc_dot = (D3, D3dot) if p == 2 else (D3p3, D3p3dot)
    xs = _cayley_hamilton_cases(desc, desc_dot)
    cps = reduced_char_polys(desc, xs)
    for x, cp in zip(xs, cps):
        assert len(cp) == desc.n + 1 and cp[-1] == RationalFn.one(desc.base)
        acc = AlgebraElement.zero(desc)
        power = AlgebraElement.one(desc)
        for c in cp:
            acc = acc + power.scale(c)
            power = alg_mul(power, x)
        assert acc.is_zero()
        assert -cp[desc.n - 1] == reduced_trace(x)
    # the bound is reached: b t^2 s^2 has c_0 of t-degree n (2 + 1) - 1
    assert cps[-1][0].num.degree == desc.n * 3 - 1
    # a batch of one gives what the batch of all gave
    assert [reduced_char_polys(desc, [x])[0] for x in xs[-4:]] == cps[-4:]


def test_reduced_char_polys_rejects_poles_and_other_forms():
    pole = AlgebraElement.central(D3, RationalFn(Poly.one(F2), Poly.x(F2)))
    with pytest.raises(ValueError, match="F_q\\[t\\]"):
        reduced_char_polys(D3, [pole])
    with pytest.raises(ValueError, match="different algebra form"):
        reduced_char_polys(D3, [AlgebraElement.s(D3dot)])
    assert reduced_char_polys(D3, []) == []


def _conjugates(desc, vec):
    """The distinct Galois conjugates of sum_j vec[j] d_j in L[t], as
    tuples of L-codes by t-power, through desc.gpow."""
    L = desc.L
    deg = max(c.num.degree for c in vec)
    out = set()
    for i in range(desc.n):
        conj = []
        for m in range(deg + 1):
            acc = 0
            for j, c in enumerate(vec):
                code = c.num.coeffs[m] if m < len(c.num.coeffs) else 0
                if code:
                    d = desc.gpow(i, desc.d_basis[j].code)
                    acc = L.add_code(acc, L.mul_code(L.embed(desc.base.from_code(code)).code, d))
            conj.append(acc)
        out.add(tuple(conj))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_regularity_closed_form_against_conjugates(p):
    # an L-common element is regular exactly when it has n distinct
    # conjugates; b s has X^n - N(b) t, with N(b) the product of the
    # conjugates of b, and is regular exactly when p does not divide n
    desc, desc_dot = (D3, D3dot) if p == 2 else (D3p3, D3p3dot)
    base, L = desc.base, desc.L
    t = RationalFn.t(base)
    vecs = []
    for code in range(1, L.q):
        z = L.from_code(code)
        vecs.append([RationalFn.constant(base, base.from_code(c)) for c in desc.coords(z)])
        norm = 1
        for i in range(desc.n):
            norm = L.mul_code(norm, desc.gpow(i, code))
        pair = matched_pair(desc, desc_dot, z)
        assert pair.charpoly[0] == -t * RationalFn.constant(base, L.section(L.from_code(norm), base))
        assert pair.regular == (desc.n % p != 0)
    rng = random.Random(17)
    for _ in range(40):
        coeffs = [[rng.randrange(base.q) for _ in range(2)] for _ in range(desc.n)]
        vecs.append([RationalFn(Poly(base, c)) for c in coeffs])
    regular = 0
    for vec in vecs:
        if all(c.is_zero() for c in vec):
            continue
        pair = matched_pair_L(desc, desc_dot, vec)
        count = len(_conjugates(desc, vec))
        assert count in (1, desc.n)
        assert pair.regular == (count == desc.n)
        regular += pair.regular
    assert 0 < regular < len(vecs)
