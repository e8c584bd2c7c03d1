import random
from fractions import Fraction

import numpy as np
import pytest

from ffpoisson import localfield
from ffpoisson.localfield import (
    JetVector,
    LocalTestFunction,
    Window,
    _generic_axis_transform,
    alpha_decode,
    alpha_encode,
    extend_zero,
    fourier1,
    fourier_multi,
    index_to_jet,
    integrate,
    jet_space_size,
    jet_to_index,
    ops_for,
    pairing_matrix,
    refine,
    residue,
    residue_trace,
    restrict,
)
from ffpoisson.motivic import MotivicClass
from ffpoisson.place import Place, PlaceData, place_data
from ffpoisson.poly import Poly, RationalFn
from ffpoisson.scalars import CycScalar, FieldElem, make_field

F2 = make_field(2)
F3 = make_field(3)


def synth(field, d=1, nu=0):
    return PlaceData.synthetic(field, d, nu)


def residue_pair(x: JetVector, y: JetVector) -> FieldElem:
    """r(x y) in the base field, for x on the dual window of y's."""
    pd = x.pd
    W = pairing_matrix(pd, x.window, y.window)
    acc = 0
    for i in range(x.window.levels):
        xc = x.coeffs[i].code
        if xc:
            row = W[i]
            for j in range(y.window.levels):
                wc = row[j]
                yc = y.coeffs[j].code
                if wc and yc:
                    acc = pd.ku.add_code(acc, pd.ku.mul_code(pd.ku.mul_code(xc, wc), yc))
    return pd.base.from_code(pd.trace_to_base_codes[acc])


def fourier_direct(phi: LocalTestFunction) -> LocalTestFunction:
    """Brute-force multi-coordinate transform straight from the definition:
    the cross-check oracle for fourier_multi."""
    ops = ops_for(phi.pd, phi.mode)
    pd, win, m = phi.pd, phi.window, phi.arity
    if win.M < pd.nu:
        raise ValueError("window too shallow for nu; refine first")
    dual = win.dual(pd.nu)
    D = jet_space_size(pd, win)
    psi_vals = [ops.psi_base(c) for c in range(pd.base.q)]
    add_q = pd.base.add_code

    def jets_of(idx, window):
        parts, k = [], idx
        for _ in range(m):
            parts.append(k % D)
            k //= D
        parts.reverse()
        return [index_to_jet(pd, window, j) for j in parts]

    shift = pd.d * (pd.nu // 2 - win.M) * m
    out = []
    for xidx in range(D**m):
        xjets = jets_of(xidx, dual)
        acc = ops.zero()
        for yidx in range(D**m):
            yjets = jets_of(yidx, win)
            e = 0
            for xj, yj in zip(xjets, yjets):
                e = add_q(e, residue_pair(xj, yj).code)
            acc = acc + phi.values[yidx] * psi_vals[e]
        out.append(ops.scale(acc, shift))
    return LocalTestFunction(pd, dual, m, out, phi.mode)


# -- jets and the coefficient isomorphism -------------------------------------


def test_alpha_zero_jet():
    pd = synth(F2)
    jet = alpha_encode(pd, Window(1, 1), [0, 0])
    assert jet.is_zero()


def test_alpha_window_count():
    pd = synth(F2)
    assert jet_space_size(pd, Window(1, 1)) == 4
    pd2 = place_data(Place.finite(Poly(F2, (1, 1, 1))))
    assert jet_space_size(pd2, Window(1, 1)) == 16


def test_alpha_roundtrip_exhaustive():
    pd = synth(F3)
    win = Window(2, 2)
    for idx in range(jet_space_size(pd, win)):
        jet = index_to_jet(pd, win, idx)
        assert alpha_encode(pd, win, alpha_decode(jet)) == jet
        assert jet_to_index(jet) == idx


def test_alpha_roundtrip_degree_two_place():
    pd = place_data(Place.finite(Poly(F2, (1, 1, 1))))
    win = Window(1, 1)
    for idx in range(jet_space_size(pd, win)):
        jet = index_to_jet(pd, win, idx)
        assert alpha_encode(pd, win, alpha_decode(jet)) == jet


def test_alpha_length_mismatch():
    pd = synth(F2)
    with pytest.raises(ValueError):
        alpha_encode(pd, Window(1, 1), [0, 0, 0])


# -- residues ------------------------------------------------------------------


def test_residue_defining_property():
    pd = place_data(Place.at(F2, 0))
    inv_t = RationalFn(Poly.one(F2), Poly.x(F2))
    assert residue(inv_t, pd).code == 1


def test_residue_at_infinity():
    pd = place_data(Place.infinity(F2))
    assert residue(RationalFn.one(F2), pd).is_zero()
    assert residue(RationalFn.t(F2), pd).is_zero()
    inv_t = RationalFn(Poly.one(F2), Poly.x(F2))
    assert residue(inv_t, pd).code == 1  # -1 = 1 in char 2
    pd3 = place_data(Place.infinity(F3))
    inv_t3 = RationalFn(Poly.one(F3), Poly.x(F3))
    assert residue(inv_t3, pd3).code == 2  # -1 mod 3


def test_global_residue_sum_vanishes():
    f = RationalFn(Poly.one(F2), Poly(F2, (1, 1, 1)))
    total = F2.zero()
    from ffpoisson.place import places_up_to

    for u in places_up_to(F2, 2):
        total = total + residue_trace(f, place_data(u))
    assert total.is_zero()


def test_residue_of_jet_needs_depth():
    pd = place_data(Place.infinity(F2))  # nu = 2
    jet = index_to_jet(pd, Window(1, 1), 0)
    with pytest.raises(ValueError):
        residue(jet, pd)
    jet2 = index_to_jet(pd, Window(1, 2), 0)
    residue(jet2, pd)  # deep enough


# -- integration and level moves -------------------------------------------------


def test_integrate_indicator():
    pd = synth(F2)
    phi = LocalTestFunction.indicator_integral(pd, Window(0, 1))
    assert integrate(phi) == CycScalar.one(2)


def test_integrate_single_jet():
    pd = synth(F2)
    phi = LocalTestFunction.delta(pd, Window(0, 1), 1)
    assert integrate(phi) == CycScalar.rational(2, Fraction(1, 2))


def test_integrate_character_of_deep_pole_vanishes():
    # phi(x) = psi(r(x u)) for a fixed u with val(u) = -1 at a nu=0 place
    pd = synth(F3, 1, 0)
    win = Window(0, 1)
    u = JetVector(pd, Window(1, 0), [pd.ku.one()])

    def fn(jet):
        from ffpoisson.scalars import psi

        return psi(residue_pair(u, jet))

    phi = LocalTestFunction.from_function(pd, win, fn)
    assert integrate(phi).is_zero()


def test_extend_zero_preserves_integral():
    pd = synth(F2)
    phi = LocalTestFunction.indicator_integral(pd, Window(0, 1))
    ext = extend_zero(phi, 2)
    assert ext.window == Window(2, 1)
    assert integrate(ext) == integrate(phi)


def test_refine_zero_function():
    pd = synth(F2)
    z = LocalTestFunction.zero_function(pd, Window(1, 1))
    r = refine(z, 3)
    assert all(v.is_zero() for v in r.values)


def test_refine_then_restrict_roundtrip():
    pd = synth(F2)
    rng = random.Random(3)
    for win in (Window(0, 1), Window(1, 1), Window(1, 2)):
        D = jet_space_size(pd, win)
        vals = [CycScalar.rational(2, rng.randrange(-4, 5)) for _ in range(D)]
        phi = LocalTestFunction(pd, win, 1, vals)
        assert restrict(refine(phi, win.M + 1), win.M).table_equal(phi)


@pytest.mark.parametrize("field,nu", [(F2, 0), (F3, 0), (F2, 2)])
def test_integrate_invariant_under_level_moves(field, nu):
    pd = synth(field, 1, nu)
    rng = random.Random(9)
    win = Window(1, max(1, nu))
    D = jet_space_size(pd, win)
    vals = [CycScalar.rational(field.p, rng.randrange(-3, 4)) for _ in range(D)]
    phi = LocalTestFunction(pd, win, 1, vals)
    assert integrate(extend_zero(phi, win.N + 1)) == integrate(phi)
    assert integrate(refine(phi, win.M + 1)) == integrate(phi)


def test_window_shrink_rejected():
    pd = synth(F2)
    phi = LocalTestFunction.indicator_integral(pd, Window(1, 1))
    with pytest.raises(ValueError):
        extend_zero(phi, 0)
    with pytest.raises(ValueError):
        refine(phi, 0)


# -- Fourier transforms ------------------------------------------------------------


def test_indicator_self_dual():
    pd = synth(F2, 1, 0)
    phi = LocalTestFunction.indicator_integral(pd, Window(1, 1))
    out = fourier1(phi)
    assert out.window == Window(1, 1)
    assert out.table_equal(phi)


def test_delta_transforms_to_flat():
    pd = synth(F2, 1, 0)
    phi = LocalTestFunction.delta(pd, Window(0, 1), 0)
    out = fourier1(phi)
    assert out.window == Window(1, 0)
    assert all(v == CycScalar.rational(2, Fraction(1, 2)) for v in out.values)


def _flip_index(pd, win, idx):
    return jet_to_index(-index_to_jet(pd, win, idx))


@pytest.mark.parametrize(
    "p,e,d,nu", [(2, 1, 1, 0), (2, 1, 1, 2), (3, 1, 1, 0), (2, 1, 2, 0), (3, 1, 2, 2)]
)
def test_inversion_on_delta_basis(p, e, d, nu):
    field = make_field(p, e)
    pd = synth(field, d, nu)
    win = Window(1, max(1, nu))
    D = jet_space_size(pd, win)
    one = CycScalar.one(p)
    for k in range(D):
        out = fourier1(fourier1(LocalTestFunction.delta(pd, win, k)))
        assert out.window == win
        assert out.values[_flip_index(pd, win, k)] == one
        assert sum(0 if v.is_zero() else 1 for v in out.values) == 1


def test_window_too_shallow_for_nu():
    pd = synth(F2, 1, 2)
    phi = LocalTestFunction.indicator_integral(pd, Window(1, 1))
    with pytest.raises(ValueError):
        fourier1(phi)


def test_odd_nu_rejected():
    with pytest.raises(ValueError):
        PlaceData.synthetic(F2, 1, 1)


def test_transform_support_and_invariance_of_refined_input():
    # transform a function pushed to a larger window: values outside the
    # claimed dual support vanish, and values are constant on the claimed
    # invariance cosets
    pd = synth(F2, 1, 0)
    base = Window(1, 1)
    rng = random.Random(4)
    vals = [CycScalar.rational(2, rng.randrange(-2, 3)) for _ in range(4)]
    phi = LocalTestFunction(pd, base, 1, vals)
    big = refine(extend_zero(phi, 2), 2)  # window (2,2), same function
    out_small = fourier1(phi)  # window (1,1)
    out_big = fourier1(big)  # window (2,2)
    q = 2
    for idx in range(jet_space_size(pd, out_big.window)):
        jet = index_to_jet(pd, out_big.window, idx)
        # support: val >= -(M - nu) = -1
        if not jet.coeff(-2).is_zero():
            assert out_big.values[idx].is_zero()
        # invariance: level N + nu = 1 is a refinement direction
        small_jet = JetVector(pd, out_small.window, jet.coeffs[1:3])
        if jet.coeff(-2).is_zero():
            assert out_big.values[idx] == out_small.value_at(small_jet)


def test_linearity_random():
    pd = synth(F3, 1, 0)
    win = Window(1, 1)
    rng = random.Random(12)
    D = jet_space_size(pd, win)
    a = [CycScalar.rational(3, rng.randrange(-3, 4)) for _ in range(D)]
    b = [CycScalar.rational(3, rng.randrange(-3, 4)) for _ in range(D)]
    lam = Fraction(2, 3)
    phi_a = LocalTestFunction(pd, win, 1, a)
    phi_b = LocalTestFunction(pd, win, 1, b)
    comb = LocalTestFunction(pd, win, 1, [x * lam + y for x, y in zip(a, b)])
    lhs = fourier1(comb)
    rhs_vals = [x * lam + y for x, y in zip(fourier1(phi_a).values, fourier1(phi_b).values)]
    assert lhs.values == rhs_vals
    assert integrate(comb) == integrate(phi_a) * lam + integrate(phi_b)


def test_product_function_transforms_to_product():
    pd = synth(F2, 1, 0)
    win = Window(1, 1)
    D = jet_space_size(pd, win)
    rng = random.Random(6)
    f = [CycScalar.rational(2, rng.randrange(-2, 3)) for _ in range(D)]
    g = [CycScalar.rational(2, rng.randrange(-2, 3)) for _ in range(D)]
    prod_vals = [f[i] * g[j] for i in range(D) for j in range(D)]
    phi = LocalTestFunction(pd, win, 2, prod_vals)
    out = fourier_multi(phi)
    tf = fourier1(LocalTestFunction(pd, win, 1, f)).values
    tg = fourier1(LocalTestFunction(pd, win, 1, g)).values
    expected = [tf[i] * tg[j] for i in range(D) for j in range(D)]
    assert out.values == expected


def test_fourier_multi_matches_direct():
    pd = synth(F2, 1, 0)
    win = Window(0, 1)
    rng = random.Random(8)
    D = jet_space_size(pd, win)
    vals = [CycScalar.rational(2, rng.randrange(-2, 3)) for _ in range(D * D)]
    phi = LocalTestFunction(pd, win, 2, vals)
    assert fourier_multi(phi).table_equal(fourier_direct(phi))


def _big_table(p, size, kind, seed):
    """wide: positive integers of 2^58..2^59, which fit int64 while their
    sums over 16 or more jets do not; huge: numerators past 2^63 over
    non-unit denominators."""
    rng = random.Random(seed)
    vals = []
    for _ in range(size):
        coeffs = []
        for _ in range(p - 1):
            if rng.randrange(4) == 0:
                coeffs.append(Fraction(0))
            elif kind == "wide":
                coeffs.append(Fraction(rng.randrange(2**58, 2**59)))
            else:
                num = rng.choice((-1, 1)) * rng.randrange(2**62, 2**65)
                coeffs.append(Fraction(num, rng.choice((3, 5, 7, 9))))
        vals.append(CycScalar(p, coeffs))
    vals[0] = CycScalar.rational(p, 2**58 if kind == "wide" else Fraction(2**64 + 1, 3))
    return vals


def _generic_exact(phi):
    ops = ops_for(phi.pd, "exact")
    D = jet_space_size(phi.pd, phi.window)
    values = phi.values
    for axis in range(phi.arity):
        values, dual = _generic_axis_transform(
            values, ops, phi.pd, phi.window, D**axis, D ** (phi.arity - axis - 1)
        )
    return LocalTestFunction(phi.pd, dual, phi.arity, values)


@pytest.mark.parametrize(
    "p,d,nu,win,arity,kind",
    [
        (2, 1, 0, Window(1, 1), 1, "wide"),
        (2, 1, 0, Window(1, 1), 1, "huge"),
        (3, 1, 0, Window(1, 1), 1, "wide"),
        (3, 1, 0, Window(1, 1), 1, "huge"),
        (2, 2, 2, Window(0, 2), 1, "wide"),
        (2, 1, 0, Window(1, 1), 2, "wide"),
        (2, 1, 0, Window(1, 1), 2, "huge"),
        (3, 1, 0, Window(0, 1), 2, "huge"),
        (3, 1, 0, Window(1, 1), 2, "wide"),
    ],
)
def test_fourier_past_int64_matches_oracles(p, d, nu, win, arity, kind):
    pd = synth(make_field(p), d, nu)
    D = jet_space_size(pd, win)
    phi = LocalTestFunction(pd, win, arity, _big_table(p, D**arity, kind, seed=D + arity))
    out = fourier_multi(phi)
    assert out.table_equal(fourier_direct(phi))
    assert out.table_equal(_generic_exact(phi))
    back = fourier_multi(out)
    assert back.window == win
    for idx in range(D**arity):
        jets = [index_to_jet(pd, win, (idx // D ** (arity - 1 - k)) % D) for k in range(arity)]
        assert back.value_at(*jets) == phi.value_at(*[-j for j in jets])


def test_fourier_switches_to_python_ints_between_axes(monkeypatch):
    # 2^55 fits the first axis's guard (2^55 * 4 jets * 4 < 2^60); the
    # transformed constant is 2^57 at one jet, which trips the second's
    pd = synth(F2, 1, 0)
    win = Window(1, 1)
    phi = LocalTestFunction(pd, win, 2, [CycScalar.rational(2, 2**55)] * 16)
    dtypes = []
    contract = localfield._contract_levels

    def spy(arr, *args):
        dtypes.append(arr.dtype)
        return contract(arr, *args)

    monkeypatch.setattr(localfield, "_contract_levels", spy)
    fourier_multi(LocalTestFunction.delta(pd, win, 3))
    # the kernel's object copy is made only once an object table arrives
    assert list(pd._kernel_matmul) == [np.dtype(np.int64)]
    dtypes.clear()
    out = fourier_multi(phi)
    assert dtypes == [np.dtype(np.int64), np.dtype(object)]
    assert list(pd._kernel_matmul) == [np.dtype(np.int64), np.dtype(object)]
    assert out.table_equal(fourier_direct(phi))
    assert out.table_equal(_generic_exact(phi))
    assert fourier_multi(out).table_equal(phi)  # char 2: -x = x


def test_fourier_multi_zero():
    pd = synth(F3, 1, 0)
    z = LocalTestFunction.zero_function(pd, Window(1, 1), 2)
    assert all(v.is_zero() for v in fourier_multi(z).values)


# -- symbolic mode -----------------------------------------------------------------


def test_symbolic_integrate_matches_exact():
    pd = synth(F2, 1, 0)
    win = Window(0, 1)

    def build(mode):
        return LocalTestFunction.indicator_integral(pd, win, 1, mode)

    sym = integrate(build("symbolic"))
    assert isinstance(sym, MotivicClass)
    assert sym.specialize(1) == integrate(build("exact"))


def test_symbolic_fourier_commutes_with_specialization():
    pd = synth(F2, 1, 0)
    win = Window(1, 1)
    D = jet_space_size(pd, win)
    for k in range(D):
        sym = fourier1(LocalTestFunction.delta(pd, win, k, "symbolic"))
        exact = fourier1(LocalTestFunction.delta(pd, win, k, "exact"))
        for vs, ve in zip(sym.values, exact.values):
            assert vs.specialize(1) == ve
