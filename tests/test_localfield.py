import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from ffpoisson import localfield
from ffpoisson.localfield import (
    JetVector,
    LocalTestFunction,
    Window,
    _generic_axis_transform,
    _int_to_values,
    _table_of,
    _transform_table,
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


def _direct_table_transform(values, axes):
    """sum_y phi(y) prod_k psi(r_k(x_k y_k)) q^(d_k (nu_k/2 - M_k)) at every
    x on the dual windows, straight from the definition: the oracle for a
    table over several (place data, window) axes, the first most
    significant."""
    base = axes[0][0].base
    ops = ops_for(axes[0][0], "exact")
    psi_vals = [ops.psi_base(c) for c in range(base.q)]
    sizes = [jet_space_size(pd, w) for pd, w in axes]

    def jets_of(idx, dual):
        out = []
        for (pd, w), D in zip(reversed(axes), reversed(sizes)):
            out.append(index_to_jet(pd, w.dual(pd.nu) if dual else w, idx % D))
            idx //= D
        return out[::-1]

    ys = [jets_of(idx, False) for idx in range(len(values))]
    shift = sum(pd.d * (pd.nu // 2 - w.M) for pd, w in axes)
    out = []
    for xidx in range(len(values)):
        xs = jets_of(xidx, True)
        acc = ops.zero()
        for v, yjets in zip(values, ys):
            e = 0
            for x, y in zip(xs, yjets):
                e = base.add_code(e, residue_pair(x, y).code)
            acc = acc + v * psi_vals[e]
        out.append(ops.scale(acc, shift))
    return out


def fourier_direct(phi: LocalTestFunction) -> LocalTestFunction:
    """The cross-check oracle for fourier_multi."""
    pd, win = phi.pd, phi.window
    out = _direct_table_transform(phi.values, [(pd, win)] * phi.arity)
    return LocalTestFunction(pd, win.dual(pd.nu), phi.arity, out)


# -- jets and their indices ---------------------------------------------------


def test_jet_space_size_and_index_roundtrip():
    pd = synth(F2)
    assert jet_space_size(pd, Window(1, 1)) == 4
    pd2 = place_data(Place.finite(Poly(F2, (1, 1, 1))))
    assert jet_space_size(pd2, Window(1, 1)) == 16
    pd3, win = synth(F3), Window(2, 2)
    size = jet_space_size(pd3, win)
    assert [jet_to_index(index_to_jet(pd3, win, idx)) for idx in range(size)] == list(range(size))


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


# The per-cell definitions of the level moves: each builds every jet of the
# new window and reads phi at the jet it maps to.


def _extend_zero_by_cells(phi, new_N):
    ops = ops_for(phi.pd, phi.mode)
    extra = new_N - phi.window.N

    def fn(*jets):
        old_jets = []
        for jet in jets:
            for lev in range(-new_N, -phi.window.N):
                if not jet.coeff(lev).is_zero():
                    return ops.zero()
            old_jets.append(JetVector(phi.pd, phi.window, jet.coeffs[extra:]))
        return phi.value_at(*old_jets)

    new_win = Window(new_N, phi.window.M)
    return LocalTestFunction.from_function(phi.pd, new_win, fn, phi.arity, phi.mode)


def _refine_by_cells(phi, new_M):
    def fn(*jets):
        old = [JetVector(phi.pd, phi.window, jet.coeffs[: phi.window.levels]) for jet in jets]
        return phi.value_at(*old)

    new_win = Window(phi.window.N, new_M)
    return LocalTestFunction.from_function(phi.pd, new_win, fn, phi.arity, phi.mode)


def _restrict_by_cells(phi, new_M):
    zero_tail = (phi.pd.ku.zero(),) * (phi.window.M - new_M)

    def fn(*jets):
        lifted = [JetVector(phi.pd, phi.window, jet.coeffs + zero_tail) for jet in jets]
        return phi.value_at(*lifted)

    new_win = Window(phi.window.N, new_M)
    return LocalTestFunction.from_function(phi.pd, new_win, fn, phi.arity, phi.mode)


def _random_table(pd, win, arity, mode, seed):
    """Random values, a quarter of them zero but never the last, which a
    -1 read as the last row would find; symbolic ones are shifted point
    classes."""
    rng = random.Random(seed)
    ops = ops_for(pd, mode)
    size = jet_space_size(pd, win) ** arity
    p = pd.base.p
    if mode == "exact":
        vals = [
            CycScalar(p, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(p - 1)])
            for _ in range(size)
        ]
    else:
        vals = [
            ops.psi_base(rng.randrange(pd.base.q)).shift_L(rng.randrange(-1, 2))
            for _ in range(size)
        ]
    for k in rng.sample(range(size - 1), size // 4):
        vals[k] = ops.zero()
    return LocalTestFunction(pd, win, arity, vals, mode)


def _entries(phi):
    """The table's entries, comparable: a MotivicClass compares by identity,
    so a symbolic entry is read as its presentation."""
    if phi.mode == "exact":
        return phi.values
    return [(v.terms, v.lshift) for v in phi.values]


def _same_table(a, b):
    return a.window == b.window and a.arity == b.arity and _entries(a) == _entries(b)


@pytest.mark.parametrize("mode", ["exact", "symbolic"])
@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("p,d,win,steps", [(2, 1, Window(1, 1), 2), (3, 2, Window(0, 1), 1)])
def test_level_moves_match_the_per_cell_oracles(p, d, win, steps, arity, mode):
    pd = synth(make_field(p), d)
    phi = _random_table(pd, win, arity, mode, seed=p + 10 * arity)
    assert _same_table(extend_zero(phi, win.N + steps), _extend_zero_by_cells(phi, win.N + steps))
    assert _same_table(refine(phi, win.M + steps), _refine_by_cells(phi, win.M + steps))
    # a table that is not constant on the forgotten cosets: restrict still
    # reads the lift with zero trailing levels
    deep = _random_table(pd, Window(win.N, win.M + steps), arity, mode, seed=p + 20 * arity)
    assert _same_table(restrict(deep, win.M), _restrict_by_cells(deep, win.M))
    assert _same_table(restrict(refine(phi, win.M + steps), win.M), phi)


@pytest.mark.parametrize("d,arity", [(1, 1), (1, 2), (2, 1)])
def test_flip_matches_negated_jets(d, arity):
    pd = synth(F3, d)
    win = Window(1, 1)
    phi = _random_table(pd, win, arity, "exact", seed=7 * d + arity)
    D = jet_space_size(pd, win)
    neg = [_flip_index(pd, win, j) for j in range(D)]
    want = [phi.values[neg[i]] for i in range(D)]
    if arity == 2:
        want = [phi.values[neg[i] * D + neg[j]] for i in range(D) for j in range(D)]
    got = localfield.flip(phi)
    assert got.window == win and got.values == want
    assert not got.table_equal(phi)  # at p = 3, -x != x


def test_table_arithmetic_is_shared_by_every_table_class():
    from ffpoisson.cyclic_algebra import AlgebraDescriptor, AlgebraTestFunction

    pd = synth(F3)
    phi = _random_table(pd, Window(1, 1), 2, "exact", seed=1)
    psi = _random_table(pd, Window(1, 1), 2, "exact", seed=2)
    half = CycScalar.rational(3, Fraction(1, 2))
    assert (phi + psi).values == [a + b for a, b in zip(phi.values, psi.values)]
    assert phi.scaled(half).values == [a * half for a in phi.values]
    assert (phi + psi).window == phi.window and (phi + psi).arity == 2
    # the shape key compares windows and arity, not the place data object
    assert phi.table_equal(LocalTestFunction(synth(F3), Window(1, 1), 2, phi.values))
    for other in (
        _random_table(pd, Window(0, 2), 2, "exact", seed=3),  # as many cells
        _random_table(synth(F3, 2), Window(0, 1), 2, "exact", seed=3),  # as many cells
        _random_table(synth(F2), Window(1, 1), 2, "exact", seed=3),  # the same window
    ):
        with pytest.raises(ValueError):
            phi + other
    desc = AlgebraDescriptor(F2, 3, 1)
    vals = [CycScalar.rational(2, k % 5) for k in range(64)]
    alg = AlgebraTestFunction(desc, 0, 2, vals)
    half = CycScalar.rational(2, Fraction(1, 2))
    assert (alg + alg.scaled(half)).values == [v + v * half for v in vals]
    assert not alg.table_equal(AlgebraTestFunction(desc, 1, 3, vals))
    with pytest.raises(ValueError):
        alg + phi


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


def _generic_table_transform(values, axes):
    sizes = [jet_space_size(pd, w) for pd, w in axes]
    for k, (pd, w) in enumerate(axes):
        values, _ = _generic_axis_transform(
            values, ops_for(pd, "exact"), pd, w, prod(sizes[:k]), prod(sizes[k + 1 :])
        )
    return values


def _generic_exact(phi):
    out = _generic_table_transform(phi.values, [(phi.pd, phi.window)] * phi.arity)
    return LocalTestFunction(phi.pd, phi.window.dual(phi.pd.nu), phi.arity, out)


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


def _small_table(p, size, seed):
    rng = random.Random(seed)
    def coeff():
        return Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))

    return [CycScalar(p, [coeff() for _ in range(p - 1)]) for _ in range(size)]


_P2_T = place_data(Place.finite(Poly(F2, [0, 1])))  # Q = 2
_P2_T2 = place_data(Place.finite(Poly(F2, [1, 1, 1])))  # Q = 4
_P3_T = place_data(Place.finite(Poly(F3, [0, 1])))  # Q = 3
_P3_T2 = place_data(Place.finite(Poly(F3, [1, 0, 1])))  # Q = 9


@pytest.mark.parametrize(
    "axes,kind",
    [
        ([(_P2_T, Window(1, 2)), (_P2_T2, Window(0, 1))], "small"),
        ([(_P2_T2, Window(1, 1)), (_P2_T, Window(0, 1))], "huge"),
        ([(_P2_T, Window(1, 1)), (_P2_T2, Window(0, 1)), (_P2_T, Window(0, 2))], "wide"),
        ([(_P3_T, Window(1, 1)), (_P3_T2, Window(0, 1))], "small"),
        ([(_P2_T, Window(0, 0)), (_P2_T2, Window(0, 1))], "small"),
        ([(_P2_T2, Window(0, 1)), (_P2_T, Window(0, 0))], "huge"),
        ([(_P3_T, Window(0, 0))], "small"),
        ([(_P2_T, Window(1, 1))] * 3, "small"),
        ([(_P3_T, Window(0, 1))] * 3, "huge"),
    ],
    ids=[
        "q2k3-q4k1",
        "q4k2-q2k1",
        "three-places",
        "p3-q3k2-q9k1",
        "k0-first",
        "k0-last",
        "k0-alone",
        "arity3-p2",
        "arity3-p3",
    ],
)
def test_transform_table_matches_oracles(axes, kind):
    # the axes differ in Q and in K, so a level left uncontracted, a lost
    # transpose or a gather on the wrong axis changes some cell
    p = axes[0][0].base.p
    size = prod(jet_space_size(pd, w) for pd, w in axes)
    if kind == "small":
        values = _small_table(p, size, seed=size)
    else:
        values = _big_table(p, size, kind, seed=size)
    arr, den = _transform_table(*_table_of(values, p, "exact"), axes)
    got = _int_to_values(arr, den, p)
    assert got == _direct_table_transform(values, axes)
    assert got == _generic_table_transform(values, axes)


# -- the working dtype of each contraction ------------------------------------------


@pytest.fixture
def contraction_dtypes(monkeypatch):
    """The dtype of every table handed to _contract_levels, in order."""
    dtypes = []
    contract = localfield._contract_levels

    def spy(arr, *args):
        dtypes.append(arr.dtype)
        return contract(arr, *args)

    monkeypatch.setattr(localfield, "_contract_levels", spy)
    return dtypes


def _odd_below(limit, factor):
    """The largest odd t with factor * t < limit."""
    t = (limit - 1) // factor
    return t if t % 2 else t - 1


def _odd_above(limit, factor):
    """The smallest odd t with factor * t >= limit."""
    t = -(-limit // factor)
    return t if t % 2 else t + 1


def _odd_table(p, size, top, seed):
    """size scalars whose zeta-coefficients are odd integers of absolute
    value at most top, one of them -top."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * (rng.randrange(top // 2, top) | 1))

    vals = [CycScalar(p, [coeff() for _ in range(p - 1)]) for _ in range(size)]
    vals[0] = CycScalar(p, [Fraction(-top)] + [Fraction(1)] * (p - 2))
    return vals


@pytest.mark.parametrize(
    "p,d,win",
    [(2, 5, Window(1, 0)), (3, 2, Window(1, 1))],
    ids=["q=32", "q=9"],
)
@pytest.mark.parametrize(
    "bound,limit,dtype",
    [(_odd_below, 1 << 53, np.float64), (_odd_above, 1 << 53, np.int64), (_odd_below, 1 << 60, np.int64)],
    ids=["float64-below-2^53", "int64-above-2^53", "int64-below-2^60"],
)
def test_contraction_tiers_at_their_bounds(p, d, win, bound, limit, dtype, contraction_dtypes):
    # the guard bounds every sum by factor * max|entry|, with factor =
    # Q^K * 4 here (the scale's numerator is 1); max|entry| is the odd
    # integer next to limit / factor, and float64 would drop the odd low
    # bits of the int64 tables' sums.  Each level's matmul takes D p * Q p
    # >= 4096 multiply-adds, enough work for float64.
    pd = synth(make_field(p), d, 0)
    D = jet_space_size(pd, win)
    top = bound(limit, D * 4)
    phi = LocalTestFunction(pd, win, 1, _odd_table(p, D, top, seed=top % 997))
    out = fourier_multi(phi)
    assert contraction_dtypes == [np.dtype(dtype)]
    assert list(pd._kernel_matmul) == list(dict.fromkeys([np.dtype(np.int64), np.dtype(dtype)]))
    assert out._arr.dtype == np.int64
    assert out.table_equal(fourier_direct(phi))
    assert out.table_equal(_generic_exact(phi))


@pytest.mark.parametrize("p", [2, 3])
def test_small_contraction_stays_int64_below_the_float_bound(p, contraction_dtypes):
    # one level of Q = p jets is a (p, p^2) @ (p^2, p^2) matmul: too few
    # multiply-adds for float64 to pay for itself
    pd = synth(make_field(p), 1, 0)
    win = Window(1, 1)
    D = jet_space_size(pd, win)
    phi = LocalTestFunction(pd, win, 1, _odd_table(p, D, _odd_below(1 << 53, D * 4), seed=p))
    out = fourier_multi(phi)
    assert contraction_dtypes == [np.dtype(np.int64)]
    assert list(pd._kernel_matmul) == [np.dtype(np.int64)]
    assert out.table_equal(fourier_direct(phi))


def test_contraction_tiers_switch_across_axes(contraction_dtypes):
    # a constant c comes out of an axis with Q^K jets as Q^K c at jet 0;
    # the axes have Q^K = 2, 16 and 16, so with c just over 2^49 the bounds
    # are 8 c < 2^53 (float64), 64 * 2 c in [2^53, 2^60) (int64) and
    # 64 * 32 c >= 2^60 (object); odd noise fills the low bits.  The first
    # axis's matmul takes 1024 * 4 = 4096 multiply-adds, enough for float64.
    axes = [(_P2_T, Window(0, 1)), (_P2_T2, Window(1, 1)), (_P2_T2, Window(0, 2))]
    size = prod(jet_space_size(pd, w) for pd, w in axes)
    rng = random.Random(13)
    c = 2**49 + 2**41
    values = [CycScalar.rational(2, c + rng.randrange(-7, 8, 2)) for _ in range(size)]
    arr, den = _transform_table(*_table_of(values, 2, "exact"), axes)
    assert contraction_dtypes == [np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)]
    assert _int_to_values(arr, den, 2) == _generic_table_transform(values, axes)


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


# -- code tables of fields past the dense tables --------------------------------------


@pytest.mark.parametrize("p,e,count", [(17, 2, None), (3, 6, 10000)])
def test_field_code_tables_past_dense_tables_match_scalar_arithmetic(p, e, count):
    F = make_field(p, e)
    mul, add = localfield._field_code_tables(F)
    assert F._mul_table is None and mul.shape == add.shape == (F.q, F.q)
    if count is None:
        pairs = [(a, b) for a in range(F.q) for b in range(F.q)]
    else:
        rng = random.Random(count + F.q)
        pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(count)]
        pairs += [(a, F.neg_code(a)) for a in range(F.q)] + [(0, b) for b in range(F.q)]
    for a, b in pairs:
        assert mul[a, b] == F.mul_code(a, b)
        assert add[a, b] == F.add_code(a, b)
