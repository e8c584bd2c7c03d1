import itertools
import random
from fractions import Fraction

import pytest

from ffpoisson.motivic import (
    ClassFamily,
    ClosedPoint,
    ConstructibleSet,
    MPoly,
    MotivicClass,
    closed_points,
    euler_product,
    frobenius_orbit,
    indistinguishable_up_to,
    orbit_norm_value,
    psi_class,
)
from ffpoisson.scalars import CycScalar, cyc_normalize, make_field, psi

F2 = make_field(2)
F3 = make_field(3)


def enumerate_points(X: ConstructibleSet, d: int = 1):
    return X.points(d)


def var(field, nvars=1, i=0):
    return MPoly.var(field, nvars, i)


def test_enumerate_points_irreducible_quadric():
    # x^2 + x + 1 has no roots over F_2, two over F_4
    h = var(F2) * var(F2) + var(F2) + MPoly.constant(F2, 1, 1)
    X = ConstructibleSet(F2, 1, (h,))
    assert enumerate_points(X, 1) == []
    assert len(enumerate_points(X, 2)) == 2


def test_enumerate_points_affine_line():
    X = ConstructibleSet.affine_line(F3)
    assert len(enumerate_points(X, 1)) == 3
    assert len(enumerate_points(X, 2)) == 9


def test_class_mul_by_zero():
    a = MotivicClass.affine_line_class(F2)
    z = MotivicClass.zero(F2)
    assert (a * z).is_zero_presentation()


def test_point_class_product_specializes_to_character_sum():
    # [{c},Id][{c'},Id] specializes to psi(c + c')
    for c in F3.elements():
        for cp in F3.elements():
            prod = psi_class(c) * psi_class(cp)
            assert prod.specialize(1) == psi(c + cp)


def test_affine_plane_point_count():
    a = MotivicClass.affine_line_class(F3)
    assert (a * a).specialize(1) == CycScalar.rational(3, 9)
    assert (a * a).specialize(2) == CycScalar.rational(3, 81)


def test_shift_L_examples():
    one = MotivicClass.one(F3)
    assert one.shift_L(1).specialize(1) == CycScalar.rational(3, 3)
    a = MotivicClass.affine_line_class(F3)
    assert a.shift_L(0).specialize(2) == a.specialize(2)
    assert a.shift_L(2).shift_L(-2).specialize(1) == a.specialize(1)
    # negative powers give exact rationals
    assert one.shift_L(-2).specialize(1) == CycScalar.rational(3, Fraction(1, 9))


def test_specialize_full_line_with_identity_vanishes():
    for F in (F2, F3):
        X = ConstructibleSet.affine_line(F)
        cls = MotivicClass.generator(X, var(F))
        for d in (1, 2, 3):
            assert cls.specialize(d).is_zero()


def test_specialize_counts_points():
    X = ConstructibleSet.affine_line(F3)
    cls = MotivicClass.generator(X, MPoly.zero(F3, 1))
    assert cls.specialize(1) == CycScalar.rational(3, 3)


def test_specialize_square_exponent():
    X = ConstructibleSet.affine_line(F3)
    cls = MotivicClass.generator(X, var(F3) * var(F3))
    assert cls.specialize(1) == cyc_normalize(3, [1, 2, 0])


def _random_class(field, rng):
    nvars = 1
    X = ConstructibleSet.affine_line(field)
    if rng.random() < 0.5:
        X = ConstructibleSet.punctured_line(field)
    # random h of degree <= 2
    terms = {}
    for e in range(3):
        c = rng.randrange(field.q)
        if c:
            terms[(e,)] = c
    h = MPoly(field, nvars, terms)
    return MotivicClass.generator(X, h, rng.choice([-2, -1, 1, 2])).shift_L(
        rng.choice([-1, 0, 1])
    )


@pytest.mark.parametrize("field", [F2, F3])
def test_specialize_is_ring_homomorphism(field):
    rng = random.Random(5)
    for _ in range(12):
        a = _random_class(field, rng)
        b = _random_class(field, rng)
        for d in (1, 2):
            assert (a + b).specialize(d) == a.specialize(d) + b.specialize(d)
            assert (a * b).specialize(d) == a.specialize(d) * b.specialize(d)


def test_translation_invariant_classes_vanish():
    # [X, h] with X = A^1 x Y and h(t, y) = t + g(y) specializes to 0
    for field in (F2, F3):
        for gexp in (1, 2):
            X = ConstructibleSet.affine_space(field, 2)
            h = MPoly.var(field, 2, 0) + MPoly.var(field, 2, 1, gexp)
            cls = MotivicClass.generator(X, h)
            for d in (1, 2, 3):
                assert cls.specialize(d).is_zero()


def test_closed_points_affine_line_f2():
    X = ConstructibleSet.affine_line(F2)
    assert len(closed_points(X, 1)) == 2
    pts = closed_points(X, 2)
    assert len(pts) == 3
    assert sorted(P.degree for P in pts) == [1, 1, 2]


def test_closed_points_punctured_line_f3():
    X = ConstructibleSet.punctured_line(F3)
    assert len(closed_points(X, 1)) == 2


@pytest.mark.parametrize("field,B", [(F2, 3), (F3, 2)])
def test_closed_point_degree_bookkeeping(field, B):
    # sum over d | n of d * #(degree-d points) = #X(F_{q^n})
    X = ConstructibleSet.affine_line(field)
    pts = closed_points(X, B)
    for n in range(1, B + 1):
        total = sum(P.degree for P in pts if n % P.degree == 0)
        assert total == len(X.points(n))


def test_closed_point_rejects_wrong_degree():
    X = ConstructibleSet.affine_line(F2)
    one_pt = X.points(1)[0]
    with pytest.raises(ValueError):
        ClosedPoint(X, 2, one_pt)


def test_orbit_norm_constant_zero():
    X = ConstructibleSet.affine_line(F2)
    for P in closed_points(X, 3):
        v = orbit_norm_value(P, MPoly.zero(F2, 1))
        assert v == CycScalar.one(2)


def test_orbit_norm_quadratic_orbit():
    # roots of X^2+X+1 over F_2: trace of either root is 1, so psi -> -1
    h = var(F2) * var(F2) + var(F2) + MPoly.constant(F2, 1, 1)
    X = ConstructibleSet(F2, 1, (h,))
    pts = closed_points(X, 2)
    assert len(pts) == 1 and pts[0].degree == 2
    assert orbit_norm_value(pts[0], var(F2)) == CycScalar.rational(2, -1)


def test_orbit_norm_representative_independent():
    X = ConstructibleSet.affine_line(F2)
    h = var(F2) * var(F2) + var(F2)
    for P in closed_points(X, 3):
        base = orbit_norm_value(P, h)
        for member in P.orbit():
            Q = ClosedPoint(X, P.degree, member)
            assert orbit_norm_value(Q, h) == base


def test_euler_product_degree_one_coefficient():
    X = ConstructibleSet.affine_line(F2)
    lhs, rhs = euler_product(X, ClassFamily.one(F2, 1), 1)
    assert lhs[1] == CycScalar.rational(2, 2) == rhs[1]


def test_euler_product_stable_two_subsets():
    X = ConstructibleSet.affine_line(F2)
    lhs, rhs = euler_product(X, ClassFamily.one(F2, 1), 2)
    # pairs of rational points plus the quadratic orbit: C(2,2) + 1 = 2
    assert lhs[2] == CycScalar.rational(2, 2) == rhs[2]


def test_euler_product_zero_family():
    X = ConstructibleSet.affine_line(F2)
    lhs, rhs = euler_product(X, ClassFamily.zero(F2, 1), 3)
    assert lhs[0] == CycScalar.one(2) and rhs[0] == CycScalar.one(2)
    for k in range(1, 4):
        assert lhs[k].is_zero() and rhs[k].is_zero()


def _conic(field):
    # x^2 + y^2 = 1
    x = MPoly.var(field, 2, 0)
    y = MPoly.var(field, 2, 1)
    return ConstructibleSet(field, 2, (x * x + y * y - MPoly.constant(field, 2, 1),))


@pytest.mark.parametrize("field", [F2, F3])
def test_euler_product_sides_agree(field):
    sets = [
        ConstructibleSet.affine_line(field),
        ConstructibleSet.punctured_line(field),
        _conic(field),
    ]
    fams = [
        ClassFamily.one(field, None),
        None,
    ]
    for X in sets:
        for fam in (
            ClassFamily.one(field, X.nvars),
            ClassFamily.character(field, X.nvars, MPoly.var(field, X.nvars, 0)),
        ):
            lhs, rhs = euler_product(X, fam, 4)
            assert lhs == rhs


def test_frobenius_orbit_closure():
    X = ConstructibleSet.affine_line(F2)
    for pt in X.points(3):
        orbit = frobenius_orbit(X, pt)
        assert len(orbit) in (1, 3)


def test_indistinguishable_semi_decision():
    X = ConstructibleSet.affine_line(F2)
    cls = MotivicClass.generator(X, var(F2))
    assert indistinguishable_up_to(cls, MotivicClass.zero(F2), 3)
    one = MotivicClass.one(F2)
    assert not indistinguishable_up_to(one, MotivicClass.zero(F2), 2)


def test_base_field_mismatch_rejected():
    a = MotivicClass.affine_line_class(F2)
    b = MotivicClass.affine_line_class(F3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_serialization_roundtrip():
    X = ConstructibleSet.punctured_line(F3)
    h = var(F3) * var(F3)
    cls = MotivicClass.generator(X, h).shift_L(-1)
    data = cls.to_json()
    assert data["lshift"] == -1
    assert data["terms"][0]["set"]["inequations"]
    h2 = MPoly.from_json(F3, 1, data["terms"][0]["h"])
    assert h2 == h


# -- the per-point oracles ---------------------------------------------------------
#
# The motivic layer counts points by trace class on integer codes.  These are
# the per-point definitions it replaced: element arithmetic through FieldElem,
# traces as sums of Frobenius powers, and CycScalar sums and products.


def _eval_oracle(h, point, big):
    acc = big.zero()
    for exps, code in h.terms.items():
        term = big.embed(h.field.from_code(code))
        for x, k in zip(point, exps):
            if k:
                term = term * x**k
        acc = acc + term
    return acc


def _psi_oracle(x):
    F = x.field
    acc, y = x, x
    for _ in range(F.e - 1):
        y = y**F.p
        acc = acc + y
    assert acc.code < F.p
    return CycScalar.zeta_power(F.p, acc.code)


def _points_oracle(X, d):
    big = X.extension(d)
    return [
        pt
        for pt in itertools.product(list(big.elements()), repeat=X.nvars)
        if all(_eval_oracle(f, pt, big).is_zero() for f in X.equations)
        and all(not _eval_oracle(f, pt, big).is_zero() for f in X.inequations)
    ]


def _specialize_oracle(cls, d):
    acc = CycScalar.zero(cls.field.p)
    for coeff, X, h in cls.terms:
        big = X.extension(d)
        for x in _points_oracle(X, d):
            acc = acc + _psi_oracle(_eval_oracle(h, x, big)) * coeff
    return acc * Fraction(cls.field.q) ** (d * cls.lshift)


def _orbit_oracle(X, pt):
    q = X.field.q
    orbit = [tuple(pt)]
    cur = tuple(x**q for x in pt)
    while cur != orbit[0]:
        orbit.append(cur)
        cur = tuple(x**q for x in cur)
    return orbit


def _closed_points_oracle(X, B):
    out = []
    for n in range(1, B + 1):
        seen = set()
        for pt in _points_oracle(X, n):
            key = tuple(c.code for c in pt)
            if key in seen:
                continue
            orbit = _orbit_oracle(X, pt)
            seen.update(tuple(c.code for c in m) for m in orbit)
            if len(orbit) == n:
                out.append((n, min(tuple(c.code for c in m) for m in orbit)))
    return out


def _norm_oracle(P, family):
    big = P.X.extension(P.degree)
    acc = CycScalar.zero(P.X.field.p)
    for coeff, h in family.terms:
        acc = acc + _psi_oracle(_eval_oracle(h, P.rep, big)) * coeff
    if family.lshift:
        acc = acc * Fraction(P.X.field.q**P.degree) ** family.lshift
    return acc


def _euler_oracle(X, family, B):
    p = X.field.p
    pts = [
        ClosedPoint(X, n, tuple(X.extension(n).from_code(c) for c in rep))
        for n, rep in _closed_points_oracle(X, B)
    ]
    values = [_norm_oracle(v, family) for v in pts]
    lhs = [CycScalar.one(p)] + [CycScalar.zero(p) for _ in range(B)]
    for v, a in zip(pts, values):
        new = list(lhs)
        for k in range(B + 1 - v.degree):
            new[k + v.degree] = new[k + v.degree] + lhs[k] * a
        lhs = new
    rhs = [CycScalar.one(p)] + [CycScalar.zero(p) for _ in range(B)]

    def extend(i, weight, prod):
        if weight:
            rhs[weight] = rhs[weight] + prod
        for j in range(i, len(pts)):
            w = weight + pts[j].degree
            if w <= B:
                extend(j + 1, w, prod * values[j])

    extend(0, 0, CycScalar.one(p))
    return lhs, rhs


# -- the counting layer against the oracles ------------------------------------------

F5 = make_field(5)
F512 = make_field(2, 9)
F729 = make_field(3, 6)


def _poly(field, nvars, text_terms):
    """sum of coeff * prod x_i^k_i from (coeff, exps) pairs."""
    return MPoly(field, nvars, {tuple(e): field.elem(c).code for c, e in text_terms})


def _x0x1_minus_one(field):
    return _poly(field, 2, [(1, (1, 1)), (-1, (0, 0))])


def _sets(field):
    x0 = MPoly.var(field, 2, 0)
    return {
        "a1": ConstructibleSet.affine_line(field),
        "gm": ConstructibleSet.punctured_line(field),
        "a2": ConstructibleSet.affine_space(field, 2),
        "conic": _conic(field),
        "hyperbola": ConstructibleSet(
            field, 2, (_x0x1_minus_one(field),), (x0 - MPoly.constant(field, 2, 1),)
        ),
    }


def _h(field, nvars):
    """A polynomial of several terms, a constant among them."""
    if nvars == 1:
        return _poly(field, 1, [(1, (3,)), (2, (1,)), (1, (0,))])
    return _poly(field, 2, [(1, (2, 0)), (2, (0, 1)), (1, (1, 1)), (1, (0, 0))])


@pytest.mark.parametrize(
    "field,name,degrees",
    [
        (F2, "a1", (1, 5, 9)),
        (F3, "gm", (1, 4, 6)),
        (F3, "conic", (1, 2, 3)),
        (F5, "a2", (1, 2)),
        (F5, "hyperbola", (1, 2, 3)),
        (F3, "hyperbola", (1, 2, 3)),
        (F512, "a1", (1,)),
        (F729, "gm", (1,)),
    ],
)
def test_specialize_counts_like_the_per_point_sum(field, name, degrees):
    X = _sets(field)[name]
    h = _h(field, X.nvars)
    g = MPoly.var(field, X.nvars, X.nvars - 1)
    for lshift in (-1, 0, 1):
        cls = (
            MotivicClass.generator(X, h, 2) + MotivicClass.generator(X, g, -1)
        ).shift_L(lshift)
        for d in degrees:
            assert cls.specialize(d) == _specialize_oracle(cls, d), (name, lshift, d)
    for d in degrees:
        big = X.extension(d)
        assert X.points(d) == _points_oracle(X, d)
        for pt in X.points(d)[:200]:
            for f in (h, g):
                assert f.eval(pt) == _eval_oracle(f, pt, big)


def test_specialize_sums_to_zero_through_the_zech_table():
    # x0 + x1 on A^2 over F_{5^d}: half-cancelling sums reach 1 + g^k = 0
    X = ConstructibleSet.affine_space(F5, 2)
    h = _poly(F5, 2, [(1, (1, 0)), (1, (0, 1))])
    cls = MotivicClass.generator(X, h)
    for d in (1, 2):
        assert cls.specialize(d) == _specialize_oracle(cls, d) == CycScalar.zero(5)
    big = X.extension(2)
    pt = (big.from_code(7), big.from_code(big.neg_code(7)))
    assert h.eval(pt).is_zero()


@pytest.mark.parametrize(
    "field,name,B",
    [(F2, "a1", 9), (F3, "gm", 6), (F3, "conic", 3), (F5, "hyperbola", 3), (F3, "hyperbola", 3)],
)
def test_closed_points_and_euler_product_match_the_oracles(field, name, B):
    X = _sets(field)[name]
    pts = closed_points(X, B)
    assert [(P.degree, tuple(c.code for c in P.rep)) for P in pts] == _closed_points_oracle(X, B)
    families = [
        ClassFamily.one(field, X.nvars),
        ClassFamily.character(field, X.nvars, MPoly.var(field, X.nvars, 0)),
        ClassFamily(field, X.nvars, ((2, _h(field, X.nvars)), (-1, MPoly.zero(field, X.nvars))), -1),
        ClassFamily(field, X.nvars, ((1, _h(field, X.nvars)),), 1),
    ]
    for fam in families:
        for P in pts:
            assert orbit_norm_value(P, fam) == _norm_oracle(P, fam)
        if B <= 6 or fam is families[0]:
            lhs, rhs = euler_product(X, fam, B)
            want_lhs, want_rhs = _euler_oracle(X, fam, B)
            assert lhs == want_lhs and rhs == want_rhs
            assert lhs == rhs


def test_closed_points_over_a_base_field_past_the_dense_tables():
    for field in (F512, F729):
        X = ConstructibleSet.punctured_line(field)
        assert [(P.degree, tuple(c.code for c in P.rep)) for P in closed_points(X, 1)] == (
            _closed_points_oracle(X, 1)
        )
        fam = ClassFamily(field, 1, ((1, _h(field, 1)), (3, MPoly.var(field, 1, 0))))
        for P in closed_points(X, 1)[:: field.q // 50]:
            assert orbit_norm_value(P, fam) == _norm_oracle(P, fam)


def test_euler_product_sides_are_computed_independently(monkeypatch):
    # the identity holds for any orbit values, so the sides agree only
    # because both expand one product; break the product and they must part
    import ffpoisson.motivic as motivic

    times = motivic._times

    def off_by_one(a, b):
        out = times(a, b)
        out[0] += 1
        return out

    monkeypatch.setattr(motivic, "_times", off_by_one)
    for field, B in ((F2, 3), (F3, 2)):
        lhs, rhs = euler_product(ConstructibleSet.affine_line(field), ClassFamily.one(field, 1), B)
        assert lhs != rhs
