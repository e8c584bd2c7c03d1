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
