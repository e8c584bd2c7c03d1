import pytest

from ffpoisson.place import Place, PlaceData, place_data, places_up_to
from ffpoisson.poly import Poly, RationalFn, monic_irreducibles
from ffpoisson.scalars import make_field

F2 = make_field(2)
F3 = make_field(3)


def test_irreducible_counts():
    assert len(monic_irreducibles(F2, 1)) == 2
    assert len(monic_irreducibles(F2, 2)) == 1
    assert len(monic_irreducibles(F2, 3)) == 2
    assert len(monic_irreducibles(F3, 1)) == 3
    assert len(monic_irreducibles(F3, 2)) == 3


def test_poly_divmod_roundtrip():
    a = Poly(F3, (1, 2, 0, 1))
    b = Poly(F3, (2, 1))
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_poly_factor():
    # t^2 + t = t (t + 1) over F_2
    f = Poly(F2, (0, 1, 1))
    fac = f.factor()
    assert sorted((g.coeffs, m) for g, m in fac) == [((0, 1), 1), ((1, 1), 1)]
    # irreducible quadratic stays whole
    g = Poly(F2, (1, 1, 1))
    assert g.factor() == [(g, 1)]
    # repeated factor
    h = Poly(F2, (1, 0, 1))  # (t+1)^2
    assert h.factor() == [(Poly(F2, (1, 1)), 2)]


def test_poly_gcd_and_derivative():
    f = Poly(F2, (1, 0, 1))  # (t+1)^2, derivative 0 in char 2
    assert f.derivative().is_zero()
    g = Poly(F2, (1, 1))
    assert f.gcd(g) == g


def test_rationalfn_reduction():
    # (t^2 + t) / t reduces to t + 1
    f = RationalFn(Poly(F2, (0, 1, 1)), Poly.x(F2))
    assert f == RationalFn(Poly(F2, (1, 1)))
    assert f.is_polynomial()


def test_rationalfn_valuations():
    t = Poly.x(F2)
    f = RationalFn(Poly.one(F2), t * t)  # 1/t^2
    p_t = Place.at(F2, 0)
    assert p_t.valuation(f) == -2
    assert Place.infinity(F2).valuation(f) == 2
    g = RationalFn(t * t * t)
    assert Place.infinity(F2).valuation(g) == -3


def test_places_up_to_examples():
    ps = places_up_to(F2, 1)
    assert [repr(u) for u in ps] == ["inf", "t", "t+1"]
    ps2 = places_up_to(F2, 2)
    assert [repr(u) for u in ps2] == ["inf", "t", "t+1", "t^2+t+1"]
    assert len(places_up_to(F3, 1)) == 4


def test_place_rejects_reducible():
    with pytest.raises(ValueError):
        Place.finite(Poly(F2, (0, 1, 1)))  # t^2 + t


def test_parameter_series_solves_place_equation():
    pi = Poly(F2, (1, 1, 1))
    pd = place_data(Place.finite(pi))
    T = pd.t_series(8)
    # pi(T) = s exactly to precision
    acc = None
    from ffpoisson.place import Series

    s_mono = Series.monomial(pd.ku, pd.ku.one(), 1, 8)
    val = pd._eval_poly(pi, T)
    diff = val - s_mono
    assert diff.ord() is None or diff.ord() >= 8


def test_omega_is_unit_at_finite_places():
    pd = place_data(Place.finite(Poly(F2, (1, 1, 1))))
    w = pd.omega_series(5)
    assert w.ord() == 0
    assert pd.nu == 0
    pd_inf = place_data(Place.infinity(F2))
    assert pd_inf.omega_series(3).ord() == -2
    assert pd_inf.nu == 2


def test_expand_geometric_series():
    pd = place_data(Place.at(F2, 0))
    f = RationalFn(Poly.one(F2), Poly(F2, (1, 1)))  # 1/(t+1)
    s = pd.expand(f, 4)
    assert [s.at(k).code for k in range(4)] == [1, 1, 1, 1]


def test_expand_at_degree_two_place():
    pi = Poly(F2, (1, 1, 1))
    pd = place_data(Place.finite(pi))
    # 1/pi has a simple pole with unit leading coefficient
    f = RationalFn(Poly.one(F2), pi)
    s = pd.expand(f, 2)
    assert s.ord() == -1
    # f * pi = 1 as series
    tpi = pd._eval_poly(pi, pd.t_series(6))
    prod = s * tpi
    assert prod.at(0) == pd.ku.one()
    assert prod.at(1).is_zero()


def test_expand_at_infinity():
    pd = place_data(Place.infinity(F2))
    t3 = RationalFn(Poly.x(F2) ** 3)
    s = pd.expand(t3, 2)
    assert s.ord() == -3
    assert s.at(-3).code == 1


def test_expand_is_multiplicative():
    import random

    from ffpoisson.poly import RationalFn

    rng = random.Random(13)
    places = [
        place_data(Place.at(F3, 1)),
        place_data(Place.finite(Poly(F3, (1, 0, 1)))),  # t^2 + 1, irreducible mod 3
        place_data(Place.infinity(F3)),
    ]
    for _ in range(10):
        f = RationalFn(
            Poly(F3, [rng.randrange(3) for _ in range(3)]),
            Poly(F3, [rng.randrange(3) for _ in range(2)] + [1]),
        )
        g = RationalFn(
            Poly(F3, [rng.randrange(3) for _ in range(2)]),
            Poly(F3, [rng.randrange(3) for _ in range(2)] + [1]),
        )
        if f.is_zero() or g.is_zero():
            continue
        for pd in places:
            sf = pd.expand(f, 4)
            sg = pd.expand(g, 4)
            sfg = pd.expand(f * g, 3)
            prod = sf * sg
            for k in range(min(prod.hi, 3) - 1, max(prod.lo, sfg.lo) - 1, -1):
                assert prod.at(k) == sfg.at(k)
