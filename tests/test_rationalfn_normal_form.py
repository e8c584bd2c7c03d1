"""RationalFn's normal form against a reference that always reduces by the
gcd, on random fractions over F_2, F_3 and F_4."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ffpoisson.poly import Poly, RationalFn  # noqa: E402
from ffpoisson.scalars import make_field  # noqa: E402

FIELDS = [make_field(2), make_field(3), make_field(2, 2)]


def reference_normal_form(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Divide out gcd(num, den) unconditionally, then make den monic."""
    g = num.gcd(den)
    num, den = num // g, den // g
    lead_inv = den.field.inv_code(den.leading())
    return num.scale(lead_inv), den.scale(lead_inv)


@st.composite
def fractions(draw):
    """(num, den) = (a c, b c) with a common factor c; a may be zero, and b
    is often a constant that need not be monic."""
    field = draw(st.sampled_from(FIELDS))
    code = st.integers(0, field.q - 1)

    def poly(min_size, max_size):
        return Poly(field, draw(st.lists(code, min_size=min_size, max_size=max_size)))

    a = poly(0, 4)
    b = Poly(field, [draw(st.integers(1, field.q - 1))]) if draw(st.booleans()) else poly(1, 4)
    c = Poly(field, [draw(st.integers(1, field.q - 1))]) if draw(st.booleans()) else poly(1, 3)
    hypothesis.assume(not b.is_zero() and not c.is_zero())
    return a * c, b * c


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(fractions())
def test_rationalfn_matches_reference_normal_form(frac):
    num, den = frac
    f = RationalFn(num, den)
    assert (f.num, f.den) == reference_normal_form(num, den)
    assert f.den.is_monic()
