"""Closed points of P^1 over F_q and exact Laurent expansion at them.

A finite place is a monic irreducible polynomial pi(t); its canonical
parameter is pi itself and its residue field is F_{q^deg(pi)}, realized
inside the fixed field tower by the smallest-code root theta of pi.  The
place at infinity has parameter 1/t.  The completion at a place is modeled
as k_u((s)) with s the canonical parameter; the image of t is the unique
series T(s) with pi(T) = s and T(0) = theta (Hensel/Newton), and the fixed
1-form dt becomes T'(s) ds.  This pins residues, the duality exponent
nu = -ord(dt), and every jet computation downstream.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import Poly, RationalFn, monic_irreducibles
from .scalars import FieldDescriptor, FieldElem, make_field


class Place:
    """A closed point of P^1/F_q: Finite(monic irreducible) or Infinity."""

    __slots__ = ("field", "poly", "degree")

    def __init__(self, field: FieldDescriptor, poly: Poly | None):
        if poly is not None:
            if not poly.is_monic() or not poly.is_irreducible():
                raise ValueError("finite place needs a monic irreducible polynomial")
            if poly.field is not field:
                raise ValueError("place polynomial over the wrong field")
        self.field = field
        self.poly = poly
        self.degree = 1 if poly is None else poly.degree

    @staticmethod
    def finite(poly: Poly) -> "Place":
        return Place(poly.field, poly)

    @staticmethod
    def infinity(field: FieldDescriptor) -> "Place":
        return Place(field, None)

    @staticmethod
    def at(field: FieldDescriptor, root) -> "Place":
        """The degree-1 place t = root."""
        c = field.elem(root)
        return Place(field, Poly(field, (field.neg_code(c.code), 1)))

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    def valuation(self, f: RationalFn) -> int:
        if f.field is not self.field:
            raise ValueError("rational function over the wrong field")
        if self.is_infinite:
            return f.order_at_infinity()
        return f.order_at_poly(self.poly)

    def sort_key(self):
        if self.is_infinite:
            return (0, 0, ())
        return (1, self.degree, self.poly.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and other.field is self.field
            and other.poly == self.poly
        )

    def __hash__(self):
        return hash((id(self.field), self.poly))

    def __repr__(self):
        return "inf" if self.is_infinite else repr(self.poly)


def places_up_to(field: FieldDescriptor, bound: int) -> list[Place]:
    """Infinity followed by all finite places of degree <= bound."""
    if bound < 1:
        raise ValueError("degree bound must be >= 1")
    out = [Place.infinity(field)]
    for d in range(1, bound + 1):
        out.extend(Place.finite(f) for f in monic_irreducibles(field, d))
    return out


# ---------------------------------------------------------------------------
# Truncated Laurent series over the residue field
# ---------------------------------------------------------------------------


class Series:
    """Coefficients for s^i, lo <= i < hi; exact on that range, 0 below lo."""

    __slots__ = ("field", "lo", "hi", "coeffs")

    def __init__(self, field: FieldDescriptor, lo: int, coeffs, hi: int):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            lo += 1
        del coeffs[max(hi - lo, 0) :]
        if not coeffs:
            lo = hi
        self.field = field
        self.lo = lo
        self.hi = hi
        self.coeffs = coeffs

    @staticmethod
    def zero(field: FieldDescriptor, hi: int) -> "Series":
        return Series(field, hi, [], hi)

    @staticmethod
    def monomial(field: FieldDescriptor, coeff: FieldElem, k: int, hi: int) -> "Series":
        return Series(field, k, [coeff], hi)

    def at(self, i: int) -> FieldElem:
        if i >= self.hi:
            raise ValueError(f"coefficient s^{i} beyond precision {self.hi}")
        if i < self.lo or i - self.lo >= len(self.coeffs):
            return self.field.zero()
        return self.coeffs[i - self.lo]

    def ord(self) -> int | None:
        return self.lo if self.coeffs else None

    def pad_to(self, hi: int) -> "Series":
        # claims exactness to hi with zero tail; Newton lifting only
        return Series(self.field, self.lo, self.coeffs, max(hi, self.hi))

    def truncate(self, hi: int) -> "Series":
        return Series(self.field, self.lo, self.coeffs, min(hi, self.hi))

    def __add__(self, other: "Series") -> "Series":
        hi = min(self.hi, other.hi)
        lo = min(self.lo, other.lo, hi)
        out = [self.field.zero()] * (hi - lo)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                k = src.lo + i
                if k < hi:
                    out[k - lo] = out[k - lo] + c
        return Series(self.field, lo, out, hi)

    def __neg__(self) -> "Series":
        return Series(self.field, self.lo, [-c for c in self.coeffs], self.hi)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        if not self.coeffs or not other.coeffs:
            hi = min(
                self.hi + (other.ord() if other.coeffs else other.hi),
                other.hi + (self.ord() if self.coeffs else self.hi),
            )
            return Series.zero(self.field, hi)
        lo = self.lo + other.lo
        hi = min(self.hi + other.lo, other.hi + self.lo)
        out = [self.field.zero()] * max(hi - lo, 0)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                k = self.lo + i + other.lo + j
                if k >= hi:
                    break
                if not b.is_zero():
                    out[k - lo] = out[k - lo] + a * b
        return Series(self.field, lo, out, hi)

    def scale(self, c: FieldElem) -> "Series":
        return Series(self.field, self.lo, [c * x for x in self.coeffs], self.hi)

    def shift(self, k: int) -> "Series":
        return Series(self.field, self.lo + k, self.coeffs, self.hi + k)

    def inverse(self) -> "Series":
        """Multiplicative inverse; precision hi - 2*ord as usual."""
        m = self.ord()
        if m is None:
            raise ZeroDivisionError("inverting a series that vanishes to precision")
        lead_inv = self.coeffs[0].inverse()
        n = self.hi - self.lo
        inv = [lead_inv]
        for k in range(1, n):
            acc = self.field.zero()
            for i in range(1, k + 1):
                a = self.coeffs[i] if i < len(self.coeffs) else self.field.zero()
                if not a.is_zero():
                    acc = acc + a * inv[k - i]
            inv.append(-lead_inv * acc)
        return Series(self.field, -m, inv, self.hi - 2 * m)

    def __repr__(self):
        terms = [f"{c!r}*s^{self.lo + i}" for i, c in enumerate(self.coeffs)]
        return " + ".join(terms) + f" + O(s^{self.hi})"


# ---------------------------------------------------------------------------
# Place-local data: residue fields, parameters, expansions
# ---------------------------------------------------------------------------


class PlaceData:
    """Everything one place contributes to local analysis.

    For global places this is derived from the place polynomial; synthetic
    instances (arbitrary residue degree and even nu) support pure local work
    where no curve is in play.
    """

    def __init__(
        self,
        base: FieldDescriptor,
        ku: FieldDescriptor,
        nu: int,
        place: Place | None = None,
        label: str = "",
    ):
        self.base = base
        self.ku = ku
        self.d = ku.e // base.e
        self.nu = nu
        self.place = place
        self.label = label or (repr(place) if place is not None else f"local(d={self.d})")
        self.theta: FieldElem | None = None
        self._t_series: Series | None = None
        self._omega: Series | None = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def for_place(place: Place) -> "PlaceData":
        base = place.field
        ku = make_field(base.p, base.e * place.degree)
        nu = 0 if not place.is_infinite else 2
        pd = PlaceData(base, ku, nu, place)
        if not place.is_infinite:
            for cand in ku.elements():
                if place.poly.eval(cand).is_zero():
                    pd.theta = cand
                    break
            if pd.theta is None:
                raise RuntimeError("no root of the place polynomial; tower corrupt")
        return pd

    @staticmethod
    def synthetic(base: FieldDescriptor, d: int, nu: int) -> "PlaceData":
        """An abstract local field with residue degree d and O-dual t^nu O."""
        if nu % 2 != 0:
            raise ValueError("duality exponent nu must be even")
        ku = make_field(base.p, base.e * d)
        return PlaceData(base, ku, nu, None, label=f"local(d={d},nu={nu})")

    # -- parameter expansion ----------------------------------------------------

    def t_series(self, hi: int) -> Series:
        """Image of t in k_u((s)); pi(T) = s, T(0) = theta (1/s at infinity)."""
        if self.place is None:
            raise ValueError("synthetic local data carries no global parameter")
        if self.place.is_infinite:
            return Series.monomial(self.ku, self.ku.one(), -1, hi)
        if self._t_series is not None and self._t_series.hi >= hi:
            return self._t_series.truncate(hi)
        pi = self.place.poly
        dpi = pi.derivative()
        T = Series(self.ku, 0, [self.theta], 1)
        s = Series.monomial(self.ku, self.ku.one(), 1, hi + 1)
        while T.hi < hi:
            target = min(2 * T.hi, hi)
            Tp = T.pad_to(target)
            err = self._eval_poly(pi, Tp) - s.truncate(target)
            corr = err * self._eval_poly(dpi, Tp).inverse()
            T = (Tp - corr).truncate(target)
        self._t_series = T
        return T

    def _eval_poly(self, f: Poly, at: Series) -> Series:
        acc = Series.zero(self.ku, at.hi)
        one_hi = at.hi if at.lo >= 0 else at.hi + (-at.lo) * (f.degree + 1)
        for c in reversed(f.coeffs):
            acc = acc * at + Series.monomial(
                self.ku, self.ku.embed(f.field.from_code(c)), 0, one_hi
            )
        return acc

    def omega_series(self, hi: int) -> Series:
        """dt/ds: 1/pi'(T) at finite places, -s^(-2) at infinity."""
        if self.place is None:
            return Series.monomial(self.ku, self.ku.one(), -self.nu, hi)
        if self.place.is_infinite:
            return Series.monomial(self.ku, -self.ku.one(), -2, hi)
        if self._omega is not None and self._omega.hi >= hi:
            return self._omega.truncate(hi)
        T = self.t_series(hi + 1)
        w = self._eval_poly(self.place.poly.derivative(), T).inverse().truncate(hi)
        self._omega = w
        return w

    def expand(self, f: RationalFn, hi: int) -> Series:
        """Laurent expansion of a rational function to precision hi."""
        if self.place is None:
            raise ValueError("synthetic local data cannot expand rational functions")
        if f.is_zero():
            return Series.zero(self.ku, hi)
        v_num = self.place.valuation(RationalFn(f.num)) if not f.num.is_one() else 0
        v_den = self.place.valuation(RationalFn(f.den)) if not f.den.is_one() else 0
        work_hi = max(hi, 1)
        pad = abs(v_num) + 3 * abs(v_den) + (f.num.degree + f.den.degree + 2) * (
            1 if self.place.is_infinite else 0
        )
        T = self.t_series(work_hi + pad)
        num = self._eval_poly(f.num, T)
        if f.den.is_one():
            out = num
        else:
            out = num * self._eval_poly(f.den, T).inverse()
        if out.hi < hi:
            raise RuntimeError("internal precision shortfall in expansion")
        return out.truncate(hi)

    # -- residue-field maps used by pairings -------------------------------------

    @property
    def trace_to_base_codes(self) -> list[int]:
        """trace k_u -> F_q as a code table."""
        return self.ku.trace_table(self.base.e)

    def __repr__(self):
        return f"PlaceData({self.label})"


@lru_cache(maxsize=None)
def place_data(place: Place) -> PlaceData:
    return PlaceData.for_place(place)
