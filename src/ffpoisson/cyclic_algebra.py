"""Cyclic algebras over F_q(t) and their harmonic analysis at t = 0.

D is L[s] with s a = g(a) s and s^n = t, where L = F_{q^n} and g is a fixed
power of the q-Frobenius generating Gal(L/F_q); n is prime, so every
generator exponent coprime to n gives a form, and two distinct exponents
give the two forms compared by the matching harness.  Elements are n x n
tables of rational functions in the basis d_j s^i with d_j = gamma^j.

At the place t = 0 the integral structure S_0 (all coefficients regular at
t) carries the s-adic filtration w(sum u_i s^i) = min_i (n v_t(u_i) + i);
{w >= k} = s^k S_0, and jets are finite windows of s-adic coefficients in
L.  The Fourier transform on jet windows uses the reduced-trace pairing
psi(res_0(Trd(x y) dt)); its dual-lattice shift is computed from the Gram
matrix of the pairing and the self-dual normalization makes the double
transform exactly the flip x -> -x.  Conjugation-invariant test functions
are built from reduced-characteristic-polynomial jets plus the w-class, so
the same recipe produces matching functions on both forms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import linalg
from .localfield import (
    _contract_levels,
    _digit_matrix,
    _int64_or_object,
    _Table,
    _values_to_int,
)
from .place import Place, PlaceData, coordinate_tables, place_data
from .poly import Poly, RationalFn
from .scalars import (
    CycScalar,
    FieldDescriptor,
    FieldElem,
    make_field,
    trace,
)


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


class AlgebraDescriptor:
    """One form D_{g,t}: base field F_q, prime degree n, generator exponent a."""

    def __init__(self, base: FieldDescriptor, n: int, a: int = 1):
        from .scalars import is_prime

        if not is_prime(n):
            raise ValueError("the algebra degree n must be prime")
        if a % n == 0:
            raise ValueError("generator exponent must be nonzero mod n")
        self.base = base
        self.n = n
        self.a = a % n
        self.L = make_field(base.p, base.e * n)
        gamma = self.L.gen()
        self.d_basis = [gamma**j for j in range(n)]
        # g^i as code tables on L
        self._gpow = []
        for i in range(n):
            power = base.q ** ((self.a * i) % n)
            self._gpow.append([self.L.pow_code(c, power) for c in range(self.L.q)])
        self._coords, self._uncoords = coordinate_tables(base, self.L, self.d_basis)
        # structure constants: d_j * g^i(d_l) = sum_m SC[i][j][l][m] d_m
        self._sc = [
            [
                [
                    self.coords(self.d_basis[j] * self.L.from_code(self._gpow[i][self.d_basis[l].code]))
                    for l in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        self._trd_basis = [trace(dj, base.e) for dj in self.d_basis]
        self._pd0 = place_data(Place.at(base, 0))
        self._L_pd: PlaceData | None = None
        self._nu_D: int | None = None
        self._records: dict[int, np.ndarray] = {}
        self._lops: _LCodeOps | None = None

    # -- L-coordinates over F_q ---------------------------------------------------

    def coords(self, z: FieldElem) -> tuple[int, ...]:
        """F_q-codes of z on the d-basis."""
        return self._coords[z.code]

    def from_coords(self, vec) -> FieldElem:
        return self.L.from_code(self._uncoords[tuple(vec)])

    def gpow(self, i: int, code: int) -> int:
        return self._gpow[i % self.n][code]

    def L_place_data(self) -> PlaceData:
        """Synthetic local data over L; supplies character tables for the
        jet transform."""
        if self._L_pd is None:
            self._L_pd = PlaceData.synthetic(self.base, self.n, 0)
        return self._L_pd

    def __repr__(self):
        return f"D(q={self.base.q}, n={self.n}, g=Frob^{self.a})"

    # -- the dual-lattice exponent --------------------------------------------------

    @property
    def nu_D(self) -> int:
        """t-adic valuation of det of the reduced-trace Gram matrix on the
        d_j s^i basis; must be even (it is n(n-1) here, but we compute it)."""
        if self._nu_D is None:
            n = self.n
            basis = []
            for i in range(n):
                for j in range(n):
                    basis.append(basis_element(self, i, j))
            gram = [
                [reduced_trace(alg_mul(x, y)) for y in basis] for x in basis
            ]
            zero = RationalFn.zero(self.base)
            one = RationalFn.one(self.base)
            det = linalg.determinant(gram, zero, one)
            if det.is_zero():
                raise RuntimeError("degenerate trace pairing; internal error")
            val = det.order_at_poly(Poly.x(self.base))
            if val % 2 != 0:
                raise ValueError(
                    f"dual-lattice exponent {val} is odd; this configuration is rejected"
                )
            self._nu_D = val
        return self._nu_D


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class AlgebraElement:
    """sum_{i,j} x[i][j] d_j s^i with rational-function coefficients."""

    __slots__ = ("desc", "x")

    def __init__(self, desc: AlgebraDescriptor, table):
        n = desc.n
        table = [list(row) for row in table]
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("coefficient table must be n x n")
        self.desc = desc
        self.x = table

    @staticmethod
    def zero(desc):
        z = RationalFn.zero(desc.base)
        return AlgebraElement(desc, [[z] * desc.n for _ in range(desc.n)])

    @staticmethod
    def one(desc):
        el = AlgebraElement.zero(desc)
        el.x[0][0] = RationalFn.one(desc.base)
        return AlgebraElement(desc, el.x)

    @staticmethod
    def s(desc):
        el = AlgebraElement.zero(desc)
        el.x[1][0] = RationalFn.one(desc.base)
        return AlgebraElement(desc, el.x)

    @staticmethod
    def from_L(desc, coeff_vector):
        """An element of the common commutative subalgebra L(F_q(t))."""
        el = AlgebraElement.zero(desc)
        for j, c in enumerate(coeff_vector):
            el.x[0][j] = RationalFn.of(c, desc.base)
        return AlgebraElement(desc, el.x)

    @staticmethod
    def central(desc, f):
        el = AlgebraElement.zero(desc)
        el.x[0][0] = RationalFn.of(f, desc.base)
        return AlgebraElement(desc, el.x)

    def __add__(self, other):
        self._compat(other)
        return AlgebraElement(
            self.desc,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.x, other.x)],
        )

    def __sub__(self, other):
        self._compat(other)
        return AlgebraElement(
            self.desc,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.x, other.x)],
        )

    def __neg__(self):
        return AlgebraElement(self.desc, [[-a for a in row] for row in self.x])

    def scale(self, f: RationalFn):
        return AlgebraElement(self.desc, [[a * f for a in row] for row in self.x])

    def _compat(self, other):
        if other.desc is not self.desc:
            raise ValueError("elements of different algebra forms")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.desc is self.desc
            and other.x == self.x
        )

    def is_zero(self):
        return all(c.is_zero() for row in self.x for c in row)

    def to_json(self):
        return [
            [[list(c.num.coeffs), list(c.den.coeffs)] for c in row] for row in self.x
        ]

    def __repr__(self):
        parts = []
        for i, row in enumerate(self.x):
            for j, c in enumerate(row):
                if not c.is_zero():
                    parts.append(f"({c!r})d{j}s^{i}")
        return " + ".join(parts) or "0"


def basis_element(desc, i, j):
    el = AlgebraElement.zero(desc)
    el.x[i][j] = RationalFn.one(desc.base)
    return AlgebraElement(desc, el.x)


def _cmul(desc, code: int, f: RationalFn) -> RationalFn:
    if code == 0 or f.is_zero():
        return RationalFn.zero(desc.base)
    if code == 1:
        return f
    return RationalFn(f.num.scale(code), f.den)


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in L[s]/(s a = g(a) s, s^n = t)."""
    x._compat(y)
    desc = x.desc
    n = desc.n
    t = RationalFn.t(desc.base)
    out = [[RationalFn.zero(desc.base) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            xij = x.x[i][j]
            if xij.is_zero():
                continue
            for i2 in range(n):
                for l in range(n):
                    y2 = y.x[i2][l]
                    if y2.is_zero():
                        continue
                    prod = xij * y2
                    carry, k = divmod(i + i2, n)
                    if carry:
                        prod = prod * t
                    sc = desc._sc[i][j][l]
                    for m in range(n):
                        code = sc[m]
                        if code:
                            out[k][m] = out[k][m] + _cmul(desc, code, prod)
    return AlgebraElement(desc, out)


def reduced_trace(x: AlgebraElement) -> RationalFn:
    """Trd as a rational function: the Galois trace of the s^0 coefficient."""
    desc = x.desc
    acc = RationalFn.zero(desc.base)
    for j in range(desc.n):
        acc = acc + _cmul(desc, desc._trd_basis[j].code, x.x[0][j])
    return acc


# ---------------------------------------------------------------------------
# Splitting representation and reduced invariants
# ---------------------------------------------------------------------------


def _embed_rational(f: RationalFn, big: FieldDescriptor) -> RationalFn:
    def lift(p: Poly) -> Poly:
        return Poly(big, [big.embed(f.field.from_code(c)).code for c in p.coeffs])

    return RationalFn(lift(f.num), lift(f.den))


def splitting_matrix(x: AlgebraElement):
    """The image of x in M_n over L(t): L acts by its conjugates on the
    diagonal and s by the cyclic shift with a single t entry.

    With P: v_c -> lambda_c v_{c-1}, lambda_0 = t, the power P^i has one
    entry per row r, at column (r + i) mod n, equal to t if r + i >= n and
    to 1 otherwise; u_i s^i contributes the r-th conjugate of u_i there."""
    desc = x.desc
    n, L = desc.n, desc.L
    zero = RationalFn.zero(L)
    t = RationalFn.t(L)
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        # diagonal of conjugates of u_i = sum_j x[i][j] d_j
        diag = []
        for r in range(n):
            acc = RationalFn.zero(L)
            for j in range(n):
                xij = x.x[i][j]
                if not xij.is_zero():
                    dj_conj = L.from_code(desc.gpow(r, desc.d_basis[j].code))
                    acc = acc + _embed_rational(xij, L) * RationalFn(
                        Poly.constant(L, dj_conj)
                    )
            diag.append(acc)
        for r in range(n):
            out[r][(r + i) % n] = diag[r] * t if r + i >= n else diag[r]
    return out


class XPoly:
    """Polynomial in one variable X over any exact field-like coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    def __neg__(self):
        return XPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return XPoly([])
        z = self.coeffs[0] - self.coeffs[0]
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return XPoly(out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        rem = list(self.coeffs)
        dd = other.degree
        lead = other.coeffs[-1]
        z = lead - lead
        quo = [z] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c.is_zero():
                f = c / lead
                quo[k - dd] = f
                for i, oc in enumerate(other.coeffs):
                    rem[k - dd + i] = rem[k - dd + i] - f * oc
        return XPoly(quo), XPoly(rem[:dd])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if not a.is_zero():
            lead = a.coeffs[-1]
            a = XPoly([c / lead for c in a.coeffs])
        return a

    def derivative(self):
        if self.degree < 1:
            return XPoly([])
        out = []
        for i in range(1, len(self.coeffs)):
            c = self.coeffs[i]
            acc = c - c
            for _ in range(i % _char_of(c)):
                acc = acc + c
            out.append(acc)
        return XPoly(out)

    def __eq__(self, other):
        return isinstance(other, XPoly) and other.coeffs == self.coeffs

    def __repr__(self):
        return "X:" + repr(self.coeffs)


def _char_of(c) -> int:
    if isinstance(c, RationalFn):
        return c.field.p
    if isinstance(c, FieldElem):
        return c.field.p
    raise TypeError


def char_poly_of_matrix(mat, zero, one) -> XPoly:
    """det(X I - mat) by Leibniz expansion; fine for the small n here."""
    n = len(mat)
    total = XPoly([])
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = XPoly([one])
        for r in range(n):
            c = perm[r]
            entry = XPoly([zero - mat[r][c], one]) if r == c else XPoly([zero - mat[r][c]])
            prod = prod * entry
            if prod.is_zero():
                break
        if sign < 0:
            prod = -prod
        total = total + prod
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def reduced_char_poly(x: AlgebraElement) -> XPoly:
    """Characteristic polynomial through the splitting representation, with
    the Galois-descent of its coefficients to F_q(t) verified."""
    desc = x.desc
    L = desc.L
    mat = splitting_matrix(x)
    cp = char_poly_of_matrix(mat, RationalFn.zero(L), RationalFn.one(L))
    out = []
    for c in cp.coeffs:
        out.append(_descend_rational(c, desc.base, L))
    return XPoly(out)


def _descend_rational(f: RationalFn, small: FieldDescriptor, big: FieldDescriptor) -> RationalFn:
    def down(p: Poly) -> Poly:
        codes = []
        for c in p.coeffs:
            codes.append(big.section(big.from_code(c), small).code)
        return Poly(small, codes)

    try:
        return RationalFn(down(f.num), down(f.den))
    except ValueError as exc:
        raise RuntimeError(
            "reduced characteristic polynomial fails Galois descent; internal fault"
        ) from exc


def reduced_norm(x: AlgebraElement) -> RationalFn:
    cp = reduced_char_poly(x)
    n = x.desc.n
    c0 = cp.coeffs[0]
    return c0 if n % 2 == 0 else -c0


def is_regular_semisimple(x: AlgebraElement) -> bool:
    """Distinct eigenvalues over the closure: the reduced characteristic
    polynomial is squarefree."""
    cp = reduced_char_poly(x)
    g = cp.gcd(cp.derivative())
    return g.degree == 0


# ---------------------------------------------------------------------------
# Integrality
# ---------------------------------------------------------------------------


def integral_test(x: AlgebraElement, v: Place) -> bool:
    """Statement-S integrality at a finite place with v(t) = 0."""
    if v.is_infinite:
        raise ValueError("integral structure is defined at finite places")
    if v.valuation(RationalFn.t(x.desc.base)) != 0:
        raise ValueError("the place must satisfy v(t) = 0; use s0_test at t")
    return all(
        c.is_zero() or v.valuation(c) >= 0 for row in x.x for c in row
    )


def s0_test(x: AlgebraElement) -> bool:
    """The same coefficient-integrality formula read at the place t itself."""
    v = Place.at(x.desc.base, 0)
    return all(c.is_zero() or v.valuation(c) >= 0 for row in x.x for c in row)


def w_valuation(x) -> int | None:
    """min_i (n v_t(u_i) + i) over the s-adic coefficients; None for 0."""
    if isinstance(x, AlgebraJet):
        for k in range(x.lo, x.hi):
            if x.coeff_code(k):
                return k
        return None
    desc = x.desc
    v = Place.at(desc.base, 0)
    best = None
    for i in range(desc.n):
        vals = [v.valuation(c) for c in x.x[i] if not c.is_zero()]
        if vals:
            w = desc.n * min(vals) + i
            if best is None or w < best:
                best = w
    return best


# ---------------------------------------------------------------------------
# Jets: the s-adic ring at t = 0
# ---------------------------------------------------------------------------


class AlgebraJet:
    """s-adic coefficients c_k in L for w-levels lo <= k < hi.

    Level k carries the monomial t^((k - k mod n)/n) s^(k mod n); the
    multiplication twist is c * sigma^k acting on later coefficients by
    g^(k mod n)."""

    __slots__ = ("desc", "lo", "hi", "codes")

    def __init__(self, desc: AlgebraDescriptor, lo: int, hi: int, codes):
        codes = list(codes)
        if len(codes) != hi - lo:
            raise ValueError("coefficient count must match the window")
        self.desc = desc
        self.lo = lo
        self.hi = hi
        self.codes = codes

    def coeff_code(self, k: int) -> int:
        if not self.lo <= k < self.hi:
            raise ValueError("level outside window")
        return self.codes[k - self.lo]

    def __add__(self, other):
        self._compat(other)
        L = self.desc.L
        return AlgebraJet(
            self.desc,
            self.lo,
            self.hi,
            [L.add_code(a, b) for a, b in zip(self.codes, other.codes)],
        )

    def __neg__(self):
        L = self.desc.L
        return AlgebraJet(self.desc, self.lo, self.hi, [L.neg_code(c) for c in self.codes])

    def __sub__(self, other):
        return self + (-other)

    def _compat(self, other):
        if other.desc is not self.desc or other.lo != self.lo or other.hi != self.hi:
            raise ValueError("jets from different windows")

    def __mul__(self, other: "AlgebraJet") -> "AlgebraJet":
        """Truncated product; precision follows the usual Laurent rule."""
        desc = self.desc
        if other.desc is not desc:
            raise ValueError("jets of different algebra forms")
        L = desc.L
        lo = self.lo + other.lo
        hi = min(self.hi + other.lo, other.hi + self.lo)
        out = [0] * max(hi - lo, 0)
        for i, a in enumerate(self.codes):
            if not a:
                continue
            ka = self.lo + i
            tw = ka % desc.n
            for j, b in enumerate(other.codes):
                k = ka + other.lo + j
                if k >= hi:
                    break
                if b:
                    prod = L.mul_code(a, desc.gpow(tw, b))
                    out[k - lo] = L.add_code(out[k - lo], prod)
        return AlgebraJet(desc, lo, hi, out)

    def truncate(self, lo: int, hi: int) -> "AlgebraJet":
        if lo < self.lo or hi > self.hi:
            raise ValueError("cannot widen a jet by truncation")
        return AlgebraJet(self.desc, lo, hi, self.codes[lo - self.lo : hi - self.lo])

    def is_zero(self):
        return not any(self.codes)

    def is_unit(self):
        """Invertible in the w >= lo filtration: lowest level nonzero at lo = 0."""
        return self.lo == 0 and bool(self.codes) and self.codes[0] != 0

    def inverse(self) -> "AlgebraJet":
        """Inverse of a unit jet on the same [0, hi) window."""
        if self.lo != 0 or not self.codes or self.codes[0] == 0:
            raise ZeroDivisionError("jet is not a unit")
        desc, L = self.desc, self.desc.L
        n = desc.n
        u0_inv = L.inv_code(self.codes[0])
        out = [u0_inv]
        for k in range(1, self.hi):
            acc = 0
            for i in range(1, k + 1):
                a = self.codes[i] if i < len(self.codes) else 0
                if a:
                    acc = L.add_code(acc, L.mul_code(a, desc.gpow(i % n, out[k - i])))
            out.append(L.mul_code(L.neg_code(u0_inv), acc))
        # fix twist: we solved sum u_i g^i(v_{k-i}) = delta_0, i.e. u * v = 1
        return AlgebraJet(desc, 0, self.hi, out)

    def conjugate_by(self, u: "AlgebraJet") -> "AlgebraJet":
        """u x u^{-1}, computed with enough slack to fill this window."""
        desc = self.desc
        pad = max(0, self.hi - self.lo)
        uu = u if u.hi >= self.hi + pad else _jet_pad(u, self.hi + pad)
        vinv = uu.inverse()
        prod = (uu * self) * vinv
        return prod.truncate(self.lo, min(self.hi, prod.hi))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraJet)
            and other.desc is self.desc
            and other.lo == self.lo
            and other.hi == self.hi
            and other.codes == self.codes
        )

    def __hash__(self):
        return hash((id(self.desc), self.lo, self.hi, tuple(self.codes)))

    def __repr__(self):
        return f"ajet[{self.lo}:{self.hi}]{self.codes}"


def _jet_pad(u: AlgebraJet, hi: int) -> AlgebraJet:
    return AlgebraJet(u.desc, u.lo, hi, u.codes + [0] * (hi - u.hi))


def element_to_jet(x: AlgebraElement, lo: int, hi: int) -> AlgebraJet:
    """s-adic window of an algebra element; poles deeper than lo error out."""
    desc = x.desc
    n = desc.n
    pd = desc._pd0
    codes = [0] * (hi - lo)
    for i in range(n):
        if all(c.is_zero() for c in x.x[i]):
            continue
        # t-range needed for levels k = n*m + i in [lo, hi)
        m_lo = -((i - lo) // n)
        m_hi = -((i - hi) // n)
        series = [pd.expand(c, max(m_hi, 1)) for c in x.x[i]]
        for s, c in zip(series, x.x[i]):
            if not c.is_zero():
                o = s.ord()
                if o is not None and n * o + i < lo:
                    raise ValueError(
                        f"element has w-valuation {n * o + i}, below window floor {lo}"
                    )
        for m in range(m_lo, m_hi):
            k = n * m + i
            if not lo <= k < hi:
                continue
            vec = tuple(s.at(m).code for s in series)
            codes[k - lo] = desc._uncoords[vec]
    return AlgebraJet(desc, lo, hi, codes)


def residue_algebra_class(x: AlgebraElement) -> AlgebraJet:
    """Reduction of an S_0 element modulo t: levels [0, n)."""
    if not s0_test(x):
        raise ValueError("element is not in S_0")
    return element_to_jet(x, 0, x.desc.n)


def random_unit_jet(desc: AlgebraDescriptor, hi: int, rng) -> AlgebraJet:
    """A random invertible jet on [0, hi): nonzero residue at level 0."""
    codes = [rng.randrange(1, desc.L.q)]
    codes.extend(rng.randrange(desc.L.q) for _ in range(hi - 1))
    return AlgebraJet(desc, 0, hi, codes)


# ---------------------------------------------------------------------------
# Invariant data: characteristic polynomial jets
# ---------------------------------------------------------------------------


# jets per batch of the record computation: bounds its working arrays
_RECORD_CHUNK = 1 << 14
# records stay int64 while (K + 1) * q^(n M), a bound on every record, is
# below this; past it they are Python ints
_RECORD_LIMIT = 1 << 63


class _LCodeOps:
    """add, mul and neg on numpy arrays of L-codes: gathers from L's dense
    tables, or, where L is too large to carry them, the field's own code
    arithmetic element by element."""

    def __init__(self, L: FieldDescriptor):
        L._ensure_tables()
        if L._mul_table is not None:
            Q = L.q
            add, mul, neg = (
                np.array(t, dtype=np.int64) for t in (L._add_table, L._mul_table, L._neg_table)
            )
            self.add = lambda a, b: add[a * Q + b]
            self.mul = lambda a, b: mul[a * Q + b]
            self.neg = lambda a: neg[a]
        else:
            add, mul = np.frompyfunc(L.add_code, 2, 1), np.frompyfunc(L.mul_code, 2, 1)
            neg = np.frompyfunc(L.neg_code, 1, 1)
            self.add = lambda a, b: add(a, b).astype(np.int64)
            self.mul = lambda a, b: mul(a, b).astype(np.int64)
            self.neg = lambda a: neg(a).astype(np.int64)

    def tmul(self, a, b):
        """Products in L[t]/t^M of the rows of two (B, M) arrays."""
        M = a.shape[1]
        out = np.zeros_like(a)
        for i in range(M):
            for j in range(M - i):
                out[:, i + j] = self.add(out[:, i + j], self.mul(a[:, i], b[:, j]))
        return out


def _charpoly_records(desc: AlgebraDescriptor, M: int, digits: np.ndarray) -> np.ndarray:
    """Encoded (charpoly mod t^M, w-class) records of a batch of S_0/t^M
    jets, given as a (B, n M) array of L-codes by level.

    The jet sum_k c_k s^k has s-adic coefficients u_i = sum_m c_{nm+i} t^m,
    and its splitting matrix has A[r][c] = g^r(u_i) with i = (c - r) mod n,
    times the t of s^n = t below the diagonal.  Coefficient X^(n-k) of the
    characteristic polynomial is (-1)^k times the sum of the principal
    k x k minors, each expanded by Leibniz over L[t]/t^M; a term with M or
    more factors below the diagonal is divisible by t^M and dropped."""
    n, q = desc.n, desc.base.q
    L = desc.L
    ops = desc._lops
    if ops is None:
        ops = desc._lops = _LCodeOps(L)
    B, K = digits.shape
    # tw[r, :, k] = g^r of the level-k digit
    tw = np.asarray(desc._gpow, dtype=np.int64)[:, digits]
    A = {}
    for r in range(n):
        for c in range(n):
            entry = tw[r, :, (c - r) % n :: n]
            if c < r:
                entry, shifted = np.zeros_like(entry), entry
                entry[:, 1:] = shifted[:, :-1]
            A[r, c] = entry
    coeffs = np.zeros((B, n, M), dtype=np.int64)
    for k in range(1, n + 1):
        total = np.zeros((B, M), dtype=np.int64)
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(rows):
                if sum(c < r for r, c in zip(rows, cols)) >= M:
                    continue
                term = A[rows[0], cols[0]]
                for r, c in zip(rows[1:], cols[1:]):
                    term = ops.tmul(term, A[r, c])
                if (k + (_perm_sign([rows.index(c) for c in cols]) < 0)) % 2:
                    term = ops.neg(term)
                total = ops.add(total, term)
        coeffs[:, n - k] = total
    # descend every coefficient to F_q through one section table
    section = np.full(L.q, -1, dtype=np.int64)
    section[L._embedding_table(desc.base)] = np.arange(q)
    down = section[coeffs]
    if (down < 0).any():
        raise RuntimeError(
            "reduced characteristic polynomial fails Galois descent; internal fault"
        )
    # the w-class: the level of the first nonzero digit, K for the zero jet
    w = np.full(B, K, dtype=np.int64)
    for k in range(K - 1, -1, -1):
        w[digits[:, k] != 0] = k
    if (K + 1) * q ** (n * M) >= _RECORD_LIMIT:
        w, down = w.astype(object), down.astype(object)
    rec = w
    for j in range(n):
        for m in range(M):
            rec = rec * q + down[:, j, m]
    return rec


def jet_from_index(desc: AlgebraDescriptor, lo: int, hi: int, idx: int) -> AlgebraJet:
    K = hi - lo
    q = desc.L.q
    codes = []
    for _ in range(K):
        codes.append(idx % q)
        idx //= q
    codes.reverse()
    return AlgebraJet(desc, lo, hi, codes)


def jet_index(jet: AlgebraJet) -> int:
    q = jet.desc.L.q
    idx = 0
    for c in jet.codes:
        idx = idx * q + c
    return idx


def invariant_records(desc: AlgebraDescriptor, M: int) -> np.ndarray:
    """Per jet of S_0/t^M S_0, in jet_index order: an encoded
    (charpoly mod t^M, w-class) record.

    Encoding: base-q digits of the descended charpoly coefficients followed
    by the w-class; identical records across the two forms correspond to
    matching invariant data.  int64 below _RECORD_LIMIT, else Python ints."""
    records = desc._records.get(M)
    if records is None:
        digits = _digit_matrix(desc.L.q, desc.n * M)
        records = np.concatenate(
            [
                _charpoly_records(desc, M, digits[lo : lo + _RECORD_CHUNK])
                for lo in range(0, len(digits), _RECORD_CHUNK)
            ]
        )
        desc._records[M] = records
    return records


def decode_record(desc: AlgebraDescriptor, M: int, rec: int):
    """Inverse of the record encoding: ((c_0.., c_{n-1}) t-jets, w_class)."""
    n, q = desc.n, desc.base.q
    digits = []
    for _ in range(n * M):
        digits.append(rec % q)
        rec //= q
    digits.reverse()
    w = rec
    cp = []
    for j in range(n):
        cp.append(tuple(digits[j * M : (j + 1) * M]))
    return tuple(cp), w


# ---------------------------------------------------------------------------
# Invariant recipes and test functions
# ---------------------------------------------------------------------------


class InvariantRecipe:
    """A value rule reading only (charpoly jet, w-class); such functions are
    conjugation-invariant and produce matching pairs across forms."""

    name = "abstract"

    def value(self, charpoly, w, desc, M) -> CycScalar:
        raise NotImplementedError


class RecipeConst(InvariantRecipe):
    name = "const"

    def value(self, charpoly, w, desc, M):
        return CycScalar.one(desc.base.p)


class RecipePsiTrace(InvariantRecipe):
    """psi applied to the sum of the trace-jet coefficients mod t^M."""

    name = "psi_trace"

    def value(self, charpoly, w, desc, M):
        base = desc.base
        tr_jet = charpoly[desc.n - 1]  # coefficient of X^(n-1) is -Trd
        acc = base.zero()
        for code in tr_jet:
            acc = acc - base.from_code(code)
        from .scalars import psi

        return psi(acc)


class RecipeCharPolyCoset(InvariantRecipe):
    """Indicator of one characteristic-polynomial jet."""

    def __init__(self, target):
        self.target = tuple(tuple(c) for c in target)
        self.name = "charpoly_coset"

    def value(self, charpoly, w, desc, M):
        if len(self.target) != desc.n or any(len(c) != M for c in self.target):
            raise ValueError(
                "recipe target reads characteristic-polynomial data outside "
                f"the window's depth {M}"
            )
        p = desc.base.p
        return CycScalar.one(p) if charpoly == self.target else CycScalar.zero(p)


def target_s_charpoly(desc: AlgebraDescriptor, M: int):
    """The charpoly jet of s itself: X^n - t, as descended coefficient tuples."""
    jet = element_to_jet(AlgebraElement.s(desc), 0, desc.n * M)
    rec = _charpoly_records(desc, M, np.array([jet.codes], dtype=np.int64))[0]
    return decode_record(desc, M, int(rec))[0]


class AlgebraTestFunction(_Table):
    """Dense table over the jets of a w-window at t = 0."""

    def __init__(self, desc, lo, hi, values):
        D = desc.L.q ** (hi - lo)
        values = list(values)
        if len(values) != D:
            raise ValueError(f"table needs {D} entries")
        self.desc = desc
        self.lo = lo
        self.hi = hi
        p = desc.base.p
        self._set_table(*_values_to_int(values, p), p, "exact")
        self._values = values

    @classmethod
    def _from_table(cls, desc, lo, hi, arr, den):
        """A table given in the _Table layout, taken as it is."""
        phi = cls.__new__(cls)
        phi.desc, phi.lo, phi.hi = desc, lo, hi
        phi._set_table(arr, den, desc.base.p, "exact")
        return phi

    def value_at(self, jet: AlgebraJet):
        if jet.lo != self.lo or jet.hi != self.hi:
            raise ValueError("jet window mismatch")
        return self._value(jet_index(jet))

    def table_equal(self, other):
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and all(a == b for a, b in zip(self.values, other.values))
        )


def invariant_fn(desc: AlgebraDescriptor, recipe: InvariantRecipe, window) -> AlgebraTestFunction:
    """Build the conjugation-invariant table on S_0/t^M from a recipe.

    `window` is the t-adic (N, M) pair with N = 0: supported in S_0,
    invariant under t^M S_0."""
    if window.N != 0:
        raise ValueError("invariant recipes live on S_0: window must have N = 0")
    M = window.M
    # the recipe runs once per distinct record; each jet reads its row
    first: dict[int, int] = {}
    which = [first.setdefault(rec, len(first)) for rec in invariant_records(desc, M).tolist()]
    values = [recipe.value(*decode_record(desc, M, rec), desc, M) for rec in first]
    rows, den = _values_to_int(values, desc.base.p)
    return AlgebraTestFunction._from_table(desc, 0, desc.n * M, rows[which], den)


# ---------------------------------------------------------------------------
# The trace-form Fourier transform on jet windows
# ---------------------------------------------------------------------------


def dual_jet_window(desc, lo, hi) -> tuple[int, int]:
    """Orthogonal window under the reduced-trace pairing: the dual lattice
    of {w >= k} is {w >= 1 - n - k} (S_0-dual = s^(1-n) S_0), so the dual
    of the window [lo, hi) is [1-n-hi, 1-n-lo)."""
    n = desc.n
    return (1 - n - hi, 1 - n - lo)


def fourier_D(phi: AlgebraTestFunction) -> AlgebraTestFunction:
    """Full-table transform; output lives on the dual w-window.

    Factorized exactly like the local jet transform, through the same
    engine: a levelwise character transform over L on the integer table,
    then a gather through the level bijection j <-> -n-j with its Galois
    twist.  int64 while the sums fit, Python ints past that."""
    desc = phi.desc
    base, L = desc.base, desc.L
    p, n = base.p, desc.n
    lo_out, hi_out = dual_jet_window(desc, phi.lo, phi.hi)
    K = phi.hi - phi.lo
    Q = L.q
    D = Q**K
    vol = Fraction(base.q) ** (-(desc.nu_D // 2) - phi.hi * desc.n)
    arr = _int64_or_object(phi._arr, D * 4 * vol.numerator)
    g = _contract_levels(arr, desc.L_place_data(), K).reshape(D, p)

    # output jet x -> u digits: u at input level j is g^(j mod n) of x's
    # digit at level -n-j
    gpow_tabs = [np.array(desc._gpow[i], dtype=np.int64) for i in range(n)]
    digits = _digit_matrix(Q, K)
    g_idx = np.zeros(D, dtype=np.int64)
    for j in range(phi.lo, phi.hi):
        xpos = (-n - j) - lo_out
        u = gpow_tabs[j % n][digits[:, xpos]]
        g_idx = g_idx * Q + u
    out = g[g_idx] * vol.numerator
    return AlgebraTestFunction._from_table(desc, lo_out, hi_out, out, phi._den * vol.denominator)


# ---------------------------------------------------------------------------
# Matched pairs and the comparison harness
# ---------------------------------------------------------------------------


class MatchedPair:
    """Elements of the two forms with identical reduced char polynomials;
    `regular` records whether that polynomial is squarefree."""

    __slots__ = ("c", "c_dot", "provenance", "charpoly", "regular")

    def __init__(self, c: AlgebraElement, c_dot: AlgebraElement, provenance: str):
        self.c = c
        self.c_dot = c_dot
        self.provenance = provenance
        cp = reduced_char_poly(c)
        cp_dot = reduced_char_poly(c_dot)
        if cp != cp_dot:
            raise ValueError("matched pair has differing characteristic polynomials")
        self.charpoly = cp
        self.regular = cp.gcd(cp.derivative()).degree == 0

    def is_regular_semisimple(self) -> bool:
        return self.regular

    def __repr__(self):
        return f"MatchedPair({self.provenance})"


def matched_pair(desc: AlgebraDescriptor, desc_dot: AlgebraDescriptor, b) -> MatchedPair:
    """The orbit-map pair (b s, b s-dot) for b in L^*."""
    if desc.base is not desc_dot.base or desc.n != desc_dot.n:
        raise ValueError("forms must share the base field and degree")
    bcodes = desc.coords(b) if isinstance(b, FieldElem) else tuple(b)
    if not any(bcodes):
        raise ValueError("b must be a nonzero element of L")

    def make(d):
        el = AlgebraElement.zero(d)
        for j, code in enumerate(bcodes):
            el.x[1][j] = RationalFn.constant(d.base, d.base.from_code(code))
        return AlgebraElement(d, el.x)

    return MatchedPair(make(desc), make(desc_dot), "bs-form")


def matched_pair_L(desc: AlgebraDescriptor, desc_dot: AlgebraDescriptor, coeff_vector) -> MatchedPair:
    """A common element of the shared commutative subalgebra L(F_q(t))."""
    c = AlgebraElement.from_L(desc, coeff_vector)
    c_dot = AlgebraElement.from_L(desc_dot, coeff_vector)
    return MatchedPair(c, c_dot, "L-common")


def theorem_a_report(
    desc: AlgebraDescriptor,
    desc_dot: AlgebraDescriptor,
    recipe: InvariantRecipe,
    pairs: list[MatchedPair],
    window,
) -> list[dict]:
    """Per pair: the two transform values at the matched points, compared
    exactly.  Each form's table is transformed once and read at the pair's
    jets.  Non-regular pairs are reported and skipped."""
    F = F_dot = None
    rows = []
    for k, pair in enumerate(pairs):
        row = {"pair": k, "provenance": pair.provenance, "recipe": recipe.name}
        if not pair.regular:
            row["status"] = "skipped: not regular semisimple"
            rows.append(row)
            continue
        if F is None:
            F = fourier_D(invariant_fn(desc, recipe, window))
            F_dot = fourier_D(invariant_fn(desc_dot, recipe, window))
        v = F.value_at(element_to_jet(pair.c, F.lo, F.hi))
        v_dot = F_dot.value_at(element_to_jet(pair.c_dot, F.lo, F.hi))
        row.update(
            {
                "status": "ok",
                "value_D": v,
                "value_D_dot": v_dot,
                "equal": v == v_dot,
                "charpoly": repr(pair.charpoly.coeffs),
            }
        )
        rows.append(row)
    return rows


def default_pair_list(
    desc: AlgebraDescriptor, desc_dot: AlgebraDescriptor, count: int = 20, seed: int = 1
) -> list[MatchedPair]:
    """Up to count regular semisimple pairs: b s pairs for b in L^* in code
    order, then deterministic L-common elements."""
    import random

    pairs = []
    # b s has reduced characteristic polynomial X^n - N(b) t, whose
    # derivative vanishes when p divides n: then no b s pair is regular
    bs_codes = range(1, desc.L.q) if desc.n % desc.base.p else ()
    for code in bs_codes:
        if len(pairs) >= count:
            break
        pair = matched_pair(desc, desc_dot, desc.L.from_code(code))
        if pair.regular:
            pairs.append(pair)
    rng = random.Random(seed)
    base, n = desc.base, desc.n
    attempts = 0
    while len(pairs) < count and attempts < 100 * count:
        attempts += 1
        vec = []
        for j in range(n):
            deg = rng.randrange(0, 2)
            vec.append(Poly(base, [rng.randrange(base.q) for _ in range(deg + 1)]))
        coeffs = [RationalFn(p) for p in vec]
        if all(c.is_zero() for c in coeffs[1:]):
            continue  # central: never regular semisimple
        pair = matched_pair_L(desc, desc_dot, coeffs)
        if pair.regular:
            pairs.append(pair)
    return pairs

