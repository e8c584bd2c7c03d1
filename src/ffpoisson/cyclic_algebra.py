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

from .localfield import (
    _contract_levels,
    _contraction_input,
    _digit_matrix,
    _from_digits,
    _Table,
    _to_digits,
    _values_to_int,
)
from .place import Place, PlaceData, place_data
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


def determinant(matrix, zero, one):
    """The determinant of a small square matrix by Gaussian elimination.
    Entries support -, *, / and is_zero(), as FieldElem and RationalFn do;
    zero and one are values of the entry type."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    det = one
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return zero
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        det = det * a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if not a[r][col].is_zero():
                f = a[r][col] / inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if sign < 0:
        det = zero - det
    return det


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
        self._gpow = [self.L.power_table(base.q ** (self.a * i % n)) for i in range(n)]
        # packed F_q-coordinates sum_j c_j q^j on the d-basis, and back
        self._coords, self._from_coords = self.L.coordinates(base, self.d_basis)
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

    # -- L-coordinates over F_q ---------------------------------------------------

    def coords(self, z: FieldElem) -> tuple[int, ...]:
        """F_q-codes of z on the d-basis."""
        return tuple(reversed(_to_digits(self._coords[z.code], self.base.q, self.n)))

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
        d_j s^i basis; must be even.  Trd(d_j s^i d_l s^k) is the trace of
        the s^0 coefficient of d_j g^i(d_l) s^(i+k), so it vanishes unless
        i + k = 0 or n, and there it is t^((i+k)/n) Tr(d_j g^i(d_l)).  The
        matrix is a permutation of n blocks B_i = [Tr(d_j g^i(d_l))] over
        F_q, n - 1 of them times t, so det = +-t^(n(n-1)) prod det B_i."""
        if self._nu_D is None:
            n, base, L = self.n, self.base, self.L
            tr = L.trace_table(base.e)
            codes = [dj.code for dj in self.d_basis]
            for gi in self._gpow:
                block = [
                    [base.from_code(tr[L.mul_code(dj, gi[dl])]) for dl in codes] for dj in codes
                ]
                if determinant(block, base.zero(), base.one()).is_zero():
                    raise RuntimeError("degenerate trace pairing; internal error")
            val = n * (n - 1)
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
            packed = _from_digits([s.at(m).code for s in reversed(series)], desc.base.q)
            codes[k - lo] = desc._from_coords[packed]
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


def _tmul(L: FieldDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products in L[t]/t^M of two batches of elements, each an (M, B) array
    of L-codes whose row m holds the t^m coefficients: every product a_i b_j
    at once, then each row a_i b added in, shifted i places."""
    M = len(a)
    terms = L.mul_codes(a[:, None], b[None])
    out = terms[0]
    for i in range(1, M):
        out[i:] = L.add_codes(out[i:], terms[i, : M - i])
    return out


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


def _charpoly_coeffs(desc: AlgebraDescriptor, M: int, digits: np.ndarray) -> np.ndarray:
    """F_q-codes (B, n, M) of the reduced characteristic polynomials mod t^M
    of a batch of S_0/t^M jets, given as a (B, n M) array of L-codes by
    level: [b, j, m] is the t^m coefficient of X^j.

    The jet sum_k c_k s^k has s-adic coefficients u_i = sum_m c_{nm+i} t^m,
    and its splitting matrix has A[r][c] = g^r(u_i) with i = (c - r) mod n,
    times the t of s^n = t below the diagonal.  Coefficient X^(n-k) of the
    characteristic polynomial is (-1)^k times the sum of the principal
    k x k minors, each expanded by Leibniz over L[t]/t^M; a term with M or
    more factors below the diagonal is divisible by t^M and dropped."""
    n, L = desc.n, desc.L
    B, K = digits.shape
    # tw[r, k] = g^r of the level-k digits; the entries are (M, B) arrays,
    # batch last, since a broadcast over short trailing axes runs slowly
    tw = np.asarray(desc._gpow, dtype=np.int64)[:, digits.T]
    A = {}
    for r in range(n):
        for c in range(n):
            entry = tw[r, (c - r) % n :: n]
            if c < r:
                entry, shifted = np.zeros_like(entry), entry
                entry[1:] = shifted[:-1]
            A[r, c] = entry
    coeffs = np.zeros((n, M, B), dtype=np.int64)
    for k in range(1, n + 1):
        total = np.zeros((M, B), dtype=np.int64)
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(rows):
                if sum(c < r for r, c in zip(rows, cols)) >= M:
                    continue
                term = A[rows[0], cols[0]]
                for r, c in zip(rows[1:], cols[1:]):
                    term = _tmul(L, term, A[r, c])
                if (k + (_perm_sign([rows.index(c) for c in cols]) < 0)) % 2:
                    term = L.neg_codes(term)
                total = L.add_codes(total, term)
        coeffs[n - k] = total
    # descend every coefficient to F_q through the section table
    down = np.asarray(L.section_table(desc.base), dtype=np.int64)[coeffs.transpose(2, 0, 1)]
    if (down < 0).any():
        raise RuntimeError(
            "reduced characteristic polynomial fails Galois descent; internal fault"
        )
    return down


def _charpoly_records(desc: AlgebraDescriptor, M: int, digits: np.ndarray) -> np.ndarray:
    """Encoded (charpoly mod t^M, w-class) records of a batch of S_0/t^M
    jets, given as a (B, n M) array of L-codes by level."""
    n, q = desc.n, desc.base.q
    B, K = digits.shape
    down = _charpoly_coeffs(desc, M, digits)
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


def reduced_char_polys(desc: AlgebraDescriptor, elements) -> list[list[RationalFn]]:
    """Reduced characteristic polynomials [c_0, .., c_{n-1}, 1] of elements
    with coefficients in F_q[t], from one batch of _charpoly_coeffs.

    With d the largest t-degree of a coefficient, every splitting-matrix
    entry has t-degree at most d, plus one below the diagonal, and a
    permutation of a k-subset has at most k - 1 entries below the diagonal.
    So c_(n-k) has t-degree at most k d + k - 1 <= n (d + 1) - 1, and the
    polynomials mod t^M with M = n (d + 1) are exact."""
    base, n = desc.base, desc.n
    if any(x.desc is not desc for x in elements):
        raise ValueError("elements of a different algebra form")
    coeffs = [c for x in elements for row in x.x for c in row]
    if not all(c.is_polynomial() for c in coeffs):
        raise ValueError("reduced characteristic polynomials need coefficients in F_q[t]")
    if not coeffs:
        return []
    M = n * (max(0, *(c.num.degree for c in coeffs)) + 1)
    digits = np.array([element_to_jet(x, 0, n * M).codes for x in elements], dtype=np.int64)
    one = RationalFn.one(base)
    return [
        [RationalFn(Poly(base, cp)) for cp in batch] + [one]
        for batch in _charpoly_coeffs(desc, M, digits).tolist()
    ]


def jet_index(jet: AlgebraJet) -> int:
    return _from_digits(jet.codes, jet.desc.L.q)


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
    w, low = divmod(rec, q ** (n * M))
    digits = _to_digits(low, q, n * M)
    return tuple(tuple(digits[j * M : (j + 1) * M]) for j in range(n)), w


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
        self._set_table(*_values_to_int(values, desc.base.p), desc.base, "exact")
        self._values = values

    @classmethod
    def _from_table(cls, desc, lo, hi, arr, den):
        """A table given in the _Table layout, taken as it is."""
        phi = cls.__new__(cls)
        phi.desc, phi.lo, phi.hi = desc, lo, hi
        phi._set_table(arr, den, desc.base, "exact")
        return phi

    def _shape(self) -> tuple:
        return (self.lo, self.hi)

    def value_at(self, jet: AlgebraJet):
        if jet.lo != self.lo or jet.hi != self.hi:
            raise ValueError("jet window mismatch")
        return self._value(jet_index(jet))


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
    twist.  float64 or int64 inside the contraction while the sums fit,
    Python ints past that; the table itself is int64 or object."""
    desc = phi.desc
    base, L = desc.base, desc.L
    p, n = base.p, desc.n
    lo_out, hi_out = dual_jet_window(desc, phi.lo, phi.hi)
    K = phi.hi - phi.lo
    Q = L.q
    D = Q**K
    vol = Fraction(base.q) ** (-(desc.nu_D // 2) - phi.hi * desc.n)
    arr = _contraction_input(phi._arr, D * 4 * vol.numerator, Q * p)
    g = _contract_levels(arr, desc.L_place_data(), K, phi._group).reshape(D, p)

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
    """Elements of the two forms with identical reduced characteristic
    polynomials `charpoly`, [c_0, .., c_(n-1), 1]; `regular` records whether
    that polynomial is squarefree."""

    __slots__ = ("c", "c_dot", "provenance", "charpoly", "regular", "_jets")

    def __init__(
        self, c: AlgebraElement, c_dot: AlgebraElement, provenance: str, charpoly, regular: bool
    ):
        self.c = c
        self.c_dot = c_dot
        self.provenance = provenance
        self.charpoly = charpoly
        self.regular = regular
        self._jets: dict[tuple[int, int], tuple[AlgebraJet, AlgebraJet]] = {}

    def jets(self, lo: int, hi: int) -> tuple[AlgebraJet, AlgebraJet]:
        """The jets of c and c_dot on the w-window [lo, hi), computed once
        per window."""
        got = self._jets.get((lo, hi))
        if got is None:
            got = self._jets[lo, hi] = (
                element_to_jet(self.c, lo, hi),
                element_to_jet(self.c_dot, lo, hi),
            )
        return got

    def __repr__(self):
        return f"MatchedPair({self.provenance})"


def _bs_element(desc: AlgebraDescriptor, bcodes) -> AlgebraElement:
    """b s, for b in L^* given by its F_q-codes on the d-basis."""
    if not any(bcodes):
        raise ValueError("b must be a nonzero element of L")
    el = AlgebraElement.zero(desc)
    for j, code in enumerate(bcodes):
        el.x[1][j] = RationalFn.constant(desc.base, desc.base.from_code(code))
    return AlgebraElement(desc, el.x)


def _matched_pairs(desc, desc_dot, provenance: str, elements, elements_dot) -> list[MatchedPair]:
    """Pairs of one provenance, with one reduced_char_polys batch per form.

    Regularity has a closed form, with no gcd over F_q(t).  b s has the
    polynomial X^n - N(b) t, and N(b) t != 0, so it is prime to its
    derivative n X^(n-1) exactly when p does not divide n.  An x in L(t)
    outside F_q(t) has n distinct conjugates, since Gal(L(t)/F_q(t)) has
    prime order n, so its polynomial, the product of the X - sigma(x), is
    squarefree; a central x has (X - x)^n."""
    if desc.base is not desc_dot.base or desc.n != desc_dot.n:
        raise ValueError("forms must share the base field and degree")
    cps = reduced_char_polys(desc, elements)
    if cps != reduced_char_polys(desc_dot, elements_dot):
        raise ValueError("matched pair has differing characteristic polynomials")
    pairs = []
    for c, c_dot, cp in zip(elements, elements_dot, cps):
        if provenance == "bs-form":
            regular = desc.n % desc.base.p != 0
        else:
            regular = not all(u.is_zero() for u in c.x[0][1:])
        pairs.append(MatchedPair(c, c_dot, provenance, cp, regular))
    return pairs


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
        jet, jet_dot = pair.jets(F.lo, F.hi)
        v, v_dot = F.value_at(jet), F_dot.value_at(jet_dot)
        row.update(
            {
                "status": "ok",
                "value_D": v,
                "value_D_dot": v_dot,
                "equal": v == v_dot,
                "charpoly": repr(pair.charpoly),
            }
        )
        rows.append(row)
    return rows


def default_pair_list(
    desc: AlgebraDescriptor, desc_dot: AlgebraDescriptor, count: int = 20, seed: int = 1
) -> list[MatchedPair]:
    """Up to count regular semisimple pairs: b s pairs for b in L^* in code
    order, then deterministic L-common elements outside F_q(t)."""
    import random

    # b s is regular exactly when p does not divide n (see _matched_pairs)
    n_bs = min(count, desc.L.q - 1) if desc.n % desc.base.p else 0
    bcodes = [desc.coords(desc.L.from_code(code)) for code in range(1, n_bs + 1)]
    pairs = _matched_pairs(
        desc,
        desc_dot,
        "bs-form",
        [_bs_element(desc, b) for b in bcodes],
        [_bs_element(desc_dot, b) for b in bcodes],
    )
    rng = random.Random(seed)
    base, n = desc.base, desc.n
    vectors = []
    attempts = 0
    while len(pairs) + len(vectors) < count and attempts < 100 * count:
        attempts += 1
        vec = []
        for j in range(n):
            deg = rng.randrange(0, 2)
            vec.append(RationalFn(Poly(base, [rng.randrange(base.q) for _ in range(deg + 1)])))
        if not all(c.is_zero() for c in vec[1:]):  # a central vector is never regular
            vectors.append(vec)
    pairs += _matched_pairs(
        desc,
        desc_dot,
        "L-common",
        [AlgebraElement.from_L(desc, v) for v in vectors],
        [AlgebraElement.from_L(desc_dot, v) for v in vectors],
    )
    return pairs
