"""Formal exponential-sum classes and their finite-field specializations.

A class is an integer combination of generators [X, h] (X a constructible
set over F_q, h a polynomial function on it) together with a power of the
affine-line class L, which may be negative.  The ring operations follow

    [X,h][Y,g] = [X x Y, h(x)+g(y)],   [X,h]+[Y,g] = [X u Y, h u g],

realized on disjoint coordinate blocks.  No rewriting modulo the defining
relations is attempted; classes are observed through the specialization

    mu_d([X,h]) = sum over X(F_{q^d}) of psi(h(x)) * q^(d*lshift),

which is a ring homomorphism for each degree d.  Galois orbits of points
(closed points) support the norm identity and the two symmetric-power
Euler-product expansions compared by euler_product.

Everything is computed by counting: points are tuples of element codes,
polynomials are evaluated with their monomials in the log domain, and a
character sum is a histogram of trace residues, an integer vector over
zeta^0..zeta^(p-1).  CycScalars are built only for the values returned.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .poly import MPoly
from .scalars import CycScalar, FieldDescriptor, FieldElem, cyc_normalize, make_field


# ---------------------------------------------------------------------------
# Constructible sets
# ---------------------------------------------------------------------------


class ConstructibleSet:
    """Solutions in affine m-space of polynomial equations and inequations."""

    __slots__ = ("field", "nvars", "equations", "inequations")

    def __init__(self, field, nvars, equations=(), inequations=()):
        self.field = field
        self.nvars = nvars
        self.equations = tuple(equations)
        self.inequations = tuple(inequations)
        for f in self.equations + self.inequations:
            if f.field is not field or f.nvars != nvars:
                raise ValueError("condition polynomial over the wrong space")

    @staticmethod
    def affine_space(field, m):
        return ConstructibleSet(field, m)

    @staticmethod
    def affine_line(field):
        return ConstructibleSet(field, 1)

    @staticmethod
    def punctured_line(field):
        return ConstructibleSet(field, 1, (), (MPoly.var(field, 1, 0),))

    @staticmethod
    def single_point(field, values):
        values = [field.elem(v) for v in values]
        m = len(values)
        eqs = [
            MPoly.var(field, m, i) - MPoly.constant(field, m, v)
            for i, v in enumerate(values)
        ]
        return ConstructibleSet(field, m, eqs)

    @staticmethod
    def empty(field, m=1):
        one = MPoly.constant(field, m, 1)
        return ConstructibleSet(field, m, (one,))

    def extension(self, d: int) -> FieldDescriptor:
        return make_field(self.field.p, self.field.e * d)

    def point_codes(self, d: int = 1) -> list[tuple[int, ...]]:
        """The codes of all F_{q^d}-points, in lexicographic order."""
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        big = self.extension(d)
        candidates = itertools.product(range(big.q), repeat=self.nvars)
        if not self.equations and not self.inequations:
            return list(candidates)
        eqs = [f.code_evaluator(big) for f in self.equations]
        neqs = [f.code_evaluator(big) for f in self.inequations]
        return [
            x for x in candidates if not any(f(x) for f in eqs) and all(f(x) for f in neqs)
        ]

    def points(self, d: int = 1) -> list[tuple[FieldElem, ...]]:
        """All F_{q^d}-points, in lexicographic element-code order."""
        codes, big = self.point_codes(d), self.extension(d)
        return [tuple(FieldElem(big, c) for c in x) for x in codes]

    def product(self, other: "ConstructibleSet") -> "ConstructibleSet":
        if other.field is not self.field:
            raise ValueError("sets over different base fields")
        m, n = self.nvars, other.nvars
        eqs = [f.shifted(0, m + n) for f in self.equations] + [
            f.shifted(m, m + n) for f in other.equations
        ]
        ineqs = [f.shifted(0, m + n) for f in self.inequations] + [
            f.shifted(m, m + n) for f in other.inequations
        ]
        return ConstructibleSet(self.field, m + n, eqs, ineqs)

    def to_json(self):
        return {
            "q": self.field.q,
            "nvars": self.nvars,
            "equations": [f.to_json() for f in self.equations],
            "inequations": [f.to_json() for f in self.inequations],
        }

    def __repr__(self):
        bits = [f"A^{self.nvars}/F{self.field.q}"]
        if self.equations:
            bits.append("eqs=" + ",".join(map(repr, self.equations)))
        if self.inequations:
            bits.append("neq=" + ",".join(map(repr, self.inequations)))
        return "{" + "; ".join(bits) + "}"


# ---------------------------------------------------------------------------
# Motivic classes
# ---------------------------------------------------------------------------


class MotivicClass:
    """Integer combination of generators [X, h] times an integer power of L."""

    __slots__ = ("field", "terms", "lshift")

    def __init__(self, field, terms, lshift: int = 0):
        clean = []
        for coeff, X, h in terms:
            if X.field is not field or h.field is not field:
                raise ValueError("term over a different base field")
            if h.nvars != X.nvars:
                raise ValueError("h must be a function on X's coordinates")
            if coeff:
                clean.append((int(coeff), X, h))
        self.field = field
        self.terms = tuple(clean)
        self.lshift = lshift

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero(field):
        return MotivicClass(field, ())

    @staticmethod
    def one(field):
        X = ConstructibleSet.affine_space(field, 0)
        return MotivicClass(field, ((1, X, MPoly.zero(field, 0)),))

    @staticmethod
    def generator(X: ConstructibleSet, h: MPoly, coeff: int = 1):
        return MotivicClass(X.field, ((coeff, X, h),))

    @staticmethod
    def affine_line_class(field):
        X = ConstructibleSet.affine_line(field)
        return MotivicClass(field, ((1, X, MPoly.zero(field, 1)),))

    def is_zero_presentation(self) -> bool:
        return not self.terms

    # -- ring structure ----------------------------------------------------------

    def _raised(self, k: int) -> tuple:
        """Terms multiplied by L^k as sets (X x A^k, h pulled back)."""
        if k == 0:
            return self.terms
        field = self.field
        out = []
        for coeff, X, h in self.terms:
            Xk = X.product(ConstructibleSet.affine_space(field, k))
            out.append((coeff, Xk, h.shifted(0, X.nvars + k)))
        return tuple(out)

    def __add__(self, other: "MotivicClass") -> "MotivicClass":
        if other.field is not self.field:
            raise ValueError("classes over different base fields")
        shift = min(self.lshift, other.lshift)
        terms = self._raised(self.lshift - shift) + other._raised(other.lshift - shift)
        return MotivicClass(self.field, terms, shift)

    def __neg__(self):
        return MotivicClass(
            self.field, tuple((-c, X, h) for c, X, h in self.terms), self.lshift
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "MotivicClass") -> "MotivicClass":
        if other.field is not self.field:
            raise ValueError("classes over different base fields")
        out = []
        for c1, X, h in self.terms:
            for c2, Y, g in other.terms:
                XY = X.product(Y)
                hg = h.shifted(0, XY.nvars) + g.shifted(X.nvars, XY.nvars)
                out.append((c1 * c2, XY, hg))
        return MotivicClass(self.field, out, self.lshift + other.lshift)

    def shift_L(self, k: int) -> "MotivicClass":
        return MotivicClass(self.field, self.terms, self.lshift + k)

    # -- specialization ------------------------------------------------------------

    def specialize(self, d: int = 1) -> CycScalar:
        """mu_d: each term's points counted by the trace of h, then one
        normalization and one power of q."""
        p = self.field.p
        counts = [0] * p
        for coeff, X, h in self.terms:
            big = X.extension(d)
            value, tr = h.code_evaluator(big), big.trace_table(1)
            hist = [0] * p
            for x in X.point_codes(d):
                hist[tr[value(x)]] += 1
            counts = [c + coeff * n for c, n in zip(counts, hist)]
        return cyc_normalize(p, counts) * Fraction(self.field.q) ** (d * self.lshift)

    def to_json(self):
        return {
            "q": self.field.q,
            "lshift": self.lshift,
            "terms": [
                {"coeff": c, "set": X.to_json(), "h": h.to_json()}
                for c, X, h in self.terms
            ],
        }

    def __repr__(self):
        body = " + ".join(f"{c}*[{X!r},{h!r}]" for c, X, h in self.terms) or "0"
        if self.lshift:
            body = f"L^{self.lshift} * ({body})"
        return body


def psi_class(c: FieldElem) -> MotivicClass:
    """The point class [{c}, Id], the formal character value."""
    field = c.field
    X = ConstructibleSet.single_point(field, [c])
    return MotivicClass.generator(X, MPoly.var(field, 1, 0))


def point_class_sum(field, counts, lshift: int = 0) -> MotivicClass:
    """sum_c counts[c] [{c}, Id] times L^lshift, over the codes c of F_q:
    the class of an integer vector over the group ring Z[F_q]."""
    terms = []
    for c, n in enumerate(counts):
        if n:
            ((_, X, h),) = psi_class(field.from_code(c)).terms
            terms.append((n, X, h))
    return MotivicClass(field, terms, lshift)


def indistinguishable_up_to(a: MotivicClass, b: MotivicClass, D: int = 3) -> bool:
    """Semi-decision for equality: compare specializations at d = 1..D."""
    return all(a.specialize(d) == b.specialize(d) for d in range(1, D + 1))


# ---------------------------------------------------------------------------
# Closed points and Galois orbits
# ---------------------------------------------------------------------------


class ClosedPoint:
    """A Frobenius orbit of geometric points, kept as one representative."""

    __slots__ = ("X", "degree", "rep")

    def __init__(self, X: ConstructibleSet, degree: int, rep):
        self.X = X
        self.degree = degree
        self.rep = tuple(rep)
        orbit = frobenius_orbit(X, self.rep)
        if len(orbit) != degree:
            raise ValueError(
                f"representative has orbit size {len(orbit)}, claimed degree {degree}"
            )

    def orbit(self):
        return frobenius_orbit(self.X, self.rep)

    def __repr__(self):
        return f"ClosedPoint(deg={self.degree}, rep={[c.code for c in self.rep]})"


def _code_orbit(frob: list[int], point: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The orbit of a code tuple under one Frobenius code table."""
    orbit = [point]
    cur = tuple(frob[c] for c in point)
    while cur != point:
        orbit.append(cur)
        cur = tuple(frob[c] for c in cur)
    return orbit


def frobenius_orbit(X: ConstructibleSet, point):
    if not point:
        return [()]
    big = point[0].field
    orbit = _code_orbit(big.power_table(X.field.q), tuple(x.code for x in point))
    return [tuple(FieldElem(big, c) for c in member) for member in orbit]


def closed_points(X: ConstructibleSet, B: int) -> list[ClosedPoint]:
    """One representative per Frobenius orbit of degree <= B; the chosen
    representative is the code-lexicographically least orbit member."""
    if B < 1:
        raise ValueError("degree bound must be >= 1")
    out = []
    for n in range(1, B + 1):
        big = X.extension(n)
        frob = big.power_table(X.field.q)
        seen = set()
        for pt in X.point_codes(n):
            if pt in seen:
                continue
            orbit = _code_orbit(frob, pt)
            seen.update(orbit)
            if len(orbit) == n:
                rep = tuple(FieldElem(big, c) for c in min(orbit))
                out.append(ClosedPoint(X, n, rep))
    return out


# ---------------------------------------------------------------------------
# Orbit norms and Euler products
# ---------------------------------------------------------------------------


class ClassFamily:
    """A definable family of classes on X: sum of coeff * psi(h(x)) times L^k."""

    __slots__ = ("field", "nvars", "terms", "lshift")

    def __init__(self, field, nvars, terms, lshift: int = 0):
        self.field = field
        self.nvars = nvars
        self.terms = tuple((int(c), h) for c, h in terms)
        self.lshift = lshift

    @staticmethod
    def one(field, nvars):
        return ClassFamily(field, nvars, ((1, MPoly.zero(field, nvars)),))

    @staticmethod
    def zero(field, nvars):
        return ClassFamily(field, nvars, ())

    @staticmethod
    def character(field, nvars, h: MPoly):
        return ClassFamily(field, nvars, ((1, h),))


def _norm_counts(pts: list[ClosedPoint], family: ClassFamily) -> list[list[int]]:
    """Each orbit's norm before its power of q: sum of coeff * psi(h(rep))
    read through the absolute trace of F_{q^deg}, as integer counts over
    zeta^0..zeta^(p-1); one evaluator per degree."""
    out, per_degree = [], {}
    for P in pts:
        got = per_degree.get(P.degree)
        if got is None:
            big = P.X.extension(P.degree)
            evals = [(coeff, h.code_evaluator(big)) for coeff, h in family.terms]
            got = per_degree[P.degree] = (evals, big.trace_table(1))
        evals, tr = got
        codes = tuple(x.code for x in P.rep)
        counts = [0] * P.X.field.p
        for coeff, value in evals:
            counts[tr[value(codes)]] += coeff
        out.append(counts)
    return out


def _times(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[zeta]/(zeta^p - 1): exponents add mod p."""
    p = len(a)
    out = [0] * p
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % p] += x * y
    return out


def _scalar(counts: list[int], q: int, power: int) -> CycScalar:
    return cyc_normalize(len(counts), counts) * Fraction(q) ** power


def orbit_norm_value(P: ClosedPoint, family) -> CycScalar:
    """The specialized norm over the orbit: evaluate the family at the
    representative and read characters through the absolute trace of the
    big field F_{q^n}."""
    if isinstance(family, MPoly):
        family = ClassFamily(P.X.field, P.X.nvars, ((1, family),))
    return _scalar(_norm_counts([P], family)[0], P.X.field.q, P.degree * family.lshift)


def euler_product(X: ConstructibleSet, family: ClassFamily, B: int):
    """Truncations to t^B of both sides of the symmetric-power identity.

    Left: product over closed points v of degree <= B of (1 + a(v) t^deg(v)).
    Right: sum over Frobenius-stable n-element subsets (n <= B), each subset
    contributing the product of its orbits' norm values.  Both sides are
    integer counts over zeta^0..zeta^(p-1) per power of t; the norm of an
    orbit of degree n carries q^(n*lshift), so the t^k coefficient carries
    q^(k*lshift), applied once at the end.
    """
    if B < 1:
        raise ValueError("precision must be >= 1")
    p = X.field.p
    pts = closed_points(X, B)
    values = _norm_counts(pts, family)
    one = [1] + [0] * (p - 1)

    lhs = [one] + [[0] * p for _ in range(B)]
    for v, a in zip(pts, values):
        n = v.degree
        for k in range(B - n, -1, -1):
            if any(lhs[k]):
                lhs[k + n] = [x + y for x, y in zip(lhs[k + n], _times(lhs[k], a))]

    rhs = [one] + [[0] * p for _ in range(B)]

    def extend(i, weight, prod):
        if weight:
            rhs[weight] = [x + y for x, y in zip(rhs[weight], prod)]
        for j in range(i, len(pts)):
            w = weight + pts[j].degree
            if w > B:
                break  # closed_points lists the orbits by degree
            extend(j + 1, w, _times(prod, values[j]))

    extend(0, 0, one)
    q, shift = X.field.q, family.lshift
    return (
        [_scalar(c, q, k * shift) for k, c in enumerate(lhs)],
        [_scalar(c, q, k * shift) for k, c in enumerate(rhs)],
    )
