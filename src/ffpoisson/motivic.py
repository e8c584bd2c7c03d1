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
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .scalars import CycScalar, FieldDescriptor, FieldElem, make_field, psi


# ---------------------------------------------------------------------------
# Multivariate polynomials (sparse, exact)
# ---------------------------------------------------------------------------


class MPoly:
    """Polynomial over F_q in nvars variables; terms map exponent tuples to
    nonzero coefficient codes."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldDescriptor, nvars: int, terms: dict):
        clean = {}
        for exps, code in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent tuple of the wrong length")
            if code:
                clean[exps] = code
        self.field = field
        self.nvars = nvars
        self.terms = clean

    @staticmethod
    def zero(field, nvars):
        return MPoly(field, nvars, {})

    @staticmethod
    def constant(field, nvars, value):
        c = field.elem(value)
        return MPoly(field, nvars, {(0,) * nvars: c.code})

    @staticmethod
    def var(field, nvars, i, power: int = 1):
        exps = [0] * nvars
        exps[i] = power
        return MPoly(field, nvars, {tuple(exps): 1})

    def is_zero(self):
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.add_code(out.get(e, 0), c)
        return MPoly(f, self.nvars, out)

    def __neg__(self):
        f = self.field
        return MPoly(f, self.nvars, {e: f.neg_code(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        f = self.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = f.add_code(out.get(e, 0), f.mul_code(c1, c2))
        return MPoly(f, self.nvars, out)

    def shifted(self, offset: int, total: int) -> "MPoly":
        """The same polynomial viewed in `total` variables, its own variables
        placed starting at `offset`."""
        out = {}
        for e, c in self.terms.items():
            new = [0] * total
            for i, k in enumerate(e):
                new[offset + i] = k
            out[tuple(new)] = c
        return MPoly(self.field, total, out)

    def eval(self, point, big: FieldDescriptor | None = None) -> FieldElem:
        big = point[0].field if point else (big or self.field)
        acc = big.zero()
        for exps, code in self.terms.items():
            term = big.embed(self.field.from_code(code))
            for x, k in zip(point, exps):
                if k:
                    term = term * x**k
            acc = acc + term
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and other.field is self.field
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((id(self.field), self.nvars, tuple(sorted(self.terms.items()))))

    def to_json(self):
        return [[list(e), c] for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(field, nvars, data):
        return MPoly(field, nvars, {tuple(e): c for e, c in data})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
            )
            cs = str(c) if (c != 1 or not mono) else ""
            parts.append(cs + ("*" if cs and mono else "") + mono)
        return "+".join(parts)


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

    def contains(self, point) -> bool:
        return all(f.eval(point).is_zero() for f in self.equations) and all(
            not f.eval(point).is_zero() for f in self.inequations
        )

    def points(self, d: int = 1) -> list[tuple[FieldElem, ...]]:
        """All F_{q^d}-points, in lexicographic element-code order."""
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        big = self.extension(d)
        out = []
        for tup in itertools.product(list(big.elements()), repeat=self.nvars):
            if self.contains(tup):
                out.append(tup)
        return out

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
        p = self.field.p
        acc = CycScalar.zero(p)
        for coeff, X, h in self.terms:
            big = X.extension(d)
            for x in X.points(d):
                acc = acc + psi(h.eval(x, big)) * coeff
        return acc * Fraction(self.field.q) ** (d * self.lshift)

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


def frobenius_point(X: ConstructibleSet, point):
    q = X.field.q
    return tuple(x**q for x in point)


def frobenius_orbit(X: ConstructibleSet, point):
    orbit = [tuple(point)]
    cur = frobenius_point(X, point)
    while cur != orbit[0]:
        orbit.append(cur)
        cur = frobenius_point(X, cur)
    return orbit


def closed_points(X: ConstructibleSet, B: int) -> list[ClosedPoint]:
    """One representative per Frobenius orbit of degree <= B; the chosen
    representative is the code-lexicographically least orbit member."""
    if B < 1:
        raise ValueError("degree bound must be >= 1")
    out = []
    for n in range(1, B + 1):
        seen = set()
        for pt in X.points(n):
            key = tuple(c.code for c in pt)
            if key in seen:
                continue
            orbit = frobenius_orbit(X, pt)
            for member in orbit:
                seen.add(tuple(c.code for c in member))
            if len(orbit) == n:
                rep = min(orbit, key=lambda m: tuple(c.code for c in m))
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


def orbit_norm_value(P: ClosedPoint, family) -> CycScalar:
    """The specialized norm over the orbit: evaluate the family at the
    representative and read characters through the absolute trace of the
    big field F_{q^n}."""
    field = P.X.field
    p = field.p
    if isinstance(family, MPoly):
        family = ClassFamily(field, P.X.nvars, ((1, family),))
    acc = CycScalar.zero(p)
    for coeff, h in family.terms:
        acc = acc + psi(h.eval(P.rep)) * coeff
    if family.lshift:
        acc = acc * Fraction(field.q ** P.degree) ** family.lshift
    return acc


def euler_product(X: ConstructibleSet, family: ClassFamily, B: int):
    """Truncations to t^B of both sides of the symmetric-power identity.

    Left: product over closed points v of degree <= B of (1 + a(v) t^deg(v)).
    Right: sum over Frobenius-stable n-element subsets (n <= B), each subset
    contributing the product of its orbits' norm values.
    """
    if B < 1:
        raise ValueError("precision must be >= 1")
    p = X.field.p
    pts = closed_points(X, B)
    values = [orbit_norm_value(v, family) for v in pts]

    lhs = [CycScalar.zero(p) for _ in range(B + 1)]
    lhs[0] = CycScalar.one(p)
    for v, a in zip(pts, values):
        new = list(lhs)
        for k in range(B + 1 - v.degree):
            if not lhs[k].is_zero():
                new[k + v.degree] = new[k + v.degree] + lhs[k] * a
        lhs = new

    rhs = [CycScalar.zero(p) for _ in range(B + 1)]
    rhs[0] = CycScalar.one(p)

    def extend(i, weight, prod):
        if weight:
            rhs[weight] = rhs[weight] + prod
        for j in range(i, len(pts)):
            w = weight + pts[j].degree
            if w <= B:
                extend(j + 1, w, prod * values[j])

    extend(0, 0, CycScalar.one(p))
    return lhs, rhs
