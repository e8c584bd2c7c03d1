"""Polynomials and reduced rational functions over a finite field.

Coefficients are stored as low-degree-first tuples of element codes of the
base field descriptor.  The zero polynomial has an empty coefficient tuple
and degree -1.  Multivariate polynomials (MPoly) map exponent tuples to
coefficient codes and evaluate on the codes of points in any extension.
Everything is exact and immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .scalars import FieldDescriptor, FieldElem


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: Sequence[int]):
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field: FieldDescriptor) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: FieldDescriptor) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def x(field: FieldDescriptor) -> "Poly":
        return Poly(field, (0, 1))

    @staticmethod
    def constant(field: FieldDescriptor, value) -> "Poly":
        return Poly(field, (field.elem(value).code,))

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add_code(out[i], c)
        return Poly(f, out)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, [f.neg_code(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = f.add_code(out[i + j], f.mul_code(x, y))
        return Poly(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly(f, [f.mul_code(c, x) for x in self.coeffs])

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dd = other.degree
        lead_inv = f.inv_code(other.leading())
        quo = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c:
                factor = f.mul_code(c, lead_inv)
                quo[k - dd] = factor
                for i, oc in enumerate(other.coeffs):
                    rem[k - dd + i] = f.add_code(
                        rem[k - dd + i], f.neg_code(f.mul_code(factor, oc))
                    )
        return Poly(f, quo), Poly(f, rem[:dd])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "Poly":
        r, base = Poly.one(self.field), self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv_code(self.leading()))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            c = self.coeffs[i]
            n = i % f.p
            acc = 0
            for _ in range(n):
                acc = f.add_code(acc, c)
            out.append(acc)
        return Poly(f, out)

    def eval(self, x: FieldElem) -> FieldElem:
        """Horner evaluation; x may live in an extension of the base field."""
        big = x.field
        acc = big.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + big.embed(self.field.from_code(c))
        return acc

    # -- structure -------------------------------------------------------------

    def is_irreducible(self) -> bool:
        if self.degree < 1:
            return False
        for d in range(1, self.degree // 2 + 1):
            for g in monic_irreducibles(self.field, d):
                if (self % g).is_zero():
                    return False
        return True

    def factor(self) -> list[tuple["Poly", int]]:
        """Monic irreducible factors with multiplicities (unit dropped)."""
        out: list[tuple[Poly, int]] = []
        rem = self.monic()
        if rem.degree < 1:
            return out
        d = 1
        while rem.degree >= 1:
            if d > rem.degree // 2:
                out.append((rem, 1))
                break
            for g in monic_irreducibles(self.field, d):
                mult = 0
                while True:
                    quo, r = divmod(rem, g)
                    if not r.is_zero():
                        break
                    rem, mult = quo, mult + 1
                if mult:
                    out.append((g, mult))
                if rem.degree < 1:
                    break
            d += 1
        return out

    def __repr__(self):
        return format_poly(self)


def format_poly(f: Poly, var: str = "t") -> str:
    if f.is_zero():
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i] if i < len(f.coeffs) else 0
        if not c:
            continue
        if f.field.e == 1:
            cs = "" if (c == 1 and i > 0) else str(c)
        else:
            cs = "" if (c == 1 and i > 0) else f"[{c}]"
        if i == 0:
            parts.append(cs or "1")
        elif i == 1:
            parts.append(f"{cs}{var}")
        else:
            parts.append(f"{cs}{var}^{i}")
    return "+".join(parts)


def monic_polys(field: FieldDescriptor, degree: int) -> Iterator[Poly]:
    """All monic polynomials of exact degree, smallest coefficient code first."""
    q = field.q
    for code in range(q**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % q)
            c //= q
        yield Poly(field, coeffs + [1])


@lru_cache(maxsize=None)
def monic_irreducibles(field: FieldDescriptor, degree: int) -> tuple[Poly, ...]:
    return tuple(f for f in monic_polys(field, degree) if f.is_irreducible())


class RationalFn:
    """Reduced fraction of polynomials; denominator monic and coprime to
    the numerator.  Elements of F_q(t)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        field = num.field
        if den is None:
            den = Poly.one(field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.degree > 0:
            # a constant denominator is a unit: its gcd with num is 1
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        if not den.is_monic():
            lead_inv = field.inv_code(den.leading())
            num, den = num.scale(lead_inv), den.scale(lead_inv)
        self.field = field
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero(field: FieldDescriptor) -> "RationalFn":
        return RationalFn(Poly.zero(field))

    @staticmethod
    def one(field: FieldDescriptor) -> "RationalFn":
        return RationalFn(Poly.one(field))

    @staticmethod
    def t(field: FieldDescriptor) -> "RationalFn":
        return RationalFn(Poly.x(field))

    @staticmethod
    def constant(field: FieldDescriptor, value) -> "RationalFn":
        return RationalFn(Poly.constant(field, value))

    @staticmethod
    def of(value, field: FieldDescriptor | None = None) -> "RationalFn":
        if isinstance(value, RationalFn):
            return value
        if isinstance(value, Poly):
            return RationalFn(value)
        if field is None:
            raise ValueError("field required to coerce a constant")
        return RationalFn.constant(field, value)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFn)
            and other.field is self.field
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    # -- valuations ------------------------------------------------------------

    def order_at_poly(self, pi: Poly) -> int:
        """Valuation at the finite place with monic irreducible pi."""
        if self.is_zero():
            raise ValueError("the zero function has no finite valuation")

        def mult(f: Poly) -> int:
            m = 0
            while True:
                quo, rem = divmod(f, pi)
                if not rem.is_zero():
                    return m
                f, m = quo, m + 1

        return mult(self.num) - mult(self.den)

    def order_at_infinity(self) -> int:
        if self.is_zero():
            raise ValueError("the zero function has no finite valuation")
        return self.den.degree - self.num.degree

    def eval(self, x: FieldElem) -> FieldElem:
        d = self.den.eval(x)
        if d.is_zero():
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.eval(x) / d


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

    def code_evaluator(self, big: FieldDescriptor):
        """A function from a point's codes in `big`, an extension of the base
        field, to the code of the value there: each monomial in the log
        domain, the monomials summed by big.log_sum."""
        big._ensure_log(force=True)
        log, m = big._log, big.q - 1
        embed = big._embedding_table(self.field)
        monos = [
            (log[embed[c]], tuple((i, k) for i, k in enumerate(exps) if k))
            for exps, c in self.terms.items()
        ]
        log_sum = big.log_sum

        def value(x) -> int:
            logs = []
            for lc, powers in monos:
                for i, k in powers:
                    c = x[i]
                    if not c:
                        break
                    lc += k * log[c]
                else:
                    logs.append(lc % m)
            return log_sum(logs)

        return value

    def eval(self, point, big: FieldDescriptor | None = None) -> FieldElem:
        big = point[0].field if point else (big or self.field)
        return FieldElem(big, self.code_evaluator(big)(tuple(x.code for x in point)))

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
