"""Finite field towers and exact additive-character values.

Fields F_{p^e} are represented by a monic irreducible modulus over F_p,
chosen deterministically (smallest modulus in the coefficient-code order
below), so that element encodings are reproducible across runs.  Elements
are stored as integer codes: the code of sum(c_i * X^i) is sum(c_i * p^i).

Character values live in the cyclotomic rationals Q(zeta_p), written on the
basis 1, zeta, ..., zeta^(p-2) with exact Fraction coefficients.  All sums
and integrals downstream reduce to this ring; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Field descriptors
# ---------------------------------------------------------------------------

# Arithmetic tables, all built lazily.  A field's first operation builds a
# log/antilog pair for one primitive element, the negation table and, for odd
# p, the Zech table, if the field has at most _LOG_LIMIT elements; the motivic
# layer, which enumerates the field anyway, builds them whatever its size.
# Dense add/mul/inv tables (at most _TABLE_LIMIT elements) are built only when
# scalar add/mul/inv ask for them.  Fields without a pair compute with
# polynomials per op.
_TABLE_LIMIT = 256
_LOG_LIMIT = 4096


def _translation_table(p: int, e: int, w: int) -> list[int]:
    """[c + w for every code c < p^e], the sum taken digitwise mod p.

    Built one digit at a time: the codes with digit i equal to x follow the
    codes below p^i, shifted by (x + w_i) mod p in digit i.
    """
    out, scale = [0], 1
    for _ in range(e):
        w, d = divmod(w, p)
        out = [(x + d) % p * scale + o for x in range(p) for o in out]
        scale *= p
    return out


def _linear_table(p: int, images: Sequence[int], e_out: int) -> list[int]:
    """[f(c) for every code c < p^len(images)] for the F_p-linear f with
    f(X^i) = images[i], the images codes of an F_p-space of dimension e_out.

    The codes with digit i equal to x are the codes below p^i, each moved by
    x * images[i]: one translation table per digit, applied x times.
    """
    out = [0]
    for w in images:
        if p == 2:
            out = out + [c ^ w for c in out]
            continue
        shift = _translation_table(p, e_out, w)
        parts = [out]
        for _ in range(p - 1):
            parts.append([shift[c] for c in parts[-1]])
        out = [c for part in parts for c in part]
    return out


class FieldDescriptor:
    """The finite field F_{p^e} with a fixed monic irreducible modulus.

    Do not call directly; use :func:`make_field`, which canonicalizes and
    caches descriptors so that equal parameters give the identical object.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        # monic, length e+1, coefficients in 0..p-1, low degree first
        self.modulus = modulus
        # exp[k] = g^k for the smallest-code primitive element g, stored for
        # 0 <= k < 2(q-1) so that a sum of two logs indexes it directly;
        # log[a] is the exponent of a != 0 (log[0] is unused); for odd p,
        # zech[k] = log(1 + g^k), None where 1 + g^k = 0.
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._neg_table: list[int] | None = None
        self._zech: list[int | None] | None = None
        self._add_table: list[int] | None = None
        self._mul_table: list[int] | None = None
        self._inv_table: list[int] | None = None
        self._traces: dict[int, list[int]] = {}
        self._powers: dict[int, list[int]] = {}
        self._embeddings: dict[tuple[int, int], list[int]] = {}
        self._sections: dict[tuple[int, int], dict[int, int]] = {}

    # -- encoding ----------------------------------------------------------

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        p, out = self.p, []
        for _ in range(self.e):
            out.append(code % p)
            code //= p
        return tuple(out)

    def code_of(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.e:
            raise ValueError("coefficient sequence longer than degree")
        code = 0
        for c in reversed([c % self.p for c in coeffs]):
            code = code * self.p + c
        return code

    # -- raw code arithmetic -------------------------------------------------

    def _poly_mul_mod(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        ca, cb = self.coeffs_of(a), self.coeffs_of(b)
        prod = [0] * (2 * e - 1 if e > 1 else 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus
        for k in range(len(prod) - 1, e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(e):
                    prod[k - e + i] = (prod[k - e + i] - c * self.modulus[i]) % p
        return self.code_of(prod[:e])

    def _poly_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._poly_mul_mod(r, a)
            a = self._poly_mul_mod(a, a)
            n >>= 1
        return r

    def _digit_sum(self, a: int, b: int) -> int:
        p = self.p
        return self.code_of([(x + y) % p for x, y in zip(self.coeffs_of(a), self.coeffs_of(b))])

    def _ensure_log(self, force: bool = False) -> None:
        """The log pair, the negation table and, for odd p, the Zech table,
        in O(q): for fields of at most _LOG_LIMIT elements, or any field when
        forced."""
        if self._exp is not None or (self.q > _LOG_LIMIT and not force):
            return
        q, p, e = self.q, self.p, self.e
        # g is the smallest code whose powers exhaust the unit group; past
        # e = 1 the constants, of order dividing p - 1, cannot, nor can the
        # powers of a candidate that failed.  Multiplication by a candidate
        # is F_p-linear: one table from the images g X^i, then a walk from 1.
        failed = bytearray(q)
        for g in range(p if e > 1 else 1, q):
            if failed[g]:
                continue
            times_g = _linear_table(p, [self._poly_mul_mod(g, p**i) for i in range(e)], e)
            exp, x = [1], times_g[1]
            while x != 1 and len(exp) < q:
                exp.append(x)
                x = times_g[x]
            if len(exp) == q - 1:
                break
            for x in exp:
                failed[x] = 1
        else:
            raise RuntimeError("no primitive element; modulus not irreducible")
        log = [0] * q
        for k, a in enumerate(exp):
            log[a] = k
        neg = [0]
        for _ in range(e):
            neg = [(-lo) % p + p * hi for hi in neg for lo in range(p)]
        if p > 2:
            # 1 + a only increments digit 0; a = p - 1 is -1
            self._zech = [
                None if a == p - 1 else log[a + 1 - p if a % p == p - 1 else a + 1]
                for a in exp
            ]
        self._log, self._neg_table, self._exp = log, neg, exp + exp

    def _ensure_tables(self) -> None:
        """The scalar path's tables: the log pair, and dense add/mul/inv
        tables, derived from it, for fields of at most _TABLE_LIMIT elements."""
        if self._mul_table is not None:
            return
        self._ensure_log()
        q = self.q
        if q > _TABLE_LIMIT:
            return
        exp, log = self._exp, self._log
        # the row of a != 0 is exp shifted by log a, read at log b
        mul, logs = [0] * q, log[1:]
        for a in range(1, q):
            shifted = exp[log[a] : log[a] + q - 1]
            mul.append(0)
            mul.extend([shifted[lb] for lb in logs])
        self._inv_table = [0] + [exp[q - 1 - log[a]] for a in range(1, q)]
        self._add_table = [s for a in range(q) for s in _translation_table(self.p, self.e, a)]
        self._mul_table = mul

    def add_code(self, a: int, b: int) -> int:
        self._ensure_tables()
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        if self.p == 2:
            return a ^ b
        if self._zech is None:
            return self._digit_sum(a, b)
        if not a or not b:
            return a or b
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % (self.q - 1)]
        return 0 if z is None else self._exp[la + z]

    def neg_code(self, a: int) -> int:
        self._ensure_log()
        if self._neg_table is not None:
            return self._neg_table[a]
        p = self.p
        if p == 2:
            return a
        return self.code_of([(-x) % p for x in self.coeffs_of(a)])

    def mul_code(self, a: int, b: int) -> int:
        self._ensure_tables()
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        if self._log is not None:
            if a and b:
                return self._exp[self._log[a] + self._log[b]]
            return 0
        return self._poly_mul_mod(a, b)

    def pow_code(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return 0 if n else 1
        self._ensure_log()
        if self._log is not None:
            return self._exp[n * self._log[a] % (self.q - 1)]
        if n < 0:
            a, n = self.inv_code(a), -n
        return self._poly_pow(a, n)

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        self._ensure_tables()
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow_code(a, self.q - 2)

    def log_sum(self, logs: Iterable[int]) -> int:
        """The code of the sum of g^l over logs l < 2(q-1): XOR of the powers
        at p = 2, else folded through the Zech table.  Needs the log pair."""
        exp = self._exp
        if self.p == 2:
            acc = 0
            for k in logs:
                acc ^= exp[k]
            return acc
        zech, m = self._zech, self.q - 1
        acc = None  # the log of the sum so far, None while it is zero
        for k in logs:
            if acc is None:
                acc = k
            else:
                z = zech[(k - acc) % m]
                acc = None if z is None else (acc + z) % m
        return 0 if acc is None else exp[acc]

    # -- tables over all codes ------------------------------------------------

    def trace_table(self, d: int = 1) -> list[int]:
        """The trace down to F_{p^d}, sum of x^(p^(d*i)) for i < e/d, as the
        F_{p^d}-codes of every code: built by F_p-linearity from the traces
        of the basis monomials X^i, once per d."""
        table = self._traces.get(d)
        if table is not None:
            return table
        if d < 1 or self.e % d:
            raise ValueError(f"{d} does not divide extension degree {self.e}")
        sub = make_field(self.p, d)
        images = []
        for i in range(self.e):
            y = acc = self.p**i
            for _ in range(self.e // d - 1):
                y = self.pow_code(y, sub.q)
                acc = self._digit_sum(acc, y)
            # F_p is the constant codes; a larger subfield goes through its section
            images.append(acc if d == 1 else self.section(FieldElem(self, acc), sub).code)
        table = self._traces[d] = _linear_table(self.p, images, d)
        return table

    def power_table(self, n: int) -> list[int]:
        """x^n for every code, from the log pair (built whatever q is)."""
        table = self._powers.get(n)
        if table is None:
            self._ensure_log(force=True)
            exp, log, m = self._exp, self._log, self.q - 1
            table = [0 if n else 1] + [exp[log[a] * n % m] for a in range(1, self.q)]
            self._powers[n] = table
        return table

    # -- elements -----------------------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def gen(self) -> "FieldElem":
        """Canonical generator: the class of X (for e = 1, the element 1)."""
        return FieldElem(self, self.p if self.e > 1 else 1)

    def elem(self, value) -> "FieldElem":
        if isinstance(value, FieldElem):
            if value.field is self:
                return value
            return self.embed(value)
        if isinstance(value, int):
            return FieldElem(self, value % self.p)
        return FieldElem(self, self.code_of(list(value)))

    def from_code(self, code: int) -> "FieldElem":
        if not 0 <= code < self.q:
            raise ValueError("element code out of range")
        return FieldElem(self, code)

    def elements(self) -> Iterator["FieldElem"]:
        for code in range(self.q):
            yield FieldElem(self, code)

    # -- subfield embeddings --------------------------------------------------

    def _embedding_table(self, sub: "FieldDescriptor") -> list[int]:
        """Images of all sub-elements, fixed once per tower.

        The generator of the subfield maps to the smallest-code root of the
        subfield modulus here; everything else follows by ring structure.
        """
        key = (sub.p, sub.e)
        if key in self._embeddings:
            return self._embeddings[key]
        if sub.p != self.p or self.e % sub.e != 0:
            raise ValueError(f"F_{sub.q} does not embed in F_{self.q}")
        if sub.e == self.e and sub.modulus == self.modulus:
            table = list(range(self.q))
            self._embeddings[key] = table
            return table
        if sub.e == 1:  # F_p is the constant codes
            table = list(range(sub.q))
            self._embeddings[key] = table
            self._sections[key] = {code: code for code in table}
            return table
        root = None
        for c in range(self.q):
            # evaluate sub.modulus at the candidate code
            acc = 0
            for coef in reversed(sub.modulus):
                acc = self.add_code(self.mul_code(acc, c), coef % self.p)
            if acc == 0:
                root = c
                break
        if root is None:
            raise RuntimeError("no root of subfield modulus; tower corrupt")
        table = [0] * sub.q
        for code in range(sub.q):
            img = 0
            for coef in reversed(sub.coeffs_of(code)):
                img = self.add_code(self.mul_code(img, root), coef)
            table[code] = img
        self._embeddings[key] = table
        self._sections[key] = {img: code for code, img in enumerate(table)}
        return table

    def embed(self, x: "FieldElem") -> "FieldElem":
        table = self._embedding_table(x.field)
        return FieldElem(self, table[x.code])

    def section(self, x: "FieldElem", sub: "FieldDescriptor") -> "FieldElem":
        """Inverse of embed on its image; x must lie in the subfield."""
        self._embedding_table(sub)
        sec = self._sections.get((sub.p, sub.e))
        if sec is None:  # identity embedding
            return FieldElem(sub, x.code)
        code = sec.get(x.code)
        if code is None:
            raise ValueError("element does not lie in the requested subfield")
        return FieldElem(sub, code)

    def __repr__(self):
        return f"F_{self.q}"

    def __reduce__(self):
        return (make_field, (self.p, self.e))


class FieldElem:
    """An element of a fixed F_{p^e}; immutable, hashable, exact."""

    __slots__ = ("field", "code")

    def __init__(self, field: FieldDescriptor, code: int):
        self.field = field
        self.code = code

    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.code)

    def is_zero(self) -> bool:
        return self.code == 0

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field.add_code(self.code, other.code))

    def __sub__(self, other):
        self._check(other)
        return FieldElem(
            self.field, self.field.add_code(self.code, self.field.neg_code(other.code))
        )

    def __neg__(self):
        return FieldElem(self.field, self.field.neg_code(self.code))

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field.mul_code(self.code, other.code))

    def __truediv__(self, other):
        self._check(other)
        return FieldElem(
            self.field, self.field.mul_code(self.code, self.field.inv_code(other.code))
        )

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self.field.inv_code(self.code))

    def __pow__(self, n: int):
        return FieldElem(self.field, self.field.pow_code(self.code, n))

    def _check(self, other):
        if not isinstance(other, FieldElem) or other.field is not self.field:
            raise ValueError("field elements from different fields")

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and other.field is self.field
            and other.code == self.code
        )

    def __hash__(self):
        return hash((id(self.field), self.code))

    def __repr__(self):
        return f"{self.coeffs()}@F{self.field.q}"


def _monic_polys(p: int, deg: int) -> Iterator[tuple[int, ...]]:
    """Monic degree-deg coefficient tuples over F_p, smallest code first."""
    for code in range(p**deg):
        low = []
        c = code
        for _ in range(deg):
            low.append(c % p)
            c //= p
        yield tuple(low) + (1,)


@lru_cache(maxsize=None)
def _irreducibles(p: int, deg: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for cand in _monic_polys(p, deg):
        if _poly_irreducible(p, cand):
            out.append(cand)
    return tuple(out)


def _poly_divides(p: int, d: tuple[int, ...], a: tuple[int, ...]) -> bool:
    a = list(a)
    dd = len(d) - 1
    for k in range(len(a) - 1, dd - 1, -1):
        c = a[k]
        if c:
            for i in range(dd + 1):
                a[k - dd + i] = (a[k - dd + i] - c * d[i]) % p
    return not any(a[:dd])


def _poly_irreducible(p: int, f: tuple[int, ...]) -> bool:
    deg = len(f) - 1
    if deg == 1:
        return True
    if f[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _irreducibles(p, d):
            if _poly_divides(p, g, f):
                return False
    return True


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> FieldDescriptor:
    """Build (and cache) F_{p^e} with the canonical smallest modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e == 1:
        modulus = (0, 1)  # X itself; unused for e=1 arithmetic
    else:
        modulus = None
        for cand in _monic_polys(p, e):
            if _poly_irreducible(p, cand):
                modulus = cand
                break
        if modulus is None:
            raise RuntimeError("no irreducible modulus found; internal error")
    return FieldDescriptor(p, e, modulus)


def trace(x: FieldElem, d: int = 1) -> FieldElem:
    """Trace from F_{p^e} down to F_{p^d}: sum of x^(p^(d*i)), i < e/d."""
    table = x.field.trace_table(d)
    return FieldElem(make_field(x.field.p, d), table[x.code])


# ---------------------------------------------------------------------------
# Cyclotomic rationals Q(zeta_p)
# ---------------------------------------------------------------------------


class CycScalar:
    """Exact element of Q(zeta_p) on the basis 1, zeta, ..., zeta^(p-2).

    The stored tuple is canonical: any zeta^(p-1) contribution has been
    eliminated through 1 + zeta + ... + zeta^(p-1) = 0, so equality is
    plain coefficientwise comparison.  For p = 2 this is a single rational.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[Fraction]):
        if len(coeffs) != p - 1:
            raise ValueError("need exactly p-1 coefficients")
        self.p = p
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(p: int) -> "CycScalar":
        return CycScalar(p, (Fraction(0),) * (p - 1))

    @staticmethod
    def one(p: int) -> "CycScalar":
        return CycScalar.rational(p, Fraction(1))

    @staticmethod
    def rational(p: int, value) -> "CycScalar":
        coeffs = [Fraction(value)] + [Fraction(0)] * (p - 2)
        return CycScalar(p, coeffs)

    @staticmethod
    def zeta_power(p: int, k: int) -> "CycScalar":
        return cyc_normalize(p, [1 if i == k % p else 0 for i in range(p)])

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "CycScalar"):
        if self.p != other.p:
            raise ValueError("cyclotomic scalars over different primes")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.rational(self.p, other)
        self._check(other)
        return CycScalar(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.rational(self.p, other)
        self._check(other)
        return CycScalar(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycScalar(self.p, [a * other for a in self.coeffs])
        self._check(other)
        p = self.p
        raw = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[(i + j) % p] += a * b
        return cyc_normalize(p, raw)

    __rmul__ = __mul__

    def scaled(self, factor) -> "CycScalar":
        return self * Fraction(factor)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.rational(self.p, other)
        return (
            isinstance(other, CycScalar)
            and other.p == self.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        if self.p == 2 or self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(str(c) if i == 0 else f"{c}*z^{i}")
        return " + ".join(parts) if parts else "0"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[list[int]]:
        return [[c.numerator, c.denominator] for c in self.coeffs]

    @staticmethod
    def from_json(p: int, data) -> "CycScalar":
        return CycScalar(p, [Fraction(n, d) for n, d in data])


def cyc_normalize(p: int, raw: Iterable) -> CycScalar:
    """Canonical representative modulo 1 + zeta + ... + zeta^(p-1) = 0."""
    coeffs = [Fraction(c) for c in raw]
    if len(coeffs) > p:
        raise ValueError("too many coefficients for Q(zeta_p)")
    coeffs += [Fraction(0)] * (p - len(coeffs))
    top = coeffs[p - 1]
    if top:
        coeffs = [c - top for c in coeffs]
    return CycScalar(p, coeffs[: p - 1])


def psi(x: FieldElem) -> CycScalar:
    """The fixed additive character: zeta_p raised to the absolute trace."""
    return CycScalar.zeta_power(x.field.p, x.field.trace_table(1)[x.code])
