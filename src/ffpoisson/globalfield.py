"""The global side over F_q(t): divisors, Riemann-Roch spaces, adelic test
functions, the rational-point sum, and Poisson summation.

The curve is P^1 with the 1-form dt, so div(dt) = -2[inf], genus 0.  A
global test function is a finite set of places with a window at each and a
dense table over the product jet space; it is silently identified with any
enlargement by integral-indicator factors.  The rational-point functional
enumerates the Riemann-Roch space allowed by the windows' pole depths and
sums the table over jets of its members; the Fourier transform is the
placewise jet transform, which forces the place at infinity into the
support (dt has its double pole there).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np

from . import BudgetExceededError
from .localfield import (
    _INT64_GUARD,
    JetVector,
    Window,
    _check_transformable,
    _digit_matrix,
    _extend_lookup,
    _from_digits,
    _int64_or_object,
    _lookup_index,
    _mixed_radix_index,
    _refine_lookup,
    _Table,
    _table_of,
    _transform_table,
    _value_group,
    index_to_jet,
    jet_space_size,
    jet_to_index,
)
from .place import Place, place_data, places_up_to
from .poly import Poly, RationalFn
from .scalars import CycScalar, FieldDescriptor, cyc_normalize

__all__ = [
    "Divisor",
    "Place",
    "RationalFn",
    "places_up_to",
    "divisor_of",
    "canonical_divisor",
    "rr_basis",
    "jet_at",
    "GlobalTestFunction",
    "indicator_everywhere_integral",
    "jet_counts",
    "delta_K",
    "normalize_support",
    "refine_place",
    "extend_place",
    "global_fourier",
    "translate",
    "poisson_report",
    "simple_coset_functions",
    "poisson_family",
    "BudgetExceededError",
]


# ---------------------------------------------------------------------------
# Divisors and Riemann-Roch spaces
# ---------------------------------------------------------------------------


class Divisor:
    """Finitely supported integer multiplicities on places of P^1."""

    __slots__ = ("field", "mult")

    def __init__(self, field: FieldDescriptor, mult: dict[Place, int] | None = None):
        self.field = field
        self.mult = {u: m for u, m in (mult or {}).items() if m != 0}

    def get(self, u: Place) -> int:
        return self.mult.get(u, 0)

    def places(self) -> list[Place]:
        return sorted(self.mult, key=lambda u: u.sort_key())

    @property
    def degree(self) -> int:
        return sum(m * u.degree for u, m in self.mult.items())

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self.mult)
        for u, m in other.mult.items():
            out[u] = out.get(u, 0) + m
        return Divisor(self.field, out)

    def __neg__(self) -> "Divisor":
        return Divisor(self.field, {u: -m for u, m in self.mult.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __eq__(self, other):
        return (
            isinstance(other, Divisor)
            and other.field is self.field
            and other.mult == self.mult
        )

    def __hash__(self):
        return hash(
            (
                id(self.field),
                tuple(sorted(self.mult.items(), key=lambda t: t[0].sort_key())),
            )
        )

    def __repr__(self):
        if not self.mult:
            return "0"
        return " + ".join(
            f"{m}[{u!r}]"
            for u, m in sorted(self.mult.items(), key=lambda t: t[0].sort_key())
        )


def divisor_of(f: RationalFn) -> Divisor:
    """The principal divisor div(f); degree 0 by construction."""
    if f.is_zero():
        raise ValueError("the zero function has no divisor")
    field = f.field
    mult: dict[Place, int] = {}
    for pi, m in f.num.factor():
        u = Place.finite(pi)
        mult[u] = mult.get(u, 0) + m
    for pi, m in f.den.factor():
        u = Place.finite(pi)
        mult[u] = mult.get(u, 0) - m
    inf_ord = f.order_at_infinity()
    if inf_ord:
        mult[Place.infinity(field)] = inf_ord
    return Divisor(field, mult)


def canonical_divisor(field: FieldDescriptor) -> Divisor:
    """div(dt) = -2[inf]."""
    return Divisor(field, {Place.infinity(field): -2})


def rr_basis(D: Divisor) -> list[RationalFn]:
    """An F_q-basis of L(D) = {f : v_u(f) >= -D(u) for all u}.

    For divisors effective at every listed place the basis is the partial
    fractions one: monomials t^j up to the infinity multiplicity, then
    t^a / pi_u^j for each finite place.  Otherwise a twisted monomial basis
    spanning the same space is used.  deg D + 1 elements when deg D >= 0,
    none otherwise (genus 0).
    """
    field = D.field
    deg = D.degree
    if deg < 0:
        return []
    inf = Place.infinity(field)
    n_inf = D.get(inf)
    finite = [(u, D.get(u)) for u in D.places() if not u.is_infinite]
    t = Poly.x(field)
    if n_inf >= 0 and all(m >= 0 for _, m in finite):
        basis = [RationalFn(t**j) for j in range(n_inf + 1)]
        for u, m in finite:
            for j in range(1, m + 1):
                for a in range(u.degree):
                    basis.append(RationalFn(t**a, u.poly**j))
    else:
        num = Poly.one(field)
        den = Poly.one(field)
        for u, m in finite:
            if m > 0:
                den = den * u.poly**m
            else:
                num = num * u.poly ** (-m)
        basis = [RationalFn(num * t**j, den) for j in range(deg + 1)]
    if len(basis) != deg + 1:
        raise RuntimeError("Riemann-Roch dimension mismatch; internal error")
    return basis


@lru_cache(maxsize=1 << 16)
def jet_at(f: RationalFn, u: Place, window: Window) -> JetVector:
    """f viewed in the window at u; error if its pole is too deep."""
    pd = place_data(u)
    if not f.is_zero() and u.valuation(f) < -window.N:
        raise ValueError(
            f"pole of order {-u.valuation(f)} exceeds window depth {window.N} at {u!r}"
        )
    s = pd.expand(f, window.M)
    return JetVector(pd, window, [s.at(lev) for lev in range(-window.N, window.M)])


# ---------------------------------------------------------------------------
# Global test functions
# ---------------------------------------------------------------------------


class GlobalTestFunction(_Table):
    """Support list of (place, window), arity m, dense table.

    Axis order: places in canonical order are the outer index blocks, the m
    coordinates the inner blocks; within one axis jets are enumerated as in
    localfield.  (S, phi) is identified with any enlargement of S by
    integral-indicator factors; normalize_support realizes the enlargement.
    """

    def __init__(self, field, support, arity, values, mode="exact"):
        self._setup(field, support, arity, *_table_of(list(values), field.p, mode), mode)

    @classmethod
    def _from_table(cls, field, support, arity, arr, den, mode="exact", lexp=0):
        """A table given in the _Table layout, taken as it is."""
        phi = cls.__new__(cls)
        phi._setup(field, support, arity, arr, den, mode, lexp)
        return phi

    def _setup(self, field, support, arity, arr, den, mode, lexp=0):
        if arity < 1:
            raise ValueError(f"arity must be at least 1, got {arity}")
        support = list(support)
        places = [u for u, _ in support]
        if len(set(places)) != len(places):
            raise ValueError("duplicate place in support")
        sizes = [jet_space_size(place_data(u), w) for u, w in support for _ in range(arity)]
        if len(arr) != prod(sizes):
            raise ValueError(f"table needs {prod(sizes)} entries, got {len(arr)}")
        order = sorted(range(len(support)), key=lambda i: support[i][0].sort_key())
        if order != list(range(len(support))):
            # permute the table so it matches the canonical place order
            axis_perm = [
                order[block] * arity + coord
                for block in range(len(support))
                for coord in range(arity)
            ]
            arr = arr[_mixed_radix_index(sizes, axis_perm)]
            support = [support[i] for i in order]
        self.field = field
        self.places = tuple(pw[0] for pw in support)
        self.windows = tuple(pw[1] for pw in support)
        self.arity = arity
        self._set_table(arr, den, field, mode, lexp)

    # -- structure ---------------------------------------------------------------

    def support(self):
        return list(zip(self.places, self.windows))

    def axis_list(self):
        axes = []
        for u, w in zip(self.places, self.windows):
            pd = place_data(u)
            axes.extend([(pd, w)] * self.arity)
        return axes

    def window_at(self, u: Place) -> Window:
        return self.windows[self.places.index(u)]

    def _shape(self) -> tuple:
        return (self.places, self.windows, self.arity)

    def _with_rows(self, support, idx) -> "GlobalTestFunction":
        """The table's rows at the flat positions idx, a -1 reading zero, as
        a function on the given support (canonical order)."""
        return GlobalTestFunction._from_table(
            self.field, support, self.arity, self._rows(idx), self._den, self.mode, self._lexp
        )

    # -- evaluation ----------------------------------------------------------------

    def value_at_jets(self, jets):
        """jets: per place (canonical order), a list of m coordinate jets."""
        idx = 0
        for (u, w), per_place in zip(self.support(), jets):
            D = jet_space_size(place_data(u), w)
            if len(per_place) != self.arity:
                raise ValueError("coordinate count mismatch")
            for jet in per_place:
                if jet.window != w:
                    raise ValueError("jet window mismatch")
                idx = idx * D + jet_to_index(jet)
        return self._value(idx)

    def evaluate(self, fs):
        """phi(f_1, .., f_m) for rational functions integral outside S."""
        if len(fs) != self.arity:
            raise ValueError("arity mismatch")
        jets = []
        for u, w in self.support():
            per_place = []
            for f in fs:
                if not f.is_zero() and u.valuation(f) < -w.N:
                    zero = np.zeros((1, self._group.q), dtype=np.int64)
                    return self._entries(zero, 1, self._lexp)[0]
                per_place.append(jet_at(f, u, w))
            jets.append(per_place)
        return self.value_at_jets(jets)

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        if self.mode != "exact":
            raise ValueError("only exact tables serialize to the wire format")
        return {
            "q": self.field.q,
            "places": [
                {
                    "poly": "inf" if u.is_infinite else list(u.poly.coeffs),
                    "N": w.N,
                    "M": w.M,
                }
                for u, w in self.support()
            ],
            "arity": self.arity,
            "table": [v.to_json() for v in self.values],
        }

    @staticmethod
    def from_json(field: FieldDescriptor, data: dict) -> "GlobalTestFunction":
        if data["q"] != field.q:
            raise ValueError("field size mismatch in serialized function")
        support = []
        for entry in data["places"]:
            if entry["poly"] == "inf":
                u = Place.infinity(field)
            else:
                u = Place.finite(Poly(field, entry["poly"]))
            support.append((u, Window(entry["N"], entry["M"])))
        values = [CycScalar.from_json(field.p, rec) for rec in data["table"]]
        return GlobalTestFunction(field, support, data["arity"], values)


def indicator_everywhere_integral(
    field, places_list, arity: int = 1, mode: str = "exact"
) -> GlobalTestFunction:
    """The product of integral indicators on the given support: on windows
    with no pole depth this is the constant-one table."""
    support = [(u, Window(0, 1)) for u in places_list]
    size = prod(jet_space_size(place_data(u), w) ** arity for u, w in support)
    arr = np.zeros((size, _value_group(field, mode).q), dtype=np.int64)
    arr[:, 0] = 1
    return GlobalTestFunction._from_table(field, support, arity, arr, 1, mode)


# ---------------------------------------------------------------------------
# The operations
# ---------------------------------------------------------------------------


def normalize_support(phi: GlobalTestFunction, extra_places) -> GlobalTestFunction:
    """Enlarge the support by integral-indicator factors at new places."""
    extra = list(extra_places)
    for u in extra:
        if u in phi.places:
            raise ValueError(f"place {u!r} already in the support")
    if not extra:
        return phi
    new_support = phi.support() + [(u, Window(0, 1)) for u in extra]
    new_support.sort(key=lambda pw: pw[0].sort_key())
    # tensor with the new places' constant axes: read the old value per cell
    order_old = {u: i for i, u in enumerate(phi.places)}
    sizes = []
    mapping = []  # per new axis: old axis index or None
    for u, w in new_support:
        D = jet_space_size(place_data(u), w)
        for coord in range(phi.arity):
            sizes.append(D)
            mapping.append(order_old[u] * phi.arity + coord if u in order_old else None)
    old_sizes = [jet_space_size(pd, w) for pd, w in phi.axis_list()]
    return phi._with_rows(new_support, _mixed_radix_index(old_sizes, mapping, sizes))


def _reindex_places(phi: GlobalTestFunction, changes) -> GlobalTestFunction:
    """new[.., a, ..] = old[.., look[a], ..] on every coordinate axis of
    each place i in changes, which maps i to (new window, look); a look of
    -1 reads zero.  The other axes are kept."""
    support, sizes, lookups = [], [], []
    for i, (u, w) in enumerate(phi.support()):
        D = jet_space_size(place_data(u), w)
        new_w, look = changes.get(i, (w, range(D)))
        support.append((u, new_w))
        sizes += [D] * phi.arity
        lookups += [look] * phi.arity
    return phi._with_rows(support, _lookup_index(sizes, lookups))


def refine_place(phi: GlobalTestFunction, u: Place, new_M: int) -> GlobalTestFunction:
    """Deepen invariance at one place; pulls the table back."""
    i = phi.places.index(u)
    if new_M == phi.windows[i].M:
        return phi
    return _reindex_places(phi, {i: _refine_lookup(place_data(u), phi.windows[i], new_M)})


def extend_place(phi: GlobalTestFunction, u: Place, new_N: int) -> GlobalTestFunction:
    """Deepen the allowed pole at one place; extension by zero."""
    i = phi.places.index(u)
    if new_N == phi.windows[i].N:
        return phi
    return _reindex_places(phi, {i: _extend_lookup(place_data(u), phi.windows[i], new_N)})


def global_fourier(phi: GlobalTestFunction) -> GlobalTestFunction:
    """Placewise Fourier transform with each place's own nu.

    The support is enlarged to contain infinity (dt is regular and nonzero
    away from it) and windows are refined to M >= nu so that every dual
    window is again a legal window.
    """
    inf = Place.infinity(phi.field)
    if inf not in phi.places:
        phi = normalize_support(phi, [inf])
    for u in phi.places:
        nu = place_data(u).nu
        if phi.window_at(u).M < nu:
            phi = refine_place(phi, u, nu)
    axes = phi.axis_list()
    for pd, w in axes:
        _check_transformable(pd, w)
    dual = [(u, w.dual(place_data(u).nu)) for u, w in phi.support()]
    arr, den, lexp = phi._transformed(axes)
    return GlobalTestFunction._from_table(phi.field, dual, phi.arity, arr, den, phi.mode, lexp)


def translate(phi: GlobalTestFunction, a: RationalFn) -> GlobalTestFunction:
    """phi'(x) = phi(x + a) for one-variable functions."""
    if phi.arity != 1:
        raise ValueError("translate handles arity 1")
    if a.is_zero():
        return phi
    # make room: every pole of a must fit into the support windows
    pole_places = [
        (Place.finite(pi), m) for pi, m in a.den.factor()
    ]
    if a.order_at_infinity() < 0:
        pole_places.append((Place.infinity(phi.field), -a.order_at_infinity()))
    new = [u for u, _ in pole_places if u not in phi.places]
    if new:
        phi = normalize_support(phi, new)
    for u, depth in pole_places:
        if phi.window_at(u).N < depth:
            phi = extend_place(phi, u, depth)
    changes = {}
    for i, (u, w) in enumerate(phi.support()):
        pd = place_data(u)
        ajet = jet_at(a, u, w)
        if not ajet.is_zero():
            # the index of x + a for every jet x, level by level
            codes = np.array([c.code for c in ajet.coeffs], dtype=np.int64)
            plus_a = pd.ku.add_codes(_digit_matrix(pd.ku.q, w.levels), codes)
            changes[i] = (w, _from_digits(plus_a.T, pd.ku.q))
    return _reindex_places(phi, changes)


def mult_by_residue_character(phi: GlobalTestFunction, a: RationalFn) -> GlobalTestFunction:
    """Pointwise multiply by x -> psi(sum_u r_u(a x_u)).

    The support is enlarged by the poles of a and by infinity, and windows
    are refined until the character is constant on jet cosets, which needs
    M_u >= nu_u - v_u(a)."""
    if phi.arity != 1:
        raise ValueError("character twist handles arity 1")
    if a.is_zero():
        return phi
    extra = [Place.infinity(phi.field)]
    for pi, _ in a.den.factor():
        extra.append(Place.finite(pi))
    new = [u for u in dict.fromkeys(extra) if u not in phi.places]
    if new:
        phi = normalize_support(phi, new)
    for u in phi.places:
        pd = place_data(u)
        need = pd.nu - u.valuation(a)
        if phi.window_at(u).M < need:
            phi = refine_place(phi, u, need)
    # per place, the linear form jet -> r_u(a * jet) as level coefficients
    place_exp = []
    for u, w in phi.support():
        pd = place_data(u)
        v_a = u.valuation(a)
        sa = pd.expand(a, pd.nu - (-w.N) + 1)
        ws = pd.omega_series(max(-v_a + w.N + 1, -pd.nu + 1))
        coeffs = []
        for lev in range(-w.N, w.M):
            acc = pd.ku.zero()
            for i in range(v_a, pd.nu - lev):
                wc_idx = -1 - i - lev
                if wc_idx < ws.hi and i < sa.hi:
                    acc = acc + sa.at(i) * ws.at(wc_idx)
            coeffs.append(acc)
        D = jet_space_size(pd, w)
        exps = []
        for idx in range(D):
            jet = index_to_jet(pd, w, idx)
            tot = pd.ku.zero()
            for c, x in zip(coeffs, jet.coeffs):
                if not c.is_zero() and not x.is_zero():
                    tot = tot + c * x
            exps.append(pd.trace_to_base_codes[tot.code])
        place_exp.append(exps)
    # the character's F_q exponent in every cell: a sum over the place axes
    e = np.zeros((), dtype=np.int64)
    for exps in place_exp:
        e = phi.field.add_codes(e[..., None], np.array(exps, dtype=np.int64))
    # psi(c) is the value group's T(c), T the trace down to the group, and
    # times psi(c) the column of g moves to g + T(c): one column gather, a
    # rotation mod p for an exact table, a translation in F_q for a
    # symbolic one
    group = phi._group
    t = np.array(phi.field.trace_table(group.e), dtype=np.int64)[e.reshape(-1)]
    cols = group.add_codes(np.arange(group.q), group.neg_codes(t)[:, None])
    arr = np.take_along_axis(phi._arr, cols, axis=1)
    return GlobalTestFunction._from_table(
        phi.field, phi.support(), 1, arr, phi._den, phi.mode, phi._lexp
    )


def scale_variable(phi: GlobalTestFunction, a: RationalFn) -> GlobalTestFunction:
    """phi'(x) = phi(a x); the support is enlarged by div(a)'s places and
    each window moves to (N + v_u(a), M - v_u(a))."""
    if phi.arity != 1:
        raise ValueError("variable scaling handles arity 1")
    if a.is_zero():
        raise ValueError("cannot scale the variable by zero")
    extra = []
    for pi, _ in a.num.factor():
        extra.append(Place.finite(pi))
    for pi, _ in a.den.factor():
        extra.append(Place.finite(pi))
    if a.order_at_infinity() != 0:
        extra.append(Place.infinity(phi.field))
    new = [u for u in dict.fromkeys(extra) if u not in phi.places]
    if new:
        phi = normalize_support(phi, new)
    changes = {}
    for i, (u, w) in enumerate(phi.support()):
        pd = place_data(u)
        v_a = u.valuation(a)
        new_win = Window(w.N + v_a, w.M - v_a)
        sa = pd.expand(a, w.M + w.N + abs(v_a) + 2)
        D_new = jet_space_size(pd, new_win)
        mapping = []
        for idx in range(D_new):
            xj = index_to_jet(pd, new_win, idx)
            prod = [pd.ku.zero()] * w.levels
            for li, xc in enumerate(xj.coeffs):
                if xc.is_zero():
                    continue
                lev_x = -new_win.N + li
                for ai in range(v_a, w.M - lev_x):
                    k = ai + lev_x
                    if -w.N <= k < w.M and ai < sa.hi:
                        prod[k + w.N] = prod[k + w.N] + sa.at(ai) * xc
            mapping.append(jet_to_index(JetVector(pd, w, prod)))
        changes[i] = (new_win, mapping)
    return _reindex_places(phi, changes)


_COUNT_CACHE: dict = {}


def _member_jet_codes(u: Place, window: Window, basis) -> np.ndarray:
    """The jets at one place of every member of the span of the basis, as
    k_u codes shaped (q^len(basis), levels).  The jet map is F_q-linear, so
    only the basis is expanded; members are sum_i c_i b_i with the digits
    c_i in row-major order, and their jets are summed level by level with
    the residue field's array ops."""
    pd = place_data(u)
    ku = pd.ku
    embed = np.array(ku.embedding_table(pd.base), dtype=np.int64)
    codes = np.zeros((1, window.levels), dtype=np.int64)
    for b in basis:
        jet = np.array([c.code for c in jet_at(b, u, window).coeffs], dtype=np.int64)
        # multiples[c, lev]: the jet of c * b, for every F_q code c
        multiples = ku.mul_codes(embed[:, None], jet[None, :])
        codes = ku.add_codes(codes[:, None, :], multiples[None, :, :])
        codes = codes.reshape(len(codes) * len(embed), window.levels)
    return codes


def jet_counts(field, support, arity: int, max_enum: int = 1 << 20) -> np.ndarray:
    """c[j]: how many arity-tuples of members of L(sum_u N_u [u]) have their
    jets on the support (canonical place order) in table cell j, so that
    delta_K(phi) = sum_j c[j] phi[j].  Cached per (support, arity); the
    enumeration budget is checked on every call, before any work."""
    support = tuple(support)
    D = Divisor(field, {u: w.N for u, w in support})
    dim = max(D.degree + 1, 0)
    if field.q**dim > max_enum:
        raise BudgetExceededError(f"|L(D)| = {field.q}^{dim} exceeds the budget {max_enum}")
    if field.q ** (dim * arity) > max_enum:
        raise BudgetExceededError(
            f"enumeration of {field.q**dim}^{arity} tuples exceeds {max_enum}"
        )
    key = (support, arity)
    got = _COUNT_CACHE.get(key)
    if got is not None:
        return got
    basis = rr_basis(D)
    sizes = [jet_space_size(place_data(u), w) for u, w in support]
    cell = np.zeros(field.q**dim, dtype=np.int64)
    for u, w in support:
        for lev_codes in _member_jet_codes(u, w, basis).T:
            cell = cell * place_data(u).ku.q + lev_codes
    one = np.bincount(cell, minlength=prod(sizes))
    # the coordinates are independent members: an outer power, laid out
    # coordinate-major, then moved to the table's place-major axis order
    counts = one
    for _ in range(arity - 1):
        counts = np.multiply.outer(counts, one)
    nplaces = len(support)
    perm = [c * nplaces + pl for pl in range(nplaces) for c in range(arity)]
    got = counts.reshape(-1)[_mixed_radix_index(sizes * arity, perm)]
    got.flags.writeable = False
    _COUNT_CACHE[key] = got
    return got


def delta_K(phi: GlobalTestFunction, max_enum: int = 1 << 20):
    """Sum of phi over the rational functions of F_q(t).

    Only members of L(sum_u N_u [u]) can contribute; phi is paired with
    the count of their jet tuples in each cell, exactly.
    """
    if phi.mode != "exact":
        raise ValueError("the rational-point sum is specialized; use exact mode")
    counts = jet_counts(phi.field, phi.support(), phi.arity, max_enum)
    # one integer dot: each sum is at most sum(counts) * max|entry|
    arr = _int64_or_object(phi._arr, int(counts.sum()))
    if arr.dtype == object:
        counts = counts.astype(object)
    total = counts @ arr
    return cyc_normalize(phi.field.p, [Fraction(int(x), phi._den) for x in total])


def poisson_report(phi: GlobalTestFunction, max_enum: int = 1 << 20) -> dict:
    """Both sides of the summation formula, compared exactly."""
    lhs = delta_K(phi, max_enum)
    rhs = delta_K(global_fourier(phi), max_enum)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


# ---------------------------------------------------------------------------
# The simple-function basis
# ---------------------------------------------------------------------------


def _coset_choices(pd, window: Window):
    """One place's simple cosets on the window, as (label, first jet, jet
    count): the single jets (invariance depth M) first, then the cosets of
    s^m O for m = M-1 down to 0.  Each is a contiguous run of jet indices."""
    N, M = window.N, window.M
    qd = pd.ku.q
    choices = [(f"m{M}:{j}", j, 1) for j in range(jet_space_size(pd, window))]
    for m in range(M - 1, -1, -1):
        block = qd ** (M - m)
        for lead in range(qd ** (N + m)):
            choices.append((f"m{m}:{lead}", lead * block, block))
    return choices


def simple_coset_functions(field, places_list, max_window=Window(1, 1)):
    """Every simple coset indicator on the given support with windows
    dominated by max_window: per place a coset a + s^m O with invariance
    depth 0 <= m <= M and pole bound N.  Depth m = M gives single-jet
    indicators; smaller m gives the coarser cosets, down to cosets of O
    itself at m = 0.  Yields (label, function) pairs, all emitted on the
    common window max_window so downstream batch machinery shares caches.
    """
    pds = [place_data(u) for u in places_list]
    per_place_choices = [_coset_choices(pd, max_window) for pd in pds]
    sizes = [jet_space_size(pd, max_window) for pd in pds]
    for combo in itertools.product(*per_place_choices):
        label = ",".join(f"{u!r}:{c[0]}" for u, c in zip(places_list, combo))
        # 1 on the product of the places' jet runs
        arr = np.zeros((prod(sizes), field.p), dtype=np.int64)
        runs = [range(first, first + count) for _, first, count in combo]
        arr[_lookup_index(sizes, runs), 0] = 1
        yield label, GlobalTestFunction._from_table(
            field, [(u, max_window) for u in places_list], 1, arr, 1
        )


def _poisson_functionals(field, support, max_enum=1 << 20, check=None):
    """delta_K and delta_K o F as vectors on a canonical-order arity-1
    support: (c, g, den) with delta_K(phi) = <c, phi> and
    delta_K(global_fourier(phi)) = <g, phi> / den, both shaped by the
    support's jet spaces (g with a trailing zeta-power axis of length p).

    c counts the jets of the members of L(sum_u N_u [u]).  With c' the
    counts on the dual support and T the pull-back that global_fourier
    applies (infinity added with window (0, 1), windows refined to
    M >= nu), g = T^t F^t c'.  F^t is the transform on the dual windows
    rescaled by q^(d(M' - M)) on each axis: the pairing r(xy) is symmetric
    and the dual of the dual window is the window.  T^t sums over the
    refined fibres and over the added axis.  check(context), when given,
    is called between the phases.
    """
    check = check or (lambda context: None)
    p = field.p
    sizes = [jet_space_size(place_data(u), w) for u, w in support]
    check("poisson jet counts")
    c = jet_counts(field, support, 1, max_enum).reshape(sizes)
    # the support global_fourier transforms, and T^t as a sum per axis
    windows = dict(support)
    inf = Place.infinity(field)
    wide = sorted(set(windows) | {inf}, key=lambda u: u.sort_key())
    shape, summed, axes = [], [], []
    for u in wide:
        pd = place_data(u)
        if u not in windows:
            w = Window(0, max(1, pd.nu))
            summed.append(len(shape))
            shape.append(jet_space_size(pd, w))
        else:
            w = Window(windows[u].N, max(windows[u].M, pd.nu))
            shape.append(jet_space_size(pd, windows[u]))
            if w.M > windows[u].M:
                summed.append(len(shape))
                shape.append(pd.ku.q ** (w.M - windows[u].M))
        axes.append((pd, w))
    dual_axes = [(pd, w.dual(pd.nu)) for pd, w in axes]
    c_dual = jet_counts(field, [(u, w) for u, (_, w) in zip(wide, dual_axes)], 1, max_enum)

    check("poisson dual transform")
    rows = np.zeros((c_dual.size, p), dtype=np.int64)
    rows[:, 0] = c_dual
    g, shift = _transform_table(rows, dual_axes, _value_group(field, "exact"))
    scale = Fraction(field.q) ** shift
    for (pd, w), (_, wd) in zip(axes, dual_axes):
        scale *= Fraction(pd.base.q) ** (pd.d * (wd.M - w.M))
    if g.dtype != object:
        # every later sum adds distinct cells with weight one, so this
        # bounds every entry of g and of the family's rows
        bound = max(1, int(np.abs(g).max(initial=0)))
        if bound * scale.numerator * len(g) >= _INT64_GUARD:
            g = g.astype(object)
    g = (g * scale.numerator).reshape(shape + [p]).sum(axis=tuple(summed))
    return c, g, scale.denominator


def poisson_family(field, places_list, window=Window(1, 1), max_enum=1 << 20, check=None):
    """Both sides of the summation formula for every function of
    simple_coset_functions(field, places_list, window), in its order, as
    (label, lhs, rhs) triples, with no table built per function.

    The family is the Kronecker product of each place's matrix of coset
    indicators, so lhs = (x_u I_u) c and rhs = (x_u I_u) g for the vectors
    of _poisson_functionals: one contraction per place axis.
    check(context), when given, is called between the phases.
    """
    if len(set(places_list)) != len(places_list):
        raise ValueError("duplicate place in support")
    check = check or (lambda context: None)
    p = field.p
    order = sorted(range(len(places_list)), key=lambda i: places_list[i].sort_key())
    canon = [places_list[i] for i in order]
    lhs, rhs, den = _poisson_functionals(
        field, [(u, window) for u in canon], max_enum, check
    )
    check("poisson family rows")
    choices = []
    for k, u in enumerate(canon):
        choices.append(_coset_choices(place_data(u), window))
        ind = np.zeros((len(choices[-1]), lhs.shape[k]), dtype=np.int64)
        for row, (_, first, count) in enumerate(choices[-1]):
            ind[row, first : first + count] = 1
        lhs = np.moveaxis(np.tensordot(ind, lhs, axes=([1], [k])), 0, k)
        rhs = np.moveaxis(np.tensordot(ind, rhs, axes=([1], [k])), 0, k)
    # rows in the order the places were given, which the labels follow
    where = [order.index(i) for i in range(len(order))]
    given = _mixed_radix_index([len(c) for c in choices], where)
    labels = itertools.product(
        *[[f"{u!r}:{c[0]}" for c in choices[k]] for u, k in zip(places_list, where)]
    )
    memo: dict = {}
    out = []
    for parts, n, row in zip(
        labels, lhs.reshape(-1)[given].tolist(), rhs.reshape(-1, p)[given].tolist()
    ):
        key = (n, tuple(row))
        got = memo.get(key)
        if got is None:
            got = memo[key] = (
                cyc_normalize(p, [n]),
                cyc_normalize(p, [Fraction(x, den) for x in row]),
            )
        out.append((",".join(parts), *got))
    return out
