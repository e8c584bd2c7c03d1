"""Jet windows, local test functions, residue pairings, Fourier transforms.

A window (N, M) at a place of residue degree d is the finite group
s^(-N) O / s^M O, an F_q-space of dimension d(N+M).  Test functions are
dense tables over jets; values are CycScalar (exact mode) or MotivicClass
(symbolic mode).  The transform uses the residue pairing against dt,

    F(phi)(x) = q^(d*nu/2) * q^(-d*M) * sum_y phi(y) psi(r(x y)),

whose output window is (M - nu, N + nu); with this normalization the
inversion F(F(phi))(x) = phi(-x) and the Riemann-Roch scalar in the global
theory hold exactly.  An exact table is stored once, as integer rows over
the zeta_p-power basis zeta^0..zeta^(p-1) with one common denominator:
numpy int64 while every entry is below the overflow guard, object arrays
of Python ints past it.  Transforms, reindexing and sums work on that
array, one jet axis at a time: per level one reshape, transpose and
matmul that carries the level from the front of the table to its end,
then a gather; CycScalar values are built only when they are read.  No
value is ever a float: while every sum of a contraction provably stays
below 2^53, a matmul large enough to gain from BLAS carries the integers
in float64, where BLAS sums them exactly, and the result returns to int64
before anything reads it.
A symbolic table is stored the same way, as integer rows over the group
ring Z[F_q], whose column c counts the point class e_c = [{c}, Id], with
one power of L for the whole table.  It runs through the same engine: the
kernel adds the trace down to F_q where an exact one adds the trace down
to F_p, and a transform adds d(nu/2 - M) to the power of L.  MotivicClass
values are built only when they are read.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as np

from .place import PlaceData
from .scalars import CycScalar, FieldElem, make_field

_INT64_GUARD = 1 << 60
# each output of a contraction sums Q terms per level, so |sum| <= factor *
# max|entry| < 2^53: every partial sum is an integer float64 holds exactly,
# so dgemm is exact in any summation order, FMA included
_FLOAT64_EXACT = 1 << 53
# a contraction of fewer multiply-adds per level stays in int64: in a fresh
# process the first dgemm costs about 0.08 ms and 0.9 MB more than an int64
# matmul, more than dgemm saves on so small a product (OpenBLAS 0.3.31,
# 2-core x86 host)
_FLOAT64_MIN_WORK = 1 << 12


@dataclass(frozen=True)
class Window:
    """Pole depth N and invariance depth M; jets live in s^-N O / s^M O."""

    N: int
    M: int

    def __post_init__(self):
        if self.N + self.M < 0:
            raise ValueError("window must satisfy N + M >= 0")

    @property
    def levels(self) -> int:
        return self.N + self.M

    def dual(self, nu: int) -> "Window":
        return Window(self.M - nu, self.N + nu)


class JetVector:
    """One coordinate's jet: residue-field coefficients for s^-N .. s^(M-1)."""

    __slots__ = ("pd", "window", "coeffs")

    def __init__(self, pd: PlaceData, window: Window, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != window.levels:
            raise ValueError(
                f"need {window.levels} coefficients for window {window}, got {len(coeffs)}"
            )
        self.pd = pd
        self.window = window
        self.coeffs = coeffs

    def coeff(self, level: int) -> FieldElem:
        if not -self.window.N <= level < self.window.M:
            raise ValueError("level outside window")
        return self.coeffs[level + self.window.N]

    def __add__(self, other: "JetVector") -> "JetVector":
        self._compat(other)
        return JetVector(
            self.pd, self.window, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "JetVector") -> "JetVector":
        self._compat(other)
        return JetVector(
            self.pd, self.window, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "JetVector":
        return JetVector(self.pd, self.window, [-a for a in self.coeffs])

    def _compat(self, other):
        if other.pd is not self.pd or other.window != self.window:
            raise ValueError("jet vectors from different windows")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, JetVector)
            and other.pd is self.pd
            and other.window == self.window
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.pd), self.window, self.coeffs))

    def __repr__(self):
        return f"jet{[c.code for c in self.coeffs]}@{self.pd.label}({self.window.N},{self.window.M})"


# -- jet enumeration ---------------------------------------------------------


def jet_space_size(pd: PlaceData, window: Window) -> int:
    return pd.ku.q ** window.levels


def _to_digits(idx: int, Q: int, K: int) -> list[int]:
    """idx written base Q with K digits, big-endian."""
    digits = [0] * K
    for pos in range(K - 1, -1, -1):
        idx, digits[pos] = divmod(idx, Q)
    return digits


def _from_digits(digits, Q: int):
    """The number whose base-Q digits, big-endian, are digits; digit
    arrays give an array of numbers."""
    idx = 0
    for digit in digits:
        idx = idx * Q + digit
    return idx


def jet_to_index(jet: JetVector) -> int:
    return _from_digits([c.code for c in jet.coeffs], jet.pd.ku.q)


def index_to_jet(pd: PlaceData, window: Window, idx: int) -> JetVector:
    codes = _to_digits(idx, pd.ku.q, window.levels)
    return JetVector(pd, window, [pd.ku.from_code(c) for c in codes])


# -- residues -----------------------------------------------------------------


def residue(f, pd: PlaceData) -> FieldElem:
    """res_u(f dt) as a residue-field element; f rational or a jet."""
    nu = pd.nu
    if isinstance(f, JetVector):
        if f.window.M < nu:
            raise ValueError(
                f"jet depth M={f.window.M} cannot determine the residue (need M >= {nu})"
            )
        w = pd.omega_series(f.window.N + 1)
        acc = pd.ku.zero()
        for lev in range(-f.window.N, min(f.window.M, nu)):
            wc = w.at(-1 - lev)
            if not wc.is_zero():
                acc = acc + f.coeff(lev) * wc
        return acc
    fs = pd.expand(f, nu + 2)
    v = fs.ord()
    ws = pd.omega_series(nu + 2 + max(0, -(v if v is not None else 0)))
    return (fs * ws).at(-1)


def residue_trace(f, pd: PlaceData) -> FieldElem:
    """r(f) = Tr_{k_u/F_q} res_u(f dt), the base-field residue functional."""
    z = residue(f, pd)
    return pd.base.from_code(pd.trace_to_base_codes[z.code])


def pairing_matrix(pd: PlaceData, out_win: Window, in_win: Window):
    """W[i][j] = omega coefficient pairing output level i with input level j.

    r(x y) = Tr sum_{i,j} x_i y_j w_(-1-i-j); entries are k_u codes.
    """
    cache = getattr(pd, "_pairing_cache", None)
    if cache is None:
        cache = pd._pairing_cache = {}
    key = (out_win, in_win)
    got = cache.get(key)
    if got is not None:
        return got
    hi = out_win.N + in_win.N + 1
    w = pd.omega_series(max(hi, -pd.nu + 1))
    rows = []
    for ipos in range(out_win.levels):
        i = -out_win.N + ipos
        row = []
        for jpos in range(in_win.levels):
            j = -in_win.N + jpos
            k = -1 - i - j
            row.append(w.at(k).code if k < w.hi else 0)
        rows.append(row)
    cache[key] = rows
    return rows


# -- the transform engine -------------------------------------------------------


def _value_group(field, mode: str):
    """The group whose codes number a table's columns: F_p, the exponents
    of the zeta-power basis, for an exact table; F_q, the point classes
    e_c = [{c}, Id], for a symbolic one.  In both, psi(c) is the column of
    T(c), with T the trace down to the group."""
    return make_field(field.p) if mode == "exact" else field


def _kernel_matmul(pd: PlaceData, dtype, group) -> np.ndarray:
    """The levelwise character transform as a (Q G, Q G) 0/1 matrix over
    the value group of G elements: row a G + i, column b G + o is 1 where
    o = i + T(z_a z_b) in the group, with T the trace from k_u down to it.
    At q = p both groups are F_p and share one matrix.  Built once per
    place and group; the float64 and object copies are made when a table
    of that dtype first needs one."""
    kernels = getattr(pd, "_kernel_matmul", None)
    if kernels is None:
        kernels = pd._kernel_matmul = {}
    key = (group.e, np.dtype(dtype))
    got = kernels.get(key)
    if got is None:
        if key[1] != np.int64:
            got = _kernel_matmul(pd, np.int64, group).astype(dtype)
        else:
            ku, G = pd.ku, group.q
            codes = np.arange(ku.q)
            T = np.array(ku.trace_table(group.e), dtype=np.int64)[ku.mul_codes(codes[:, None], codes)]
            # ker[a, i, b, o] = (i + T[a, b] == o), in one broadcast
            out = group.add_codes(np.arange(G)[:, None], T[:, None, :])
            got = (out[..., None] == np.arange(G)).astype(np.int64).reshape(ku.q * G, ku.q * G)
        kernels[key] = got
    return got


_DIGIT_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _digit_matrix(Q: int, K: int) -> np.ndarray:
    """digits[idx, pos] of idx written base Q with K digits, big-endian."""
    key = (Q, K)
    got = _DIGIT_CACHE.get(key)
    if got is not None:
        return got
    D = Q**K
    digits = np.empty((D, K), dtype=np.int64)
    idx = np.arange(D)
    for pos in range(K - 1, -1, -1):
        idx, digits[:, pos] = np.divmod(idx, Q)
    _DIGIT_CACHE[key] = digits
    return digits


def _mixed_radix_index(sizes, axis_perm, new_sizes=None) -> np.ndarray:
    """Flat positions in a row-major table with the given axis sizes, listed
    in the row-major order of a new table whose axis i is old axis
    axis_perm[i].  An axis_perm entry None is a new axis of size
    new_sizes[i] that the table does not depend on; every old axis appears
    exactly once."""
    idx = np.arange(prod(sizes), dtype=np.int64).reshape(sizes)
    idx = idx.transpose([a for a in axis_perm if a is not None])
    if new_sizes is not None:
        shape = [1 if a is None else sizes[a] for a in axis_perm]
        idx = np.broadcast_to(idx.reshape(shape), new_sizes)
    return idx.reshape(-1)


def _lookup_index(sizes, lookups) -> np.ndarray:
    """Flat positions in a row-major table with the given axis sizes, listed
    in the row-major order of a new table whose axis k reads old position
    lookups[k][a] at its index a; a lookup of -1, and every cell that reads
    one, is -1."""
    idx = np.zeros((), dtype=np.int64)
    for size, look in zip(sizes, lookups):
        look = np.asarray(look, dtype=np.int64)
        cell = idx[..., None] * size + look
        idx = np.where((idx[..., None] < 0) | (look < 0), -1, cell)
    return idx.reshape(-1)


# -- jet lookups: new jet index -> old jet index, -1 reading zero ---------------


def _extend_lookup(pd: PlaceData, win: Window, new_N: int):
    """(new window, lookup) of extension by zero to pole depth new_N: a jet
    keeps its index while its new leading levels are zero, else reads -1."""
    if new_N < win.N:
        raise ValueError("extend cannot shrink the window")
    new_win = Window(new_N, win.M)
    look = np.arange(jet_space_size(pd, new_win))
    look[look >= jet_space_size(pd, win)] = -1
    return new_win, look


def _refine_lookup(pd: PlaceData, win: Window, new_M: int):
    """(new window, lookup) of the pull-back to invariance depth new_M: a
    jet reads its truncation, its index without the new trailing digits."""
    if new_M < win.M:
        raise ValueError("refine cannot shrink the window")
    new_win = Window(win.N, new_M)
    return new_win, np.arange(jet_space_size(pd, new_win)) // pd.ku.q ** (new_M - win.M)


def _values_to_int(values, p: int):
    """Integer vectors over zeta^0..zeta^(p-1) with one common denominator:
    (arr, den), arr int64 when every entry is below _INT64_GUARD and an
    object array of Python ints otherwise."""
    nums = [c.numerator for v in values for c in v.coeffs]
    dens = [c.denominator for v in values for c in v.coeffs]
    den = lcm(*set(dens))
    if den != 1:
        nums = [n * (den // d) for n, d in zip(nums, dens)]
    try:
        flat = np.array(nums, dtype=np.int64)
    except OverflowError:
        flat = np.array(nums, dtype=object)
    arr = np.zeros((len(values), p), dtype=flat.dtype)
    arr[:, : p - 1] = flat.reshape(len(values), p - 1)
    return _int64_or_object(arr, 1), den


def _max_abs(arr) -> int:
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def _int64_or_object(arr, factor: int):
    """arr itself while factor * max|entry| stays below _INT64_GUARD, else
    arr as Python ints: the guard that keeps int64 sums from wrapping."""
    if arr.dtype == object or _max_abs(arr) * factor < _INT64_GUARD:
        return arr
    return arr.astype(object)


def _contraction_input(arr, factor: int, width: int):
    """arr in the dtype its contraction runs in, by the bound factor *
    max|entry| on every sum: float64 below both _FLOAT64_EXACT and
    _INT64_GUARD, when each level's matmul against the (width, width)
    kernel takes at least _FLOAT64_MIN_WORK multiply-adds; int64 below
    _INT64_GUARD; Python ints past it."""
    if arr.dtype == object:
        return arr
    bound = _max_abs(arr) * factor
    if bound >= _INT64_GUARD:
        return arr.astype(object)
    if bound < _FLOAT64_EXACT and arr.size * width >= _FLOAT64_MIN_WORK:
        return arr.astype(np.float64)
    return arr


def _int_to_values(arr, den: int, p: int):
    """Exact scalars of the rows of arr / den, one per distinct row."""
    # reduce mod 1 + zeta + ... + zeta^(p-1) in integers, as cyc_normalize
    # would, so rows equal in Q(zeta_p) share one memo entry
    rows = (arr[:, : p - 1] - arr[:, p - 1 :]).tolist()
    memo: dict = {}
    out = []
    for row in map(tuple, rows):
        v = memo.get(row)
        if v is None:
            v = memo[row] = CycScalar(p, [Fraction(c, den) for c in row])
        out.append(v)
    return out


def _class_values(arr, lexp: int, field):
    """Motivic classes of the rows of arr times L^lexp, one per distinct
    row: row n is sum_c n_c e_c over the codes c of F_q."""
    from .motivic import point_class_sum

    memo: dict = {}
    out = []
    for row in map(tuple, arr.tolist()):
        v = memo.get(row)
        if v is None:
            v = memo[row] = point_class_sum(field, row, lexp)
        out.append(v)
    return out


def _table_of(values, p: int, mode: str):
    """(arr, den) of a list of exact table values.  Symbolic tables are
    built only from integer rows: a general MotivicClass has no sound
    vector over Z[F_q]."""
    if mode != "exact":
        raise ValueError("symbolic tables are built from integer rows, not from values")
    return _values_to_int(values, p)


class _Table:
    """The storage of a dense table: row i of _arr is entry i as an integer
    vector over the codes of the value group (_value_group), int64 below
    _INT64_GUARD and Python ints past it.  An exact entry is its row over
    zeta^0..zeta^(p-1) divided by _den; a symbolic entry is its row over
    the point classes e_c times L^_lexp, one power of L for the whole
    table.  Scalars and classes are built only when read."""

    _values = None

    def _set_table(self, arr, den: int, field, mode: str, lexp: int = 0):
        self._arr, self._den, self._field, self.mode, self._lexp = arr, den, field, mode, lexp
        self._group = _value_group(field, mode)
        self._values = None

    def _entries(self, arr, den: int, lexp: int) -> list:
        """The entries of the rows arr over den, or times L^lexp."""
        if self.mode == "exact":
            return _int_to_values(arr, den, self._field.p)
        return _class_values(arr, lexp, self._field)

    @property
    def values(self) -> list:
        """Every entry, built on first access; do not mutate."""
        if self._values is None:
            self._values = self._entries(self._arr, self._den, self._lexp)
        return self._values

    def _value(self, idx: int):
        """Entry idx, building no other entry."""
        if self._values is not None:
            return self._values[idx]
        return self._entries(self._arr[idx : idx + 1], self._den, self._lexp)[0]

    def _times_q_power(self, arr, shift: int):
        """(arr, den, lexp) of the rows arr, read as this table reads its
        own, times q^shift: an exact table folds the power into its rows
        and denominator, a symbolic one adds it to its power of L."""
        if self.mode != "exact":
            return arr, 1, self._lexp + shift
        if shift <= 0:
            return arr, self._den * self._field.q**-shift, 0
        factor = self._field.q**shift
        return _int64_or_object(arr, factor) * factor, self._den, 0

    def _transformed(self, axes):
        """(arr, den, lexp) of the table transformed on the given (place
        data, window) axes, all of them, in order."""
        arr, shift = _transform_table(self._arr, axes, self._group)
        return self._times_q_power(arr, shift)

    def _shape(self) -> tuple:
        """What two tables must share to be equal or to be added."""
        raise NotImplementedError

    def _like(self, arr, den: int):
        """A table of this shape, mode and power of L with the rows arr."""
        out = copy.copy(self)
        out._set_table(arr, den, self._field, self.mode, self._lexp)
        return out

    def _rows(self, idx: np.ndarray):
        """The rows at the flat positions idx, where -1 reads a zero row."""
        arr = self._arr
        if (idx < 0).any():
            # numpy reads -1 as the last row, so -1 must find the zero there
            arr = np.concatenate([arr, np.zeros((1, arr.shape[1]), dtype=arr.dtype)])
        return arr[idx]

    def scaled(self, factor):
        """The exact table times the scalar factor."""
        if self.mode != "exact":
            raise ValueError("only exact tables scale by a scalar")
        return self._like(*_values_to_int([v * factor for v in self.values], self._field.p))

    def __add__(self, other):
        if (
            type(other) is not type(self)
            or other._shape() != self._shape()
            or other.mode != self.mode
            or other._arr.shape != self._arr.shape
        ):
            raise ValueError("incompatible test functions")
        if self.mode == "exact":
            values = [a + b for a, b in zip(self.values, other.values)]
            return self._like(*_values_to_int(values, self._field.p))
        if other._lexp != self._lexp:
            raise ValueError("symbolic tables with different powers of L")
        return self._like(_int64_or_object(self._arr, 2) + _int64_or_object(other._arr, 2), 1)

    def table_equal(self, other) -> bool:
        """Equal shapes and entries.  Symbolic tables compare their integer
        rows and powers of L literally, which is sound: equal vectors are
        equal classes."""
        if self._shape() != other._shape() or other.mode != self.mode:
            return False
        if self.mode == "exact":
            return all(a == b for a, b in zip(self.values, other.values))
        return other._lexp == self._lexp and np.array_equal(self._arr, other._arr)


def _contract_levels(arr, pd: PlaceData, K: int, group):
    """The character transform over k_u on the K level axes that lead arr,
    rows over the codes of the value group (G of them) viewed as
    (Q**K, rest, G): H[.., b] = sum_a arr[a, ..] psi(Tr(z_b z_a)) per level,
    shaped (rest, Q**K, G).  Each level is one rotation: its axis leaves
    the front and its transform lands last, so after K levels the jet axis
    sits last, in order.  The caller picks the dtype by _contraction_input,
    since each level multiplies max|entry| by Q; a float64 table comes back
    as int64, so the result is int64 or object."""
    G, Q = group.q, pd.ku.q
    ker = _kernel_matmul(pd, arr.dtype, group)
    work = arr.reshape(Q**K, -1, G)
    for _ in range(K):
        work = work.reshape(Q, -1, G).transpose(1, 0, 2).reshape(-1, Q * G) @ ker
    if work.dtype == np.float64:
        work = work.astype(np.int64)
    return work.reshape(-1, Q**K, G)


def _dual_gather_index(pd: PlaceData, win: Window) -> np.ndarray:
    """For each output jet x on the dual window, the index of the jet u(x)
    with psi(r(x y)) = psi(Tr(u(x) . y)): where the transform reads G.
    Cached on the place data per window."""
    cache = getattr(pd, "_gather_cache", None)
    if cache is None:
        cache = pd._gather_cache = {}
    got = cache.get(win)
    if got is not None:
        return got
    ku = pd.ku
    Q, K = ku.q, win.levels
    W = pairing_matrix(pd, win.dual(pd.nu), win)
    digits = _digit_matrix(Q, K)
    g_idx = np.zeros(Q**K, dtype=np.int64)
    for jpos in range(K):
        acc = np.zeros(Q**K, dtype=np.int64)
        for ipos in range(K):
            code = W[ipos][jpos]
            if code:
                acc = ku.add_codes(acc, ku.mul_codes(digits[:, ipos], code))
        g_idx = g_idx * Q + acc
    cache[win] = g_idx
    return g_idx


def _rep_axis_transform(arr, pd: PlaceData, win: Window, group):
    """The leading jet-space axis of the integer table arr, rows over the
    value group's codes, transformed onto the dual window and moved last,
    with the other axes in their order in front: sum_y arr[y] psi(r(x y))
    without the transform's power of q, which the caller applies.  The
    contraction runs in float64 or int64 while the sums provably fit and
    in Python ints otherwise; its result is int64 or object."""
    G, Q = group.q, pd.ku.q
    arr = _contraction_input(arr, Q**win.levels * 4, Q * G)
    out = _contract_levels(arr, pd, win.levels, group)[:, _dual_gather_index(pd, win)]
    return out.reshape(-1, G)


def _transform_table(arr, axes, group):
    """The placewise transform of the integer table arr, rows over the
    value group's codes, on the given (place data, window) axes, in order:
    (rows on the dual windows, the transform's power of q, the sum of
    d (nu/2 - M) over the axes).  Each axis leaves the front and lands
    last, so once every axis has gone through, the axes are back in their
    order."""
    shift = 0
    for pd, win in axes:
        arr = _rep_axis_transform(arr, pd, win, group)
        shift += pd.d * (pd.nu // 2 - win.M)
    return arr, shift


def _check_transformable(pd: PlaceData, win: Window):
    if win.M < pd.nu:
        raise ValueError(
            f"window (N={win.N}, M={win.M}) too shallow for nu={pd.nu}; refine first"
        )
    if pd.nu % 2 != 0:
        raise ValueError("odd duality exponent nu is not supported")


# -- local test functions ---------------------------------------------------------


def _cell_count(pd: PlaceData, window: Window, arity: int) -> int:
    """The cells of a table on arity copies of the window's jet space."""
    if arity < 1:
        raise ValueError(f"arity must be at least 1, got {arity}")
    return jet_space_size(pd, window) ** arity


class LocalTestFunction(_Table):
    """Dense value table on (jet space)^arity at a single place.

    Axis order: coordinate 0 is the most significant index block.
    """

    def __init__(self, pd: PlaceData, window: Window, arity: int, values, mode="exact"):
        size = _cell_count(pd, window, arity)
        values = list(values)
        if len(values) != size:
            raise ValueError(f"table needs {size} entries, got {len(values)}")
        self.pd = pd
        self.window = window
        self.arity = arity
        self._set_table(*_table_of(values, pd.base.p, mode), pd.base, mode)
        self._values = values

    @classmethod
    def _from_table(cls, pd, window, arity, arr, den, mode="exact", lexp=0):
        """A table given in the _Table layout, taken as it is."""
        phi = cls.__new__(cls)
        phi.pd, phi.window, phi.arity = pd, window, arity
        phi._set_table(arr, den, pd.base, mode, lexp)
        return phi

    def _shape(self) -> tuple:
        return (self.window, self.arity)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_function(cls, pd, window, fn, arity=1, mode="exact"):
        D = jet_space_size(pd, window)
        jets = [index_to_jet(pd, window, j) for j in range(D)]
        vals = [
            fn(*[jets[j] for j in _to_digits(idx, D, arity)])
            for idx in range(_cell_count(pd, window, arity))
        ]
        return cls(pd, window, arity, vals, mode)

    @classmethod
    def indicator_integral(cls, pd, window, arity=1, mode="exact"):
        """1 on (O)^arity cap window, 0 elsewhere."""
        size = _cell_count(pd, window, arity)
        # a jet is integral when its leading N pole levels, its leading
        # digits, are zero
        integral = np.arange(jet_space_size(pd, window)) < pd.ku.q**window.M
        mask = np.ones(1, dtype=bool)
        for _ in range(arity):
            mask = np.logical_and.outer(mask, integral).reshape(-1)
        arr = np.zeros((size, _value_group(pd.base, mode).q), dtype=np.int64)
        arr[:, 0] = mask
        return cls._from_table(pd, window, arity, arr, 1, mode)

    @classmethod
    def delta(cls, pd, window, jet_index: int, mode="exact"):
        D = jet_space_size(pd, window)
        if not 0 <= jet_index < D:
            raise ValueError(f"delta jet index {jet_index} outside [0, {D})")
        arr = np.zeros((D, _value_group(pd.base, mode).q), dtype=np.int64)
        arr[jet_index, 0] = 1
        return cls._from_table(pd, window, 1, arr, 1, mode)

    # -- table access -----------------------------------------------------------

    def value_at(self, *jets: JetVector):
        if len(jets) != self.arity:
            raise ValueError("wrong number of coordinates")
        if any(jet.window != self.window for jet in jets):
            raise ValueError("jet window mismatch")
        D = jet_space_size(self.pd, self.window)
        return self._value(_from_digits([jet_to_index(jet) for jet in jets], D))


def integrate(phi: LocalTestFunction):
    """L^(-M) normalized sum per coordinate: q^(-d M m) * sum of the table."""
    total = _int64_or_object(phi._arr, len(phi._arr)).sum(axis=0, keepdims=True)
    return phi._entries(*phi._times_q_power(total, -phi.pd.d * phi.window.M * phi.arity))[0]


def _reindexed(phi: LocalTestFunction, window: Window, look) -> LocalTestFunction:
    """phi moved to the window, reading old jet look[a] at jet a on every
    coordinate axis; a look of -1 reads zero."""
    D = jet_space_size(phi.pd, phi.window)
    rows = phi._rows(_lookup_index([D] * phi.arity, [look] * phi.arity))
    return LocalTestFunction._from_table(
        phi.pd, window, phi.arity, rows, phi._den, phi.mode, phi._lexp
    )


def extend_zero(phi: LocalTestFunction, new_N: int) -> LocalTestFunction:
    """Deepen the allowed pole; the function is extended by zero."""
    if new_N == phi.window.N:
        return phi
    return _reindexed(phi, *_extend_lookup(phi.pd, phi.window, new_N))


def refine(phi: LocalTestFunction, new_M: int) -> LocalTestFunction:
    """Deepen invariance; the table is pulled back along the projection."""
    if new_M == phi.window.M:
        return phi
    return _reindexed(phi, *_refine_lookup(phi.pd, phi.window, new_M))


def restrict(phi: LocalTestFunction, new_M: int) -> LocalTestFunction:
    """Partial inverse of refine: forget levels >= new_M (table must be
    constant on the forgotten cosets for this to be faithful).  A jet reads
    its lift with zero trailing levels."""
    if new_M > phi.window.M:
        raise ValueError("restrict cannot grow the window")
    new_win = Window(phi.window.N, new_M)
    pad = phi.pd.ku.q ** (phi.window.M - new_M)
    return _reindexed(phi, new_win, np.arange(jet_space_size(phi.pd, new_win)) * pad)


def flip(phi: LocalTestFunction) -> LocalTestFunction:
    """x -> phi(-x) on every coordinate, through the field's negation."""
    ku = phi.pd.ku
    negated = ku.neg_codes(_digit_matrix(ku.q, phi.window.levels))
    return _reindexed(phi, phi.window, _from_digits(negated.T, ku.q))


def fourier1(phi: LocalTestFunction) -> LocalTestFunction:
    """Fourier transform of a one-variable local test function."""
    if phi.arity != 1:
        raise ValueError("fourier1 handles arity 1; use fourier_multi")
    return fourier_multi(phi)


def fourier_multi(phi: LocalTestFunction) -> LocalTestFunction:
    """Transform all coordinates, one axis at a time."""
    pd, win = phi.pd, phi.window
    _check_transformable(pd, win)
    arr, den, lexp = phi._transformed([(pd, win)] * phi.arity)
    return LocalTestFunction._from_table(pd, win.dual(pd.nu), phi.arity, arr, den, phi.mode, lexp)
