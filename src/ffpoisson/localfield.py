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
Symbolic tables keep their MotivicClass values in one object column and
take a direct double sum.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as np

from .place import PlaceData
from .scalars import CycScalar, FieldElem

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


# -- value modes ---------------------------------------------------------------


class ExactOps:
    """CycScalar-valued tables: psi via absolute trace, q-powers as Fractions."""

    mode = "exact"

    def __init__(self, pd: PlaceData):
        self.pd = pd
        p = pd.base.p
        self.p = p
        self._zeta = [CycScalar.zeta_power(p, k) for k in range(p)]
        self._base_exp = pd.base.trace_table(1)

    def zero(self):
        return CycScalar.zero(self.p)

    def one(self):
        return CycScalar.one(self.p)

    def psi_base(self, code: int):
        return self._zeta[self._base_exp[code]]

    def q_power(self, k: int):
        return CycScalar.rational(self.p, Fraction(self.pd.base.q) ** k)

    def scale(self, v, k: int):
        return v * Fraction(self.pd.base.q) ** k


class SymbolicOps:
    """MotivicClass-valued tables; psi(c) is the point class [{c}, Id]."""

    mode = "symbolic"

    def __init__(self, pd: PlaceData):
        from . import motivic

        self.pd = pd
        self._motivic = motivic

    def zero(self):
        return self._motivic.MotivicClass.zero(self.pd.base)

    def one(self):
        return self._motivic.MotivicClass.one(self.pd.base)

    def psi_base(self, code: int):
        return self._motivic.psi_class(self.pd.base.from_code(code))

    def q_power(self, k: int):
        return self._motivic.MotivicClass.one(self.pd.base).shift_L(k)

    def scale(self, v, k: int):
        return v.shift_L(k)


def ops_for(pd: PlaceData, mode: str):
    """The value ring of a mode at a place, built once per place."""
    cache = getattr(pd, "_ops_cache", None)
    if cache is None:
        cache = pd._ops_cache = {}
    ops = cache.get(mode)
    if ops is None:
        ops = cache[mode] = ExactOps(pd) if mode == "exact" else SymbolicOps(pd)
    return ops


# -- the transform engine -------------------------------------------------------


def _field_code_tables(field):
    """mul and add of a field as (q, q) int64 code tables, gathered from the
    log pair and the Zech table (XOR at p = 2)."""
    q = field.q
    field._ensure_log(force=True)
    exp = np.array(field._exp, dtype=np.int64)
    log = np.array(field._log, dtype=np.int64)
    la, lb = log[:, None], log[None, :]
    codes = np.arange(q, dtype=np.int64)
    mul = exp[la + lb]
    mul[0, :] = mul[:, 0] = 0
    if field.p == 2:
        add = codes[:, None] ^ codes[None, :]
    else:
        # a + b = g^(log a) (1 + g^(log b - log a)); zech -1 marks b = -a
        zech = np.array([-1 if z is None else z for z in field._zech], dtype=np.int64)
        z = zech[(lb - la) % (q - 1)]
        add = exp[la + np.maximum(z, 0)]
        add[z < 0] = 0
        add[0, :] = add[:, 0] = codes
    return mul, add


def _code_tables(pd: PlaceData):
    """The residue field's (mul, add) code tables, cached on the place data."""
    got = getattr(pd, "_code_tables", None)
    if got is None:
        got = pd._code_tables = _field_code_tables(pd.ku)
    return got


def _kernel_matmul(pd: PlaceData, dtype) -> np.ndarray:
    """The levelwise character transform as a (Q p, Q p) 0/1 matrix: row
    a p + i, column b p + o is 1 where o = i + E[b, a] mod p, with E[b, a]
    the exponent of psi(Tr(z_b z_a)).  Built once per place from E; the
    float64 and object copies are made when a table of that dtype first
    needs one."""
    kernels = getattr(pd, "_kernel_matmul", None)
    if kernels is None:
        Q, p = pd.ku.q, pd.base.p
        E = np.array(pd.psi_exponents, dtype=np.int64)[_code_tables(pd)[0]]
        # ker[a, i, b, o] = (i + E[b, a]) % p == o, in one broadcast
        i = np.arange(p)[:, None, None]
        ker = ((i + E.T[:, None, :, None]) % p == np.arange(p)).astype(np.int64)
        kernels = pd._kernel_matmul = {ker.dtype: ker.reshape(Q * p, Q * p)}
    got = kernels.get(dtype)
    if got is None:
        got = kernels[dtype] = kernels[np.dtype(np.int64)].astype(dtype)
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


def _table_of(values, p: int, mode: str):
    """(arr, den) of a list of table values: exact values as integer rows,
    symbolic ones as one object column over the denominator 1."""
    if mode == "exact":
        return _values_to_int(values, p)
    col = np.empty((len(values), 1), dtype=object)
    col[:, 0] = values
    return col, 1


class _Table:
    """The storage of a dense table: row i of _arr, over _den, is entry i
    on the basis zeta^0..zeta^(p-1), int64 below _INT64_GUARD and Python
    ints past it; a symbolic table has one object column of MotivicClass
    values and _den = 1.  Exact scalars are built only when read."""

    _values = None

    def _set_table(self, arr, den: int, p: int, mode: str):
        self._arr, self._den, self._p, self.mode = arr, den, p, mode
        self._values = None

    @property
    def values(self) -> list:
        """Every entry as a scalar, built on first access; do not mutate."""
        if self._values is None:
            if self.mode == "exact":
                self._values = _int_to_values(self._arr, self._den, self._p)
            else:
                self._values = self._arr[:, 0].tolist()
        return self._values

    def _value(self, idx: int):
        """Entry idx, building no other entry."""
        if self._values is not None:
            return self._values[idx]
        if self.mode == "exact":
            return _int_to_values(self._arr[idx : idx + 1], self._den, self._p)[0]
        return self._arr[idx, 0]

    def _shape(self) -> tuple:
        """What two tables must share to be equal or to be added."""
        raise NotImplementedError

    def _like(self, arr, den: int):
        """A table of this shape and mode with the layout (arr, den)."""
        out = copy.copy(self)
        out._set_table(arr, den, self._p, self.mode)
        return out

    def _rows(self, idx: np.ndarray):
        """The rows at the flat positions idx, where -1 reads a zero row."""
        arr = self._arr
        if (idx < 0).any():
            # numpy reads -1 as the last row, so -1 must find the zero there
            zero = np.zeros((1, arr.shape[1]), dtype=arr.dtype)
            if self.mode != "exact":
                zero[0, 0] = self._ops().zero()
            arr = np.concatenate([arr, zero])
        return arr[idx]

    def scaled(self, factor):
        return self._like(*_table_of([v * factor for v in self.values], self._p, self.mode))

    def __add__(self, other):
        if (
            type(other) is not type(self)
            or other._shape() != self._shape()
            or other.mode != self.mode
            or other._arr.shape != self._arr.shape
        ):
            raise ValueError("incompatible test functions")
        values = [a + b for a, b in zip(self.values, other.values)]
        return self._like(*_table_of(values, self._p, self.mode))

    def table_equal(self, other) -> bool:
        return self._shape() == other._shape() and all(
            a == b for a, b in zip(self.values, other.values)
        )


def _contract_levels(arr, pd: PlaceData, K: int):
    """The character transform over k_u on the K level axes that lead arr,
    rows over the zeta-power basis viewed as (Q**K, rest, p): G[.., b] =
    sum_a arr[a, ..] psi(Tr(z_b z_a)) per level, shaped (rest, Q**K, p).
    Each level is one rotation: its axis leaves the front and its
    transform lands last, so after K levels the jet axis sits last, in
    order.  The caller picks the dtype by _contraction_input, since each
    level multiplies max|entry| by Q; a float64 table comes back as int64,
    so the result is int64 or object."""
    p, Q = pd.base.p, pd.ku.q
    ker = _kernel_matmul(pd, arr.dtype)
    work = arr.reshape(Q**K, -1, p)
    for _ in range(K):
        work = work.reshape(Q, -1, p).transpose(1, 0, 2).reshape(-1, Q * p) @ ker
    if work.dtype == np.float64:
        work = work.astype(np.int64)
    return work.reshape(-1, Q**K, p)


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
    mul, add = _code_tables(pd)
    Q, K = pd.ku.q, win.levels
    W = pairing_matrix(pd, win.dual(pd.nu), win)
    digits = _digit_matrix(Q, K)
    g_idx = np.zeros(Q**K, dtype=np.int64)
    for jpos in range(K):
        acc = np.zeros(Q**K, dtype=np.int64)
        for ipos in range(K):
            code = W[ipos][jpos]
            if code:
                acc = add[acc, mul[digits[:, ipos], code]]
        g_idx = g_idx * Q + acc
    cache[win] = g_idx
    return g_idx


def _rep_axis_transform(arr, den: int, pd: PlaceData, win: Window):
    """The leading jet-space axis of the integer table arr / den, transformed
    onto the dual window and moved last: (arr, den) with the other axes in
    their order in front.  The contraction runs in float64 or int64 while
    the sums provably fit and in Python ints otherwise; its result is
    int64 or object."""
    p = pd.base.p
    K = win.levels
    scale = Fraction(pd.base.q) ** (pd.d * (pd.nu // 2 - win.M))
    arr = _contraction_input(arr, pd.ku.q**K * 4 * scale.numerator, pd.ku.q * p)
    out = _contract_levels(arr, pd, K)[:, _dual_gather_index(pd, win)]
    if scale.numerator != 1:
        out = out * scale.numerator
    return out.reshape(-1, p), den * scale.denominator


def _transform_table(arr, den: int, axes):
    """The placewise transform of the integer table arr / den on the given
    (place data, window) axes, in order: (arr, den) on the dual windows.
    Each axis leaves the front and lands last, so once every axis has gone
    through, the axes are back in their order."""
    for pd, win in axes:
        arr, den = _rep_axis_transform(arr, den, pd, win)
    return arr, den


def _generic_axis_transform(values, ops, pd: PlaceData, win: Window, pre: int, post: int):
    """Direct double-sum transform; works for any value ring."""
    nu = pd.nu
    dual = win.dual(nu)
    Q = pd.ku.q
    K = win.levels
    D = Q**K
    W = pairing_matrix(pd, dual, win)
    tr = pd.trace_to_base_codes
    mul_code, add_code = pd.ku.mul_code, pd.ku.add_code
    # psi(r(x y)) for jet index pairs, via the bilinear coefficient matrix
    in_digits = _digit_matrix(Q, K).tolist()
    kernel_exp = [[0] * D for _ in range(D)]
    for xi in range(D):
        xd = in_digits[xi]
        for yi in range(D):
            yd = in_digits[yi]
            acc = 0
            for i in range(K):
                xc = xd[i]
                if xc:
                    row = W[i]
                    for j in range(K):
                        wc = row[j]
                        if wc and yd[j]:
                            acc = add_code(acc, mul_code(mul_code(xc, wc), yd[j]))
            kernel_exp[xi][yi] = tr[acc]
    psi_vals = [ops.psi_base(c) for c in range(pd.base.q)]
    shift = pd.d * (nu // 2 - win.M)
    out = []
    block = D * post
    for x in range(pre):
        base_off = x * block
        for xi in range(D):
            for y in range(post):
                acc = ops.zero()
                row = kernel_exp[xi]
                for yi in range(D):
                    v = values[base_off + yi * post + y]
                    acc = acc + v * psi_vals[row[yi]]
                out.append(ops.scale(acc, shift))
    return out, dual


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
        self._set_table(*_table_of(values, pd.base.p, mode), pd.base.p, mode)
        self._values = values

    @classmethod
    def _from_table(cls, pd, window, arity, arr, den, mode="exact"):
        """A table given in the _Table layout, taken as it is."""
        phi = cls.__new__(cls)
        phi.pd, phi.window, phi.arity = pd, window, arity
        phi._set_table(arr, den, pd.base.p, mode)
        return phi

    def _shape(self) -> tuple:
        return (self.window, self.arity)

    def _ops(self):
        return ops_for(self.pd, self.mode)

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
        ops = ops_for(pd, mode)
        one, zero = ops.one(), ops.zero()

        def fn(*jets):
            for jet in jets:
                for lev in range(-window.N, 0):
                    if not jet.coeff(lev).is_zero():
                        return zero
            return one

        return cls.from_function(pd, window, fn, arity, mode)

    @classmethod
    def delta(cls, pd, window, jet_index: int, mode="exact"):
        D = jet_space_size(pd, window)
        if not 0 <= jet_index < D:
            raise ValueError(f"delta jet index {jet_index} outside [0, {D})")
        if mode == "exact":
            arr = np.zeros((D, pd.base.p), dtype=np.int64)
            arr[jet_index, 0] = 1
            return cls._from_table(pd, window, 1, arr, 1)
        ops = ops_for(pd, mode)
        vals = [ops.zero()] * D
        vals[jet_index] = ops.one()
        return cls(pd, window, 1, vals, mode)

    @classmethod
    def zero_function(cls, pd, window, arity=1, mode="exact"):
        ops = ops_for(pd, mode)
        return cls(pd, window, arity, [ops.zero()] * _cell_count(pd, window, arity), mode)

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
    ops = ops_for(phi.pd, phi.mode)
    acc = ops.zero()
    for v in phi.values:
        acc = acc + v
    return ops.scale(acc, -phi.pd.d * phi.window.M * phi.arity)


def _reindexed(phi: LocalTestFunction, window: Window, look) -> LocalTestFunction:
    """phi moved to the window, reading old jet look[a] at jet a on every
    coordinate axis; a look of -1 reads zero."""
    D = jet_space_size(phi.pd, phi.window)
    rows = phi._rows(_lookup_index([D] * phi.arity, [look] * phi.arity))
    return LocalTestFunction._from_table(phi.pd, window, phi.arity, rows, phi._den, phi.mode)


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
    """x -> phi(-x) on every coordinate, through the negation code table."""
    pd, Q = phi.pd, phi.pd.ku.q
    neg = np.array([pd.ku.neg_code(c) for c in range(Q)], dtype=np.int64)
    negated = neg[_digit_matrix(Q, phi.window.levels)]
    return _reindexed(phi, phi.window, _from_digits(negated.T, Q))


def fourier1(phi: LocalTestFunction) -> LocalTestFunction:
    """Fourier transform of a one-variable local test function."""
    if phi.arity != 1:
        raise ValueError("fourier1 handles arity 1; use fourier_multi")
    return fourier_multi(phi)


def fourier_multi(phi: LocalTestFunction) -> LocalTestFunction:
    """Transform all coordinates, one axis at a time."""
    pd, win = phi.pd, phi.window
    _check_transformable(pd, win)
    D = jet_space_size(pd, win)
    dual = win.dual(pd.nu)
    if phi.mode == "exact":
        arr, den = _transform_table(phi._arr, phi._den, [(pd, win)] * phi.arity)
        return LocalTestFunction._from_table(pd, dual, phi.arity, arr, den)
    ops = ops_for(pd, phi.mode)
    values = phi.values
    for axis in range(phi.arity):
        pre = D**axis
        post = D ** (phi.arity - axis - 1)
        values, _ = _generic_axis_transform(values, ops, pd, win, pre, post)
    return LocalTestFunction(pd, dual, phi.arity, values, phi.mode)
