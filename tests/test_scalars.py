import ast
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from ffpoisson import scalars
from ffpoisson.scalars import (
    _LOG_LIMIT,
    CycScalar,
    FieldDescriptor,
    cyc_normalize,
    make_field,
    psi,
    trace,
)


def test_prime_field_f2():
    F2 = make_field(2, 1)
    assert [e.code for e in F2.elements()] == [0, 1]


def test_f8_multiplicative_group_cyclic_order_7():
    F8 = make_field(2, 3)
    g = F8.gen()
    seen = set()
    x = F8.one()
    for _ in range(7):
        x = x * g
        seen.add(x.code)
    assert len(seen) == 7
    assert x == F8.one()


def test_f9_contains_f3():
    F9 = make_field(3, 2)
    F3 = make_field(3, 1)
    image = {F9.embed(x).code for x in F3.elements()}
    assert len(image) == 3
    # closed under addition and multiplication
    for a in image:
        for b in image:
            assert F9.add_code(a, b) in image
            assert F9.mul_code(a, b) in image


def test_make_field_rejects_nonprime():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_trace_zero_and_identity():
    F4 = make_field(2, 2)
    assert trace(F4.zero(), 1).is_zero()
    for x in F4.elements():
        assert trace(x, 2) == x


def test_trace_f4_generator():
    # x a root of X^2+X+1: trace = x + x^2 = 1
    F4 = make_field(2, 2)
    x = F4.gen()
    assert trace(x, 1).code == 1


def test_trace_rejects_bad_degree():
    F8 = make_field(2, 3)
    with pytest.raises(ValueError):
        trace(F8.gen(), 2)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_psi_additive_exhaustive(p, e):
    F = make_field(p, e)
    for a in F.elements():
        for b in F.elements():
            assert psi(a + b) == psi(a) * psi(b)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_psi_sums_to_zero(p, e):
    F = make_field(p, e)
    total = CycScalar.zero(p)
    for x in F.elements():
        total = total + psi(x)
    assert total.is_zero()


def test_psi_f2_values():
    F2 = make_field(2)
    assert psi(F2.zero()) == CycScalar.rational(2, 1)
    assert psi(F2.one()) == CycScalar.rational(2, -1)


def test_psi_sum_of_squares_f3():
    # by direct count: squares over F_3 are {0:1, 1:2}: 1 + 2 zeta
    F3 = make_field(3)
    total = CycScalar.zero(3)
    for x in F3.elements():
        total = total + psi(x * x)
    assert total == cyc_normalize(3, [1, 2, 0])


@pytest.mark.parametrize("p", [2, 3])
def test_trace_transitive_towers(p):
    for e in (2, 3, 6):
        F = make_field(p, e)
        for d in (dd for dd in (2, 3) if e % dd == 0 and dd != e):
            for x in F.elements():
                assert trace(trace(x, d), 1) == trace(x, 1)


def test_cyc_normalize_vanishing_sum():
    assert cyc_normalize(3, [1, 1, 1]).is_zero()
    assert cyc_normalize(2, [1, 1]).is_zero()


def test_cyc_normalize_top_power():
    p = 5
    v = cyc_normalize(p, [0, 0, 0, 0, 1])
    assert v.coeffs == tuple(Fraction(-1) for _ in range(p - 1))


def test_cyc_normalize_idempotent_random():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(50):
            raw = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(p)]
            once = cyc_normalize(p, raw)
            again = cyc_normalize(p, list(once.coeffs) + [0])
            assert once == again


def test_cyc_arithmetic_and_serialization():
    a = cyc_normalize(3, [1, 2, 0])
    b = cyc_normalize(3, [0, 1, 1])
    assert (a + b) - b == a
    assert a * CycScalar.one(3) == a
    assert a * CycScalar.zero(3) == CycScalar.zero(3)
    back = CycScalar.from_json(3, a.to_json())
    assert back == a


def test_zeta_power_relation():
    # zeta^p = 1 and 1 + zeta + ... + zeta^(p-1) = 0
    for p in (2, 3, 5):
        z = CycScalar.zeta_power
        total = CycScalar.zero(p)
        for k in range(p):
            total = total + z(p, k)
        assert total.is_zero()
        assert z(p, p) == CycScalar.one(p)


def test_subfield_embedding_is_ring_hom():
    F4 = make_field(2, 2)
    F64 = make_field(2, 6)
    for a in F4.elements():
        for b in F4.elements():
            assert F64.embed(a * b) == F64.embed(a) * F64.embed(b)
            assert F64.embed(a + b) == F64.embed(a) + F64.embed(b)


@pytest.mark.parametrize(
    "p,a,b",
    [(2, 2, 4), (3, 2, 6), (2, 1, 3), (3, 1, 2), (5, 1, 1), (2, 3, 3)],
    ids=["F4<F16", "F9<F729", "F2<F8", "F3<F9", "F5<F5", "F8<F8"],
)
def test_section_inverts_embed_and_rejects_the_rest(p, a, b):
    sub, big = make_field(p, a), make_field(p, b)
    image = set()
    for x in sub.elements():
        y = big.embed(x)
        assert big.section(y, sub) == x
        image.add(y.code)
    assert len(image) == sub.q
    for z in big.elements():
        if z.code not in image:
            with pytest.raises(ValueError, match="subfield"):
                big.section(z, sub)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_coordinates_on_a_basis_by_their_definition(p, e):
    sub, big = make_field(p, e), make_field(p, 3 * e)
    gamma = big.gen()
    basis = [big.one(), gamma, gamma**2]
    coords, from_coords = big.coordinates(sub, basis)
    for z in big.elements():
        c = [sub.from_code(coords[z.code] // sub.q**i % sub.q) for i in range(3)]
        assert sum((big.embed(ci) * b for ci, b in zip(c, basis)), big.zero()) == z
        assert from_coords[coords[z.code]] == z.code
    with pytest.raises(ValueError, match="not a basis"):
        big.coordinates(sub, [big.one(), big.one(), gamma**2])
    with pytest.raises(ValueError):
        big.coordinates(sub, basis[:2])


def test_field_element_codes_roundtrip():
    F9 = make_field(3, 2)
    for x in F9.elements():
        assert F9.code_of(x.coeffs()) == x.code
        if not x.is_zero():
            assert (x * x.inverse()) == F9.one()


# -- field arithmetic against polynomial arithmetic ----------------------------------

# every field p^e <= 256 for p in {2, 3, 5, 7}, and F_p for the other primes
# below 64: every field of at most 64 elements; all pairs up to 64 elements
SMALL = [(2, e) for e in range(1, 9)] + [(3, e) for e in range(1, 6)]
SMALL += [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
SMALL += [(p, 1) for p in range(11, 64) if scalars.is_prime(p)]
LOGGED = [(2, 9), (3, 6)]


def _digit_sum(F, a, b):
    return F.code_of([(x + y) % F.p for x, y in zip(F.coeffs_of(a), F.coeffs_of(b))])


def _digit_neg(F, a):
    return F.code_of([(-x) % F.p for x in F.coeffs_of(a)])


def _poly_power(F, a, n):
    r = 1
    for bit in bin(n)[2:]:
        r = F._poly_mul_mod(r, r)
        if bit == "1":
            r = F._poly_mul_mod(r, a)
    return r


def _sample_pairs(F, count, seed):
    if F.q <= 64:
        return [(a, b) for a in range(F.q) for b in range(F.q)]
    rng = random.Random(seed)
    return [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(count)]


@pytest.mark.parametrize("p,e", SMALL)
def test_dense_tables_match_polynomial_arithmetic(p, e):
    # the (q, q) tables of the array ops, a column of codes broadcast against
    # a row, and the scalar ops, read at the same pairs
    F = make_field(p, e)
    q = F.q
    codes = np.arange(q)
    mul, add = F.mul_codes(codes[:, None], codes), F.add_codes(codes[:, None], codes)
    assert mul.shape == add.shape == (q, q) and mul.dtype == add.dtype == np.int64
    for a, b in _sample_pairs(F, 3000, q):
        assert mul[a, b] == F.mul_code(a, b) == F._poly_mul_mod(a, b)
        assert add[a, b] == F.add_code(a, b) == _digit_sum(F, a, b)
    negs = [_digit_neg(F, a) for a in range(q)]
    assert F.neg_codes(codes).tolist() == [F.neg_code(a) for a in range(q)] == negs
    for a in range(1, q):
        assert F._poly_mul_mod(a, F.inv_code(a)) == 1


@pytest.mark.parametrize("p,e", SMALL + LOGGED)
def test_log_pair_is_powers_of_smallest_primitive_element(p, e):
    F = make_field(p, e)
    F._ensure_log()
    q = F.q
    # the smallest code of multiplicative order q - 1
    for g in range(1, q):
        x, order = g, 1
        while x != 1:
            x, order = F._poly_mul_mod(x, g), order + 1
        if order == q - 1:
            break
    # exp holds g^k twice, then zeros up to 4(q - 1), where the log of 0,
    # 2(q - 1), lands any product with a zero factor
    assert len(F._exp) == 4 * q - 3 and F.log_table()[0] == 2 * (q - 1)
    assert not any(F._exp[2 * (q - 1) :])
    x = 1
    for k in range(2 * (q - 1)):
        assert F._exp[k] == x
        if k < q - 1:
            assert F.log_table()[x] == k
        x = F._poly_mul_mod(x, g)


@pytest.mark.parametrize("p,e", LOGGED)
def test_log_path_matches_polynomial_arithmetic(p, e):
    F = make_field(p, e)
    q = F.q
    assert q <= _LOG_LIMIT
    rng = random.Random(q)
    for a, b in _sample_pairs(F, 2000, q):
        assert F.mul_code(a, b) == F._poly_mul_mod(a, b)
        assert F.add_code(a, b) == _digit_sum(F, a, b)
        assert F.neg_code(a) == _digit_neg(F, a)
        n = rng.randrange(3 * q)
        assert F.pow_code(a, n) == _poly_power(F, a, n)
        if a:
            assert F._poly_mul_mod(a, F.inv_code(a)) == 1
            assert F.pow_code(a, -n) == _poly_power(F, F.inv_code(a), n)
    assert F._log is not None
    assert F.pow_code(0, 0) == 1 and F.pow_code(0, 5) == 0


def test_polynomial_fallback_above_log_limit():
    F = make_field(2, 13)
    q = F.q
    assert q > _LOG_LIMIT
    rng = random.Random(13)
    for _ in range(40):
        a, b = rng.randrange(1, q), rng.randrange(q)
        assert F.pow_code(a, q - 1) == 1
        assert F.mul_code(a, F.inv_code(a)) == 1
        assert F.mul_code(a, b) == F._poly_mul_mod(a, b)
        assert F.add_code(F.add_code(a, b), F.neg_code(b)) == a
    assert F._log is None
    with pytest.raises(ZeroDivisionError):
        F.inv_code(0)


def test_cyc_scalar_zero_and_rational_predicates():
    assert CycScalar.zero(5).is_zero() and CycScalar.zero(5).is_rational()
    assert CycScalar.rational(5, Fraction(-2, 3)).is_rational()
    assert not CycScalar.rational(5, Fraction(-2, 3)).is_zero()
    z = CycScalar.zeta_power(5, 2)
    assert not z.is_zero() and not z.is_rational()


# -- the log-domain tables: Zech addition and the trace table ---------------------------


@pytest.mark.parametrize("p,e", [(5, 4), (3, 6)])
def test_zech_addition_matches_digitwise_sum(p, e):
    F = make_field(p, e)
    q = F.q
    assert q <= _LOG_LIMIT
    rng = random.Random(20000 + q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
    pairs += [(a, _digit_neg(F, a)) for a in range(q)]  # 1 + g^k = 0 in the Zech table
    for a, b in pairs:
        assert F.add_code(a, b) == _digit_sum(F, a, b)
    # g^((q-1)/2) = -1: the Zech entry of the difference (q-1)/2 is the log of 0
    S = 2 * (q - 1)
    assert F._zech[S + (q - 1) // 2] == S


def _trace_by_powers(F, x, d):
    """sum of x^(p^(d i)) for i < e/d, as a code of F."""
    acc, y = x, x
    for _ in range(F.e // d - 1):
        y = F.pow_code(y, F.p**d)
        acc = F.add_code(acc, y)
    return acc


@pytest.mark.parametrize(
    "p,e,ds",
    [(2, 2, [1]), (3, 2, [1]), (3, 3, [1]), (17, 2, [1]), (2, 13, [1]),
     (2, 6, [1, 2, 3]), (3, 4, [1, 2]), (3, 6, [2, 3])],
)
def test_trace_table_is_the_sum_of_frobenius_powers(p, e, ds):
    # a private copy of F_8192, so that forcing its log pair leaves the
    # cached descriptor on the polynomial path
    F = FieldDescriptor(p, e, make_field(p, e).modulus) if p**e > _LOG_LIMIT else make_field(p, e)
    F._ensure_log(force=True)
    for a, b in _sample_pairs(F, 200, 1):
        assert F.mul_code(a, b) == F._poly_mul_mod(a, b)
    for d in ds + [e]:
        sub = make_field(p, d)
        table = F.trace_table(d)
        assert len(table) == F.q
        for x in range(F.q):
            got = F.from_code(_trace_by_powers(F, x, d))
            assert table[x] == F.section(got, sub).code
    assert [trace(x, 1).code for x in F.elements()] == F.trace_table(1)


def test_extension_moduli_are_pinned():
    # make_field takes the first irreducible in code order; every report's
    # bytes depend on the moduli it finds
    want = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 1, 0, 1),
        (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
        (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        (3, 2): (1, 0, 1),
        (3, 6): (2, 1, 0, 0, 0, 0, 1),
        (5, 2): (2, 0, 1),
    }
    assert {pe: make_field(*pe).modulus for pe in want} == want


# -- the array ops against the scalar ops ---------------------------------------------

# fields past 64 elements up to _LOG_LIMIT, sampled
SAMPLED = [(3, 4), (2, 7), (3, 5), (2, 8), (17, 2), (7, 3), (3, 6), (2, 10), (3, 7), (2, 12)]


@pytest.mark.parametrize("p,e", SAMPLED)
def test_array_ops_match_scalar_ops_on_samples(p, e):
    F = make_field(p, e)
    q = F.q
    assert 64 < q <= _LOG_LIMIT
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    pairs += [(a, _digit_neg(F, a)) for a in range(q)]  # every a + (-a)
    pairs += [(0, a) for a in range(q)] + [(a, 0) for a in range(q)]  # every zero operand
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    mul, add = F.mul_codes(a, b), F.add_codes(a, b)
    assert mul.tolist() == [F.mul_code(x, y) for x, y in pairs]
    assert mul.tolist() == [F._poly_mul_mod(x, y) for x, y in pairs]
    assert add.tolist() == [F.add_code(x, y) for x, y in pairs]
    assert add.tolist() == [_digit_sum(F, x, y) for x, y in pairs]
    codes = np.arange(q)
    assert F.neg_codes(codes).tolist() == [F.neg_code(c) for c in range(q)]


def test_array_ops_past_the_log_limit_force_the_log_pair():
    # a private copy of F_8192: the array ops build its pair, the scalar ops
    # of the cached descriptor stay on the polynomial path
    F = FieldDescriptor(2, 13, make_field(2, 13).modulus)
    rng = random.Random(13)
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(300)] + [(0, 5), (5, 0)]
    a, b = (np.array(x, dtype=np.int64) for x in zip(*pairs))
    assert F.mul_codes(a, b).tolist() == [F._poly_mul_mod(x, y) for x, y in pairs]
    assert F.add_codes(a, b).tolist() == [x ^ y for x, y in pairs]
    assert F._log is not None and make_field(2, 13)._log is None


def _field_private_names():
    """The underscore attributes FieldDescriptor defines: its methods and
    the attributes it assigns on self."""
    tree = ast.parse(pathlib.Path(scalars.__file__).read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FieldDescriptor")
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_no_module_reads_private_field_state():
    # the other modules compute with fields through the public ops only
    private = _field_private_names()
    assert {"_exp", "_log", "_zech", "_embeddings"} <= private
    found = []
    for path in sorted(pathlib.Path(scalars.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []
