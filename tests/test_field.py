"""Finite-field arithmetic: axioms, element wrappers, matrices."""

import itertools
import random
import sys

import pytest

from kuni.errors import (
    DivisionByZero,
    FormatError,
    NonPrimeP,
    NotSquare,
    OutOfRange,
    ReducibleModulus,
    SpecMismatch,
    UnsupportedSize,
)
from kuni.field import (
    FFMatrix,
    FieldElement,
    FieldSpec,
    _is_irreducible,
    format_matrix,
    gf,
    make_field,
    matrix_det_inv,
    matrix_rank,
    matrix_rref,
    multiplicative_order,
    null_space,
    parse_matrix,
    primitive_element,
    rank_of_rows,
)

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def check_field_axioms(spec: FieldSpec) -> None:
    """Exhaustive ring/field axioms over all elements of the field."""
    els = list(range(spec.q))
    for a in els:
        assert spec.add(a, 0) == a
        assert spec.mul(a, 1) == a
        assert spec.add(a, spec.neg(a)) == 0
        if a != 0:
            assert spec.mul(a, spec.inv(a)) == 1
    for a in els:
        for b in els:
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
                assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
                assert spec.mul(a, spec.add(b, c)) == spec.add(
                    spec.mul(a, b), spec.mul(a, c)
                )


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_field_axioms_exhaustive(q):
    check_field_axioms(gf(q))


def _reference_add_digits(p, a, b):
    r, pw = 0, 1
    while a or b:
        r += ((a + b) % p) * pw
        a //= p
        b //= p
        pw *= p
    return r


def _reference_neg_digits(p, a):
    r, pw = 0, 1
    while a:
        r += ((-a) % p) * pw
        a //= p
        pw *= p
    return r


@pytest.mark.parametrize("q", [7, 8, 9, 257])
def test_axpy_by_a_zero_factor_copies_the_row(q):
    # x + 0 y is x: a new list, from a list or a tuple, over prime fields and
    # over extension fields of characteristic 2 and 3
    spec = gf(q)
    rng = random.Random(q)
    xs = [rng.randrange(q) for _ in range(30)] + [0, q - 1, 0]
    ys = [rng.randrange(q) for _ in range(30)] + [q - 1, 0, 0]
    for row in (xs, tuple(xs)):
        out = spec.axpy(0, row, ys)
        assert type(out) is list and out == xs and out is not row
    assert spec.axpy(1, xs, ys) == [spec.add(x, y) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("q", [2, 3, 65521, 8, 9, 81, 512, 127, 131, 256])
def test_add_each_matches_add(q):
    # the column methods add to each symbol as add and mul do one at a time:
    # bytes columns over prime and extension fields up to q = 256, tuple
    # columns over GF(65521), added mod p, and GF(2^9), added by add
    spec = gf(q)
    kind = bytes if q <= 256 else tuple
    rng = random.Random(q)
    for length in (0, 1, 7, 300):
        xs = [rng.randrange(q) for _ in range(length - 1)] + [q - 1] * (length > 0)
        ys = [rng.randrange(q) for _ in range(length - 1)] + [q - 1] * (length > 0)
        a, b = spec.column(xs), spec.column(ys)
        assert type(a) is kind and list(a) == xs
        for s in (0, 1, q - 1, rng.randrange(q)):
            shifted = spec.shifts(a, (s,))
            assert type(shifted) is kind and list(shifted) == [spec.add(x, s) for x in xs]
        values = [0, q - 1, rng.randrange(q)]
        shifts = spec.shifts(a, values)
        assert type(shifts) is kind
        assert list(shifts) == [spec.add(x, s) for s in values for x in xs]
        joined = spec.join([a, b, spec.column([]), a])
        assert type(joined) is kind and list(joined) == xs + ys + xs


@pytest.mark.parametrize("q", [2, 7, 16, 256, 257])
def test_pack_matches_per_row_codes(q):
    # b bits a symbol, the first column highest: in 64-bit lanes up to 64
    # bits a row (9 sites of GF(7), 8 of GF(256)), 2^14 rows a slice, and one
    # column at a time above
    spec, b = gf(q), (q - 1).bit_length()
    rng = random.Random(q)
    for n in (1, 2, 8, 9, 64 // b, 64 // b + 1):
        for length in (0, 1, 300) + ((1 << 14) + 3,) * (n <= 2):
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(length)]
            rows[-1:] = [[q - 1] * n] * min(length, 1)
            columns = [spec.column(col) for col in zip(*rows)] or [spec.column([])] * n
            assert spec.pack(columns) == [sum(x << b * (n - 1 - i) for i, x in enumerate(row))
                                          for row in rows]


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_pack_reads_its_lanes_as_little_endian_words(monkeypatch, byteorder):
    # the lanes are written little-endian, so they are read back the same
    # way whatever the host's byte order: rows stay in row order, each code
    # the shift-and-or fold of its row
    monkeypatch.setattr(sys, "byteorder", byteorder)
    rng = random.Random(5)
    for q, n in ((7, 9), (16, 15)):
        spec, b = gf(q), (q - 1).bit_length()
        for length in (1, 300, (1 << 14) + 3):
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(length)]
            codes = [0] * length
            for col in zip(*rows):
                codes = [code << b | x for code, x in zip(codes, col)]
            assert spec.pack([spec.column(col) for col in zip(*rows)]) == codes


def test_power_search_is_exact():
    # q^r = N exactly, or None; 3^40 is past a float's exact integers
    assert [gf(3).log(N) for N in (0, 1, 2, 3, 8, 9, 27, 28)] == [None, 0, None, 1, None, 2, 3, None]
    assert gf(3).log(3 ** 40) == 40 and gf(3).log(3 ** 40 + 1) is None


def _reference_mul_poly(spec, a, b):
    """a * b by schoolbook product of the digit polynomials, reduced by the
    monic modulus from the top degree down."""
    p, m = spec.p, spec.m
    da = [a // p ** i % p for i in range(m)]
    db = [b // p ** i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[top]
        for i, f in enumerate(spec.modulus):
            prod[top - m + i] -= c * f
    return sum(c % p * p ** i for i, c in enumerate(prod[:m]))


def _reference_order(spec, r):
    """The least t >= 1 with r^t = 1, by repeated mul."""
    x, t = r, 1
    while x != 1:
        x, t = spec.mul(x, r), t + 1
    return t


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 17, 25, 27, 32, 49, 64,
                               81, 125, 128, 243, 257, 65521])
def test_table_arithmetic_matches_the_references(q):
    # the log tables behind every inverse and power and all extension-field
    # arithmetic: add, neg and mul against the digit references (mul for
    # every pair up to q = 64, add up to q = 243, a sample above); inverses;
    # pow against repeated mul; orders against a loop; g the least generator
    spec, rng = gf(q), random.Random(q)
    elements = range(q) if q <= 256 else [0, 1, q - 1] + rng.sample(range(2, q - 1), 200)
    pairs = list(itertools.product(elements, repeat=2))
    sample = pairs if q <= 64 else rng.sample(pairs, 2000)
    for a in elements:
        assert spec.neg(a) == _reference_neg_digits(spec.p, a)
    for a, b in pairs if q <= 243 else sample:
        assert spec.add(a, b) == _reference_add_digits(spec.p, a, b)
    for a, b in sample:
        assert spec.mul(a, b) == _reference_mul_poly(spec, a, b)
    for a in elements:
        x = 1
        for e in range(6):
            assert spec.pow(a, e) == x
            x = spec.mul(x, a)
        if a:
            assert spec.mul(a, spec.inv(a)) == 1 and spec.pow(a, q - 1) == 1
    assert spec.pow(0, 0) == 1 and spec.pow(0, q) == 0
    g = int(primitive_element(spec))
    assert _reference_order(spec, g) == q - 1
    assert all(_reference_order(spec, r) < q - 1 for r in range(1, g))
    for r in list(elements)[1:40] + [g, q - 1]:
        assert multiplicative_order(spec, r) == _reference_order(spec, r)


def _reference_walk(spec):
    """(exp, log, zech, walked) with every candidate r = 1, 2, ... walked in
    full by `_reference_mul_poly` until one reaches q - 1 powers; `walked` are
    the candidates up to g that no earlier candidate's powers reached."""
    p, q = spec.p, spec.q
    cycles = []
    for r in range(1, q):
        powers, x = [1], r
        while x != 1:
            powers.append(x)
            x = _reference_mul_poly(spec, x, r)
        cycles.append(powers)
        if len(powers) == q - 1:
            break
    log = [None] * q
    for i, x in enumerate(powers):
        log[x] = i
    zech = [log[_reference_add_digits(p, 1, x)] for x in powers] if spec.m > 1 and p > 2 else None
    reached, walked = set(), []
    for r, cycle in enumerate(cycles, 1):
        if r not in reached:
            walked.append(r)
        reached.update(cycle[1:])
    return powers * 2, log, zech, walked


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (7, 2), (5, 3),
                                  (7, 5), (139, 2)])
def test_one_walk_matches_the_every_candidate_reference(monkeypatch, p, m):
    # the tables of the one walk equal those of a walk of every candidate;
    # a candidate that an earlier walk reached is not walked, so only the
    # candidates the reference lists multiply (1, whose walk has no product,
    # is always the first): over GF(139^2), g = 143 and 7 of its 143 candidates
    import kuni.field

    spec, products = FieldSpec(p, m), []
    original = kuni.field._poly_mulmod

    def counted(a, *rest):
        products.append(sum(c * p ** i for i, c in enumerate(a)))
        return original(a, *rest)

    monkeypatch.setattr(kuni.field, "_poly_mulmod", counted)
    exp, log, zech = spec._tables
    ref_exp, ref_log, ref_zech, walked = _reference_walk(spec)
    assert (exp, log, zech) == (ref_exp, ref_log, ref_zech)
    assert [1] + list(dict.fromkeys(products)) == walked
    orders = [_reference_order(spec, r) for r in walked]
    assert len(products) == sum(orders) - len(orders)
    if (p, m) == (139, 2):
        assert (exp[1], walked) == (143, [1, 2, 139, 140, 141, 142, 143])


def _mobius(n):
    """mu(n) by trial division."""
    mu, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            mu = -mu
        f += 1
    return -mu if n > 1 else mu


@pytest.mark.parametrize("p, m_max", [(2, 8), (3, 4), (5, 3), (7, 2)])
def test_irreducible_count_is_gauss_count(p, m_max):
    # Gauss: GF(p) has (1/m) * sum_{d | m} mu(d) p^(m/d) monic irreducible
    # polynomials of degree m; the trial division must accept exactly that many
    for m in range(1, m_max + 1):
        gauss = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
        accepted = sum(_is_irreducible(coeffs + (1,), p)
                       for coeffs in itertools.product(range(p), repeat=m))
        assert accepted == gauss, (p, m)


def test_gf4_coefficient_encoding():
    # GF(4) = {0, 1, x, 1+x} -> {0, 1, 2, 3} with x^2 = x + 1
    sp = gf(4)
    x, one_plus_x = 2, 3
    assert sp.mul(x, x) == one_plus_x
    assert sp.mul(x, one_plus_x) == 1
    assert sp.add(x, one_plus_x) == 1
    assert sp.add(x, x) == 0  # characteristic 2


def test_gf9_default_modulus():
    # x^2 + 1 is irreducible over GF(3); repr 3 is x, so x*x = -1 = 2
    sp = gf(9)
    assert sp.mul(3, 3) == 2


def test_prime_field_modulus_is_checked():
    # a modulus given for m = 1 must be monic of degree 1, as for any m
    for modulus in ((1, 2), (3,)):
        with pytest.raises(ReducibleModulus):
            make_field(5, 1, modulus=modulus)
    assert make_field(5, 1, modulus=(7, 1)).modulus == (2, 1)  # x + 2
    assert make_field(5).modulus == gf(5).modulus == (0, 1)  # x, the default


def test_make_field_rejects_bad_inputs():
    with pytest.raises(NonPrimeP):
        make_field(6)
    with pytest.raises(NonPrimeP):
        make_field(1)
    with pytest.raises(ReducibleModulus):
        # x^2 + 1 = (x + 1)^2 over GF(2)
        make_field(2, 2, modulus=(1, 0, 1))
    with pytest.raises(UnsupportedSize):
        make_field(2, 17)  # 2^17 > order cap
    with pytest.raises(UnsupportedSize):
        gf(2147483647)  # rejected before trial factoring


def test_gf_rejects_non_prime_powers():
    for q in (6, 10, 12, 15):
        with pytest.raises(UnsupportedSize):
            gf(q)


def test_division_by_zero():
    sp = gf(5)
    with pytest.raises(DivisionByZero):
        sp.inv(0)
    with pytest.raises(DivisionByZero):
        sp.div(3, 0)


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_primitive_element_generates_units(q):
    sp = gf(q)
    g = primitive_element(sp)
    assert multiplicative_order(sp, int(g)) == q - 1
    powers = set()
    acc = sp.one()
    for _ in range(q - 1):
        acc = acc * g
        powers.add(int(acc))
    assert powers == set(range(1, q))


def test_primitive_element_is_least():
    # gamma = 3 for GF(17) and gamma = 2 for GF(19); both feed the
    # hard-coded generator matrices, so pin them down
    assert int(primitive_element(gf(17))) == 3
    assert int(primitive_element(gf(19))) == 2
    assert int(primitive_element(gf(4))) == 2


def element_op(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Named binary field operation; pow treats b's repr as an integer exponent."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        if a.spec != b.spec:
            raise SpecMismatch("operands live in different fields")
        return a ** b.repr
    raise ValueError(f"unknown op {op!r}")


def test_field_element_operators():
    sp = gf(7)
    a, b = sp.element(3), sp.element(5)
    assert int(a + b) == 1
    assert int(a - b) == 5
    assert int(a * b) == 1
    assert int(a / b) == int(a * b.inverse())
    assert int(-a) == 4
    assert int(a ** 0) == 1
    assert int(a ** 6) == 1  # Fermat
    assert bool(sp.zero()) is False and bool(a) is True
    assert int(element_op(a, b, "add")) == 1


def test_field_element_cross_field_mix_rejected():
    with pytest.raises(Exception):
        gf(5).element(1) + gf(7).element(1)


@pytest.mark.parametrize("make, error", [
    pytest.param(lambda: FFMatrix(gf(5), [[1.7, 2]]), TypeError, id="float_entry"),
    pytest.param(lambda: gf(5).element(2.5), TypeError, id="float_repr"),
    pytest.param(lambda: gf(4).element(7), OutOfRange, id="gf4_repr_7"),
    pytest.param(lambda: gf(81).element(100), OutOfRange, id="gf81_repr_100"),
])
def test_exact_constructors_refuse_what_they_would_truncate(make, error):
    # before: [[1, 2]], an element of repr 2.5, 7∈GF(2^2) whose sum with 1
    # raised IndexError, and 100∈GF(3^4) whose sum with 1 was 101
    with pytest.raises(error):
        make()


def test_exact_constructors_take_ints_bools_and_elements():
    sp = gf(4)
    assert FFMatrix(sp, [[sp.element(3), True, 0]]).data == [[3, 1, 0]]
    assert gf(5).element(7).repr == 2 and gf(5).element(-1).repr == 4  # mod p
    assert gf(81).element(80).repr == 80 and sp.element(True).repr == 1


def test_order_and_power_guards():
    sp = gf(7)
    with pytest.raises(DivisionByZero):
        multiplicative_order(sp, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        sp.pow(3, -1)


# --- matrices ----------------------------------------------------------------

def _random_matrix(rng, spec, rows, cols):
    return FFMatrix(spec, [[rng.randrange(spec.q) for _ in range(cols)]
                           for _ in range(rows)])


def test_rref_idempotent_and_rank():
    rng = random.Random(11)
    for q in (2, 3, 4, 5, 8, 9):
        sp = gf(q)
        for _ in range(10):
            M = _random_matrix(rng, sp, rng.randrange(1, 5), rng.randrange(1, 6))
            R, rank, pivots = matrix_rref(M)
            assert rank == len(pivots) == matrix_rank(M)
            R2, rank2, _ = matrix_rref(R)
            assert R2 == R and rank2 == rank


def _leibniz_det(M):
    """sum over permutations s of sign(s) * prod_i M[i][s(i)]."""
    sp, n = M.spec, M.rows
    det = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = sp.mul(term, M.data[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        det = sp.add(det, sp.neg(term) if inversions % 2 else term)
    return det


def test_det_inv_roundtrip():
    rng = random.Random(7)
    for q in (2, 3, 4, 5, 7, 8, 9):
        sp = gf(q)
        for _ in range(10):
            n = rng.randrange(1, 5)
            M = _random_matrix(rng, sp, n, n)
            det, inv = matrix_det_inv(M)
            assert int(det) == _leibniz_det(M)
            if inv is None:
                assert int(det) == 0
                assert matrix_rank(M) < n
                continue
            assert int(det) != 0
            assert M.matmul(inv) == FFMatrix.identity(sp, n)
            assert inv.matmul(M) == FFMatrix.identity(sp, n)


def test_det_inv_requires_square():
    with pytest.raises(NotSquare):
        matrix_det_inv(FFMatrix(gf(2), [[1, 0, 1]]))


def test_rank_of_rows_matches_matrix_rank():
    rng = random.Random(3)
    for q in (2, 3, 4, 5, 8, 9, 17):
        sp = gf(q)
        for _ in range(10):
            rows = [[rng.randrange(q) for _ in range(4)]
                    for _ in range(rng.randrange(1, 5))]
            assert rank_of_rows(sp, rows) == matrix_rank(FFMatrix(sp, rows))


def test_null_space_of_full_rank_matrix_is_empty_and_keeps_width():
    for q in (5, 8):
        sp = gf(q)
        N = null_space(FFMatrix.identity(sp, 3))
        assert (N.rows, N.cols) == (0, 3) and N != FFMatrix(sp, [])
        # the other row-building operations keep the width of a row-free matrix too
        assert N.hstack(FFMatrix.zero(sp, 0, 2)).cols == 5
        assert N.select_columns([0, 2]).cols == 2 and N.copy().cols == 3
        assert N.matmul(FFMatrix.zero(sp, 3, 4)).cols == 4
        assert N.transpose().rows == 3 and N.transpose().transpose().cols == 3


def test_matrix_ops():
    sp = gf(3)
    M = FFMatrix(sp, [[1, 2], [0, 1]])
    assert M.transpose().data == [[1, 0], [2, 1]]
    assert M.hstack(FFMatrix.identity(sp, 2)).cols == 4
    assert M.select_columns([1]).data == [[2], [1]]
    assert M.row_vector_mul((1, 1)) == (1, 0)
    assert int(M[0, 1]) == 2 and M.row(0) == (1, 2) and M.col(1) == (2, 1)


def test_matrix_shape_and_field_guards():
    sp = gf(5)
    with pytest.raises(ValueError, match="ragged"):
        FFMatrix(sp, [[1, 2], [3]])
    with pytest.raises(ValueError, match="out of range"):
        FFMatrix(sp, [[1, 5]])
    M, other = FFMatrix(sp, [[1, 2], [3, 4]]), FFMatrix.identity(gf(7), 2)
    with pytest.raises(SpecMismatch):
        M.hstack(other)
    with pytest.raises(SpecMismatch):
        M.matmul(other)
    with pytest.raises(ValueError, match="shape"):
        M.matmul(FFMatrix.identity(sp, 3))


def _reference_row_vector_mul(M, v):
    """v M entry by entry: sum over i of v[i] * M[i][c] for each column c."""
    sp = M.spec
    out = []
    for c in range(M.cols):
        acc = 0
        for i in range(M.rows):
            acc = sp.add(acc, sp.mul(v[i], M.data[i][c]))
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("q", [7, 16, 81])
def test_row_vector_mul_matches_per_entry_reference(q):
    # a prime field, GF(2^4) and GF(3^4);
    # zero entries in v and in M, and matrices with no rows or no columns
    sp = gf(q)
    rng = random.Random(q)
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (3, 5), (5, 2)):
        for _ in range(5):
            M = FFMatrix(sp, [[rng.choice((0, rng.randrange(q))) for _ in range(cols)]
                              for _ in range(rows)], cols)
            for v in ([0] * rows, [rng.choice((0, 1, rng.randrange(q))) for _ in range(rows)]):
                got = M.row_vector_mul(v)
                assert type(got) is tuple and got == _reference_row_vector_mul(M, v)
        A = _random_matrix(rng, sp, 2, rows) if rows else FFMatrix.zero(sp, 2, 0)
        assert A.matmul(M).data == [list(_reference_row_vector_mul(M, v)) for v in A.data]


def test_matrix_format_roundtrip():
    rng = random.Random(5)
    for q in (2, 4, 9, 17):
        sp = gf(q)
        M = _random_matrix(rng, sp, 3, 4)
        text = format_matrix(M)
        M2 = parse_matrix(text)
        assert M2 == M and M2.spec == sp
        assert format_matrix(M2) == text  # byte-identical round trip


def test_parse_matrix_errors():
    with pytest.raises(FormatError):
        parse_matrix("not a matrix")
    with pytest.raises(FormatError):
        parse_matrix("2 2 2 1\n0 1\n")  # missing row
    with pytest.raises(FormatError):
        parse_matrix("1 2 2 1\n5 0\n")  # entry out of range
    with pytest.raises(FormatError):
        parse_matrix("1 2 3 1\n1 x\n")  # non-integer entry
    with pytest.raises(FormatError):
        parse_matrix("-1 2 3 1\n")  # negative size
    # a huge field order fails on the cap, before any primality test
    with pytest.raises(UnsupportedSize):
        parse_matrix("1 1 1000000000000000000000000000057 1\n0\n")
    with pytest.raises(UnsupportedSize):
        parse_matrix("1 1 2 1000000000\n0\n")
