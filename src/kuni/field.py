"""Exact arithmetic in GF(p^m) and dense linear algebra over it.

Elements of GF(p^m) are encoded as integers in [0, q) via the base-p
coefficient expansion c0 + c1*p + ... + c_{m-1}*p^{m-1}.  For GF(4) with
modulus x^2 + x + 1 this fixes the bijection {0, 1, x, 1+x} -> {0, 1, 2, 3}.

All matrix routines use plain Gaussian elimination with first-nonzero
pivoting; arithmetic is exact so there are no stability concerns.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add, getitem, mod

from .errors import (
    DivisionByZero,
    FormatError,
    NonPrimeP,
    NotSquare,
    ReducibleModulus,
    SpecMismatch,
    UnsupportedSize,
)

MAX_FIELD_ORDER = 2 ** 16

# Default irreducible moduli, coefficient lists low degree first.
# GF(4) uses x^2 = x + 1 as in the source constructions; the rest are the
# usual minimal-weight choices.  Each is re-verified at construction.
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
}

# Cache full addition, negation and multiplication tables only for small
# extension fields.
_MUL_TABLE_MAX_Q = 64


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _poly_rem(poly, monic: tuple, p: int) -> list:
    """poly mod (monic, p), low degree first; at most deg(monic) coefficients remain."""
    rem = list(poly)
    d = len(monic) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            for j in range(d):
                rem[i - d + j] = (rem[i - d + j] - c * monic[j]) % p
    return rem[:d]


def _poly_mulmod(a, b, modulus: tuple, p: int) -> list:
    """Product mod (modulus, p), low degree first; at most deg(modulus) coefficients."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, modulus, p)


def _is_irreducible(modulus: tuple, p: int) -> bool:
    """Trial division of a monic polynomial by every monic one of degree <= deg/2."""
    for deg in range(1, (len(modulus) - 1) // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=deg):
            if not any(_poly_rem(modulus, coeffs + (1,), p)):
                return False
    return True


def _find_irreducible(p: int, m: int) -> tuple:
    """Smallest monic irreducible of degree m over GF(p), lexicographic."""
    for coeffs in itertools.product(range(p), repeat=m):
        cand = coeffs + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise ReducibleModulus(f"no irreducible polynomial of degree {m} over GF({p})")


class FieldSpec:
    """GF(p^m) carrier: modulus, integer-repr arithmetic, element factory.

    Immutable and shareable; all arithmetic methods are pure functions on
    integer reprs in [0, q).
    """

    def __init__(self, p: int, m: int, modulus=None):
        if m < 1:
            raise UnsupportedSize(f"extension degree m={m} must be >= 1")
        # before p ** m and the trial-division primality test, so a huge p or
        # m read from a file fails fast
        if p > MAX_FIELD_ORDER or m >= MAX_FIELD_ORDER.bit_length() or p ** m > MAX_FIELD_ORDER:
            raise UnsupportedSize(f"q={p}^{m} exceeds cap {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise NonPrimeP(f"p={p} is not prime")
        q = p ** m
        if modulus is None:  # x for a prime field: _find_irreducible's first candidate
            modulus = _DEFAULT_MODULI.get((p, m)) or _find_irreducible(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {m}")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {modulus} is reducible over GF({p})")
        self.p, self.m, self.q, self.modulus = p, m, q, modulus
        self._add_table = self._neg_table = self._mul_table = self._inv_table = None
        if m > 1 and q <= _MUL_TABLE_MAX_Q:
            self._build_tables()
        elif m == 1:
            self._inv_table = [0] + [pow(a, q - 2, q) for a in range(1, q)]

    # -- encoding ------------------------------------------------------------

    def _to_poly(self, r: int) -> list:
        """Base-p digits of r, low first, without the zero digits above the top."""
        p = self.p
        out = []
        while r:
            out.append(r % p)
            r //= p
        return out

    def _from_poly(self, coeffs) -> int:
        """Int repr of a coefficient list with entries in [0, p)."""
        r, p = 0, self.p
        for c in reversed(coeffs):
            r = r * p + c
        return r

    def _build_tables(self):
        """Cache add, neg and mul of a small extension field: the tables are
        filled by the digit-level methods, called while they are still unset."""
        q = self.q
        add = [[self.add(a, b) for b in range(q)] for a in range(q)]
        neg = [self.neg(a) for a in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                mul[a][b] = mul[b][a] = self.mul(a, b)
        self._add_table, self._neg_table, self._mul_table = add, neg, mul
        self._inv_table = [0] + [row.index(1) for row in mul[1:]]

    # -- int-repr arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        p = self.p
        r, pw = 0, 1
        while a or b:
            r += ((a + b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return r

    def add_each(self, xs, ys_list) -> list:
        """[xs + ys for ys in ys_list] as tuples; the field's kind is tested
        and each entry of xs looked up once for the whole list."""
        if self.m == 1:
            p = itertools.repeat(self.p)
            return [tuple(map(mod, map(add, xs, ys), p)) for ys in ys_list]
        if self._add_table is not None:
            rows = list(map(self._add_table.__getitem__, xs))
            return [tuple(map(getitem, rows, ys)) for ys in ys_list]
        return [tuple(map(self.add, xs, ys)) for ys in ys_list]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self._neg_table is not None:
            return self._neg_table[a]
        p = self.p
        r, pw = 0, 1
        while a:
            r += ((-a) % p) * pw
            a //= p
            pw *= p
        return r

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._from_poly(
            _poly_mulmod(self._to_poly(a), self._to_poly(b), self.modulus, self.p)
        )

    def axpy(self, f: int, xs, ys) -> list:
        """[x + f*y for x, y in zip(xs, ys)]: one row update of an elimination."""
        if self.m == 1:
            p = self.p
            return [(x + f * y) % p for x, y in zip(xs, ys)]
        if self._mul_table is not None:
            add, fy = self._add_table, self._mul_table[f]
            return [add[x][fy[y]] for x, y in zip(xs, ys)]
        return [self.add(x, self.mul(f, y)) if y else x for x, y in zip(xs, ys)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self._inv_table is not None:
            return self._inv_table[a]
        # a^(q-2) by square-and-multiply
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    # -- elements -------------------------------------------------------------

    def element(self, r: int) -> "FieldElement":
        return FieldElement(self, r % self.q if self.m == 1 else r)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.q})" if self.m == 1 else f"GF({self.p}^{self.m})"


def make_field(p: int, m: int = 1, modulus=None) -> FieldSpec:
    """Build GF(p^m); a built-in table supplies the modulus when omitted."""
    return FieldSpec(p, m, modulus)


@lru_cache(maxsize=None)
def gf(q: int) -> FieldSpec:
    """GF(q) with the default modulus, for q a prime power."""
    if q > MAX_FIELD_ORDER:  # before trial factoring, which is linear in q
        raise UnsupportedSize(f"q={q} exceeds cap {MAX_FIELD_ORDER}")
    p, m = _factor_prime_power(q)
    return FieldSpec(p, m)


def _factor_prime_power(q: int):
    if q >= 2:
        p = next(f for f in range(2, q + 1) if q % f == 0)  # the least prime factor
        m = 1
        while p ** m < q:
            m += 1
        if p ** m == q:
            return p, m
    raise UnsupportedSize(f"q={q} is not a prime power")


class FieldElement:
    """One element of a FieldSpec, stored as an integer repr in [0, q)."""

    def __init__(self, spec: FieldSpec, repr: int):
        self.spec, self.repr = spec, repr

    def __eq__(self, other):
        if type(other) is not FieldElement:
            return NotImplemented
        return (self.spec, self.repr) == (other.spec, other.repr)

    def __hash__(self):
        return hash((self.spec, self.repr))

    def _check(self, other: "FieldElement"):
        if self.spec != other.spec:
            raise SpecMismatch("operands live in different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.add(self.repr, other.repr))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.sub(self.repr, other.repr))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.mul(self.repr, other.repr))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.div(self.repr, other.repr))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.repr))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow(self.repr, e))

    def inverse(self):
        return FieldElement(self.spec, self.spec.inv(self.repr))

    def __bool__(self):
        return self.repr != 0

    def __int__(self):
        return self.repr

    def __repr__(self):
        return f"{self.repr}∈{self.spec!r}"


def primitive_element(spec: FieldSpec) -> FieldElement:
    """Least-repr generator of the multiplicative group of the field."""
    for r in range(1, spec.q):
        if multiplicative_order(spec, r) == spec.q - 1:
            return FieldElement(spec, r)
    raise AssertionError("no primitive element found (unreachable for a field)")


def multiplicative_order(spec: FieldSpec, r: int) -> int:
    if r == 0:
        raise DivisionByZero("0 has no multiplicative order")
    x, order = r, 1
    while x != 1:
        x = spec.mul(x, r)
        order += 1
    return order


class FFMatrix:
    """Dense matrix over one FieldSpec; entries stored as integer reprs."""

    def __init__(self, spec: FieldSpec, rows_data, cols: int = 0):
        """`cols` is the width of a matrix with no rows; rows set it otherwise."""
        self.spec = spec
        self.data = [list(int(x) for x in row) for row in rows_data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else cols
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for x in row:
                if not 0 <= x < spec.q:
                    raise ValueError(f"entry {x} out of range for {spec!r}")

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FFMatrix":
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, spec: FieldSpec, rows: int, cols: int) -> "FFMatrix":
        return cls(spec, [[0] * cols for _ in range(rows)], cols)

    def __getitem__(self, rc):
        r, c = rc
        return FieldElement(self.spec, self.data[r][c])

    def row(self, r: int):
        return tuple(self.data[r])

    def col(self, c: int):
        return tuple(self.data[r][c] for r in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and self.spec == other.spec
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"FFMatrix({self.spec!r}, {self.data})"

    def copy(self) -> "FFMatrix":
        return FFMatrix(self.spec, self.data, self.cols)

    def transpose(self) -> "FFMatrix":
        return FFMatrix(self.spec, [self.col(c) for c in range(self.cols)], self.rows)

    def hstack(self, other: "FFMatrix") -> "FFMatrix":
        if self.spec != other.spec or self.rows != other.rows:
            raise SpecMismatch("hstack shape/spec mismatch")
        return FFMatrix(self.spec, [self.data[r] + other.data[r] for r in range(self.rows)],
                        self.cols + other.cols)

    def select_columns(self, cols) -> "FFMatrix":
        return FFMatrix(self.spec, [[self.data[r][c] for c in cols] for r in range(self.rows)],
                        len(cols))

    def matmul(self, other: "FFMatrix") -> "FFMatrix":
        if self.spec != other.spec:
            raise SpecMismatch("matmul spec mismatch")
        if self.cols != other.rows:
            raise ValueError("matmul shape mismatch")
        return FFMatrix(self.spec, [other.row_vector_mul(row) for row in self.data], other.cols)

    def row_vector_mul(self, v) -> tuple:
        """v (length rows, int reprs) times this matrix; returns int reprs."""
        acc = [0] * self.cols
        for vi, row in zip(v, self.data):
            if vi:
                acc = self.spec.axpy(vi, acc, row)
        return tuple(acc)


def _rref_data(spec: FieldSpec, data):
    """In-place RREF of a list-of-lists of int reprs; returns (pivot columns,
    det), det being the product of the pivots times the sign of the row swaps."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    pivots = []
    det = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if data[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            data[r], data[pr] = data[pr], data[r]
            det = spec.neg(det)
        piv = data[r][c]
        det = spec.mul(det, piv)
        if piv != 1:
            inv = spec.inv(piv)
            data[r] = [spec.mul(inv, x) for x in data[r]]
        prow = data[r]
        for i in range(rows):
            if i != r and data[i][c]:
                data[i] = spec.axpy(spec.neg(data[i][c]), data[i], prow)
        pivots.append(c)
        r += 1
    return pivots, det


def matrix_rref(M: FFMatrix):
    """Reduced row-echelon form; returns (rref, rank, pivot columns)."""
    data = [row[:] for row in M.data]
    pivots, _ = _rref_data(M.spec, data)
    return FFMatrix(M.spec, data, M.cols), len(pivots), pivots


def matrix_rank(M: FFMatrix) -> int:
    data = [row[:] for row in M.data]
    return len(_rref_data(M.spec, data)[0])


def matrix_det_inv(M: FFMatrix):
    """Determinant and (when nonsingular) inverse of a square M, from RREF [M | I]."""
    if M.rows != M.cols:
        raise NotSquare(f"{M.rows}x{M.cols} matrix")
    sp, n = M.spec, M.rows
    data = M.hstack(FFMatrix.identity(sp, n)).data
    pivots, det = _rref_data(sp, data)
    if pivots != list(range(n)):  # a pivot in the I block: M is singular
        return sp.zero(), None
    return FieldElement(sp, det), FFMatrix(sp, [row[n:] for row in data])


def null_space(M: FFMatrix, pivots=None) -> FFMatrix:
    """Basis of {x : M x^T = 0}, one row per non-pivot column f of the RREF R:
    x_f = 1, x_c = -R[r][f] at the pivot column c of row r, 0 elsewhere.
    Given `pivots`, M is taken to be an RREF with those pivot columns."""
    sp = M.spec
    if pivots is None:
        M, _, pivots = matrix_rref(M)
    basis = []
    for f in range(M.cols):
        if f not in pivots:
            x = [0] * M.cols
            x[f] = 1
            for r, c in enumerate(pivots):
                x[c] = sp.neg(M.data[r][f])
            basis.append(x)
    return FFMatrix(sp, basis, M.cols)


def rank_of_rows(spec: FieldSpec, rows) -> int:
    """Rank of a list of row tuples (int reprs) over the field: one rank per
    column set or submatrix, for the witness scans of a code that is_mds
    refutes and for the rank distance; no MDS verdict reads it."""
    return len(_rref_data(spec, [list(r) for r in rows])[0])


# --- matrix text format -----------------------------------------------------
# First line: "rows cols p m"; then `rows` lines of space-separated reprs.

def format_matrix(M: FFMatrix) -> str:
    head = f"{M.rows} {M.cols} {M.spec.p} {M.spec.m}"
    body = "\n".join(" ".join(str(x) for x in row) for row in M.data)
    return head + ("\n" + body if body else "") + "\n"


def parse_matrix(text: str) -> FFMatrix:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix file")
    try:
        rows, cols, p, m = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise FormatError(f"bad matrix header: {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise FormatError(f"negative matrix size in header: {lines[0]!r}")
    if len(lines) != rows + 1:
        raise FormatError(f"expected {rows} matrix rows, got {len(lines) - 1}")
    spec = make_field(p, m)
    data = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise FormatError(f"bad matrix row: {ln!r}") from exc
        if len(row) != cols:
            raise FormatError(f"expected {cols} entries per row, got {len(row)}")
        if any(x < 0 or x >= spec.q for x in row):
            raise FormatError(f"matrix entry out of range [0, {spec.q}) in {ln!r}")
        data.append(row)
    return FFMatrix(spec, data, cols)
