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
import struct
from functools import cached_property, lru_cache
from operator import add, index, lshift, mod, mul, or_

from .errors import (
    DivisionByZero,
    FormatError,
    NonPrimeP,
    NotSquare,
    OutOfRange,
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

    @cached_property
    def _tables(self) -> tuple:
        """(exp, log, zech) of the least-repr generator g, built once per field
        the first time an operation reads them: exp[i] = g^i for i < 2(q - 1),
        so that a sum of two logs indexes it unreduced; log[exp[i]] = i, None
        at 0; over an odd-p extension field zech[i] = log(1 + g^i), else None.
        A candidate r's walk (digit products mod the modulus, x over GF(p))
        writes log[r^i] = i; g's, the first to reach q - 1 values before 1,
        writes every entry, and no value a rejected walk reached is walked."""
        p, q = self.p, self.q
        weights = [p ** i for i in range(self.m)]  # of the base-p digits of a repr
        log = [None] * q
        for g in (r for r in range(1, q) if log[r] is None):
            powers, x = [1], g
            xp = gp = [g // w % p for w in weights]
            while x != 1:
                log[x] = len(powers)
                powers.append(x)
                xp = _poly_mulmod(gp, xp, self.modulus, p)
                x = sum(map(mul, xp, weights))
            if len(powers) == q - 1:
                break
        log[1] = 0
        # 1 + x changes only the lowest digit of x, and log[0] is None
        zech = [log[x - x % p + (x + 1) % p] for x in powers] if self.m > 1 and p > 2 else None
        return powers * 2, log, zech

    @cached_property
    def neg_inverses(self) -> list:
        """-1/a at each repr a (0 at 0), built once per field: a pivot's factor."""
        return [0] + [self.neg(self.inv(a)) for a in range(1, self.q)]

    # -- int-repr arithmetic --------------------------------------------------
    # A prime field adds, negates and multiplies mod p; everything else reads
    # the tables: GF(2^m) adds by XOR, an odd-p extension field by Zech logs.

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        exp, log, zech = self._tables
        z = zech[(log[b] - log[a]) % (self.q - 1)]  # a + b = a (1 + b/a)
        return 0 if z is None else exp[log[a] + z]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        exp, log, _ = self._tables
        return exp[log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        exp, log, _ = self._tables
        return exp[log[a] + log[b]]

    def axpy(self, f: int, xs, ys) -> list:
        """[x + f*y for x, y in zip(xs, ys)]: one row update of an elimination."""
        if self.m == 1:
            p = self.p
            return [(x + f * y) % p for x, y in zip(xs, ys)]
        if not f:
            return list(xs)
        exp, log, zech = self._tables
        lf, o, out = log[f], self.q - 1, []
        if self.p == 2:
            return [x ^ exp[lf + log[y]] if y else x for x, y in zip(xs, ys)]
        for x, y in zip(xs, ys):
            if x and y:
                z = zech[(lf + log[y] - log[x]) % o]
                x = 0 if z is None else exp[log[x] + z]
            elif y:
                x = exp[lf + log[y]]
            out.append(x)
        return out

    def log(self, N: int):
        """r with q^r = N, by an exact power search; None when N is no power of q."""
        r = 0
        while self.q ** r < N:
            r += 1
        return r if self.q ** r == N else None

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not a or not e:
            return 0 if e else 1  # 0^0 = 1
        exp, log, _ = self._tables
        return exp[log[a] * e % (self.q - 1)]

    # -- columns --------------------------------------------------------------
    # A column is a run of symbols: one `bytes` when q <= 256, so that adding
    # a constant to every symbol is one `translate`, and a tuple above.  These
    # methods are the only code that knows which.

    def column(self, symbols):
        """The column of an iterable of symbols in [0, q)."""
        return bytes(symbols) if self.q <= 256 else tuple(symbols)

    def join(self, columns):
        """The columns one after another, as one column."""
        return b"".join(columns) if self.q <= 256 else tuple(itertools.chain.from_iterable(columns))

    def shifts(self, col, values):
        """col with each of `values` in turn added to every symbol, joined."""
        if self.q <= 256:
            return b"".join([col.translate(self._add_rows[s]) for s in values])
        values = tuple(values)
        xs, ss = col * len(values), self.stretch(values, len(col))
        if self.m == 1:
            return tuple(map(mod, map(add, xs, ss), itertools.repeat(self.p)))
        return tuple(map(self.add, xs, ss))

    def stretch(self, col, s: int):
        """col with each symbol repeated s times where it stands."""
        if self.q > 256:
            runs = map(itertools.repeat, col, itertools.repeat(s))
            return tuple(itertools.chain.from_iterable(runs))
        out = bytearray(len(col) * s)
        for i in range(s):
            out[i::s] = col
        return bytes(out)

    def pack(self, columns) -> list:
        """One integer per row of the columns (at least one): its symbols,
        bit_length(q - 1) bits each, the first column's highest.  Bytes rows of
        at most 64 bits are summed, shifted, in the 64-bit lanes of one integer
        per 2^14 rows, no carry between lanes, read as little-endian words."""
        b = (self.q - 1).bit_length()
        size = len(columns[0])
        if self.q > 256 or b * len(columns) > 64:
            codes = [0] * size
            for col in columns:
                codes = list(map(or_, map(lshift, codes, itertools.repeat(b)), col))
            return codes
        codes = []
        for lo in range(0, size, 1 << 14):  # 2^14 rows at a time bound the lanes
            lanes, total = bytearray(8 * min(size - lo, 1 << 14)), 0
            for i, col in enumerate(reversed(columns)):
                lanes[::8] = col[lo:lo + (1 << 14)]
                total |= int.from_bytes(lanes, "little") << b * i
            codes += struct.unpack(f"<{len(lanes) // 8}Q", total.to_bytes(len(lanes), "little"))
        return codes

    @cached_property
    def _add_rows(self) -> list:
        """Row s of the add table, as the 256-byte `translate` table of x -> s + x:
        built once per field, by `add`, the first time a column needs it."""
        q = self.q
        return [bytes(self.add(s, x) for x in range(q)).ljust(256, b"\0") for s in range(q)]

    # -- elements -------------------------------------------------------------

    def element(self, r: int) -> "FieldElement":
        """r mod p in a prime field; an extension field takes only a repr in [0, q)."""
        if self.m > 1 and not 0 <= index(r) < self.q:
            raise OutOfRange(f"repr {r} is not in [0, {self.q}) for {self!r}")
        return FieldElement(self, index(r) % self.q)  # an int or a bool, never a float

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

    def __index__(self):  # int(e) and every exact constructor read the repr
        return self.repr

    def __repr__(self):
        return f"{self.repr}∈{self.spec!r}"


def primitive_element(spec: FieldSpec) -> FieldElement:
    """Least-repr generator of the multiplicative group of the field."""
    return FieldElement(spec, spec._tables[0][1])


def multiplicative_order(spec: FieldSpec, r: int) -> int:
    if r == 0:
        raise DivisionByZero("0 has no multiplicative order")
    return (spec.q - 1) // math.gcd(spec._tables[1][r], spec.q - 1)


class FFMatrix:
    """Dense matrix over one FieldSpec; entries stored as integer reprs."""

    def __init__(self, spec: FieldSpec, rows_data, cols: int = 0):
        """`cols` is the width of a matrix with no rows; rows set it otherwise."""
        self.spec = spec
        self.data = [list(map(index, row)) for row in rows_data]  # a float raises TypeError
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
    """Rank of a list of row tuples (int reprs) over the field, for
    `codes.column_rank`, its one caller: the rank of a set of a code's
    columns, read off the code's RREF; no MDS verdict reads it."""
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
