"""Linear codes over GF(q): construction, duals, surgery, distance, MDS checks.

Generator matrices are kept exactly as given (the Singleton-array punctured
generators are deliberately non-standard); `standard_form` is a separate step
that records its column permutation so callers can undo it.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    DegenerateCoordinate,
    FormatError,
    KuniError,
    OutOfRange,
    RankDeficient,
    RankDrop,
    TooLarge,
)
from .field import (
    FFMatrix,
    FieldElement,
    FieldSpec,
    format_matrix,
    matrix_rref,
    null_space,
    parse_matrix,
    primitive_element,
    rank_of_rows,
)

# Codeword enumeration is capped, so an oversize request fails fast with
# TooLarge instead of hanging.
MAX_ENUM_CODEWORDS = 10 ** 8

# Codewords are enumerated in blocks of at most this many words (at least q):
# a block's n site columns of 16 KB each stay small beside any state.
BLOCK_WORDS = 2 ** 14


class LinearCode:
    """[n, k] linear code over GF(q) with a full-row-rank generator matrix.

    G is eliminated once, here: `rref` and its `pivots` answer every later
    question about G's columns (standard form, MDS checks, the dual).
    """

    def __init__(self, G: FFMatrix):
        self.rref, rank, self.pivots = matrix_rref(G)
        if rank != G.rows:
            raise RankDeficient(f"generator {G.rows}x{G.cols} is not full row rank")
        self.G, self.spec, self.n, self.k = G, G.spec, G.cols, G.rows
        self._distance = None

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def cached_distance(self):
        return self._distance

    def _set_distance(self, d: int):
        if self._distance is None:
            self._distance = d
        elif self._distance != d:
            raise AssertionError(f"conflicting distances {self._distance} and {d}")

    def codeword_set(self) -> frozenset:
        return frozenset(enumerate_codewords(self))

    def __repr__(self):
        d = f",{self._distance}" if self._distance is not None else ""
        return f"[{self.n},{self.k}{d}]_{self.q}"


def standard_form(code: LinearCode):
    """G' = [I_k | A]: the code's RREF with its pivot columns moved first.

    Returns (code', perm) where perm[i] is the original column now at
    position i; apply_permutation(undo=True) style callers use perm to map
    coordinates back.
    """
    perm = code.pivots + _free_columns(code)
    return LinearCode(code.rref.select_columns(perm)), perm


def dual_code(code: LinearCode) -> LinearCode:
    """[n, n-k] code orthogonal to every codeword of the input: the null space
    of G, i.e. [-A^T | I] for the standard form [I | A], columns restored."""
    return LinearCode(null_space(code.rref, code.pivots))


def enumerate_codewords(code: LinearCode):
    """All q^k codewords, lexicographic in the message vector: the words of
    `codeword_blocks`, one block after another."""
    for block in codeword_blocks(code):
        yield from block_words(block)


def codeword_blocks(code: LinearCode):
    """The codewords in `enumerate_codewords`' order, in blocks of q^L words,
    each block its n site columns: q^L <= BLOCK_WORDS, but L >= 1 when k >= 1.

    The columns of the words of G's last L rows are built once, one
    `FieldSpec.shifts` call a site and row.  Each word p of the first k - L
    rows, in message order (enumerated the same way), gives one block: those
    columns, each shifted by p's symbol at its site (one `shifts` value), so
    no Python code runs per word of a block.  Memory holds one block per level."""
    if code.q ** code.k > MAX_ENUM_CODEWORDS:
        raise TooLarge(f"q^k = {code.q}^{code.k} exceeds enumeration cap")
    spec, q = code.spec, code.q

    def blocks(rows):
        L = min(len(rows), 1)
        while L < len(rows) and q ** (L + 1) <= BLOCK_WORDS:
            L += 1
        cols = [spec.column([0])] * code.n
        for row in reversed(rows[len(rows) - L:]):  # the first of them varies slowest
            cols = [spec.shifts(col, [spec.mul(a, g) for a in range(q)])
                    for col, g in zip(cols, row)]
        if L == len(rows):
            yield cols
            return
        for heads in blocks(rows[:len(rows) - L]):
            for head in block_words(heads):
                yield [spec.shifts(col, (s,)) for col, s in zip(cols, head)]

    yield from blocks(code.G.data)


def block_words(block, sites=slice(None)):
    """The words of one block of `codeword_blocks`, cut to the columns at
    `sites`, each () where it has none (a block of none is the [0, 0] code's)."""
    cols = block[sites]
    return zip(*cols) if cols else itertools.repeat((), len(block[0]) if block else 1)


def _min_weight_brute(code: LinearCode) -> int:
    words = enumerate_codewords(code)
    next(words)  # message 0 gives the zero word, every other message a nonzero one
    return min(len(cw) - cw.count(0) for cw in words)


def _min_distance_rank(code: LinearCode) -> int:
    """Minimum distance as the smallest number of dependent parity-check columns."""
    nk = code.n - code.k
    # a code is MDS iff its dual is, and then Singleton pins d = n-k+1 (the
    # only feasible route for the big prime-field instances)
    if walk_minors(code) is not None:
        return nk + 1
    dual = dual_code(code)
    for w in range(1, nk + 1):
        if any(column_rank(dual, S) < w for S in itertools.combinations(range(code.n), w)):
            return w
    raise AssertionError("unreachable: some n-k+1 columns are always dependent")


def min_distance(code: LinearCode, method: str = "auto") -> int:
    """Exact minimum nonzero codeword weight; result is cached on the code.

    method: "brute" (weight scan over all codewords), "rank" (w columns of
    the parity-check matrix independent iff d >= w+1), or "auto".
    """
    if method not in ("auto", "brute", "rank"):  # before the cache, which any method reads
        raise ValueError(f"unknown method {method!r}")
    if code._distance is not None:
        return code._distance
    if code.k == 0:
        raise KuniError(f"the [{code.n},0]_{code.q} code has no nonzero word, so no distance")
    if method == "auto":
        method = "brute" if code.q ** code.k <= 10 ** 5 else "rank"
    d = _min_weight_brute(code) if method == "brute" else _min_distance_rank(code)
    code._set_distance(d)
    return d


class MdsCertificate:
    def __init__(self, is_mds: bool, method: str, checks: int, witness=None):
        self.is_mds, self.method, self.checks = is_mds, method, checks
        self.witness = witness  # failing column set / submatrix when not MDS


def is_mds(code: LinearCode, method: str = "columns") -> MdsCertificate:
    """Decide d = n-k+1, with an auditable certificate.

    Every method takes its verdict from one walk over the square minors of
    G's free block A (`walk_minors`) and reports it as C(n, k) column sets
    ("columns"), the C(n, k) - 1 minors of A ("submatrix"), or one
    distance ("distance"); a refuted code names its own `_first_failure`.
    """
    n, k = code.n, code.k
    total = math.comb(n, k)
    checks = {"columns": total, "submatrix": total - 1, "distance": 1}
    if method not in checks:
        raise ValueError(f"unknown method {method!r}")
    walked = walk_minors(code)
    if walked is None:
        return MdsCertificate(False, method, *_first_failure(code, method))
    if walked + 1 != total:
        raise AssertionError(f"minor walk visited {walked} + 1 of C({n},{k}) = {total}")
    if k:  # a k = 0 code has no nonzero word
        code._set_distance(n - k + 1)
    return MdsCertificate(True, method, checks[method])


def _first_failure(code: LinearCode, method: str):
    """(candidates tried, witness) of a refuted code: its first dependent
    column set, first singular submatrix of A (by size, rows, columns) or d."""
    if method == "distance":
        return 1, ("distance", min_distance(code))
    if method == "columns":
        for checks, S in enumerate(itertools.combinations(range(code.n), code.k), 1):
            if column_rank(code, S) < code.k:
                return checks, ("columns", S)
    else:
        free, k, nk = _free_columns(code), code.k, code.n - code.k
        squares = ((rset, cset) for t in range(1, min(k, nk) + 1)
                   for rset in itertools.combinations(range(k), t)
                   for cset in itertools.combinations(range(nk), t))
        for checks, (rset, cset) in enumerate(squares, 1):
            # the minor of A on (rset, cset) is the k columns S of `_free_block`
            C = [p for r, p in enumerate(code.pivots) if r not in rset] + [free[c] for c in cset]
            if column_rank(code, C) < k:
                return checks, ("submatrix", rset, cset, code.pivots + free)
    raise AssertionError(f"the minor walk found a zero minor, the {method} scan none")


def column_rank(code: LinearCode, C) -> int:
    """The rank of G's columns C, read off the RREF: its pivot columns are
    unit vectors, so it is the number of pivots in C plus the rank of the
    rows whose pivot is not in C, on the non-pivot columns of C."""
    C = set(C)
    free = C.difference(code.pivots)
    rows = [[row[c] for c in free] for row, p in zip(code.rref.data, code.pivots) if p not in C]
    return len(C) - len(free) + rank_of_rows(code.spec, rows)


def _free_columns(code: LinearCode) -> list:
    return [c for c in range(code.n) if c not in code.pivots]


def _free_block(code: LinearCode):
    """The block A of G's RREF on its non-pivot columns (rows of int reprs).

    G is [I | A] up to row operations and a column order, so k columns S are
    independent iff the minor of A on the rows whose pivot is not in S and
    the columns of S that are not pivots is nonzero (`column_rank`).  This
    maps the C(n, k) column sets one-to-one onto the square minors of A, the
    empty minor standing for S = the pivot columns.
    """
    free = _free_columns(code)
    return [[row[c] for c in free] for row in code.rref.data]


def walk_minors(code: LinearCode) -> int | None:
    """`_nonzero_minors` of G's free block."""
    return _nonzero_minors(code.spec, _free_block(code))


def _nonzero_minors(spec: FieldSpec, A) -> int | None:
    """The number of nonempty square minors of A when none is zero, else None.

    Walks the minors depth first with a stack of Schur complements.  Each
    entry (i, j) of a matrix M on the stack is one minor, and is nonzero iff
    that minor is.  Its complement on the rows below i and the columns right
    of j, M[r][c] - M[r][j] M[i][j]^-1 M[i][c], holds the minors that extend
    it: det M[{i} + R, {j} + C] = M[i][j] det complement[R, C].  A minor of A
    on rows i1 < ... < it and columns j1 < ... < jt is reached exactly once,
    by pivoting on (i1, j1) of A, then on (i2, j2) of that complement, and so
    on, and is the product of those pivots.  So each minor costs one zero
    test, and the minors through one pivot share its row updates.  Over a
    prime field each complement is one packed integer (`_packed_minors`).
    """
    if any(0 in row for row in A):
        return None
    if spec.m == 1 and A and A[0]:
        return _packed_minors(spec, A)
    visited = sum(map(len, A))
    stack = [A]
    while stack:
        M = stack.pop()
        for i, prow in enumerate(M[:-1]):
            below = M[i + 1:]
            for j in range(len(prow) - 1):
                neg_inv, tail = spec.neg_inverses[prow[j]], prow[j + 1:]
                S = [spec.axpy(spec.mul(row[j], neg_inv), row[j + 1:], tail) for row in below]
                if any(0 in row for row in S):
                    return None
                visited += len(S) * len(tail)
                if len(S) > 1 and len(tail) > 1:
                    stack.append(S)
    return visited


def _packed_minors(spec: FieldSpec, A) -> int | None:
    """`_nonzero_minors` over GF(p) for a nonempty A, each matrix on the stack
    one integer: entry (r, c) in the W-bit lane r w + c, w the width of A.  A
    complement is the block below and right of its pivot plus one product
    column * factor * row (column lanes are w apart, the row is shorter than
    w), reduced by one Barrett step and zero-tested in all lanes at once.
    Lanes stay below V = p^3; W leaves no carry between lanes and makes the
    quotient floor(x mu / 2^s) exactly floor(x / p) for every x < V.
    """
    p, neg_inv, w = spec.p, spec.neg_inverses, len(A[0])
    V = p ** 3
    s = (V * p).bit_length()
    mu = (1 << s) // p + 1
    W = max((V * mu).bit_length(), s + (V // p).bit_length()) + 1
    lane, stride = (1 << W) - 1, W * w

    def lanes(R, C):  # the masks of an R x C complement
        column = ((1 << stride * R) - 1) // ((1 << stride) - 1)  # a 1 in lane t w, t < R
        ones = ((1 << W * C) - 1) // lane * column
        top = ones << W - 1
        return (column * lane, (1 << W * C) - 1, ones * lane,
                ones * ((1 << W - s) - 1), top - ones, top)

    masks = {(R, C): lanes(R, C) for R in range(1, len(A)) for C in range(1, w)}
    M = sum(x << W * (r * w + c) for r, row in enumerate(A) for c, x in enumerate(row))
    visited = len(A) * w
    stack = [(M, len(A), w)]
    while stack:
        M, rows, cols = stack.pop()
        for R in range(rows - 1, 0, -1):
            at = M >> stride * (rows - 1 - R)
            below = at >> stride
            for C in range(cols - 1, 0, -1):
                col, row, block, quotient, fill, top = masks[R, C]
                S = (below >> W & block) + (below & col) * neg_inv[at & lane] * (at >> W & row)
                S -= (S * mu >> s & quotient) * p
                if (S + fill) & top != top:
                    return None
                visited += R * C
                if R > 1 and C > 1:
                    stack.append((S, R, C))
                at >>= W
                below >>= W
    return visited


class SingletonArray:
    """Triangular Cauchy-type array: first row/column all 1, a_i = 1/(1-g^i)."""

    def __init__(self, spec: FieldSpec, gamma: FieldElement, a: tuple):
        self.spec, self.gamma = spec, gamma
        self.a = a  # a[i] for i in 1..q-2, stored as int reprs, a[0] unused

    def entry(self, r: int, c: int) -> int:
        """Int repr of the (r, c) entry; rows/cols 0-indexed, r + c <= q - 1."""
        q = self.spec.q
        if r < 0 or c < 0 or r + c > q - 1:
            raise IndexError(f"({r},{c}) outside the Singleton array of GF({q})")
        if r == 0 or c == 0:
            return 1
        return self.a[r + c - 1]

    def block(self, rows: int, cols: int) -> FFMatrix:
        """Top-left rows x cols rectangular submatrix."""
        return FFMatrix(self.spec,
                        [[self.entry(r, c) for c in range(cols)] for r in range(rows)])


def singleton_array(spec: FieldSpec) -> SingletonArray:
    gamma = primitive_element(spec)
    a = [0] + [spec.inv(spec.sub(1, spec.pow(gamma.repr, i))) for i in range(1, spec.q - 1)]
    return SingletonArray(spec, gamma, tuple(a))


def mds_from_singleton(n: int, k: int, spec: FieldSpec) -> LinearCode:
    """MDS [n, k]_q with G = [I_k | A], A from the Singleton array; certified."""
    q = spec.q
    if not (1 <= k < n <= q + 1):
        raise OutOfRange(f"[{n},{k}]_{q} outside the Singleton-array range n <= q+1")
    arr = singleton_array(spec)
    A = arr.block(k, n - k)
    G = FFMatrix.identity(spec, k).hstack(A)
    code = LinearCode(G)
    if not is_mds(code, method="columns").is_mds:
        raise AssertionError(f"Singleton-array code [{n},{k}]_{q} failed MDS check")
    return code


def puncture(code: LinearCode, coord: int) -> LinearCode:
    """Delete one coordinate, keeping k; raises RankDrop if rank would fall."""
    cols = [c for c in range(code.n) if c != coord]
    try:
        return LinearCode(code.G.select_columns(cols))
    except RankDeficient:
        raise RankDrop(f"puncturing coordinate {coord} drops the rank below {code.k}") from None


def shorten(code: LinearCode, coord: int) -> LinearCode:
    """Subcode of codewords vanishing at `coord`, with that coordinate deleted."""
    sp = code.spec
    messages = null_space(FFMatrix(sp, [code.G.col(coord)]))
    if messages.rows == code.k:
        raise DegenerateCoordinate(f"every codeword is already 0 at coordinate {coord}")
    cols = [c for c in range(code.n) if c != coord]
    return LinearCode(messages.matmul(code.G).select_columns(cols))


def mds_exists(n: int, k: int, q: int) -> bool:
    """Known existence intervals for MDS [n, k]_q codes."""
    if n < 2 or not 1 <= k <= n:
        return False
    if k in (1, n - 1, n):
        return True
    if q % 2 == 0 and k in (3, q - 1):
        return n <= q + 2
    return n <= q + 1


# --- code file format -------------------------------------------------------
# "CODE n k" then the FFMatrix text block for G.

def format_code(code: LinearCode) -> str:
    return f"CODE {code.n} {code.k}\n" + format_matrix(code.G)


def parse_code(text: str) -> LinearCode:
    lines = text.strip().splitlines()
    parts = lines[0].split() if lines else []
    if parts[:1] != ["CODE"]:
        raise FormatError("missing CODE header")
    if len(parts) != 3:
        raise FormatError(f"bad CODE header: {lines[0]!r}")
    try:
        n, k = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise FormatError(f"bad CODE header: {lines[0]!r}") from exc
    G = parse_matrix("\n".join(lines[1:]))
    if G.cols != n or G.rows != k:
        raise FormatError(f"CODE header says {n},{k} but matrix is {G.rows}x{G.cols}")
    return LinearCode(G)
