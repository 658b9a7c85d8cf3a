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
    matrix_rank,
    matrix_rref,
    null_space,
    parse_matrix,
    primitive_element,
    rank_of_rows,
)

# Explicit constructor-level caps so oversize requests fail fast instead of
# hanging; acceptance tests assert TooLarge against these.
MAX_ENUM_CODEWORDS = 10 ** 8
MAX_DET_CHECKS = 10 ** 7


class LinearCode:
    """[n, k] linear code over GF(q) with a full-row-rank generator matrix."""

    def __init__(self, G: FFMatrix, _skip_rank_check: bool = False):
        if not _skip_rank_check and matrix_rank(G) != G.rows:
            raise RankDeficient(f"generator {G.rows}x{G.cols} is not full row rank")
        self.G = G
        self.spec = G.spec
        self.n = G.cols
        self.k = G.rows
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


def code_from_generator(G: FFMatrix) -> LinearCode:
    """Wrap a full-row-rank generator matrix as a LinearCode."""
    return LinearCode(G)


def standard_form(code: LinearCode):
    """Row-reduce (and column-permute if needed) to G' = [I_k | A].

    Returns (code', perm) where perm[i] is the original column now at
    position i; apply_permutation(undo=True) style callers use perm to map
    coordinates back.
    """
    rref, rank, pivots = matrix_rref(code.G)
    assert rank == code.k
    perm = list(pivots) + [c for c in range(code.n) if c not in set(pivots)]
    return LinearCode(rref.select_columns(perm), _skip_rank_check=True), perm


def dual_code(code: LinearCode) -> LinearCode:
    """[n, n-k] code orthogonal to every codeword of the input: the null space
    of G, i.e. [-A^T | I] for the standard form [I | A], columns restored."""
    return LinearCode(null_space(code.G), _skip_rank_check=True)


def enumerate_codewords(code: LinearCode):
    """All q^k codewords, lexicographic in the message vector.  Incremental:
    words that share a message prefix share its partial sum, and each row's
    q multiples are tabled, so each word costs one vector addition."""
    if code.q ** code.k > MAX_ENUM_CODEWORDS:
        raise TooLarge(f"q^k = {code.q}^{code.k} exceeds enumeration cap")
    sp, k = code.spec, code.k
    multiples = [[tuple(sp.mul(a, g) for g in row) for a in range(code.q)]
                 for row in code.G.data]

    def extend(partial, r):
        words = sp.add_each(partial, multiples[r])
        if r == k - 1:
            yield from words
            return
        for word in words:
            yield from extend(word, r + 1)

    yield from extend((0,) * code.n, 0) if k else [(0,) * code.n]


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
    H = dual_code(code).G
    cols = [H.col(c) for c in range(H.cols)]
    for w in range(1, nk + 1):
        for sub in itertools.combinations(cols, w):
            if rank_of_rows(code.spec, list(zip(*sub))) < w:
                return w
    raise AssertionError("unreachable: some n-k+1 columns are always dependent")


def min_distance(code: LinearCode, method: str = "auto") -> int:
    """Exact minimum nonzero codeword weight; result is cached on the code.

    method: "brute" (weight scan over all codewords), "rank" (w columns of
    the parity-check matrix independent iff d >= w+1), or "auto".
    """
    if code._distance is not None:
        return code._distance
    if code.k == 0:
        raise KuniError(f"the [{code.n},0]_{code.q} code has no nonzero word, so no distance")
    if method == "auto":
        method = "brute" if code.q ** code.k <= 10 ** 5 else "rank"
    if method == "brute":
        d = _min_weight_brute(code)
    elif method == "rank":
        d = _min_distance_rank(code)
    else:
        raise ValueError(f"unknown method {method!r}")
    code._set_distance(d)
    return d


class MdsCertificate:
    def __init__(self, is_mds: bool, method: str, checks: int, witness=None):
        self.is_mds, self.method, self.checks = is_mds, method, checks
        self.witness = witness  # failing column set / submatrix when not MDS


def is_mds(code: LinearCode, method: str = "columns") -> MdsCertificate:
    """Decide d = n-k+1, with an auditable certificate.

    methods: "distance" compares min_distance against the Singleton bound;
    "submatrix" checks every square submatrix of A (from the standard form)
    nonsingular; "columns" checks every k columns of G linearly independent,
    each of the C(n, k) column sets decided by one pivot of a walk over the
    minors of A, and names the lexicographically first dependent set.
    """
    n, k, sp = code.n, code.k, code.spec
    if method == "distance":
        if k == 0:  # no nonzero word: MDS by every column criterion
            return MdsCertificate(True, method, 1)
        d = min_distance(code)
        return MdsCertificate(d == n - k + 1, method, 1,
                              None if d == n - k + 1 else ("distance", d))
    if method == "columns":
        total = math.comb(n, k)
        walked = walk_minors(code)
        if walked is not None:
            if walked + 1 != total:
                raise AssertionError(f"minor walk visited {walked} + 1 of C({n},{k}) = {total}")
            if k and code._distance is None:  # a k = 0 code has no nonzero word
                code._set_distance(n - k + 1)
            return MdsCertificate(True, method, total)
        # some minor vanishes: the lexicographic scan names the first
        # dependent column set, as the certificate's witness
        cols = [code.G.col(c) for c in range(n)]
        checks = 0
        for idx in itertools.combinations(range(n), k):
            checks += 1
            sub = [cols[c] for c in idx]
            if rank_of_rows(sp, list(zip(*sub))) < k:
                return MdsCertificate(False, method, checks, ("columns", idx))
        raise AssertionError("the minor walk found a zero minor, the column scan none")
    if method == "submatrix":
        std, perm = standard_form(code)
        A = std.G.select_columns(range(k, n))
        total = sum(math.comb(k, t) * math.comb(n - k, t) for t in range(1, min(k, n - k) + 1))
        if total > MAX_DET_CHECKS:
            raise TooLarge(f"{total} determinant checks exceed cap {MAX_DET_CHECKS}")
        checks = 0
        for t in range(1, min(k, n - k) + 1):
            for rset in itertools.combinations(range(k), t):
                for cset in itertools.combinations(range(n - k), t):
                    checks += 1
                    sub = [[A.data[r][c] for c in cset] for r in rset]
                    if rank_of_rows(sp, sub) < t:
                        return MdsCertificate(False, method, checks,
                                              ("submatrix", rset, cset, perm))
        if k and code._distance is None:
            code._set_distance(n - k + 1)
        return MdsCertificate(True, method, total)
    raise ValueError(f"unknown method {method!r}")


def _free_block(code: LinearCode):
    """The block A of G's RREF on its non-pivot columns (rows of int reprs),
    or None when G is rank deficient.

    G is [I | A] up to row operations and a column order, so k columns S are
    independent iff the minor of A on the rows whose pivot is not in S and
    the columns of S that are not pivots is nonzero.  This maps the C(n, k)
    column sets one-to-one onto the square minors of A, the empty minor
    standing for S = the pivot columns.
    """
    R, rank, pivots = matrix_rref(code.G)
    if rank < code.k:
        return None
    free = [c for c in range(code.n) if c not in pivots]
    return [[row[c] for c in free] for row in R.data]


def walk_minors(code: LinearCode) -> int | None:
    """`_nonzero_minors` of G's free block; None when G is rank deficient."""
    A = _free_block(code)
    return None if A is None else _nonzero_minors(code.spec, A)


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
                neg_inv, tail = spec.neg(spec.inv(prow[j])), prow[j + 1:]
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
    p, inv, w = spec.p, spec.inv, len(A[0])
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
            for C in range(cols - 1, 0, -1):
                col, row, block, quotient, fill, top = masks[R, C]
                below = at >> stride
                S = (below >> W & block) + (below & col) * (p - inv(at & lane)) * (at >> W & row)
                S -= (S * mu >> s & quotient) * p
                if (S + fill) & top != top:
                    return None
                visited += R * C
                if R > 1 and C > 1:
                    stack.append((S, R, C))
                at >>= W
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

    def row(self, r: int) -> tuple:
        return tuple(self.entry(r, c) for c in range(self.spec.q - r))

    def block(self, rows: int, cols: int) -> FFMatrix:
        """Top-left rows x cols rectangular submatrix."""
        return FFMatrix(self.spec,
                        [[self.entry(r, c) for c in range(cols)] for r in range(rows)])


def singleton_array(spec: FieldSpec) -> SingletonArray:
    gamma = primitive_element(spec)
    a = [0] * max(spec.q - 1, 1)
    g = 1
    for i in range(1, spec.q - 1):
        g = spec.mul(g, gamma.repr)
        a[i] = spec.inv(spec.sub(1, g))
    return SingletonArray(spec, gamma, tuple(a))


def mds_from_singleton(n: int, k: int, spec: FieldSpec) -> LinearCode:
    """MDS [n, k]_q with G = [I_k | A], A from the Singleton array; certified."""
    q = spec.q
    if not (1 <= k < n <= q + 1):
        raise OutOfRange(f"[{n},{k}]_{q} outside the Singleton-array range n <= q+1")
    arr = singleton_array(spec)
    A = arr.block(k, n - k)
    G = FFMatrix.identity(spec, k).hstack(A)
    code = LinearCode(G, _skip_rank_check=True)
    if not is_mds(code, method="columns").is_mds:
        raise AssertionError(f"Singleton-array code [{n},{k}]_{q} failed MDS check")
    return code


def puncture(code: LinearCode, coord: int) -> LinearCode:
    """Delete one coordinate, keeping k; raises RankDrop if rank would fall."""
    cols = [c for c in range(code.n) if c != coord]
    G = code.G.select_columns(cols)
    if matrix_rank(G) != code.k:
        raise RankDrop(f"puncturing coordinate {coord} drops the rank below {code.k}")
    return LinearCode(G, _skip_rank_check=True)


def shorten(code: LinearCode, coord: int) -> LinearCode:
    """Subcode of codewords vanishing at `coord`, with that coordinate deleted."""
    sp = code.spec
    messages = null_space(FFMatrix(sp, [code.G.col(coord)]))
    if messages.rows == code.k:
        raise DegenerateCoordinate(f"every codeword is already 0 at coordinate {coord}")
    cols = [c for c in range(code.n) if c != coord]
    G = FFMatrix(sp, [code.G.row_vector_mul(v) for v in messages.data])
    return LinearCode(G.select_columns(cols))


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
    if not lines or not lines[0].startswith("CODE"):
        raise FormatError("missing CODE header")
    parts = lines[0].split()
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
