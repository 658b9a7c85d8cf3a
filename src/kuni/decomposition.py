"""Coset decomposition of MDS codes into q^2 MDS subcodes.

Implements the Singleton-array construction that yields, for odd prime
power q, the non-standard generator G of the [q, ceil(q/2)] MDS code
together with the two-column matrix Q whose kernel subcode is MDS
[q, ceil(q/2)-2].  Labels (alpha, beta) = vQ partition the codewords into
q^2 cosets of the kernel subcode.
"""

from __future__ import annotations

import itertools
import random as _random

from .codes import (
    LinearCode,
    MdsCertificate,
    enumerate_codewords,
    is_mds,
    singleton_array,
    walk_minors,
)
from .errors import (
    BadKernelDimension,
    CertificationFailed,
    FormatError,
    NotFound,
    OutOfRange,
    ShapeMismatch,
    SpecMismatch,
    TooLarge,
)
from .field import FFMatrix, FieldSpec, format_matrix, matrix_rank, null_space, parse_matrix

MAX_EXPLICIT_CODEWORDS = 10 ** 6


class QMatrix:
    """Two label columns Q1, Q2 over GF(q); v -> vQ maps messages to GF(q)^2."""

    def __init__(self, spec: FieldSpec, q1: tuple, q2: tuple):
        self.spec = spec
        self.q1, self.q2 = q1, q2  # int reprs, length k

    def __eq__(self, other):
        if type(other) is not QMatrix:
            return NotImplemented
        return (self.spec, self.q1, self.q2) == (other.spec, other.q1, other.q2)

    def __hash__(self):
        return hash((self.spec, self.q1, self.q2))

    @property
    def k(self) -> int:
        return len(self.q1)

    def as_matrix(self) -> FFMatrix:
        return FFMatrix(self.spec, [[a, b] for a, b in zip(self.q1, self.q2)])

    def rank(self) -> int:
        return matrix_rank(self.as_matrix())

    def label(self, v) -> tuple:
        """(alpha, beta) = vQ for a message vector of int reprs."""
        return self.as_matrix().row_vector_mul(v)


class CosetDecomposition:
    """Partition of the parent code's codewords into q^2 cosets of the kernel."""

    def __init__(self, parent: LinearCode, subcode: LinearCode, Q: QMatrix, labels: dict):
        self.parent, self.subcode, self.Q = parent, subcode, Q
        self.labels = labels  # (alpha, beta) -> list of codewords


def _same_field(G: FFMatrix, Q: QMatrix) -> None:
    if G.spec != Q.spec:
        raise SpecMismatch(f"G is over {G.spec!r} but Q is over {Q.spec!r}")


def _ame_shape(G: FFMatrix) -> None:
    """The four checks make the repetition state AME(n+2, q) only for the
    shape of the closed-form pairs, n = G.cols odd and k = G.rows = (n+1)/2;
    a [7,3]_7 pair can pass all four while its state fails at four parties."""
    if G.cols % 2 == 0 or 2 * G.rows != G.cols + 1:
        raise ShapeMismatch(f"an AME pair needs an [n, (n+1)/2] parent with n odd, "
                            f"G is {G.rows}x{G.cols}")


def kernel_subcode(G: FFMatrix, Q: QMatrix) -> LinearCode:
    """The [n, k-2] code {vG : vQ = 0}."""
    _same_field(G, Q)
    k = G.rows
    if Q.k != k:
        raise BadKernelDimension(f"Q has {Q.k} rows but G has {k}")
    # {v : vQ = 0} is the null space of the 2 x k matrix with rows Q1, Q2
    basis = null_space(FFMatrix(Q.spec, [Q.q1, Q.q2]))
    if basis.rows != k - 2:
        raise BadKernelDimension(
            f"kernel dimension {basis.rows} != k-2 = {k - 2} (rank(Q) = {k - basis.rows})"
        )
    return LinearCode(basis.matmul(G))


def coset_partition(G: FFMatrix, Q: QMatrix) -> CosetDecomposition:
    """Assign each message v the label vQ, and list every coset's codewords."""
    sub = kernel_subcode(G, Q)  # validates kernel dimension
    parent = LinearCode(G)
    q, k, n = G.spec.q, G.rows, G.cols
    if q ** k > MAX_EXPLICIT_CODEWORDS:
        raise TooLarge(f"q^k = {q}^{k} exceeds the partition cap")
    labels = {}
    # each word of [G | Q] is a codeword vG followed by its label vQ
    for word in enumerate_codewords(LinearCode(G.hstack(Q.as_matrix()))):
        labels.setdefault(word[n:], []).append(word[:n])
    return CosetDecomposition(parent, sub, Q, labels)


class DecompositionReport:
    """The AME certificate of a pair with an [n, k]_q parent: the outcome of
    the four hypotheses, and the check counts that make it auditable."""

    def __init__(self, n: int, q: int, parent_mds: MdsCertificate,
                 kernel_mds: MdsCertificate | None, q_rank: int, kernel_error: str | None = None):
        self.n, self.q = n, q
        self.parent_mds, self.kernel_mds = parent_mds, kernel_mds
        self.q_rank, self.kernel_error = q_rank, kernel_error

    @property
    def labels_onto(self) -> bool:
        # v -> vQ is linear, so surjectivity onto GF(q)^2 is exactly rank 2;
        # recorded separately because it is a separate hypothesis of the certificate
        return self.q_rank == 2

    @property
    def failures(self) -> list:
        """The failed hypotheses, one phrase each; empty when all four pass."""
        kernel_ok = self.kernel_mds is not None and self.kernel_mds.is_mds
        checks = [("parent code not MDS", self.parent_mds.is_mds),
                  (self.kernel_error or "kernel subcode not MDS", kernel_ok),
                  (f"rank Q = {self.q_rank}, not 2", self.q_rank == 2),
                  (f"labels vQ not onto GF({self.q})^2", self.labels_onto)]
        return [what for what, ok in checks if not ok]

    @property
    def all_pass(self) -> bool:
        return not self.failures

    @property
    def parent_checks(self) -> int:
        return self.parent_mds.checks

    @property
    def kernel_checks(self) -> int:
        return self.kernel_mds.checks if self.kernel_mds else 0

    @property
    def claim(self) -> str | None:
        return f"AME({self.n + 2},{self.q})" if self.all_pass else None


def verify_decomposition(G: FFMatrix, Q: QMatrix) -> DecompositionReport:
    """Check: parent MDS, kernel subcode MDS, rank(Q) = 2, labels onto GF(q)^2.
    A pair of another shape than [n, (n+1)/2], n odd, or a Q whose height is
    not G's, raises ShapeMismatch: a malformed pair, not a refuted one."""
    _same_field(G, Q)  # before the parent checks, which would run for nothing
    _ame_shape(G)
    if Q.k != G.rows:
        raise ShapeMismatch(f"Q has {Q.k} rows but G has {G.rows}")
    parent = LinearCode(G)
    parent_cert = is_mds(parent, method="columns")
    q_rank = Q.rank()
    kernel_cert = None
    kernel_error = None
    try:
        sub = kernel_subcode(G, Q)
        kernel_cert = is_mds(sub, method="columns")
    except BadKernelDimension as exc:
        kernel_error = str(exc)
    return DecompositionReport(G.cols, G.spec.q, parent_cert, kernel_cert, q_rank, kernel_error)


def construct_G_Q(spec: FieldSpec):
    """The closed-form (G, Q) pair for GF(q), q an odd prime power >= 5 or q = 4,
    unverified: its user certifies it (certify_ame_via_codes, repetition_fibred).

    For odd q: G is the ceil(q/2) x q generator obtained by puncturing the
    [q+1, ceil(q/2)] Singleton-array code at its last identity column, i.e.
    a shifted identity block with a zero bottom row next to the full
    ceil(q/2) x ceil(q/2) Cauchy block.  Q1 holds the next Singleton-array
    column (zero-padded in the last row) and Q2 the missing identity column.
    """
    q = spec.q
    if q == 4:
        G, Q = _g_q_gf4(spec)
    elif q % 2 == 0 or q < 5:
        raise OutOfRange(f"construction needs odd prime power q >= 5 (or q = 4), got {q}")
    else:
        k = (q + 1) // 2
        arr = singleton_array(spec)
        G = shifted_identity_block(arr.block(k, k))
        # Q1: entries of the (k+1)-th Singleton-array column (k-1 of them), then 0
        q1 = tuple(arr.entry(r, k) for r in range(q - k)) + (0,) * (k - (q - k))
        q2 = tuple(0 for _ in range(k - 1)) + (1,)
        Q = QMatrix(spec, q1, q2)
    return G, Q


def shifted_identity_block(A: FFMatrix) -> FFMatrix:
    """[I' | A] for a k-row A, I' the k x (k-1) identity with a zero bottom row."""
    return FFMatrix.identity(A.spec, A.rows).select_columns(range(A.rows - 1)).hstack(A)


def _g_q_gf4(spec: FieldSpec):
    """GF(4) special case: the [5,3]_4 code with codewords
    (i, j, l, i+j+l, i+xj+(1+x)l) and labels alpha = i+j, beta = i+xl."""
    x = 2  # repr of x under the coefficient encoding
    one_plus_x = 3
    G = FFMatrix(spec, [
        [1, 0, 0, 1, 1],
        [0, 1, 0, 1, x],
        [0, 0, 1, 1, one_plus_x],
    ])
    return G, QMatrix(spec, (1, 1, 0), (1, 0, x))


def search_Q(G: FFMatrix, budget: int = 10 ** 6, seed: int | None = None) -> QMatrix:
    """First Q (lexicographic, or seeded-random sampling) whose kernel
    subcode certifies MDS.  Raises NotFound when the budget runs out."""
    if budget < 1:
        raise OutOfRange(f"--budget must be at least 1, got {budget}")
    spec = G.spec
    k = G.rows
    if k <= 2:
        raise BadKernelDimension(f"k = {k} leaves no room for a rank-2 label map")
    _ame_shape(G)
    parent_cert = is_mds(LinearCode(G), method="columns")
    if not parent_cert.is_mds:
        raise CertificationFailed(f"search_Q needs an MDS parent: witness {parent_cert.witness}")
    q = spec.q

    # each candidate is one vector of 2k symbols, Q1 then Q2
    if seed is None:
        vectors = itertools.product(range(q), repeat=2 * k)
    else:
        rng = _random.Random(seed)
        vectors = iter(lambda: tuple(rng.randrange(q) for _ in range(2 * k)), None)
    for v in itertools.islice(vectors, budget):
        Q = QMatrix(spec, v[:k], v[k:])
        try:  # a Q of rank < 2 leaves a kernel of the wrong dimension
            sub = kernel_subcode(G, Q)
        except BadKernelDimension:
            continue
        if walk_minors(sub) is not None:  # the verdict, without is_mds's witness scan
            return Q
    raise NotFound(f"no valid Q found within budget {budget}")


# --- Q-matrix file format ---------------------------------------------------

def format_qmatrix(Q: QMatrix) -> str:
    return format_matrix(Q.as_matrix())


def parse_qmatrix(text: str) -> QMatrix:
    M = parse_matrix(text)
    if M.cols != 2:
        raise FormatError(f"Q matrix must have 2 columns, got {M.cols}")
    return QMatrix(M.spec, M.col(0), M.col(1))
