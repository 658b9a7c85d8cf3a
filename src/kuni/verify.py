"""Exact certification of uniformity and entanglement structure.

Everything here works on unnormalized data: "maximally mixed" means all
off-diagonal entries are exactly zero and all diagonal entries are exactly
equal, never a comparison against 1/q^|S|.
"""

from __future__ import annotations

import itertools
import random as _random
from dataclasses import dataclass, field as dc_field
from operator import itemgetter

from .cyclotomic import Cyclotomic, _poly_divmod_exact, cyclotomic_polynomial
from .decomposition import DecompositionReport, QMatrix, verify_decomposition
from .errors import NonPrimeQ, ShapeMismatch, SupportBelowRankBound, TooLarge
from .field import FFMatrix
from .states import SparseState, WeylWord, apply_weyl, inner_product

MAX_RHO_DIM = 4096


@dataclass
class ReducedDensity:
    """Unnormalized rho_S as a sparse Hermitian matrix over Z[w_q]."""

    subset: tuple
    q: int
    entries: dict  # (row key, col key) -> Cyclotomic, zero entries omitted

    @property
    def dim(self) -> int:
        return self.q ** len(self.subset)

    def entry(self, r: tuple, c: tuple) -> Cyclotomic:
        v = self.entries.get((r, c))
        return v if v is not None else Cyclotomic.zero(self.q)

    def trace(self) -> Cyclotomic:
        acc = Cyclotomic.zero(self.q)
        for (r, c), v in self.entries.items():
            if r == c:
                acc = acc + v
        return acc


def reduced_density(state: SparseState, subset) -> ReducedDensity:
    """Trace out the complement of `subset` (sorted site indices).

    Each amplitude is taken as its nonzero (exponent t, coefficient c) pairs,
    so a product a * conj(b) adds c_a * c_b at phase (t_a - t_b) mod q of the
    entry's integer vector.  Only the finished sums become Cyclotomic values,
    each zero-tested once.
    """
    S = tuple(sorted(subset))
    q = state.q
    if q ** len(S) > MAX_RHO_DIM:
        raise TooLarge(f"q^|S| = {q}^{len(S)} exceeds the matrix cap {MAX_RHO_DIM}")
    Sc = [i for i in range(state.n) if i not in set(S)]
    row_of, group_of = _symbols_at(S), _symbols_at(Sc)
    pairs_of = {}  # most states have only q distinct amplitudes
    groups = {}
    for key, amp in state.terms.items():
        pairs = pairs_of.get(amp.coeffs)
        if pairs is None:
            pairs = pairs_of[amp.coeffs] = [(t, c) for t, c in enumerate(amp.coeffs) if c]
        groups.setdefault(group_of(key), []).append((row_of(key), pairs))
    sums = {}
    for members in groups.values():
        for r, pr in members:
            for c, pc in members:
                vec = sums.get((r, c))
                if vec is None:
                    vec = sums[(r, c)] = [0] * q
                for ta, ca in pr:
                    for tb, cb in pc:
                        vec[(ta - tb) % q] += ca * cb
    entries = {}
    for k, vec in sums.items():  # keep no zero entry alive beside the sums
        v = Cyclotomic(q, vec)
        if not v.is_zero():
            entries[k] = v
    return ReducedDensity(S, q, entries)


def _symbols_at(sites):
    """key -> tuple of its symbols at `sites`; itemgetter alone gives a bare
    symbol for one site."""
    if len(sites) > 1:
        return itemgetter(*sites)
    return lambda key: tuple(key[i] for i in sites)


def is_maximally_mixed(rho: ReducedDensity):
    """(ok, witness): off-diagonals all zero and diagonals all equal, exactly."""
    diag = {}
    for (r, c), v in rho.entries.items():
        if r != c:
            return False, ("offdiag", r, c)
        diag[r] = v
    if len(diag) != rho.dim:
        # some diagonal entry is zero while others are not
        present = next(iter(diag), None)
        return False, ("diag_zero", present)
    vals = list(diag.items())
    first_key, first = vals[0]
    for key, v in vals[1:]:
        if not (v - first).is_zero():
            return False, ("diag", first_key, key)
    return True, None


@dataclass
class UniformityReport:
    n: int
    q: int
    mode: str  # "exhaustive" or "sampled"
    max_verified_k: int = 0
    tallies: dict = dc_field(default_factory=dict)  # size -> (checked, passed)
    first_failure: tuple | None = None
    sample_seed: int | None = None

    @property
    def certifying(self) -> bool:
        return self.mode == "exhaustive"


def uniformity(
    state: SparseState,
    k_max: int | None = None,
    policy: str = "exhaustive",
    sample_count: int = 20,
    seed: int | None = None,
) -> UniformityReport:
    """Sweep subset sizes 1..min(k_max, n//2), ascending, lexicographic.

    Sampled sweeps require an explicit seed and are reported as
    non-certifying.  The sweep stops at the first size with a failure.
    """
    n = state.n
    top = n // 2 if k_max is None else min(k_max, n // 2)
    if policy == "sample" and seed is None:
        raise ValueError("sample policy requires an explicit seed")
    report = UniformityReport(n, state.q, mode="exhaustive" if policy == "exhaustive" else "sampled",
                              sample_seed=seed)
    rng = _random.Random(seed) if policy == "sample" else None
    for size in range(1, top + 1):
        subsets = list(itertools.combinations(range(n), size))
        if policy == "sample" and len(subsets) > sample_count:
            subsets = sorted(rng.sample(subsets, sample_count))
        checked = passed = 0
        failure = None
        for S in subsets:
            checked += 1
            ok, witness = is_maximally_mixed(reduced_density(state, S))
            if ok:
                passed += 1
            elif failure is None:
                failure = (S, witness)
        report.tallies[size] = (checked, passed)
        if failure is not None:
            report.first_failure = failure
            break
        report.max_verified_k = size
    return report


def support_census(state: SparseState, k: int):
    """(support size, is_minimal); support below q^k contradicts the rank bound."""
    s = state.support
    minimal = state.q ** k
    if s < minimal:
        raise SupportBelowRankBound(
            f"support {s} < q^k = {minimal}; state cannot be {k}-uniform"
        )
    return s, s == minimal


def slocc_witness(state: SparseState, k: int, classical_cut: int | None = None):
    """First size-(k+1) subset with a maximally mixed reduction, or None.

    When `classical_cut` is given, subsets with exactly k sites in the
    classical block [0, cut) and one site in the quantum block are searched
    first (the natural witness shape); a hit proves non-minimal support and
    hence a different SLOCC class from any minimal-support state.
    """
    n = state.n
    preferred = []
    if classical_cut is not None:
        for cl in itertools.combinations(range(classical_cut), k):
            for qsite in range(classical_cut, n):
                preferred.append(tuple(sorted(cl + (qsite,))))
    seen = set(preferred)
    rest = [S for S in itertools.combinations(range(n), k + 1) if S not in seen]
    for S in preferred + rest:
        ok, _ = is_maximally_mixed(reduced_density(state, S))
        if ok:
            return S
    return None


def gram_check(states):
    """(ok, gram): off-diagonal inner products all zero, diagonals all equal."""
    m = len(states)
    gram = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            gram[i][j] = gram[j][i].conj() if j < i else inner_product(states[i], states[j])
    ok = (all((gram[i][i] - gram[0][0]).is_zero() for i in range(m))
          and all(gram[i][j].is_zero() for i, j in itertools.combinations(range(m), 2)))
    return ok, gram


def stabilizer_check(state: SparseState, adjacency: FFMatrix):
    """(ok, failing vertex): S_i = X_i prod_j Z_j^{adj[i][j]} must fix the state.

    Restricted to prime q; prime-power local dimensions need a different
    stabilizer formalism and are rejected.
    """
    if state.spec.m != 1:
        raise NonPrimeQ(f"stabilizer check needs prime q, got {state.q}")
    n = state.n
    if adjacency.rows != n or adjacency.cols != n:
        raise ShapeMismatch(f"adjacency must be {n}x{n}")
    for i in range(n):
        z = tuple((j, adjacency.data[i][j]) for j in range(n) if adjacency.data[i][j])
        word = WeylWord(n, z=z, x=((i, 1),))
        if not apply_weyl(state, word).equals(state):
            return False, i
    return True, None


@dataclass
class CertificateReport:
    """Auditable record of the algebraic AME certificate."""

    n_parties: int
    q: int
    decomposition: DecompositionReport

    @classmethod
    def of(cls, G: FFMatrix, report: DecompositionReport) -> "CertificateReport":
        """The certificate of the pair (G, Q) that `report` verified."""
        return cls(G.cols + 2, G.spec.q, report)

    @property
    def parent_checks(self) -> int:
        return self.decomposition.parent_mds.checks

    @property
    def kernel_checks(self) -> int:
        kernel = self.decomposition.kernel_mds
        return kernel.checks if kernel else 0

    @property
    def certified(self) -> bool:
        return self.decomposition.all_pass

    @property
    def claim(self) -> str | None:
        return f"AME({self.n_parties},{self.q})" if self.certified else None


def certify_ame_via_codes(G: FFMatrix, Q: QMatrix) -> CertificateReport:
    """Algebraic certificate for states too large to materialize.

    Soundness: the four decomposition hypotheses are exactly what makes the
    repetition construction an AME(n+2, q) state; the check counts are
    recorded so the certificate is auditable.
    """
    return CertificateReport.of(G, verify_decomposition(G, Q))


# --- exact characteristic polynomial (cross-check helper) -------------------

def _cyc_div_int(a: Cyclotomic, k: int) -> Cyclotomic:
    _, rem = _poly_divmod_exact(a.coeffs, list(cyclotomic_polynomial(a.order)))
    if any(c % k for c in rem):
        raise ArithmeticError(f"inexact division of {a!r} by {k}")
    coeffs = [c // k for c in rem] + [0] * (a.order - len(rem))
    return Cyclotomic(a.order, coeffs)


def char_poly(rho: ReducedDensity):
    """Exact characteristic polynomial coefficients [c_d, ..., c_1, c_0]
    of the dense rho matrix, via Faddeev-LeVerrier."""
    q = rho.q
    # all basis keys, so spectra of complementary subsets compare
    keys = list(itertools.product(range(q), repeat=len(rho.subset)))
    d = len(keys)
    idx = {k: i for i, k in enumerate(keys)}
    zero = Cyclotomic.zero(q)
    A = [[zero] * d for _ in range(d)]
    for (r, c), v in rho.entries.items():
        A[idx[r]][idx[c]] = v
    M = [[Cyclotomic.integer(q, 1 if i == j else 0) for j in range(d)] for i in range(d)]
    coeffs = [Cyclotomic.integer(q, 1)]
    for k in range(1, d + 1):
        AM = [[_row_dot(A[i], [M[t][j] for t in range(d)], q) for j in range(d)]
              for i in range(d)]
        tr = zero
        for i in range(d):
            tr = tr + AM[i][i]
        ck = -_cyc_div_int(tr, k)
        coeffs.append(ck)
        M = [[(AM[i][j] + ck) if i == j else AM[i][j] for j in range(d)] for i in range(d)]
    return coeffs


def _row_dot(row, col, q):
    acc = Cyclotomic.zero(q)
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc
