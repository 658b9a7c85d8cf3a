"""Exact certification of uniformity and entanglement structure.

Everything here works on unnormalized data: "maximally mixed" means all
off-diagonal entries are exactly zero and all diagonal entries are exactly
equal, never a comparison against 1/q^|S|.
"""

from __future__ import annotations

import itertools
import math
import random as _random
from functools import cached_property
from operator import and_

from .codes import LinearCode, codeword_blocks, column_rank
from .cyclotomic import Cyclotomic, is_zero_vector
from .decomposition import DecompositionReport, QMatrix, verify_decomposition
from .errors import (KuniError, NonPrimeQ, ShapeMismatch, SpecMismatch, SupportBelowRankBound,
                     TooLarge)
from .field import FFMatrix, _rref_data
from .states import SparseState, WeylWord, apply_weyl, inner_product

MAX_RHO_DIM = 4096


class ReducedDensity:
    """Unnormalized rho_S as a sparse Hermitian matrix over Z[w_q]."""

    def __init__(self, subset: tuple, q: int, entries: dict):
        self.subset, self.q = subset, q
        self.entries = entries  # (row key, col key) -> Cyclotomic, zero entries omitted

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


class KeyTable:
    """What the reductions of one state share, in term order: each key as one
    integer code (`FieldSpec.pack`), so that its row code for S is the code
    masked to the bits of S and its complement code the rest; the one |amp|^2
    of all amplitudes (None when they differ as values); and each amplitude's
    nonzero (exponent t, coefficient c) pairs.  The site columns it is built
    from are not kept.

    Built from distinct keys' site columns and amplitudes (`read_state`'s, or
    a state's `columns()`: `of`).  `coset` works out, once, whether the keys
    are a coset of a GF(q) subspace, for the sweep's rank path (`_by_rank`)."""

    def __init__(self, spec, columns: list, amps):
        n = len(columns)
        self.n, self.q, self.spec = n, spec.q, spec
        self.bits = (spec.q - 1).bit_length()
        self.digit = (1 << self.bits) - 1  # the mask of one site's bits
        self.span = 1 << (self.bits * n)  # above every code
        self.shifts = [self.bits * (n - 1 - i) for i in range(n)]
        self.size = len(amps)
        # the pairs and |amp|^2 of each distinct coefficient vector, looked up
        # through each amplitude object (readers share one per vector)
        objects = dict(zip(map(id, amps), amps))
        distinct = {amp.coeffs: amp for amp in objects.values()}
        pairs_of = {coeffs: [(t, x) for t, x in enumerate(coeffs) if x] for coeffs in distinct}
        # one |amp|^2 per coefficient vector, then compared as values: a
        # Cyclotomic hashes its reduction mod Phi_q, so the amplitudes 0 -1 -1
        # and 1 0 0 over q = 3 have one |amp|^2
        norms = set({(v := amp * amp.conj()).coeffs: v for amp in distinct.values()}.values())
        self.norm = next(iter(norms)) if len(norms) == 1 else None
        pairs_by_id = {i: pairs_of[amp.coeffs] for i, amp in objects.items()}
        try:
            self.codes = spec.pack(columns) if columns else [0] * self.size
            self.pairs = list(map(pairs_by_id.__getitem__, map(id, amps)))
        except MemoryError:
            # the traceback keeps this frame, and so the table, alive: free
            # the table, or the error cannot even be handled
            self.__dict__.clear()
            raise

    @classmethod
    def of(cls, source) -> "KeyTable":
        """The table of a state's `columns()`, over its field; a KeyTable is its own."""
        return source if isinstance(source, cls) else cls(source.spec, *source.columns())

    def key(self, code: int) -> tuple:
        """The symbols of one code, decoded."""
        return tuple(code >> s & self.digit for s in self.shifts)

    @property
    def terms(self):
        """The keys in term order, decoded: what iterating a SparseState's
        terms gives, for readers of n and the keys such as perfbench's tracer."""
        return map(self.key, self.codes)

    def masks(self, S):
        """(row mask, complement mask) of the sites S."""
        row = sum(self.digit << self.shifts[i] for i in set(S))
        return row, self.span - 1 - row

    def symbols(self, rows, S):
        """{row code: its symbols at S}, decoded one site at a time."""
        rows, digit = list(rows), self.digit
        sites = [[r >> self.shifts[i] & digit for r in rows] for i in S]
        return dict(zip(rows, zip(*sites))) if S else dict.fromkeys(rows, ())

    @cached_property
    def coset(self):
        """The support code T, a LinearCode of length n over the table's
        field, when all amplitudes have one |amp|^2 and the keys are exactly
        x0 + T for x0 the first key; else None.  T is spanned by key - x0 over
        the first keys that raise its rank to r = log_q N (those at q^j first:
        the unit vectors of a sorted linear code).  x0 + T has q^r = N words,
        so N distinct keys are all of it exactly when each of its words is a
        key: its words are enumerated a block at a time (`codeword_blocks`),
        shifted by x0 and packed like the keys."""
        spec, size = self.spec, self.size
        r = spec.log(size)  # dim T
        if self.norm is None or r is None or len(keys := set(self.codes)) != size:
            return None
        x0, T = self.key(self.codes[0]), []
        for i in itertools.chain((spec.q ** j for j in range(r)), range(size)):
            if len(T) == r:  # reached: N distinct keys span no less than q^r
                break
            T.append(list(map(spec.sub, self.key(self.codes[i]), x0)))
            del T[len(_rref_data(spec, T)[0]):]  # a key that did not raise the rank: a zero row
        T = LinearCode(FFMatrix(spec, T, self.n))
        # a 0-party block packs nothing: its one word, (), is the one key
        words = (spec.pack([spec.shifts(col, (x,)) for col, x in zip(block, x0)])
                 for block in (codeword_blocks(T) if self.n else ()))
        return T if all(map(keys.issuperset, words)) else None


def reduced_density(state, subset) -> ReducedDensity:
    """Trace out the complement of `subset` (distinct sites in [0, n)) of
    `state`, a SparseState, a FibredState or a KeyTable; only the table is read.

    A sweep builds the state's table once and passes it as `state` to every
    call; a state gets a table of its own.  Complement groups and
    (row, col) sums are keyed by the table's integer codes.  A product
    a * conj(b) adds c_a * c_b at phase (t_a - t_b) mod q of the entry's
    integer vector; a finished vector is zero-tested once, before any
    Cyclotomic is built, and only the distinct row codes (at most q^|S|) are
    decoded to symbols.
    """
    S = tuple(sorted(subset))
    if len(set(S)) < len(S) or S and not 0 <= S[0] <= S[-1] < state.n:
        raise ShapeMismatch(f"subset {S} is not a set of sites in [0, {state.n})")
    q = state.q
    if q ** len(S) > MAX_RHO_DIM:
        raise TooLarge(f"q^|S| = {q}^{len(S)} exceeds the matrix cap {MAX_RHO_DIM}")
    table = KeyTable.of(state)
    row_mask, group_mask = table.masks(S)
    codes = table.codes
    rows = list(map(and_, codes, itertools.repeat(row_mask)))
    # a term of amplitude sum_t c_t w^t joins its group once per pair (t, c):
    # the sums are bilinear, and the first pair of each term creates the
    # (row, col) sums in the order the terms do
    groups = {}
    for g, r, pairs in zip(map(and_, codes, itertools.repeat(group_mask)), rows, table.pairs):
        members = groups.get(g)
        if members is None:
            members = groups[g] = []
        for t, c in pairs:
            members.append((r, t, c))
    span = table.span  # r * span + c keys the (r, c) sum
    sums = {}
    for members in groups.values():
        for r, ta, ca in members:
            r *= span
            for c, tb, cb in members:
                vec = sums.get(r + c)
                if vec is None:
                    vec = sums[r + c] = [0] * q
                vec[(ta - tb) % q] += ca * cb
    del groups  # its members are dead weight while the entries are built
    symbols = table.symbols(set(rows), S)
    entries = {}
    for rc, vec in sums.items():  # a Cyclotomic only for each nonzero entry
        if not is_zero_vector(q, vec):
            r, c = divmod(rc, span)
            entries[(symbols[r], symbols[c])] = Cyclotomic(q, vec)
    return ReducedDensity(S, q, entries)


def _by_rank(table: KeyTable, S):
    """is_maximally_mixed's (ok, witness) for rho_S by two column ranks
    (`column_rank`) of the table's coset support x0 + T; None when T is None
    or rank T_{S^c} < dim T.  Otherwise the complement is injective on the
    keys, so rho_S is diagonal with |amp|^2 times the q^(dim T - rank T_S) keys
    of each row of x0_S + T_S: rank T_S = |S| fills every row, and rank T_S <
    |S| leaves some empty, the first key's row at S being the first nonzero."""
    T, rest = table.coset, set(range(table.n)).difference(S)
    if T is None or column_rank(T, rest) < T.k:
        return None
    if column_rank(T, S) == len(S):
        return True, None
    first = table.key(table.codes[0])
    return False, ("diag_zero", tuple(first[i] for i in sorted(S)))


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
        if v.coeffs != first.coeffs and not (v - first).is_zero():
            return False, ("diag", first_key, key)
    return True, None


class UniformityReport:
    def __init__(self, n: int, q: int, k_target: int):
        self.n, self.q = n, q
        self.mode = "exhaustive"  # "sampled" once a swept size has its subsets drawn
        self.k_target = k_target  # the largest subset size the sweep aimed for
        self.max_verified_k, self.first_failure = 0, None
        self.tallies = {}  # size -> (checked, passed), a fresh dict per report

    @property
    def certifying(self) -> bool:
        return self.mode == "exhaustive"


def uniformity(state, k_max: int | None = None, sample: int | None = None,
               seed: int | None = None) -> UniformityReport:
    """Sweep subset sizes 1..min(k_max, n//2), ascending, lexicographic, of
    `state`, a SparseState, a FibredState or a KeyTable; only the table is read.

    `sample=None` checks every subset; `sample=N` checks, at each size with
    more than N subsets, N of them drawn with the caller-given `seed`.  The
    report is "sampled" (non-certifying) only if some swept size was drawn.
    The sweep stops at the first size with a failure.
    """
    if k_max is not None and k_max < 1:
        raise KuniError(f"--k-max must be at least 1, got {k_max}")
    if sample is not None and sample < 1:
        raise KuniError(f"--sample must be at least 1, got {sample}")
    if sample is not None and seed is None:
        raise KuniError("--sample needs --seed, so that the sampled subsets can be drawn again")
    n = state.n
    top = n // 2 if k_max is None else min(k_max, n // 2)
    report = UniformityReport(n, state.q, top)
    rng = _random.Random(seed)
    table = KeyTable.of(state)
    for size in range(1, top + 1):
        count, subsets = math.comb(n, size), itertools.combinations(range(n), size)
        if sample is not None and count > sample:
            # the subsets rng.sample(list(subsets), sample) would pick, in
            # lexicographic order, each unranked from its index
            subsets = [_combination(n, size, i) for i in sorted(rng.sample(range(count), sample))]
            count, report.mode = sample, "sampled"
        failures = [(S, witness) for S, ok, witness in _decisions(table, subsets) if not ok]
        report.tallies[size] = (count, count - len(failures))
        if failures:
            report.first_failure = failures[0]
            break
        report.max_verified_k = size
    return report


def _combination(n: int, size: int, index: int) -> tuple:
    """The index-th size-subset of range(n) in lexicographic order, in n steps."""
    S = []
    for c in range(n):
        # how many of the subsets still open (index counts among them) take c next
        skip = math.comb(n - 1 - c, size - 1 - len(S)) if len(S) < size else 0
        if index < skip:
            S.append(c)
        else:
            index -= skip
    return tuple(S)


def _decisions(table: KeyTable, subsets):
    """(S, ok, witness) for each subset in order: the one place a sweep asks
    whether rho_S is maximally mixed.  A subset that ranks decide (`_by_rank`)
    needs no rho_S, and so meets no matrix cap; every other one is decided by
    reduced_density, whose cap (`TooLarge`) guards rho_S, and
    is_maximally_mixed."""
    for S in subsets:
        yield (S, *(_by_rank(table, S) or is_maximally_mixed(reduced_density(table, S))))


def support_census(state: SparseState, k: int):
    """(support size, is_minimal); support below q^k contradicts the rank bound."""
    s = state.support
    minimal = state.q ** k
    if s < minimal:
        raise SupportBelowRankBound(
            f"support {s} < q^k = {minimal}; state cannot be {k}-uniform"
        )
    return s, s == minimal


def slocc_witness(state, k: int, classical_cut: int | None = None):
    """First size-(k+1) subset with a maximally mixed reduction, or None, of
    `state`, a SparseState, a FibredState or a KeyTable; only the table is read.

    When `classical_cut` is given, subsets with one site in the quantum block
    [cut, n), and so k in the classical block, are searched first (the natural
    witness shape); a hit proves non-minimal support and hence a different
    SLOCC class from any minimal-support state.
    """
    subsets = itertools.combinations(range(state.n), k + 1)
    if classical_cut is not None:  # a stable sort: each shape stays lexicographic
        subsets = sorted(subsets, key=lambda S: sum(i >= classical_cut for i in S) != 1)
    return next((S for S, ok, _ in _decisions(KeyTable.of(state), subsets) if ok), None)


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
    if adjacency.spec != state.spec:
        raise SpecMismatch("adjacency and state live over different fields")
    n = state.n
    if adjacency.rows != n or adjacency.cols != n:
        raise ShapeMismatch(f"adjacency must be {n}x{n}")
    for i in range(n):
        z = tuple((j, adjacency.data[i][j]) for j in range(n) if adjacency.data[i][j])
        word = WeylWord(n, z=z, x=((i, 1),))
        if not apply_weyl(state, word).equals(state):
            return False, i
    return True, None


def certify_ame_via_codes(G: FFMatrix, Q: QMatrix) -> DecompositionReport:
    """Algebraic certificate for states too large to materialize.

    Soundness: the four decomposition hypotheses are exactly what makes the
    repetition construction an AME(n+2, q) state; the report records the
    check counts, so the certificate is auditable.
    """
    return verify_decomposition(G, Q)
