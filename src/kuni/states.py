"""Sparse multipartite states with exact cyclotomic amplitudes.

A state over n parties of local dimension q = p^m maps length-n symbol
tuples (field reprs) to nonzero elements of Z[w_q].  States are never
normalized; every downstream predicate is stated on unnormalized data so
all arithmetic stays in Z[w_q].

Weyl convention: X^a shifts a site's symbol by field addition of a;
Z^b multiplies the amplitude by w_q^(int(b) * int(j)) where j is the
integer repr at the site.  On a site carrying both, X acts first.
"""

from __future__ import annotations

import io
import itertools
import os
from functools import lru_cache
from operator import getitem

from .codes import LinearCode, dual_code, enumerate_codewords
from .cyclotomic import Cyclotomic
from .decomposition import QMatrix, construct_G_Q, shifted_identity_block, verify_decomposition
from .errors import (
    CertificationMissing,
    FormatError,
    KuniError,
    LayoutMismatch,
    OutOfRange,
    ShapeMismatch,
    SizeMismatch,
    SpecMismatch,
    TooLarge,
    UnknownName,
)
from .field import FFMatrix, FieldSpec, gf, matrix_rref

HARD_MAX_TERMS = 5 * 10 ** 7
DEFAULT_MAX_TERMS = 10 ** 7


def max_terms() -> int:
    """Materialization cap; KUNI_MAX_TERMS (an integer >= 1) may set it up to the hard limit."""
    env = os.environ.get("KUNI_MAX_TERMS")
    if env is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise KuniError(f"KUNI_MAX_TERMS must be an integer >= 1, got {env!r}")
    return min(cap, HARD_MAX_TERMS)


class SparseState:
    """Mapping from basis symbol tuples to nonzero cyclotomic amplitudes."""

    def __init__(self, n: int, spec: FieldSpec, terms: dict | None = None):
        self.n = n
        self.spec = spec
        self.terms = {}
        if terms:
            for key, amp in terms.items():
                if len(key) != n:
                    raise ShapeMismatch(f"term {key} has {len(key)} symbols, state has {n}")
                if not amp.is_zero():
                    self.terms[key] = amp

    @classmethod
    def _of_nonzero(cls, n: int, spec: FieldSpec, terms: dict) -> "SparseState":
        """Adopt `terms` as is: every key has n symbols, no amplitude is zero."""
        state = cls.__new__(cls)
        state.n, state.spec, state.terms = n, spec, terms
        return state

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def support(self) -> int:
        return len(self.terms)

    def chunks(self):
        """The text of format_state(self), one line at a time in sorted key order:
        one line template per distinct coefficient vector, filled with each key."""
        if self.n < 1:  # parse_state reads only states of at least one party
            raise ShapeMismatch(f"a state file needs at least one party, state has {self.n}")
        yield f"STATE {self.n} {self.q}\n"
        head = " ".join(["%d"] * self.n) + " : "
        templates = {}
        for key in sorted(self.terms):
            coeffs = self.terms[key].coeffs
            fmt = templates.get(coeffs)
            if fmt is None:
                fmt = templates[coeffs] = head + " ".join(map(str, coeffs)) + "\n"
            yield fmt % key

    def equals(self, other: "SparseState") -> bool:
        """Exact equality of the unnormalized representations."""
        if self.n != other.n or self.spec != other.spec:
            return False
        zero = Cyclotomic.zero(self.q)
        return all((self.terms.get(key, zero) - other.terms.get(key, zero)).is_zero()
                   for key in self.terms.keys() | other.terms.keys())

    def __repr__(self):
        return f"SparseState(n={self.n}, q={self.q}, support={self.support})"


class WeylWord:
    """Z/X exponent assignment per site.

    z and x are tuples of (site, exponent) pairs with exponents reduced
    mod q; sites absent from both carry the identity.
    """

    def __init__(self, n: int, z: tuple = (), x: tuple = ()):
        self.n, self.z, self.x = n, z, x

    def __eq__(self, other):
        if type(other) is not WeylWord:
            return NotImplemented
        return (self.n, self.z, self.x) == (other.n, other.z, other.x)

    def __hash__(self):
        return hash((self.n, self.z, self.x))

    @classmethod
    def zx_split(cls, n: int, v, k: int) -> "WeylWord":
        """Z^(v_1..v_k) on the first k sites, X^(v_{k+1}..v_n) on the rest."""
        v = tuple(v)
        if len(v) != n:
            raise LayoutMismatch(f"exponent vector length {len(v)} != n = {n}")
        z = tuple((i, e) for i, e in enumerate(v[:k]) if e)
        x = tuple((i + k, e) for i, e in enumerate(v[k:]) if e)
        return cls(n, z, x)


def apply_weyl(state: SparseState, word: WeylWord) -> SparseState:
    """Act with the word; support size is unchanged."""
    if word.n != state.n:
        raise LayoutMismatch(f"word covers {word.n} sites, state has {state.n}")
    sp = state.spec
    q = sp.q
    out = {}
    x_map = dict(word.x)
    z_map = dict(word.z)
    for key, amp in state.terms.items():
        new_key = list(key)
        for site, a in x_map.items():
            new_key[site] = sp.add(new_key[site], a % q if sp.m == 1 else a)
        phase = 0
        for site, b in z_map.items():
            phase += int(b) * int(new_key[site])
        out[tuple(new_key)] = amp.mul_root(phase)
    return SparseState(state.n, sp, out)


class FibredState:
    """sum_v |vG> (x) M(vW)|seed>, M(e) applying types[j]^(e_j), Z or X, at
    seed site j.  Cl+Q has W = I_k; the repetition construction has W = Q, a
    Bell seed and types "XZ"; a code state has W of width 0 and a 0-party
    seed.  G must have full row rank, so each message gives one codeword and
    the q^k * s terms are distinct."""

    def __init__(self, G: FFMatrix, W: FFMatrix, seed: SparseState, types: str):
        if not len(types) == W.cols == seed.n or set(types) - set("XZ"):
            raise LayoutMismatch(f"types {types!r} (X or Z) for a {seed.n}-party seed")
        self.G, self.W, self.seed, self.types = G, W, seed, types
        self.x_sites = [j for j, t in enumerate(types) if t == "X"]
        self.z_sites = [j for j, t in enumerate(types) if t == "Z"]

    @property
    def n(self) -> int:
        return self.G.cols + self.seed.n

    @property
    def q(self) -> int:
        return self.seed.q

    @property
    def support(self) -> int:
        return self.q ** self.G.rows * self.seed.support

    def check_cap(self) -> None:
        if self.support > max_terms():
            raise TooLarge(f"q^k * seed support = {self.q}^{self.G.rows} * "
                           f"{self.seed.support} exceeds the term cap")

    # A word's label word[G.cols:] acts on the seed through its exponents at
    # the X sites (ex) and at the Z sites (ez); both methods list seed terms in
    # seed order.

    def _shifted(self, ex) -> list:
        """The seed keys, each X site moved by field addition of its exponent."""
        sp = self.seed.spec
        out = []
        for key in self.seed.terms:
            symbols = list(key)
            for j, a in zip(self.x_sites, ex):
                symbols[j] = sp.add(symbols[j], a)
            out.append(tuple(symbols))
        return out

    def _phases(self, ez) -> list:
        """Each seed term's power of w: sum int(e_j) * int(symbol) over the Z sites."""
        return [sum(a * key[j] for j, a in zip(self.z_sites, ez)) % self.q
                for key in self.seed.terms]

    def terms(self):
        """(key, amplitude) pairs, messages in lexicographic order, then seed
        terms in seed order.  Shifted keys are tabled per X part of the label,
        amplitudes per Z part, and one amplitude object serves each (seed
        term, phase).  The term cap is checked before the first term."""
        self.check_cap()
        powers = [[amp.mul_root(t) for t in range(self.q)] for amp in self.seed.terms.values()]
        tails = lru_cache(maxsize=None)(self._shifted)

        @lru_cache(maxsize=None)
        def amps(ez):
            return list(map(getitem, powers, self._phases(ez)))

        n, xs, zs = self.G.cols, self.x_sites, self.z_sites
        # words of [G | W]: a codeword, then its label
        for word in enumerate_codewords(LinearCode(self.G.hstack(self.W))):
            label = word[n:]
            yield from zip(map(word[:n].__add__, tails(tuple(map(label.__getitem__, xs)))),
                           amps(tuple(map(label.__getitem__, zs))))

    def materialize(self) -> SparseState:
        # a root of unity times a nonzero seed amplitude is never zero
        return SparseState._of_nonzero(self.n, self.seed.spec, dict(self.terms()))

    def chunks(self):
        """The text of format_state(self.materialize()), one piece per word,
        without building the state.  Keys are codeword + shifted seed key, and
        codewords are distinct, so the words of [G | W] in codeword order, each
        followed by its label's seed lines sorted by shifted key, give the
        sorted key order.  The words come in that order from the RREF R of
        [G | W]: G has full row rank, so every pivot of R lies in G's columns,
        where R's rows are unit vectors; a word's symbols up to the i-th pivot
        depend only on its first i message symbols, and message order is
        codeword order.  The term cap is checked here, before the first piece
        is asked for.

        A word costs one lookup of its label's lines, joined by its codeword's
        text; they are tabled per label, and their heads per X part, only where
        the table can hold no more lines than there are words; no word is
        kept, so memory grows with neither the q^k words nor the q^k * s terms."""
        self.check_cap()
        R = matrix_rref(self.G.hstack(self.W))[0]
        words = enumerate_codewords(LinearCode(R))
        n, q, s = self.G.cols, self.q, self.seed.support
        sep = " " if self.seed.n else ""  # a code state's lines have no seed key
        # " : coefficients" of each seed amplitude times each power of w
        texts = {}
        for amp in self.seed.terms.values():
            if amp.coeffs not in texts:
                texts[amp.coeffs] = [" : " + " ".join(map(str, amp.mul_root(t).coeffs)) + "\n"
                                     for t in range(q)]
        amp_texts = [texts[amp.coeffs] for amp in self.seed.terms.values()]

        def tabled(fn, sites):
            return lru_cache(maxsize=None)(fn) if q ** sites * s <= q ** self.G.rows else fn

        def heads(ex):
            """(seed term, its shifted key's text) in shifted key order."""
            tails = self._shifted(ex)
            return [(i, sep + " ".join(map(str, tails[i])))
                    for i in sorted(range(s), key=tails.__getitem__)]

        def block(label):
            # led by "", so that joining with the codeword's text starts each line
            ph = self._phases(tuple(map(label.__getitem__, self.z_sites)))
            ex = tuple(map(label.__getitem__, self.x_sites))
            return ["", *(head + amp_texts[i][ph[i]] for i, head in heads(ex))]

        heads = tabled(heads, len(self.x_sites))
        block = tabled(block, self.W.cols)
        prefix = " ".join(["%d"] * n)
        return itertools.chain(
            [f"STATE {self.n} {q}\n"],
            ((prefix % word[:n]).join(block(word[n:])) for word in words))


def code_fibred(code: LinearCode) -> FibredState:
    """state_from_code's description: W of width 0 and a 0-party seed."""
    spec = code.spec
    point = SparseState(0, spec, {(): Cyclotomic.integer(spec.q, 1)})
    return FibredState(code.G, FFMatrix(spec, [[]] * code.k), point, "")


def state_from_code(code: LinearCode) -> SparseState:
    """Equally weighted superposition of all codewords (amplitude 1 each)."""
    return code_fibred(code).materialize()


def weyl_basis(seed: SparseState, k: int):
    """M(v) seed for all v in [q]^n, lexicographic; Z on first k sites."""
    n, q = seed.n, seed.q
    for v in itertools.product(range(q), repeat=n):
        yield apply_weyl(seed, WeylWord.zx_split(n, v, k))


def tensor(s1: SparseState, s2: SparseState) -> SparseState:
    if s1.spec != s2.spec:
        raise SpecMismatch("tensor factors live over different fields")
    if s1.support * s2.support > max_terms():
        raise TooLarge("tensor product exceeds the term cap")
    terms = {}
    for k1, a1 in s1.terms.items():
        for k2, a2 in s2.terms.items():
            terms[k1 + k2] = a1 * a2
    return SparseState(s1.n + s2.n, s1.spec, terms)


def inner_product(s1: SparseState, s2: SparseState) -> Cyclotomic:
    """<s1|s2> over the shared support, exact."""
    if s1.n != s2.n or s1.spec != s2.spec:
        raise ShapeMismatch("states have different shape")
    acc = Cyclotomic.zero(s1.q)
    for key in s1.terms.keys() & s2.terms.keys():
        acc = acc + s1.terms[key].conj() * s2.terms[key]
    return acc


def cl_plus_q(code: LinearCode, quantum_seed: SparseState, variant: str = "direct") -> SparseState:
    """The state that cl_plus_q_fibred describes."""
    return cl_plus_q_fibred(code, quantum_seed, variant).materialize()


def cl_plus_q_fibred(code: LinearCode, quantum_seed: SparseState,
                     variant: str = "direct") -> FibredState:
    """Concatenate codewords with Weyl-basis states over the seed.

    direct: the code itself supplies the classical part, needs n_Q = k;
    dual: the dual code supplies the classical part, needs n_Q = n - k.
    The message tuple doubles (lexicographically) as the Weyl exponent
    vector, which is the free bijection the construction needs.
    """
    if code.spec != quantum_seed.spec:
        raise SpecMismatch("code and seed live over different fields")
    if variant == "direct":
        cl = code
    elif variant == "dual":
        cl = dual_code(code)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    nq = quantum_seed.n
    if nq != cl.k:
        raise SizeMismatch(
            f"seed has {nq} parties but the classical code carries {cl.k} message symbols"
        )
    # seed uniformity block size: number of leading Z sites in the word; for a
    # minimal-support seed from an [n_Q, r_Q] code this is r_Q, recovered as
    # log_q(support) when the seed is minimal
    zk = _z_block_size(quantum_seed)
    types = "Z" * zk + "X" * (nq - zk)
    return FibredState(cl.G, FFMatrix.identity(code.spec, cl.k), quantum_seed, types)


def _z_block_size(seed: SparseState) -> int:
    k = 0
    while seed.q ** k < seed.support:
        k += 1
    if seed.q ** k != seed.support:
        raise SizeMismatch(f"seed support {seed.support} is not a power of q = {seed.q}; "
                           "need a minimal-support seed")
    return k


def bell_pair(spec: FieldSpec) -> SparseState:
    """Unnormalized sum_r |r, r> over GF(q)."""
    return ghz(2, spec)


def bell(spec: FieldSpec, l: int, m: int) -> SparseState:
    """X^l (x) Z^m applied to sum_r |r, r>; l and m are field reprs in [0, q)."""
    if not (0 <= l < spec.q and 0 <= m < spec.q):
        raise OutOfRange(f"bell needs l and m in [0, {spec.q}), got {l} and {m}")
    word = WeylWord(2, z=(((1, m),) if m else ()), x=(((0, l),) if l else ()))
    return apply_weyl(bell_pair(spec), word)


def ghz(n: int, spec: FieldSpec) -> SparseState:
    one = Cyclotomic.integer(spec.q, 1)
    return SparseState(n, spec, {(r,) * n: one for r in range(spec.q)})


def cl_plus_q_repetition(G: FFMatrix, Q: QMatrix) -> SparseState:
    """The state that repetition_fibred describes."""
    return repetition_fibred(G, Q).materialize()


def repetition_fibred(G: FFMatrix, Q: QMatrix) -> FibredState:
    """sum_v |vG> (x) X^(vQ1) Z^(vQ2) sum_l |l, l>.  The decomposition checks
    run here: a pair that passes them is an [n, (n+1)/2] pair with n odd, and
    its state is AME(n+2, q); any other pair raises."""
    report = verify_decomposition(G, Q)
    if not report.all_pass:
        raise CertificationMissing("(G, Q) failed decomposition checks: "
                                   + "; ".join(report.failures))
    # G has full row rank (checked by verify_decomposition); the label
    # (alpha, beta) = vQ acts as X^alpha (x) Z^beta on the Bell pair
    return FibredState(G, Q.as_matrix(), bell_pair(G.spec), "XZ")


def local_fourier(state: SparseState, sites) -> SparseState:
    """Apply F = sum_{i,j} w^{ij} |i><j| at each listed site."""
    sp = state.spec
    q = sp.q
    terms = dict(state.terms)
    for site in sites:
        if len(terms) * q > max_terms():
            raise TooLarge("Fourier expansion exceeds the term cap")
        new_terms = {}
        for key, amp in terms.items():
            j = key[site]
            for i in range(q):
                new_key = key[:site] + (i,) + key[site + 1:]
                contrib = amp.mul_root(i * j)
                prev = new_terms.get(new_key)
                new_terms[new_key] = contrib if prev is None else prev + contrib
        terms = {k: v for k, v in new_terms.items() if not v.is_zero()}
    return SparseState(state.n, sp, terms)


def ame_5_q(spec: FieldSpec) -> SparseState:
    """sum_{l,m} |l, m, l+m> (x) X^l Z^m sum_r |r, r> over GF(q): the repetition
    construction with G = [[1,0,1],[0,1,1]] and Q = I, which passes the checks
    for every q (the [3,2] parity code is MDS, the kernel is {0}, rank Q = 2)."""
    return repetition_fibred(*_ame_5_q_matrices(spec)).materialize()


def _ame_5_q_matrices(spec: FieldSpec):
    return FFMatrix(spec, [[1, 0, 1], [0, 1, 1]]), QMatrix(spec, (1, 0), (0, 1))


def ame_7_4() -> SparseState:
    """The closed-form AME(7,4): [5,3]_4 codewords with Bell labels
    alpha = i+j, beta = i+x*l."""
    return repetition_fibred(*construct_G_Q(gf(4))).materialize()


def builtin_state(name: str, **kwargs):
    """Named built-ins; matrix entries return (G, Q) pairs, not states, and
    the AME states their FibredState descriptions (materialize() gives the
    state).  Each takes exactly its own flags: a missing one and one it does
    not take are both usage errors."""
    if name not in _BUILTINS:
        raise UnknownName(f"unknown builtin {name!r}")
    takes, factory = _BUILTINS[name]
    for key in ("q", "n", "l", "m"):
        given = kwargs.get(key) is not None
        if given != (key in takes):
            raise KuniError(f"builtin {name!r} {'takes no' if given else 'needs'} --{key}")
    return factory(*(int(kwargs[key]) for key in takes))


# name -> (the flags it takes, in order, and its factory of them); each
# factory looks its functions up when called, so a wrapper set on a module
# name (a test's patch, the benchmark's tracer) applies
_BUILTINS = {
    "ghz": (("n", "q"), lambda n, q: ghz(n, gf(q))),
    "bell": (("q", "l", "m"), lambda q, l, m: bell(gf(q), l, m)),
    "ame_5_q": (("q",), lambda q: repetition_fibred(*_ame_5_q_matrices(gf(q)))),
    "ame_7_4": ((), lambda: repetition_fibred(*construct_G_Q(gf(4)))),
    "ame_19_17_matrices": ((), lambda: ame_19_17_matrices()),
    "ame_21_19_matrices": ((), lambda: ame_21_19_matrices()),
}


def ame_19_17_matrices():
    """Hard-coded 9x17 generator and label columns for AME(19,17)."""
    spec = gf(17)
    A_rows = [
        [1, 1, 1, 1, 1, 1, 1, 1, 1],
        [1, 8, 2, 15, 7, 4, 6, 5, 9],
        [1, 2, 15, 7, 4, 6, 5, 9, 13],
        [1, 15, 7, 4, 6, 5, 9, 13, 12],
        [1, 7, 4, 6, 5, 9, 13, 12, 14],
        [1, 4, 6, 5, 9, 13, 12, 14, 11],
        [1, 6, 5, 9, 13, 12, 14, 11, 3],
        [1, 5, 9, 13, 12, 14, 11, 3, 16],
        [1, 9, 13, 12, 14, 11, 3, 16, 10],
    ]
    G = shifted_identity_block(FFMatrix(spec, A_rows))
    Q = QMatrix(spec, (1, 13, 12, 14, 11, 3, 16, 10, 0), (0,) * 8 + (1,))
    return G, Q


def ame_21_19_matrices():
    """Hard-coded 10x19 generator and label columns for AME(21,19)."""
    spec = gf(19)
    A_rows = [
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        [1, 18, 6, 8, 5, 11, 3, 16, 7, 10],
        [1, 6, 8, 5, 11, 3, 16, 7, 10, 13],
        [1, 8, 5, 11, 3, 16, 7, 10, 13, 4],
        [1, 5, 11, 3, 16, 7, 10, 13, 4, 17],
        [1, 11, 3, 16, 7, 10, 13, 4, 17, 9],
        [1, 3, 16, 7, 10, 13, 4, 17, 9, 15],
        [1, 16, 7, 10, 13, 4, 17, 9, 15, 12],
        [1, 7, 10, 13, 4, 17, 9, 15, 12, 14],
        [1, 10, 13, 4, 17, 9, 15, 12, 14, 2],
    ]
    G = shifted_identity_block(FFMatrix(spec, A_rows))
    Q = QMatrix(spec, (1, 13, 4, 17, 9, 15, 12, 14, 2, 0), (0,) * 9 + (1,))
    return G, Q


# --- state file format ------------------------------------------------------
# "STATE n q"; then per term: n space-separated symbol reprs, a colon, then
# q space-separated integer cyclotomic coefficients.  Terms are written in
# sorted key order so equal states round-trip byte-identically.

def format_state(state: SparseState) -> str:
    # a StringIO keeps no string per line alive, which halves the peak memory
    # of joining a list of lines
    out = io.StringIO()
    out.writelines(state.chunks())
    return out.getvalue()


def read_state(text: str):
    """(n, spec, terms) of a state file: `terms` checks the lines in file
    order, yields each one's (key, amplitude) and lets it go, and raises
    FormatError at the first bad one.  A zero line is checked, then dropped;
    a key that repeats any earlier line's, zero or not, is rejected."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    parts = lines[0].split() if lines else []
    if parts[:1] != ["STATE"]:
        raise FormatError("missing STATE header")
    try:
        n, q = int(parts[1]), int(parts[2])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad STATE header: {lines[0]!r}") from exc
    if len(parts) != 3 or n < 1:
        raise FormatError(f"bad STATE header: {lines[0]!r}")
    spec = gf(q)
    lines.reverse()  # popped from the end, in file order
    lines.pop()
    return n, spec, _term_lines(lines, n, q)


def _term_lines(lines: list, n: int, q: int):
    ident = bytes if q <= 256 else tuple  # a cheap exact stand-in for a key
    seen = set()  # every key so far, zero lines included
    amps = {}  # coefficient text -> its one amplitude, or None when it is zero
    while lines:
        ln = lines.pop()
        left, colon, right = ln.partition(":")
        if not colon:
            raise FormatError(f"bad term line: {ln!r}")
        try:
            key = tuple(map(int, left.split()))
            coeffs = None if right in amps else tuple(map(int, right.split()))
        except ValueError as exc:
            raise FormatError(f"bad term line: {ln!r}") from exc
        if len(key) != n:
            raise FormatError(f"term has {len(key)} symbols, header says {n}")
        if min(key) < 0 or max(key) >= q:
            raise FormatError(f"symbol out of range [0, {q}) in {ln!r}")
        if coeffs is not None:
            if len(coeffs) != q:
                raise FormatError(f"term has {len(coeffs)} coefficients, expected {q}")
            amp = Cyclotomic(q, coeffs)
            amps[right] = None if amp.is_zero() else amp
        stand_in = ident(key)
        if stand_in in seen:
            raise FormatError(f"duplicate term {key}")
        seen.add(stand_in)
        amp = amps[right]
        if amp is not None:
            yield key, amp


def parse_state(text: str) -> SparseState:
    n, spec, terms = read_state(text)
    return SparseState._of_nonzero(n, spec, dict(terms))
