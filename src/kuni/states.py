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
from operator import itemgetter

from .codes import LinearCode, block_words, codeword_blocks, dual_code
from .cyclotomic import Cyclotomic
from .decomposition import QMatrix, construct_G_Q, verify_decomposition
from .errors import (
    CertificationMissing,
    FormatError,
    KuniError,
    LayoutMismatch,
    OutOfRange,
    RankDeficient,
    ShapeMismatch,
    SizeMismatch,
    SpecMismatch,
    TooLarge,
    UnknownName,
)
from .field import FFMatrix, FieldSpec, gf, matrix_rref

HARD_MAX_TERMS = 5 * 10 ** 7
DEFAULT_MAX_TERMS = 10 ** 7
# a state file writes q coefficients a term; it may hold as many as
# max_terms() terms over GF(16) do, so a small state over a large field is
# refused like a large one
FILE_COEFFICIENTS_PER_TERM = 16


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


def _check_file_size(state):
    """Refuse the text of a state whose support * q coefficients exceed the file cap."""
    cap = FILE_COEFFICIENTS_PER_TERM * max_terms()
    if state.support * state.q > cap:
        raise TooLarge(f"{state.support} terms of {state.q} coefficients each exceed the "
                       f"file cap of {cap} coefficients, {FILE_COEFFICIENTS_PER_TERM} a term "
                       "of the term cap")


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
                # a key table packs each symbol into bit_length(q - 1) bits
                if key and (min(key) < 0 or max(key) >= spec.q):
                    raise OutOfRange(f"term {key} has a symbol outside [0, {spec.q})")
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

    def columns(self):
        """(site columns, amplitudes) in term order: the keys transposed."""
        sites = list(zip(*self.terms)) or [()] * self.n
        return list(map(self.spec.column, sites)), list(self.terms.values())

    def chunks(self):
        """The text of format_state(self), one line at a time in sorted key order."""
        # the checks are made here, when called, before a line is asked for
        if self.n < 1:  # parse_state reads only states of at least one party
            raise ShapeMismatch(f"a state file needs at least one party, state has {self.n}")
        if self.support > max_terms():
            raise TooLarge(f"support {self.support} exceeds the term cap")
        _check_file_size(self)
        keys = sorted(self.terms)
        return itertools.chain([f"STATE {self.n} {self.q}\n"],
                               _lines(self.n, keys, map(self.terms.__getitem__, keys), {}))

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
        for name, part in (("Z", z), ("X", x)):  # a site may carry one Z and one X
            sites = _sites((site for site, _ in part), n, "a Weyl word")
            if len(set(sites)) < len(sites):
                raise ShapeMismatch(f"site {max(sites, key=sites.count)} has two {name} exponents")
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


def _sites(sites, n: int, owner: str) -> tuple:
    """The sites, each checked to lie in [0, n)."""
    sites = tuple(sites)
    for site in sites:
        if not 0 <= site < n:
            raise ShapeMismatch(f"site {site} of {owner} is not in [0, {n})")
    return sites


def apply_weyl(state: SparseState, word: WeylWord) -> SparseState:
    """Act with the word; support size is unchanged."""
    if word.n != state.n:
        raise LayoutMismatch(f"word covers {word.n} sites, state has {state.n}")
    sp = state.spec
    out = {}
    x_map = dict(word.x)
    z_map = dict(word.z)
    for key, amp in state.terms.items():
        new_key = list(key)
        for site, a in x_map.items():
            new_key[site] = sp.add(new_key[site], a)
        phase = 0
        for site, b in z_map.items():
            phase += int(b) * int(new_key[site])
        out[tuple(new_key)] = amp.mul_root(phase)
    return SparseState(state.n, sp, out)


class FibredState:
    """sum_v |vG> (x) M(vW)|seed>, M(e) applying types[j]^(e_j), Z or X, at
    seed site j.  Cl+Q has W = I_k; the repetition construction has W = Q, a
    Bell seed and types "XZ"; a code state has W of width 0 and a 0-party
    seed.  G, W and the seed share one field, and G has full row rank, so
    each message gives one codeword and the q^k * s terms are distinct: the
    RREF R of [G | W], made once here, has rank G.rows and its pivots in G."""

    def __init__(self, G: FFMatrix, W: FFMatrix, seed: SparseState, types: str):
        if not len(types) == W.cols == seed.n or set(types) - set("XZ"):
            raise LayoutMismatch(f"types {types!r} (X or Z) for a {seed.n}-party seed")
        if not G.spec == W.spec == seed.spec:
            raise SpecMismatch("code and seed live over different fields")
        R, rank, pivots = matrix_rref(G.hstack(W))
        if rank != G.rows or any(c >= G.cols for c in pivots):
            raise RankDeficient(f"generator {G.rows}x{G.cols} is not full row rank")
        self.G, self.W, self.seed, self.types, self.spec = G, W, seed, types, seed.spec
        self._code = LinearCode(R)  # R's words, walked by every _blocks()
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

    def _blocks(self):
        """The blocks of the words of [G | W] in codeword order
        (`codeword_blocks`), once the term cap is checked: R's rows are unit
        vectors at its pivots, all in G's columns, so R's message order is
        codeword order.  A key is a codeword + a shifted seed key, so each
        word's seed terms in `_order` give sorted key order, the file's."""
        if self.support > max_terms():
            raise TooLarge(f"q^k * seed support = {self.q}^{self.G.rows} * "
                           f"{self.seed.support} exceeds the term cap")
        return codeword_blocks(self._code)

    # A word's label, its symbols after G's columns, acts on the seed through
    # its exponents at the X sites (ex) and at the Z sites (ez).

    def _order(self, ex):
        """(perm, tails): the seed keys with each X site moved by field addition
        of its exponent, sorted, and the seed term indices in that order."""
        add, shift = self.spec.add, dict(zip(self.x_sites, ex))
        shifted = [tuple(add(s, shift[j]) if j in shift else s for j, s in enumerate(key))
                   for key in self.seed.terms]
        perm = sorted(range(len(shifted)), key=shifted.__getitem__)
        return perm, [shifted[i] for i in perm]

    def _tabled(self, fn, sites: int):
        """fn, tabled only where q^sites arguments of s terms each fit in q^k words."""
        tabled = self.q ** sites * self.seed.support <= self.q ** self.G.rows
        return lru_cache(maxsize=None)(fn) if tabled else fn

    def _block(self):
        """label -> (tails, amplitudes): its shifted seed keys in sorted order and
        their amplitudes.  Seed orders are tabled per X part of the label,
        amplitudes per Z part, and one amplitude object serves each (seed term,
        phase); each reader tables what it keeps per label."""
        q, xs, zs = self.q, self.x_sites, self.z_sites
        powers = [[amp.mul_root(t) for t in range(q)] for amp in self.seed.terms.values()]
        order = self._tabled(self._order, len(xs))

        def amps(ez):
            # a seed term's power of w: sum int(e_j) * int(symbol) over the Z sites
            return [row[sum(a * key[j] for j, a in zip(zs, ez)) % q]
                    for row, key in zip(powers, self.seed.terms)]

        amps = self._tabled(amps, len(zs))

        def block(label):
            perm, tails = order(tuple(map(label.__getitem__, xs)))
            return tails, list(map(amps(tuple(map(label.__getitem__, zs))).__getitem__, perm))

        return block

    def columns(self):
        """(site columns, amplitudes) in sorted key order, the cap checked first
        (`_blocks`): each codeword symbol once per seed term (`FieldSpec.stretch`)
        and each seed site's column from the labels' tails (`_block`)."""
        spec, n, s = self.spec, self.G.cols, self.seed.support
        block = self._tabled(self._block(), self.W.cols)
        columns, amps = [[] for _ in range(self.n)], []
        for cols in self._blocks():
            parts = list(map(block, block_words(cols, slice(n, None))))
            for site, col in zip(columns, cols[:n]):
                site.append(spec.stretch(col, s))
            for j, site in enumerate(columns[n:]):
                seed_keys = itertools.chain.from_iterable(tails for tails, _ in parts)
                site.append(spec.column(map(itemgetter(j), seed_keys)))
            amps += itertools.chain.from_iterable(part_amps for _, part_amps in parts)
        return list(map(spec.join, columns)), amps

    def materialize(self) -> SparseState:
        columns, amps = self.columns()
        # a root of unity times a nonzero seed amplitude is never zero; the
        # keys are the columns' words, () for each of a 0-party state's terms
        return SparseState._of_nonzero(self.n, self.spec, dict(zip(block_words(columns), amps)))

    def chunks(self):
        """The text of format_state(self.materialize()), one piece per word of
        `_blocks()`, in `columns()`'s order, without building the state; the
        term cap and the file cap are checked here, before the first piece is
        asked for.  A word costs one lookup of its label's lines (tabled per
        label), joined by its codeword's text; no word is kept, so memory grows
        with neither the q^k words nor the q^k * s terms."""
        blocks = self._blocks()
        _check_file_size(self)
        n, block, texts = self.G.cols, self._block(), {}
        # led by "", so that joining with the codeword's text starts each line
        lines = self._tabled(lambda label: ["", *_lines(self.seed.n, *block(label), texts)],
                             self.W.cols)
        sep = " " if self.seed.n else ""  # a code state's lines have no seed key
        prefix = " ".join(["%d"] * n) + sep
        return itertools.chain([f"STATE {self.n} {self.q}\n"], itertools.chain.from_iterable(
            map(str.join, map(prefix.__mod__, block_words(cols, slice(n))),
                map(lines, block_words(cols, slice(n, None)))) for cols in blocks))


def _lines(width: int, keys, amps, texts: dict):
    """The `key : coefficients` line of each width-symbol key and its amplitude;
    `texts` keeps the " : coefficients" text of each coefficient vector met."""
    head = " ".join(["%d"] * width)
    for key, amp in zip(keys, amps):
        text = texts.get(amp.coeffs)
        if text is None:
            text = texts[amp.coeffs] = " : " + " ".join(map(str, amp.coeffs)) + "\n"
        yield head % key + text


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
    k = seed.spec.log(seed.support)
    if k is None:
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
    for site in _sites(sites, state.n, "a Fourier transform"):
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
    """The 9x17 generator and label columns for AME(19,17)."""
    return construct_G_Q(gf(17))


def ame_21_19_matrices():
    """The 10x19 generator and label columns for AME(21,19)."""
    return construct_G_Q(gf(19))


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


# The term lines are read in blocks, each cut at the first line end at least
# this many characters on, so that one block's lines and tokens are held at a time.
_BLOCK_CHARS = 1 << 12


def read_state(text: str):
    """(n, spec, columns, amps) of a state file: its nonzero terms in file
    order, one `FieldSpec.column` per site (none when the file has no term
    line) and one amplitude per term, one object per coefficient text.  The
    lines are checked a block at a time (`_term_block`); a zero line is
    checked, then dropped, and a key that repeats any earlier line's, zero or
    not, is rejected."""
    blocks = _line_blocks(text)
    lines = next(blocks, [])
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
    del lines[0]
    symbols = _Symbols(q)  # each token -> its symbol
    amps = {}  # each coefficient text met -> its one amplitude, or None when it is zero
    seen = set()  # the code (`FieldSpec.pack`) of every key so far, zero lines included
    block_columns, kept = [], []  # each block's columns, and the amplitudes
    for lines in itertools.chain([lines], blocks):
        lines = list(filter(str.strip, lines))
        if lines:
            cols, block_amps = _term_block(lines, n, spec, symbols, amps, seen)
            block_columns.append(cols)
            kept += block_amps
    # nothing is sized by n before a line has n symbols
    return n, spec, list(map(spec.join, zip(*block_columns))), kept


def _line_blocks(text: str):
    """The lines of text.strip() (`str.splitlines`), in blocks cut after a
    newline, without a copy of the whole stripped text."""
    head, tail = text[:4096], text[-4096:]  # longer whitespace is stripped by a copy
    start = len(head) - len(head.lstrip()) if head.strip() else len(text) - len(text.lstrip())
    end = len(text) - len(tail) + len(tail.rstrip()) if tail.strip() else len(text.rstrip())
    while start < end:
        cut = text.find("\n", start + _BLOCK_CHARS, end) + 1 or end
        yield text[start:cut].splitlines()
        start = cut


class _Symbols(dict):
    """token -> int(token) in [0, q); any other token raises ValueError."""

    def __init__(self, q: int):
        super().__init__((str(x), x) for x in range(q))
        self.q = q

    def __missing__(self, token):
        if 0 <= int(token) < self.q:
            return int(token)
        raise ValueError(f"symbol {token} out of range")


def _term_block(lines: list, n: int, spec: FieldSpec, symbols, amps: dict, seen: set):
    """(site columns, amplitudes) of the nonzero terms of nonblank term lines,
    each check made on the whole block: one ':' a line, n symbols before it,
    q coefficients in each new coefficient text, and no repeated key.  A
    block that fails one is checked again by `_first_bad_line`."""
    count, q = len(lines), spec.q
    lefts, colons, rights = zip(*map(str.partition, lines, itertools.repeat(":")))
    tokens = " : ".join(lefts).split()  # a left holds no ':', so the ':' tokens part the lines
    try:
        if "" in colons or len(tokens) != count * (n + 1) - 1 \
                or tokens[n::n + 1].count(":") != count - 1:
            raise ValueError("a line without one ':' after n symbols")
        cols = [spec.column(map(symbols.__getitem__, tokens[j::n + 1])) for j in range(n)]
        texts = set(rights)
        for right in texts.difference(amps):
            coeffs = tuple(map(int, right.split()))
            if len(coeffs) != q:
                raise ValueError(f"{len(coeffs)} coefficients")
            amp = Cyclotomic(q, coeffs)
            amps[right] = None if amp.is_zero() else amp
        codes = set(spec.pack(cols))
        if len(codes) != count or not seen.isdisjoint(codes):
            raise ValueError("a repeated key")
    except ValueError:
        _first_bad_line(lines, n, spec, seen)
    seen |= codes
    block_amps = list(map(amps.__getitem__, rights))
    if any(amps[right] is None for right in texts):  # zero lines are checked, then dropped
        keep = [i for i, amp in enumerate(block_amps) if amp is not None]
        cols = [spec.column(map(col.__getitem__, keep)) for col in cols]
        block_amps = list(map(block_amps.__getitem__, keep))
    return cols, block_amps


def _first_bad_line(lines: list, n: int, spec: FieldSpec, seen: set):
    """Raise the FormatError of the first bad line of a block, checking one
    line at a time."""
    q = spec.q
    for ln in lines:
        left, colon, right = ln.partition(":")
        if not colon:
            raise FormatError(f"bad term line: {ln!r}")
        try:
            key, coeffs = tuple(map(int, left.split())), tuple(map(int, right.split()))
        except ValueError as exc:
            raise FormatError(f"bad term line: {ln!r}") from exc
        if len(key) != n:
            raise FormatError(f"term has {len(key)} symbols, header says {n}")
        if min(key) < 0 or max(key) >= q:
            raise FormatError(f"symbol out of range [0, {q}) in {ln!r}")
        if len(coeffs) != q:
            raise FormatError(f"term has {len(coeffs)} coefficients, expected {q}")
        code = spec.pack([spec.column([s]) for s in key])[0]
        if code in seen:
            raise FormatError(f"duplicate term {key}")
        seen.add(code)
    raise AssertionError("a term block failed its checks, but none of its lines did")


def parse_state(text: str) -> SparseState:
    n, spec, columns, amps = read_state(text)
    return SparseState._of_nonzero(n, spec, dict(zip(zip(*columns), amps)))
