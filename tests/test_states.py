"""Sparse state construction: Weyl operators, code states, Cl+Q variants."""

import itertools
import random

import pytest

import kuni.codes
from kuni.codes import LinearCode, dual_code, mds_from_singleton
from kuni.cyclotomic import Cyclotomic
from kuni.decomposition import (
    QMatrix,
    construct_G_Q,
    search_Q,
    shifted_identity_block,
    verify_decomposition,
)
from kuni.errors import (
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
    UnsupportedSize,
)
from kuni.field import FFMatrix, gf, make_field, matrix_rank
from kuni.states import (
    FibredState,
    SparseState,
    WeylWord,
    ame_5_q,
    ame_7_4,
    ame_19_17_matrices,
    ame_21_19_matrices,
    apply_weyl,
    bell,
    bell_pair,
    builtin_state,
    cl_plus_q,
    cl_plus_q_fibred,
    cl_plus_q_repetition,
    code_fibred,
    format_state,
    ghz,
    inner_product,
    local_fourier,
    parse_state,
    read_state,
    repetition_fibred,
    state_from_code,
    tensor,
    weyl_basis,
)
from kuni.verify import KeyTable, gram_check, reduced_density, uniformity


def one(q):
    return Cyclotomic.integer(q, 1)


def test_sparse_state_drops_zero_amplitudes():
    sp = gf(3)
    s = SparseState(2, sp, {(0, 0): one(3), (1, 1): Cyclotomic.zero(3)})
    assert s.support == 1 and (1, 1) not in s.terms


def test_equality_is_semantic():
    sp = gf(3)
    a = SparseState(1, sp, {(0,): Cyclotomic(3, [1, 1, 1])})  # amp reduces to 0
    b = SparseState(1, sp, {})
    assert a.equals(b) and b.equals(a)
    # the same terms are another state over another modulus of GF(8), and
    # a state of other n is no state of this one
    fields = (gf(8), make_field(2, 3, (1, 0, 1, 1)))
    a, b = (SparseState(2, sp, {(1, 2): one(8), (3, 4): one(8)}) for sp in fields)
    assert fields[0] != fields[1] and a.terms.keys() == b.terms.keys()
    assert not a.equals(b) and not b.equals(a) and a.equals(a)
    wider = SparseState(3, gf(3), {(0, 0, 0): one(3)})
    assert not SparseState(2, gf(3), {(0, 0): one(3)}).equals(wider)


def test_bell_ghz_supports():
    assert bell_pair(gf(5)).support == 5
    assert ghz(4, gf(3)).support == 3
    assert state_from_code(mds_from_singleton(4, 2, gf(3))).support == 9


def test_apply_weyl_x_shifts_by_field_addition():
    sp = gf(4)
    s = SparseState(1, sp, {(2,): one(4)})  # |x>
    shifted = apply_weyl(s, WeylWord(1, x=((0, 3),)))  # X^{1+x}
    assert set(shifted.terms) == {(1,)}  # x + (1+x) = 1


def test_apply_weyl_z_phase_and_order():
    sp = gf(3)
    s = SparseState(1, sp, {(1,): one(3)})
    # X first maps |1> -> |2>, then Z^1 contributes w^2
    out = apply_weyl(s, WeylWord(1, z=((0, 1),), x=((0, 1),)))
    assert out.terms[(2,)].equals(Cyclotomic.root(3, 2))


def test_apply_weyl_preserves_support_and_norm():
    rng = random.Random(1)
    sp = gf(5)
    s = state_from_code(mds_from_singleton(4, 2, sp))
    norm = inner_product(s, s)
    for _ in range(10):
        v = [rng.randrange(5) for _ in range(4)]
        w = WeylWord.zx_split(4, v, 2)
        t = apply_weyl(s, w)
        assert t.support == s.support
        assert inner_product(t, t).equals(norm)


def test_apply_weyl_preserves_uniformity():
    # local unitaries do not change entanglement structure
    rng = random.Random(2)
    sp = gf(3)
    s = state_from_code(mds_from_singleton(4, 2, sp))
    base = uniformity(s).max_verified_k
    for _ in range(5):
        v = [rng.randrange(3) for _ in range(4)]
        t = apply_weyl(s, WeylWord.zx_split(4, v, 2))
        assert uniformity(t).max_verified_k == base


def test_weyl_word_layout_checks():
    with pytest.raises(LayoutMismatch):
        WeylWord.zx_split(3, (1, 0), 1)
    with pytest.raises(LayoutMismatch):
        apply_weyl(bell_pair(gf(2)), WeylWord(3))


def test_weyl_words_and_fourier_take_only_sites_of_the_state():
    # a negative site would index from the end (X at -1 shifts site 1), and
    # one past n would raise a bare IndexError: both name the site instead
    s = ghz(2, gf(3))
    for z, x in (((), ((-1, 1),)), ((), ((2, 1),)), (((5, 1),), ())):
        with pytest.raises(ShapeMismatch, match=rf"site {(z or x)[0][0]} .*\[0, 2\)"):
            apply_weyl(s, WeylWord(2, z=z, x=x))
    for site in (2, -1):
        with pytest.raises(ShapeMismatch, match=rf"site {site} .*\[0, 2\)"):
            local_fourier(s, [site])
    assert apply_weyl(s, WeylWord(2, z=((1, 1),), x=((0, 1),))).support == 3
    assert local_fourier(s, [1]).equals(local_fourier(s, (1,)))


def test_weyl_words_refuse_a_site_repeated_within_z_or_x():
    # dict(word.x) would keep only the last exponent: X^1 X^1 at site 0
    # would act as X^1, not X^2
    s = ghz(2, gf(3))
    for z, x, part in (((), ((0, 1), (0, 1)), "X"), (((1, 1), (0, 2), (1, 2)), (), "Z")):
        with pytest.raises(ShapeMismatch, match=rf"site {(z or x)[-1][0]} has two {part} exponents"):
            WeylWord(2, z=z, x=x)
    # one Z and one X exponent at one site is a word: Z^1 X^2 at site 0
    word = WeylWord(2, z=((0, 1),), x=((0, 2), (1, 1)))
    assert apply_weyl(s, word).terms == {
        ((r + 2) % 3, (r + 1) % 3): Cyclotomic.root(3, (r + 2) % 3) for r in range(3)}


def test_weyl_basis_is_orthogonal_with_equal_norms():
    seed = ghz(3, gf(2))
    basis = list(weyl_basis(seed, 1))
    assert len(basis) == 8
    ok, gram = gram_check(basis)
    assert ok
    assert gram[0][0].as_integer() == seed.support


def test_bell_states_form_orthogonal_basis():
    sp = gf(3)
    basis = [bell(sp, l, m) for l in range(3) for m in range(3)]
    ok, gram = gram_check(basis)
    assert ok and gram[0][0].as_integer() == 3


def test_tensor_and_inner_product():
    b = bell_pair(gf(2))
    t = tensor(b, b)
    assert t.n == 4 and t.support == 4
    assert inner_product(t, t).as_integer() == 4
    with pytest.raises(SpecMismatch):
        tensor(b, bell_pair(gf(3)))


def test_inner_product_self_is_positive_integer():
    for s in (bell(gf(4), 2, 3), ghz(3, gf(5)), ame_5_q(gf(3))):
        val = inner_product(s, s).as_integer()
        assert isinstance(val, int) and val > 0


AME52_CLOSED_FORM = [
    # |000>phi+ + |011>psi+ + |101>phi- + |110>psi-
    ((0, 0, 0, 0, 0), 1), ((0, 0, 0, 1, 1), 1),
    ((0, 1, 1, 0, 1), 1), ((0, 1, 1, 1, 0), 1),
    ((1, 0, 1, 0, 0), 1), ((1, 0, 1, 1, 1), -1),
    ((1, 1, 0, 0, 1), 1), ((1, 1, 0, 1, 0), -1),
]


def ame52_closed_form():
    sp = gf(2)
    return SparseState(5, sp, {k: Cyclotomic.integer(2, c)
                               for k, c in AME52_CLOSED_FORM})


def test_cl_plus_q_matches_closed_form_expansion():
    code = LinearCode(FFMatrix(gf(2), [[1, 0, 1], [0, 1, 1]]))
    s = cl_plus_q(code, bell_pair(gf(2)))
    assert s.equals(ame52_closed_form())


def test_cl_plus_q_support_product_rule():
    for q, n, k in [(2, 3, 2), (3, 4, 2), (4, 5, 2)]:
        sp = gf(q)
        code = mds_from_singleton(n, k, sp)
        s = cl_plus_q(code, bell_pair(sp))
        assert s.support == q ** k * bell_pair(sp).support


def test_cl_plus_q_dual_variant():
    sp = gf(2)
    rep = LinearCode(FFMatrix(sp, [[1, 1, 1]]))
    s = cl_plus_q(rep, bell_pair(sp), variant="dual")
    assert s.n == 5 and s.support == 8
    assert uniformity(s).max_verified_k == 2


def test_cl_plus_q_shape_checks():
    sp = gf(2)
    code = LinearCode(FFMatrix(sp, [[1, 0, 1], [0, 1, 1]]))
    with pytest.raises(SizeMismatch):
        cl_plus_q(code, ghz(3, sp))  # seed party count != k
    with pytest.raises(SpecMismatch):
        cl_plus_q(code, bell_pair(gf(3)))
    with pytest.raises(ValueError):
        cl_plus_q(code, bell_pair(sp), variant="sideways")


def test_cl_plus_q_rejects_non_minimal_seed():
    sp = gf(2)
    code = LinearCode(FFMatrix(sp, [[1, 0, 1], [0, 1, 1]]))
    seed = SparseState(2, sp, {(0, 0): one(2), (0, 1): one(2), (1, 0): one(2)})
    with pytest.raises(SizeMismatch):
        cl_plus_q(code, seed)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ame_5_q_support(q):
    s = ame_5_q(gf(q))
    assert s.n == 5 and s.support == q ** 3


def test_cl_plus_q_repetition_small():
    G, Q = construct_G_Q(gf(5))
    s = cl_plus_q_repetition(G, Q)
    assert s.n == 7 and s.support == 5 ** 4


def test_cl_plus_q_repetition_rejects_bad_pair():
    G, _ = construct_G_Q(gf(5))
    bad = QMatrix(gf(5), (1, 2, 0), (2, 4, 0))
    with pytest.raises(CertificationMissing):
        cl_plus_q_repetition(G, bad)


def test_ame_7_4_is_the_gf4_repetition_state():
    G, Q = construct_G_Q(gf(4))
    assert ame_7_4().equals(cl_plus_q_repetition(G, Q))


def test_state_from_code_eq3_invariants():
    # support q^k and exactly k-uniform for small MDS codes with k <= n/2
    for n, k, q in [(2, 1, 2), (3, 1, 3), (4, 2, 3), (4, 2, 4), (5, 2, 5),
                    (6, 3, 5), (5, 2, 4)]:
        code = mds_from_singleton(n, k, gf(q))
        s = state_from_code(code)
        assert s.support == q ** k
        assert uniformity(s).max_verified_k == k


def test_local_fourier_yields_graph_state():
    # F on the last n-k sites of a code state gives the bipartite graph
    # state whose adjacency holds the A block of G = [I | A]
    from kuni.verify import stabilizer_check

    for n, k, q in [(3, 1, 2), (4, 2, 3), (4, 2, 5)]:
        sp = gf(q)
        code = mds_from_singleton(n, k, sp)
        g = local_fourier(state_from_code(code), range(k, n))
        adj = [[0] * n for _ in range(n)]
        for i in range(k):
            for j in range(n - k):
                adj[i][k + j] = code.G.data[i][k + j]
                adj[k + j][i] = code.G.data[i][k + j]
        ok, failing = stabilizer_check(g, FFMatrix(sp, adj))
        assert ok, f"[{n},{k}]_{q}: stabilizer {failing} fails"


def test_local_fourier_on_bell_pair():
    # F (x) F on sum_r |r,r> has full support with equal-modulus amplitudes
    out = local_fourier(bell_pair(gf(3)), [0, 1])
    assert out.support == 3  # interference collapses back to 3 terms


def test_builtin_state_dispatch():
    assert builtin_state("ghz", n=4, q=3).equals(ghz(4, gf(3)))
    assert builtin_state("bell", q=5, l=1, m=2).equals(bell(gf(5), 1, 2))
    assert builtin_state("ame_5_q", q=3).support == 27
    with pytest.raises(UnknownName):
        builtin_state("mystery")


# the AME(19,17) and AME(21,19) pairs as literal tables: the free block A of
# G = [I | A'] (shifted_identity_block) and the label columns (Q1, Q2)
LITERAL_A_19_17 = [
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
LITERAL_Q_19_17 = ((1, 13, 12, 14, 11, 3, 16, 10, 0), (0,) * 8 + (1,))
LITERAL_A_21_19 = [
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
LITERAL_Q_21_19 = ((1, 13, 4, 17, 9, 15, 12, 14, 2, 0), (0,) * 9 + (1,))


def test_hardcoded_ame_matrices_shapes():
    G17, Q17 = ame_19_17_matrices()
    assert G17.rows == 9 and G17.cols == 17 and Q17.k == 9
    G19, Q19 = ame_21_19_matrices()
    assert G19.rows == 10 and G19.cols == 19 and Q19.k == 10
    # the closed-form assembly, which the built-ins return, is the literal pair
    for q, A_rows, (q1, q2), (Gb, Qb) in ((17, LITERAL_A_19_17, LITERAL_Q_19_17, (G17, Q17)),
                                          (19, LITERAL_A_21_19, LITERAL_Q_21_19, (G19, Q19))):
        G, Q = construct_G_Q(gf(q))
        assert G == shifted_identity_block(FFMatrix(gf(q), A_rows)) and (Q.q1, Q.q2) == (q1, q2)
        assert G == Gb and (Q.q1, Q.q2) == (Qb.q1, Qb.q2)


def test_term_cap_respected(monkeypatch):
    monkeypatch.setenv("KUNI_MAX_TERMS", "10")
    with pytest.raises(TooLarge):
        state_from_code(mds_from_singleton(4, 2, gf(5)))
    with pytest.raises(TooLarge):
        tensor(bell_pair(gf(5)), bell_pair(gf(5)))


def test_local_fourier_meets_the_term_cap(monkeypatch):
    monkeypatch.setenv("KUNI_MAX_TERMS", "10")
    with pytest.raises(TooLarge, match="Fourier"):
        local_fourier(bell_pair(gf(5)), [0])  # 5 terms times 5 > 10


def test_sparse_state_shape_guards():
    sp = gf(3)
    with pytest.raises(ShapeMismatch):
        SparseState(2, sp, {(0, 1, 2): one(3)})
    for other in (ghz(3, sp), ghz(2, gf(5))):
        with pytest.raises(ShapeMismatch):
            inner_product(ghz(2, sp), other)


def test_sparse_state_rejects_symbols_outside_the_field():
    # 7 at q = 3 would spill into the next site's bits of a key table's code,
    # and the writer would write a file the reader refuses
    for key in ((7,), (-1,), (0, 3)):
        with pytest.raises(OutOfRange, match=r"outside \[0, 3\)"):
            SparseState(len(key), gf(3), {key: one(3)})
    assert SparseState(2, gf(3), {(0, 2): one(3)}).support == 1


def test_term_cap_hard_limit(monkeypatch):
    from kuni.states import HARD_MAX_TERMS, max_terms

    monkeypatch.setenv("KUNI_MAX_TERMS", str(10 ** 12))
    assert max_terms() == HARD_MAX_TERMS
    for bad in ("abc", "-5", "0", "", "1.5"):
        monkeypatch.setenv("KUNI_MAX_TERMS", bad)
        with pytest.raises(KuniError):
            max_terms()


def test_state_format_roundtrip():
    for s in (ame52_closed_form(), ame_5_q(gf(3)), bell(gf(4), 2, 1)):
        text = format_state(s)
        back = parse_state(text)
        assert back.equals(s)
        assert format_state(back) == text  # byte-identical


def test_parse_state_errors():
    with pytest.raises(FormatError):
        parse_state("2 2\n0 0 : 1 0\n")
    with pytest.raises(FormatError):
        parse_state("STATEX 2 2\n0 0 : 1 0\n")  # a longer keyword
    with pytest.raises(FormatError):
        parse_state("STATE 2 2\n0 0 1 0\n")  # missing colon
    with pytest.raises(FormatError):
        parse_state("STATE 2 2\n0 : 1 0\n")  # wrong arity
    with pytest.raises(FormatError):
        parse_state("STATE 2 2\n0 0 : 1\n")  # wrong coefficient count
    with pytest.raises(FormatError):
        parse_state("STATE a 2\n")  # non-integer header
    with pytest.raises(FormatError):
        parse_state("STATE 2\n")  # short header
    with pytest.raises(FormatError):
        parse_state("STATE 0 2\n")  # no parties
    with pytest.raises(FormatError):
        parse_state("STATE 2 2\n0 x : 1 0\n")  # non-integer symbol
    with pytest.raises(FormatError):
        parse_state("STATE 2 2\n0 0 : 1 y\n")  # non-integer coefficient
    with pytest.raises(FormatError):
        parse_state("STATE 2 2\n9 9 : 1 0\n")  # symbol outside GF(2)
    with pytest.raises(FormatError):
        parse_state("STATE 2 2\n0 -1 : 1 0\n")
    with pytest.raises(FormatError):
        parse_state("STATE 2 2\n0 0 : 1 0\n0 0 : 0 1\n")  # duplicate term
    with pytest.raises(UnsupportedSize):
        parse_state("STATE 2 2147483647\n")  # field order over the cap, fails fast


def test_parse_state_shares_amplitudes_and_drops_zero_lines():
    s = ame_5_q(gf(5))
    back = parse_state(format_state(s))
    assert back.equals(s)
    # one amplitude object per distinct coefficient text
    assert len({id(a) for a in back.terms.values()}) == len({a.coeffs for a in s.terms.values()})
    # 0 0 0 and, at prime q, 1 1 1 are zero: dropped, yet each key counts once
    back = parse_state("STATE 2 3\n0 0 : 0 0 0\n1 1 : 1 1 1\n2 2 : 1 0 0\n1 2 : 1 1 1\n")
    assert list(back.terms) == [(2, 2)]
    with pytest.raises(FormatError, match="duplicate"):
        parse_state("STATE 2 3\n0 0 : 1 1 1\n0 0 : 1 0 0\n")
    with pytest.raises(FormatError, match="duplicate"):
        parse_state("STATE 2 3\n0 0 : 1 0 0\n0 0 : 1 1 1\n")


# --- the fibred generator against the per-message constructions -------------

def _reference_cl_plus_q(code, seed, variant="direct"):
    """The per-message Cl+Q loop the fibred generator replaced: one apply_weyl
    state per message v, Z^v on the first log_q(support) seed sites and X^v on
    the rest."""
    cl = code if variant == "direct" else dual_code(code)
    zk = next(r for r in range(seed.n + 1) if seed.q ** r == seed.support)
    terms = {}
    for v in itertools.product(range(code.q), repeat=cl.k):
        for key, amp in apply_weyl(seed, WeylWord.zx_split(seed.n, v, zk)).terms.items():
            terms[cl.G.row_vector_mul(v) + key] = amp
    return SparseState(cl.n + seed.n, code.spec, terms)


def _reference_cl_plus_q_repetition(G, Q):
    """The per-message repetition loop: X^alpha (x) Z^beta on the Bell pair for
    the label (alpha, beta) = vQ of each message v, lexicographic."""
    seed = bell_pair(G.spec)
    terms = {}
    for v in itertools.product(range(G.spec.q), repeat=G.rows):
        alpha, beta = Q.label(v)
        word = WeylWord(2, z=(((1, beta),) if beta else ()), x=(((0, alpha),) if alpha else ()))
        for key, amp in apply_weyl(seed, word).terms.items():
            terms[G.row_vector_mul(v) + key] = amp
    return SparseState(G.cols + 2, G.spec, terms)


def _assert_same_state(fib, reference):
    """The description materializes to the reference with the same term order
    (witnesses depend on it), and its streamed file is byte-identical to the
    formatted one.  Its columns come in the file's order, strictly increasing
    keys, so every way into the sweep gives one key table: the fibred state's
    columns, the materialized state's, and those read back from its own file."""
    state = fib.materialize()
    assert state.equals(reference) and reference.equals(state)
    assert list(state.terms) == sorted(reference.terms)
    text = format_state(reference)
    assert format_state(state) == text
    # lines first: a failure names the first differing line instead of diffing the files
    streamed = "".join(fib.chunks())
    assert streamed.splitlines() == text.splitlines() and streamed == text
    keys = list(state.terms)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    n, spec, columns, amps = read_state(streamed)
    assert n == fib.n
    fibred = KeyTable.of(fib)
    assert fibred.size == fib.support and list(fibred.terms) == keys
    for table in (KeyTable.of(state), KeyTable(spec, columns, amps)):
        assert table.codes == fibred.codes
        assert table.pairs == fibred.pairs and table.norm == fibred.norm
        assert _coset_rows(table) == _coset_rows(fibred)


def _coset_rows(table):
    """The RREF rows of a table's support code, None where it has none."""
    return None if table.coset is None else table.coset.rref.data


def _random_monomial_seed(rng, spec, n, r):
    """An n-party seed on the words of a random [n, r] code (support q^r), in
    shuffled order, with random monomial amplitudes c * w^t."""
    q = spec.q
    while True:
        G = FFMatrix(spec, [[rng.randrange(q) for _ in range(n)] for _ in range(r)])
        if matrix_rank(G) == r:
            break
    keys = sorted(LinearCode(G).codeword_set())
    rng.shuffle(keys)
    return SparseState(n, spec, {key: Cyclotomic.root(q, rng.randrange(q),
                                                      rng.choice([-2, -1, 1, 3]))
                                 for key in keys})


def _dense_pair(G, Q, rng):
    """(M G D P, M Q) for a random invertible M, nonzero diagonal D and column
    permutation P: the same certificate with every entry of G filled."""
    sp, k, n = G.spec, G.rows, G.cols
    while True:
        M = FFMatrix(sp, [[rng.randrange(sp.q) for _ in range(k)] for _ in range(k)])
        MG = M.matmul(G).data
        if matrix_rank(M) == k and all(0 not in row for row in MG):
            break
    scale = [rng.randrange(1, sp.q) for _ in range(n)]
    perm = rng.sample(range(n), n)
    G2 = FFMatrix(sp, [[sp.mul(row[c], scale[c]) for c in perm] for row in MG])
    q1, q2 = zip(*M.matmul(Q.as_matrix()).data)
    return G2, QMatrix(sp, q1, q2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_ame_5_q_matches_per_message_oracle(q):
    sp = gf(q)
    G = FFMatrix(sp, [[1, 0, 1], [0, 1, 1]])
    _assert_same_state(builtin_state("ame_5_q", q=q),
                       _reference_cl_plus_q_repetition(G, QMatrix(sp, (1, 0), (0, 1))))


def test_ame_7_4_matches_per_message_oracle():
    _assert_same_state(builtin_state("ame_7_4"), _reference_cl_plus_q_repetition(*construct_G_Q(gf(4))))


@pytest.mark.parametrize("q", [4, 5, 7])
@pytest.mark.parametrize("variant", ["direct", "dual"])
@pytest.mark.parametrize("seed_kind", ["bell", "ghz", "monomial"])
def test_cl_plus_q_matches_per_message_oracle(q, variant, seed_kind):
    sp = gf(q)
    rng = random.Random(q * 100 + len(variant) * 10 + len(seed_kind))
    n_seed = 2 if seed_kind == "bell" else 3
    # the classical code carries n_seed message symbols in either variant
    k = n_seed if variant == "direct" else 5 - n_seed
    code = mds_from_singleton(5, k, sp)
    seed = {"bell": lambda: bell_pair(sp), "ghz": lambda: ghz(3, sp),
            "monomial": lambda: _random_monomial_seed(rng, sp, 3, 2)}[seed_kind]()
    _assert_same_state(cl_plus_q_fibred(code, seed, variant=variant),
                       _reference_cl_plus_q(code, seed, variant=variant))


def test_clq_witness_is_the_same_in_memory_and_from_the_file():
    # the dual [4,1]_3 code with a GHZ(3) seed is refuted at |S| = 3; the
    # witness names the first nonzero off-diagonal in term order, so it is
    # the same only if the terms and the file list the keys in one order
    sp = gf(3)
    code, seed = mds_from_singleton(4, 1, sp), ghz(3, sp)
    fib = cl_plus_q_fibred(code, seed, variant="dual")
    _assert_same_state(fib, _reference_cl_plus_q(code, seed, variant="dual"))
    _, spec, columns, amps = read_state("".join(fib.chunks()))
    in_memory = uniformity(fib).first_failure
    assert in_memory == uniformity(KeyTable(spec, columns, amps)).first_failure
    assert in_memory == uniformity(fib.materialize()).first_failure
    assert in_memory[0] == (0, 1, 4)
    rho = reduced_density(fib, in_memory[0])  # a fibred state's own reduction, unmaterialized
    assert rho.entries == reduced_density(fib.materialize(), in_memory[0]).entries


def test_clq_rep_on_dense_pairs_matches_per_message_oracle():
    rng = random.Random(6)
    G7, Q7 = construct_G_Q(gf(7))
    G9 = mds_from_singleton(5, 3, gf(9)).G  # an AME pair needs [n, (n+1)/2], n odd
    for G, Q in ((G7, Q7), (G9, search_Q(G9))):
        G2, Q2 = _dense_pair(G, Q, rng)
        assert verify_decomposition(G2, Q2).all_pass
        assert all(0 not in row for row in G2.data)  # dense: no zero entry
        _assert_same_state(repetition_fibred(G2, Q2), _reference_cl_plus_q_repetition(G2, Q2))
    # the decompose --q 9 pair made dense, the shape the build benchmark writes:
    # 9^5 words are too many for the per-message oracle, so only the file is checked
    G2, Q2 = _dense_pair(*construct_G_Q(gf(9)), rng)
    fib = repetition_fibred(G2, Q2)
    streamed, text = "".join(fib.chunks()), format_state(fib.materialize())
    assert streamed.splitlines() == text.splitlines() and streamed == text


def test_code_state_matches_codeword_oracle():
    code = mds_from_singleton(6, 3, gf(8))
    reference = SparseState(6, code.spec, {code.G.row_vector_mul(v): one(8)
                                           for v in itertools.product(range(8), repeat=3)})
    _assert_same_state(code_fibred(code), reference)


def test_streamed_file_without_tables_matches_formatter():
    # 5 words against 5^2 * 25 lines per X part: neither the blocks nor their
    # heads are tabled, and the seed has several amplitude norms
    sp = gf(5)
    seed = _random_monomial_seed(random.Random(3), sp, 3, 2)
    fib = FibredState(FFMatrix(sp, [[1, 2, 3, 4]]), FFMatrix(sp, [[1, 2, 3]]), seed, "XZX")
    streamed, text = "".join(fib.chunks()), format_state(fib.materialize())
    assert streamed.splitlines() == text.splitlines() and streamed == text


def _reference_fibred(G, W, seed, types):
    """sum_v |vG> (x) M(vW)|seed>, one message at a time: M(e) applies
    types[j]^(e_j) at seed site j through apply_weyl."""
    sp, terms = G.spec, {}
    for v in itertools.product(range(sp.q), repeat=G.rows):
        e = W.row_vector_mul(v)
        word = WeylWord(seed.n, z=tuple((j, a) for j, a in enumerate(e) if a and types[j] == "Z"),
                        x=tuple((j, a) for j, a in enumerate(e) if a and types[j] == "X"))
        for key, amp in apply_weyl(seed, word).terms.items():
            terms[G.row_vector_mul(v) + key] = amp
    return SparseState(G.cols + seed.n, sp, terms)


def _fibred_cases():
    """(G, W, seed, types) per tabling regime.  A label's block is tabled where
    q^(seed sites) * s <= q^k, its X part where q^(X sites) * s <= q^k and its
    Z part where q^(Z sites) * s <= q^k, for seed support s and k = G.rows."""
    rng = random.Random(27)
    g3, g4, g5 = gf(3), gf(4), gf(5)
    parity3 = FFMatrix(g3, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    G3 = FFMatrix(g3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    W3 = FFMatrix(g3, [[1, 0, 2], [2, 1, 1]])
    g257 = gf(257)
    seed257 = SparseState(1, g257, {(0,): one(257), (200,): Cyclotomic.root(257, 3, -2),
                                    (256,): Cyclotomic.root(257, 250, 3)})
    # block 27 <= 27, X 9 <= 27, Z 9 <= 27: everything tabled
    yield "block", parity3, FFMatrix(g3, [[1, 2], [0, 1], [2, 2]]), bell_pair(g3), "XZ"
    # block 125 > 25, X 25 <= 25, Z 25 <= 25: only the parts tabled
    yield "parts", FFMatrix(g5, [[1, 0, 1], [0, 1, 1]]), FFMatrix.identity(g5, 2), \
        bell_pair(g5), "XZ"
    # block 81 > 9, X 9 <= 9, Z 27 > 9: only the X part tabled
    yield "x_part", G3, W3, ghz(3, g3), "XZZ"
    # block 81 > 9, Z 9 <= 9, X 27 > 9: only the Z part tabled
    yield "z_part", G3, W3, ghz(3, g3), "ZXX"
    # block 3125 > 5, X 625 > 5, Z 125 > 5: nothing tabled; several amplitude norms
    yield "none", FFMatrix(g5, [[1, 2, 3, 4]]), FFMatrix(g5, [[1, 2, 3]]), \
        _random_monomial_seed(rng, g5, 3, 2), "XZX"
    # an X-only seed over GF(4): block and X 64 > 16, Z 4 <= 16
    yield "x_seed", FFMatrix(g4, [[1, 0, 1], [0, 1, 1]]), FFMatrix(g4, [[1, 2], [3, 1]]), \
        bell_pair(g4), "XX"
    # a Z-only seed of several norms: block and Z 27 <= 27, X 3 <= 27
    yield "z_seed", parity3, FFMatrix(g3, [[2, 1], [1, 1], [0, 2]]), \
        _random_monomial_seed(rng, g3, 2, 1), "ZZ"
    # a 0-party seed over GF(8): the one empty label, 1 <= 8^2, is tabled
    code = mds_from_singleton(5, 2, gf(8))
    yield "code", code.G, FFMatrix(code.spec, [[]] * 2), \
        SparseState(0, code.spec, {(): one(8)}), ""
    # symbols above 255 at an X site (block and X 771 > 257, Z 3 <= 257), then
    # at a Z site (block and Z 771 > 257, X 3 <= 257)
    yield "gf257_x", FFMatrix(g257, [[1, 3]]), FFMatrix(g257, [[5]]), seed257, "X"
    yield "gf257_z", FFMatrix(g257, [[1, 3]]), FFMatrix(g257, [[5]]), seed257, "Z"


@pytest.mark.parametrize("G, W, seed, types",
                         [pytest.param(*case[1:], id=case[0]) for case in _fibred_cases()])
def test_fibred_state_matches_per_message_oracle_on_every_table(G, W, seed, types, monkeypatch):
    reference = _reference_fibred(G, W, seed, types)
    _assert_same_state(FibredState(G, W, seed, types), reference)
    # again in blocks of q words, so that every case with k >= 2 crosses blocks
    monkeypatch.setattr(kuni.codes, "BLOCK_WORDS", G.spec.q)
    _assert_same_state(FibredState(G, W, seed, types), reference)


def test_chunks_checks_the_cap_before_any_text(monkeypatch):
    monkeypatch.setenv("KUNI_MAX_TERMS", "10")
    fib = builtin_state("ame_5_q", q=3)
    with pytest.raises(TooLarge, match="exceeds the term cap"):
        fib.chunks()
    # the block walk owns the cap: each of its readers meets it before the first block
    for read in (fib.materialize, fib.columns, lambda: KeyTable.of(fib)):
        with pytest.raises(TooLarge, match="exceeds the term cap"):
            read()


def test_fibred_state_shares_amplitude_objects():
    s = ame_5_q(gf(9))
    assert len({id(amp) for amp in s.terms.values()}) <= 9 * 9  # per (seed term, phase)
    code = mds_from_singleton(6, 3, gf(8))
    assert len({id(amp) for amp in state_from_code(code).terms.values()}) == 1


def test_fibred_state_rejects_a_rank_deficient_generator():
    # the two rows of G are dependent, so each codeword comes from three
    # messages: 27 terms on 9 distinct keys with "ZZ", an unsorted file with "ZX"
    sp = gf(3)
    G = FFMatrix(sp, [[1, 1], [2, 2]])
    for types in ("ZZ", "ZX"):
        with pytest.raises(RankDeficient):
            FibredState(G, FFMatrix.identity(sp, 2), ghz(2, sp), types)


def test_fibred_state_rejects_mixed_fields():
    G, W = FFMatrix(gf(3), [[1, 0, 1], [0, 1, 1]]), FFMatrix.identity(gf(3), 2)
    with pytest.raises(SpecMismatch):
        FibredState(G, W, ghz(2, gf(5)), "ZX")
    with pytest.raises(SpecMismatch):
        FibredState(G, FFMatrix.identity(gf(5), 2), ghz(2, gf(3)), "ZX")


def test_fibred_state_eliminates_once(monkeypatch):
    # [G | W] is eliminated at construction; its walks read the kept code
    import kuni.field

    calls = []
    original = kuni.field._rref_data

    def counted(spec, data):
        calls.append(len(data))
        return original(spec, data)

    fib = repetition_fibred(*construct_G_Q(gf(5)))
    monkeypatch.setattr(kuni.field, "_rref_data", counted)
    assert len(fib.columns()[1]) == fib.support
    assert "".join(fib.chunks()) == format_state(fib.materialize())
    assert calls == []


def test_sparse_state_chunks_check_before_the_first_line(monkeypatch):
    monkeypatch.setenv("KUNI_MAX_TERMS", "5")
    with pytest.raises(TooLarge, match="exceeds the term cap"):
        ghz(3, gf(7)).chunks()  # 7 terms, refused before a line is asked for
    with pytest.raises(ShapeMismatch):
        SparseState(0, gf(3), {(): Cyclotomic.integer(3, 1)}).chunks()
    assert "".join(ghz(3, gf(5)).chunks()).startswith("STATE 3 5\n")


def test_fibred_state_rejects_mismatched_types():
    sp = gf(3)
    G = FFMatrix(sp, [[1, 1, 1]])
    for W, types in (([[1, 0]], "Z"), ([[1]], "XZ"), ([[1, 0]], "XY")):
        with pytest.raises(LayoutMismatch):
            FibredState(G, FFMatrix(sp, W), bell_pair(sp), types).materialize()


# --- the state file formatter ------------------------------------------------

def _reference_format_state(state):
    """The formatter before line templates: every symbol and coefficient
    converted one by one."""
    lines = [f"STATE {state.n} {state.q}"]
    for key in sorted(state.terms):
        amp = state.terms[key]
        lines.append(" ".join(str(s) for s in key) + " : " + " ".join(str(c) for c in amp.coeffs))
    return "\n".join(lines) + "\n"


def _random_powers_state(rng, n, q, support, powers):
    """Amplitudes that are sums of `powers` powers of w with coefficients in
    {-3, -2, 2, 3}; an amplitude that sums to zero drops its term."""
    terms = {}
    for _ in range(support):
        coeffs = [0] * q
        for _ in range(powers):
            coeffs[rng.randrange(q)] += rng.choice([-3, -2, 2, 3])
        terms[tuple(rng.randrange(q) for _ in range(n))] = Cyclotomic(q, coeffs)
    return SparseState(n, gf(q), terms)


def _format_cases():
    rng = random.Random(11)
    sp = gf(5)
    code = mds_from_singleton(4, 2, sp)
    yield "fourier", local_fourier(state_from_code(code), [2, 3])
    yield "fourier_bell", local_fourier(bell_pair(gf(4)), [0])
    for q in (2, 3, 7, 9):
        yield f"powers_{q}", _random_powers_state(rng, 4, q, 60, powers=3)
    yield "one_party", _random_powers_state(rng, 1, 5, 5, powers=2)
    yield "empty", SparseState(3, sp, {})
    # distinct objects with equal coefficients, and equal values written with
    # different coefficients (1 + w + ... + w^4 = 0, so both are -w)
    yield "shared", SparseState(2, sp, {(0, 1): Cyclotomic(5, [0, 1, 0, 0, 0]),
                                        (1, 0): Cyclotomic(5, [0, 1, 0, 0, 0]),
                                        (2, 2): Cyclotomic(5, [0, -1, 0, 0, 0]),
                                        (3, 4): Cyclotomic(5, [1, 0, 1, 1, 1])})
    yield "ame_7_4", ame_7_4()


@pytest.mark.parametrize("state", [pytest.param(s, id=name) for name, s in _format_cases()])
def test_format_state_matches_per_symbol_formatter(state):
    text = format_state(state)
    assert text == _reference_format_state(state)
    back = parse_state(text)
    assert back.equals(state) and format_state(back) == text


def _writer_cases():
    """(id, state) for each shape of state a writer is given: a SparseState, or
    a FibredState that `construct` streams without materializing it."""
    g5, g257 = gf(5), gf(257)
    yield "code_0_0", code_fibred(LinearCode(FFMatrix(gf(2), [], 0)))
    yield "code_4_0", code_fibred(LinearCode(FFMatrix(gf(3), [], 4)))
    yield "code_mds", code_fibred(mds_from_singleton(5, 2, gf(8)))
    yield "clq_direct", cl_plus_q_fibred(mds_from_singleton(4, 2, g5), bell(g5, 1, 2), "direct")
    yield "clq_dual", cl_plus_q_fibred(mds_from_singleton(5, 2, g5), ghz(3, g5), "dual")
    yield "repetition", repetition_fibred(*construct_G_Q(gf(4)))
    yield "ghz_1", ghz(1, g5)
    yield "bell", bell(g5, 2, 3)
    seed257 = SparseState(1, g257, {(0,): one(257), (200,): Cyclotomic.root(257, 3, -2),
                                    (256,): Cyclotomic.root(257, 250, 3)})
    yield "gf257_seed", FibredState(FFMatrix(g257, [[1, 3]]), FFMatrix(g257, [[5]]), seed257, "X")


@pytest.mark.parametrize("state", [pytest.param(s, id=name) for name, s in _writer_cases()])
def test_every_writer_output_reads_back(state):
    # parse_state reads no 0-party file, so both writers refuse a 0-party
    # state when chunks() is called, before any text; every other state's
    # text reads back as the state
    if state.n < 1:
        with pytest.raises(KuniError, match="at least one party, state has 0"):
            state.chunks()
        return
    back = parse_state("".join(state.chunks()))
    assert back.equals(state.materialize() if isinstance(state, FibredState) else state)


def test_format_state_rejects_zero_parties():
    # the parser rejects `STATE 0 q`, so the writer must not produce it
    state = SparseState(0, gf(5), {(): Cyclotomic(5, [1, -2, 0, 3, 0])})
    with pytest.raises(ShapeMismatch):
        format_state(state)
