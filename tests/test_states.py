"""Sparse state construction: Weyl operators, code states, Cl+Q variants."""

import itertools
import random

import pytest

from kuni.codes import code_from_generator, dual_code, mds_from_singleton
from kuni.cyclotomic import Cyclotomic
from kuni.decomposition import QMatrix, construct_G_Q, search_Q, verify_decomposition
from kuni.errors import (
    CertificationMissing,
    FormatError,
    KuniError,
    LayoutMismatch,
    SizeMismatch,
    SpecMismatch,
    TooLarge,
    UnknownName,
    UnsupportedSize,
)
from kuni.field import FFMatrix, gf, matrix_rank
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
    cl_plus_q_repetition,
    format_state,
    ghz,
    inner_product,
    local_fourier,
    parse_state,
    state_from_code,
    tensor,
    weyl_basis,
)
from kuni.verify import gram_check, uniformity


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
    code = code_from_generator(FFMatrix(gf(2), [[1, 0, 1], [0, 1, 1]]))
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
    rep = code_from_generator(FFMatrix(sp, [[1, 1, 1]]))
    s = cl_plus_q(rep, bell_pair(sp), variant="dual")
    assert s.n == 5 and s.support == 8
    assert uniformity(s).max_verified_k == 2


def test_cl_plus_q_shape_checks():
    sp = gf(2)
    code = code_from_generator(FFMatrix(sp, [[1, 0, 1], [0, 1, 1]]))
    with pytest.raises(SizeMismatch):
        cl_plus_q(code, ghz(3, sp))  # seed party count != k
    with pytest.raises(SpecMismatch):
        cl_plus_q(code, bell_pair(gf(3)))
    with pytest.raises(ValueError):
        cl_plus_q(code, bell_pair(sp), variant="sideways")


def test_cl_plus_q_rejects_non_minimal_seed():
    sp = gf(2)
    code = code_from_generator(FFMatrix(sp, [[1, 0, 1], [0, 1, 1]]))
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
    assert ame_7_4().equals(cl_plus_q_repetition(G, Q, certified=True))


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


def test_hardcoded_ame_matrices_shapes():
    G17, Q17 = ame_19_17_matrices()
    assert G17.rows == 9 and G17.cols == 17 and Q17.k == 9
    G19, Q19 = ame_21_19_matrices()
    assert G19.rows == 10 and G19.cols == 19 and Q19.k == 10
    # they coincide with the closed-form assembly
    G, Q = construct_G_Q(gf(17))
    assert G == G17 and (Q.q1, Q.q2) == (Q17.q1, Q17.q2)
    G, Q = construct_G_Q(gf(19))
    assert G == G19 and (Q.q1, Q.q2) == (Q19.q1, Q19.q2)


def test_term_cap_respected(monkeypatch):
    monkeypatch.setenv("KUNI_MAX_TERMS", "10")
    with pytest.raises(TooLarge):
        state_from_code(mds_from_singleton(4, 2, gf(5)))
    with pytest.raises(TooLarge):
        tensor(bell_pair(gf(5)), bell_pair(gf(5)))


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


def _assert_same_state(state, reference):
    """Equal states with the same term order (witnesses depend on it) and
    byte-identical files."""
    assert state.equals(reference) and reference.equals(state)
    assert list(state.terms) == list(reference.terms)
    assert format_state(state) == format_state(reference)


def _random_monomial_seed(rng, spec, n, r):
    """An n-party seed on the words of a random [n, r] code (support q^r), in
    shuffled order, with random monomial amplitudes c * w^t."""
    q = spec.q
    while True:
        G = FFMatrix(spec, [[rng.randrange(q) for _ in range(n)] for _ in range(r)])
        if matrix_rank(G) == r:
            break
    keys = sorted(code_from_generator(G).codeword_set())
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
    _assert_same_state(ame_5_q(sp), _reference_cl_plus_q_repetition(G, QMatrix(sp, (1, 0), (0, 1))))


def test_ame_7_4_matches_per_message_oracle():
    _assert_same_state(ame_7_4(), _reference_cl_plus_q_repetition(*construct_G_Q(gf(4))))


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
    _assert_same_state(cl_plus_q(code, seed, variant=variant),
                       _reference_cl_plus_q(code, seed, variant=variant))


def test_clq_rep_on_dense_pairs_matches_per_message_oracle():
    rng = random.Random(6)
    G7, Q7 = construct_G_Q(gf(7))
    G9 = mds_from_singleton(6, 3, gf(9)).G
    for G, Q in ((G7, Q7), (G9, search_Q(G9))):
        G2, Q2 = _dense_pair(G, Q, rng)
        assert verify_decomposition(G2, Q2).all_pass
        assert all(0 not in row for row in G2.data)  # dense: no zero entry
        _assert_same_state(cl_plus_q_repetition(G2, Q2), _reference_cl_plus_q_repetition(G2, Q2))


def test_fibred_state_shares_amplitude_objects():
    s = ame_5_q(gf(9))
    assert len({id(amp) for amp in s.terms.values()}) <= 9 * 9  # per (seed term, phase)
    code = mds_from_singleton(6, 3, gf(8))
    assert len({id(amp) for amp in state_from_code(code).terms.values()}) == 1


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
    yield "zero_party", SparseState(0, sp, {(): Cyclotomic(5, [1, -2, 0, 3, 0])})
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
    if state.n >= 1:  # the file format needs at least one party
        back = parse_state(text)
        assert back.equals(state) and format_state(back) == text
