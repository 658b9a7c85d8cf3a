"""Certification predicates: partial traces, mixedness, uniformity sweeps,
entanglement witnesses, stabilizers, and the algebraic AME certificate."""

import itertools
import random

import pytest

from kuni import verify
from kuni.cli import _SEED_CODE, _TABLE1_ROWS, _min_q_clq
from kuni.codes import LinearCode, is_mds, mds_from_singleton
from kuni.cyclotomic import Cyclotomic, _poly_divmod_exact, cyclotomic_polynomial
from kuni.decomposition import QMatrix, construct_G_Q
from kuni.errors import KuniError, NonPrimeQ, ShapeMismatch, SupportBelowRankBound, TooLarge
from kuni.field import FFMatrix, FieldElement, gf
from kuni.states import (
    FibredState,
    SparseState,
    WeylWord,
    ame_5_q,
    ame_7_4,
    bell,
    bell_pair,
    cl_plus_q,
    cl_plus_q_fibred,
    cl_plus_q_repetition,
    ghz,
    local_fourier,
    state_from_code,
)
from kuni.verify import (
    ReducedDensity,
    UniformityReport,
    certify_ame_via_codes,
    gram_check,
    is_maximally_mixed,
    reduced_density,
    slocc_witness,
    stabilizer_check,
    support_census,
    uniformity,
)

from test_states import _dense_pair


def _random_state(rng, n, q, support, powers=1):
    """`powers` > 1 gives amplitudes that are sums of that many powers of w,
    with coefficients in {-3, -2, 2, 3} (repeated powers add up)."""
    terms = {}
    while len(terms) < support:
        key = tuple(rng.randrange(q) for _ in range(n))
        if powers == 1:
            terms[key] = Cyclotomic.root(q, rng.randrange(q),
                                         rng.choice([-2, -1, 1, 2]))
        else:
            coeffs = [0] * q
            for _ in range(powers):
                coeffs[rng.randrange(q)] += rng.choice([-3, -2, 2, 3])
            terms[key] = Cyclotomic(q, coeffs)
    return SparseState(n, gf(q), terms)


def _reference_reduced_density(state, subset):
    """Product-by-product oracle: one Cyclotomic multiply, conjugate and add
    per pair of amplitudes in a complement group.  Entries come in
    first-occurrence order, zero entries dropped."""
    S = tuple(sorted(subset))
    Sc = [i for i in range(state.n) if i not in set(S)]
    groups = {}
    for key, amp in state.terms.items():
        g = tuple(key[i] for i in Sc)
        r = tuple(key[i] for i in S)
        groups.setdefault(g, []).append((r, amp))
    entries = {}
    for members in groups.values():
        for r, ar in members:
            for c, ac in members:
                v = ar * ac.conj()
                prev = entries.get((r, c))
                entries[(r, c)] = v if prev is None else prev + v
    return {k: v for k, v in entries.items() if not v.is_zero()}


def _dense_rho_oracle(state, subset):
    """Independent oracle: build the full dense |psi><psi| and trace out the
    complement by explicit summation over computational basis labels."""
    S = tuple(sorted(subset))
    Sc = [i for i in range(state.n) if i not in S]
    q = state.q
    entries = {}
    for kr, ar in state.terms.items():
        for kc, ac in state.terms.items():
            if all(kr[i] == kc[i] for i in Sc):
                r = tuple(kr[i] for i in S)
                c = tuple(kc[i] for i in S)
                v = ar * ac.conj()
                prev = entries.get((r, c))
                entries[(r, c)] = v if prev is None else prev + v
    return {k: v for k, v in entries.items() if not v.is_zero()}


def test_reduced_density_matches_dense_oracle():
    rng = random.Random(17)
    for q in (2, 3, 5):
        for _ in range(8):
            n = rng.randrange(3, 6)
            s = _random_state(rng, n, q, rng.randrange(2, 9))
            size = rng.randrange(1, n)
            subset = tuple(sorted(rng.sample(range(n), size)))
            rho = reduced_density(s, subset)
            oracle = _dense_rho_oracle(s, subset)
            assert set(rho.entries) == set(oracle)
            for key, v in oracle.items():
                assert rho.entry(*key).equals(v)


def _with_pool_amplitudes(rng, state, pool_size=3):
    """The support of `state` with amplitudes drawn from a pool of sums of
    powers of w whose norm vectors |amp|^2 all differ."""
    q = state.q
    pool, norms = [], set()
    while len(pool) < pool_size:
        amp = _random_state(rng, 1, q, 1, powers=3).terms.popitem()[1]
        norm = (amp * amp.conj()).coeffs
        if norm not in norms:
            pool.append(amp)
            norms.add(norm)
    return SparseState(state.n, state.spec, {key: rng.choice(pool) for key in state.terms})


def _dense_ame_9_7():
    """The repetition state of a seeded dense equivalent of the GF(7) pair:
    16,807 terms, and complement groups of 7 terms on (7, 8)."""
    return cl_plus_q_repetition(*_dense_pair(*construct_G_Q(gf(7)), random.Random(7)))


def _oracle_states():
    """(name, state, subsets): every subset up to n // 2 on the small states,
    a seeded sample on the larger ones."""
    rng = random.Random(41)

    def all_subsets(s, top=None):
        return [S for size in range(1, (top or s.n // 2) + 1)
                for S in itertools.combinations(range(s.n), size)]

    small = [(f"ame_5_{q}", ame_5_q(gf(q))) for q in (2, 3, 4, 5, 7)]
    small += [("ghz", ghz(4, gf(3))), ("bell", bell(gf(5), 2, 3)),
              ("cl_plus_q", cl_plus_q(mds_from_singleton(4, 2, gf(3)), bell_pair(gf(3)))),
              ("local_fourier", local_fourier(_random_state(rng, 4, 4, 40), [0, 2])),
              ("random", _random_state(rng, 5, 3, 30)),
              ("random_multi", _random_state(rng, 5, 4, 30, powers=3)),
              ("random_sparse_multi", _random_state(rng, 8, 3, 12, powers=3)),
              ("ame_7_4", ame_7_4()),
              ("ame_7_4_pool", _with_pool_amplitudes(rng, ame_7_4()))]
    out = [(name, s, all_subsets(s)) for name, s in small]
    big_clq = cl_plus_q(mds_from_singleton(7, 3, gf(7)), ghz(3, gf(7)))
    # |S| <= 3: the 7^|S| x 7^|S| matrix cap stops larger reductions of this state
    out.append(("cl_plus_q_10", big_clq, sorted(rng.sample(all_subsets(big_clq, 3), 12))))
    # a seeded dense AME(9,7), 16,807 terms, one subset of each size
    ame_9_7 = _dense_ame_9_7()
    out.append(("ame_9_7_dense", ame_9_7,
                [tuple(sorted(rng.sample(range(9), size))) for size in range(1, 5)]))
    return out


def test_reduced_density_matches_product_by_product_oracle(monkeypatch):
    counted = []  # per reduced_density call: did _diagonal count rho_S?
    diagonal = verify._diagonal

    def observed(*args):
        out = diagonal(*args)
        counted.append(out is not None)
        return out

    monkeypatch.setattr(verify, "_diagonal", observed)
    seen_multi = set()
    # the way each reduction went: counted, the general loop on an injective
    # support (amplitudes of several norms), or the general loop otherwise
    seen = {"counted": set(), "injective_general": set(), "general": set()}
    for name, s, subsets in _oracle_states():
        if any(len(amp.coeffs) - amp.coeffs.count(0) > 1 for amp in s.terms.values()):
            seen_multi.add(name)
        one_norm = len({(amp * amp.conj()).coeffs for amp in s.terms.values()}) == 1
        for S in subsets:
            rho = reduced_density(s, S)
            assert len(counted) == 1, (name, S)
            took_count = counted.pop()
            Sc = [i for i in range(s.n) if i not in S]
            injective = len({tuple(key[i] for i in Sc) for key in s.terms}) == s.support
            assert took_count == (injective and one_norm), (name, S)
            if took_count:
                seen["counted"].add(name)
            else:
                seen["injective_general" if injective else "general"].add(name)
            ref = _reference_reduced_density(s, S)
            assert list(rho.entries) == list(ref), (name, S)  # same keys, same order
            for key, v in ref.items():
                assert rho.entries[key].coeffs == v.coeffs, (name, S, key)
            assert is_maximally_mixed(rho) == is_maximally_mixed(
                ReducedDensity(rho.subset, s.q, ref)), (name, S)
    # the multi-term amplitudes really are exercised
    assert {"local_fourier", "random_multi", "random_sparse_multi", "ame_7_4_pool"} <= seen_multi
    # every way runs; injective supports with unequal norms take the general loop
    assert {"ame_5_3", "ame_7_4", "ame_9_7_dense"} <= seen["counted"]
    assert {"random_sparse_multi", "ame_7_4_pool"} <= seen["injective_general"]
    assert {"local_fourier", "random_sparse_multi", "ame_7_4_pool"} <= seen["general"]


def _oracle_rho(state, subset):
    return ReducedDensity(tuple(sorted(subset)), state.q,
                          _reference_reduced_density(state, subset))


def _injective(state, S):
    Sc = [i for i in range(state.n) if i not in S]
    return len({tuple(key[i] for i in Sc) for key in state.terms}) == state.support


def test_sweep_matches_product_by_product_oracle(monkeypatch):
    """uniformity builds one KeyTable and passes it to every reduction of
    the sweep; each subset it checks, exhaustive or sampled, must give the
    oracle's entries, order and coefficients."""
    reduced = verify.reduced_density
    tables = []

    def checked_rho(table, S):
        rho = reduced(table, S)
        ref = _reference_reduced_density(s, S)  # s: the state swept below
        assert list(rho.entries) == list(ref), S  # same keys, same order
        for key, v in ref.items():
            assert rho.entries[key].coeffs == v.coeffs, (S, key)
        tables.append(table)
        return rho

    monkeypatch.setattr(verify, "reduced_density", checked_rho)
    swept = set()
    for name, s, _ in _oracle_states():
        # |S| <= 4 keeps the 10-party state under the matrix cap
        sweeps = {"sampled": dict(k_max=4, sample=2, seed=3)}
        if s.support <= 256:
            sweeps["exhaustive"] = dict(k_max=4)
        for mode, kwargs in sweeps.items():
            rep = uniformity(s, **kwargs)
            assert len(tables) == sum(c for c, _ in rep.tallies.values()), (name, mode)
            assert isinstance(tables[0], verify.KeyTable), (name, mode)
            assert all(t is tables[0] for t in tables), (name, mode)
            if max(rep.tallies) > 1:
                swept.add(name)
            tables.clear()
    # sweeps that get past the singletons: prime and composite q, counted
    # and general reductions, supports from 16 to 16,807 terms
    assert {"ame_5_4", "cl_plus_q", "ame_7_4", "cl_plus_q_10", "ame_9_7_dense"} <= swept


def test_phase_flip_refutes_dense_ame_where_groups_interfere():
    # w * (one amplitude) keeps every |amp|^2, so the injective reductions
    # still count maximally mixed; (7, 8) is the first subset whose
    # complement groups hold several terms, and there the flip leaves an
    # off-diagonal sum
    s = _dense_ame_9_7()
    assert is_maximally_mixed(reduced_density(s, (7, 8)))[0]
    key = next(iter(s.terms))
    flipped = SparseState(s.n, s.spec, {**s.terms, key: s.terms[key].mul_root(1)})
    rep = uniformity(flipped)
    S, witness = rep.first_failure
    assert S == (7, 8) and not _injective(flipped, S) and witness[0] == "offdiag"
    assert rep.tallies == {1: (9, 9), 2: (36, 35)}
    assert is_maximally_mixed(_oracle_rho(flipped, S)) == (False, witness)


def test_sweep_over_gf257_matches_oracle(monkeypatch):
    # symbols up to 256 take 9 bits of a key's code; the GHZ reductions are
    # counted, the random state's (amplitudes of several norms) take the
    # general loop
    rng = random.Random(23)
    states = [ghz(3, gf(257)), _random_state(rng, 4, 257, 30, powers=2)]
    reports = [uniformity(s, k_max=1) for s in states]
    for s, rep in zip(states, reports):
        # the sweep passes its table; the oracle reads the state it came from
        monkeypatch.setattr(verify, "reduced_density", lambda table, S: _oracle_rho(s, S))
        ref = uniformity(s, k_max=1)
        assert (rep.tallies, rep.first_failure) == (ref.tallies, ref.first_failure)
    assert reports[0].tallies == {1: (3, 3)}


def test_reduced_density_is_hermitian_with_real_trace():
    rng = random.Random(5)
    s = _random_state(rng, 4, 3, 6)
    rho = reduced_density(s, (0, 2))
    for (r, c), v in rho.entries.items():
        assert rho.entry(c, r).equals(v.conj())
    norm = Cyclotomic.zero(3)
    for amp in s.terms.values():
        norm = norm + amp * amp.conj()
    assert rho.trace().equals(norm)  # Tr rho_S = <s|s> for any S


def test_reduced_density_size_cap():
    s = ghz(8, gf(9))
    with pytest.raises(TooLarge):
        reduced_density(s, (0, 1, 2, 3, 4))


def test_is_maximally_mixed_witnesses():
    sp = gf(2)
    b = bell_pair(sp)
    ok, witness = is_maximally_mixed(reduced_density(b, (0,)))
    assert ok and witness is None
    # the full 2-party reduction of a Bell pair has off-diagonals
    ok, witness = is_maximally_mixed(reduced_density(b, (0, 1)))
    assert not ok and witness[0] == "offdiag"
    # a diagonal with a hole
    rho = reduced_density(SparseState(1, sp, {(0,): Cyclotomic.integer(2, 1)}), (0,))
    ok, witness = is_maximally_mixed(rho)
    assert not ok and witness[0] == "diag_zero"
    # unequal diagonal (complement site keeps the terms from interfering)
    s = SparseState(2, sp, {(0, 0): Cyclotomic.integer(2, 1),
                            (1, 1): Cyclotomic.integer(2, 2)})
    ok, witness = is_maximally_mixed(reduced_density(s, (0,)))
    assert not ok and witness[0] == "diag"


def test_uniformity_ghz_is_1_uniform():
    rep = uniformity(ghz(4, gf(3)))
    assert rep.max_verified_k == 1
    assert rep.certifying
    assert rep.tallies[1] == (4, 4)
    # the sweep stopped at the first failing size; a 2-site GHZ reduction
    # is diagonal but misses most diagonal entries
    S, witness = rep.first_failure
    assert len(S) == 2 and witness[0] == "diag_zero"


def test_uniformity_sampled_mode():
    s = state_from_code(mds_from_singleton(6, 3, gf(7)))
    rep = uniformity(s, k_max=2, sample=5, seed=7)
    assert rep.max_verified_k == 2
    assert not rep.certifying and rep.mode == "sampled"
    assert rep.tallies[2][0] == 5
    with pytest.raises(KuniError):
        uniformity(s, sample=5)  # seed required


def test_sample_that_draws_no_size_is_exhaustive():
    # ame_5_q over GF(3) has 5 + 10 subsets; a size is drawn only when it
    # has more subsets than the sample, and only a drawn size makes it sampled
    s = ame_5_q(gf(3))
    full = uniformity(s)
    for sample in (10, 300):
        rep = uniformity(s, sample=sample, seed=1)
        assert rep.mode == "exhaustive" and rep.certifying
        assert (rep.max_verified_k, rep.tallies) == (full.max_verified_k, full.tallies)
    rep = uniformity(s, sample=9, seed=1)
    assert rep.mode == "sampled" and rep.tallies == {1: (5, 5), 2: (9, 9)}


def test_plain_classes_keep_values_and_fresh_tallies():
    sp = gf(5)
    for make in (lambda r: FieldElement(sp, r), lambda r: QMatrix(sp, (1, r), (0, 1)),
                 lambda r: WeylWord(2, z=((0, r),))):
        a, b, c = make(2), make(2), make(3)
        assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
        assert a != c and a != 2
    assert FieldElement(sp, 2) != FieldElement(gf(7), 2)
    # every report starts from its own tallies
    first, second = (UniformityReport(4, 3, 2) for _ in range(2))
    first.tallies[1] = (4, 4)
    assert second.tallies == {}
    # the attributes the perfbench tracer reads
    state = ghz(4, gf(3))
    assert uniformity(state, k_max=1).tallies == {1: (4, 4)}
    assert is_mds(mds_from_singleton(5, 3, sp)).checks == 10  # C(5, 3)
    assert len(reduced_density(state, (0,)).entries) == 3


def test_support_census():
    s = state_from_code(mds_from_singleton(4, 2, gf(3)))
    assert support_census(s, 2) == (9, True)
    code = LinearCode(FFMatrix(gf(2), [[1, 0, 1], [0, 1, 1]]))
    clq = cl_plus_q(code, bell_pair(gf(2)))
    assert support_census(clq, 2) == (8, False)
    with pytest.raises(SupportBelowRankBound):
        support_census(ghz(4, gf(3)), 2)  # support 3 < 9


def test_slocc_witness_positive_when_n_allows_full_rank():
    # 6-party 2-uniform Cl+Q state over GF(3): a size-3 reduction of full
    # rank 27 exists, with 2 classical sites and 1 quantum site
    sp = gf(3)
    s = cl_plus_q(mds_from_singleton(4, 2, sp), bell_pair(sp))
    S = slocc_witness(s, 2, classical_cut=4)
    assert S is not None and len(S) == 3
    assert sum(1 for i in S if i < 4) == 2  # the preferred witness shape


def test_slocc_witness_none_for_minimal_support():
    s = state_from_code(mds_from_singleton(4, 2, gf(3)))
    assert slocc_witness(s, 2) is None


def test_slocc_witness_rank_bound_blocks_ame_instances():
    # For any pure state, rank of a size-(k+1) reduction is capped by the
    # complement dimension q^(n-k-1); when n < 2(k+1) that cap is below
    # q^(k+1), so no size-(k+1) reduction can be maximally mixed.  The
    # 5-party Cl+Q state (k = 2) is exactly such a case.
    code = LinearCode(FFMatrix(gf(2), [[1, 0, 1], [0, 1, 1]]))
    s = cl_plus_q(code, bell_pair(gf(2)))
    assert slocc_witness(s, 2, classical_cut=3) is None


def _preferred_then_rest(n, k, cut):
    """The reference witness order, built the long way: k classical sites
    plus one quantum site, then every other size-(k+1) subset, each
    lexicographic."""
    preferred = []
    if cut is not None:
        for cl in itertools.combinations(range(cut), k):
            for qsite in range(cut, n):
                preferred.append(tuple(sorted(cl + (qsite,))))
    seen = set(preferred)
    return preferred + [S for S in itertools.combinations(range(n), k + 1) if S not in seen]


@pytest.mark.parametrize("n,k,cut", [(6, 2, 4), (7, 2, 5), (8, 3, 5), (6, 1, None),
                                     (5, 0, 2), (5, 2, 9)])
def test_slocc_witness_visits_the_preferred_shape_first(monkeypatch, n, k, cut):
    # no reduction is maximally mixed, so the whole order is visited
    visited = []

    def empty_rho(table, S):
        visited.append(S)
        return ReducedDensity(S, table.q, {})

    monkeypatch.setattr(verify, "reduced_density", empty_rho)
    assert slocc_witness(ghz(n, gf(2)), k, classical_cut=cut) is None
    assert visited == _preferred_then_rest(n, k, cut)


def test_slocc_witness_on_a_streamed_table(monkeypatch):
    """The Table 1 rows as key tables streamed from their fibred states: a
    witness of the preferred shape at the first subset, where n allows one,
    and the materialized state's witness on the rows that are small enough."""
    expected = {5: None, 6: (0, 1, 4), 7: (0, 1, 5), 8: (0, 1, 5), 10: (0, 1, 7),
                11: (0, 1, 2, 7), 12: (0, 1, 2, 8)}
    rows = {n: (k, row) for (k, n), row in _TABLE1_ROWS.items() if n in expected}
    reduced, calls = verify.reduced_density, []

    def counted(table, S):
        calls.append(S)
        return reduced(table, S)

    def refuse(self):
        raise AssertionError("the witness materialized a fibred state")

    for n, (k, ((n_cl, k_cl), seed_kind)) in sorted(rows.items()):
        q = _min_q_clq(n_cl, k_cl, seed_kind)
        spec = gf(q)
        quantum = state_from_code(mds_from_singleton(*_SEED_CODE[seed_kind], spec))
        fib = cl_plus_q_fibred(mds_from_singleton(n_cl, k_cl, spec), quantum)
        with monkeypatch.context() as patch:
            patch.setattr(FibredState, "materialize", refuse)
            patch.setattr(verify, "reduced_density", counted)
            S = slocc_witness(verify.KeyTable(fib.n, q, fib.terms()), k, classical_cut=n_cl)
        assert S == expected[n], n
        if S is not None:
            assert calls == [S], n  # the first subset of the order
        calls.clear()
        if n <= 10:
            assert slocc_witness(fib.materialize(), k, classical_cut=n_cl) == S, n


def test_gram_check_detects_overlap():
    b = bell_pair(gf(2))
    ok, gram = gram_check([b, b])
    assert not ok and gram[0][1].as_integer() == 2


def test_stabilizer_check_star_graph():
    # GHZ after Fourier on all but the first site is the star graph state
    from kuni.states import local_fourier

    sp = gf(3)
    g = local_fourier(ghz(4, sp), [1, 2, 3])
    adj = [[0] * 4 for _ in range(4)]
    for j in range(1, 4):
        adj[0][j] = adj[j][0] = 1
    ok, failing = stabilizer_check(g, FFMatrix(sp, adj))
    assert ok and failing is None
    # a wrong graph is rejected with the failing vertex named
    adj[1][2] = adj[2][1] = 1
    ok, failing = stabilizer_check(g, FFMatrix(sp, adj))
    assert not ok and failing is not None


def test_stabilizer_check_guards():
    with pytest.raises(NonPrimeQ):
        stabilizer_check(ghz(3, gf(4)), FFMatrix.zero(gf(4), 3, 3))
    with pytest.raises(ShapeMismatch):
        stabilizer_check(ghz(3, gf(3)), FFMatrix.zero(gf(3), 2, 2))


# --- exact characteristic polynomial: the oracle of the spectra test --------

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


def test_char_poly_complementary_spectra():
    # nonzero eigenvalues of rho_S and rho_{S^c} coincide for a pure state:
    # the larger characteristic polynomial is x^(dim gap) times the smaller
    code = LinearCode(FFMatrix(gf(2), [[1, 0, 1], [0, 1, 1]]))
    s = cl_plus_q(code, bell_pair(gf(2)))
    for S in [(0, 1), (1, 3)]:
        Sc = tuple(i for i in range(5) if i not in S)
        p_small = char_poly(reduced_density(s, S))
        p_large = char_poly(reduced_density(s, Sc))
        gap = len(p_large) - len(p_small)
        assert all((a - b).is_zero() for a, b in zip(p_small, p_large))
        assert all(c.is_zero() for c in p_large[len(p_small):])
        assert gap == 2 ** 3 - 2 ** 2


def test_certify_ame_via_codes_gf5():
    G, Q = construct_G_Q(gf(5))
    cert = certify_ame_via_codes(G, Q)
    assert cert.all_pass and cert.claim == "AME(7,5)"
    assert cert.parent_checks == 10  # C(5,3) column subsets
    assert cert.kernel_checks == 5   # C(5,1)


def test_certify_ame_via_codes_refutes_bad_q():
    G, _ = construct_G_Q(gf(5))
    cert = certify_ame_via_codes(G, QMatrix(gf(5), (1, 2, 0), (2, 4, 0)))
    assert not cert.all_pass and cert.claim is None


def test_sampled_sweep_draws_indices_without_listing_subsets(monkeypatch):
    """A sampled size draws N indices into its combinations and keeps the
    subsets at those indices as it walks them: the subsets that drawing from
    the listed combinations gives, in memory that does not grow with C(n, s)."""
    import tracemalloc

    n, sample, seed = 40, 3, 5
    one = Cyclotomic.integer(2, 1)
    table = verify.KeyTable(n, 2, [((0,) * n, one), ((1,) * n, one)])
    swept = []

    def recorded(table, S):
        swept.append(S)

    monkeypatch.setattr(verify, "reduced_density", recorded)
    monkeypatch.setattr(verify, "is_maximally_mixed", lambda rho: (True, None))
    tracemalloc.start()
    try:
        report = verify.uniformity(table, k_max=5, sample=sample, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak  # listing C(40, 5) = 658,008 subsets takes tens of MB
    rng = random.Random(seed)
    listed = [S for size in range(1, 6)
              for S in sorted(rng.sample(list(itertools.combinations(range(n), size)), sample))]
    assert swept == listed
    assert report.mode == "sampled" and report.max_verified_k == 5
    assert report.tallies == {size: (sample, sample) for size in range(1, 6)}
