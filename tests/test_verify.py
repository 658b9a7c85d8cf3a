"""Certification predicates: partial traces, mixedness, uniformity sweeps,
entanglement witnesses, stabilizers, and the algebraic AME certificate."""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from kuni import verify
from kuni.cli import _SEED_CODE, _TABLE1_ROWS, _min_q_clq
from kuni.codes import LinearCode, is_mds, mds_from_singleton
from kuni.cyclotomic import Cyclotomic, _poly_divmod_exact, cyclotomic_polynomial
from kuni.decomposition import QMatrix, construct_G_Q
from kuni.errors import (KuniError, NonPrimeQ, ShapeMismatch, SpecMismatch, SupportBelowRankBound,
                         TooLarge)
from kuni.field import (FFMatrix, FieldElement, FieldSpec, gf, make_field, matrix_rref,
                        rank_of_rows)
from kuni.states import (
    FibredState,
    SparseState,
    WeylWord,
    ame_5_q,
    ame_7_4,
    apply_weyl,
    bell,
    bell_pair,
    cl_plus_q,
    cl_plus_q_fibred,
    cl_plus_q_repetition,
    code_fibred,
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


def test_reduced_density_matches_product_by_product_oracle():
    seen_multi = set()
    for name, s, subsets in _oracle_states():
        if any(len(amp.coeffs) - amp.coeffs.count(0) > 1 for amp in s.terms.values()):
            seen_multi.add(name)
        for S in subsets:
            rho = reduced_density(s, S)
            ref = _reference_reduced_density(s, S)
            assert list(rho.entries) == list(ref), (name, S)  # same keys, same order
            for key, v in ref.items():
                assert rho.entries[key].coeffs == v.coeffs, (name, S, key)
            assert is_maximally_mixed(rho) == is_maximally_mixed(
                ReducedDensity(rho.subset, s.q, ref)), (name, S)
    # the multi-term amplitudes really are exercised
    assert {"local_fourier", "random_multi", "random_sparse_multi", "ame_7_4_pool"} <= seen_multi


def _oracle_rho(state, subset):
    return ReducedDensity(tuple(sorted(subset)), state.q,
                          _reference_reduced_density(state, subset))


def _injective(state, S):
    Sc = [i for i in range(state.n) if i not in S]
    return len({tuple(key[i] for i in Sc) for key in state.terms}) == state.support


def test_sweep_matches_product_by_product_oracle(monkeypatch):
    """uniformity builds one KeyTable and passes it to both deciders of the
    sweep; each subset it checks, exhaustive or sampled, is decided once: by
    rank, with the oracle's verdict and witness, only where the complement is
    injective on the support, else with the oracle's entries, order and
    coefficients."""
    reduced, by_rank = verify.reduced_density, verify._by_rank
    tables = []  # per decided subset, the table its decider read

    def checked_rho(table, S):
        rho = reduced(table, S)
        ref = _reference_reduced_density(s, S)  # s: the state swept below
        assert list(rho.entries) == list(ref), S  # same keys, same order
        for key, v in ref.items():
            assert rho.entries[key].coeffs == v.coeffs, (S, key)
        tables.append(table)
        return rho

    def checked_rank(table, S):
        decided = by_rank(table, S)
        if decided:
            assert _injective(s, S) and is_maximally_mixed(_oracle_rho(s, S)) == decided, S
            tables.append(table)
        return decided

    monkeypatch.setattr(verify, "reduced_density", checked_rho)
    monkeypatch.setattr(verify, "_by_rank", checked_rank)
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
    # sweeps that get past the singletons: prime and composite q, rank and
    # reduction decisions, supports from 16 to 16,807 terms
    assert {"ame_5_4", "cl_plus_q", "ame_7_4", "cl_plus_q_10", "ame_9_7_dense"} <= swept


def _table1_table(n):
    """The Table 1 row with n parties as the key table of its fibred state's columns."""
    (k, _), ((n_cl, k_cl), seed_kind) = next(
        (key, row) for key, row in _TABLE1_ROWS.items() if key[1] == n)
    spec = gf(_min_q_clq(n_cl, k_cl, seed_kind))
    quantum = state_from_code(mds_from_singleton(*_SEED_CODE[seed_kind], spec))
    fib = cl_plus_q_fibred(mds_from_singleton(n_cl, k_cl, spec), quantum)
    return k, verify.KeyTable.of(fib)


def _complement_injective(table, S):
    group_mask = table.masks(S)[1]
    return len({code & group_mask for code in table.codes}) == table.size


def test_rank_path_agrees_with_the_reduction_oracle():
    """Ranks decide a subset exactly when its complement is injective on the
    support, with reduced_density's verdict and witness, on every coset
    support the tests build: every subset of the small ones, a seeded sample
    of the large ones, where rho_S costs a pass over 10^4 to 10^5 terms."""
    rng = random.Random(11)
    cases = [(name, verify.KeyTable.of(s), subsets) for name, s, subsets in _oracle_states()]
    # beside the prime and GF(2^m) supports above: GF(9), odd characteristic with m = 2,
    # GF(131), whose site columns hold symbols past 127, and GF(257), whose
    # columns are tuples (the matrix cap stops its sweeps at |S| = 1)
    for name, make in (("ame_7_5", lambda: cl_plus_q_repetition(*construct_G_Q(gf(5)))),
                       ("ame_9_7", lambda: cl_plus_q_repetition(*construct_G_Q(gf(7)))),
                       ("ame_5_9", lambda: ame_5_q(gf(9))),
                       ("bell_131", lambda: bell(gf(131), 1, 0)),
                       ("ghz_257", lambda: ghz(2, gf(257))),
                       ("bell_257", lambda: bell(gf(257), 5, 3))):
        table = verify.KeyTable.of(make())
        cases.append((name, table, [S for size in range(1, table.n // 2 + 1)
                                    for S in itertools.combinations(range(table.n), size)]))
    for n in (5, 6, 7, 8, 10, 11, 12):  # [6,3]_4 for row 9 is past the Singleton array
        k, table = _table1_table(n)
        cases.append((f"row_{n}", table, [S for size in range(1, k + 2)
                                          for S in itertools.combinations(range(n), size)]))
    decided = {True: Counter(), False: Counter(), None: Counter()}  # passed, refuted, handed on
    for name, table, subsets in cases:
        if table.size > 2401:
            subsets = rng.sample(subsets, min(6, len(subsets)))
        for S in subsets:
            by_rank = verify._by_rank(table, S)
            if table.coset is None:
                assert by_rank is None, (name, S)
                continue
            if _complement_injective(table, S):
                assert by_rank == is_maximally_mixed(reduced_density(table, S)), (name, S)
            else:
                assert by_rank is None, (name, S)
            decided[by_rank and by_rank[0]][name] += 1
    linear = {"ame_5_2", "ame_5_7", "ghz", "bell", "cl_plus_q", "ame_7_4", "cl_plus_q_10",
              "ame_9_7_dense", "ame_7_5", "ame_9_7", "ame_5_9", "bell_131", "ghz_257", "bell_257",
              "row_5", "row_8", "row_10", "row_11", "row_12"}
    assert linear <= set(decided[True]), linear - set(decided[True])
    # two ranks refute GHZ pairs and k + 1 subsets of some rows; the rank path
    # hands on the subsets whose complement is not injective
    assert {"ghz", "cl_plus_q", "row_6", "row_10"} <= set(decided[False])
    assert {"ame_7_5", "row_5", "row_10"} <= set(decided[None])
    assert not {"local_fourier", "random", "random_multi", "ame_7_4_pool"} & set().union(
        *decided.values())


def test_sweeps_with_and_without_the_rank_path_agree(monkeypatch):
    """Each report, witness and decision equals the one of a sweep that
    takes every subset through rho_S, refuted states included: Table 1 row
    10 over a non-MDS [7,3]_7 code, and row 11 with a GHZ seed in place of
    AME(4,7), which fails at 3 of its 165 triples."""
    sp = gf(7)
    G = mds_from_singleton(7, 3, sp).G
    non_mds = LinearCode(FFMatrix(sp, [row[:6] + row[:1] for row in G.data]))  # column 0 twice
    cases = [(name, s) for name, s, _ in _oracle_states() if s.support <= 2401]
    cases.append(("row_10_non_mds", cl_plus_q(non_mds, ghz(3, sp))))
    fib = cl_plus_q_fibred(mds_from_singleton(7, 4, sp), ghz(4, sp))
    row_11_ghz = verify.KeyTable.of(fib)
    triples = [(1, 7, 8), *random.Random(2).sample(list(itertools.combinations(range(11), 3)), 10)]

    def sweeps():
        reports = [uniformity(verify.KeyTable.of(s), k_max=3) for _, s in cases]
        return ([(r.mode, r.max_verified_k, r.tallies, r.first_failure) for r in reports],
                [slocc_witness(s, 1) for _, s in cases],
                list(verify._decisions(row_11_ghz, triples)))

    with_rank = sweeps()
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_by_rank", lambda table, S: False)
        assert sweeps() == with_rank
    refuted = {name for (name, _), (*_, failure) in zip(cases, with_rank[0]) if failure}
    assert {"ghz", "cl_plus_q_10", "row_10_non_mds"} <= refuted
    assert with_rank[2][0] == ((1, 7, 8), False, ("diag_zero", (0, 0, 0)))
    assert sum(ok for _, ok, _ in with_rank[2]) == 10


def _checked_coset(table):
    """The RREF rows of table.coset (None where it is None), checked against
    the definition word by word: not None exactly when the keys are distinct,
    of one |amp|^2, and x0 + D for x0 the first key and D closed under + and
    scalar *; then the code is over the table's field and of its length, its
    rows are in RREF and span D."""
    sp, keys = table.spec, list(table.terms)
    x0 = keys[0] if keys else None
    D = {tuple(map(sp.sub, key, x0)) for key in keys}
    is_coset = (table.norm is not None and keys and len(D) == len(keys)
                and all(tuple(map(sp.add, u, v)) in D for u in D for v in D)
                and all(tuple(sp.mul(c, x) for x in u) in D for u in D for c in range(sp.q)))
    code = table.coset
    T = None if code is None else list(map(tuple, code.rref.data))
    assert (T is not None) == bool(is_coset), (keys, T)
    if T is not None:
        assert code.spec == sp and code.n == table.n
        assert FFMatrix(sp, T, table.n) == matrix_rref(FFMatrix(sp, T, table.n))[0]
        span = {(0,) * table.n}
        for row in T:
            span = {tuple(sp.add(w, sp.mul(c, x)) for w, x in zip(word, row))
                    for word in span for c in range(sp.q)}
        assert span == D
    return T


def test_only_a_coset_support_of_one_norm_takes_the_rank_path():
    sp = gf(3)
    code_state = state_from_code(mds_from_singleton(4, 2, sp))  # [4,2]_3, pivots 0 and 1
    keys = sorted(code_state.terms)
    one = Cyclotomic.integer(3, 1)
    assert _checked_coset(verify.KeyTable.of(code_state)) is not None

    def table_of(keys, amps=None, sp=sp):  # the keys' columns, so that a key may repeat
        amps = amps or [Cyclotomic.integer(sp.q, 1)] * len(keys)
        return verify.KeyTable(sp, list(map(sp.column, zip(*keys))), amps)

    assert keys[1] == (0, 1, 1, 2) and (0, 1, 0, 0) not in keys
    # one key moved off the code, 9 keys kept
    moved = [(0, 1, 0, 0)] + keys[:1] + keys[2:]
    # (1, 0, ...) moved onto the pivot symbols (0, 1) of another key
    repeated = [(0, 1, 2, 2) if key[:2] == (1, 0) else key for key in keys]
    # a table read from a term list that holds one key twice
    twice = keys[:-1] + keys[:1]
    two_norms = [one] * 8 + [Cyclotomic.integer(3, 2)]
    # a seed whose Fourier transform |k>(1 + w^k) has norms 4, 1 and 1
    fourier_seed = local_fourier(SparseState(2, sp, {(0, 0): one, (1, 0): one}), [0])
    clq = cl_plus_q(mds_from_singleton(4, 2, sp), fourier_seed)
    # a 1-dimensional coset, each key three times: 9 keys that span only 3^1
    thrice = [key for key in keys if key[0] == 0] * 3
    # dim T is found by an exact power search: 8 keys are no power of 3, one key is 3^0
    assert _checked_coset(verify.KeyTable.of(SparseState(4, sp, {keys[1]: one}))) == []
    for table in (table_of(moved), table_of(repeated), table_of(twice), table_of(thrice),
                  table_of(keys, two_norms), table_of(keys[1:]), verify.KeyTable.of(clq)):
        assert _checked_coset(table) is None
        assert not any(verify._by_rank(table, S) for S in itertools.combinations(range(table.n), 2))
    # the keys in an order whose keys at 3^0 and 3^1 are x0 + v and x0 + 2v:
    # T's second row comes from the in-order scan, and is the sorted table's
    v = keys[1]
    unsorted = [keys[0], v, keys[3], tuple(sp.mul(2, x) for x in v)]
    unsorted += [key for key in keys if key not in unsorted]
    assert sorted(unsorted) == keys
    assert _checked_coset(table_of(unsorted)) == _checked_coset(table_of(keys))
    # 0 parties: one term is the one word of GF(q)^0, and three (3^1) repeat it
    assert _checked_coset(verify.KeyTable(sp, [], [one])) == []
    assert _checked_coset(verify.KeyTable(sp, [], [one] * 3)) is None
    # codes shifted off the origin (x0 = (1, 0, 2, ...), not a codeword):
    # bytes columns over GF(8) and GF(9), tuple columns over GF(257)
    for field, n, k in ((gf(8), 4, 2), (gf(9), 4, 2), (gf(257), 3, 1)):
        word = WeylWord(n, x=((0, 1), (2, 2)))
        shifted = apply_weyl(state_from_code(mds_from_singleton(n, k, field)), word)
        table = verify.KeyTable.of(shifted)
        assert any(table.key(table.codes[0])) and len(_checked_coset(table)) == k
        # one key moved off the coset, onto a word of it shifted by x0 again
        x0 = table.key(table.codes[0])
        off = [tuple(map(field.add, key, x0)) if i == 1 else key
               for i, key in enumerate(table.terms)]
        assert _checked_coset(table_of(off, sp=field)) is None
    # Bell with l = 2: the coset {(r, r + 2)}, which misses the zero key
    b = bell(gf(5), 2, 3)
    assert (0, 0) not in b.terms and _checked_coset(verify.KeyTable.of(b)) == [(1, 1)]
    assert verify._by_rank(verify.KeyTable.of(b), (0,)) and not verify._by_rank(
        verify.KeyTable.of(b), (0, 1))
    # over GF(257) the columns are tuples: GHZ and Bell pass |S| = 1 by rank,
    # as rho_S says, and the matrix cap stops |S| = 2
    for state in (ghz(2, gf(257)), bell(gf(257), 5, 3)):
        table = verify.KeyTable.of(state)
        assert _checked_coset(table) is not None
        for S in ((0,), (1,)):
            assert verify._by_rank(table, S) and is_maximally_mixed(reduced_density(table, S))[0]
        with pytest.raises(TooLarge, match=r"257\^2 exceeds the matrix cap"):
            next(verify._decisions(table, [(0, 1)]))


def _sliced_by_rank(table, S):
    """The rank path's decision by its first formula: T's rows cut to the
    columns of S^c and of S, each cut eliminated in full; a refutation's
    witness is the first key's symbols at S."""
    if table.coset is None:
        return None
    T, spec = table.coset.rref.data, table.spec
    rest = [i for i in range(table.n) if i not in S]
    if rank_of_rows(spec, [[row[i] for i in rest] for row in T]) < len(T):
        return None
    if rank_of_rows(spec, [[row[i] for i in S] for row in T]) == len(S):
        return True, None
    return False, ("diag_zero", tuple(next(iter(table.terms))[i] for i in S))


def test_rank_path_reads_the_column_ranks_the_slices_give():
    # every subset up to n // 2 of every oracle table, the sampled ones included
    decided = Counter()
    for name, state, _ in _oracle_states():
        table = verify.KeyTable.of(state)
        for S in itertools.chain.from_iterable(
                itertools.combinations(range(table.n), size) for size in range(1, table.n // 2 + 1)):
            by_rank = verify._by_rank(table, S)
            assert by_rank == _sliced_by_rank(table, S), (name, S)
            decided[name, by_rank and by_rank[0]] += 1
    # a pass, a refutation and a subset handed on are each reached, and the
    # non-coset tables decide nothing
    assert {("ame_7_4", True), ("ghz", True), ("ghz", False), ("cl_plus_q", None)} <= set(decided)
    assert not {(name, ok) for name in ("local_fourier", "random", "random_multi", "ame_7_4_pool")
                for ok in (True, False)} & set(decided)


def test_key_table_is_over_the_field_of_its_state():
    # GF(8) by x^3 + x^2 + 1, not gf(8)'s modulus: over gf(8) the code's words
    # are no subspace, and every subset went through rho_S
    sp = make_field(2, 3, (1, 0, 1, 1))
    assert sp != gf(8)
    code = mds_from_singleton(5, 3, sp)
    for state in (state_from_code(code), code_fibred(code)):
        table = verify.KeyTable.of(state)
        assert table.spec == sp and _checked_coset(table) is not None
        calls = []
        original = verify.reduced_density
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "reduced_density", lambda *args: calls.append(args) or original(*args))
            report = uniformity(state)
        assert (report.max_verified_k, report.tallies, calls) == (2, {1: (5, 5), 2: (10, 10)}, [])


def test_key_table_frees_itself_when_packing_runs_out_of_memory(monkeypatch):
    # the traceback keeps the half-built table alive: it must hold nothing
    def no_memory(self, columns):
        raise MemoryError("no room for the codes")

    monkeypatch.setattr(FieldSpec, "pack", no_memory)
    state = state_from_code(mds_from_singleton(4, 2, gf(3)))
    table = verify.KeyTable.__new__(verify.KeyTable)
    with pytest.raises(MemoryError, match="no room for the codes"):
        table.__init__(state.spec, *state.columns())
    assert table.__dict__ == {}


def test_rank_path_comes_before_the_matrix_cap(monkeypatch):
    # a code state of support 17^3 = 4,913: every 3-subset passes by rank, so
    # q^|S| = 4,913 over the cap stops no sweep; the cap guards rho_S alone
    state = state_from_code(mds_from_singleton(6, 3, gf(17)))
    table = verify.KeyTable.of(state)
    assert table.coset is not None and verify._by_rank(table, (0, 1, 2))
    calls = []
    original = verify.reduced_density
    with monkeypatch.context() as patch:
        patch.setattr(verify, "reduced_density", lambda *args: calls.append(args) or original(*args))
        report = uniformity(table)
        assert slocc_witness(table, 2) == (0, 1, 2)
    assert (report.mode, report.max_verified_k, report.first_failure) == ("exhaustive", 3, None)
    assert report.tallies == {1: (6, 6), 2: (15, 15), 3: (20, 20)} and calls == []
    # a 4-subset's complement is not injective on the support: only rho_S
    # decides it, and its 17^4 rows are over the cap
    assert not verify._by_rank(table, (0, 1, 2, 3))
    with pytest.raises(TooLarge, match=r"17\^4 exceeds the matrix cap 4096"):
        next(verify._decisions(table, [(0, 1, 2, 3)]))
    with pytest.raises(TooLarge, match=r"17\^4 exceeds the matrix cap 4096"):
        slocc_witness(table, 3)
    for S in ((0, 1, 2), (3, 4, 5)):  # reduced_density itself keeps its cap
        with pytest.raises(TooLarge, match=r"17\^3 exceeds the matrix cap 4096"):
            reduced_density(table, S)
    # Bell over GF(257) at |S| = 2: no complement is left to be injective
    with pytest.raises(TooLarge, match=r"257\^2 exceeds the matrix cap 4096"):
        slocc_witness(bell(gf(257), 5, 3), 1)


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
    # symbols up to 256 take 9 bits of a key's code; q > 256 has no rank
    # path, so every subset is decided by its rho_S
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


def test_reduced_density_rejects_a_malformed_subset():
    # a repeated site or one outside [0, n) names no reduction: it is refused
    # through a state and through its key table, and before the matrix cap,
    # instead of a reduction of other sites, a refutation or an IndexError
    s = ghz(3, gf(2))
    for S in ((-1,), (0, 0), (3,), (0, 3), (1, 1, 2), (-1, 0, 1)):
        for state in (s, verify.KeyTable.of(s)):
            with pytest.raises(ShapeMismatch, match="not a set of sites"):
                reduced_density(state, S)
    with pytest.raises(ShapeMismatch):
        reduced_density(ghz(8, gf(9)), (0, 0, 1, 2, 3, 4))  # 9^6 is over the cap too
    rho = reduced_density(s, (2, 0))  # any order of distinct sites is one subset
    assert rho.subset == (0, 2) and rho.entries == reduced_density(s, (0, 2)).entries


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
    monkeypatch.setattr(verify, "_by_rank", lambda table, S: False)
    assert slocc_witness(ghz(n, gf(2)), k, classical_cut=cut) is None
    assert visited == _preferred_then_rest(n, k, cut)


def test_slocc_witness_on_a_streamed_table(monkeypatch):
    """The Table 1 rows as fibred states, whose key tables are built from
    their columns: a witness of the preferred shape at the first subset,
    where n allows one, and the materialized state's witness on the rows that
    are small enough."""
    expected = {5: None, 6: (0, 1, 4), 7: (0, 1, 5), 8: (0, 1, 5), 10: (0, 1, 7),
                11: (0, 1, 2, 7), 12: (0, 1, 2, 8)}
    rows = {n: (k, row) for (k, n), row in _TABLE1_ROWS.items() if n in expected}
    reduced, by_rank, calls = verify.reduced_density, verify._by_rank, []

    def counted(table, S):
        calls.append(S)
        return reduced(table, S)

    def counted_if_decided(table, S):
        decided = by_rank(table, S)
        if decided:
            calls.append(S)
        return decided

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
            patch.setattr(verify, "_by_rank", counted_if_decided)
            S = slocc_witness(fib, k, classical_cut=n_cl)
        assert S == expected[n], n
        if S is not None:
            assert calls == [S], n  # the first subset of the order, by either decider
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


def test_stabilizer_check_rejects_an_adjacency_over_another_field():
    # the edge graph state over GF(3): a weight 4 over GF(5) or GF(7) is no
    # GF(3) weight, though 4 mod 3 = 1 would make it pass
    g = local_fourier(ghz(2, gf(3)), [1])
    assert stabilizer_check(g, FFMatrix(gf(3), [[0, 1], [1, 0]])) == (True, None)
    for q in (5, 7):
        with pytest.raises(SpecMismatch):
            stabilizer_check(g, FFMatrix(gf(q), [[0, 4], [4, 0]]))


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
    table = verify.KeyTable.of(ghz(n, gf(2)))
    swept = []

    def recorded(table, S):  # each subset is handed on to a rho_S that passes
        swept.append(S)

    monkeypatch.setattr(verify, "_by_rank", recorded)
    monkeypatch.setattr(verify, "reduced_density", lambda table, S: None)
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
    # each drawn index is unranked straight to its subset: a 60-party sweep to
    # |S| = 6 does not walk the C(60, 6) ~ 5.0e7 combinations to reach them
    n = 60
    table = verify.KeyTable.of(ghz(n, gf(2)))
    swept.clear()
    start = time.perf_counter()
    report = verify.uniformity(table, k_max=6, sample=sample, seed=seed)
    assert time.perf_counter() - start < 1.0
    assert report.tallies == {size: (sample, sample) for size in range(1, 7)}
    rng = random.Random(seed)  # listed up to |S| = 4; the larger sizes draw alike
    listed = [S for size in range(1, 5)
              for S in sorted(rng.sample(list(itertools.combinations(range(n), size)), sample))]
    assert swept[:len(listed)] == listed
    assert [len(S) for S in swept[len(listed):]] == [5] * sample + [6] * sample
    # the index-to-subset step is lexicographic order itself
    for n in range(11):
        for size in range(n + 1):
            assert ([verify._combination(n, size, i) for i in range(math.comb(n, size))]
                    == list(itertools.combinations(range(n), size))), (n, size)


def test_key_table_terms_decode_to_the_state_keys_in_term_order():
    # the benchmark's tracer reads a swept state's keys through this property
    rng = random.Random(4)
    for q in (2, 4, 5, 9):
        keys = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(30)]
        state = SparseState(4, gf(q), {key: Cyclotomic.integer(q, 1) for key in keys})
        assert list(verify.KeyTable.of(state).terms) == list(state.terms)
        assert list(state.terms) != sorted(state.terms)  # term order, not sorted order
