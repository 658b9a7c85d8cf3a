"""Linear codes over GF(q): distance, MDS certification, duals, surgery."""

import itertools
import math
import random

import pytest

from kuni.codes import (
    MAX_ENUM_CODEWORDS,
    LinearCode,
    _free_block,
    _nonzero_minors,
    column_rank,
    dual_code,
    enumerate_codewords,
    format_code,
    is_mds,
    mds_exists,
    mds_from_singleton,
    min_distance,
    parse_code,
    puncture,
    shorten,
    singleton_array,
    standard_form,
    walk_minors,
)
from kuni.decomposition import kernel_subcode
from kuni.errors import (
    DegenerateCoordinate,
    FormatError,
    OutOfRange,
    RankDeficient,
    RankDrop,
    TooLarge,
)
from kuni.field import FFMatrix, FieldSpec, gf, make_field, matrix_rank, rank_of_rows
from kuni.states import ame_19_17_matrices, ame_21_19_matrices


def random_mds_instances(count, seed=0, n_max=8, q_max=8):
    """Yield `count` random MDS codes with n <= n_max, q <= q_max, built from
    Singleton-array codes diversified by column permutation, column scaling,
    and row operations (all of which preserve the MDS property)."""
    rng = random.Random(seed)
    prime_powers = [q for q in range(2, q_max + 1) if _is_prime_power(q)]
    made = 0
    while made < count:
        q = rng.choice(prime_powers)
        n = rng.randrange(2, min(n_max, q + 1) + 1)
        k = rng.randrange(1, n)
        if not mds_exists(n, k, q):
            continue
        spec = gf(q)
        base = mds_from_singleton(n, k, spec)
        perm = list(range(n))
        rng.shuffle(perm)
        scales = [rng.randrange(1, q) for _ in range(n)]
        data = [[spec.mul(row[j], scales[j]) for j in perm]
                for row in base.G.data]
        # a random invertible row operation on top
        if k >= 2:
            r1, r2 = rng.sample(range(k), 2)
            f = rng.randrange(q)
            data[r1] = [spec.add(a, spec.mul(f, b))
                        for a, b in zip(data[r1], data[r2])]
        yield LinearCode(FFMatrix(spec, data))
        made += 1


def _is_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return False


def test_code_from_generator_requires_full_rank():
    with pytest.raises(RankDeficient):
        LinearCode(FFMatrix(gf(2), [[1, 0, 1], [1, 0, 1]]))


def test_enumerate_codewords_counts_and_order():
    code = LinearCode(FFMatrix(gf(3), [[1, 0, 1], [0, 1, 2]]))
    cws = list(enumerate_codewords(code))
    assert len(cws) == 9 and len(set(cws)) == 9
    assert cws[0] == (0, 0, 0)
    # lexicographic in the message, so the second word is 1 * (second row)
    assert cws[1] == (0, 1, 2)
    # the block enumeration against encoding every message on its own: k = 1,
    # prime and extension fields, [I | 1] over GF(3) with k = 10 (3^10 words,
    # blocks of 3^8 shifted by the words of its first two rows), q = 257 and
    # GF(2^9), whose columns are tuples
    g3 = gf(3)
    for code in (LinearCode(FFMatrix(gf(5), [[1, 2, 3]])), LinearCode(FFMatrix(gf(8), [[3, 0, 7]])),
                 mds_from_singleton(5, 3, gf(4)), mds_from_singleton(6, 3, gf(5)),
                 mds_from_singleton(7, 3, gf(7)), mds_from_singleton(6, 3, gf(8)),
                 mds_from_singleton(6, 3, gf(9)),
                 LinearCode(FFMatrix.identity(g3, 10).hstack(FFMatrix(g3, [[1]] * 10))),
                 mds_from_singleton(4, 2, gf(257)), LinearCode(FFMatrix(gf(512), [[1, 5, 300]]))):
        messages = itertools.product(range(code.q), repeat=code.k)
        assert list(enumerate_codewords(code)) == [code.G.row_vector_mul(v) for v in messages]
    # k = 0: the zero word alone; the [0, 0] code's one word is empty
    assert list(enumerate_codewords(LinearCode(FFMatrix(gf(3), [], 4)))) == [(0, 0, 0, 0)]
    assert list(enumerate_codewords(LinearCode(FFMatrix(gf(3), [], 0)))) == [()]
    # streaming: [I | 1] has 5^11 = 48,828,125 words, just under the cap, and
    # its first words come at once, without the rest being built
    sp = gf(5)
    code = LinearCode(FFMatrix.identity(sp, 11).hstack(FFMatrix(sp, [[1]] * 11)))
    assert code.q ** code.k < MAX_ENUM_CODEWORDS
    words = list(itertools.islice(enumerate_codewords(code), 3))
    assert words == [(0,) * 12, (0,) * 10 + (1, 1), (0,) * 10 + (2, 2)]


def test_column_add_rows_are_built_once_per_field(monkeypatch):
    # a fresh GF(2^8): its first enumeration builds the q^2 = 65,536 sums of
    # its add rows, and a second reads them without one add
    spec = make_field(2, 8)
    code = LinearCode(FFMatrix(spec, [[1, 2, 3]]))
    calls = []
    add = FieldSpec.add
    monkeypatch.setattr(FieldSpec, "add", lambda self, a, b: calls.append(1) or add(self, a, b))
    words = list(enumerate_codewords(code))
    assert len(calls) == 256 ** 2
    assert list(enumerate_codewords(code)) == words and len(calls) == 256 ** 2
    assert words == [code.G.row_vector_mul([a]) for a in range(256)]


def test_singleton_array_gf17_values():
    # a_i = 1/(1 - gamma^i) with gamma = 3: a_1 = 8, a_2 = 2, a_3 = 15
    arr = singleton_array(gf(17))
    sp = arr.spec
    gamma = 3
    for i in (1, 2, 3):
        expected = sp.inv(sp.sub(1, sp.pow(gamma, i)))
        assert arr.a[i] == expected
    assert arr.a[1:4] == (8, 2, 15)
    # border rows/columns are all ones, interior is a_{r+c-1}
    assert arr.entry(0, 5) == 1 and arr.entry(4, 0) == 1
    assert arr.entry(2, 3) == arr.a[4]


def test_singleton_array_entry_outside_the_array():
    arr = singleton_array(gf(7))
    for r, c in ((-1, 0), (0, -1), (3, 4)):
        with pytest.raises(IndexError, match="outside the Singleton array"):
            arr.entry(r, c)


def test_singleton_array_blocks_are_nonsingular():
    # the defining property: every square block anchored anywhere has full
    # rank; spot-check all square submatrices of the 4x4 corner over GF(7)
    arr = singleton_array(gf(7))
    M = arr.block(4, 4)
    for size in (1, 2, 3, 4):
        for rows in itertools.combinations(range(4), size):
            for cols in itertools.combinations(range(4), size):
                sub = FFMatrix(arr.spec, [[M.data[r][c] for c in cols] for r in rows])
                assert matrix_rank(sub) == size


@pytest.mark.parametrize("n,k,q", [(4, 2, 3), (5, 2, 4), (5, 3, 4), (6, 3, 5),
                                   (8, 4, 7), (9, 4, 8), (10, 5, 9)])
def test_mds_from_singleton(n, k, q):
    code = mds_from_singleton(n, k, gf(q))
    assert (code.n, code.k) == (n, k)
    cert = is_mds(code, method="columns")
    assert cert.is_mds


def test_mds_from_singleton_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        mds_from_singleton(5, 2, gf(3))  # n > q + 1 for odd q


def test_min_distance_brute_vs_rank():
    for code in random_mds_instances(25, seed=42, n_max=7, q_max=7):
        assert min_distance(code, method="brute") == min_distance(code, method="rank")
        assert min_distance(code) == code.n - code.k + 1  # Singleton met


def test_min_distance_non_mds():
    # [4,2] binary code with d = 2
    code = LinearCode(FFMatrix(gf(2), [[1, 0, 1, 0], [0, 1, 1, 1]]))
    assert min_distance(code, method="brute") == 2
    assert min_distance(code, method="rank") == 2
    assert not is_mds(code, method="columns").is_mds
    assert not is_mds(code, method="distance").is_mds
    assert not is_mds(code, method="submatrix").is_mds


def test_is_mds_methods_agree_and_record_checks():
    code = mds_from_singleton(5, 2, gf(5))
    certs = {m: is_mds(code, method=m) for m in ("distance", "submatrix", "columns")}
    assert all(c.is_mds for c in certs.values())
    assert certs["columns"].checks == 10  # C(5, 2)
    assert certs["columns"].method == "columns"
    # a failing certificate names a witness
    bad = LinearCode(FFMatrix(gf(2), [[1, 0, 1, 0], [0, 1, 1, 1]]))
    cert = is_mds(bad, method="columns")
    assert cert.witness is not None


def _reference_is_mds_columns(code):
    """The per-subset column check the minor walk replaced: one rank per
    k-subset in lexicographic order, stopping at the first dependent one."""
    cols = [code.G.col(c) for c in range(code.n)]
    checks = 0
    for idx in itertools.combinations(range(code.n), code.k):
        checks += 1
        if rank_of_rows(code.spec, list(zip(*(cols[c] for c in idx)))) < code.k:
            return False, checks, ("columns", idx)
    return True, checks, None


def _columns_result(code):
    cert = is_mds(code, method="columns")
    return cert.is_mds, cert.checks, cert.witness


def _reference_is_mds_submatrix(code):
    """One rank per square submatrix of the A of standard_form's [I | A], in
    the order of is_mds's "submatrix" method: (checks, witness)."""
    std, perm = standard_form(code)
    n, k = code.n, code.k
    A = std.G.select_columns(range(k, n))
    checks = 0
    for t in range(1, min(k, n - k) + 1):
        for rset in itertools.combinations(range(k), t):
            for cset in itertools.combinations(range(n - k), t):
                checks += 1
                if matrix_rank(FFMatrix(code.spec, [[A.data[r][c] for c in cset] for r in rset])) < t:
                    return checks, ("submatrix", rset, cset, perm)
    return checks, None


def _random_code(rng, spec, n, k):
    """A random [n, k] code over spec, k = 0 included."""
    while True:
        G = FFMatrix(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(k)], n)
        if matrix_rank(G) == k:
            return LinearCode(G)


def _dense_equivalent(rng, G):
    """M.G.D.Pi: M random invertible, D random nonzero diagonal, Pi a random
    column permutation; the same code up to a monomial map, so MDS alike."""
    sp, k, n = G.spec, G.rows, G.cols
    while True:
        M = FFMatrix(sp, [[rng.randrange(sp.q) for _ in range(k)] for _ in range(k)])
        if matrix_rank(M) == k:
            break
    scales = [rng.randrange(1, sp.q) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    MG = M.matmul(G)
    return FFMatrix(sp, [[sp.mul(row[c], scales[c]) for c in perm] for row in MG.data])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_columns_walk_matches_per_subset_scan(q):
    rng = random.Random(q)
    spec = gf(q)
    codes = [_random_code(rng, spec, n, k) for n in range(1, 9) for k in range(n + 1)
             for _ in range(2)]
    codes += list(random_mds_instances(12, seed=q, n_max=9, q_max=16))
    verdicts = set()
    for code in codes:
        expected = _reference_is_mds_columns(code)
        assert _columns_result(code) == expected, code.G
        verdicts.add(expected[0])
        # fresh codes: a certificate caches the distance on its code
        cert = is_mds(LinearCode(code.G), method="submatrix")
        assert (cert.checks, cert.witness) == _reference_is_mds_submatrix(code), code.G
        assert cert.is_mds == expected[0]
        # the brute scan only where it is small (the rank scan has no such cap)
        if code.k and code.q ** code.k <= 10 ** 4:
            assert (min_distance(LinearCode(code.G), method="rank")
                    == min_distance(LinearCode(code.G), method="brute")), code.G
        if code.q ** code.k <= 10 ** 4:
            cert = is_mds(LinearCode(code.G), method="distance")
            witness = None if expected[0] else (
                "distance", min_distance(LinearCode(code.G), method="brute"))
            assert (cert.is_mds, cert.checks, cert.witness) == (expected[0], 1, witness), code.G
    assert verdicts == {True, False}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_column_rank_is_the_rank_of_the_columns(q):
    # every column set of random codes (k = 0 and k = n included, most of
    # them not MDS) and of MDS codes, against the columns eliminated in full
    rng = random.Random(100 + q)
    spec = gf(q)
    codes = [_random_code(rng, spec, n, k) for n in range(7) for k in range(n + 1)]
    codes += list(random_mds_instances(6, seed=q, n_max=7, q_max=9))
    assert any(not is_mds(LinearCode(code.G)).is_mds for code in codes)
    for code in codes:
        cols = [code.G.col(c) for c in range(code.n)]
        for size in range(code.n + 1):
            for C in itertools.combinations(range(code.n), size):
                expected = rank_of_rows(code.spec, list(zip(*(cols[c] for c in C))))
                assert column_rank(code, C) == expected, (code.G, C)
                assert column_rank(code, reversed(C)) == expected


def _zero_sets(code):
    """The zero positions of every nonzero codeword: columns C of G are
    dependent iff some nonzero word vanishes on all of C."""
    words = enumerate_codewords(code)
    next(words)  # the zero word, of message 0
    return {frozenset(i for i, x in enumerate(word) if not x) for word in words}


def test_refuted_witnesses_match_a_codeword_scan():
    # seeded random codes that is_mds refutes: each method's (checks,
    # witness) and the rank distance, against scans of the codewords alone
    rng = random.Random(7)
    refuted = 0
    while refuted < 60:
        q = rng.choice([2, 3, 4, 5, 7, 8, 9])
        n = rng.randrange(2, 8)
        k = rng.randrange(1, n)
        if q ** k > 3000:
            continue
        code = _random_code(rng, gf(q), n, k)
        if is_mds(LinearCode(code.G)).is_mds:
            continue
        refuted += 1
        zeros = _zero_sets(code)

        def dependent(C):
            return any(z.issuperset(C) for z in zeros)

        columns = list(itertools.combinations(range(n), k))
        first = next(i for i, S in enumerate(columns) if dependent(S))
        cert = is_mds(LinearCode(code.G), method="columns")
        assert (cert.checks, cert.witness) == (first + 1, ("columns", columns[first])), code.G
        pivots = code.pivots
        free = [c for c in range(n) if c not in pivots]
        squares = [(rset, cset) for t in range(1, min(k, n - k) + 1)
                   for rset in itertools.combinations(range(k), t)
                   for cset in itertools.combinations(range(n - k), t)]
        first = next(i for i, (rset, cset) in enumerate(squares) if dependent(
            [p for r, p in enumerate(pivots) if r not in rset] + [free[c] for c in cset]))
        cert = is_mds(LinearCode(code.G), method="submatrix")
        assert (cert.checks, cert.witness) == (
            first + 1, ("submatrix", *squares[first], pivots + free)), code.G
        d = n - max(map(len, zeros))  # the weight of a word with the most zeros
        assert min_distance(LinearCode(code.G), method="rank") == d, code.G
        cert = is_mds(LinearCode(code.G), method="distance")
        assert (cert.checks, cert.witness) == (1, ("distance", d)), code.G


def test_mds_codes_take_the_walk_only(monkeypatch):
    # on an MDS code every method's verdict is the minor walk's: no rank per
    # submatrix, no codeword enumerated
    import kuni.codes

    calls = []

    def counted(name):
        original = getattr(kuni.codes, name)

        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("rank_of_rows", "enumerate_codewords"):
        monkeypatch.setattr(kuni.codes, name, counted(name))
    G = mds_from_singleton(11, 6, gf(11)).G
    for method, checks in (("submatrix", 461), ("distance", 1)):
        code = LinearCode(G)
        cert = is_mds(code, method=method)
        assert (cert.is_mds, cert.checks, cert.witness) == (True, checks, None)
        assert code.cached_distance == 6
    assert calls == []


def test_code_eliminates_its_generator_once(monkeypatch):
    # the RREF kept at construction answers the MDS walk, the columns
    # certificate, the standard form and the dual: none eliminates G again
    import kuni.field

    calls = []
    original = kuni.field._rref_data

    def counted(spec, data):
        calls.append(len(data))
        return original(spec, data)

    monkeypatch.setattr(kuni.field, "_rref_data", counted)
    G, Q = ame_19_17_matrices()
    for code in (LinearCode(G), kernel_subcode(G, Q), mds_from_singleton(7, 4, gf(8))):
        calls.clear()
        code = LinearCode(code.G)
        assert calls == [code.k]
        assert walk_minors(code) == math.comb(code.n, code.k) - 1
        cert = is_mds(code)
        assert cert.is_mds and cert.checks == math.comb(code.n, code.k)
        assert calls == [code.k]
        standard_form(code)  # the standard form's own generator, once
        dual_code(code)  # the dual's own generator, once
        assert calls == [code.k, code.k, code.n - code.k]


def test_columns_walk_matches_scan_on_dense_ame_19_17_pair():
    rng = random.Random(1917)
    G, Q = ame_19_17_matrices()
    sp = G.spec
    for base in (G, kernel_subcode(G, Q).G):
        dense = LinearCode(_dense_equivalent(rng, base))
        expected = _reference_is_mds_columns(dense)
        assert expected == (True, math.comb(base.cols, base.rows), None)
        assert _columns_result(dense) == expected
        # one changed entry of a certified code: a refutation with a witness
        data = [row[:] for row in dense.G.data]
        data[base.rows // 2][base.cols // 2] = sp.add(data[base.rows // 2][base.cols // 2], 1)
        broken = LinearCode(FFMatrix(sp, data))
        expected = _reference_is_mds_columns(broken)
        assert not expected[0] and _columns_result(broken) == expected


@pytest.mark.parametrize("pair", [ame_19_17_matrices, ame_21_19_matrices])
def test_minor_walk_visits_every_minor_once(pair):
    G, Q = pair()
    for code in (LinearCode(G), kernel_subcode(G, Q)):
        assert _nonzero_minors(code.spec, _free_block(code)) == math.comb(code.n, code.k) - 1


def _has_zero_minor(spec, A, size):
    return any(matrix_rank(FFMatrix(spec, [[A[r][c] for c in cs] for r in rs])) < size
               for rs in itertools.combinations(range(len(A)), size)
               for cs in itertools.combinations(range(len(A[0])), size))


def test_minor_walk_finds_a_deep_zero_minor():
    # [I | A] of an MDS [10, 5]_101 code; set the last entry of one 4x4
    # minor of A so that this minor vanishes while every smaller one stays
    # nonzero: the walk must reach the fourth level to refute the code.  A
    # gap before the minor's last row puts the zero below the first row of
    # the last Schur complement.
    sp = gf(101)
    code = mds_from_singleton(10, 5, sp)
    base = [row[5:] for row in code.G.data]
    for rows, cols in itertools.product(itertools.combinations(range(5), 4), repeat=2):
        r0, c0 = rows[-1], cols[-1]
        if r0 - rows[-2] < 2:
            continue
        A = [row[:] for row in base]
        for x in range(1, sp.q):
            A[r0][c0] = x
            minor = FFMatrix(sp, [[A[r][c] for c in cols] for r in rows])
            if matrix_rank(minor) < 4:
                break
        else:
            continue
        if not any(_has_zero_minor(sp, A, size) for size in (1, 2, 3)):
            break
    else:
        raise AssertionError("no 4x4 minor can vanish alone")
    assert _nonzero_minors(sp, A) is None
    broken = LinearCode(FFMatrix.identity(sp, 5).hstack(FFMatrix(sp, A)))
    expected = _reference_is_mds_columns(broken)
    assert not expected[0] and _columns_result(broken) == expected


def _systematic(spec, A):
    """The code [I | A], with A as rows of int reprs."""
    k = len(A)
    n = k + (len(A[0]) if A else 0)
    return LinearCode(FFMatrix.identity(spec, k).hstack(FFMatrix(spec, A, n - k)))


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_packed_walk_lanes_at_their_extremes(p):
    # every entry p - 1, and p - 1 around a pivot 1: the rank-1 update then
    # puts (p - 1) + (p - 1)^3, the largest value a lane can hold, in every
    # lane before the Barrett step
    sp = gf(p)
    blocks = [[[p - 1] * c for _ in range(r)] for r in range(1, 5) for c in range(1, 5)]
    blocks += [[[1 if (r, c) == (0, 0) else p - 1 for c in range(w)] for r in range(h)]
               for h in range(2, 5) for w in range(2, 5)]
    for A in blocks:
        code = _systematic(sp, A)
        assert _columns_result(code) == _reference_is_mds_columns(code), A
    # 1 x w and h x 1 blocks have no minor beyond their nonzero entries
    for A in ([[p - 1] * 5], [[p - 1]] * 5):
        assert _nonzero_minors(sp, A) == 5
        assert _columns_result(_systematic(sp, A)) == (True, 6, None)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_packed_walk_on_codes_without_minors(p):
    # k = 0 and n = k leave A empty: C(n, k) = 1 column set, no minor walked
    rng = random.Random(p)
    sp = gf(p)
    for n in range(1, 5):
        for code in (_random_code(rng, sp, n, 0), _random_code(rng, sp, n, n)):
            assert _nonzero_minors(sp, _free_block(code)) == 0
            assert _columns_result(code) == _reference_is_mds_columns(code) == (True, 1, None)


def _zero_minors(spec, A):
    return [(rs, cs) for t in range(1, min(len(A), len(A[0])) + 1)
            for rs in itertools.combinations(range(len(A)), t)
            for cs in itertools.combinations(range(len(A[0])), t)
            if matrix_rank(FFMatrix(spec, [[A[r][c] for c in cs] for r in rs])) < t]


@pytest.mark.parametrize("lane", ["first", "last", "row wrap"])
def test_packed_walk_finds_one_zero_in_a_deep_complement(lane):
    # A random 6 x 6 over GF(65521) with no zero minor, so [I | A] is MDS.
    # Pivoting on (0, 0) of A and then on (0, 1) of its complement leaves a
    # 4 x 3 complement on rows 2..5 and columns 3..5 of A, its rows 6 lanes
    # apart.  Its (r, c) entry is the minor on rows {0, 1, 2 + r} and columns
    # {0, 2, 3 + c}; set one entry of A so that this minor, and no other
    # minor of A, vanishes
    sp = gf(65521)
    rng = random.Random(6)
    A = [[rng.randrange(1, sp.q) for _ in range(6)] for _ in range(6)]
    assert _zero_minors(sp, A) == []
    r, c = {"first": (0, 0), "last": (3, 2), "row wrap": (1, 0)}[lane]
    rows, cols = (0, 1, 2 + r), (0, 2, 3 + c)
    for x in range(1, sp.q):
        A[rows[-1]][cols[-1]] = x
        if matrix_rank(FFMatrix(sp, [[A[i][j] for j in cols] for i in rows])) < 3:
            break
    assert _zero_minors(sp, A) == [(rows, cols)]
    assert _nonzero_minors(sp, A) is None
    broken = _systematic(sp, A)
    expected = _reference_is_mds_columns(broken)
    assert not expected[0] and _columns_result(broken) == expected


def test_standard_form():
    code = LinearCode(FFMatrix(gf(3), [[0, 1, 2], [1, 1, 1]]))
    std, perm = standard_form(code)
    assert sorted(perm) == list(range(3))
    # leading k columns are the identity
    for r in range(std.k):
        for c in range(std.k):
            assert std.G.data[r][c] == (1 if r == c else 0)
    # same codeword set up to the recorded coordinate permutation
    orig = {tuple(cw[p] for p in perm) for cw in enumerate_codewords(code)}
    assert orig == set(enumerate_codewords(std))


def test_dual_code_orthogonality():
    for code in random_mds_instances(15, seed=9, n_max=6, q_max=5):
        dual = dual_code(code)
        assert dual.n == code.n and dual.k == code.n - code.k
        sp = code.spec
        for u in code.G.data:
            for v in dual.G.data:
                acc = 0
                for a, b in zip(u, v):
                    acc = sp.add(acc, sp.mul(a, b))
                assert acc == 0


def test_dual_of_full_length_code_keeps_n():
    dual = dual_code(LinearCode(FFMatrix.identity(gf(5), 3)))
    assert (dual.n, dual.k) == (3, 0) and repr(dual) == "[3,0]_5"


def test_dual_of_dual_is_original():
    code = mds_from_singleton(5, 2, gf(4))
    assert code.codeword_set() == dual_code(dual_code(code)).codeword_set()


def test_puncture_and_shorten_shapes():
    code = mds_from_singleton(6, 3, gf(7))
    p = puncture(code, 2)
    assert (p.n, p.k) == (5, 3)
    s = shorten(code, 0)
    assert (s.n, s.k) == (5, 2)
    assert min_distance(s) >= min_distance(code)
    # shortening against the brute-force subcode, over a prime and an extension field
    for code in (code, mds_from_singleton(6, 3, gf(8))):
        words = code.codeword_set()
        for c in range(code.n):
            expected = {w[:c] + w[c + 1:] for w in words if w[c] == 0}
            assert shorten(code, c).codeword_set() == expected


def test_shorten_refuses_a_coordinate_every_word_has_zero():
    code = LinearCode(FFMatrix(gf(3), [[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(DegenerateCoordinate):
        shorten(code, 2)


def test_unknown_check_methods_are_refused():
    code = LinearCode(FFMatrix(gf(5), [[1, 0, 1, 1], [0, 1, 1, 2]]))  # no distance cached
    for check in (is_mds, min_distance):
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            check(code, method="nope")
    # a cached distance does not let an unknown method through
    cached = mds_from_singleton(4, 2, gf(5))
    assert min_distance(cached) == 3
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        min_distance(cached, method="nope")


def test_puncture_rank_drop():
    # puncturing the only informative coordinate of a [1-weight] row
    code = LinearCode(FFMatrix(gf(2), [[1, 0, 0], [0, 1, 1]]))
    with pytest.raises(RankDrop):
        puncture(code, 0)


def test_mds_exists_rejects_degenerate_parameters():
    for n in (0, 1):
        assert not any(mds_exists(n, k, 5) for k in range(-1, 3))
    assert not mds_exists(4, 0, 5) and not mds_exists(4, 5, 5) and not mds_exists(4, -1, 5)


def test_codeword_set_refuses_past_the_enumeration_cap():
    # the [11,10]_7 parity code: 7^10 words
    code = LinearCode(FFMatrix.identity(gf(7), 10).hstack(FFMatrix(gf(7), [[1]] * 10)))
    assert (code.n, code.k) == (11, 10) and 7 ** 10 > MAX_ENUM_CODEWORDS
    with pytest.raises(TooLarge):
        code.codeword_set()


def test_mds_exists_intervals():
    # trivial parameters always exist
    assert mds_exists(9, 1, 2) and mds_exists(9, 8, 2) and mds_exists(9, 9, 2)
    # odd q: 2 <= k <= n-2 needs n <= q+1
    assert mds_exists(4, 2, 3) and not mds_exists(5, 2, 3)
    assert mds_exists(6, 3, 5) and not mds_exists(7, 3, 5)
    # even q with k in {3, q-1}: n <= q+2
    assert mds_exists(6, 3, 4) and not mds_exists(7, 3, 4)
    assert mds_exists(10, 3, 8) and not mds_exists(11, 3, 8)
    # even q, other k: n <= q+1
    assert mds_exists(5, 2, 4) and not mds_exists(6, 2, 4)
    # the minimal-q data points the comparison table relies on
    assert mds_exists(5, 2, 4) and not mds_exists(5, 2, 3)
    assert mds_exists(7, 3, 7) and not mds_exists(7, 3, 5)


def test_distance_cache_write_once():
    code = LinearCode(FFMatrix(gf(3), [[1, 0, 1, 1], [0, 1, 1, 2]]))
    assert code.cached_distance is None
    d = min_distance(code)
    assert code.cached_distance == d == 3
    assert min_distance(code, method="brute") == 3  # consistent re-entry


def test_code_format_roundtrip():
    code = mds_from_singleton(5, 3, gf(4))
    text = format_code(code)
    back = parse_code(text)
    assert back.codeword_set() == code.codeword_set()
    assert format_code(back) == text


def test_parse_code_errors():
    with pytest.raises(FormatError):
        parse_code("3 2\n1 0 1\n0 1 1\n")  # missing CODE header
    with pytest.raises(FormatError):
        parse_code("CODEBOOK 3 2\n2 3 2 1\n1 0 1\n0 1 1\n")  # a longer keyword
    with pytest.raises(FormatError):
        parse_code("CODE x y\n")
