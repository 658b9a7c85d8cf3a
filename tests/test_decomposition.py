"""Coset decomposition of MDS codes into q^2 MDS subcodes and the
closed-form (G, Q) construction."""

import itertools
import random

import pytest

from kuni.codes import (
    LinearCode,
    enumerate_codewords,
    format_code,
    is_mds,
    mds_from_singleton,
    min_distance,
    parse_code,
)
from kuni.decomposition import (
    QMatrix,
    construct_G_Q,
    coset_partition,
    format_qmatrix,
    kernel_subcode,
    parse_qmatrix,
    search_Q,
    verify_decomposition,
)
from kuni.errors import (
    BadKernelDimension,
    CertificationFailed,
    FormatError,
    KuniError,
    NotFound,
    OutOfRange,
    ShapeMismatch,
    SpecMismatch,
    TooLarge,
)
from kuni.field import FFMatrix, format_matrix, gf, parse_matrix
from kuni.states import FibredState, bell_pair, repetition_fibred
from kuni.verify import certify_ame_via_codes, uniformity


def test_qmatrix_basics():
    sp = gf(5)
    Q = QMatrix(sp, (1, 2, 0), (0, 0, 1))
    assert Q.k == 3
    assert Q.rank() == 2
    assert Q.as_matrix().data == [[1, 0], [2, 0], [0, 1]]
    # label is the linear map v -> vQ
    assert Q.label((1, 1, 1)) == (3, 1)
    assert Q.label((0, 0, 0)) == (0, 0)
    assert Q.label((2, 4, 3)) == ((2 * 1 + 4 * 2) % 5, 3)


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_construct_G_Q_shapes_and_verification(q):
    spec = gf(q)
    G, Q = construct_G_Q(spec)
    k = (q + 1) // 2 if q % 2 else 3
    assert G.rows == k and G.cols == (q if q % 2 else 5)
    assert Q.k == k
    report = verify_decomposition(G, Q)
    assert report.all_pass
    assert report.parent_mds.is_mds and report.kernel_mds.is_mds
    assert report.q_rank == 2 and report.labels_onto


def test_construct_G_Q_rejects_unsupported_q():
    for q in (2, 3, 8, 16):
        with pytest.raises(OutOfRange):
            construct_G_Q(gf(q))


def test_kernel_subcode_dimensions():
    G, Q = construct_G_Q(gf(5))
    sub = kernel_subcode(G, Q)
    assert (sub.n, sub.k) == (5, 1)
    # kernel messages really map to the zero label
    assert is_mds(sub, method="columns").is_mds


def test_kernel_subcode_of_k2_pair_keeps_its_length():
    # k = 2 leaves the zero kernel; the [3, 0] code still has n = 3
    sp = gf(5)
    G = FFMatrix(sp, [[1, 0, 1], [0, 1, 1]])
    sub = kernel_subcode(G, QMatrix(sp, (1, 0), (0, 1)))
    assert (sub.n, sub.k) == (3, 0) and repr(sub) == "[3,0]_5"


def test_zero_code_has_no_minimum_distance():
    # no nonzero word, so no distance: both methods refuse and cache nothing
    for method in ("auto", "brute", "rank"):
        sub = LinearCode(FFMatrix(gf(5), [], 3))
        with pytest.raises(KuniError):
            min_distance(sub, method=method)
        assert sub.cached_distance is None and repr(sub) == "[3,0]_5"
    # every MDS criterion holds vacuously, and none records a distance
    for method in ("distance", "submatrix", "columns"):
        sub = LinearCode(FFMatrix(gf(5), [], 3))
        assert is_mds(sub, method=method).is_mds and sub.cached_distance is None


def test_zero_code_file_roundtrip():
    sp = gf(5)
    sub = kernel_subcode(FFMatrix(sp, [[1, 0, 1], [0, 1, 1]]), QMatrix(sp, (1, 0), (0, 1)))
    text = format_code(sub)
    back = parse_code(text)
    assert (back.n, back.k, back.G) == (3, 0, sub.G) and format_code(back) == text
    assert parse_matrix(format_matrix(sub.G)).cols == 3


def test_zero_kernel_records_no_distance():
    # a certified [3, 0] code has no nonzero codeword: no distance n - k + 1
    sp = gf(5)
    G = FFMatrix(sp, [[1, 0, 1], [0, 1, 1]])
    Q = QMatrix(sp, (1, 0), (0, 1))
    assert verify_decomposition(G, Q).all_pass
    sub = kernel_subcode(G, Q)
    cert = is_mds(sub, method="columns")
    assert (cert.is_mds, cert.checks) == (True, 1)
    assert sub.cached_distance is None and repr(sub) == "[3,0]_5"


def test_pair_over_two_fields_rejected():
    G, _ = construct_G_Q(gf(5))
    Q = QMatrix(gf(4), (1, 1, 0), (1, 0, 2))
    with pytest.raises(SpecMismatch):
        kernel_subcode(G, Q)
    with pytest.raises(SpecMismatch):
        verify_decomposition(G, Q)


def test_kernel_subcode_rejects_rank_deficient_q():
    G, _ = construct_G_Q(gf(5))
    bad = QMatrix(gf(5), (1, 2, 0), (2, 4, 0))  # rank 1
    with pytest.raises(BadKernelDimension):
        kernel_subcode(G, bad)


def _passing_q(G, seed=1):
    """A Q whose kernel subcode on G is MDS, drawn as search_Q's seeded
    sampling draws, but without its shape check."""
    rng = random.Random(seed)
    sp, k = G.spec, G.rows
    while True:
        Q = QMatrix(sp, tuple(rng.randrange(sp.q) for _ in range(k)),
                    tuple(rng.randrange(sp.q) for _ in range(k)))
        try:
            if is_mds(kernel_subcode(G, Q)).is_mds:
                return Q
        except BadKernelDimension:
            pass


@pytest.mark.parametrize("n, k, q", [(7, 3, 7), (8, 4, 8), (6, 4, 5)])
def test_pair_of_a_non_ame_shape_is_rejected(n, k, q):
    # the pair passes the four hypotheses, but its repetition state is not
    # AME(n + 2, q): only [n, (n+1)/2] parents with n odd make one
    G = mds_from_singleton(n, k, gf(q)).G
    Q = _passing_q(G)
    assert is_mds(LinearCode(G)).is_mds and Q.rank() == 2
    for check in (verify_decomposition, certify_ame_via_codes, repetition_fibred):
        with pytest.raises(ShapeMismatch):
            check(G, Q)
    with pytest.raises(ShapeMismatch):
        search_Q(G, seed=1)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_certificate_accepts_exactly_the_pairs_with_ame_states(q):
    # every [n, k]_q shape with 2 <= k < n <= 5: a pair that passes the four
    # hypotheses is certified iff the exhaustive sweep of its materialized
    # repetition state finds it AME(n + 2, q)
    for n in range(3, min(q + 1, 5) + 1):
        for k in range(2, n):
            G = mds_from_singleton(n, k, gf(q)).G
            Q = _passing_q(G)
            state = FibredState(G, Q.as_matrix(), bell_pair(G.spec), "XZ").materialize()
            ame = uniformity(state).max_verified_k == (n + 2) // 2
            try:
                certified = verify_decomposition(G, Q).all_pass
            except ShapeMismatch:
                certified = False
            assert certified == ame, (n, k)


def test_verify_decomposition_reports_failures():
    G, _ = construct_G_Q(gf(5))
    bad = QMatrix(gf(5), (1, 2, 0), (2, 4, 0))
    report = verify_decomposition(G, bad)
    assert not report.all_pass
    assert report.q_rank == 1 and not report.labels_onto
    assert report.kernel_mds is None and report.kernel_error


@pytest.mark.parametrize("q", [4, 5, 7])
def test_coset_partition_is_a_partition(q):
    G, Q = construct_G_Q(gf(q))
    dec = coset_partition(G, Q)
    k = G.rows
    assert len(dec.labels) == q ** 2
    sizes = {len(v) for v in dec.labels.values()}
    assert sizes == {q ** (k - 2)}
    everything = [cw for cws in dec.labels.values() for cw in cws]
    assert sorted(everything) == sorted(enumerate_codewords(dec.parent))
    # the zero-label coset is exactly the kernel subcode
    assert set(dec.labels[(0, 0)]) == set(enumerate_codewords(dec.subcode))


def test_labels_follow_linearity():
    G, Q = construct_G_Q(gf(5))
    sp = gf(5)
    for v in itertools.product(range(5), repeat=3):
        a, b = Q.label(v)
        # against a hand-rolled dot product
        assert a == _dot(sp, v, Q.q1) and b == _dot(sp, v, Q.q2)


def _dot(sp, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = sp.add(acc, sp.mul(x, y))
    return acc


def test_gf4_closed_form_matches_printed_matrices():
    G, Q = construct_G_Q(gf(4))
    assert G.data == [[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 1, 3]]
    assert (Q.q1, Q.q2) == ((1, 1, 0), (1, 0, 2))


def test_search_Q_finds_valid_label_columns():
    G, _ = construct_G_Q(gf(5))
    Q = search_Q(G, budget=10 ** 5)
    assert verify_decomposition(G, Q).all_pass
    # the unseeded search is lexicographic in (Q1, Q2): its first hits are pinned
    assert (Q.q1, Q.q2) == ((0, 0, 1), (1, 2, 0))
    Q7 = search_Q(construct_G_Q(gf(7))[0])
    assert (Q7.q1, Q7.q2) == ((0, 0, 0, 1), (1, 2, 5, 0))
    # seeded random search also lands on a valid pair
    Q2 = search_Q(G, budget=10 ** 5, seed=123)
    assert verify_decomposition(G, Q2).all_pass


def test_search_Q_takes_the_walks_verdict_without_rank_checks(monkeypatch):
    # rejected kernels are dropped on the minor walk's verdict alone: no
    # lexicographic witness scan, so no rank check, and the same Q
    import kuni.codes

    calls = []
    original = kuni.codes.rank_of_rows

    def counted(spec, rows):
        calls.append(len(rows))
        return original(spec, rows)

    monkeypatch.setattr(kuni.codes, "rank_of_rows", counted)
    G, _ = construct_G_Q(gf(7))
    Q = search_Q(G, seed=3)
    assert (Q.q1, Q.q2) == ((2, 0, 2, 3), (5, 3, 4, 2)) and calls == []


def test_search_Q_budget_exhaustion():
    G, _ = construct_G_Q(gf(5))
    with pytest.raises(NotFound):
        search_Q(G, budget=1)


def test_search_Q_requires_mds_parent():
    sp = gf(5)
    G = FFMatrix(sp, [[1, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    with pytest.raises(CertificationFailed):
        search_Q(G)


def test_qmatrix_format_roundtrip():
    _, Q = construct_G_Q(gf(7))
    text = format_qmatrix(Q)
    back = parse_qmatrix(text)
    assert (back.q1, back.q2) == (Q.q1, Q.q2)
    assert format_qmatrix(back) == text


def test_parse_qmatrix_rejects_wrong_width():
    with pytest.raises(FormatError):
        parse_qmatrix("1 3 5 1\n1 2 3\n")


def test_kernel_subcode_needs_a_q_of_g_height():
    G, Q = construct_G_Q(gf(7))
    short = QMatrix(Q.spec, Q.q1[:-1], Q.q2[:-1])
    with pytest.raises(BadKernelDimension):
        kernel_subcode(G, short)


def test_search_q_needs_room_for_a_rank_2_label_map():
    # k = 2 leaves a kernel of dimension 0 at best; the search refuses at once
    G = FFMatrix(gf(5), [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(BadKernelDimension):
        search_Q(G)
    with pytest.raises(BadKernelDimension):
        search_Q(FFMatrix(gf(5), [[1, 1, 1]]))


def test_coset_partition_refuses_before_enumerating(monkeypatch):
    import kuni.decomposition

    def enumerate_nothing(code):
        raise AssertionError("enumerated a code past the partition cap")

    monkeypatch.setattr(kuni.decomposition, "enumerate_codewords", enumerate_nothing)
    with pytest.raises(TooLarge):
        coset_partition(*construct_G_Q(gf(17)))
