"""Coset decomposition of MDS codes into q^2 MDS subcodes and the
closed-form (G, Q) construction."""

import itertools

import pytest

from kuni.codes import enumerate_codewords, is_mds
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
    NotFound,
    OutOfRange,
    SpecMismatch,
)
from kuni.field import FFMatrix, gf


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
    # seeded random search also lands on a valid pair
    Q2 = search_Q(G, budget=10 ** 5, seed=123)
    assert verify_decomposition(G, Q2).all_pass


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
