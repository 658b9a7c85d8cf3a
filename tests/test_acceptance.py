"""Acceptance gate: one test (or pair) per numbered criterion.

Criteria and tolerances are stated in the module docstrings of the package;
everything here is exact arithmetic — a tolerance only appears in the
float cross-check of criterion 10, where it separates exact zeros from
exact non-zeros evaluated at 128-bit precision.
"""

import itertools
import random
import time

import mpmath
import pytest

from kuni.cli import main
from kuni.codes import (
    LinearCode,
    dual_code,
    enumerate_codewords,
    is_mds,
    mds_exists,
    mds_from_singleton,
    min_distance,
    puncture,
    shorten,
)
from kuni.cyclotomic import Cyclotomic
from kuni.decomposition import construct_G_Q, coset_partition
from kuni.field import FFMatrix, gf, matrix_rank
from kuni.states import (
    ame_5_q,
    ame_7_4,
    ame_19_17_matrices,
    ame_21_19_matrices,
    bell_pair,
    cl_plus_q,
    cl_plus_q_repetition,
    ghz,
    state_from_code,
    weyl_basis,
)
from kuni.verify import (
    certify_ame_via_codes,
    gram_check,
    slocc_witness,
    support_census,
    uniformity,
)

from test_codes import random_mds_instances
from test_field import check_field_axioms
from test_states import ame52_closed_form


def ame_5_2_state():
    code = LinearCode(FFMatrix(gf(2), [[1, 0, 1], [0, 1, 1]]))
    return cl_plus_q(code, bell_pair(gf(2)))


def test_criterion_1_ame_5_2():
    start = time.monotonic()
    s = ame_5_2_state()
    rep = uniformity(s)
    assert rep.certifying and rep.max_verified_k == 2
    assert rep.tallies == {1: (5, 5), 2: (10, 10)}  # all 15 subsets, exact
    assert s.equals(ame52_closed_form())
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("q", [3, 4, 5])
def test_criterion_2_ame_5_q(q):
    start = time.monotonic()
    rep = uniformity(ame_5_q(gf(q)))
    assert rep.certifying and rep.max_verified_k == 2
    assert time.monotonic() - start < 5.0


# Printed coset table for the 7-party GF(4) state: label (alpha, beta) ->
# the four parent-code codewords carrying that generalized Bell state.
# GF(4) symbols use the coefficient encoding 0, 1, x -> 2, 1+x -> 3.
AME74_COSETS = {
    (0, 0): [(0, 0, 0, 0, 0), (1, 1, 3, 3, 1), (2, 2, 1, 1, 2), (3, 3, 2, 2, 3)],
    (0, 1): [(0, 0, 3, 3, 2), (1, 1, 0, 0, 3), (2, 2, 2, 2, 0), (3, 3, 1, 1, 1)],
    (0, 2): [(0, 0, 1, 1, 3), (1, 1, 2, 2, 2), (2, 2, 0, 0, 1), (3, 3, 3, 3, 0)],
    (0, 3): [(0, 0, 2, 2, 1), (1, 1, 1, 1, 0), (2, 2, 3, 3, 3), (3, 3, 0, 0, 2)],
    (1, 0): [(1, 0, 3, 2, 3), (0, 1, 0, 1, 2), (3, 2, 2, 3, 1), (2, 3, 1, 0, 0)],
    (1, 1): [(1, 0, 0, 1, 1), (0, 1, 3, 2, 0), (3, 2, 1, 0, 3), (2, 3, 2, 3, 2)],
    (1, 2): [(1, 0, 2, 3, 0), (0, 1, 1, 0, 1), (3, 2, 3, 2, 2), (2, 3, 0, 1, 3)],
    (1, 3): [(1, 0, 1, 0, 2), (0, 1, 2, 3, 3), (3, 2, 0, 1, 0), (2, 3, 3, 2, 1)],
    (2, 0): [(2, 0, 1, 3, 1), (3, 1, 2, 0, 0), (0, 2, 0, 2, 3), (1, 3, 3, 1, 2)],
    (2, 1): [(2, 0, 2, 0, 3), (3, 1, 1, 3, 2), (0, 2, 3, 1, 1), (1, 3, 0, 2, 0)],
    (2, 2): [(2, 0, 0, 2, 2), (3, 1, 3, 1, 3), (0, 2, 1, 3, 0), (1, 3, 2, 0, 1)],
    (2, 3): [(2, 0, 3, 1, 0), (3, 1, 0, 2, 1), (0, 2, 2, 0, 2), (1, 3, 1, 3, 3)],
    (3, 0): [(3, 0, 2, 1, 2), (2, 1, 1, 2, 3), (1, 2, 3, 0, 0), (0, 3, 0, 3, 1)],
    (3, 1): [(3, 0, 1, 2, 0), (2, 1, 2, 1, 1), (1, 2, 0, 3, 2), (0, 3, 3, 0, 3)],
    (3, 2): [(3, 0, 3, 0, 1), (2, 1, 0, 3, 0), (1, 2, 2, 1, 3), (0, 3, 1, 2, 2)],
    (3, 3): [(3, 0, 0, 3, 3), (2, 1, 3, 0, 2), (1, 2, 1, 2, 1), (0, 3, 2, 1, 0)],
}


def test_criterion_3_ame_7_4():
    start = time.monotonic()
    s = ame_7_4()
    assert s.support == 256
    rep = uniformity(s)
    assert rep.certifying and rep.max_verified_k == 3
    assert sum(checked for checked, _ in rep.tallies.values()) == 63
    G, Q = construct_G_Q(gf(4))
    dec = coset_partition(G, Q)
    assert set(dec.labels) == set(AME74_COSETS)
    for label, codewords in AME74_COSETS.items():
        assert set(dec.labels[label]) == set(codewords), f"coset {label}"
    assert time.monotonic() - start < 60.0


def test_criterion_4_ame_7_5_dual_oracles_agree():
    start = time.monotonic()
    G, Q = construct_G_Q(gf(5))
    cert = certify_ame_via_codes(G, Q)
    assert cert.all_pass and cert.claim == "AME(7,5)"
    rep = uniformity(cl_plus_q_repetition(G, Q))
    assert rep.certifying and rep.max_verified_k == 3
    assert time.monotonic() - start < 120.0


def test_criterion_5_large_ame_certificates():
    start = time.monotonic()
    G17, Q17 = ame_19_17_matrices()
    cert17 = certify_ame_via_codes(G17, Q17)
    assert cert17.all_pass and cert17.claim == "AME(19,17)"
    assert cert17.parent_checks == 24310   # C(17, 9)
    assert cert17.kernel_checks == 19448   # C(17, 7)
    assert cert17.q_rank == 2
    assert cert17.labels_onto

    G19, Q19 = ame_21_19_matrices()
    cert19 = certify_ame_via_codes(G19, Q19)
    assert cert19.all_pass and cert19.claim == "AME(21,19)"
    assert cert19.parent_checks == 92378   # C(19, 10)
    assert cert19.kernel_checks == 75582   # C(19, 8)
    assert cert19.q_rank == 2
    assert cert19.labels_onto
    assert time.monotonic() - start < 300.0


def test_criterion_6_weyl_basis_gram():
    # 8 words over the 3-party GHZ state
    basis = list(weyl_basis(ghz(3, gf(2)), 1))
    assert len(basis) == 8
    ok, gram = gram_check(basis)
    assert ok and gram[0][0].as_integer() == 2

    # 81 words over the minimal-support state of the [4,2] code over GF(3)
    basis = list(weyl_basis(state_from_code(mds_from_singleton(4, 2, gf(3))), 2))
    assert len(basis) == 81
    ok, gram = gram_check(basis)
    assert ok and gram[0][0].as_integer() == 9


TABLE1_SMALL_ROWS = [
    # (n, classical [n_cl, k_cl], minimal q for Cl+Q, minimal q for plain MDS)
    (5, (3, 2), 2, 4),
    (6, (4, 2), 3, 4),
    (7, (5, 2), 4, 7),
]


def test_criterion_7_small_rows_exhaustive():
    for n, (n_cl, k_cl), q_clq, q_mds in TABLE1_SMALL_ROWS:
        # minimal q at which both the classical code and the Bell seed exist
        found = min(q for q in (2, 3, 4, 5, 7, 8, 9)
                    if mds_exists(n_cl, k_cl, q) and mds_exists(2, 1, q))
        assert found == q_clq, f"n={n}: Cl+Q minimal q"
        found_mds = min(q for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)
                        if any(mds_exists(n, kp, q) for kp in range(2, n // 2 + 1)))
        assert found_mds == q_mds, f"n={n}: plain-MDS minimal q"
        # construct at the minimal q and certify 2-uniformity exhaustively
        sp = gf(q_clq)
        state = cl_plus_q(mds_from_singleton(n_cl, k_cl, sp), bell_pair(sp))
        rep = uniformity(state, k_max=2)
        assert rep.certifying and rep.max_verified_k == 2


def test_criterion_7_large_rows_sampled_never_certify(capsys):
    code = main(["table1", "--k", "3", "--n-min", "11", "--n-max", "11",
                 "--verify", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 2  # sampled pass is reported as non-certifying
    assert "[sampled: k=3]" in out
    assert "exhaustive" not in out


def test_criterion_8_witness_for_named_ame_states():
    """slocc_witness must find a maximally mixed size-(k+1) subset for the
    5-party (k = 2) and 7-party GF(4) (k = 3) non-minimal-support states."""
    s52 = ame_5_2_state()
    S = slocc_witness(s52, 2, classical_cut=3)
    assert S is not None and len(S) == 3, (
        "no size-3 maximally mixed reduction exists on 5 parties: for a pure "
        "state rank rho_S = rank rho_Sc <= q^(n-|S|) = 4 < 8 = q^|S|, so the "
        "required witness is impossible whenever n < 2(k+1)"
    )
    s74 = ame_7_4()
    S = slocc_witness(s74, 3, classical_cut=5)
    assert S is not None and len(S) == 4, (
        "no size-4 maximally mixed reduction exists on 7 parties: "
        "rank rho_S <= 4^3 = 64 < 256 = 4^4"
    )


def test_criterion_8_notfound_for_minimal_support_states():
    # every minimal-support code state with q^k <= 100 (and k <= n/2, so the
    # state is genuinely k-uniform) yields no witness, and its support census
    # confirms minimality
    seen = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(2, q + 2):
            for k in range(1, n // 2 + 1):
                if q ** k > 100 or not mds_exists(n, k, q):
                    continue
                if q ** (k + 1) > 4096:
                    continue  # reduction matrices above the exact-trace cap
                code = mds_from_singleton(n, k, gf(q))
                state = state_from_code(code)
                assert support_census(state, k) == (q ** k, True)
                assert slocc_witness(state, k) is None, f"[{n},{k}]_{q}"
                seen += 1
    assert seen >= 20


def test_criterion_9_code_surgery_properties():
    rng = random.Random(99)
    count = 0
    for code in random_mds_instances(100, seed=99, n_max=8, q_max=8):
        count += 1
        n, k, q = code.n, code.k, code.q
        d = min_distance(code)
        assert d == n - k + 1

        certs = [is_mds(code, method=m)
                 for m in ("distance", "submatrix", "columns")]
        assert all(c.is_mds for c in certs)

        if n - 1 >= k >= 1 and n >= 3:
            p = puncture(code, rng.randrange(n))
            assert (p.n, p.k) == (n - 1, k)
            assert is_mds(p, method="columns").is_mds

        if k >= 2:
            s = shorten(code, rng.randrange(n))
            assert (s.n, s.k) == (n - 1, k - 1)
            assert is_mds(s, method="columns").is_mds
            assert min_distance(s) >= d

        dual = dual_code(code)
        assert (dual.n, dual.k) == (n, n - k)
        assert is_mds(dual, method="columns").is_mds

        # systematic-encoder projection: every size-k coordinate set carries
        # a bijection between messages and projected codewords
        if q ** k <= 2048:
            words = list(enumerate_codewords(code))
            for cols in itertools.combinations(range(n), k):
                proj = {tuple(cw[c] for c in cols) for cw in words}
                assert len(proj) == q ** k, f"projection onto {cols}"
        else:
            for cols in itertools.combinations(range(n), k):
                assert matrix_rank(code.G.select_columns(cols)) == k
    assert count == 100


CROSS_CHECK_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 17, 19]


@pytest.mark.parametrize("L", CROSS_CHECK_ORDERS)
def test_criterion_10_float_cross_check(L):
    rng = random.Random(1000 + L)
    mpmath.mp.prec = 128
    w = mpmath.e ** (2j * mpmath.pi / L)
    powers = [w ** t for t in range(L)]
    for _ in range(1000):
        coeffs = [rng.randint(-3, 3) for _ in range(L)]
        val = sum(c * powers[t] for t, c in enumerate(coeffs))
        assert Cyclotomic(L, coeffs).is_zero() == (abs(val) < mpmath.mpf("1e-18"))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_criterion_10_field_axioms(q):
    check_field_axioms(gf(q))
