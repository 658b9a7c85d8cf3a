"""The seeded generator and the expected tallies, checked on an independent path:
materialize with `construct clq-rep` and sweep every subset exactly with
inputs.sweep_monomial, which shares no code with kuni.verify."""

import math

import pytest

from inputs import GF, dense_pair_texts, read_matrix, read_monomial_state, sweep_monomial
from jobs import CLQ10_SIZE3_PASSED
from kuni.cli import main


def kuni(capsys, *argv):
    code = main([str(a) for a in argv])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("p, m", [(3, 2), (17, 1)])
def test_field_tables_are_a_field(p, m):
    F = GF(p, m)
    q = F.q
    for a in range(1, q):
        assert F.mul[a][F.inv[a]] == 1
        assert F.add[a][F.neg[a]] == 0
    # distributivity on a sample of triples
    for a in range(q):
        for b in range(0, q, 3):
            for c in range(1, q, 5):
                assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, capsys):
    g, qm = tmp_path / "g.txt", tmp_path / "q.txt"
    assert kuni(capsys, "decompose", "--q", "7", "--emit-g", g, "--emit-q", qm) == 0
    a = dense_pair_texts(g.read_text(), qm.read_text(), 3, "dense7")
    assert a == dense_pair_texts(g.read_text(), qm.read_text(), 3, "dense7")
    assert a != dense_pair_texts(g.read_text(), qm.read_text(), 4, "dense7")


@pytest.mark.parametrize("q", [5, 7])
def test_dense_equivalent_materializes_an_ame_state(tmp_path, capsys, q):
    g, qm = tmp_path / "g.txt", tmp_path / "q.txt"
    assert kuni(capsys, "decompose", "--q", q, "--emit-g", g, "--emit-q", qm) == 0
    g2, q2, refuted = dense_pair_texts(g.read_text(), qm.read_text(), 1, f"dense{q}")
    p, m, G2 = read_matrix(g2)
    k, n = len(G2), len(G2[0])
    assert G2 != read_matrix(g.read_text())[2]
    F = GF(p, m)
    assert F.rank(G2) == k
    assert F.rank(list(zip(*read_matrix(q2)[2]))) == 2
    assert F.rank(list(zip(*read_matrix(refuted)[2]))) == 1

    (tmp_path / "g2.txt").write_text(g2)
    (tmp_path / "q2.txt").write_text(q2)
    (tmp_path / "r2.txt").write_text(refuted)
    state = tmp_path / "ame.state"
    assert kuni(capsys, "construct", "clq-rep", "--g", tmp_path / "g2.txt",
                "--q-matrix", tmp_path / "q2.txt", "-o", state) == 0
    n_parties, qq, terms = read_monomial_state(state.read_text())
    assert (n_parties, qq, len(terms)) == (n + 2, q, q ** k * q)
    tallies = sweep_monomial(n_parties, qq, terms, n_parties // 2)
    assert tallies == {s: (math.comb(n_parties, s),) * 2 for s in range(1, n_parties // 2 + 1)}

    # kuni's certificate agrees on both pairs
    assert kuni(capsys, "certify", "--g", tmp_path / "g2.txt", "--q-matrix",
                tmp_path / "q2.txt") == 0
    assert kuni(capsys, "certify", "--g", tmp_path / "g2.txt", "--q-matrix",
                tmp_path / "r2.txt") == 1


def test_sweep_workload_tallies(tmp_path, capsys):
    ame74, clq10 = tmp_path / "ame74.state", tmp_path / "clq10.state"
    assert kuni(capsys, "construct", "builtin", "--name", "ame_7_4", "-o", ame74) == 0
    assert kuni(capsys, "construct", "clq", "--n", "7", "--k", "3", "--q", "7",
                "--seed-state", "ghz", "-o", clq10) == 0
    assert sweep_monomial(*read_monomial_state(ame74.read_text()), 3) == {
        1: (7, 7), 2: (21, 21), 3: (35, 35)}
    assert sweep_monomial(*read_monomial_state(clq10.read_text()), 5) == {
        1: (10, 10), 2: (45, 45), 3: (120, CLQ10_SIZE3_PASSED)}
