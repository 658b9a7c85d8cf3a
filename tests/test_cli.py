"""End-to-end CLI tests driving kuni.cli.main with real files."""

import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import kuni
from kuni import verify
from kuni.cli import EXIT_OK, EXIT_REFUTED, EXIT_SAMPLED, EXIT_USAGE, _digest, main
from kuni.states import (FibredState, SparseState, ame_19_17_matrices, bell, format_state, ghz,
                         parse_state)
from kuni.codes import LinearCode, format_code, singleton_array
from kuni.field import FFMatrix, format_matrix, gf
from test_golden import RANK1_Q7


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_codes_mds_roundtrip(tmp_path, capsys):
    path = tmp_path / "code.txt"
    code, out, _ = run(capsys, "codes", "mds", "--n", "5", "--k", "2",
                       "--q", "5", "-o", str(path))
    assert code == EXIT_OK and path.exists()
    code, out, _ = run(capsys, "codes", "check", str(path))
    assert code == EXIT_OK and "MDS" in out
    code, out, _ = run(capsys, "codes", "distance", str(path))
    assert code == EXIT_OK and "d = 4" in out


def test_codes_check_json_manifest(tmp_path, capsys):
    path = tmp_path / "code.txt"
    run(capsys, "codes", "mds", "--n", "4", "--k", "2", "--q", "3",
        "-o", str(path))
    code, out, _ = run(capsys, "codes", "check", str(path), "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["mds"]["is_mds"] is True
    assert doc["mds"]["checks"] == 6  # C(4, 2)
    manifest = doc["manifest"]
    assert manifest["tool"] == "kuni"
    # input digest is a sha256 hex string
    digest = manifest["inputs"][str(path)]
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_codes_check_refutes_non_mds(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("CODE 4 2\n2 4 2 1\n1 0 1 0\n0 1 1 1\n")
    code, out, _ = run(capsys, "codes", "check", str(path))
    assert code == EXIT_REFUTED and "not MDS" in out
    # the [26,13]_29 Singleton-array code with one zero entry: C(26, 13) - 1
    # minors is no bar to the submatrix method, whose walk stops at once and
    # whose scan meets the 1x1 zero minor eighth (the columns scan would take
    # minutes here)
    sp = gf(29)
    rows = [list(row) for row in
            FFMatrix.identity(sp, 13).hstack(singleton_array(sp).block(13, 13)).data]
    rows[0][20] = 0
    path.write_text(format_code(LinearCode(FFMatrix(sp, rows))))
    code, out, _ = run(capsys, "codes", "check", str(path), "--method", "submatrix", "--json")
    mds = json.loads(out)["mds"]
    assert code == EXIT_REFUTED and not mds["is_mds"] and mds["checks"] == 8
    assert mds["witness"][:3] == ["submatrix", [0], [7]]


def test_construct_and_verify_ame52(tmp_path, capsys):
    state_path = tmp_path / "ame52.state"
    code, out, _ = run(capsys, "construct", "clq", "--n", "3", "--k", "2",
                       "--q", "2", "-o", str(state_path))
    assert code == EXIT_OK and "support 8" in out
    code, out, _ = run(capsys, "verify", str(state_path))
    assert code == EXIT_OK and "k = 2 [certified]" in out


def test_verify_json_and_sampled_exit_code(tmp_path, capsys):
    state_path = tmp_path / "ame52.state"
    run(capsys, "construct", "clq", "--n", "3", "--k", "2", "--q", "2",
        "-o", str(state_path))
    code, out, _ = run(capsys, "verify", str(state_path), "--json",
                       "--sample", "5", "--seed", "3")
    assert code == EXIT_SAMPLED
    doc = json.loads(out)
    assert doc["uniformity"]["certifying"] is False
    assert doc["uniformity"]["max_verified_k"] == 2
    assert doc["manifest"]["seed"] == 3
    # a sample no smaller than any size's 5 or 10 subsets draws none of them,
    # so it checks what the plain sweep checks and certifies as it does
    code, out, _ = run(capsys, "verify", str(state_path), "--json",
                       "--sample", "10", "--seed", "3")
    code_all, out_all, _ = run(capsys, "verify", str(state_path), "--json")
    assert code == code_all == EXIT_OK
    assert json.loads(out)["uniformity"] == json.loads(out_all)["uniformity"]


def test_verify_refutes_ghz(tmp_path, capsys):
    state_path = tmp_path / "ghz.state"
    state_path.write_text(format_state(ghz(4, gf(3))))
    code, out, _ = run(capsys, "verify", str(state_path))
    assert code == EXIT_REFUTED and "first failure" in out
    # the label is the verdict, not the mode
    assert "uniformity k = 1 [refuted]" in out and "certified" not in out


def _counted_reductions(monkeypatch) -> list:
    """The subsets of this test's reduced_density calls, as they are made."""
    calls, original = [], verify.reduced_density
    monkeypatch.setattr(verify, "reduced_density",
                        lambda state, S: calls.append(S) or original(state, S))
    return calls


@pytest.mark.parametrize("n, k, q", [(8, 4, 11), (6, 3, 17)])
def test_verify_certifies_an_mds_code_state_past_the_matrix_cap(monkeypatch, tmp_path, capsys,
                                                                  n, k, q):
    # q^k = 14,641 and 4,913 rows would be over the matrix cap of rho_S, but
    # two ranks decide every subset up to n // 2 = k, and no rho_S is built
    monkeypatch.chdir(tmp_path)
    argv = ["--n", str(n), "--k", str(k), "--q", str(q)]
    assert run(capsys, "codes", "mds", *argv, "-o", "code.txt")[0] == EXIT_OK
    assert run(capsys, "construct", "from-code", "--code", "code.txt", "-o", "code.state")[0] == 0
    calls = _counted_reductions(monkeypatch)
    code, out, err = run(capsys, "verify", "code.state", "--json")
    assert (code, err, calls) == (EXIT_OK, "", [])
    doc = json.loads(out)["uniformity"]
    assert (doc["mode"], doc["max_verified_k"], doc["first_failure"], doc["support"]) == (
        "exhaustive", k, None, q ** k)
    assert doc["tallies"] == {str(s): [math.comb(n, s)] * 2 for s in range(1, k + 1)}


def test_verify_refutes_an_mds_code_state_past_the_matrix_cap(monkeypatch, tmp_path, capsys):
    # [8,3]_11 at |S| = 4: rank T_{S^c} = 3 makes rho_S diagonal and rank
    # T_S = 3 < 4 leaves rows of it zero, so two ranks refute each 4-subset
    # with the first key's row as witness, where 11^4 rows are over the cap
    monkeypatch.chdir(tmp_path)
    argv = ["--n", "8", "--k", "3", "--q", "11"]
    assert run(capsys, "codes", "mds", *argv, "-o", "code.txt")[0] == EXIT_OK
    assert run(capsys, "construct", "from-code", "--code", "code.txt", "-o", "code.state")[0] == 0
    calls = _counted_reductions(monkeypatch)
    code, out, err = run(capsys, "verify", "code.state", "--json")
    assert (code, err, calls) == (EXIT_REFUTED, "", [])
    doc = json.loads(out)["uniformity"]
    assert (doc["mode"], doc["max_verified_k"], doc["first_failure"]) == (
        "exhaustive", 3, [[0, 1, 2, 3], ["diag_zero", [0, 0, 0, 0]]])
    assert doc["tallies"] == {"1": [8, 8], "2": [28, 28], "3": [56, 56], "4": [70, 0]}


def test_an_amplitude_written_another_way_keeps_the_rank_path(monkeypatch, tmp_path, capsys):
    # 0 -1 -1 is -w - w^2 = 1 over q = 3: |amp|^2 is compared by value, so
    # every subset of the AME(4,3) code state still passes by rank, and the
    # document is the one of every subset through rho_S
    monkeypatch.chdir(tmp_path)
    run(capsys, "construct", "from-code", "--n", "4", "--k", "2", "--q", "3", "-o", "a.state")
    text = Path("a.state").read_text()
    assert "\n1 1 2 0 : 1 0 0\n" in text
    Path("a.state").write_text(text.replace("\n1 1 2 0 : 1 0 0\n", "\n1 1 2 0 : 0 -1 -1\n"))
    calls = _counted_reductions(monkeypatch)
    by_rank = run(capsys, "verify", "a.state", "--json")
    assert calls == []
    monkeypatch.setattr(verify, "_by_rank", lambda table, S: False)
    assert run(capsys, "verify", "a.state", "--json") == by_rank and len(calls) == 10
    assert by_rank[0] == EXIT_OK and json.loads(by_rank[1])["uniformity"]["max_verified_k"] == 2


def test_construct_builtin_state(tmp_path, capsys):
    out_path = tmp_path / "ghz.state"
    code, _, _ = run(capsys, "construct", "builtin", "--name", "ghz",
                     "--n", "4", "--q", "3", "-o", str(out_path))
    assert code == EXIT_OK
    assert parse_state(out_path.read_text()).equals(ghz(4, gf(3)))


def test_builtin_states_are_written_line_by_line(monkeypatch, tmp_path, capsys):
    # a built-in SparseState is written through its own chunks(), never as
    # one formatted text
    def refuse(state):
        raise AssertionError("construct formatted the whole state file")

    for module in [m for name, m in sys.modules.items() if name.startswith("kuni")]:
        for attr, value in list(vars(module).items()):
            if value is format_state:
                monkeypatch.setattr(module, attr, refuse)
    for argv, expected in ((["--name", "ghz", "--n", "3", "--q", "4"], ghz(3, gf(4))),
                           (["--name", "bell", "--q", "5", "--l", "1", "--m", "2"],
                            bell(gf(5), 1, 2))):
        out = tmp_path / f"{argv[1]}.state"
        code, _, err = run(capsys, "construct", "builtin", *argv, "-o", str(out))
        assert code == EXIT_OK, err
        assert parse_state(out.read_text()).equals(expected)


def test_construct_replaces_the_target_of_a_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.state", tmp_path / "link.state"
    target.write_text("an earlier run\n")
    link.symlink_to(target.name)
    code, _, err = run(capsys, "construct", "builtin", "--name", "ghz", "--n", "3", "--q", "3",
                       "-o", str(link))
    assert code == EXIT_OK, err
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == format_state(ghz(3, gf(3)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.state", "target.state"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_construct_writes_through_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "pipe.state"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that the writer's open returns
    try:
        code, _, err = run(capsys, "construct", "builtin", "--name", "ghz", "--n", "3",
                           "--q", "3", "-o", str(fifo))
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert code == EXIT_OK, err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == format_state(ghz(3, gf(3)))
    assert list(tmp_path.iterdir()) == [fifo]


def test_construct_builtin_matrices(tmp_path, capsys):
    g_path, q_path = tmp_path / "g.txt", tmp_path / "q.txt"
    code, out, _ = run(capsys, "construct", "builtin", "--name",
                       "ame_19_17_matrices", "--emit-g", str(g_path),
                       "--emit-q", str(q_path))
    assert code == EXIT_OK and g_path.exists() and q_path.exists()


def test_decompose_certify_pipeline(tmp_path, capsys):
    g_path, q_path = tmp_path / "g.txt", tmp_path / "q.txt"
    code, out, _ = run(capsys, "decompose", "--q", "5",
                       "--emit-g", str(g_path), "--emit-q", str(q_path))
    assert code == EXIT_OK and "AME(7,5)" in out
    code, out, _ = run(capsys, "certify", "--g", str(g_path),
                       "--q-matrix", str(q_path))
    assert code == EXIT_OK and "PASSED" in out
    # tamper with the label columns: rank drops to 1, certificate fails
    q_path.write_text("3 2 5 1\n1 0\n2 0\n0 0\n")
    code, out, _ = run(capsys, "certify", "--g", str(g_path),
                       "--q-matrix", str(q_path), "--json")
    assert code == EXIT_REFUTED
    doc = json.loads(out)
    assert doc["certificate"]["certified"] is False
    assert doc["certificate"]["q_rank"] == 1


def test_decompose_certifies_once(monkeypatch, capsys):
    import kuni.decomposition
    import kuni.verify

    calls = []
    original = kuni.decomposition.verify_decomposition

    def counted(G, Q):
        calls.append(G.spec.q)
        return original(G, Q)

    monkeypatch.setattr(kuni.decomposition, "verify_decomposition", counted)
    monkeypatch.setattr(kuni.verify, "verify_decomposition", counted)
    code, out, _ = run(capsys, "decompose", "--q", "5", "--json")
    result = json.loads(out)["decomposition"]
    assert code == EXIT_OK and calls == [5]
    assert (result["claim"], result["parent_checks"], result["kernel_checks"]) == ("AME(7,5)", 10, 5)


def test_decompose_search_certifies_the_parent_twice(monkeypatch, capsys):
    # once as search_Q's precondition, once in the final certificate; the
    # closed-form pair, whose Q the search replaces, is not certified
    import kuni.decomposition

    codes = []
    original = kuni.decomposition.is_mds

    def counted(code, method="columns"):
        codes.append((code.n, code.k))
        return original(code, method)

    monkeypatch.setattr(kuni.decomposition, "is_mds", counted)
    code, out, _ = run(capsys, "decompose", "--q", "7", "--search", "--seed", "3", "--json")
    assert code == EXIT_OK and json.loads(out)["decomposition"]["claim"] == "AME(9,7)"
    assert codes.count((7, 4)) == 2


def test_builtin_ame_state_is_verified_once(monkeypatch, tmp_path, capsys):
    import kuni.decomposition
    import kuni.states
    import kuni.verify

    calls = []
    original = kuni.decomposition.verify_decomposition

    def counted(G, Q):
        calls.append((G.rows, G.cols))
        return original(G, Q)

    for module in (kuni.decomposition, kuni.states, kuni.verify):
        monkeypatch.setattr(module, "verify_decomposition", counted)
    code, out, err = run(capsys, "construct", "builtin", "--name", "ame_5_q", "--q", "5",
                         "-o", str(tmp_path / "ame55.state"))
    assert code == EXIT_OK, err
    assert "support 125," in out and calls == [(2, 3)]


def test_decompose_search_mode(capsys):
    code, out, _ = run(capsys, "decompose", "--q", "5", "--search",
                       "--seed", "11", "--budget", "100000")
    assert code == EXIT_OK and "AME(7,5)" in out


def test_construct_clq_rep_from_files(tmp_path, capsys):
    g_path, q_path = tmp_path / "g.txt", tmp_path / "q.txt"
    run(capsys, "decompose", "--q", "5", "--emit-g", str(g_path),
        "--emit-q", str(q_path))
    state_path = tmp_path / "ame75.state"
    code, out, _ = run(capsys, "construct", "clq-rep", "--g", str(g_path),
                       "--q-matrix", str(q_path), "-o", str(state_path))
    assert code == EXIT_OK and "support 625" in out


def test_table1_columns(capsys):
    code, out, _ = run(capsys, "table1", "--n-max", "7")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 3
    for line, q_clq, q_mds in zip(lines, (2, 3, 4), (4, 4, 7)):
        assert f"Cl+Q q>={q_clq}" in line and f"MDS q>={q_mds}" in line


def test_table1_verified_small_rows(capsys):
    code, out, _ = run(capsys, "table1", "--n-max", "7", "--verify")
    assert code == EXIT_OK
    assert out.count("[exhaustive: k=2]") == 3


def test_table1_large_row_is_sampled_not_certified(capsys):
    code, out, _ = run(capsys, "table1", "--k", "3", "--n-min", "11",
                       "--n-max", "11", "--verify", "--seed", "0")
    assert code == EXIT_SAMPLED
    assert "[sampled: k=3]" in out


def test_table1_exits_refuted_on_a_refuted_row(monkeypatch, capsys):
    # a [3,2] code over GF(2) that is not MDS: its Cl+Q state stops at k = 1,
    # which is a refuted row, not a certified one
    import kuni.cli

    real = kuni.cli.mds_from_singleton

    def non_mds(n, k, spec):
        if (n, k, spec.q) == (3, 2, 2):
            return LinearCode(FFMatrix(spec, [[1, 0, 0], [0, 1, 1]]))
        return real(n, k, spec)

    monkeypatch.setattr(kuni.cli, "mds_from_singleton", non_mds)
    code, out, _ = run(capsys, "table1", "--n-max", "5", "--verify")
    assert "[exhaustive: k=1]" in out
    assert code == EXIT_REFUTED


def test_table1_refuses_an_empty_selection(capsys):
    # no row has k = 9, and no n lies in [13, 11]: an empty table is no verdict
    for argv, words in ((("--k", "9"), "k = 9 and 5 <= n <= 10"),
                        (("--n-min", "13", "--n-max", "11", "--verify"), "any k and 13 <= n <= 11")):
        code, out, err = run(capsys, "table1", *argv)
        assert code == EXIT_USAGE and out == "" and words in err


def test_table1_json_reproducible(capsys):
    args = ("table1", "--n-max", "6", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["table1"][0]["clq_min_q"] == 2


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys, "verify", str(tmp_path / "missing.state"))[0] == EXIT_USAGE
    # construct clq without a code spec
    assert run(capsys, "construct", "clq")[0] == EXIT_USAGE
    # Bell exponents outside [0, q): over GF(4) a 7 is no field element
    for q, l, m in (("4", "7", "1"), ("3", "-1", "0"), ("4", "0", "5")):
        code, out, err = run(capsys, "construct", "builtin", "--name", "bell", "--q", q,
                             "--l", l, "--m", m, "-o", str(tmp_path / "bell.state"))
        assert code == EXIT_USAGE and out == "" and err.startswith("error:")
    assert not (tmp_path / "bell.state").exists()
    # a flag the named builtin does not take: no GF(4) state for --q 5
    for argv in (["--name", "ame_7_4", "--q", "5"],
                 ["--name", "ame_19_17_matrices", "--q", "7", "--n", "4",
                  "--emit-g", str(tmp_path / "g.txt"), "--emit-q", str(tmp_path / "q.txt")],
                 ["--name", "ame_5_q", "--q", "3", "--l", "1"],
                 ["--name", "ghz", "--n", "3", "--q", "2", "--m", "1"]):
        code, out, err = run(capsys, "construct", "builtin", *argv,
                             "-o", str(tmp_path / "extra.state"))
        assert code == EXIT_USAGE and out == "" and err.startswith("error:")
        assert "takes no --" in err
    assert not (tmp_path / "extra.state").exists() and not (tmp_path / "g.txt").exists()
    bad = tmp_path / "bad.state"
    bad.write_text("garbage\n")
    assert run(capsys, "verify", str(bad))[0] == EXIT_USAGE


@pytest.mark.parametrize("text", [
    "STATE a 2\n",
    "STATE 2 2147483647\n",
    "STATE 2 2\n9 9 : 1 0\n",
    "STATE 2 2\n0 0 : 1 0\n0 0 : 0 1\n",
    "STATE 2 2\n0 x : 1 0\n",
    "STATEX 2 2\n0 0 : 1 0\n1 1 : 1 0\n",  # a Bell pair under a longer keyword
])
def test_malformed_state_exits_usage(tmp_path, capsys, text):
    bad = tmp_path / "bad.state"
    bad.write_text(text)
    code, _, err = run(capsys, "verify", str(bad))
    assert code == EXIT_USAGE and err.startswith("error:")


def test_malformed_matrix_exits_usage(tmp_path, capsys):
    g_path, q_path = tmp_path / "g.txt", tmp_path / "q.txt"
    g_path.write_text("2 3 3 1\n1 0 1\n1 x 1\n")
    q_path.write_text("2 2 3 1\n1 0\n0 1\n")
    code, _, err = run(capsys, "certify", "--g", str(g_path), "--q-matrix", str(q_path))
    assert code == EXIT_USAGE and "bad matrix row" in err


@pytest.mark.parametrize("argv", [
    ["verify", "BAD"],
    ["codes", "check", "BAD"],
    ["codes", "distance", "BAD"],
    ["certify", "--g", "BAD", "--q-matrix", "BAD"],
    ["construct", "clq", "--code", "BAD", "-o", "OUT"],
    ["certify", "--g", "GOOD", "--q-matrix", "BAD"],
    ["construct", "clq-rep", "--g", "GOOD", "--q-matrix", "BAD", "-o", "OUT"],
], ids=["verify", "codes-check", "codes-distance", "certify", "construct-clq",
        "certify-q", "construct-clq-rep-q"])
def test_non_utf8_input_exits_usage(tmp_path, capsys, argv):
    # a file that is not text is malformed input, not a refutation, and the
    # message names it; a good G is read before the bad Q
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"CODE 4 2\n2 4 2 1\n1 0 1 \xff\n0 1 1 1\n")
    good = tmp_path / "g.txt"
    good.write_text("2 3 3 1\n1 0 1\n0 1 1\n")
    paths = {"BAD": str(bad), "GOOD": str(good), "OUT": str(tmp_path / "out.state")}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == EXIT_USAGE and out == "" and err.startswith("error:")
    assert f"{bad} is not UTF-8 text" in err
    assert sorted(os.listdir(tmp_path)) == ["bad.txt", "g.txt"]


@pytest.mark.parametrize("given, missing", [("--g", "--q-matrix"), ("--q-matrix", "--g")])
def test_construct_clq_rep_names_its_missing_matrix(tmp_path, capsys, given, missing):
    g_path, q_path = tmp_path / "g.txt", tmp_path / "q.txt"
    run(capsys, "decompose", "--q", "5", "--emit-g", str(g_path), "--emit-q", str(q_path))
    path = {"--g": g_path, "--q-matrix": q_path}[given]
    code, out, err = run(capsys, "construct", "clq-rep", given, str(path),
                         "-o", str(tmp_path / "s.state"))
    assert code == EXIT_USAGE and out == "" and f"clq-rep needs {missing} FILE" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "q.txt"]


def test_codes_mds_prints_the_file_it_would_write(tmp_path, capsys):
    path = tmp_path / "code.txt"
    argv = ("codes", "mds", "--n", "5", "--k", "2", "--q", "5")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert run(capsys, *argv, "-o", str(path))[0] == EXIT_OK
    assert out == path.read_text()


def test_construct_clq_rep_names_the_failed_hypotheses(tmp_path, capsys):
    # the golden GF(7) parent with label columns of rank 1: the state is not
    # built, and the message names what failed, the same on every run
    g_path, q_path = tmp_path / "g7.txt", tmp_path / "q7rank1.txt"
    run(capsys, "decompose", "--q", "7", "--emit-g", str(g_path))
    q_path.write_text(RANK1_Q7)
    code, out, err = run(capsys, "construct", "clq-rep", "--g", str(g_path),
                         "--q-matrix", str(q_path), "-o", str(tmp_path / "s.state"))
    assert code == EXIT_USAGE and out == "" and "object at" not in err
    assert err.startswith("error: (G, Q) failed decomposition checks:")
    assert "rank Q = 1, not 2" in err and "kernel dimension 3 != k-2 = 2" in err
    assert "parent code not MDS" not in err
    assert not (tmp_path / "s.state").exists()


def test_certify_rejects_pair_over_two_fields(tmp_path, capsys):
    # G over GF(5) with a GF(4) Q of matching height, or a 3-row Q over G's
    # field against the 4-row G of GF(7): a usage error, not a refutation
    g_path, q_path = tmp_path / "g.txt", tmp_path / "q.txt"
    for q, q_text, named in (("5", "3 2 2 2\n1 1\n1 0\n0 2\n", ("GF(5)", "GF(2^2)")),
                             ("7", "3 2 7 1\n1 0\n0 1\n1 1\n", ("Q has 3 rows but G has 4",))):
        run(capsys, "decompose", "--q", q, "--emit-g", str(g_path))
        q_path.write_text(q_text)
        for argv in (["certify"], ["construct", "clq-rep", "-o", str(tmp_path / "s.state")]):
            code, out, err = run(capsys, *argv, "--g", str(g_path), "--q-matrix", str(q_path))
            assert code == EXIT_USAGE and "FAILED" not in out and err.startswith("error:")
            assert all(name in err for name in named), err
    assert not (tmp_path / "s.state").exists()


def test_certify_rejects_a_pair_of_a_non_ame_shape(tmp_path, capsys):
    # a [7,3]_7 parent and a Q that pass the four hypotheses; its 9-party
    # repetition state is not AME(9, 7), so no certificate may claim it
    g_path, q_path = tmp_path / "g.txt", tmp_path / "q.txt"
    run(capsys, "codes", "mds", "--n", "7", "--k", "3", "--q", "7", "-o", str(g_path))
    g_path.write_text(g_path.read_text().split("\n", 1)[1])  # the matrix below CODE n k
    q_path.write_text("3 2 7 1\n0 1\n1 0\n1 1\n")
    for argv in (["certify"], ["construct", "clq-rep", "-o", str(tmp_path / "s.state")]):
        code, out, err = run(capsys, *argv, "--g", str(g_path), "--q-matrix", str(q_path))
        assert code == EXIT_USAGE and "PASSED" not in out and err.startswith("error:")
    assert not (tmp_path / "s.state").exists()


@pytest.mark.parametrize("argv, named", [
    (["--k-max", "0"], "--k-max"),
    (["--k-max", "-2"], "--k-max"),
    (["--sample", "0", "--seed", "1"], "--sample"),
    (["--sample", "-1", "--seed", "1"], "--sample"),
    (["--sample", "3"], "--seed"),
], ids=["k-max-0", "k-max-negative", "sample-0", "sample-negative", "sample-without-seed"])
def test_bad_verify_request_exits_usage(tmp_path, capsys, argv, named):
    # a usage error, not a certificate (exit 0) or a refutation (exit 1)
    state_path = tmp_path / "ame52.state"
    run(capsys, "construct", "clq", "--n", "3", "--k", "2", "--q", "2", "-o", str(state_path))
    code, out, err = run(capsys, "verify", str(state_path), *argv)
    assert code == EXIT_USAGE and out == "" and named in err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--budget", "-1"], ["--seed", "9", "--json"]],
                         ids=["budget", "seed"])
def test_search_flags_without_search_exit_usage(capsys, argv):
    # without --search no candidate is tried and no random draw is made
    code, out, err = run(capsys, "decompose", "--q", "5", *argv)
    assert code == EXIT_USAGE and out == "" and "--search" in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--budget", "-1"],
    ["--budget", "0"],
    ["--seed", "1", "--budget", "-3"],
], ids=["budget-negative", "budget-0", "seeded-budget-negative"])
def test_bad_search_budget_exits_usage(capsys, argv):
    # a usage error, not a traceback with exit 1 (refuted)
    code, out, err = run(capsys, "decompose", "--q", "5", "--search", *argv)
    assert code == EXIT_USAGE and out == "" and "--budget" in err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_invalid_term_cap_exits_usage(monkeypatch, tmp_path, capsys):
    # ghz never reaches the cap, so main itself must validate it
    monkeypatch.setenv("KUNI_MAX_TERMS", "abc")
    code, _, err = run(capsys, "construct", "builtin", "--name", "ghz", "--n", "3",
                       "--q", "2", "-o", str(tmp_path / "ghz.state"))
    assert code == EXIT_USAGE and "KUNI_MAX_TERMS" in err


def test_zero_code_distance_exits_usage(tmp_path, capsys):
    # a [3, 0] code has no nonzero word, hence no minimum distance
    path = tmp_path / "zero.code"
    path.write_text("CODE 3 0\n0 3 5 1\n")
    for method in ("auto", "brute", "rank"):
        code, out, err = run(capsys, "codes", "distance", str(path), "--method", method)
        assert code == EXIT_USAGE and out == "" and err.startswith("error:")
    code, out, _ = run(capsys, "codes", "check", str(path), "--json")
    assert code == EXIT_OK and json.loads(out)["mds"]["distance"] is None


# Runs the CLI under an address-space limit of its current size plus 64 MB,
# set in the child only.
_UNDER_MEMORY_LIMIT = """
import resource, sys
from kuni.cli import main
with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * resource.getpagesize()
limit = size + 64 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


def _run_under_memory_limit(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(kuni.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", _UNDER_MEMORY_LIMIT, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def _run_process(*argv, cwd=None, timeout=120, pass_fds=()):
    """A fresh interpreter running `argv`, with kuni importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(kuni.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=timeout, pass_fds=pass_fds)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux statm")
def test_out_of_memory_exits_usage_not_refuted():
    # the n = 15 row materializes its 9^7 = 4,782,969 terms (gigabytes)
    proc = _run_under_memory_limit("table1", "--k", "3", "--n-min", "15", "--n-max", "15",
                                   "--verify")
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error:") and "memory" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux statm")
@pytest.mark.parametrize("text", ["STATE 3 2\n", "STATE 3 2\n0 0 0 : 0 0\n",
                                  "STATE 2147483647 2\n"])
def test_zero_vector_is_not_a_state(tmp_path, text):
    # no nonzero term: a usage error, not a refutation, and rejected before a
    # sweep is sized by the party count (under the memory limit, sizing it
    # for 2^31 parties would end in an out-of-memory error)
    path = tmp_path / "zero.state"
    path.write_text(text)
    proc = _run_process("-c", _UNDER_MEMORY_LIMIT, "verify", str(path), "--json", timeout=5)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "zero vector" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (["builtin", "--name", "ghz", "--q", "3"], "--n"),
    (["builtin", "--name", "bell", "--q", "3"], "--l"),
    (["builtin", "--name", "ame_5_q"], "--q"),
    (["clq-rep"], "--g"),
    (["clq-rep", "--g", "g.txt"], "--q-matrix"),
])
def test_missing_construct_flag_exits_usage(tmp_path, argv, flag):
    (tmp_path / "g.txt").write_text("2 3 5 1\n1 0 1\n0 1 1\n")
    proc = _run_process("-m", "kuni.cli", "construct", *argv, "-o", "x.state", cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error:") and f"needs {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt"]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux statm")
def test_code_state_file_streams_within_a_memory_limit(tmp_path):
    # 9^6 = 531,441 words: the writer keeps none of them
    out = tmp_path / "code.state"
    proc = _run_under_memory_limit("construct", "from-code", "--n", "8", "--k", "6", "--q", "9",
                                   "-o", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "support 531441," in proc.stdout
    with open(out) as fh:
        assert next(fh) == "STATE 8 9\n"
        assert sum(1 for _ in fh) == 9 ** 6
    assert list(tmp_path.iterdir()) == [out]


def test_failed_construct_keeps_an_existing_output(monkeypatch, tmp_path, capsys):
    out = tmp_path / "big.state"
    out.write_bytes(b"an earlier run\n")

    def fail_midway(error):  # a writer that fails after the header
        def chunks(self):
            yield f"STATE {self.n} {self.q}\n"
            raise error
        return chunks

    with monkeypatch.context() as patch:
        patch.setattr(FibredState, "chunks", fail_midway(MemoryError()))
        code, _, err = run(capsys, "construct", "from-code", "--n", "9", "--k", "7", "--q", "9",
                           "-o", str(out))
    assert code == EXIT_USAGE and "memory" in err
    monkeypatch.setenv("KUNI_MAX_TERMS", "10")
    code, _, err = run(capsys, "construct", "clq", "--n", "7", "--k", "4", "--q", "7",
                       "--seed-state", "ghz", "-o", str(out))
    assert code == EXIT_USAGE and "term cap" in err
    monkeypatch.delenv("KUNI_MAX_TERMS")
    # a file system that fills up after the header
    monkeypatch.setattr(FibredState, "chunks", fail_midway(OSError("No space left on device")))
    code, _, err = run(capsys, "construct", "builtin", "--name", "ame_7_4", "-o", str(out))
    assert code == EXIT_USAGE and "No space" in err
    assert out.read_bytes() == b"an earlier run\n"
    assert list(tmp_path.iterdir()) == [out]  # no partial file beside it


def test_matrix_builtin_refuses_an_output_file(tmp_path):
    # -o names a state file; the matrices go to --emit-g and --emit-q, and
    # nothing is written, not even their g.txt and q.txt defaults
    proc = _run_process("-m", "kuni.cli", "construct", "builtin", "--name", "ame_19_17_matrices",
                        "-o", "x.state", cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr == ("error: ame_19_17_matrices writes matrices: -o does not apply, "
                           "use --emit-g and --emit-q\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["from-code", "--n", "4", "--k", "2", "--q", "5", "--emit-g", "x.txt"],
    ["clq", "--n", "4", "--k", "2", "--q", "5", "--emit-q", "x.txt"],
    ["builtin", "--name", "ghz", "--n", "3", "--q", "3", "--emit-g", "x.txt"],
])
def test_a_state_refuses_matrix_outputs(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "construct", *argv, "-o", "y.state")
    assert code == EXIT_USAGE and out == "" and err.startswith("error:")
    assert argv[-2] in err
    assert list(tmp_path.iterdir()) == []


def test_term_cap_bounds_builtin_states(monkeypatch, tmp_path, capsys):
    # a built-in SparseState is capped like a fibred one, before the file is opened
    monkeypatch.setenv("KUNI_MAX_TERMS", "5")
    out = tmp_path / "g.state"
    for argv in (["--name", "ghz", "--n", "3", "--q", "7"],
                 ["--name", "bell", "--q", "7", "--l", "0", "--m", "0"],
                 ["--name", "ame_5_q", "--q", "3"]):
        code, stdout, err = run(capsys, "construct", "builtin", *argv, "-o", str(out))
        assert code == EXIT_USAGE and stdout == "" and "term cap" in err
    assert list(tmp_path.iterdir()) == []


def test_construct_refuses_the_state_of_a_code_of_no_party(monkeypatch, tmp_path, capsys):
    # a [0, 0] code's state has no party, and verify reads no 0-party file:
    # construct refuses it before the file or its .tmp is opened
    monkeypatch.chdir(tmp_path)
    Path("code.txt").write_text("CODE 0 0\n0 0 2 1\n")
    code, out, err = run(capsys, "construct", "from-code", "--code", "code.txt", "-o", "z.state")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: a state file needs at least one party, state has 0\n"
    assert [path.name for path in tmp_path.iterdir()] == ["code.txt"]


def test_file_cap_bounds_a_small_state_over_a_large_field(monkeypatch, tmp_path, capsys):
    # a term line holds q coefficients, and a file at most 16 a term of the
    # term cap: under KUNI_MAX_TERMS=1000, GHZ and a code state of 256 terms
    # over GF(256) (65,536 coefficients) are refused before the file or its
    # .tmp is opened, though their supports are under the term cap
    monkeypatch.setenv("KUNI_MAX_TERMS", "1000")
    out = tmp_path / "g.state"
    for argv in (["builtin", "--name", "ghz", "--n", "3", "--q", "256"],
                 ["builtin", "--name", "ghz", "--n", "3", "--q", "127"],  # 16,129
                 ["from-code", "--n", "3", "--k", "1", "--q", "256"]):
        code, stdout, err = run(capsys, "construct", *argv, "-o", str(out))
        assert code == EXIT_USAGE and stdout == "" and "file cap of 16000" in err, argv
        assert list(tmp_path.iterdir()) == []
    # 125 terms of 125 coefficients (15,625) are written
    code, _, _ = run(capsys, "construct", "builtin", "--name", "ghz", "--n", "3", "--q", "125",
                     "-o", str(out))
    assert code == EXIT_OK and out.read_text().count("\n") == 126
    assert list(tmp_path.iterdir()) == [out]


# Runs the CLI with every file it writes capped at argv[1] bytes (RLIMIT_FSIZE),
# set in the child only; Python ignores SIGXFSZ, so a write past the cap
# raises OSError.
_UNDER_FILE_SIZE_LIMIT = """
import resource, sys
from kuni.cli import main
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("limit, argv", [
    (53, ["codes", "mds", "--n", "6", "--k", "3", "--q", "17", "-o", "old.txt"]),
    (24, ["decompose", "--q", "7", "--emit-g", "old.txt"]),
    (24, ["construct", "builtin", "--name", "ame_19_17_matrices", "--emit-g", "old.txt",
          "--emit-q", "q.txt"]),
    (24, ["construct", "builtin", "--name", "ame_19_17_matrices", "--emit-g", os.devnull,
          "--emit-q", "old.txt"]),
])
def test_a_failed_write_keeps_the_old_file(monkeypatch, tmp_path, limit, argv):
    # a truncated code or matrix would read as a refuted one; the old file
    # stays whole and no .tmp is left beside it
    pytest.importorskip("resource")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for name in ("old.txt", "q.txt"):
        (tmp_path / name).write_text("an earlier run\n")
    proc = _run_process("-c", _UNDER_FILE_SIZE_LIMIT, str(limit), *argv, cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE and proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt", "q.txt"]
    assert all(p.read_text() == "an earlier run\n" for p in tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["decompose", "--q", "7"],
    ["construct", "builtin", "--name", "ame_19_17_matrices"],
])
def test_a_failed_pair_write_keeps_the_old_pair(monkeypatch, tmp_path, capsys, argv):
    # the second file of a pair cannot be written: the first is not replaced,
    # so the two files still hold one pair over one field
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "decompose", "--q", "5", "--emit-g", "g.txt", "--emit-q", "q.txt")[0] == 0
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, err = run(capsys, *argv, "--emit-g", "g.txt", "--emit-q", "nodir/q.txt")
    assert code == EXIT_USAGE and err.startswith("error:")
    assert "nodir/q.txt" in err and ".tmp" not in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old  # and no .tmp


def test_a_failed_rename_keeps_the_files_renamed_before_it(monkeypatch, tmp_path, capsys):
    # every write finished, then the second rename fails: the first file is
    # already replaced, the second keeps its old text, and no .tmp is left
    monkeypatch.chdir(tmp_path)
    for name in ("g", "q"):
        Path(name).write_text("an earlier run\n")
    replace, renamed = os.replace, []

    def fail_second(src, dst):
        renamed.append(dst)
        if len(renamed) == 2:
            raise OSError(f"cannot rename {src}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_second)
    code, out, err = run(capsys, "construct", "builtin", "--name", "ame_19_17_matrices",
                         "--emit-g", "g", "--emit-q", "q")
    assert (code, out) == (EXIT_USAGE, "") and err.startswith("error: cannot rename")
    assert Path("g").read_text() == format_matrix(ame_19_17_matrices()[0])
    assert Path("q").read_text() == "an earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "q"]


def test_two_outputs_to_one_path_keep_the_old_file(monkeypatch, tmp_path, capsys):
    # the Q would silently replace the G: the run is refused before either is written
    monkeypatch.chdir(tmp_path)
    Path("same.txt").write_text("an earlier run\n")
    code, out, err = run(capsys, "decompose", "--q", "5", "--emit-g", "same.txt",
                         "--emit-q", "same.txt")
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: two outputs are one file, {tmp_path.resolve() / 'same.txt'}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["same.txt"]
    assert Path("same.txt").read_text() == "an earlier run\n"
    # a device is written through, so it may take both
    assert run(capsys, "decompose", "--q", "5", "--emit-g", os.devnull,
               "--emit-q", os.devnull)[0] == EXIT_OK


def test_two_outputs_through_a_symlink_keep_the_old_file(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    Path("same.txt").write_text("an earlier run\n")
    Path("link.txt").symlink_to("same.txt")
    code, out, err = run(capsys, "construct", "builtin", "--name", "ame_19_17_matrices",
                         "--emit-g", "same.txt", "--emit-q", "link.txt")
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: two outputs are one file, {tmp_path.resolve() / 'same.txt'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "same.txt"]
    assert Path("same.txt").read_text() == "an earlier run\n"


def _ame53(tmp_path, capsys) -> bytes:
    path = tmp_path / "ame.state"
    assert run(capsys, "construct", "builtin", "--name", "ame_5_q", "--q", "3",
               "-o", str(path))[0] == EXIT_OK
    return path.read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_verify_reads_a_fifo_once(tmp_path, capsys):
    # the writer writes the file once: a second open of the FIFO would wait
    # for a writer that never comes
    data = _ame53(tmp_path, capsys)
    fifo = tmp_path / "ame.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()  # its open returns once the reader has opened the FIFO
    proc = _run_process("-m", "kuni.cli", "verify", str(fifo), "--json", timeout=20)
    writer.join(5)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert not writer.is_alive()
    doc = json.loads(proc.stdout)
    assert doc["manifest"]["inputs"] == {str(fifo): hashlib.sha256(data).hexdigest()}
    code, out, _ = run(capsys, "verify", str(tmp_path / "ame.state"), "--json")
    assert code == EXIT_OK and json.loads(out)["uniformity"] == doc["uniformity"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_verify_digests_the_bytes_of_a_pipe(tmp_path, capsys):
    # /dev/fd/N of a drained pipe reads as empty; the digest is of the bytes read
    data = _ame53(tmp_path, capsys)
    r, w = os.pipe()
    try:
        os.write(w, data)  # far below the pipe's buffer
        os.close(w)
        proc = _run_process("-m", "kuni.cli", "verify", f"/dev/fd/{r}", "--json",
                            timeout=60, pass_fds=(r,))
    finally:
        os.close(r)
    assert proc.returncode == EXIT_OK, proc.stderr
    inputs = json.loads(proc.stdout)["manifest"]["inputs"]
    assert inputs == {f"/dev/fd/{r}": hashlib.sha256(data).hexdigest()}


def test_crlf_inputs_give_the_lf_documents(monkeypatch, tmp_path, capsys):
    # the parsers split lines themselves, so only the input digests differ
    monkeypatch.chdir(tmp_path)
    files = {"ame.state": _ame53(tmp_path, capsys)}
    run(capsys, "decompose", "--q", "5", "--emit-g", "g.txt", "--emit-q", "q.txt")
    run(capsys, "codes", "mds", "--n", "6", "--k", "3", "--q", "7", "-o", "c.txt")
    files.update((name, Path(name).read_bytes()) for name in ("g.txt", "q.txt", "c.txt"))
    for sub, newline in (("lf", b"\n"), ("crlf", b"\r\n")):
        (tmp_path / sub).mkdir()
        for name, data in files.items():
            (tmp_path / sub / name).write_bytes(data.replace(b"\n", newline))
    for argv in (["verify", "ame.state", "--json"],
                 ["certify", "--g", "g.txt", "--q-matrix", "q.txt", "--json"],
                 ["codes", "check", "c.txt", "--json"],
                 ["construct", "clq-rep", "--g", "g.txt", "--q-matrix", "q.txt", "-o", "s.state"]):
        results = []
        for sub in ("lf", "crlf"):
            monkeypatch.chdir(tmp_path / sub)
            code, out, err = run(capsys, *argv)
            assert code == EXIT_OK, err
            if "--json" in argv:
                out = json.loads(out)
                inputs = out["manifest"].pop("inputs")
                assert inputs == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                                  for p in argv if p in files}
            results.append(out)
        assert results[0] == results[1]
    assert (tmp_path / "lf" / "s.state").read_bytes() == (tmp_path / "crlf" / "s.state").read_bytes()


def test_sweeps_build_no_sparse_state(monkeypatch, tmp_path, capsys):
    # verify builds its key table from the checked lines of the file, and
    # table1 --verify from the terms of the row's fibred state; only the
    # small quantum seeds of the table rows are SparseStates
    path = tmp_path / "ame.state"
    run(capsys, "construct", "builtin", "--name", "ame_7_4", "-o", str(path))
    built = []
    init, of_nonzero = SparseState.__init__, SparseState._of_nonzero.__func__

    def recorded_init(self, n, spec, terms=None):
        built.append(n)
        init(self, n, spec, terms)

    def recorded_of_nonzero(cls, n, spec, terms):
        built.append(n)
        return of_nonzero(cls, n, spec, terms)

    monkeypatch.setattr(SparseState, "__init__", recorded_init)
    monkeypatch.setattr(SparseState, "_of_nonzero", classmethod(recorded_of_nonzero))
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert code == EXIT_OK and json.loads(out)["uniformity"]["support"] == 4 ** 4
    assert built == []
    for argv, exit_code in ((["--json"], EXIT_OK),
                            (["--k", "3", "--n-min", "11", "--n-max", "11", "--json"],
                             EXIT_SAMPLED)):
        code, out, _ = run(capsys, "table1", "--verify", *argv)
        assert code == exit_code
        rows = json.loads(out)["table1"]
        assert all(row["mode"] == "skipped" or row["support"] > 0 for row in rows)
        assert built and max(built) < min(row["n"] for row in rows)
        built.clear()


def test_digest_is_sha256():
    for data in (b"", b"STATE 1 2\n0 : 1 0\n", bytes(range(256)) * 4096):
        assert _digest(data) == hashlib.sha256(data).hexdigest()


def test_construct_streams_without_materializing(monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("construct materialized a code-fibred state")

    monkeypatch.setattr(FibredState, "materialize", refuse)
    d = str(tmp_path)
    run(capsys, "decompose", "--q", "5", "--emit-g", f"{d}/g.txt", "--emit-q", f"{d}/q.txt")
    for argv, support in (
            (["from-code", "--n", "5", "--k", "3", "--q", "4"], 4 ** 3),
            (["clq", "--n", "5", "--k", "2", "--q", "5", "--seed-state", "ghz"], 5 ** 3),
            (["clq-rep", "--g", f"{d}/g.txt", "--q-matrix", f"{d}/q.txt"], 5 ** 4),
            (["builtin", "--name", "ame_7_4"], 4 ** 4)):
        out = tmp_path / f"{argv[0]}.state"
        code, stdout, err = run(capsys, "construct", *argv, "-o", str(out))
        assert code == EXIT_OK, err
        assert f"support {support}," in stdout
        assert parse_state(out.read_text()).support == support


def test_import_loads_every_layer_and_no_json_machinery(tmp_path, capsys):
    # each command is a fresh process, so `import kuni.cli` is paid by every
    # run: dataclasses (with inspect), hashlib (OpenSSL) and json stay out of
    # it, while every layer stays loaded for the perfbench tracer; a --json
    # run hashes its inputs without hashlib, so OpenSSL is never loaded
    state = tmp_path / "ame.state"
    run(capsys, "construct", "builtin", "--name", "ame_5_q", "--q", "3", "-o", str(state))
    probe = ("import sys; before = set(sys.modules); import kuni.cli; "
             "print(' '.join(sorted(set(sys.modules) - before))); "
             "code = kuni.cli.main(sys.argv[1:]); "
             "print(code, ' '.join(sorted({'hashlib', '_hashlib'} & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=str(Path(kuni.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", probe, "verify", str(state), "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, *document, last = proc.stdout.splitlines()
    loaded = set(first.split())
    assert not loaded & {"dataclasses", "inspect", "hashlib", "json"}
    assert json.loads("\n".join(document))["uniformity"]["max_verified_k"] == 2
    assert last.split() == [str(EXIT_OK)]  # neither hashlib nor _hashlib
    layers = ("field", "codes", "cyclotomic", "decomposition", "states", "verify", "cli")
    assert {f"kuni.{m}" for m in layers} <= loaded


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
