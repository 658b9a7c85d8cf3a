"""End-to-end CLI tests driving kuni.cli.main with real files."""

import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import kuni
from kuni.cli import EXIT_OK, EXIT_REFUTED, EXIT_SAMPLED, EXIT_USAGE, _digest, main
from kuni.states import FibredState, SparseState, bell, format_state, ghz, parse_state
from kuni.codes import LinearCode, format_code, singleton_array
from kuni.field import FFMatrix, gf
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


def _run_process(*argv, cwd=None, timeout=120):
    """A fresh interpreter running `argv`, with kuni importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(kuni.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=timeout)


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


def test_digest_is_sha256(tmp_path):
    for name, data in (("empty", b""), ("small", b"STATE 1 2\n0 : 1 0\n"),
                       ("large", bytes(range(256)) * 4096)):
        path = tmp_path / name
        path.write_bytes(data)
        assert _digest(str(path)) == hashlib.sha256(data).hexdigest()


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
