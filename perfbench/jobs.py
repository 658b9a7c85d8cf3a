"""The three workloads: seeded set-up, the commands of one job, and the
checks each command's output must pass.

Every expected verdict, exit code and audit count below follows from how the
input was built (see inputs.py), never from an earlier kuni run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from inputs import GF, dense_pair_texts, factor_q

EXIT_OK, EXIT_REFUTED, EXIT_SAMPLED = 0, 1, 2


@dataclass
class Command:
    """One kuni invocation of a job and the checks on its outcome."""

    argv: list
    check: object  # (exit code, stdout text) -> list of problems
    outputs: tuple = ()  # files the command writes


def _json_doc(stdout: str, key: str):
    try:
        return json.loads(stdout)[key]
    except (ValueError, KeyError, TypeError):
        return None


def _compare(doc: dict, expected: dict) -> list:
    return [f"{k} = {doc.get(k)!r}, expected {v!r}"
            for k, v in expected.items() if doc.get(k) != v]


def _exit_problem(code, want: int) -> list:
    return [] if code == want else [f"exit {code}, expected {want}"]


def check_certificate(n_parties: int, q: int, n: int, k: int, refuted: bool = False):
    """certify --json on a k x n generator over GF(q).  A valid pair runs
    C(n, k) parent and C(n, k-2) kernel checks; the rank-1 refutation runs the
    full parent check and stops at the kernel dimension."""
    expected = {
        "certified": not refuted,
        "claim": None if refuted else f"AME({n_parties},{q})",
        "parent_mds": True,
        "parent_checks": math.comb(n, k),
        "kernel_mds": not refuted,
        "kernel_checks": 0 if refuted else math.comb(n, k - 2),
        "q_rank": 1 if refuted else 2,
        "labels_onto": not refuted,
    }

    def check(code, stdout):
        doc = _json_doc(stdout, "certificate")
        if doc is None:
            return [f"no certificate document (exit {code})"]
        problems = _exit_problem(code, EXIT_REFUTED if refuted else EXIT_OK)
        problems += _compare(doc, expected)
        if refuted != isinstance(doc.get("kernel_error"), str):
            problems.append(f"kernel_error = {doc.get('kernel_error')!r}")
        return problems

    return check


def check_decompose(q: int):
    """decompose --q q: the closed-form [q, (q+1)/2] pair, certified."""
    n, k = q, (q + 1) // 2
    expected = {"q": q, "claim": f"AME({q + 2},{q})",
                "parent_checks": math.comb(n, k), "kernel_checks": math.comb(n, k - 2)}
    field = GF(*factor_q(q))

    def check(code, stdout):
        doc = _json_doc(stdout, "decomposition")
        if doc is None:
            return [f"no decomposition document (exit {code})"]
        problems = _exit_problem(code, EXIT_OK) + _compare(doc, expected)
        q1, q2 = doc.get("q1"), doc.get("q2")
        if not (isinstance(q1, list) and isinstance(q2, list) and len(q1) == len(q2) == k
                and field.rank([q1, q2]) == 2):
            problems.append(f"labels q1 = {q1!r}, q2 = {q2!r} are not a rank-2 k x 2 matrix")
        return problems

    return check


def check_mds(n: int, k: int, q: int):
    """codes check --json on an MDS [n, k]_q code: C(n, k) column checks."""
    expected = {"n": n, "k": k, "q": q, "is_mds": True, "method": "columns",
                "checks": math.comb(n, k), "witness": None, "distance": n - k + 1}

    def check(code, stdout):
        doc = _json_doc(stdout, "mds")
        if doc is None:
            return [f"no mds document (exit {code})"]
        return _exit_problem(code, EXIT_OK) + _compare(doc, expected)

    return check


def check_uniformity(n: int, q: int, support: int, tallies: dict, failure_size=None,
                     sampled: bool = False):
    """verify --json: tallies per subset size, the verdict and the exit code.
    A refuted sweep stops after the size of its first failure."""
    top = max(tallies)
    expected = {
        "n": n, "q": q, "support": support,
        "mode": "sampled" if sampled else "exhaustive",
        "certifying": not sampled,
        "max_verified_k": top if failure_size is None else failure_size - 1,
        "tallies": {str(s): list(t) for s, t in tallies.items()},
    }
    if failure_size is not None:
        want_exit = EXIT_REFUTED
    else:
        want_exit = EXIT_SAMPLED if sampled else EXIT_OK

    def check(code, stdout):
        doc = _json_doc(stdout, "uniformity")
        if doc is None:
            return [f"no uniformity document (exit {code})"]
        problems = _exit_problem(code, want_exit) + _compare(doc, expected)
        ff = doc.get("first_failure")
        if failure_size is None:
            if ff is not None:
                problems.append(f"first_failure = {ff!r}, expected none")
        elif not (isinstance(ff, list) and len(ff) == 2 and len(ff[0]) == failure_size):
            problems.append(f"first_failure = {ff!r}, expected a size-{failure_size} subset")
        return problems

    return check


def check_state_file(path: Path, n: int, q: int, terms: int):
    """construct: the summary line, and a state file with the STATE header,
    `terms` term lines of n symbols, each amplitude a single root of unity."""
    roots = {" ".join("1" if i == t else "0" for i in range(q)) for t in range(q)}
    summary = f"wrote {n}-party state over GF({q}), support {terms}, to {path}"

    def check(code, stdout):
        problems = _exit_problem(code, EXIT_OK)
        if summary not in stdout:
            problems.append(f"missing summary line {summary!r}")
        try:
            with open(path) as fh:
                header = fh.readline().rstrip("\n")
                count = bad = 0
                for line in fh:
                    count += 1
                    left, _, right = line.rstrip("\n").partition(" : ")
                    if right not in roots or left.count(" ") != n - 1:
                        bad += 1
        except OSError as exc:
            return problems + [f"cannot read {path}: {exc}"]
        if header != f"STATE {n} {q}":
            problems.append(f"header {header!r}, expected 'STATE {n} {q}'")
        if count != terms:
            problems.append(f"{count} terms, expected {terms}")
        if bad:
            problems.append(f"{bad} term lines without {n} symbols and a single root of unity")
        return problems

    return check


# --- workloads ---------------------------------------------------------------

# 10-party Cl+Q state from the [7,3]_7 code and a 3-party GHZ seed: every
# reduction to 1 or 2 parties is maximally mixed; 2 of the 120 size-3
# reductions are not (an independent sweep, sweep_monomial, agrees).
CLQ10_SIZE3_PASSED = 118


def _dense_pair(d: Path, g: Path, q: Path, seed: int, label: str) -> dict:
    g2, q2, r2 = dense_pair_texts(g.read_text(), q.read_text(), seed, label)
    paths = {f"{label}_g": d / f"{label}_g.txt", f"{label}_q": d / f"{label}_q.txt",
             f"{label}_refuted_q": d / f"{label}_refuted_q.txt"}
    for p, text in zip(paths.values(), (g2, q2, r2)):
        p.write_text(text)
    return paths


class Certify:
    """Algebraic certificates: prime-field rank checks, one extension field."""

    name = "certify"

    def setup(self, d, seed, kuni):
        p = {"g21": d / "g21.txt", "q21": d / "q21.txt", "g19": d / "g19.txt",
             "q19": d / "q19.txt", "mds15": d / "mds15_7_16.code"}
        kuni("construct", "builtin", "--name", "ame_21_19_matrices",
             "--emit-g", p["g21"], "--emit-q", p["q21"])
        kuni("construct", "builtin", "--name", "ame_19_17_matrices",
             "--emit-g", p["g19"], "--emit-q", p["q19"])
        p.update(_dense_pair(d, p["g19"], p["q19"], seed, "dense19"))
        kuni("codes", "mds", "--n", "15", "--k", "7", "--q", "16", "-o", p["mds15"])
        return p

    def commands(self, p, seed, out):
        return [
            Command(["certify", "--g", p["g21"], "--q-matrix", p["q21"], "--json"],
                    check_certificate(21, 19, 19, 10)),
            Command(["certify", "--g", p["dense19_g"], "--q-matrix", p["dense19_q"], "--json"],
                    check_certificate(19, 17, 17, 9)),
            Command(["certify", "--g", p["dense19_g"], "--q-matrix", p["dense19_refuted_q"],
                     "--json"], check_certificate(19, 17, 17, 9, refuted=True)),
            Command(["decompose", "--q", "17", "--json"], check_decompose(17)),
            Command(["codes", "check", p["mds15"], "--json"], check_mds(15, 7, 16)),
        ]


class Sweep:
    """Exact partial-trace sweeps of materialized states."""

    name = "sweep"

    def setup(self, d, seed, kuni):
        p = {"ame7_4": d / "ame7_4.state", "clq10": d / "clq10.state",
             "g7": d / "g7.txt", "q7": d / "q7.txt", "ame9_7": d / "ame9_7.state"}
        kuni("construct", "builtin", "--name", "ame_7_4", "-o", p["ame7_4"])
        kuni("construct", "clq", "--n", "7", "--k", "3", "--q", "7", "--seed-state", "ghz",
             "-o", p["clq10"])
        kuni("decompose", "--q", "7", "--emit-g", p["g7"], "--emit-q", p["q7"])
        p.update(_dense_pair(d, p["g7"], p["q7"], seed, "dense7"))
        kuni("construct", "clq-rep", "--g", p["dense7_g"], "--q-matrix", p["dense7_q"],
             "-o", p["ame9_7"])
        return p

    def commands(self, p, seed, out):
        return [
            Command(["verify", p["ame7_4"], "--json"],
                    check_uniformity(7, 4, 4 ** 4, {1: (7, 7), 2: (21, 21), 3: (35, 35)})),
            Command(["verify", p["clq10"], "--json"],
                    check_uniformity(10, 7, 7 ** 4, {1: (10, 10), 2: (45, 45),
                                                     3: (120, CLQ10_SIZE3_PASSED)},
                                     failure_size=3)),
            Command(["verify", p["ame9_7"], "--sample", "4", "--seed", str(seed), "--json"],
                    check_uniformity(9, 7, 7 ** 5, {s: (4, 4) for s in range(1, 5)},
                                     sampled=True)),
        ]


class Build:
    """Materialization and state-file writing over extension fields."""

    name = "build"

    def setup(self, d, seed, kuni):
        p = {"g9": d / "g9.txt", "q9": d / "q9.txt", "mds9": d / "mds9_5_8.code"}
        kuni("decompose", "--q", "9", "--emit-g", p["g9"], "--emit-q", p["q9"])
        p.update(_dense_pair(d, p["g9"], p["q9"], seed, "dense9"))
        kuni("codes", "mds", "--n", "9", "--k", "5", "--q", "8", "-o", p["mds9"])
        return p

    def commands(self, p, seed, out):
        ame11 = out / "ame11_9.state"
        code9 = out / "code9_5_8.state"
        clq11 = out / "clq11.state"
        return [
            # AME(11,9): q^k messages times q Bell terms, k = 5
            Command(["construct", "clq-rep", "--g", p["dense9_g"], "--q-matrix",
                     p["dense9_q"], "-o", ame11],
                    check_state_file(ame11, 11, 9, 9 ** 5 * 9), (ame11,)),
            Command(["construct", "from-code", "--code", p["mds9"], "-o", code9],
                    check_state_file(code9, 9, 8, 8 ** 5), (code9,)),
            # [7,4]_7 codewords times a 4-party GHZ seed of support 7
            Command(["construct", "clq", "--n", "7", "--k", "4", "--q", "7",
                     "--seed-state", "ghz", "-o", clq11],
                    check_state_file(clq11, 11, 7, 7 ** 4 * 7), (clq11,)),
        ]


# Each workload has setup(dir, seed, kuni) -> named input paths, written by
# calling kuni(*argv) and the generator, and commands(paths, seed, out dir) ->
# the job's Command list.
WORKLOADS = {w.name: w for w in (Certify(), Sweep(), Build())}


def argv_strings(argv) -> list:
    return [os.fspath(a) for a in argv]
