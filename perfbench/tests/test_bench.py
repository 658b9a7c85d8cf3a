"""End-to-end self-test of the benchmark command (slow: two traced runs per
workload, about four minutes on 2 cores).

Counts must repeat exactly between two traced runs at one seed, so that a
later change can cite them; the traced run must put each workload's heavy
layer where the README predicts; the command must fail without a result
outside a kuni checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import EXACT_COUNTS

RUN = Path(__file__).resolve().parent.parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def traced(workload, seed=5):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def runs():
    return {w: (traced(w), traced(w)) for w in ("certify", "sweep", "build")}


@pytest.mark.parametrize("workload", ["certify", "sweep", "build"])
def test_counts_repeat_exactly(runs, workload):
    first, second = runs[workload]
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["fail_ratio"] == 0


def test_certify_counts_are_the_audit_counts(runs):
    m = runs["certify"][0]
    # AME(21,19) + dense AME(19,17) + refuted pair + decompose (certifies twice) + [15,7]_16
    checks = (92378 + 75582) + (24310 + 19448) + 24310 + 2 * (24310 + 19448) + 6435
    assert m["codes.is_mds.checks"] == m["field.rank_of_rows.calls"] == checks
    assert m["decomposition.verify_decomposition.calls"] == 5


def test_heavy_layers_where_predicted(runs):
    certify, sweep, build = (runs[w][0] for w in ("certify", "sweep", "build"))
    layers = ("field", "codes", "decomposition", "cyclotomic", "verify", "states", "cli")

    def share(m, *names):
        return sum(m[f"{n}.self_s"] for n in names) / sum(m[f"{n}.self_s"] for n in layers)

    assert share(certify, "field") > 0.5
    assert share(sweep, "cyclotomic", "verify") > 0.8
    assert share(certify, "verify") < 0.01 and share(build, "verify") < 0.01
    assert sweep["verify.uniformity.subsets"] == 63 + 175 + 16


def test_fails_without_kuni(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
