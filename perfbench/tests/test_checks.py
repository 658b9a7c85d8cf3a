"""The output checks reject wrong verdicts, counts, exit codes and files."""

import json

from jobs import check_certificate, check_mds, check_state_file, check_uniformity


def certificate(**overrides):
    doc = {"certified": True, "claim": "AME(19,17)", "parent_mds": True,
           "parent_checks": 24310, "kernel_mds": True, "kernel_checks": 19448,
           "kernel_error": None, "q_rank": 2, "labels_onto": True}
    doc.update(overrides)
    return json.dumps({"manifest": {}, "certificate": doc})


def test_certificate_check():
    check = check_certificate(19, 17, 17, 9)
    assert check(0, certificate()) == []
    assert check(1, certificate())  # exit code
    assert check(0, certificate(parent_checks=24309))  # audit count
    assert check(0, certificate(kernel_error="rank"))
    assert check(0, "Traceback (most recent call last):")
    refuted = check_certificate(19, 17, 17, 9, refuted=True)
    doc = certificate(certified=False, claim=None, kernel_mds=False, kernel_checks=0,
                      kernel_error="kernel dimension 8 != k-2 = 7", q_rank=1,
                      labels_onto=False)
    assert refuted(1, doc) == []
    assert refuted(1, certificate())


def test_mds_check():
    doc = {"n": 15, "k": 7, "q": 16, "is_mds": True, "method": "columns",
           "checks": 6435, "witness": None, "distance": 9}
    check = check_mds(15, 7, 16)
    assert check(0, json.dumps({"mds": doc})) == []
    assert check(0, json.dumps({"mds": dict(doc, checks=6434)}))


def test_uniformity_check():
    doc = {"n": 10, "q": 7, "support": 2401, "mode": "exhaustive", "certifying": True,
           "max_verified_k": 2, "tallies": {"1": [10, 10], "2": [45, 45], "3": [120, 118]},
           "first_failure": [[1, 7, 8], ["diag_zero", [0, 0, 0]]]}
    check = check_uniformity(10, 7, 2401, {1: (10, 10), 2: (45, 45), 3: (120, 118)},
                             failure_size=3)
    assert check(1, json.dumps({"uniformity": doc})) == []
    assert check(0, json.dumps({"uniformity": doc}))
    assert check(1, json.dumps({"uniformity": dict(doc, first_failure=[[1, 7], "x"])}))
    tallies = dict(doc["tallies"], **{"3": [120, 119]})
    assert check(1, json.dumps({"uniformity": dict(doc, tallies=tallies)}))


def test_state_file_check(tmp_path):
    path = tmp_path / "s.state"
    check = check_state_file(path, 3, 2, 2)
    line = f"wrote 3-party state over GF(2), support 2, to {path}\n"
    path.write_text("STATE 3 2\n0 0 0 : 1 0\n1 1 1 : 0 1\n")
    assert check(0, line) == []
    path.write_text("STATE 3 2\n0 0 0 : 1 0\n1 1 1 : 1 1\n")
    assert check(0, line)  # amplitude 1 + w is not a single root of unity
    path.write_text("STATE 3 2\n0 0 0 : 1 0\n")
    assert check(0, line)  # term count
    path.write_text("STATE 3 2\n0 0 : 1 0\n1 1 1 : 0 1\n")
    assert check(0, line)  # symbols per term
