"""Byte identity of a fixed CLI command set.

Each command runs through kuni.cli.main in a fresh directory with relative
paths, so the run manifests inside the JSON documents are stable.  The test
pins the sha256 of every command's exit code and stdout, and of every file
the commands write.  A refactor that keeps behaviour keeps these digests.

`PYTHONPATH=src python tests/test_golden.py` runs the command set in a
temporary directory and prints both digest dicts in the layout below, so
the pins of a commit can be recorded with one command.  With `--check` it
compares them with the pins instead, names each mismatch and exits 1 on
any; the file imports no pytest, so any supported interpreter runs it.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from kuni.cli import main

COMMANDS = [
    ("codes", "mds", "--n", "7", "--k", "4", "--q", "8", "-o", "c8.txt"),
    ("codes", "check", "c8.txt", "--method", "columns", "--json"),
    ("codes", "check", "c8.txt", "--method", "submatrix", "--json"),
    ("codes", "mds", "--n", "6", "--k", "3", "--q", "7", "-o", "c7.txt"),
    ("codes", "distance", "c7.txt", "--method", "rank"),
    ("construct", "from-code", "--code", "c8.txt", "-o", "code8.state"),
    ("construct", "clq", "--n", "5", "--k", "2", "--q", "5", "--seed-state", "ghz",
     "-o", "clq5.state"),
    ("construct", "clq", "--code", "c7.txt", "--variant", "dual", "--seed-state", "ghz",
     "-o", "clq7dual.state"),
    ("construct", "builtin", "--name", "ame_5_q", "--q", "3", "-o", "ame53.state"),
    ("construct", "builtin", "--name", "ame_7_4", "-o", "ame74.state"),
    ("decompose", "--q", "7", "--emit-g", "g7.txt", "--emit-q", "q7.txt", "--json"),
    ("construct", "clq-rep", "--g", "g7.txt", "--q-matrix", "q7.txt", "-o", "rep7.state"),
    ("decompose", "--q", "9", "--emit-g", "g9.txt", "--emit-q", "q9.txt"),
    ("construct", "clq-rep", "--g", "g9.txt", "--q-matrix", "q9.txt", "-o", "rep9.state"),
    ("certify", "--g", "g7.txt", "--q-matrix", "q7.txt", "--json"),
    ("certify", "--g", "g7.txt", "--q-matrix", "q7.txt"),
    ("certify", "--g", "g7.txt", "--q-matrix", "q7rank1.txt", "--json"),
    ("certify", "--g", "g7.txt", "--q-matrix", "q7rank1.txt"),
    ("decompose", "--q", "7", "--search", "--seed", "3", "--json"),
    ("table1", "--verify", "--json"),
    ("verify", "ame53.state", "--json"),
    ("codes", "check", "bad7.txt", "--method", "columns", "--json"),
    ("codes", "check", "bad7.txt", "--method", "submatrix", "--json"),
    ("codes", "check", "bad7.txt", "--method", "distance", "--json"),
    ("codes", "distance", "bad7.txt", "--method", "rank"),
    # refuted at |S| = 3 with two failures, so the first one is the one reported
    ("verify", "clq7dual.state", "--json"),
    ("verify", "clq7dual.state"),
    ("verify", "clq7dual.state", "--sample", "5", "--seed", "2", "--json"),
    ("verify", "code8.state", "--sample", "3", "--seed", "1", "--json"),
    # built-in SparseStates, written through their own chunks()
    ("construct", "builtin", "--name", "ghz", "--n", "3", "--q", "4", "-o", "ghz34.state"),
    ("construct", "builtin", "--name", "bell", "--q", "5", "--l", "1", "--m", "2",
     "-o", "bell5.state"),
    # the matrix built-ins, pinned across their move onto construct_G_Q
    ("construct", "builtin", "--name", "ame_19_17_matrices", "--emit-g", "g17.txt",
     "--emit-q", "q17.txt"),
    ("construct", "builtin", "--name", "ame_21_19_matrices", "--emit-g", "g19.txt",
     "--emit-q", "q19.txt"),
    # the state writer on each regime: two states whose labels are not tabled but
    # their X and Z parts are; a code state, whose one label is; a SparseState
    # over an extension field with 9 distinct amplitudes; symbols above 255
    ("construct", "builtin", "--name", "ame_5_q", "--q", "9", "-o", "ame59.state"),
    ("construct", "clq", "--n", "6", "--k", "3", "--q", "7", "--seed-state", "ghz",
     "-o", "clq7ghz.state"),
    ("construct", "from-code", "--n", "9", "--k", "5", "--q", "8", "-o", "code98.state"),
    ("construct", "builtin", "--name", "bell", "--q", "9", "--l", "2", "--m", "3",
     "-o", "bell9.state"),
    ("construct", "builtin", "--name", "ghz", "--n", "2", "--q", "257", "-o", "ghz257.state"),
]

# label columns of rank 1 for the GF(7) pair: the certificate is refuted (exit 1)
RANK1_Q7 = "4 2 7 1\n1 1\n2 2\n5 5\n0 0\n"

# a [7,3,4]_7 code, one short of MDS: its first dependent column set is
# (2, 4, 6), the 30th of C(7,3), and the first zero minor of its free block
# is 2 x 2, so every check method is refuted (exit 1) past its first check
BAD_CODE7 = "CODE 7 3\n3 7 7 1\n4 6 6 2 2 3 6\n5 1 2 3 1 6 4\n3 4 5 5 6 5 3\n"

GOLDEN_COMMANDS = {
    "codes mds --n 7 --k 4 --q 8 -o c8.txt":
        "82294f195ec94d6c093fc8bdeb04a8afa1ef3e3c42a3de1cf7d2046731251476",
    "codes check c8.txt --method columns --json":
        "ddfb1aa975f5e43ced5e15c6bf621706be051d79cb3e037c1560b75fa7b97260",
    "codes check c8.txt --method submatrix --json":
        "9787dcbcfdea76c06e8fd01b9fc70208d4f818b2c676758ac0702e82c3f78a8a",
    "codes mds --n 6 --k 3 --q 7 -o c7.txt":
        "d64c57e5327de708f490b85a5efad5a598e0639100aa947b8d442011980d664d",
    "codes distance c7.txt --method rank":
        "03518bdce5fc9ce57e5ae06345bf5f5dae7fb8344920c91ec675c31bf54c4ee9",
    "construct from-code --code c8.txt -o code8.state":
        "e6a6e3d87f4f2b468230008410627392a42dc647d92a90560ac62623dcfd9e40",
    "construct clq --n 5 --k 2 --q 5 --seed-state ghz -o clq5.state":
        "185f96d415272dc6fbccade626053af2cf103a01e5c435192ed18fea4d068175",
    "construct clq --code c7.txt --variant dual --seed-state ghz -o clq7dual.state":
        "bdae18bd68c644df5af058f87a855a1a869ca24cb8b82617dd4a9624e500c24a",
    "construct builtin --name ame_5_q --q 3 -o ame53.state":
        "a8a540fe572a1c4266a58eb72946dd85830a4c08c658056eaef051de8004639a",
    "construct builtin --name ame_7_4 -o ame74.state":
        "66376358f61d79a1528dbb3f36c683ec31f0bf9588c70317ae8d7650019bf18d",
    "decompose --q 7 --emit-g g7.txt --emit-q q7.txt --json":
        "d80d5da7d8ef48ef769166d616c26bcc27af3e27b644206be1f60596582c9a06",
    "construct clq-rep --g g7.txt --q-matrix q7.txt -o rep7.state":
        "e540703a4a0a1ae7c3c703d42f7d65094fe775f445d9574b58e81f5b6894fdb7",
    "decompose --q 9 --emit-g g9.txt --emit-q q9.txt":
        "9bec23f19c2502388e4a986793d6afc6da8ac235549c5376b17c0549c1f113b5",
    "construct clq-rep --g g9.txt --q-matrix q9.txt -o rep9.state":
        "3e368b7f83ee94dfec13f009289be9075badecf96a1e246009f4af77a5187d60",
    "certify --g g7.txt --q-matrix q7.txt --json":
        "566efb1a36462fe970009bd1054003e546aa97d133300f093ecd658755db3ef5",
    "certify --g g7.txt --q-matrix q7.txt":
        "40b64d7359894ce11ad419142182e8757767a8f458ed7af71be1072dd2e979d9",
    "certify --g g7.txt --q-matrix q7rank1.txt --json":
        "21bfc70c8f27ff33a241bcce9b45d5c2659daa75ad8f24d789008d36f70a6ad9",
    "certify --g g7.txt --q-matrix q7rank1.txt":
        "2b2aad92c77a01a726cc9870f3b51727ecd55d41093e6d4e8ce37e72718429ea",
    "decompose --q 7 --search --seed 3 --json":
        "edbe4776eff986ac1ecd066dad5f603a8d10864be0864b83d95d58c334f89c75",
    "table1 --verify --json":
        "6091c3ea71b7f59fe6c4fbdd8aa7a9542f0ef7ed68b9493220504e0de1afcc92",
    "verify ame53.state --json":
        "056244ee8b94b2b8a3955422d92d25341d793b9b4e22d6431472d1ee49091537",
    "codes check bad7.txt --method columns --json":
        "4426a717946b3eb05f4a9bf9c8c51c33c74faf75e94ad545ab65bc54ed1e9250",
    "codes check bad7.txt --method submatrix --json":
        "f1f2d692e9a6b614d0dda976f6d65e501ff9a858cf57d10739702cfdc7a35826",
    "codes check bad7.txt --method distance --json":
        "0dc8b5bb2deed6940cd7eccd1bb165ef068490457b4f971da04ed88244e61ffe",
    "codes distance bad7.txt --method rank":
        "a1d0b09750f2f1a670d89e127da2113cad51812190cc89f2d847ecc329678e34",
    "verify clq7dual.state --json":
        "5d5c81686ea8b38da42dcb0f5d184212d4d6667294ee8085048d10712e2a4121",
    "verify clq7dual.state":
        "38c5211ebfac06d3b3c0521ca055975ef8f38118f8bb418545f67da61d861225",
    "verify clq7dual.state --sample 5 --seed 2 --json":
        "a7b308676a6d5a5497c44c412ed3defbcf46c94e94f407af170d4e98b5e7c874",
    "verify code8.state --sample 3 --seed 1 --json":
        "05e2a283b5ff86692773fcde82455d7c0500e52f5f12231740daa5ddae6665fa",
    "construct builtin --name ghz --n 3 --q 4 -o ghz34.state":
        "aa7c45d4347b3aa447d47c01bebf52a0ef9461540883ba3c1358c4ca63dc1472",
    "construct builtin --name bell --q 5 --l 1 --m 2 -o bell5.state":
        "102f58bab4eed36eea7ef2203828200a2ae58d23f0abf424b38a0faf0a700377",
    "construct builtin --name ame_19_17_matrices --emit-g g17.txt --emit-q q17.txt":
        "499bfd27841992f0707dfdcc6164537bc816ff1e930cced5c6bd4c88e8b8bda9",
    "construct builtin --name ame_21_19_matrices --emit-g g19.txt --emit-q q19.txt":
        "f8a21c86645920782a746931efc62727bab1b5a4b1e9834dab255717136a9a13",
    "construct builtin --name ame_5_q --q 9 -o ame59.state":
        "86e28eccb143b6efab110ebe7a0701e806f0e7bf1e18e40c77e50892f26bce2c",
    "construct clq --n 6 --k 3 --q 7 --seed-state ghz -o clq7ghz.state":
        "06648faf8ed39ef107db31303106cd2b781711104d2e1c254df60552bedd88c5",
    "construct from-code --n 9 --k 5 --q 8 -o code98.state":
        "95793cde3ac58ca6aa12aea2b14420252b94e6c42473e354bb6e9d0a9691c1d0",
    "construct builtin --name bell --q 9 --l 2 --m 3 -o bell9.state":
        "ed5e4a2af9a47611443f91f40ec466181d47873676a2ee532b3adcebe923c0bd",
    "construct builtin --name ghz --n 2 --q 257 -o ghz257.state":
        "d797e34153c4ad964722977b1da8eb0e0ac0675599155392b8395d45e625faf7",
}

GOLDEN_FILES = {
    "ame53.state": "d40c19e6b23822ef4acea6a112559940292b498bfeff7add32a57170cf25a3e6",
    "ame59.state": "2a39f3f6e34f5c173e4dca836573c64c0fd58b1c29658c356739211802d52d7d",
    "ame74.state": "d35ca2155537626b7dc10d55fa6e12a09f2c620c7071cedd8e13d4a694c0a2eb",
    "bad7.txt": "bc0f21624c921fd37fcd174794679d850ebceaf3ddd8b7524cf9b7642d52a6dc",
    "bell5.state": "0c5149803f7e2601a07da2ec2f6a459411a317913ac906978bced7ab6026a9f1",
    "bell9.state": "48d6ed7154cb02d4ab53dfed3c3b1aff9789edceec45c7f8dca472083d3c8f5e",
    "c7.txt": "91a6978b9bd5e269bb0824d80f17fec3d57c81b9fd5a7a9da5b195dfe42e3e43",
    "c8.txt": "814ece10969aacc16e6f3e919605430080aad988e8db600a4fec042f9f26a9d9",
    "clq5.state": "68ad1fd867b1af7a15eb362f7276f122a848334fee38da3a0ed428da7bc115d2",
    "clq7dual.state": "63d7e66c54bdeff1c0f1a310d176f5e9e552aed84c4e7065d244e1483e8d81fb",
    "clq7ghz.state": "28ca512960b8bc066bb13c57dfa2e4849200acec718dbf860145ad76e83598c2",
    "code8.state": "5d3a921e2738fe701e08de49e0ecf2439ba25634daec9553abcf885acb9a81fd",
    "code98.state": "ba78fac0954a2a6f12f802852e22ee928f1c7994e7a15a5882e911b1befedb6a",
    "g17.txt": "62b572badf704871ff75d711c956d14f1f3c83b2c812cfb4a4763f97b125ac94",
    "g19.txt": "3f02119096300e9a1bbe278288dcb3fe3ec655ee6a7abd7a8cf09199629fce9d",
    "g7.txt": "a3a72549f7f25fa878bbb3fec751cefa0adc209a8ef37166ba257a610450657f",
    "g9.txt": "5d565f4aff29045e6be6db16ee787e80e3c45f18d9407adcc98918ea12b3613e",
    "ghz257.state": "486e411ded7db535ba269fdfb79e9bcb0a8e67dd8339328c5dc3c356b7bd0718",
    "ghz34.state": "be54e2128f7d31d01667135b9106a2737eac433df0920a11db140e180c3655bf",
    "q17.txt": "280a6bcddd38462112f94a64628c25e93456748e7261955e273e240931ddd40d",
    "q19.txt": "a8c6019fb09cdca70b80c6f917fe61caa77d0b24c3b4434c2070b9ddbbe65532",
    "q7.txt": "cf41e53916b274e331e64b0bc20dafe298c3d10cf3b329b7f0b97c7d5b0ab957",
    "q7rank1.txt": "cb7c4b840cd4f0afd471d499cd6731247028b3c1f810ebdf8832d300dfd5e856",
    "q9.txt": "d445554b9f92c283a0b566f08f0256085c091f08e339c3ab32a332dc4e9590f5",
    "rep7.state": "229e09cc246cf7ee58d578e465605cb98e3cb8c49dd22fe433febdfb9eb3f039",
    "rep9.state": "b15c9854ec2a03bc8b92112128b8b8ce0778e03483aff0a2b82e5e73b8857eeb",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands():
    """(digest per command line, digest per file written) in the cwd."""
    Path("q7rank1.txt").write_text(RANK1_Q7)
    Path("bad7.txt").write_text(BAD_CODE7)
    commands = {}
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        commands[" ".join(argv)] = _sha(f"{code}\n{out.getvalue()}".encode())
    files = {p.name: _sha(p.read_bytes()) for p in sorted(Path().iterdir())}
    return commands, files


def test_golden_cli_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KUNI_MAX_TERMS", raising=False)  # the cap is in every manifest
    commands, files = run_commands()
    assert commands == GOLDEN_COMMANDS
    assert files == GOLDEN_FILES


MATRIX_BUILTINS = [("ame_19_17_matrices", 17), ("ame_21_19_matrices", 19)]


def pytest_generate_tests(metafunc):
    # the module hook parametrizes without importing pytest
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name, q", MATRIX_BUILTINS)


def test_matrix_builtins_write_the_decompose_pair(tmp_path, monkeypatch, capsys, name, q):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "builtin", "--name", name, "--emit-g", "bg.txt",
                 "--emit-q", "bq.txt"]) == 0
    assert main(["decompose", "--q", str(q), "--emit-g", "dg.txt", "--emit-q", "dq.txt"]) == 0
    assert Path("bg.txt").read_bytes() == Path("dg.txt").read_bytes()
    assert Path("bq.txt").read_bytes() == Path("dq.txt").read_bytes()


def mismatches(commands, files):
    """One line for each pinned digest that `run_commands` did not give."""
    lines = []
    for kind, got, pinned in (("command", commands, GOLDEN_COMMANDS), ("file", files, GOLDEN_FILES)):
        for key in sorted(got.keys() | pinned.keys()):
            if got.get(key) != pinned.get(key):
                lines.append(f"{kind} {key!r}: got {got.get(key)}, pinned {pinned.get(key)}")
    return lines


def test_check_names_each_mismatched_digest():
    # the --check report: nothing for the pins, one line per wrong, missing
    # or unpinned digest
    commands, files = dict(GOLDEN_COMMANDS), dict(GOLDEN_FILES)
    assert mismatches(commands, files) == []
    commands["codes distance c7.txt --method rank"] = "00"
    del files["bad7.txt"]
    files["extra.txt"] = "11"
    assert mismatches(commands, files) == [
        f"command 'codes distance c7.txt --method rank': got 00, pinned "
        f"{GOLDEN_COMMANDS['codes distance c7.txt --method rank']}",
        f"file 'bad7.txt': got None, pinned {GOLDEN_FILES['bad7.txt']}",
        "file 'extra.txt': got 11, pinned None",
    ]


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("KUNI_MAX_TERMS", None)  # the cap is in every manifest
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            commands, files = run_commands()
        finally:
            os.chdir(start)  # leave the directory before it is removed
    if sys.argv[1:] == ["--check"]:
        wrong = mismatches(commands, files)
        print("\n".join(wrong) or f"all {len(commands)} command and {len(files)} file digests match")
        sys.exit(1 if wrong else 0)
    print("GOLDEN_COMMANDS = {")
    for line, digest in commands.items():
        print(f'    "{line}":\n        "{digest}",')
    print("}\n\nGOLDEN_FILES = {")
    for name, digest in files.items():
        print(f'    "{name}": "{digest}",')
    print("}")
