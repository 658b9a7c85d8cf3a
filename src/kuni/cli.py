"""kuni command-line frontend.

Exit codes: 0 certified / success, 1 refuted, 2 non-certifying (sampled)
pass, 64+ usage errors.  JSON is the machine interface; human-readable
tables go to stdout.  Every JSON document embeds its run manifest so equal
manifests reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path

from . import __version__
from .codes import (
    LinearCode,
    format_code,
    is_mds,
    mds_exists,
    mds_from_singleton,
    min_distance,
    parse_code,
)
from .decomposition import construct_G_Q, format_qmatrix, parse_qmatrix, search_Q
from .errors import FormatError, KuniError
from .field import format_matrix, gf, parse_matrix
from .states import (
    bell_pair,
    builtin_state,
    cl_plus_q_fibred,
    code_fibred,
    ghz,
    max_terms,
    read_state,
    repetition_fibred,
    state_from_code,
)
from .verify import KeyTable, certify_ame_via_codes, uniformity

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_SAMPLED = 2
EXIT_USAGE = 64


def _digest(path: str) -> str:
    # the interpreter's built-in SHA-256; hashlib would map OpenSSL's libcrypto
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12+
        except ImportError:
            from hashlib import sha256
    return sha256(Path(path).read_bytes()).hexdigest()


def _manifest(args, inputs=()):
    return {
        "tool": "kuni",
        "version": __version__,
        "command": args._command_line,
        "seed": getattr(args, "seed", None),
        "caps": {"max_terms": max_terms()},
        "inputs": {p: _digest(p) for p in inputs},
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a file that is not text is malformed
        raise FormatError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _emit_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


# --- construct --------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.mode == "from-code":
        state = code_fibred(_load_code(args))
    elif args.mode == "clq":
        code = _load_code(args)
        n_q = code.k if args.variant == "direct" else code.n - code.k
        seed = bell_pair(code.spec) if args.seed_state == "bell" else ghz(n_q, code.spec)
        state = cl_plus_q_fibred(code, seed, variant=args.variant)
    elif args.mode == "clq-rep":
        for flag, path in (("--g", args.g), ("--q-matrix", args.q_matrix)):
            if path is None:
                raise KuniError(f"clq-rep needs {flag} FILE")
        G = parse_matrix(_read(args.g))
        Q = parse_qmatrix(_read(args.q_matrix))
        state = repetition_fibred(G, Q)
    else:
        obj = builtin_state(args.name, q=args.q, n=args.n, l=args.l, m=args.m)
        if isinstance(obj, tuple):
            G, Q = obj
            g_path = args.emit_g or "g.txt"
            q_path = args.emit_q or "q.txt"
            Path(g_path).write_text(format_matrix(G))
            Path(q_path).write_text(format_qmatrix(Q))
            print(f"wrote generator to {g_path} and label columns to {q_path}")
            return EXIT_OK
        state = obj
    out = args.output or "out.state"
    # every state streams its text in sorted order; a fibred state's chunks()
    # checks the term cap before the file is opened
    chunks = state.chunks()
    # a FIFO or a device is written through; a regular file, or a symlink's
    # target, is replaced whole by a finished .tmp file beside it
    through = os.path.exists(out) and not os.path.isfile(out)
    dest = os.path.realpath(out)
    tmp = out if through else dest + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        if not through:
            os.replace(tmp, dest)
    except BaseException:  # leave neither a partial file nor a clobbered one
        if not through and os.path.exists(tmp):
            os.unlink(tmp)
        raise
    print(f"wrote {state.n}-party state over GF({state.q}), support {state.support}, to {out}")
    return EXIT_OK


def _load_code(args) -> LinearCode:
    if args.code:
        return parse_code(_read(args.code))
    if args.n is None or args.k is None or args.q is None:
        raise KuniError("need --code FILE or all of --n/--k/--q")
    return mds_from_singleton(args.n, args.k, gf(args.q))


# --- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    # the sweep reads only the key table: the text, its lines and the
    # checker's state are gone once it is built
    n, spec, terms = read_state(_read(args.state))
    first = next(terms, None)  # before the table, which is sized by n
    if first is None:
        raise FormatError(f"{args.state} has no nonzero term: the zero vector is not a state")
    table = KeyTable(n, spec.q, itertools.chain([first], terms))
    report = uniformity(table, k_max=args.k_max, sample=args.sample, seed=args.seed)
    result = {
        "n": report.n,
        "q": report.q,
        "mode": report.mode,
        "certifying": report.certifying,
        "max_verified_k": report.max_verified_k,
        "tallies": {str(k): list(v) for k, v in report.tallies.items()},
        "first_failure": report.first_failure,
        "support": table.size,
    }
    if report.max_verified_k < report.k_target:
        exit_code, verdict = EXIT_REFUTED, "refuted"
    elif report.certifying:
        exit_code, verdict = EXIT_OK, "certified"
    else:
        exit_code, verdict = EXIT_SAMPLED, "sampled (non-certifying)"
    if args.json:
        _emit_json({"manifest": _manifest(args, [args.state]), "uniformity": result})
    else:
        print(f"uniformity k = {report.max_verified_k} [{verdict}] "
              f"for {report.n}-party state over GF({report.q})")
        for size, (checked, passed) in sorted(report.tallies.items()):
            print(f"  |S| = {size}: {passed}/{checked} subsets maximally mixed")
        if report.first_failure:
            print(f"  first failure: {report.first_failure}")
    return exit_code


# --- certify ----------------------------------------------------------------

def cmd_certify(args) -> int:
    G = parse_matrix(_read(args.g))
    Q = parse_qmatrix(_read(args.q_matrix))
    cert = certify_ame_via_codes(G, Q)
    result = {
        "claim": cert.claim,
        "certified": cert.all_pass,
        "parent_mds": cert.parent_mds.is_mds,
        "parent_checks": cert.parent_checks,
        "kernel_mds": cert.kernel_mds.is_mds if cert.kernel_mds else False,
        "kernel_checks": cert.kernel_checks,
        "kernel_error": cert.kernel_error,
        "q_rank": cert.q_rank,
        "labels_onto": cert.labels_onto,
    }
    if args.json:
        _emit_json({"manifest": _manifest(args, [args.g, args.q_matrix]), "certificate": result})
    elif cert.all_pass:
        print(f"certificate PASSED: {cert.claim} "
              f"({cert.parent_checks} parent + {cert.kernel_checks} kernel rank checks)")
    else:
        print(f"certificate FAILED: {result}")
    return EXIT_OK if cert.all_pass else EXIT_REFUTED


# --- decompose --------------------------------------------------------------

def cmd_decompose(args) -> int:
    if not args.search and (args.budget is not None or args.seed is not None):
        raise KuniError("--budget and --seed apply only with --search")
    G, Q = construct_G_Q(gf(args.q))
    if args.search:
        budget = {} if args.budget is None else {"budget": args.budget}
        Q = search_Q(G, seed=args.seed, **budget)
    cert = certify_ame_via_codes(G, Q)
    if args.emit_g:
        Path(args.emit_g).write_text(format_matrix(G))
    if args.emit_q:
        Path(args.emit_q).write_text(format_qmatrix(Q))
    result = {
        "q": args.q,
        "claim": cert.claim,
        "parent_checks": cert.parent_checks,
        "kernel_checks": cert.kernel_checks,
        "q1": list(Q.q1),
        "q2": list(Q.q2),
    }
    if args.json:
        _emit_json({"manifest": _manifest(args), "decomposition": result})
    else:
        print(f"GF({args.q}): G is {G.rows}x{G.cols}, Q1 = {list(Q.q1)}, Q2 = {list(Q.q2)}")
        print(f"certificate: {cert.claim or 'FAILED'}")
    return EXIT_OK if cert.all_pass else EXIT_REFUTED


# --- codes ------------------------------------------------------------------

def cmd_codes(args) -> int:
    if args.codes_mode == "mds":
        code = mds_from_singleton(args.n, args.k, gf(args.q))
        text = format_code(code)
        if args.output:
            Path(args.output).write_text(text)
            print(f"wrote MDS [{code.n},{code.k}]_{code.q} code to {args.output}")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    code = parse_code(_read(args.file))
    if args.codes_mode == "check":
        cert = is_mds(code, method=args.method)
        d = code.cached_distance
        result = {
            "n": code.n, "k": code.k, "q": code.q,
            "is_mds": cert.is_mds, "method": cert.method,
            "checks": cert.checks, "witness": cert.witness,
            "distance": d,
        }
        if args.json:
            _emit_json({"manifest": _manifest(args, [args.file]), "mds": result})
        else:
            verdict = "MDS" if cert.is_mds else f"not MDS (witness: {cert.witness})"
            print(f"[{code.n},{code.k}]_{code.q}: {verdict} "
                  f"via {cert.method} ({cert.checks} checks)")
        return EXIT_OK if cert.is_mds else EXIT_REFUTED
    d = min_distance(code, method=args.method)
    print(f"[{code.n},{code.k}]_{code.q}: d = {d}")
    return EXIT_OK


# --- table1 -----------------------------------------------------------------

# (k, n) -> (classical [n_cl, k_cl], quantum seed kind)
_TABLE1_ROWS = {
    (2, 5): ((3, 2), "bell"),
    (2, 6): ((4, 2), "bell"),
    (2, 7): ((5, 2), "bell"),
    (2, 8): ((5, 3), "ghz"),
    (2, 9): ((6, 3), "ghz"),
    (2, 10): ((7, 3), "ghz"),
    (3, 11): ((7, 4), "ame4"),
    (3, 12): ((8, 4), "ame4"),
    (3, 13): ((9, 4), "ame4"),
    (3, 14): ((9, 5), "ame5"),
    (3, 15): ((10, 5), "ame5"),
    (3, 16): ((11, 5), "ame5"),
}

# quantum seed kind -> the MDS code whose code state is the seed
_SEED_CODE = {"bell": (2, 1), "ghz": (3, 1), "ame4": (4, 2), "ame5": (5, 2)}

_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

# exhaustive verification is attempted only below this work estimate
_EXHAUSTIVE_WORK_CAP = 5 * 10 ** 6


def _min_q(exists) -> int:
    """The least q in _PRIME_POWERS for which exists(q) holds."""
    for q in _PRIME_POWERS:
        if exists(q):
            return q
    raise KuniError("no prime power in range")


def _min_q_clq(n_cl: int, k_cl: int, seed_kind: str) -> int:
    sn, sk = _SEED_CODE[seed_kind]
    return _min_q(lambda q: mds_exists(n_cl, k_cl, q) and mds_exists(sn, sk, q))


def _min_q_mds(n: int, k: int) -> int:
    return _min_q(lambda q: any(mds_exists(n, kp, q) for kp in range(k, n // 2 + 1)))


def cmd_table1(args) -> int:
    rows = []
    sampled_any = False
    for (k, n), ((n_cl, k_cl), seed_kind) in sorted(_TABLE1_ROWS.items()):
        if not (args.n_min <= n <= args.n_max and (args.k is None or k == args.k)):
            continue
        q_clq = _min_q_clq(n_cl, k_cl, seed_kind)
        q_mds = _min_q_mds(n, k)
        row = {"k": k, "n": n, "cl": f"[{n_cl},{k_cl}]", "seed": seed_kind,
               "clq_min_q": q_clq, "mds_min_q": q_mds}
        if args.verify:
            try:
                row.update(_table1_verify(n_cl, k_cl, seed_kind, q_clq, k, args.seed))
            except KuniError as exc:
                row.update({"verified_k": None, "mode": "skipped", "why": str(exc)})
            if row.get("mode") == "sampled":
                sampled_any = True
        rows.append(row)
    if args.json:
        _emit_json({"manifest": _manifest(args), "table1": rows})
    else:
        for row in rows:
            line = (f"k={row['k']} n={row['n']:2d}  Cl {row['cl']:>7} + {row['seed']:<4} "
                    f"Cl+Q q>={row['clq_min_q']}  MDS q>={row['mds_min_q']}")
            if args.verify:
                line += f"  [{row.get('mode')}: k={row.get('verified_k')}]"
            print(line)
    return EXIT_SAMPLED if sampled_any else EXIT_OK


def _table1_verify(n_cl, k_cl, seed_kind, q, k_target, seed):
    spec = gf(q)
    code = mds_from_singleton(n_cl, k_cl, spec)
    quantum = state_from_code(mds_from_singleton(*_SEED_CODE[seed_kind], spec))
    state = cl_plus_q_fibred(code, quantum, variant="direct")
    table = KeyTable(state.n, q, state.terms())
    work = sum(math.comb(table.n, s) for s in range(1, k_target + 1)) * table.size
    rep = uniformity(table, k_max=k_target, sample=None if work <= _EXHAUSTIVE_WORK_CAP else 10,
                     seed=0 if seed is None else seed)
    return {"verified_k": rep.max_verified_k, "mode": rep.mode, "support": table.size}


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kuni",
                                 description="k-uniform / AME state construction and exact certification")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a state and write it to a file")
    c.add_argument("mode", choices=["from-code", "clq", "clq-rep", "builtin"])
    c.add_argument("--code", help="code file (CODE header + matrix)")
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--l", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--name", help="builtin name")
    c.add_argument("--seed-state", default="bell", choices=["bell", "ghz"],
                   help="clq quantum seed")
    c.add_argument("--variant", default="direct", choices=["direct", "dual"])
    c.add_argument("--g", help="generator matrix file (clq-rep)")
    c.add_argument("--q-matrix", help="Q matrix file (clq-rep)")
    c.add_argument("--emit-g", help="output path for builtin matrices")
    c.add_argument("--emit-q", help="output path for builtin matrices")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="uniformity sweep of a state file")
    v.add_argument("state")
    v.add_argument("--k-max", type=int)
    v.add_argument("--sample", type=int, help="sample N subsets per size instead of all")
    v.add_argument("--seed", type=int)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    ce = sub.add_parser("certify", help="algebraic AME certificate from (G, Q) files")
    ce.add_argument("--g", required=True)
    ce.add_argument("--q-matrix", "--q", dest="q_matrix", required=True)
    ce.add_argument("--json", action="store_true")
    ce.set_defaults(func=cmd_certify)

    d = sub.add_parser("decompose", help="build (G, Q) for GF(q) and certify it")
    d.add_argument("--q", type=int, required=True)
    d.add_argument("--search", action="store_true",
                   help="find Q by search instead of the closed-form assembly")
    d.add_argument("--budget", type=int, help="candidates to try (--search only)")
    d.add_argument("--seed", type=int)
    d.add_argument("--emit-g")
    d.add_argument("--emit-q")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_decompose)

    co = sub.add_parser("codes", help="MDS code construction and checking")
    cos = co.add_subparsers(dest="codes_mode", required=True)
    com = cos.add_parser("mds")
    com.add_argument("--n", type=int, required=True)
    com.add_argument("--k", type=int, required=True)
    com.add_argument("--q", type=int, required=True)
    com.add_argument("-o", "--output")
    coc = cos.add_parser("check")
    coc.add_argument("file")
    coc.add_argument("--method", default="columns",
                     choices=["distance", "submatrix", "columns"])
    coc.add_argument("--json", action="store_true")
    cod = cos.add_parser("distance")
    cod.add_argument("file")
    cod.add_argument("--method", default="auto", choices=["auto", "brute", "rank"])
    co.set_defaults(func=cmd_codes)

    t = sub.add_parser("table1", help="reproduce the Cl+Q vs MDS dimension comparison")
    t.add_argument("--k", type=int)
    t.add_argument("--n-min", type=int, default=5)
    t.add_argument("--n-max", type=int, default=10)
    t.add_argument("--verify", action="store_true")
    t.add_argument("--seed", type=int)
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_table1)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args._command_line = ["kuni"] + argv
    try:
        max_terms()  # an invalid KUNI_MAX_TERMS is a usage error for every command
        return args.func(args)
    except (KuniError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # a run that cannot finish is no verdict
        print("error: out of memory; lower KUNI_MAX_TERMS or the problem size",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
