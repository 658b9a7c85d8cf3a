"""Traced in-process job: spans around the calls into each kuni layer.

kuni modules bind imported names at import time (kuni.codes.rank_of_rows is
the same object as kuni.field.rank_of_rows), so each wrapper is installed at
every module attribute and class attribute holding the original object, and
removed afterwards.  Nothing in src/kuni is edited.

Coarse calls (commands, certificates, sweeps, partial traces, materializers,
parsers) are kept as spans: name, start, end, parent span and job id.  Hot
calls that run up to millions of times a job (field arithmetic, rank checks,
cyclotomic operations) are aggregated per name instead of stored one by one.
A hot call made from its own layer is only counted, not timed: its time stays
in the caller's self time, which belongs to the same layer.

A layer's self time is the time of its calls minus the time of the wrapped
calls they make into other functions.
"""

from __future__ import annotations

import functools
import io
import itertools
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout

from jobs import argv_strings

perf_counter = time.perf_counter

LAYERS = ("field", "codes", "decomposition", "cyclotomic", "verify", "states", "cli")

# metric name -> (module, attribute path)
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.cmd_construct": ("cli", "cmd_construct"),
    "cli.cmd_verify": ("cli", "cmd_verify"),
    "cli.cmd_certify": ("cli", "cmd_certify"),
    "cli.cmd_decompose": ("cli", "cmd_decompose"),
    "cli.cmd_codes": ("cli", "cmd_codes"),
    "field.parse_matrix": ("field", "parse_matrix"),
    "field.format_matrix": ("field", "format_matrix"),
    "field.make_field": ("field", "make_field"),
    "codes.is_mds": ("codes", "is_mds"),
    "codes.mds_from_singleton": ("codes", "mds_from_singleton"),
    "codes.dual_code": ("codes", "dual_code"),
    "codes.parse_code": ("codes", "parse_code"),
    "codes.format_code": ("codes", "format_code"),
    "decomposition.verify_decomposition": ("decomposition", "verify_decomposition"),
    "decomposition.construct_G_Q": ("decomposition", "construct_G_Q"),
    "decomposition.kernel_subcode": ("decomposition", "kernel_subcode"),
    "decomposition.parse_qmatrix": ("decomposition", "parse_qmatrix"),
    "decomposition.format_qmatrix": ("decomposition", "format_qmatrix"),
    "verify.uniformity": ("verify", "uniformity"),
    "verify.reduced_density": ("verify", "reduced_density"),
    "verify.is_maximally_mixed": ("verify", "is_maximally_mixed"),
    "verify.certify_ame_via_codes": ("verify", "certify_ame_via_codes"),
    "states.parse_state": ("states", "parse_state"),
    "states.format_state": ("states", "format_state"),
    "states.state_from_code": ("states", "state_from_code"),
    "states.cl_plus_q": ("states", "cl_plus_q"),
    "states.cl_plus_q_repetition": ("states", "cl_plus_q_repetition"),
    "states.builtin_state": ("states", "builtin_state"),
    "states.ghz": ("states", "ghz"),
    "states.bell_pair": ("states", "bell_pair"),
}

# aggregated hot calls; several originals may share one metric name
HOT = {
    "field.rank_of_rows": [("field", "rank_of_rows")],
    "field.rref": [("field", "matrix_rref"), ("field", "matrix_rank")],
    "field.row_vector_mul": [("field", "FFMatrix.row_vector_mul")],
    "field.add": [("field", "FieldSpec.add")],
    "field.sub": [("field", "FieldSpec.sub")],
    "field.neg": [("field", "FieldSpec.neg")],
    "field.mul": [("field", "FieldSpec.mul")],
    "field.inv": [("field", "FieldSpec.inv")],
    "decomposition.label": [("decomposition", "QMatrix.label")],
    "decomposition.q_rank": [("decomposition", "QMatrix.rank")],
    "cyclotomic.add": [("cyclotomic", "Cyclotomic.__add__")],
    "cyclotomic.sub": [("cyclotomic", "Cyclotomic.__sub__")],
    "cyclotomic.neg": [("cyclotomic", "Cyclotomic.__neg__")],
    "cyclotomic.mul": [("cyclotomic", "Cyclotomic.__mul__")],
    "cyclotomic.mul_root": [("cyclotomic", "Cyclotomic.mul_root")],
    "cyclotomic.conj": [("cyclotomic", "Cyclotomic.conj")],
    "cyclotomic.is_zero": [("cyclotomic", "Cyclotomic.is_zero")],
    "states.apply_weyl": [("states", "apply_weyl")],
}

GENERATORS = {"codes.enumerate_codewords": ("codes", "enumerate_codewords")}

# materializers; only the outermost one of a nest counts its terms and time
MATERIALIZERS = {"states.state_from_code", "states.cl_plus_q", "states.cl_plus_q_repetition",
                 "states.builtin_state", "states.ghz", "states.bell_pair"}


class Tracer:
    """Span stack, stored spans and per-name aggregates of one traced run."""

    def __init__(self):
        self.stack = []  # frames: [layer, child seconds, span id, parent span id]
        self.spans = []  # (id, name, start, end, parent id, job id)
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, inclusive seconds]
        self.self_s = defaultdict(lambda: [0.0])  # layer -> [self seconds]
        self.counts = Counter()
        self.materializing = 0
        self.job = None
        self._ids = itertools.count(1)

    def enter(self, layer: str, store: bool) -> list:
        anchor = self.stack[-1][2] if self.stack else None
        frame = [layer, 0.0, next(self._ids) if store else anchor, anchor]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, name: str, t0: float, t1: float, store: bool) -> None:
        self.stack.pop()
        dur = t1 - t0
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += dur
        self.self_s[frame[0]][0] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        if store:
            self.spans.append((frame[2], name, t0, t1, frame[3], self.job))

    def charge(self, seconds: float) -> None:
        """Book the tracer's own bookkeeping as a child of the current span."""
        self.self_s["trace"][0] += seconds
        if self.stack:
            self.stack[-1][1] += seconds


# --- counters computed at the boundaries --------------------------------------

def _count_zero(tracer, result, args):
    if result:
        tracer.counts["cyclotomic.is_zero.zero"] += 1


def _count_checks(tracer, result, args):
    tracer.counts["codes.is_mds.checks"] += result.checks


def _count_subsets(tracer, result, args):
    tracer.counts["verify.uniformity.subsets"] += sum(c for c, _ in result.tallies.values())


def _count_rho(tracer, result, args):
    """rho entries kept, and the sum over complement groups of |group|^2 (the
    amplitude products reduced_density forms), computed from its arguments."""
    t0 = perf_counter()
    state, subset = args[0], set(args[1])
    keep = [i for i in range(state.n) if i not in subset]
    sizes = Counter(tuple(key[i] for i in keep) for key in state.terms)
    tracer.counts["verify.rho.products"] += sum(s * s for s in sizes.values())
    tracer.counts["verify.rho.entries"] += len(result.entries)
    tracer.charge(perf_counter() - t0)


AFTER = {
    "cyclotomic.is_zero": _count_zero,
    "codes.is_mds": _count_checks,
    "verify.uniformity": _count_subsets,
    "verify.reduced_density": _count_rho,
}


def _wrap_span(tracer: Tracer, name: str, fn):
    """A stored span around each call."""
    layer = name.split(".", 1)[0]
    after = AFTER.get(name)
    materializer = name in MATERIALIZERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outermost = materializer and not tracer.materializing
        tracer.materializing += materializer
        frame = tracer.enter(layer, True)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            tracer.leave(frame, name, t0, t1, True)
            tracer.materializing -= materializer
        if outermost and hasattr(result, "support"):
            tracer.counts["states.terms_built"] += result.support
            tracer.stats["states.materialize"][1] += t1 - t0
        if after is not None:
            after(tracer, result, args)
        return result

    return wrapper


def _wrap_hot(tracer: Tracer, name: str, fn):
    """Aggregated timing per name; a call from the same layer is only counted.

    The bookkeeping is inlined: these wrappers run millions of times a job.
    """
    layer = name.split(".", 1)[0]
    after = AFTER.get(name)
    stat = tracer.stats[name]
    own = tracer.self_s[layer]
    stack = tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == layer:
            stat[0] += 1
            result = fn(*args, **kwargs)
        else:
            anchor = stack[-1][2] if stack else None
            frame = [layer, 0.0, anchor, anchor]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                own[0] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        if after is not None:
            after(tracer, result, args)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            frame = tracer.enter(layer, False)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.leave(frame, name, t0, perf_counter(), False)
            tracer.counts[name + ".yielded"] += 1
            yield item

    return wrapper


def _resolve(module_name: str, path: str):
    """(module or class holding the attribute, the original object)."""
    owner, _, attr = f"kuni.{module_name}.{path}".rpartition(".")
    holder = sys.modules["kuni." + module_name]
    if owner != "kuni." + module_name:
        holder = getattr(holder, owner.rpartition(".")[2])
    return holder, vars(holder)[attr]


def install(tracer: Tracer) -> list:
    """Wrap every import site of the traced functions; returns what
    `uninstall` needs to put the originals back."""
    import kuni.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sys.modules.items() if n == "kuni" or n.startswith("kuni.")]
    targets = [(name, ref, "span") for name, ref in SPANS.items()]
    targets += [(name, ref, "hot") for name, refs in HOT.items() for ref in refs]
    targets += [(name, ref, "gen") for name, ref in GENERATORS.items()]
    replaced = []
    for name, (module_name, path), kind in targets:
        owner, original = _resolve(module_name, path)
        wrapped = {"span": _wrap_span, "hot": _wrap_hot, "gen": _wrap_generator}[kind](
            tracer, name, original)
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
                    replaced.append((holder, attr, original))
    return replaced


def uninstall(replaced: list) -> None:
    for holder, attr, original in reversed(replaced):
        setattr(holder, attr, original)


def run_traced_job(tracer: Tracer, commands: list, job_id: str):
    """Run one job through kuni.cli.main in this process.

    Returns (wall seconds, [(command index, problems)]) for the commands.
    """
    from kuni import cli

    outcomes = []
    replaced = install(tracer)
    tracer.job = job_id
    t_job = perf_counter()
    try:
        for i, cmd in enumerate(commands, 1):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv_strings(cmd.argv))
                except Exception as exc:  # a crash is a failed command, not a benchmark error
                    code, problems = None, [f"raised {exc!r}"]
                else:
                    problems = []
            problems += cmd.check(code, out.getvalue())
            for path in cmd.outputs:
                if os.path.exists(path):
                    tracer.counts["states.bytes_written"] += os.path.getsize(path)
            outcomes.append((i, problems))
    finally:
        wall = perf_counter() - t_job
        uninstall(replaced)
    return wall, outcomes


def per_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures named as in BENCHMARK.json (cli.cmd.<i>.s,
    trace.overhead_s and fail_ratio are added by the caller)."""
    c = Counter({k: v[0] for k, v in tracer.stats.items()})
    s = defaultdict(float, {k: v[1] for k, v in tracer.stats.items()})
    own = defaultdict(float, {k: v[0] for k, v in tracer.self_s.items()})
    n = tracer.counts
    zero_tests = c["cyclotomic.is_zero"]
    return {
        "field.rank_of_rows.calls": (c["field.rank_of_rows"], "count"),
        "field.rank_of_rows.s": (s["field.rank_of_rows"], "s"),
        "field.rref.calls": (c["field.rref"], "count"),
        "field.rref.s": (s["field.rref"], "s"),
        "field.row_vector_mul.calls": (c["field.row_vector_mul"], "count"),
        "field.row_vector_mul.s": (s["field.row_vector_mul"], "s"),
        "field.add.calls": (c["field.add"], "count"),
        "field.self_s": (own["field"], "s"),
        "codes.is_mds.calls": (c["codes.is_mds"], "count"),
        "codes.is_mds.checks": (n["codes.is_mds.checks"], "count"),
        "codes.is_mds.s": (s["codes.is_mds"], "s"),
        "codes.enumerate_codewords.yielded": (n["codes.enumerate_codewords.yielded"], "count"),
        "codes.self_s": (own["codes"], "s"),
        "decomposition.verify_decomposition.calls": (c["decomposition.verify_decomposition"],
                                                     "count"),
        "decomposition.verify_decomposition.s": (s["decomposition.verify_decomposition"], "s"),
        "decomposition.construct_G_Q.s": (s["decomposition.construct_G_Q"], "s"),
        "decomposition.label.calls": (c["decomposition.label"], "count"),
        "decomposition.self_s": (own["decomposition"], "s"),
        "cyclotomic.mul.calls": (c["cyclotomic.mul"], "count"),
        "cyclotomic.add.calls": (c["cyclotomic.add"], "count"),
        "cyclotomic.conj.calls": (c["cyclotomic.conj"], "count"),
        "cyclotomic.is_zero.calls": (zero_tests, "count"),
        "cyclotomic.is_zero.zero_ratio": (
            n["cyclotomic.is_zero.zero"] / zero_tests if zero_tests else 0.0, "ratio"),
        "cyclotomic.self_s": (own["cyclotomic"], "s"),
        "verify.uniformity.subsets": (n["verify.uniformity.subsets"], "count"),
        "verify.reduced_density.calls": (c["verify.reduced_density"], "count"),
        "verify.reduced_density.s": (s["verify.reduced_density"], "s"),
        "verify.rho.products": (n["verify.rho.products"], "count"),
        "verify.rho.entries": (n["verify.rho.entries"], "count"),
        "verify.is_maximally_mixed.s": (s["verify.is_maximally_mixed"], "s"),
        "verify.self_s": (own["verify"], "s"),
        "states.terms_built": (n["states.terms_built"], "count"),
        "states.materialize.s": (s["states.materialize"], "s"),
        "states.apply_weyl.calls": (c["states.apply_weyl"], "count"),
        "states.parse_state.s": (s["states.parse_state"], "s"),
        "states.format_state.s": (s["states.format_state"], "s"),
        "states.bytes_written": (n["states.bytes_written"], "B"),
        "states.self_s": (own["states"], "s"),
        "cli.main.calls": (c["cli.main"], "count"),
        "cli.self_s": (own["cli"], "s"),
    }


# counts that must repeat exactly between two traced runs at one seed
EXACT_COUNTS = (
    "field.rank_of_rows.calls", "field.rref.calls", "field.row_vector_mul.calls",
    "field.add.calls", "codes.is_mds.calls", "codes.is_mds.checks",
    "codes.enumerate_codewords.yielded", "decomposition.verify_decomposition.calls",
    "decomposition.label.calls", "cyclotomic.mul.calls", "cyclotomic.add.calls",
    "cyclotomic.conj.calls", "cyclotomic.is_zero.calls", "cyclotomic.is_zero.zero_ratio",
    "verify.uniformity.subsets", "verify.reduced_density.calls", "verify.rho.products",
    "verify.rho.entries", "states.terms_built", "states.apply_weyl.calls",
    "states.bytes_written", "cli.main.calls",
)


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write("id\tname\tstart\tend\tparent\tjob\n")
        for sid, name, t0, t1, parent, job in tracer.spans:
            fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent or ''}\t{job}\n")
