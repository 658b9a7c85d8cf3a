"""Seeded fuzz of the file parsers: every mutated input gives a valid object
or a KuniError, never any other exception."""

import random

import pytest

import kuni.states
from kuni.codes import format_code, mds_from_singleton, parse_code
from kuni.decomposition import construct_G_Q, format_qmatrix, parse_qmatrix
from kuni.cyclotomic import Cyclotomic
from kuni.errors import FormatError, KuniError
from kuni.field import FFMatrix, format_matrix, gf, parse_matrix
from kuni.states import SparseState, ame_5_q, bell, format_state, ghz, parse_state, read_state
from kuni.verify import KeyTable

CASES_PER_PARSER = 300

# Replacement tokens.  Numbers stay small, except two huge ones that the size
# caps must reject without work proportional to their value.
TOKENS = ["", "x", "-1", "0", "1", "2", "3", "4", "5", "7", "9", "16", ":", "1.5",
          "STATE", "CODE", "2147483647", str(10 ** 30)]


def mutate(text: str, rng: random.Random) -> str:
    """One to three random edits: replace, insert or delete a token, delete or
    duplicate a line, or truncate the text."""
    lines = text.splitlines()
    for _ in range(rng.randrange(1, 4)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        j = rng.randrange(len(tokens))
        op = rng.randrange(6)
        if op == 0:
            tokens[j] = rng.choice(TOKENS)
        elif op == 1:
            tokens.insert(j, rng.choice(TOKENS))
        elif op == 2:
            del tokens[j]
        elif op == 3:
            del lines[i]
            continue
        elif op == 4:
            lines.insert(i, lines[rng.randrange(len(lines))])
            continue
        else:
            lines = lines[:i + 1]
            tokens = tokens[:j]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _matrix_texts():
    rng = random.Random(0)
    texts = []
    for q in (2, 4, 5, 9):
        sp = gf(q)
        data = [[rng.randrange(q) for _ in range(3)] for _ in range(2)]
        texts.append(format_matrix(FFMatrix(sp, data)))
    return texts


PARSERS = {
    "matrix": (parse_matrix, format_matrix, _matrix_texts),
    "code": (parse_code, format_code, lambda: [
        format_code(mds_from_singleton(4, 2, gf(3))),
        format_code(mds_from_singleton(5, 3, gf(4)))]),
    "qmatrix": (parse_qmatrix, format_qmatrix, lambda: [
        format_qmatrix(construct_G_Q(gf(5))[1]),
        format_qmatrix(construct_G_Q(gf(4))[1])]),
    "state": (parse_state, format_state, lambda: [
        format_state(ame_5_q(gf(3))),
        format_state(bell(gf(4), 2, 1)),
        format_state(ghz(3, gf(2)))]),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_parser_gives_object_or_kuni_error(name):
    parse, fmt, make_texts = PARSERS[name]
    texts = make_texts()
    rng = random.Random(f"kuni-fuzz/{name}")
    rejected = 0
    for _ in range(CASES_PER_PARSER):
        text = mutate(rng.choice(texts), rng)
        try:
            obj = parse(text)
        except KuniError:
            rejected += 1
            continue
        except Exception as exc:  # any other exception is the defect under test
            pytest.fail(f"{parse.__name__} raised {exc!r} on {text!r}")
        # a parsed object is a valid one: its canonical text parses back to it
        assert fmt(parse(fmt(obj))) == fmt(obj)
    # the mutations exercise both outcomes
    assert 0 < rejected < CASES_PER_PARSER


# the texts of test_cli.py::test_malformed_state_exits_usage, zero lines that
# are dropped or repeated, symbols above 255 (q = 257), and line forms the
# block reader must read as one line at a time does: line ends, blank lines,
# tabs, every integer form int() takes, symbols just outside [0, q), a colon
# without spaces or twice, and a line without one in mid-file
ONE_257 = " : " + " ".join(["1"] + ["0"] * 256) + "\n"
ONE_11 = " : " + " ".join(["1"] + ["0"] * 10) + "\n"
STATE_EDGE_TEXTS = [
    "STATE a 2\n",
    "STATE 2 2147483647\n",
    "STATE 2 2\n9 9 : 1 0\n",
    "STATE 2 2\n0 0 : 1 0\n0 0 : 0 1\n",
    "STATE 2 2\n0 x : 1 0\n",
    "STATE 2 3\n0 0 : 0 0 0\n1 1 : 1 1 1\n2 2 : 1 0 0\n1 2 : 1 1 1\n",
    "STATE 2 3\n0 0 : 0 0 0\n0 0 : 1 0 0\n",
    "STATE 2 257\n0 256" + ONE_257 + "256 0" + ONE_257,
    "STATE 2 257\n0 256" + ONE_257 + "256 0" + ONE_257 + "0 256" + ONE_257,
    "STATE 2 2\r\n0 0 : 1 0\r\n1 1 : 0 1\r\n",
    "STATE 2 2\r0 0 : 1 0\r1 1 : 0 1\r",
    "STATE 2 2\n0\t1 : 1 0\n1 0\t:\t0 1\n",
    "STATE 2 2\n0 0 : 1 0\n\n  \t\n1 1 : 1 0\n\n",
    "STATE 2 11\n+1 01" + ONE_11 + "1_0 \u0663" + ONE_11 + "0 0 : +1 00 0 0 0 0 0 0 0 0 1_0\n",
    "STATE 2 11\n01 1" + ONE_11,
    "STATE 2 3\n0 0 : 1 0 0\n0 3 : 1 0 0\n",
    "STATE 2 3\n0 0 : 1 0 0\n-1 0 : 1 0 0\n",
    "STATE 2 2\n0 0:1 0\n1 1 :0 1\n",
    "STATE 2 2\n0 0 : 1 0\n1 1 : 0 : 1\n",
    "STATE 2 2\n0 0 : 1 0\n1 1 1 0\n0 1 : 1 0\n",
    "STATE 2 3\n0 0 : 1 1 1\n1 1 : 1 0 0\n0 0 : 0 1 0\n",
    "STATE 2 3\n0 0 : 1 1 1\n1 1 : 1 0\n",
    " \n\x1c STATE 2 2\n0 0 : 1 0 \n1 x : 0 1 \t\n \x85\n",
    "\t STATE a 2 \n",
    "\n" * 5000 + "STATE 2 2\n0 0 : 1 0\n1 1 : 0 1  " + " \n" * 5000,
]


def _table_or_error(build):
    try:
        table = build()
    except KuniError as exc:
        return type(exc), str(exc)
    return table.codes, table.pairs, table.norm, table.size


def _line_by_line_table(text: str) -> KeyTable:
    """The table of a state file read one line at a time, each line checked
    in turn: the oracle of the block reader's checks and their order."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    parts = lines[0].split() if lines else []
    if parts[:1] != ["STATE"]:
        raise FormatError("missing STATE header")
    try:
        n, q = int(parts[1]), int(parts[2])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad STATE header: {lines[0]!r}") from exc
    if len(parts) != 3 or n < 1:
        raise FormatError(f"bad STATE header: {lines[0]!r}")
    spec = gf(q)
    seen, terms = set(), {}
    for ln in lines[1:]:
        left, colon, right = ln.partition(":")
        if not colon:
            raise FormatError(f"bad term line: {ln!r}")
        try:
            key, coeffs = tuple(map(int, left.split())), tuple(map(int, right.split()))
        except ValueError as exc:
            raise FormatError(f"bad term line: {ln!r}") from exc
        if len(key) != n:
            raise FormatError(f"term has {len(key)} symbols, header says {n}")
        if min(key) < 0 or max(key) >= q:
            raise FormatError(f"symbol out of range [0, {q}) in {ln!r}")
        if len(coeffs) != q:
            raise FormatError(f"term has {len(coeffs)} coefficients, expected {q}")
        if key in seen:
            raise FormatError(f"duplicate term {key}")
        seen.add(key)
        if not Cyclotomic(q, coeffs).is_zero():
            terms[key] = Cyclotomic(q, coeffs)
    return KeyTable.of(SparseState(n, spec, terms))


def _assert_readers_agree():
    """Each text gives one table, or one error, by the block reader, by
    parse_state and by the line-by-line oracle."""
    texts = PARSERS["state"][2]()
    rng = random.Random("kuni-fuzz/state")  # the texts the parser fuzz draws
    cases = [mutate(rng.choice(texts), rng) for _ in range(CASES_PER_PARSER)]
    outcomes = set()
    for text in texts + cases + STATE_EDGE_TEXTS:

        def read_table():
            _, spec, columns, amps = read_state(text)
            return KeyTable(spec, columns, amps)

        streamed = _table_or_error(read_table)
        assert streamed == _table_or_error(lambda: KeyTable.of(parse_state(text))), text
        assert streamed == _table_or_error(lambda: _line_by_line_table(text)), text
        outcomes.add(isinstance(streamed[0], list))
    assert outcomes == {True, False}


def test_table_from_checked_lines_matches_parsed_state():
    """The sweep's table built straight from the checked lines of a state
    file is the table of parse_state's state, or both reject the text with
    the same error at the same line."""
    _assert_readers_agree()


@pytest.mark.parametrize("block_chars", [1, 2])
def test_block_reader_agrees_at_every_block_boundary(block_chars, monkeypatch):
    # blocks of one line, then of one or two: every line starts a block or
    # follows its block's first line
    monkeypatch.setattr(kuni.states, "_BLOCK_CHARS", block_chars)
    _assert_readers_agree()
