"""Seeded fuzz of the file parsers: every mutated input gives a valid object
or a KuniError, never any other exception."""

import random

import pytest

from kuni.codes import format_code, mds_from_singleton, parse_code
from kuni.decomposition import construct_G_Q, format_qmatrix, parse_qmatrix
from kuni.errors import KuniError
from kuni.field import FFMatrix, format_matrix, gf, parse_matrix
from kuni.states import ame_5_q, bell, format_state, ghz, parse_state, read_state
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
# are dropped or repeated, and symbols above 255 (q = 257)
ONE_257 = " : " + " ".join(["1"] + ["0"] * 256) + "\n"
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
]


def _table_or_error(build):
    try:
        table = build()
    except KuniError as exc:
        return type(exc), str(exc)
    return table.codes, table.pairs, table.norm, table.size


def test_table_from_checked_lines_matches_parsed_state():
    """The sweep's table built straight from the checked lines of a state
    file is the table of parse_state's state, or both reject the text with
    the same error at the same line."""
    texts = PARSERS["state"][2]()
    rng = random.Random("kuni-fuzz/state")  # the texts the parser fuzz draws
    cases = [mutate(rng.choice(texts), rng) for _ in range(CASES_PER_PARSER)]
    outcomes = set()
    for text in texts + cases + STATE_EDGE_TEXTS:

        def from_lines():
            n, spec, terms = read_state(text)
            return KeyTable(n, spec.q, terms)

        streamed = _table_or_error(from_lines)
        assert streamed == _table_or_error(lambda: KeyTable.of(parse_state(text))), text
        outcomes.add(isinstance(streamed[0], list))
    assert outcomes == {True, False}
