import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capplan.sexp import (
    SIMPLE_SYMBOL_CHARS,
    Reader,
    SexpError,
    SexpReader,
    parse_sexprs,
    quote,
    unquote,
)

# Characters a quoted symbol or a string may hold besides letters: the
# ones that mean something elsewhere (`;`, parentheses, the other quote,
# line breaks, spaces).
AWKWARD = " ;()\n\t#.:-"


def _quoted_symbol(rng):
    body = "".join(rng.choice("ab" + AWKWARD + '"') for _ in range(rng.randint(0, 6)))
    return f"|{body}|"


def _string(rng):
    parts = ["".join(rng.choice("xy" + AWKWARD + "|") for _ in range(rng.randint(0, 4)))
             for _ in range(rng.randint(1, 3))]
    return '"' + '""'.join(parts) + '"'


def _plain(rng):
    return rng.choice(["sat", "x", "define-fun", "Real", ":named", "1.5", "42",
                       "-", "/", "a.b", "<=", "n#t0"])


def _atom(rng):
    return rng.choice([_plain, _plain, _quoted_symbol, _string])(rng)


def _node(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return _atom(rng)
    return [_node(rng, depth - 1) for _ in range(rng.randint(0, 4))]


def _gap(rng):
    """What may separate two tokens: blanks, line breaks and comments."""
    pieces = [rng.choice([" ", "\n", "\t", "  ", "\r\n"])]
    if rng.random() < 0.3:
        comment = "".join(rng.choice("c|\"();" + " ") for _ in range(rng.randint(0, 5)))
        pieces.append(f";{comment}\n")
    return "".join(pieces)


def _render(node, rng):
    if isinstance(node, str):
        return node
    inner = _gap(rng).join(_render(child, rng) for child in node)
    return "(" + rng.choice(["", " "]) + inner + ")"


def _document(seed):
    rng = random.Random(seed)
    nodes = [_node(rng, 4) for _ in range(rng.randint(1, 6))]
    text = _gap(rng).join(_render(node, rng) for node in nodes) + rng.choice(["", "\n"])
    return nodes, text


def _read_in_chunks(text, rng):
    reader = Reader()
    nodes = []
    cuts = sorted(rng.sample(range(1, len(text)), min(len(text) - 1, rng.randint(1, 12))))
    for start, stop in zip([0] + cuts, cuts + [len(text)]):
        reader.feed(text[start:stop])
        nodes.extend(reader)
    reader.end()
    nodes.extend(reader)
    return nodes


def _read_by_lines(text):
    reader = SexpReader(io.StringIO(text))
    nodes = []
    while (node := reader.read()) is not None:
        nodes.append(node)
    return nodes


def test_whole_lines_and_chunks_read_the_same_nodes():
    for seed in range(300):
        expected, text = _document(seed)
        assert parse_sexprs(text) == expected, seed
        assert _read_by_lines(text) == expected, seed
        rng = random.Random(seed)
        for _ in range(5):
            assert _read_in_chunks(text, rng) == expected, seed


def test_a_top_level_atom_split_across_chunks_comes_out_whole():
    reader = Reader()
    reader.feed("sa")
    assert list(reader) == []
    reader.feed("t\n")
    assert list(reader) == ["sat"]


def test_an_escaped_quote_split_across_chunks_continues_the_string():
    reader = Reader()
    reader.feed('(echo "x"')
    assert list(reader) == []
    reader.feed('"y")')
    assert list(reader) == [["echo", '"x""y"']]


def test_the_end_completes_a_final_atom_and_rejects_unfinished_input():
    assert parse_sexprs("unsat") == ["unsat"]
    for text, message in [("(a (b)", "end of input"), ('"abc', "unterminated string"),
                          ("|x", "unterminated quoted symbol"), ("a)", "unbalanced")]:
        with pytest.raises(SexpError, match=message):
            parse_sexprs(text)


def test_a_reading_error_consumes_its_input_and_reading_goes_on():
    reader = Reader()
    reader.feed("(a)) (b)\n")
    assert next(reader) == ["a"]
    with pytest.raises(SexpError, match="unbalanced"):
        next(reader)
    assert list(reader) == [["b"]]


def test_quote_round_trips_representable_names():
    rng = random.Random(1)
    for _ in range(200):
        name = "".join(rng.choice("aZ09_#.;()\n \t\"'-+") for _ in range(rng.randint(1, 8)))
        quoted = quote(name)
        assert unquote(quoted) == name
        assert parse_sexprs(quoted) == [quoted]


def test_simple_symbols_stay_bare():
    assert quote("pre.Transport.t0") == "pre.Transport.t0"
    assert quote("0x") == "|0x|"
    assert quote("a#b") == "|a#b|"
    assert quote("") == "||"


def _quote_by_characters(name):
    """quote() as it tested one character at a time: the reference for
    its one set test."""
    if name and all(c in SIMPLE_SYMBOL_CHARS for c in name) and not name[0].isdigit():
        return name
    return f"|{name}|"


@given(st.text() | st.text(alphabet=sorted(SIMPLE_SYMBOL_CHARS) + ["#", "\n", "\u0663"]))
def test_quote_agrees_with_a_character_by_character_test(name):
    assert quote(name) == _quote_by_characters(name)
