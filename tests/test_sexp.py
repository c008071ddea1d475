import io
import random
import re

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


# -- the one-pass tokenizer against the per-token reader it replaced ----------

# The reader that matched one token per regex call, kept as the reference
# for the streaming rules of the one-pass Reader.
_ONE_TOKEN = re.compile(
    r'[ \t\r\n]*(?:;[^\n]*'
    r'|([()])'
    r'|(\|[^|]*\||"[^"]*(?:""[^"]*)*"(?!")|[^ \t\r\n();|"]+)'
    r'|([|"]))'
)


class _TokenByTokenReader:
    def __init__(self):
        self.buf = ""
        self.pos = 0
        self.open = []
        self.ended = False

    def feed(self, text):
        self.buf = self.buf[self.pos:] + text
        self.pos = 0

    def end(self):
        self.ended = True

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.open
        while True:
            match = _ONE_TOKEN.match(self.buf, self.pos)
            if match is None:
                if self.ended and stack:
                    stack.clear()
                    raise SexpError("unexpected end of input inside (")
                raise StopIteration
            paren, atom, opener = match.groups()
            if opener is not None:
                if not self.ended:
                    raise StopIteration
                self.pos = len(self.buf)
                stack.clear()
                raise SexpError(
                    "unterminated quoted symbol" if opener == "|" else "unterminated string"
                )
            end = match.end()
            if paren is None and end == len(self.buf) and not self.ended:
                raise StopIteration
            self.pos = end
            if paren == "(":
                stack.append([])
                continue
            if paren == ")":
                if not stack:
                    raise SexpError("unbalanced )")
                atom = stack.pop()
            elif atom is None:
                continue
            if not stack:
                return atom
            stack[-1].append(atom)


def _events(reader, pieces):
    """What reading the pieces in turn gives: after each piece, and after
    end(), the nodes and error messages in order."""
    events = []
    for step, piece in enumerate(pieces + [None]):
        if piece is None:
            reader.end()
        else:
            reader.feed(piece)
        while True:
            try:
                events.append((step, next(reader)))
            except StopIteration:
                break
            except SexpError as exc:
                events.append((step, "error", str(exc)))
    return events


_ATOMS = (
    st.sampled_from(["sat", "x", "define-fun", ":named", "1.5", "-", "a.b", "<=", "n#t0"])
    | st.text(alphabet="ab" + AWKWARD + '"', max_size=6).map(lambda body: f"|{body}|")
    | st.lists(st.text(alphabet="xy" + AWKWARD + "|", max_size=4), min_size=1, max_size=3)
    .map(lambda parts: '"' + '""'.join(parts) + '"')
)
_NODES = st.recursive(_ATOMS, lambda children: st.lists(children, max_size=4), max_leaves=12)
# What may end a document: nothing, a stray `)`, quotes that never close,
# or lists left open.
_ENDINGS = st.sampled_from(
    ["", "\n", ")", " )\n", "|a (b;", ' "x""y )', ' "', "(", "(a (b c)", "(a ;c"])


@given(st.lists(_NODES | st.just(")"), min_size=1, max_size=4), _ENDINGS, st.randoms(),
       st.data())
def test_one_pass_reader_agrees_with_the_token_by_token_reader(nodes, ending, rng, data):
    text = _gap(rng).join(_render(node, rng) for node in nodes) + ending
    # Cuts fall anywhere: inside comments, quotes and atoms, right after a
    # `(`, and between a `"` and the `"` that follows it.
    awkward = [i for i in range(1, len(text))
               if text[i - 1] == "(" or text[i - 1:i + 1] in ('""', "; ", "| ")]
    cuts = data.draw(st.sets(st.integers(1, max(1, len(text) - 1)), max_size=10))
    if awkward:
        cuts |= data.draw(st.sets(st.sampled_from(awkward), max_size=6))
    cuts = sorted(cut for cut in cuts if 0 < cut < len(text))
    pieces = [text[start:stop] for start, stop in zip([0] + cuts, cuts + [len(text)])]
    expected = _events(_TokenByTokenReader(), pieces)
    assert _events(Reader(), pieces) == expected
    assert _events(Reader(), [text]) == _events(_TokenByTokenReader(), [text])
