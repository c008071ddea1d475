"""SMT-LIB2 S-expressions: the one reader, symbol quoter and value
printer of capplan.

Both ends of the solver pipe read with it: the client reads solver
answers (`smtlib`), and the reference solver reads scripts (`refsolver`).
Both print values with format_value: the client in its scripts, the
reference solver in its models.  The lexicon is that of the SMT-LIB
Standard v2.6, section 3.1.  A node is an atom string or a list of
nodes; a quoted symbol keeps its bars and a string literal its quotes
and `""` escapes, so every atom is exactly its source text.

This module imports nothing from capplan, so a spawned reference solver
loads it and nothing else.
"""

from __future__ import annotations

import re
from fractions import Fraction

# One token per match, after any blanks and line-ended `;` comments: a
# parenthesis, an atom (a plain token, a `|quoted symbol|`, or a string
# with `""` escapes), a comment that no line break ends, or an opening `|`
# or `"` whose closing quote is not in the text, taken together with all
# the text after it.  A string must not be followed by `"`, because `""`
# may continue it in the next piece.  Every character outside the skipped
# blanks and comments belongs to a token, so in a text that does not end
# in a blank, a comment or an unclosed quote can only be the last token.
_TOKEN = re.compile(
    r'[ \t\r\n]*(?:;[^\n]*\n[ \t\r\n]*)*'
    r'([()]|[^ \t\r\n();|"]+|\|[^|]*\||"[^"]*(?:""[^"]*)*"(?!")|;[^\n]*|[|"][\s\S]*)'
)
_BLANK = " \t\r\n"


def _unclosed(token: str) -> bool:
    """Whether the token is an opening quote and the text after it: a
    quoted symbol or string that closes has an even number of quotes."""
    return token[0] in '|"' and token.count(token[0]) % 2 == 1


# The characters of an SMT-LIB simple symbol, which must not start with a
# digit.
SIMPLE_SYMBOL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789~!@$%^&*_-+=<>.?/"
)


class SexpError(ValueError):
    """Text that does not read as S-expressions."""


class Reader:
    """Reads S-expressions from text fed in pieces of any size: whole
    lines or arbitrary pipe chunks.  Iterating splits the text fed since
    the last split into tokens by one regex pass, builds lists from them,
    yields each top-level expression as soon as it is complete, and stops
    when more input is needed.  A last token that reaches the end of the
    text fed so far may go on in the next piece, so it waits, until end()
    says none will come.

    A reading error consumes the offending input, so iterating again
    goes on after it."""

    def __init__(self):
        self.text = ""  # text fed since the last split into tokens
        self.tokens = iter(())  # parentheses and atoms still to read
        self.rest = ""  # the text of a last token that may go on
        self.open: list = []  # the lists being read, outermost first
        self.ended = False
        self.unclosed = ""  # the quote that the ended text is inside

    def feed(self, text: str) -> None:
        self.text += text

    def end(self) -> None:
        """No more text will come: what is left must be complete."""
        if self.text:
            self._split()
        self.ended = True
        rest, self.rest = self.rest, ""
        if rest and _unclosed(rest):
            self.unclosed = rest[0]
        elif rest and rest[0] != ";":
            self.tokens = iter([*self.tokens, rest])

    def _split(self) -> None:
        """Split the text fed so far into tokens, keeping back a last one
        that may go on."""
        text = self.rest + self.text
        self.text = self.rest = ""
        # Without its trailing blanks: findall would rescan them from every
        # position in turn.
        body = text.rstrip(_BLANK)
        tokens = _TOKEN.findall(body)
        if tokens:
            last = tokens[-1]
            if last[0] == ";":
                tokens.pop()
                if "\n" not in text[len(body):]:  # the comment may go on
                    self.rest = text[len(body) - len(last):]
            elif _unclosed(last) or len(body) == len(text) and last not in ("(", ")"):
                tokens.pop()  # an atom or a quote that may go on
                self.rest = text[len(body) - len(last):]
        self.tokens = iter([*self.tokens, *tokens])

    def __iter__(self):
        return self

    def __next__(self):
        if self.text:
            self._split()
        stack = self.open
        for token in self.tokens:
            if token == "(":
                stack.append([])
                continue
            if token == ")":
                if not stack:
                    raise SexpError("unbalanced )")
                token = stack.pop()
            if not stack:
                return token
            stack[-1].append(token)
        if self.unclosed:
            quote, self.unclosed = self.unclosed, ""
            stack.clear()
            raise SexpError(
                "unterminated quoted symbol" if quote == "|" else "unterminated string"
            )
        if self.ended and stack:
            stack.clear()
            raise SexpError("unexpected end of input inside (")
        raise StopIteration


def parse_sexprs(text: str) -> list:
    """Every S-expression of a whole text, in order."""
    reader = Reader()
    reader.feed(text)
    reader.end()
    return list(reader)


class SexpReader:
    """Reads a stream one line at a time and returns each S-expression as
    soon as it is complete, so a command is answered before the line after
    it is read (interactive, push/pop driving)."""

    def __init__(self, stream):
        self.stream = stream
        self.reader = Reader()

    def _fill(self) -> bool:
        line = self.stream.readline()
        if not line:
            return False
        self.reader.feed(line)
        return True

    def read(self):
        """Return the next S-expression (nested lists/str) or None at EOF.

        A reading error consumes the offending input, so the next call
        goes on after it."""
        while True:
            node = next(self.reader, None)
            if node is not None or self.reader.ended:
                return node
            if not self._fill():
                self.reader.end()


def quote(name: str) -> str:
    """`name` as a symbol: bare when it is a simple symbol, else between
    bars.  A name holding `|` or `\\` has no quoted form."""
    if name and SIMPLE_SYMBOL_CHARS.issuperset(name) and not name[0].isdigit():
        return name
    return f"|{name}|"


def unquote(symbol: str) -> str:
    if symbol.startswith("|") and symbol.endswith("|"):
        return symbol[1:-1]
    return symbol


def format_value(value) -> str:
    """A bool or exact number as an SMT-LIB value: `true`, `2.0`,
    `(/ 5 2)`, `(- (/ 5 2))`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    value = Fraction(value)
    if value < 0:
        return f"(- {format_value(-value)})"
    if value.denominator == 1:
        return f"{value.numerator}.0"
    return f"(/ {value.numerator} {value.denominator})"
