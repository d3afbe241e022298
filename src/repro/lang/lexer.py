"""Lexer for the ML-like surface syntax of the object language.

Token kinds:

* ``LIDENT`` - lowercase identifiers (variables, function names, type names);
* ``UIDENT`` - capitalized identifiers (data constructors);
* ``INT`` - non-negative integer literals (sugar for Peano naturals);
* ``STRING`` - double-quoted string literals (used only by the ``.hanoi``
  benchmark-definition directives, never by object-language expressions);
* ``KEYWORD`` - ``type of let rec in match with fun if then else``;
* punctuation - ``( ) , | * -> = : _``.

Comments use OCaml syntax ``(* ... *)`` and may nest.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from .errors import LexError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    ["type", "of", "let", "rec", "in", "match", "with", "fun", "if", "then", "else"]
)

_PUNCTUATION = {
    "->": "ARROW",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "|": "BAR",
    "*": "STAR",
    "=": "EQUAL",
    ":": "COLON",
    "_": "UNDERSCORE",
}

#: Escape sequences accepted inside string literals.
_STRING_ESCAPES = {
    "\\": "\\",
    '"': '"',
    "n": "\n",
    "r": "\r",
    "t": "\t",
}


class Token(NamedTuple):
    """A single lexical token with its source position (1-based)."""

    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text})"


#: One token at a position, after the blanks before it on its line.  Group
#: names are token kinds, except ``newline`` (a run of blanks holding line
#: breaks), ``end`` (the end of the source), ``comment`` (an opening ``(*``)
#: and ``other``: a string literal, a token that starts with a non-ASCII
#: character, or an error, all handled outside the pattern.  An underscore
#: starts an identifier only when a word character follows it; ``\w`` is
#: exactly ``str.isalnum()`` plus ``_``, the lexer's identifier characters.
_TOKEN = re.compile(r"""
    [ \t\r]*
    (?: (?P<newline>\n[ \t\r\n]*)
      | (?P<LIDENT>[a-z][\w']*|_\w[\w']*)
      | (?P<UIDENT>[A-Z][\w']*)
      | (?P<INT>[0-9]+)
      | (?P<comment>\(\*)
      | (?P<ARROW>->)
      | (?P<punctuation>[(),|*=:_])
      | (?P<other>.)
      | (?P<end>\Z)
    )
""", re.VERBOSE | re.DOTALL)

_IDENT_TAIL = re.compile(r"[\w']*")
_COMMENT_DELIMITER = re.compile(r"\(\*|\*\)")
_STRING_STOP = re.compile(r'["\\\n]')


def tokenize(source: str) -> List[Token]:
    """Tokenize a complete source string, raising :class:`LexError` on failure.

    Positions are 1-based; a line ends at each ``\\n`` only, and every other
    character, tabs and carriage returns included, is one column wide.
    """
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without the keyword-handling constructor
    match = _TOKEN.match
    index = 0
    line = 1
    line_start = 0  # index of the first character of ``line``

    while True:
        found = match(source, index)
        kind = found.lastgroup
        start, end = found.span(kind)
        if kind == "LIDENT":
            text = found.group(kind)
            append(new(Token, ("KEYWORD" if text in KEYWORDS else "LIDENT", text,
                               line, start - line_start + 1)))
        elif kind == "punctuation":
            text = found.group(kind)
            append(new(Token, (_PUNCTUATION[text], text, line, start - line_start + 1)))
        elif kind == "UIDENT" or kind == "ARROW":
            append(new(Token, (kind, found.group(kind), line, start - line_start + 1)))
        elif kind == "newline":
            line += source.count("\n", start, end)
            line_start = source.rindex("\n", start, end) + 1
        elif kind == "INT":
            end = _digits_end(source, end)
            append(new(Token, ("INT", source[start:end], line, start - line_start + 1)))
        elif kind == "comment":
            end = _comment_end(source, end, line, start - line_start + 1)
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, end) + 1
        elif kind == "other":
            ch = source[start]
            column = start - line_start + 1
            if ch == '"':
                text, end = _string_literal(source, end, line, column, line_start)
                append(new(Token, ("STRING", text, line, column)))
            elif ch.isdigit():
                end = _digits_end(source, end)
                append(new(Token, ("INT", source[start:end], line, column)))
            elif ch.isalpha():
                end = _IDENT_TAIL.match(source, end).end()
                text = source[start:end]
                append(new(Token, ("UIDENT" if ch.isupper() else "LIDENT", text, line, column)))
            else:
                raise LexError(f"unexpected character {ch!r}", line, column)
        else:  # the end of the source
            append(new(Token, ("EOF", "", line, end - line_start + 1)))
            return tokens
        index = end


def _digits_end(source: str, end: int) -> int:
    """The end of the digit run that reaches ``end``: the run goes on through
    every ``str.isdigit`` character, ``²`` and other non-ASCII digits too."""
    length = len(source)
    while end < length and source[end].isdigit():
        end += 1
    return end


def _comment_end(source: str, end: int, line: int, column: int) -> int:
    """The index just past the comment whose ``(*`` ends at ``end``."""
    depth = 1
    while depth:
        delimiter = _COMMENT_DELIMITER.search(source, end)
        if delimiter is None:
            raise LexError("unterminated comment", line, column)
        depth += 1 if delimiter.group() == "(*" else -1
        end = delimiter.end()
    return end


def _string_literal(source: str, end: int, line: int, column: int,
                    line_start: int) -> Tuple[str, int]:
    """The text of the string literal whose opening quote ends at ``end``,
    and the index just past its closing quote.  A literal never spans lines."""
    chunks: List[str] = []
    length = len(source)
    while True:
        stop = _STRING_STOP.search(source, end)
        if stop is None or stop.group() == "\n":
            raise LexError("unterminated string literal", line, column)
        at = stop.start()
        chunks.append(source[end:at])
        if stop.group() == '"':
            return "".join(chunks), at + 1
        if at + 1 >= length or source[at + 1] == "\n":
            raise LexError("unterminated string literal", line, column)
        escape = source[at + 1]
        if escape not in _STRING_ESCAPES:
            raise LexError(f"unknown string escape \\{escape}", line, at - line_start + 1)
        chunks.append(_STRING_ESCAPES[escape])
        end = at + 2
