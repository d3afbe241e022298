"""The scanner against the character-at-a-time lexer it replaced.

``reference_tokenize`` below is that lexer, kept as the oracle: it advanced
one character at a time and tracked line and column as it went.  The
scanner in :mod:`repro.lang.lexer` must produce the same tokens (kind, text,
line, column) and raise the same :class:`LexError` (message, line, column)
on every input: the shipped programs and many seeded random strings.
"""

import glob
import os
import random
from typing import List, Tuple

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import KEYWORDS, tokenize
from repro.lang.prelude import PRELUDE_SOURCE
from repro.spec.export import render_module
from repro.suite.registry import all_benchmark_names, get_benchmark

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

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

_STRING_ESCAPES = {
    "\\": "\\",
    '"': '"',
    "n": "\n",
    "r": "\r",
    "t": "\t",
}


def reference_tokenize(source: str) -> List[Tuple[str, str, int, int]]:
    """The character-at-a-time scanner, as (kind, text, line, column) tuples."""
    tokens: List[Tuple[str, str, int, int]] = []
    index = 0
    line = 1
    column = 1
    length = len(source)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and source[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        ch = source[index]

        if ch in " \t\r\n":
            advance(1)
            continue

        if source.startswith("(*", index):
            depth = 1
            start_line, start_col = line, column
            advance(2)
            while depth > 0:
                if index >= length:
                    raise LexError("unterminated comment", start_line, start_col)
                if source.startswith("(*", index):
                    depth += 1
                    advance(2)
                elif source.startswith("*)", index):
                    depth -= 1
                    advance(2)
                else:
                    advance(1)
            continue

        if ch == '"':
            start_line, start_col = line, column
            advance(1)
            chars: List[str] = []
            while True:
                if index >= length or source[index] == "\n":
                    raise LexError("unterminated string literal", start_line, start_col)
                current = source[index]
                if current == '"':
                    advance(1)
                    break
                if current == "\\":
                    if index + 1 >= length or source[index + 1] == "\n":
                        raise LexError("unterminated string literal", start_line, start_col)
                    escape = source[index + 1]
                    if escape not in _STRING_ESCAPES:
                        raise LexError(f"unknown string escape \\{escape}", line, column)
                    chars.append(_STRING_ESCAPES[escape])
                    advance(2)
                    continue
                chars.append(current)
                advance(1)
            tokens.append(("STRING", "".join(chars), start_line, start_col))
            continue

        if source.startswith("->", index):
            tokens.append(("ARROW", "->", line, column))
            advance(2)
            continue

        if ch in _PUNCTUATION:
            # ``_`` is only an underscore token when not part of an identifier.
            if ch == "_" and index + 1 < length and (source[index + 1].isalnum() or source[index + 1] == "_"):
                pass  # fall through to identifier handling below
            else:
                tokens.append((_PUNCTUATION[ch], ch, line, column))
                advance(1)
                continue

        if ch.isdigit():
            start = index
            start_line, start_col = line, column
            while index < length and source[index].isdigit():
                advance(1)
            tokens.append(("INT", source[start:index], start_line, start_col))
            continue

        if ch.isalpha() or ch == "_":
            start = index
            start_line, start_col = line, column
            while index < length and (source[index].isalnum() or source[index] in "_'"):
                advance(1)
            text = source[start:index]
            if text in KEYWORDS:
                kind = "KEYWORD"
            elif text[0].isupper():
                kind = "UIDENT"
            else:
                kind = "LIDENT"
            tokens.append((kind, text, start_line, start_col))
            continue

        raise LexError(f"unexpected character {ch!r}", line, column)

    tokens.append(("EOF", "", line, column))
    return tokens


def outcome(scan, source):
    """Tokens as tuples, or the error's message and position."""
    try:
        return [tuple(token) for token in scan(source)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.column)


def shipped_sources():
    sources = [("prelude", PRELUDE_SOURCE)]
    sources += [(name, render_module(get_benchmark(name))) for name in all_benchmark_names()]
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "modules", "*.hanoi"))):
        with open(path, encoding="utf-8") as handle:
            sources.append((os.path.basename(path), handle.read()))
    return sources


def test_shipped_sources_scan_as_before():
    sources = shipped_sources()
    assert len(sources) == 35  # the prelude, 28 built-ins, 6 examples
    for label, source in sources:
        assert outcome(tokenize, source) == outcome(reference_tokenize, source), label


#: Pieces of random inputs that scan on their own: every token class, blanks
#: of every kind, whole comments and string literals with each escape, and
#: letters and digits beyond ASCII (``²`` is a digit to ``str.isdigit`` but
#: not to ``int``).
CLEAN = (
    list("abzAZ09_") + [" ", "\t", "\r", "\n", "\r\n"] + list("(),|*=:")
    + ["->", "x'", "x1", "Cons", "_x", "42", "é", "É", "²", "ǅ", "٣"] + sorted(KEYWORDS)
    + ["(* c *)", "(* (* nested *) *)", "(*)*)", '"a b"', '"\\n\\t\\r\\"\\\\"', '"é\r(*"']
)
#: Pieces that may break a token or leave one open: lone delimiters,
#: backslashes and escapes outside strings, and characters no token starts
#: with (``½`` is numeric but neither a digit nor a letter).
RISKY = ['"', "\\", '\\"', "\\n", "\\q", "(*", "*)", "(*)", "$", "-", ">", "<", "'", "½"]


def random_source(rng: random.Random) -> str:
    return "".join(rng.choice(RISKY if rng.random() < 0.08 else CLEAN)
                   for _ in range(rng.randint(0, 16)))


@pytest.mark.parametrize("seed", range(4))
def test_random_strings_scan_as_before(seed):
    rng = random.Random(seed)
    for _ in range(25_000):
        source = random_source(rng)
        assert outcome(tokenize, source) == outcome(reference_tokenize, source), repr(source)


LEX_ERRORS = ("unterminated comment", "unterminated string literal",
              "unknown string escape", "unexpected character")


def test_random_strings_reach_every_outcome():
    """The random inputs reach every token kind and every lexical error,
    and about half of them scan without one."""
    rng = random.Random(0)
    kinds, errors, scanned = set(), set(), 0
    for _ in range(5_000):
        result = outcome(reference_tokenize, random_source(rng))
        if result[0] == "LexError":
            errors.update(error for error in LEX_ERRORS if result[1].startswith(error))
        else:
            scanned += 1
            kinds.update(token[0] for token in result)
    assert kinds == ({"LIDENT", "UIDENT", "INT", "STRING", "KEYWORD", "EOF"}
                     | set(_PUNCTUATION.values()))
    assert errors == set(LEX_ERRORS)
    assert 1_000 < scanned < 4_000, scanned
