"""Exception hierarchy for the object language.

Every failure raised by the lexer, parser, type checker, or evaluator derives
from :class:`LangError`, so callers that treat the object language as a black
box (the synthesizer, the verifier, the Hanoi loop) can catch a single type.
"""

from __future__ import annotations


class LangError(Exception):
    """Base class for all object-language errors."""


class LexError(LangError):
    """Raised when the lexer encounters an invalid character or token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(LangError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            super().__init__(f"{message} (line {line}, column {column})")
        else:
            super().__init__(message)
        self.line = line
        self.column = column


class TypeError_(LangError):
    """Raised when an expression or declaration fails to type check.

    Named with a trailing underscore to avoid shadowing the Python builtin.

    ``line`` is the source line of the declaration the error was raised in,
    when known (the checker anchors errors to the enclosing declaration's
    position recorded by the parser).  ``bare_message`` is the message
    without the position suffix, for callers such as the ``.hanoi`` loader
    that render positions themselves.
    """

    def __init__(self, message: str, line=None):
        self.bare_message = message
        self.line = line
        if line is not None:
            super().__init__(f"{message} (line {line})")
        else:
            super().__init__(message)

    def with_line(self, line) -> "TypeError_":
        """A copy anchored at ``line``; returns ``self`` if already anchored."""
        if self.line is not None or line is None:
            return self
        return TypeError_(self.bare_message, line)


class EvalError(LangError):
    """Raised when evaluation gets stuck (ill-typed application, no match...)."""


class FuelExhausted(EvalError):
    """Raised when evaluation exceeds the configured step budget.

    The step budget guards against accidental non-termination in synthesized
    candidates or user-provided module code; the Hanoi loop treats a fuel
    failure on a candidate invariant as the candidate being rejected.
    """


class MatchFailure(EvalError):
    """Raised when a ``match`` expression has no branch covering the value."""


class EvalDepthExceeded(EvalError):
    """Raised when evaluation nests deeper than the Python stack allows.

    The evaluator recurses on the depth of the value being processed, so a
    deep enough input (a Peano natural in the thousands) overflows the stack
    long before it runs out of fuel.  Reporting that as an :class:`EvalError`
    lets callers record it as a crash like any other evaluation failure.
    """
