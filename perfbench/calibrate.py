"""A fixed yardstick for how fast this machine runs Python at the moment.

The benchmark shares a few cores with other tenants, and their load slows
every computation on the machine for seconds to minutes at a time.
:func:`calibrate` times a fixed piece of work that belongs to the benchmark,
not to the program, and resembles what the program spends its time on: a
tiny tuple-tree interpreter evaluating a recursive function (dispatch,
environment lookups, recursion, as in the program's evaluator), then a
hash-consed tree of slotted objects (allocation, tuple hashing, set
insertion, as in its value pools).  Timing it next to every module and
dividing by that time cancels most of the slowdown other tenants cause,
while a change to the program leaves the yardstick where it was.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["calibrate"]

# fib n = if n < 2 then n else fib (n - 1) + fib (n - 2), as a tuple tree.
_FIB = ("if", ("lt", ("var", "n"), ("num", 2)),
        ("var", "n"),
        ("add", ("call", "fib", ("sub", ("var", "n"), ("num", 1))),
                ("call", "fib", ("sub", ("var", "n"), ("num", 2)))))
_FUNCTIONS = {"fib": ("n", _FIB)}

#: ``fib`` argument and result, and the leaf count of the object tree:
#: together about 7 ms on a quiet 2-vCPU x86 VM.
_ARGUMENT = 17
_EXPECTED = 1597
_LEAVES = 2048


def _eval(expr, env):
    tag = expr[0]
    if tag == "num":
        return expr[1]
    if tag == "var":
        return env[expr[1]]
    if tag == "add":
        return _eval(expr[1], env) + _eval(expr[2], env)
    if tag == "sub":
        return _eval(expr[1], env) - _eval(expr[2], env)
    if tag == "lt":
        return _eval(expr[1], env) < _eval(expr[2], env)
    if tag == "if":
        return _eval(expr[2] if _eval(expr[1], env) else expr[3], env)
    parameter, body = _FUNCTIONS[expr[1]]
    return _eval(body, {parameter: _eval(expr[2], env)})


class _Node:
    __slots__ = ("tag", "kids", "key")

    def __init__(self, tag, kids):
        self.tag = tag
        self.kids = kids
        self.key = hash((tag, tuple(kid.key for kid in kids)))


def _tree_nodes() -> int:
    """Pair up ``_LEAVES`` leaves level by level, collecting every node's
    key in a set; the number of nodes made."""
    level = [_Node(index % 7, ()) for index in range(_LEAVES)]
    keys = {node.key for node in level}
    made = len(level)
    while len(level) > 1:
        level = [_Node(index % 5, (level[index], level[index + 1]))
                 for index in range(0, len(level), 2)]
        keys.update(node.key for node in level)
        made += len(level)
    return made


def calibrate() -> float:
    """Seconds one evaluation of the yardstick takes right now."""
    began = perf_counter()
    value = _eval(("call", "fib", ("num", _ARGUMENT)), {})
    nodes = _tree_nodes()
    elapsed = perf_counter() - began
    if value != _EXPECTED or nodes != 2 * _LEAVES - 1:
        raise AssertionError(f"calibration computed {value} and {nodes} nodes")
    return elapsed
