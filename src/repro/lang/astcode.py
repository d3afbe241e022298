"""Syntax-tree codes: a function declaration as one line of tokens.

The persistent store (:mod:`repro.serve.diskcache`) keeps each synthesized
candidate as its code, so a warm run rebuilds the candidate's tree without
the lexer or the parser.  A code is one space-separated token per node, in
prefix order; a token is a tag, followed by a name after ``:`` or by a
count or an index:

=========  ============================  ====================================
token      node                          children, in order
=========  ============================  ====================================
``D:f``    ``let f ...``                 parameters, return type or ``-``,
``R:f``    ``let rec f ...``             body
``a:x``    parameter ``(x : t)``         type
``-``      no return type
``V:x``    :class:`EVar`
``C:Nil``  :class:`ECtor`, no payload
``K:Cons`` :class:`ECtor`                payload expression
``@``      :class:`EApp`                 function, argument
``,N``     :class:`ETuple`               N expressions
``.I``     :class:`EProj` of item I      expression
``F:x``    :class:`EFun`                 parameter type, body
``L:x``    :class:`ELet`                 value, body
``MN``     :class:`EMatch`, N >= 1       scrutinee, then each branch's
                                         pattern and body
``_``      :class:`PWild`
``v:x``    :class:`PVar`
``c:Nil``  :class:`PCtor`, no payload
``k:Cons`` :class:`PCtor`                payload pattern
``pN``     :class:`PTuple`               N patterns
``T:nat``  :class:`TData`
``A``      :class:`TAbstract`
``*N``     :class:`TProd`, N >= 2        N types
``>``      :class:`TArrow`               argument, result
=========  ============================  ====================================

:func:`decode_decl` walks the tokens backwards over an explicit stack: each
token pops its children, first child on top, and pushes its node.  So it
never recurses, and it checks every child's kind (expression, pattern, type,
parameter) as it pops it.  A code that is not the code of a declaration - an
unknown tag, a child of the wrong kind, too few or too many tokens, a bad
count - raises :class:`ValueError` and nothing else.  A code has at most
:data:`~repro.lang.parser.MAX_NESTING` tokens, so no decoded tree is deeper
than a tree the parser builds; :func:`encode_decl` raises ``ValueError``
for a declaration whose code would be longer, or would not split back into
its tokens, so whatever it returns decodes to an equal declaration.
"""

from __future__ import annotations

from typing import List

from .ast import (
    Branch,
    EApp,
    ECtor,
    EFun,
    ELet,
    EMatch,
    EProj,
    ETuple,
    EVar,
    Expr,
    FunDecl,
    PCtor,
    PTuple,
    PVar,
    PWild,
    Pattern,
)
from .parser import MAX_NESTING
from .types import TAbstract, TArrow, TData, TProd, Type

__all__ = ["encode_decl", "decode_decl"]

#: Stands for a declaration without a return type on the decoder's stack.
_NO_TYPE = object()

#: Tags of the named nodes without children, by their node class.
_NAMED_LEAVES = {"V": EVar, "C": ECtor, "v": PVar, "c": PCtor, "T": TData}

#: The most leaf tokens :data:`_leaves` keeps.
MAX_LEAVES = 4096

#: Leaf token -> its node, shared by every decoded tree: nodes are
#: immutable, and a few hundred distinct leaves make up most of the tokens
#: of the candidates of a run.
_leaves = {"_": PWild(), "-": _NO_TYPE, "A": TAbstract()}


def encode_decl(decl: FunDecl) -> str:
    """The code of ``decl``; ``ValueError`` when it would not decode."""
    tokens = [("R:" if decl.recursive else "D:") + decl.name]
    append = tokens.append
    # Nodes still to write, the next on top; a string is a finished token.
    todo: List[object] = [decl.body,
                          "-" if decl.return_type is None else decl.return_type]
    for name, param_type in reversed(decl.params):
        todo.append(param_type)
        todo.append("a:" + name)
    pop, push = todo.pop, todo.append
    while todo:
        node = pop()
        cls = node.__class__
        if cls is str:
            append(node)
        elif cls is EVar:
            append("V:" + node.name)
        elif cls is EApp:
            append("@")
            push(node.arg)
            push(node.fn)
        elif cls is ECtor:
            if node.payload is None:
                append("C:" + node.ctor)
            else:
                append("K:" + node.ctor)
                push(node.payload)
        elif cls is EMatch:
            append(f"M{len(node.branches)}")
            for branch in reversed(node.branches):
                push(branch.body)
                push(branch.pattern)
            push(node.scrutinee)
        elif cls is PVar:
            append("v:" + node.name)
        elif cls is PCtor:
            if node.payload is None:
                append("c:" + node.ctor)
            else:
                append("k:" + node.ctor)
                push(node.payload)
        elif cls is PWild:
            append("_")
        elif cls is TData:
            append("T:" + node.name)
        elif cls is ETuple or cls is PTuple:
            append(f"{',' if cls is ETuple else 'p'}{len(node.items)}")
            todo.extend(reversed(node.items))
        elif cls is EProj:
            if node.index < 0:
                raise ValueError(f"a projection of item {node.index}")
            append(f".{node.index}")
            push(node.expr)
        elif cls is EFun:
            append("F:" + node.param)
            push(node.body)
            push(node.param_type)
        elif cls is ELet:
            append("L:" + node.name)
            push(node.body)
            push(node.value)
        elif cls is TProd:
            append(f"*{len(node.items)}")
            todo.extend(reversed(node.items))
        elif cls is TArrow:
            append(">")
            push(node.result)
            push(node.arg)
        elif cls is TAbstract:
            append("A")
        else:
            raise ValueError(f"no code for a {cls.__name__} node")
    if len(tokens) > MAX_NESTING:
        raise ValueError(f"a code of {len(tokens)} tokens is longer than "
                         f"{MAX_NESTING}")
    code = " ".join(tokens)
    if len(code.split()) != len(tokens):
        raise ValueError("a name holds white space")
    return code


def decode_decl(code: str) -> FunDecl:
    """The declaration whose code is ``code``; ``ValueError`` for anything
    that is not such a code."""
    if not isinstance(code, str):
        raise ValueError(f"a code is a string, not a {type(code).__name__}")
    tokens = code.split()
    if len(tokens) > MAX_NESTING:
        raise ValueError(f"a code of {len(tokens)} tokens is longer than "
                         f"{MAX_NESTING}")
    stack: List[object] = []
    push = stack.append
    for token in reversed(tokens):
        leaf = _leaves.get(token)
        if leaf is not None:
            push(leaf)
            continue
        tag = token[0]
        if token[1:2] == ":":
            name = token[2:]
            build = _NAMED_LEAVES.get(tag)
            if build is not None:
                leaf = build(name)
                if len(_leaves) < MAX_LEAVES:
                    _leaves[token] = leaf
                push(leaf)
            elif tag == "K":
                push(ECtor(name, _pop(stack, Expr)))
            elif tag == "k":
                push(PCtor(name, _pop(stack, Pattern)))
            elif tag == "a":
                push((name, _pop(stack, Type)))
            elif tag == "F":
                push(EFun(name, _pop(stack, Type), _pop(stack, Expr)))
            elif tag == "L":
                push(ELet(name, _pop(stack, Expr), _pop(stack, Expr)))
            elif tag == "D" or tag == "R":
                push(_declaration(stack, name, tag == "R"))
            else:
                raise ValueError(f"unknown tag in token {token!r}")
        elif token == "@":
            push(EApp(_pop(stack, Expr), _pop(stack, Expr)))
        elif tag == "M":
            count = _count(token, stack, 1)
            scrutinee = _pop(stack, Expr)
            push(EMatch(scrutinee, tuple(
                Branch(_pop(stack, Pattern), _pop(stack, Expr))
                for _ in range(count))))
        elif tag == ",":
            push(ETuple(_items(stack, _count(token, stack, 0), Expr)))
        elif tag == "p":
            push(PTuple(_items(stack, _count(token, stack, 0), Pattern)))
        elif tag == "*":
            push(TProd(_items(stack, _count(token, stack, 2), Type)))
        elif token == ">":
            push(TArrow(_pop(stack, Type), _pop(stack, Type)))
        elif tag == ".":
            push(EProj(_count(token, stack, 0, bounded=False), _pop(stack, Expr)))
        else:
            raise ValueError(f"unknown token {token!r}")
    if len(stack) != 1 or stack[0].__class__ is not FunDecl:
        raise ValueError("a code is one declaration" if stack
                         else "an empty code")
    return stack[0]


def _pop(stack: List[object], kind: type) -> object:
    """The node on top of ``stack``, which must be a ``kind``."""
    if not stack:
        raise ValueError("a truncated code")
    node = stack.pop()
    if not isinstance(node, kind):
        raise ValueError(f"expected a {kind.__name__} node, not "
                         f"{type(node).__name__}")
    return node


def _items(stack: List[object], count: int, kind: type) -> tuple:
    return tuple(_pop(stack, kind) for _ in range(count))


def _count(token: str, stack: List[object], least: int,
           bounded: bool = True) -> int:
    """The decimal count after ``token``'s tag: at least ``least`` and, when
    ``bounded``, no more than the nodes on the stack to take."""
    digits = token[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"a bad count in token {token!r}")
    count = int(digits)
    if count < least or (bounded and count > len(stack)):
        raise ValueError(f"a count out of range in token {token!r}")
    return count


def _declaration(stack: List[object], name: str, recursive: bool) -> FunDecl:
    """A declaration from its parameters, return type and body on top of
    ``stack``, which must hold nothing else."""
    params = []
    while stack and stack[-1].__class__ is tuple:
        params.append(stack.pop())
    if not stack:
        raise ValueError("a truncated code")
    return_type = stack.pop()
    if return_type is _NO_TYPE:
        return_type = None
    elif not isinstance(return_type, Type):
        raise ValueError(f"expected a return type, not {type(return_type).__name__}")
    body = _pop(stack, Expr)
    if stack:
        raise ValueError("tokens after the declaration's body")
    return FunDecl(name, tuple(params), return_type, body, recursive)
