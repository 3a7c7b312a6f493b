"""Shared tokenizer for the small expression languages (labels, path regexes,
formulas), and the base class of their syntax-tree nodes and of the records."""

from __future__ import annotations

import re
from operator import attrgetter

# Stores a field of a read-only node: the nodes' `__init__`s, and the code
# that keeps a value on a node (its hash, a compiled form), write through it.
_set = object.__setattr__


class Node:
    """Base of the immutable syntax-tree nodes and records.

    A subclass names its fields once, as `__slots__ = _fields = (...)`, and
    stores each in its `__init__` with `_set`.  A value kept on a node, as
    the hash in `_hash` or a compiled form, is a slot written with `_set` on
    first use; no node has a `__dict__`.  Nodes compare equal when they
    are of the same class with equal fields, and print as `Atom(name='a')`.
    `==`, the hash and `repr` walk the tree with an explicit stack, so depth
    does not limit them.
    """

    __slots__ = ("_hash", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls._fields:
            cls._values = attrgetter("__class__", *cls._fields)

    @staticmethod
    def _values(node) -> tuple:
        """The node's class and field values; one C call for a class with fields."""
        return (type(node),)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        todo = []
        a, b = self, other
        while True:
            for name in a._fields:
                x, y = getattr(a, name), getattr(b, name)
                if x is y:
                    continue
                if isinstance(x, Node) and type(y) is type(x):
                    todo.append((x, y))
                elif x != y:
                    return False
            if not todo:
                return True
            a, b = todo.pop()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            # The classes and plain values of the tree in a fixed order, which
            # tell trees apart since each class has a fixed number of fields.
            flat = []
            todo = [self]
            while todo:
                node = todo.pop()
                for v in node._values(node):
                    if isinstance(v, Node):
                        todo.append(v)
                    else:
                        flat.append(v)
            h = hash(tuple(flat))
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        # A stack of text and of nodes still to print, last piece on top.
        out, todo = [], [self]
        while todo:
            node = todo.pop()
            if type(node) is str:
                out.append(node)
                continue
            pieces = [f"{type(node).__qualname__}("]
            for i, name in enumerate(node._fields):
                value = getattr(node, name)
                pieces.append(f"{', ' if i else ''}{name}=")
                nested = isinstance(value, Node) and type(value).__repr__ is Node.__repr__
                pieces.append(value if nested else repr(value))
            pieces.append(")")
            todo += reversed(pieces)
        return "".join(out)


class ParseError(ValueError):
    """Malformed concrete syntax. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class Token(Node):
    __slots__ = _fields = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        _set(self, "kind", kind)  # "ident", "init", "count", "eof", or the punctuation text itself
        _set(self, "text", text)
        _set(self, "pos", pos)


_TOKEN_RE = re.compile(
    r"""\s+
      | `0
      | \{\s*[0-9]+\s*,\s*[0-9]+\s*\}
      | [A-Za-z_][A-Za-z0-9_]*
      | <=> | => | /\\ | \\/
      | [()<>*.|-]
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        chunk = m.group(0)
        if not chunk.isspace():
            if chunk == "`0":
                tokens.append(Token("init", chunk, pos))
            elif chunk[0] == "{":
                if not tokens or tokens[-1].text != "Tick":  # a count only follows a Tick
                    raise ParseError("unexpected character '{'", pos)
                tokens.append(Token("count", chunk, pos))
            elif chunk[0].isalpha() or chunk[0] == "_":
                tokens.append(Token("ident", chunk, pos))
            else:
                tokens.append(Token(chunk, chunk, pos))
        pos = m.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


# The largest count a `Tick{lo,hi}` may have.  Matching and the
# oracle's automaton take memory and time linear in the count.
MAX_TICK_COUNT = 100_000


def tick_count_error(lo: int, hi: int) -> str | None:
    """Why `Tick{lo,hi}` is not a tick count, or None if it is one."""
    if not 0 <= lo <= hi:
        return f"empty tick count range {{{lo},{hi}}}"
    if hi > MAX_TICK_COUNT:
        return f"tick count {hi} over the limit of {MAX_TICK_COUNT}"
    return None


class Cursor:
    """A stream of tokens with one-token lookahead."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0

    def peek(self) -> Token:
        return self._tokens[self._i]

    def advance(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != "eof":
            self._i += 1
        return tok

    def at(self, kind: str) -> bool:
        return self._tokens[self._i].kind == kind

    def at_ident(self, text: str) -> bool:
        tok = self._tokens[self._i]
        return tok.kind == "ident" and tok.text == text

    def take(self, kind: str) -> bool:
        if self.at(kind):
            self._i += 1
            return True
        return False

    def expect(self, kind: str) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def expect_end(self) -> None:
        tok = self._tokens[self._i]
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)

    def take_tick_count(self) -> tuple[int, int]:
        """The `{lo,hi}` after a `Tick`, as (lo, hi); (1, 1) if none follows."""
        tok = self._tokens[self._i]
        if tok.kind != "count":
            return 1, 1
        lo, hi = (int(part) for part in tok.text[1:-1].split(","))
        if error := tick_count_error(lo, hi):
            raise ParseError(error, tok.pos)
        self._i += 1
        return lo, hi

    def mark(self) -> int:
        return self._i

    def reset(self, mark: int) -> None:
        self._i = mark
