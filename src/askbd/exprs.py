"""Arithmetic expression trees over exact rationals.

Parsing, evaluation, canonical forms, and the value-preserving rewrite
rules (commutation, reassociation, distribution, factoring) used to
permute a solving expression into equivalent alternatives. The grammar
is documented in docs/grammar.md.

A value is a `Rational` in one normal form: an `int` exactly when it is
a whole number, otherwise a `Fraction`. `rational` puts a value in that
form, and `number_value` and `apply_op` produce only such values, so no
float ever arises. An `int` and a `Fraction` of equal value compare and
hash equal, so code that only reads values sees no difference.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Literal, Union

# Exact arithmetic throughout: equality filters must never be fooled by
# floating-point rounding. Whole numbers stay plain ints, which are far
# cheaper to build, add and hash than Fractions.
Rational = int | Fraction

# deepest tree and deepest bracket nesting any expression may have
MAX_DEPTH = 16

# an unsigned decimal literal (`12`, `2.5`, `.5`); `askbd.records` tokenizes
# solution text with the same rule
NUMBER = r"(?:\d+(?:\.\d+)?|\.\d+)"

OPS = ("+", "-", "*", "/")
_OP_ALIASES = {"×": "*", "÷": "/", "−": "-"}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


class ExprError(ValueError):
    """Base class for expression construction and evaluation failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DepthExceeded(ExprError):
    pass


class DivisionByZero(ExprError):
    def __init__(self):
        super().__init__("division by zero")


# Nodes are immutable, so each caches its hash when first asked: a set or
# dict of trees would otherwise rehash every subtree on each lookup. The
# cached hash is the one the dataclass computes, so equal nodes hash equal
# whether or not either was hashed before.
@dataclass(frozen=True)
class Lit:
    """A literal leaf holding a finite rational value."""

    value: Rational
    _hash = None  # not a field: set by __hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.value,))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class Bin:
    """A binary node; `grouped` marks an explicit bracket in the source text."""

    op: str
    left: "Expr"
    right: "Expr"
    grouped: bool = False
    _hash = None  # not a field: set by __hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.op, self.left, self.right, self.grouped))
            object.__setattr__(self, "_hash", h)
        return h


Expr = Union[Lit, Bin]


def rational(value) -> Rational:
    """`value` in normal form: an `int` when it is a whole number, else a
    `Fraction`. Accepts whatever `Fraction()` accepts (an `int`, a
    `Fraction`, a float or decimal string), converting exactly."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def make_bin(op: str, left: Expr, right: Expr, grouped: bool = False) -> Bin:
    """Build a binary node, rejecting division by an exactly-zero divisor."""
    if op not in OPS:
        raise ExprError(f"unknown operator {op!r}")
    node = Bin(op, left, right, grouped)
    if op == "/" and eval_expr(right) == 0:
        raise DivisionByZero()
    return node


def depth(e: Expr) -> int:
    if isinstance(e, Lit):
        return 1
    return 1 + max(depth(e.left), depth(e.right))


def eval_expr(e: Expr) -> Rational:
    """Exact rational value of the tree; independent of grouping flags."""
    return _eval(e)


def _eval(e: Expr) -> Rational:
    if isinstance(e, Lit):
        return e.value
    return apply_op(e.op, _eval(e.left), _eval(e.right))


def apply_op(op: str, lv: Rational, rv: Rational) -> Rational:
    """Exact `lv op rv` in normal form; a zero divisor raises DivisionByZero.

    Division goes through `Fraction(lv, rv)`: `/` on two ints is a float.
    """
    if op == "+":
        value = lv + rv
    elif op == "-":
        value = lv - rv
    elif op == "*":
        value = lv * rv
    elif rv == 0:
        raise DivisionByZero()
    else:
        value = Fraction(lv, rv)
    return value if type(value) is int else rational(value)


def eval_with_literal(e: Expr, k: int, value: Rational) -> Rational:
    """Exact value of `e` with its `k`-th literal, counted from 0 left to
    right as in the source text, set to the nonnegative `value`.

    Equals parsing and evaluating the text with that number token swapped
    for `format_value(value)`, without the re-parse: a divisor the swap
    makes zero raises DivisionByZero.
    """
    leaves = itertools.count()

    def walk(node: Expr) -> Rational:
        if isinstance(node, Lit):
            return value if next(leaves) == k else node.value
        return apply_op(node.op, walk(node.left), walk(node.right))

    return walk(e)


# --- Parsing ---

_NUMBER = re.compile(NUMBER)


def number_value(text: str) -> Rational:
    """Exact value of a `NUMBER` token, in normal form: `12` and `12.0` are
    the int 12, `2.5` is Fraction(5, 2), `.5` is Fraction(1, 2).

    The one literal converter: the parser and `askbd.records`' number
    tokens both read literals through it.
    """
    whole, point, decimals = text.partition(".")
    if not point:
        return int(text)
    return rational(Fraction(int(whole + decimals), 10 ** len(decimals)))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/" or ch in _OP_ALIASES:
            tokens.append(("op", _OP_ALIASES.get(ch, ch), i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("rparen", ch, i))
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(("number", m.group(), i))
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def _joined_depth(left_depth: int, right_depth: int) -> int:
    """Depth of a binary node over children of these depths; DepthExceeded
    past MAX_DEPTH."""
    d = 1 + max(left_depth, right_depth)
    if d > MAX_DEPTH:
        raise DepthExceeded(f"tree depth exceeds {MAX_DEPTH}")
    return d


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    # Each method returns (node, depth of node). Depth is counted as each
    # binary node is built, so a chain of any length stops at MAX_DEPTH.

    def expr(self) -> tuple[Expr, int]:
        node, d = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return node, d
            self.take()
            right, right_depth = self.term()
            d = _joined_depth(d, right_depth)
            node = make_bin(tok[1], node, right)

    def term(self) -> tuple[Expr, int]:
        node, d = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return node, d
            self.take()
            right, right_depth = self.factor()
            d = _joined_depth(d, right_depth)
            node = make_bin(tok[1], node, right)

    def factor(self) -> tuple[Expr, int]:
        kind, value, pos = self.take()
        if kind == "number":
            return Lit(number_value(value)), 1
        if kind == "lparen":
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise DepthExceeded(f"bracket nesting exceeds {MAX_DEPTH}")
            inner, d = self.expr()
            kind, _, pos = self.take()
            if kind != "rparen":
                raise ExprSyntaxError("expected ')'", pos)
            self.nesting -= 1
            if isinstance(inner, Bin):
                return replace(inner, grouped=True), d
            return inner, d
        raise ExprSyntaxError(f"expected a number or '('", pos)


def parse_expr(text: str) -> Expr:
    """Parse integers/decimals joined by + - * / (aliases accepted) and brackets.

    Decimals become exact rationals. Raises ExprSyntaxError with the
    offending position, DepthExceeded past MAX_DEPTH, or DivisionByZero
    when a divisor evaluates to exactly zero.
    """
    parser = _Parser(text)
    node, _ = parser.expr()
    tok = parser.peek()
    if tok is not None:
        raise ExprSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
    return node


# --- Rendering ---

Style = Literal["minimal_brackets", "step_brackets"]


def format_value(v: Rational) -> str:
    """Render a rational as an integer, a terminating decimal, or num/den."""
    if v.denominator == 1:
        return str(v.numerator)
    digits = _decimal_digits(v.denominator)
    if digits is None:
        return f"{v.numerator}/{v.denominator}"
    scaled = abs(v.numerator) * 10**digits // v.denominator
    body = str(scaled).rjust(digits + 1, "0")
    sign = "-" if v.numerator < 0 else ""
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _decimal_digits(den: int) -> int | None:
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def to_text(e: Expr, style: Style = "minimal_brackets") -> str:
    """Render to a parseable string; re-parsing evaluates equal to `e`.

    step_brackets wraps every binary node in one bracket pair so each pair
    reads as one intended solution step; minimal_brackets emits only the
    brackets required by precedence.
    """
    if style == "step_brackets":
        return _render_steps(e)
    return _render_minimal(e, 0, "", False)


def _render_steps(e: Expr) -> str:
    if isinstance(e, Lit):
        return format_value(e.value)
    return f"({_render_steps(e.left)} {e.op} {_render_steps(e.right)})"


def _render_minimal(e: Expr, parent_prec: int, parent_op: str, is_right: bool) -> str:
    if isinstance(e, Lit):
        return format_value(e.value)
    prec = _PRECEDENCE[e.op]
    text = (
        f"{_render_minimal(e.left, prec, e.op, False)} {e.op} "
        f"{_render_minimal(e.right, prec, e.op, True)}"
    )
    needs = prec < parent_prec or (prec == parent_prec and is_right and parent_op in "-/")
    return f"({text})" if needs else text


# --- Canonical form ---


def canonical_form(e: Expr) -> Expr:
    """Deterministic normal form: associative chains flattened and rebuilt
    left-leaning, commutative operands sorted by (value, structure) key,
    grouping flags dropped."""
    return _canonical(e, {})[0]


def _canonical(
    e: Expr, memo: dict[int, tuple[Expr, Expr, Rational]]
) -> tuple[Expr, Rational]:
    """(canonical form of `e`, value of `e`), evaluating each subtree once.

    `memo`, keyed by node identity, lets trees that share subtrees
    canonicalize each shared node once; each entry holds its node, so no
    identity is reused while the memo lives.
    """
    if isinstance(e, Lit):
        return e, e.value
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1], hit[2]
    if e.op in "+*":
        operands = sorted(
            (_canonical(x, memo) for x in _chain(e, e.op)),
            key=lambda form_value: (form_value[1], _struct_key(form_value[0])),
        )
        node, value = operands[0]
        for nxt, nxt_value in operands[1:]:
            node = Bin(e.op, node, nxt)
            value = apply_op(e.op, value, nxt_value)
    else:
        left, lv = _canonical(e.left, memo)
        right, rv = _canonical(e.right, memo)
        node, value = Bin(e.op, left, right), apply_op(e.op, lv, rv)
    memo[id(e)] = (e, node, value)
    return node, value


def _chain(e: Expr, op: str) -> Iterator[Expr]:
    if isinstance(e, Bin) and e.op == op:
        yield from _chain(e.left, op)
        yield from _chain(e.right, op)
    else:
        yield e


def _struct_key(e: Expr):
    if isinstance(e, Lit):
        return (0, e.value)
    return (1, OPS.index(e.op), _struct_key(e.left), _struct_key(e.right))


# --- Rewrite rules ---
#
# Each rule maps a node to the nodes it rewrites to, or () where it does
# not apply.


def _is_op(e: Expr, ops: str) -> bool:
    return isinstance(e, Bin) and e.op in ops


def _commute(e: Expr) -> tuple[Expr, ...]:
    if not _is_op(e, "+*"):
        return ()
    return (Bin(e.op, e.right, e.left),)


def _reassoc(e: Expr) -> tuple[Expr, ...]:
    if not _is_op(e, "+*"):
        return ()
    out: list[Expr] = []
    if _is_op(e.left, e.op):
        out.append(Bin(e.op, e.left.left, Bin(e.op, e.left.right, e.right)))
    if _is_op(e.right, e.op):
        out.append(Bin(e.op, Bin(e.op, e.left, e.right.left), e.right.right))
    return tuple(out)


def _distribute(e: Expr) -> tuple[Expr, ...]:
    if not _is_op(e, "*"):
        return ()
    out: list[Expr] = []
    if _is_op(e.right, "+-"):
        inner = e.right
        out.append(
            Bin(inner.op, Bin("*", e.left, inner.left), Bin("*", e.left, inner.right))
        )
    if _is_op(e.left, "+-"):
        inner = e.left
        out.append(
            Bin(inner.op, Bin("*", inner.left, e.right), Bin("*", inner.right, e.right))
        )
    return tuple(out)


def _factor(e: Expr) -> tuple[Expr, ...]:
    if not (_is_op(e, "+-") and _is_op(e.left, "*") and _is_op(e.right, "*")):
        return ()
    a, b = e.left.left, e.left.right
    c, d = e.right.left, e.right.right
    ca, cb, cc, cd = (canonical_form(x) for x in (a, b, c, d))
    out: list[Expr] = []
    if ca == cc:
        out.append(Bin("*", a, Bin(e.op, b, d)))
    if ca == cd:
        out.append(Bin("*", a, Bin(e.op, b, c)))
    if cb == cc:
        out.append(Bin("*", Bin(e.op, a, d), b))
    if cb == cd:
        out.append(Bin("*", Bin(e.op, a, c), b))
    return tuple(out)


# Division nodes are never restructured by any rule; rewrites inside their
# children are reached through subtree traversal, which keeps every
# transform value-preserving.
REWRITE_RULES = (_commute, _reassoc, _distribute, _factor)


def _subtree_paths(e: Expr, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Expr]]:
    yield path, e
    if isinstance(e, Bin):
        yield from _subtree_paths(e.left, path + (0,))
        yield from _subtree_paths(e.right, path + (1,))


def _replace_at(e: Expr, path: tuple[int, ...], new: Expr) -> Expr:
    if not path:
        return new
    assert isinstance(e, Bin)
    if path[0] == 0:
        return Bin(e.op, _replace_at(e.left, path[1:], new), e.right, e.grouped)
    return Bin(e.op, e.left, _replace_at(e.right, path[1:], new), e.grouped)


def rewrite_neighbors(e: Expr) -> Iterator[Expr]:
    """All expressions reachable from `e` by exactly one rule application."""
    for path, sub in _subtree_paths(e):
        for rule in REWRITE_RULES:
            for out in rule(sub):
                yield _replace_at(e, path, out)


def enumerate_permutations(
    e: Expr,
    max_rewrites: int = 3,
    limit: int = 16,
    seed: int = 0,
) -> list[Expr]:
    """Breadth-first enumeration of equivalent expressions.

    Every output evaluates exactly equal to `e` and is reachable by at
    most `max_rewrites` rule applications. Outputs are distinct by
    canonical form; a member of `e`'s own class is admitted only with a
    different surface form. Within each breadth level candidates are put
    in canonical lexicographic order and then shuffled by `seed`, so the
    result is reproducible. Search stops once `limit` is reached.
    """
    if max_rewrites < 1:
        raise ValueError("max_rewrites must be >= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    rng = random.Random(seed)
    # rewrites share every subtree off their rewrite path with their parent
    memo: dict[int, tuple[Expr, Expr, Rational]] = {}
    source_canon, target = _canonical(e, memo)
    expanded: set[Expr] = {source_canon}
    source_emitted = False
    results: list[Expr] = []
    frontier: list[Expr] = [e]
    for _ in range(max_rewrites):
        level: dict[Expr, Expr] = {}
        for node in frontier:
            for cand in rewrite_neighbors(node):
                if depth(cand) > MAX_DEPTH:
                    continue
                canon, value = _canonical(cand, memo)
                if value != target:
                    continue
                if canon == source_canon:
                    if cand != e and not source_emitted and canon not in level:
                        level[canon] = cand
                    continue
                if canon in expanded or canon in level:
                    continue
                level[canon] = cand
        if not level:
            break
        ordered = sorted(level.items(), key=lambda kv: to_text(kv[0]))
        reps = [cand for _, cand in ordered]
        rng.shuffle(reps)
        results.extend(reps)
        source_emitted = source_emitted or source_canon in level
        frontier = [cand for canon, cand in ordered if canon != source_canon]
        expanded.update(canon for canon, _ in ordered)
        if len(results) >= limit:
            break
    return results[:limit]
