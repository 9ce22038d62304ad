"""Navigational filter language over document trees.

A filter is a boolean combination of location paths, comparisons, and
the count/contains functions, evaluated at one element of a tree.
Location paths are built from nine axes (child, descendant,
descendant-or-self, parent, ancestor, self, attribute, following-sibling,
preceding-sibling) with name, ``*``, and ``text()`` node tests plus
boolean predicates; `` p/q ``, ``//``, ``@a``, ``.`` and ``..`` are the
usual abbreviations. Path results are duplicate-free and in document
order.

Comparison semantics are existential over sequences: a path's values
are its items' string values, any other operand has one value, and a
comparison holds when some pair of values does. The relational
operators ``<``, ``<=``, ``>``, ``>=`` coerce both sides to decimal
numbers and raise FilterTypeError when a string value does not parse.
``=`` and ``!=`` compare numerically when either side is a number
literal or a count, as booleans when either side is a contains(), and
by string value otherwise. Values are converted pair by pair, the left
before the right, so the first pair that meets a bad value raises. A
literal is converted once, when the filter is compiled; one that does
not convert stays as written and raises only when a pair reaches it.

A filter is compiled once into nested closures, kept by filter in a
bounded cache, and then run at each context item. Within one
evaluation, a predicate's result at an item is cached, so a predicate
reached from many items of an outer path is evaluated once per item;
the cache is dropped when the evaluation returns.

Each step maps a context list, duplicate-free and in document order, to
a list of the same kind, using the document-order ranks of the items
(see ``xmldoc``). A descendant or descendant-or-self step takes the
slice ``doc[pos + 1 : end + 1]`` (``doc[pos : end + 1]``) of each
context's subtree; from many contexts it is one pass that skips every
context inside the subtree taken last, so the slices neither overlap
nor need sorting. An ancestor step returns top-down and, from many
contexts, stops climbing at the first rank it has passed. The other
steps from many contexts merge their results by rank. A predicate that
walks up, such as ``descendant::d[ancestor::d]``, still costs the depth
of each item it tests, and ``contains`` reads whole string values, so
both stay above linear on deeply nested payloads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from ._hashing import hashed_once
from .errors import FilterTypeError, ParseError
from .xmldoc import XmlAttribute, XmlElement, XmlItem, XmlText, _rank, string_value


class Axis(Enum):
    CHILD = "child"
    DESCENDANT = "descendant"
    DESCENDANT_OR_SELF = "descendant-or-self"
    PARENT = "parent"
    ANCESTOR = "ancestor"
    SELF = "self"
    ATTRIBUTE = "attribute"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING_SIBLING = "preceding-sibling"


_AXIS_BY_NAME = {a.value: a for a in Axis}


@hashed_once
@dataclass(frozen=True)
class NameTest:
    name: str


@hashed_once
@dataclass(frozen=True)
class AnyElementTest:
    """The ``*`` test: any element (any attribute, on the attribute axis)."""


@hashed_once
@dataclass(frozen=True)
class TextTest:
    """The ``text()`` test."""


@hashed_once
@dataclass(frozen=True)
class AnyItemTest:
    """Matches any item; used by the ``.``, ``..`` and ``//`` expansions."""


NodeTest = NameTest | AnyElementTest | TextTest | AnyItemTest


# The steps that test any item, as written: ``//`` is the empty step
# between two slashes.
_ANY_ITEM_FORMS = {Axis.SELF: ".", Axis.PARENT: "..", Axis.DESCENDANT_OR_SELF: ""}


@hashed_once
@dataclass(frozen=True)
class Step:
    axis: Axis
    test: NodeTest
    predicates: tuple = ()

    def __post_init__(self):
        # AnyItemTest is written only as ., .. or //, which take no
        # predicate; any other such step could not be written back.
        if self.test.__class__ is AnyItemTest and (
            self.predicates or self.axis not in _ANY_ITEM_FORMS
        ):
            raise ValueError(f"only '.', '..' and '//' test any item, not a "
                             f"{self.axis.value} step with {len(self.predicates)} predicates")


@hashed_once
@dataclass(frozen=True)
class LocationPath:
    steps: tuple[Step, ...]

    def __post_init__(self):
        # ``//`` is always followed by a step, so a path cannot end in one.
        if self.steps:
            last = self.steps[-1]
            if last.axis is Axis.DESCENDANT_OR_SELF and last.test.__class__ is AnyItemTest:
                raise ValueError("a path cannot end in a bare '//' step")


def _check_quotes(s: str) -> None:
    # The grammar has no escapes, so a string holds one kind of quote at
    # most; a value with both could not be written back as a filter.
    if '"' in s and "'" in s:
        raise ValueError(f"a filter string cannot hold both quote kinds: {s!r}")


@hashed_once
@dataclass(frozen=True)
class StringLiteral:
    value: str

    def __post_init__(self):
        _check_quotes(self.value)


@hashed_once
@dataclass(frozen=True)
class NumberLiteral:
    value: Decimal


@hashed_once
@dataclass(frozen=True)
class CountExpr:
    path: LocationPath


@hashed_once
@dataclass(frozen=True)
class Contains:
    path: LocationPath
    needle: str

    def __post_init__(self):
        _check_quotes(self.needle)


Operand = LocationPath | StringLiteral | NumberLiteral | CountExpr | Contains


@hashed_once
@dataclass(frozen=True)
class And:
    left: "FilterExpr"
    right: "FilterExpr"


@hashed_once
@dataclass(frozen=True)
class Or:
    left: "FilterExpr"
    right: "FilterExpr"


@hashed_once
@dataclass(frozen=True)
class Not:
    operand: "FilterExpr"


@hashed_once
@dataclass(frozen=True)
class Comparison:
    left: Operand
    op: str  # = != < <= > >=
    right: Operand

    def __post_init__(self):
        if self.op not in _COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@hashed_once
@dataclass(frozen=True)
class Exists:
    path: LocationPath


FilterExpr = (
    And | Or | Not | Comparison | Exists | Contains | CountExpr
    | StringLiteral | NumberLiteral | LocationPath
)


# ---------------------------------------------------------------------------
# Tokenizer


_COMPARE_OPS = ("!=", "<=", ">=", "=", "<", ">")
_FILTER_NAME_RE = r"[A-Za-z_][A-Za-z0-9_.\-]*"
_FILTER_NAME = re.compile(_FILTER_NAME_RE)

# One token per match, after any whitespace; the group that matched
# gives the token's kind. A number is Unicode decimal digits, as \d
# reads them, with an optional fraction. A quote that is never closed,
# or any other character that starts no token, falls to the last group.
_FILTER_TOKEN = re.compile(
    rf"""[ \t\r\n]*(?:("[^"]*"|'[^']*')|(\d+(?:\.\d+)?)|({_FILTER_NAME_RE})"""
    r"""|(::|//|\.\.|[!<>]=|[()/@=<>,.*])|(\[)|(\])|(\Z)|(.))""",
    re.DOTALL,
)
_FILTER_KINDS = (None, "STRING", "NUMBER", "NAME", "SYM")


class _Tok(NamedTuple):
    """A token of a filter, or of a formula (kind FILTER holds a parsed
    filter)."""

    kind: str  # NAME NUMBER STRING SYM FILTER END
    value: object
    col: int  # 1-based character offset into the whole text


def _lex_filter(text: str, start: int, bracketed: bool) -> list[_Tok]:
    """Tokens of the filter that starts at ``text[start]``, ending in an
    END token. A bracketed filter stops at the first ']' that closes no
    '[' of its own, and its END token, with value ']', takes that
    column; if the text ends first, its END token has value ''."""
    toks: list[_Tok] = []
    depth = 0
    match = _FILTER_TOKEN.match
    i = start
    while True:
        m = match(text, i)
        kind = m.lastindex
        i = m.end()
        col = m.start(kind) + 1
        if kind == 1:
            toks.append(_Tok("STRING", m.group(1)[1:-1], col))
        elif kind <= 4:
            toks.append(_Tok(_FILTER_KINDS[kind], m.group(kind), col))
        elif kind == 5:
            depth += 1
            toks.append(_Tok("SYM", "[", col))
        elif kind == 6:
            if bracketed and depth == 0:
                toks.append(_Tok("END", "]", col))
                return toks
            depth -= 1
            toks.append(_Tok("SYM", "]", col))
        elif kind == 7:
            toks.append(_Tok("END", "", col))
            return toks
        else:
            c = m.group(kind)
            message = "unterminated string literal" if c in "'\"" else f"unexpected character {c!r}"
            raise ParseError(message, 1, col)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over tokens ending in END, shared by filters
    and formulas. A subclass names what it parses, how deep that may
    nest, its chain tokens ``or_tok`` and ``and_tok`` as (kind, value)
    and the nodes ``make_or`` and ``make_and`` they build, and provides
    ``parse_unary``, an operand of an and chain. Its parse methods that
    can nest return (result, depth), where one without nesting is 0."""

    what = ""
    max_depth = 0

    def __init__(self, toks: list[_Tok], start: int):
        self.toks = toks
        self.start = start  # column where the parsed text begins
        self.i = 0
        self.open = 0  # levels being parsed

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_sym(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.value == value

    def expect_sym(self, value: str) -> None:
        tok = self.next()
        if tok.kind != "SYM" or tok.value != value:
            raise ParseError(f"expected {value!r}", 1, tok.col)

    def error(self, message: str):
        raise ParseError(message, 1, self.peek().col)

    def within(self, depth: int, col: int) -> int:
        if depth > self.max_depth:
            raise ParseError(
                f"{self.what} nested deeper than {self.max_depth} levels", 1, col
            )
        return depth

    def nested(self, col: int, parse, levels: int = 1):
        """(result, depth) of ``parse`` for the part that the token at
        ``col`` opens, ``levels`` deeper. Every level opens here; the
        caller reads the closing token after, so depth errors come first."""
        # checked on the way down as well, so that the parser's own
        # recursion is bounded before any subtree is complete
        self.open = self.within(self.open + levels, col)
        result, depth = parse()
        self.open -= levels
        return result, self.within(depth + levels, col)

    def parse_or(self):
        expr, depth = self.parse_and()
        while self.toks[self.i][:2] == self.or_tok:
            col = self.next().col
            right, d = self.parse_and()
            expr, depth = self.make_or(expr, right), self.within(max(depth, d) + 1, col)
        return expr, depth

    def parse_and(self):
        expr, depth = self.parse_unary()
        while self.toks[self.i][:2] == self.and_tok:
            col = self.next().col
            right, d = self.parse_unary()
            expr, depth = self.make_and(expr, right), self.within(max(depth, d) + 1, col)
        return expr, depth

    def parse(self):
        if self.peek().kind == "END":
            raise ParseError(f"empty {self.what}", 1, self.start)
        result, _ = self.parse_or()
        tok = self.peek()
        if tok.kind != "END":
            shown = f"[{render_filter(tok.value)}]" if tok.kind == "FILTER" else tok.value
            self.error(f"unexpected trailing input {shown!r}")
        return result


# Deepest filter the parser accepts. Each not() and parenthesis adds a
# level, and so does each further operand of an and/or chain. A
# predicate adds three, for the step, the path and the test around the
# next predicate. Later passes recurse over the tree (hashing, equality,
# evaluation, rendering) at up to four frames a level, so this keeps
# them well inside Python's default recursion limit of 1000, also for a
# filter inside a formula at its own cap.
MAX_FILTER_DEPTH = 60
_PREDICATE_LEVELS = 3


class _FilterParser(_Parser):
    what = "filter"
    max_depth = MAX_FILTER_DEPTH
    or_tok, and_tok = ("NAME", "or"), ("NAME", "and")
    make_or, make_and = Or, And

    def _at_call(self, word: str) -> bool:
        tok = self.peek()
        return (tok.kind == "NAME" and tok.value == word
                and self.toks[self.i + 1][:2] == ("SYM", "("))

    def parse_unary(self) -> tuple[FilterExpr, int]:
        if self._at_call("not"):
            col = self.next().col
            self.expect_sym("(")
            inner, depth = self.nested(col, self.parse_or)
            self.expect_sym(")")
            return Not(inner), depth
        return self.parse_cmp()

    def parse_cmp(self) -> tuple[FilterExpr, int]:
        if self.at_sym("("):
            inner, depth = self.nested(self.next().col, self.parse_or)
            self.expect_sym(")")
            return inner, depth
        left, depth = self.parse_operand()
        tok = self.peek()
        if tok.kind == "SYM" and tok.value in _COMPARE_OPS:
            self.next()
            right, d = self.parse_operand()
            return Comparison(left, tok.value, right), max(depth, d)
        # A bare path means existence; other bare operands keep their
        # boolean coercion.
        if isinstance(left, LocationPath):
            return Exists(left), depth
        return left, depth

    def parse_operand(self) -> tuple[Operand, int]:
        tok = self.peek()
        if tok.kind == "STRING":
            self.next()
            return StringLiteral(tok.value), 0
        if tok.kind == "NUMBER":
            self.next()
            return NumberLiteral(Decimal(tok.value)), 0
        if self._at_call("count"):
            self.next()
            self.expect_sym("(")
            path, depth = self.parse_path()
            self.expect_sym(")")
            return CountExpr(path), depth
        if self._at_call("contains"):
            self.next()
            self.expect_sym("(")
            path, depth = self.parse_path()
            self.expect_sym(",")
            stok = self.next()
            if stok.kind != "STRING":
                raise ParseError("expected a string literal", 1, stok.col)
            self.expect_sym(")")
            return Contains(path, stok.value), depth
        return self.parse_path()

    def parse_path(self) -> tuple[LocationPath, int]:
        steps: list[Step] = []
        depth = 0
        while True:
            if self.at_sym("//"):
                self.next()
                steps.append(Step(Axis.DESCENDANT_OR_SELF, AnyItemTest()))
            elif steps:
                if not self.at_sym("/"):
                    return LocationPath(tuple(steps)), depth
                self.next()
            step, d = self.parse_step()
            steps.append(step)
            depth = max(depth, d)

    def parse_step(self) -> tuple[Step, int]:
        tok = self.peek()
        if self.at_sym("."):
            self.next()
            return Step(Axis.SELF, AnyItemTest()), 0
        if self.at_sym(".."):
            self.next()
            return Step(Axis.PARENT, AnyItemTest()), 0
        if self.at_sym("@"):
            self.next()
            name_tok = self.next()
            if name_tok.kind != "NAME":
                raise ParseError("expected attribute name after '@'", 1, name_tok.col)
            return Step(Axis.ATTRIBUTE, NameTest(name_tok.value)), 0
        axis = Axis.CHILD
        if tok.kind == "NAME" and self.toks[self.i + 1][:2] == ("SYM", "::"):
            axis = _AXIS_BY_NAME.get(tok.value)
            if axis is None:
                raise ParseError(f"unknown axis {tok.value!r}", 1, tok.col)
            self.next()
            self.next()  # '::'
        test = self.parse_test()
        preds, depth = self.parse_predicates()
        return Step(axis, test, preds), depth

    def parse_test(self) -> NodeTest:
        tok = self.peek()
        if tok.kind == "SYM" and tok.value == "*":
            self.next()
            return AnyElementTest()
        if tok.kind == "NAME":
            if self._at_call("text"):
                self.next()
                self.expect_sym("(")
                self.expect_sym(")")
                return TextTest()
            self.next()
            return NameTest(tok.value)
        self.error("expected a node test")

    def parse_predicates(self) -> tuple[tuple, int]:
        preds: list[FilterExpr] = []
        depth = 0
        while self.at_sym("["):
            pred, d = self.nested(self.next().col, self.parse_or, _PREDICATE_LEVELS)
            self.expect_sym("]")
            preds.append(pred)
            depth = max(depth, d)
        return tuple(preds), depth


def parse_filter(text: str) -> FilterExpr:
    """Parse a filter expression; raises ParseError with a character
    offset on malformed input, and at the not(), parenthesis, predicate
    or operator that takes it deeper than ``MAX_FILTER_DEPTH`` levels."""
    return _FilterParser(_lex_filter(text, 0, bracketed=False), 1).parse()


def _parse_bracketed(text: str, start: int) -> tuple[FilterExpr, int]:
    """Parse the filter between the '[' at ``text[start]`` and the ']'
    that closes it. Returns the filter and the index past that ']'.
    Error columns are offsets into the whole text, and errors inside
    the brackets say "in filter"."""
    try:
        toks = _lex_filter(text, start + 1, bracketed=True)
        closed = toks[-1].value == "]"
        expr = _FilterParser(toks, start + 2).parse() if closed else None
    except ParseError as exc:
        raise ParseError(f"in filter: {exc.message}", 1, exc.column) from exc
    if expr is None:
        raise ParseError("unterminated filter bracket", 1, start + 1)
    return expr, toks[-1].col


# ---------------------------------------------------------------------------
# Evaluation
#
# Compiling settles node tests, the type each comparison is made on and
# the converted value of each literal that converts. A path whose values
# are wanted, not its items, and whose last step is a plain ``@name``
# reads that attribute from ``attrs`` on the elements the other steps
# reach, so no attribute item is built for it; ``eval_path`` and every
# other attribute step build the items. Each predicate's memo is
# registered in ``memos``, and the top-level function clears them all
# when it returns. Every step maps a context list, duplicate-free and in
# document order, to a list of the same kind.


def eval_filter(expr: FilterExpr, context: XmlElement) -> bool:
    """Evaluate a filter at an element; raises FilterTypeError when a
    relational comparison meets a value that is not a number."""
    return _compile_filter(expr)(context)


def eval_path(path: LocationPath, context: XmlItem) -> list[XmlItem]:
    """Evaluate a location path at a context item.

    Returns a duplicate-free list in document order. Each step's
    predicates filter that step's result.
    """
    memos: list[dict] = []
    return _top_level(_compile_path(path.steps, memos), memos)(context)


@lru_cache(maxsize=256)
def _compile_filter(expr: FilterExpr):
    """Compile a filter into a function of the context item that returns
    the same bool, or raises the same FilterTypeError, as evaluating it
    there. Compiled filters are kept by filter, a bounded number of them;
    each holds no item once it returns."""
    memos: list[dict] = []
    return _top_level(_compile_bool(expr, memos), memos)


def _top_level(run, memos: list[dict]):
    def call(context):
        ranked = context.__class__ is XmlElement and context.doc is not None
        doc = None if ranked else _rank(context)  # a tree built by hand, for this call
        try:
            return run(context)
        finally:
            for memo in memos:
                memo.clear()
            if doc is not None:  # so that the next call sees the tree as it is then
                for item in doc:
                    if item.__class__ is XmlElement:
                        item.doc = None

    return call


def _compile_bool(expr: FilterExpr, memos: list[dict]):
    if isinstance(expr, And):
        left, right = _compile_bool(expr.left, memos), _compile_bool(expr.right, memos)
        return lambda item: left(item) and right(item)
    if isinstance(expr, Or):
        left, right = _compile_bool(expr.left, memos), _compile_bool(expr.right, memos)
        return lambda item: left(item) or right(item)
    if isinstance(expr, Not):
        operand = _compile_bool(expr.operand, memos)
        return lambda item: not operand(item)
    if isinstance(expr, Comparison):
        return _compile_comparison(expr, memos)
    if isinstance(expr, Contains):
        values, needle = _compile_values(expr.path, memos), expr.needle
        return lambda item: any(needle in value for value in values(item))
    if isinstance(expr, (Exists, CountExpr, LocationPath)):
        path = expr if isinstance(expr, LocationPath) else expr.path
        found = _attribute_values(path, memos) or _compile_path(path.steps, memos)
        return lambda item: bool(found(item))
    if isinstance(expr, StringLiteral):
        value = expr.value != ""
        return lambda item: value
    if isinstance(expr, NumberLiteral):
        value = expr.value != 0
        return lambda item: value
    raise AssertionError(expr)


def _compile_path(steps, memos: list[dict]):
    """Function from a context item to the items the steps reach."""
    compiled = [_compile_step(step, memos) for step in steps]

    def run(item):
        items = [item]
        for step in compiled:
            if not items:
                break
            items = step(items)
        return items

    return run


def _compile_step(step: Step, memos: list[dict]):
    select = _compile_axis(step.axis, step.test)
    preds = [_compile_predicate(pred, memos) for pred in step.predicates]
    if not preds:
        return select

    def run(items):
        found = select(items)
        for pred in preds:
            found = [it for it in found if pred(it)]
        return found

    return run


def _compile_predicate(pred: FilterExpr, memos: list[dict]):
    test = _compile_bool(pred, memos)
    memo: dict = {}
    memos.append(memo)

    def run(item):
        hit = memo.get(item)
        if hit is None:
            hit = memo[item] = test(item)
        return hit

    return run


def _compile_axis(axis: Axis, test: NodeTest):
    """Function from a context list, duplicate-free and in document
    order, to a new list of the items on the axis of any of them that
    pass the node test, also duplicate-free and in document order."""
    if axis is Axis.ATTRIBUTE and isinstance(test, NameTest):
        return _named_attributes(test.name)
    keep = _node_test(axis, test)
    if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
        collect = _subtrees(axis is Axis.DESCENDANT_OR_SELF)
    elif axis is Axis.ANCESTOR:
        collect = _ancestors
    elif axis is Axis.SELF:
        return keep
    else:
        return _merged(axis, keep)
    if keep is list:
        return collect
    return lambda items: keep(collect(items))


def _node_test(axis: Axis, test: NodeTest):
    """Function from a list of items on the axis to a new list of those
    that pass the test."""
    if isinstance(test, AnyItemTest):
        return list
    if isinstance(test, TextTest):
        if axis is Axis.ATTRIBUTE:
            return lambda found: []
        return lambda found: [c for c in found if isinstance(c, XmlText)]
    kind = XmlAttribute if axis is Axis.ATTRIBUTE else XmlElement
    if isinstance(test, NameTest):
        name = test.name
        return lambda found: [c for c in found if isinstance(c, kind) and c.name == name]
    return lambda found: [c for c in found if isinstance(c, kind)]


def _named_attributes(name: str):
    def collect(items):
        found = []
        for item in items:
            # Looking in ``attrs`` first leaves the items unbuilt on a miss.
            if isinstance(item, XmlElement) and name in item.attrs:
                found += [a for a in item._attr_items or item.attr_items if a.name == name]
        return found

    return collect


def _subtrees(or_self: bool):
    """The descendant axis, or descendant-or-self. An element's subtree
    is the slice ``doc[pos:end + 1]``. A context that lies inside the
    subtree taken last is skipped, so the slices never overlap and
    follow one another in document order."""
    skip = 0 if or_self else 1

    def collect(items):
        found = []
        last = -1  # the end rank of the subtree taken last
        for item in items:
            if isinstance(item, XmlElement):
                if item.pos > last:
                    last = item.end
                    found += item.doc[item.pos + skip : last + 1]
            # Attributes come only from attribute steps and from self or
            # descendant-or-self steps on attributes, so a list that
            # holds one holds only attributes.
            elif or_self and (isinstance(item, XmlAttribute) or item.pos > last):
                found.append(item)
        return found

    return collect


def _ancestors(items: list) -> list:
    """The ancestor axis, top-down from each context. The ancestors of a
    context that are not those of an earlier one all follow the ones
    found so far, so the walk up stops at the first rank it has passed."""
    found = []
    for item in items:
        last = found[-1].pos if found else -1
        chain = []
        node = item.owner if isinstance(item, XmlAttribute) else item.parent
        while node is not None and node.pos > last:
            chain.append(node)
            node = node.parent
        found += reversed(chain)
    return found


def _merged(axis: Axis, keep):
    """An axis that takes one context at a time, from a context list.
    The attributes of elements in document order are in document order
    already. Children of distinct contexts never repeat, but those of
    nested contexts interleave, and parents and siblings may repeat
    too, so these are merged by rank."""
    items_of = _AXES[axis]

    def collect(items):
        if len(items) == 1:
            return keep(items_of(items[0]))
        found = []
        for item in items:
            found += items_of(item)
        if axis is not Axis.ATTRIBUTE:
            if axis is not Axis.CHILD:
                found = list(set(found))
            found.sort(key=_POS)
        return keep(found)

    return collect


_POS = operator.attrgetter("pos")


def _parent(item: XmlItem) -> tuple:
    parent = item.owner if isinstance(item, XmlAttribute) else item.parent
    return () if parent is None else (parent,)


def _siblings(item: XmlItem, after: bool):
    if isinstance(item, XmlAttribute) or item.parent is None:
        return ()
    children = item.parent.children
    return children[item.index + 1 :] if after else children[: item.index]


# The axes that take one context at a time, as functions from a context
# item to its items in document order. Attribute steps read the slot
# behind the lazy ``XmlElement.attr_items`` and call the property, a
# function call per access, only to build it.
_AXES = {
    Axis.CHILD: lambda item: item.children if isinstance(item, XmlElement) else (),
    Axis.PARENT: _parent,
    Axis.ATTRIBUTE: lambda item: (
        item._attr_items or item.attr_items if isinstance(item, XmlElement) else ()
    ),
    Axis.FOLLOWING_SIBLING: lambda item: _siblings(item, True),
    Axis.PRECEDING_SIBLING: lambda item: _siblings(item, False),
}


_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)\Z")


@lru_cache(maxsize=4096)
def _to_number(value: str) -> Decimal:
    s = value.strip(" \t\r\n")
    if not _NUMBER_RE.match(s):
        raise FilterTypeError(f"cannot interpret {value!r} as a number")
    return Decimal(s)


_OPERATORS = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

# The converter of a value to the type a comparison is made on, by
# (type of the value, type of the comparison). A value that is of the
# comparison's type already is not converted.
_CONVERT = {("str", "num"): _to_number, ("bool", "num"): Decimal, ("str", "bool"): bool}


def _operand_kind(operand: Operand) -> str:
    if isinstance(operand, (NumberLiteral, CountExpr)):
        return "num"
    if isinstance(operand, Contains):
        return "bool"
    return "str"  # a string literal, or a path's string values


def _compile_comparison(cmp: Comparison, memos: list[dict]):
    """Existential comparison over the operands' values. Numbers are
    compared if the operator is relational or either operand is a
    number, else booleans if either is a contains(), else strings. The
    left operand is evaluated first, then the right one, whose values
    are kept; pairs are then compared in order, converting the left
    value before the right, until one holds. A literal is converted
    once, here; one that does not convert stays as it is and is
    converted whenever a pair reaches it, so that it raises only then,
    as every value of a path does."""
    kinds = _operand_kind(cmp.left), _operand_kind(cmp.right)
    if cmp.op not in ("=", "!=") or "num" in kinds:
        on = "num"
    elif "bool" in kinds:
        on = "bool"
    else:
        on = "str"
    (left, lconv), (right, rconv) = (
        _compile_side(operand, kind, on, memos)
        for operand, kind in zip((cmp.left, cmp.right), kinds)
    )
    compare = _OPERATORS[cmp.op]
    if rconv is None and isinstance(cmp.right, (StringLiteral, NumberLiteral)):
        # The right operand is one value, converted: each left value is
        # compared with it.
        (b,) = right(None)

        def run(item):
            for a in left(item):
                if compare(a if lconv is None else lconv(a), b):
                    return True
            return False

        return run

    def run(item):
        lvals = left(item)
        rvals = tuple(right(item))
        if not rvals:
            return False
        for a in lvals:
            if lconv is not None:
                a = lconv(a)  # once: the first pair that reads it converts it first
            for b in rvals:
                if compare(a, b if rconv is None else rconv(b)):
                    return True
        return False

    return run


def _compile_side(operand: Operand, kind: str, on: str, memos: list[dict]):
    """The operand's values as a function of the context item, and the
    converter each value still needs to the comparison type ``on``, or
    None. A literal's value is converted here, if it converts."""
    conv = _CONVERT.get((kind, on))
    if not isinstance(operand, (StringLiteral, NumberLiteral)):
        return _compile_values(operand, memos), conv
    value = operand.value
    if conv is not None:
        try:
            value, conv = conv(value), None
        except FilterTypeError:
            pass  # kept as written, to raise when a pair reaches it
    value = (value,)
    return (lambda item: value), conv


def _compile_values(operand: Operand, memos: list[dict]):
    """Function from the context item to the values of a path, a count()
    or a contains(): a path's string values, read lazily, or the one
    value of the others."""
    if isinstance(operand, LocationPath):
        values = _attribute_values(operand, memos)
        if values is not None:
            return values
        path = _compile_path(operand.steps, memos)
        return lambda item: map(string_value, path(item))
    if isinstance(operand, CountExpr):
        found = (_attribute_values(operand.path, memos)
                 or _compile_path(operand.path.steps, memos))
        return lambda item: (Decimal(len(found(item))),)
    test = _compile_bool(operand, memos)  # contains()
    return lambda item: (test(item),)


def _attribute_values(path: LocationPath, memos: list[dict]):
    """For a path whose last step is a plain ``attribute::name``, with no
    predicates, a function from the context item to the values of that
    attribute, read from ``attrs`` on each element the steps before it
    reach. Those elements are in document order and each has the
    attribute once, so the values are in the order of the attribute
    items, and no item is built. Any other path gives None."""
    *head, last = path.steps
    if last.axis is not Axis.ATTRIBUTE or last.predicates or not isinstance(last.test, NameTest):
        return None
    name = last.test.name
    if not head:
        return lambda item: (
            (item.attrs[name],) if isinstance(item, XmlElement) and name in item.attrs else ()
        )
    reach = _compile_path(head, memos)
    return lambda item: [
        e.attrs[name] for e in reach(item) if isinstance(e, XmlElement) and name in e.attrs
    ]


# ---------------------------------------------------------------------------
# Rendering (for diagnostics and reports)


def render_filter(expr: FilterExpr) -> str:
    """Render a filter AST back to source form. Every filter that text
    can spell is written as text that parses back to an equal filter,
    except that a bare ``LocationPath`` renders as the ``Exists`` it
    parses back to. The rest, which only a tree built by hand can hold,
    raise ValueError: an empty path, two ``//`` steps in a row, a name
    test that is not a name token, and a signed or non-finite number."""
    if isinstance(expr, Or):
        return f"{render_filter(expr.left)} or {_render_arg(expr.right, Or)}"
    if isinstance(expr, And):
        return f"{_render_arg(expr.left, Or)} and {_render_arg(expr.right, (Or, And))}"
    if isinstance(expr, Not):
        return f"not({render_filter(expr.operand)})"
    if isinstance(expr, Comparison):
        return (
            f"{_render_operand(expr.left)} {expr.op} {_render_operand(expr.right)}"
        )
    if isinstance(expr, Exists):
        return _render_path(expr.path)
    return _render_operand(expr)


def _render_arg(expr: FilterExpr, parenthesised) -> str:
    """An operand of and/or, in parentheses if it is of a type in
    ``parenthesised``: chains nest to the left, and and binds tighter."""
    text = render_filter(expr)
    return f"({text})" if isinstance(expr, parenthesised) else text


def _render_operand(operand) -> str:
    if isinstance(operand, LocationPath):
        return _render_path(operand)
    if isinstance(operand, StringLiteral):
        return _render_string(operand.value)
    if isinstance(operand, NumberLiteral):
        value = Decimal(operand.value)  # exact, also for an int built by hand
        if not value.is_finite() or value.is_signed():
            raise ValueError(f"filter text cannot spell the number {value}")
        return format(value, "f")  # str() writes 1E-7 for 0.0000001
    if isinstance(operand, CountExpr):
        return f"count({_render_path(operand.path)})"
    if isinstance(operand, Contains):
        return f"contains({_render_path(operand.path)}, {_render_string(operand.needle)})"
    raise AssertionError(operand)


def _render_string(s: str) -> str:
    if '"' not in s:
        return f'"{s}"'
    return f"'{s}'"


def _render_path(path: LocationPath) -> str:
    pieces = [_render_step(step) for step in path.steps]  # '//' is the empty piece
    if not pieces or ("", "") in zip(pieces, pieces[1:]):
        raise ValueError("filter text cannot spell an empty path or two '//' steps in a row")
    text = "/".join(pieces)
    return "/" + text if text.startswith("/") else text  # a leading '//'


def _render_step(step: Step) -> str:
    if isinstance(step.test, AnyItemTest):
        return _ANY_ITEM_FORMS[step.axis]
    preds = "".join(f"[{render_filter(p)}]" for p in step.predicates)
    if isinstance(step.test, NameTest):
        test = step.test.name
        if not _FILTER_NAME.fullmatch(test):
            raise ValueError(f"filter text cannot spell the name test {test!r}")
        if step.axis is Axis.ATTRIBUTE and not preds:
            return f"@{test}"
    elif isinstance(step.test, AnyElementTest):
        test = "*"
    else:
        test = "text()"
    if step.axis is Axis.CHILD:
        return f"{test}{preds}"
    return f"{step.axis.value}::{test}{preds}"
