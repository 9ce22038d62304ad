"""Path formulas with node filters as atoms, and the staged checker.

The surface syntax combines the temporal operators with bracketed
filters::

    EX [title = "Google"] | EX EX [title = "Google"]
    EU([count(paper) > 100], [(first = "Paul") and (last = "Erdos")])

Prefix operators (quantifiers and ``!``) bind tightest, then ``&``,
then ``|``; EU/AU/IEU/IAU use function-call syntax.

Checking is staged. First every distinct filter of the formula is
evaluated at every node payload and recorded under a generated
proposition id (the labelling stage, equivalent to selecting the nodes
whose payload matches each filter). Then filters are substituted by
their proposition ids, preserving the formula's shape. Finally the
propositional checker runs on the labelled network. The stages cost
O(filters * nodes) plus O(formula * (nodes + edges)).
"""

from __future__ import annotations

from .ctl import And, Atom, Bool, Formula, LabelMap, Not, Or, Temporal, Until, model_check
from .errors import FilterTypeError, MissingFilterError, ParseError
from .network import Network
from .xpath import FilterExpr, _compile_filter, parse_filter, render_filter

_UNARY_KEYWORDS = {"EX", "AX", "EF", "AF", "EG", "AG",
                   "IEX", "IAX", "IEF", "IAF", "IEG", "IAG"}
_UNTIL_KEYWORDS = {"EU", "AU", "IEU", "IAU"}


class FilterRegistry:
    """Order-preserving bijection between distinct filters and
    generated proposition ids p1, p2, ..."""

    def __init__(self):
        self._prop_of: dict[FilterExpr, str] = {}
        self._filter_of: dict[str, FilterExpr] = {}
        self._order: list[FilterExpr] = []

    def register(self, filter_expr: FilterExpr) -> str:
        prop = self._prop_of.get(filter_expr)
        if prop is None:
            prop = f"p{len(self._order) + 1}"
            self._prop_of[filter_expr] = prop
            self._filter_of[prop] = filter_expr
            self._order.append(filter_expr)
        return prop

    def prop_for(self, filter_expr: FilterExpr) -> str:
        try:
            return self._prop_of[filter_expr]
        except KeyError:
            raise MissingFilterError(
                f"filter {render_filter(filter_expr)!r} is not registered"
            ) from None

    def filter_for(self, prop: str) -> FilterExpr:
        try:
            return self._filter_of[prop]
        except KeyError:
            raise MissingFilterError(f"no filter registered for {prop!r}") from None

    def filters(self) -> tuple[FilterExpr, ...]:
        return tuple(self._order)

    def props(self) -> tuple[str, ...]:
        return tuple(self._prop_of[f] for f in self._order)

    def __len__(self) -> int:
        return len(self._order)


# ---------------------------------------------------------------------------
# Parsing


def _extract_filter(text: str, start: int) -> tuple[FilterExpr, int]:
    """Parse the bracketed filter starting at text[start] == '['.

    Returns (filter, index past the closing bracket). Tracks nesting
    and string literals so brackets inside predicates do not end the
    filter early.
    """
    depth = 0
    quote = None
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if quote is not None:
            if c == quote:
                quote = None
        elif c in "'\"":
            quote = c
        elif c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
            if depth == 0:
                inner = text[start + 1 : i]
                try:
                    return parse_filter(inner), i + 1
                except ParseError as exc:
                    raise ParseError(
                        f"in filter: {exc.message}", 1, start + 1 + exc.column
                    ) from exc
        i += 1
    raise ParseError("unterminated filter bracket", 1, start + 1)


def _tokenize_formula(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        col = i + 1
        if c == "[":
            expr, i = _extract_filter(text, i)
            toks.append(("FILTER", expr, col))
            continue
        if c in "&|!(),":
            toks.append(("SYM", c, col))
            i += 1
            continue
        if c.isascii() and c.isalpha():
            j = i
            while j < n and text[j].isascii() and text[j].isalpha():
                j += 1
            word = text[i:j]
            if (
                word in _UNARY_KEYWORDS
                or word in _UNTIL_KEYWORDS
                or word in ("true", "false")
            ):
                toks.append(("WORD", word, col))
                i = j
                continue
            raise ParseError(f"unknown keyword {word!r}", 1, col)
        raise ParseError(f"unexpected character {c!r}", 1, col)
    toks.append(("END", "", n + 1))
    return toks


# Deepest formula the parser accepts. Each prefix operator, parenthesis
# and until adds a level, and so does each further operand of a & or |
# chain. Later passes recurse over the tree (hashing, filter replacement,
# checking), up to three frames a level, and so does the parser through
# a parenthesis, so this keeps them well inside Python's default
# recursion limit of 1000.
MAX_FORMULA_DEPTH = 150


class _FormulaParser:
    """Recursive descent; every parse method returns (formula, depth),
    where a bare atom has depth 0."""

    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.open = 0  # prefix operators, parentheses and untils being parsed

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_sym(self, value: str) -> None:
        kind, val, col = self.next()
        if kind != "SYM" or val != value:
            raise ParseError(f"expected {value!r}", 1, col)

    def within(self, depth: int, col: int) -> int:
        if depth > MAX_FORMULA_DEPTH:
            raise ParseError(
                f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", 1, col
            )
        return depth

    def enter(self, col: int) -> None:
        # checked on the way down as well, so that the parser's own
        # recursion is bounded before any subtree is complete
        self.open = self.within(self.open + 1, col)

    def parse(self) -> Formula:
        f, _ = self.parse_or()
        kind, val, col = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected trailing input {val!r}", 1, col)
        return f

    def parse_or(self) -> tuple[Formula, int]:
        f, depth = self.parse_and()
        while self._at_sym("|"):
            col = self.next()[2]
            g, d = self.parse_and()
            f, depth = Or(f, g), self.within(max(depth, d) + 1, col)
        return f, depth

    def parse_and(self) -> tuple[Formula, int]:
        f, depth = self.parse_unary()
        while self._at_sym("&"):
            col = self.next()[2]
            g, d = self.parse_unary()
            f, depth = And(f, g), self.within(max(depth, d) + 1, col)
        return f, depth

    def _at_sym(self, value: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "SYM" and val == value

    def parse_unary(self) -> tuple[Formula, int]:
        kind, val, col = self.peek()
        if (kind == "SYM" and val == "!") or (kind == "WORD" and val in _UNARY_KEYWORDS):
            self.next()
            self.enter(col)
            f, depth = self.parse_unary()
            self.open -= 1
            f = Not(f) if val == "!" else Temporal(val, f)
            return f, self.within(depth + 1, col)
        if kind == "WORD" and val in _UNTIL_KEYWORDS:
            self.next()
            self.expect_sym("(")
            self.enter(col)
            left, dl = self.parse_or()
            self.expect_sym(",")
            right, dr = self.parse_or()
            self.expect_sym(")")
            self.open -= 1
            return Until(val, left, right), self.within(max(dl, dr) + 1, col)
        if kind == "WORD" and val in ("true", "false"):
            self.next()
            return Bool(val == "true"), 0
        if kind == "SYM" and val == "(":
            self.next()
            self.enter(col)
            f, depth = self.parse_or()
            self.expect_sym(")")
            self.open -= 1
            return f, self.within(depth + 1, col)
        if kind == "FILTER":
            self.next()
            return Atom(val), 0
        raise ParseError("expected a formula", 1, col)


def parse_formula(text: str) -> Formula:
    """Parse the combined language; atoms hold filter expressions.
    Raises ParseError with a character offset; errors inside a bracketed
    filter carry the offset within the whole formula text. A formula
    nested deeper than ``MAX_FORMULA_DEPTH`` levels is a ParseError at
    the operator, parenthesis or until that goes past it."""
    toks = _tokenize_formula(text)
    if toks[0][0] == "END":
        raise ParseError("empty formula", 1, 1)
    return _FormulaParser(toks).parse()


# ---------------------------------------------------------------------------
# Staged checking


def collect_filters(formula: Formula) -> list[FilterExpr]:
    """Distinct filter atoms in first-occurrence order."""
    found: list[FilterExpr] = []
    seen: set[FilterExpr] = set()

    def walk(f: Formula) -> None:
        if isinstance(f, Atom):
            if f.value not in seen:
                seen.add(f.value)
                found.append(f.value)
        elif isinstance(f, Not):
            walk(f.operand)
        elif isinstance(f, Temporal):
            walk(f.operand)
        elif isinstance(f, (And, Or)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Until):
            walk(f.left)
            walk(f.right)

    walk(formula)
    return found


def label_nodes(net: Network, formula: Formula) -> tuple[LabelMap, FilterRegistry]:
    """Labelling stage: evaluate each distinct filter of the formula at
    every node payload.

    Returns the label map plus the registry pairing filters with their
    generated proposition ids. Each filter is compiled once and then run
    at every payload. A FilterTypeError is re-raised annotated with the
    offending node key and filter; with several failures the first in
    (filter, key) order wins.
    """
    registry = FilterRegistry()
    for f in collect_filters(formula):
        registry.register(f)
    keys = net.node_keys()
    assignments: dict[str, set[str]] = {k: set() for k in keys}
    for filter_expr, prop in zip(registry.filters(), registry.props()):
        holds = _compile_filter(filter_expr)
        for key in keys:
            try:
                if holds(net.payload(key)):
                    assignments[key].add(prop)
            except FilterTypeError as exc:
                raise FilterTypeError(
                    f"filter {render_filter(filter_expr)!r} at node {key!r}: {exc}"
                ) from exc

    labels = LabelMap(
        frozenset(registry.props()),
        {k: frozenset(v) for k, v in assignments.items()},
    )
    return labels, registry


def replace_filters(formula: Formula, registry: FilterRegistry) -> Formula:
    """Replacement stage: swap each filter atom for its proposition id.

    Purely structural, so the output has the same length and shape;
    raises MissingFilterError for a filter the registry has not seen.
    """
    if isinstance(formula, Bool):
        return formula
    if isinstance(formula, Atom):
        return Atom(registry.prop_for(formula.value))
    if isinstance(formula, Not):
        return Not(replace_filters(formula.operand, registry))
    if isinstance(formula, And):
        return And(replace_filters(formula.left, registry),
                   replace_filters(formula.right, registry))
    if isinstance(formula, Or):
        return Or(replace_filters(formula.left, registry),
                  replace_filters(formula.right, registry))
    if isinstance(formula, Temporal):
        return Temporal(formula.op, replace_filters(formula.operand, registry))
    return Until(formula.op, replace_filters(formula.left, registry),
                 replace_filters(formula.right, registry))


def check(net: Network, formula: Formula) -> frozenset[str]:
    """Label, replace, and model-check; returns the satisfying keys."""
    labels, registry = label_nodes(net, formula)
    propositional = replace_filters(formula, registry)
    return model_check(net, labels, propositional)
