"""Path formulas with node filters as atoms, and the staged checker.

The surface syntax combines the temporal operators with bracketed
filters::

    EX [title = "Google"] | EX EX [title = "Google"]
    EU([count(paper) > 100], [(first = "Paul") and (last = "Erdos")])

Prefix operators (quantifiers and ``!``) bind tightest, then ``&``,
then ``|``; EU/AU/IEU/IAU use function-call syntax.

Parsing is one pass. The formula lexer reads one token per regex
match, and at each '[' it hands the text to the filter lexer and
parser, which stop at the ']' that closes the filter, so filter errors
carry columns of the whole formula. Formulas and filters share one
parser base and one set of connectives: its or/and chain loops build
the same ``Or`` and ``And`` nodes from ``|``/``&`` here and from
``or``/``and`` in filters.

Checking is staged. First every distinct filter of the formula is
evaluated at every node payload, and the set of nodes whose payload
matches it is recorded under a generated proposition id (the labelling
stage). One pass per filter marks a byte per node id, which is packed
into the one form of its label, the id bitset. The network keeps it in
a bounded store, so a filter is evaluated once per network and later
checks read its label. Then filters are substituted by their
proposition ids, preserving the formula's shape. Finally the
propositional checker runs on the labelled network. ``check`` starts
each atom from its stored bitset and builds no key set; the public
``label_nodes`` decodes the key sets of its ``LabelMap`` from the
bitsets, and ``model_check`` encodes them again.
The stages cost O(filters * nodes) for the filters the network has not
stored yet, plus O(formula * (nodes + edges)).
"""

from __future__ import annotations

import re
from itertools import compress

from .ctl import (UNARY_OPS, UNTIL_OPS, And, Atom, Bool, Formula, LabelMap, Not, Or, Temporal,
                  Until, _Checker, _to_bits, _to_flags)
from .errors import FilterTypeError, MissingFilterError, ParseError
from .network import Network
from .xpath import FilterExpr, _compile_filter, _parse_bracketed, _Parser, _Tok, render_filter

_KEYWORDS = {*UNARY_OPS, *UNTIL_OPS, "true", "false"}


def _shown(filter_expr: FilterExpr) -> str:
    """A filter as a diagnostic shows it: its text, quoted, or the repr
    of a tree built by hand that no filter text spells."""
    try:
        return repr(render_filter(filter_expr))
    except ValueError:
        return repr(filter_expr)


class FilterRegistry:
    """Order-preserving bijection between distinct filters and
    generated proposition ids p1, p2, ..."""

    def __init__(self):
        self._prop_of: dict[FilterExpr, str] = {}  # in registration order
        self._filter_of: dict[str, FilterExpr] = {}

    def register(self, filter_expr: FilterExpr) -> str:
        prop = self._prop_of.get(filter_expr)
        if prop is None:
            prop = f"p{len(self._prop_of) + 1}"
            self._prop_of[filter_expr] = prop
            self._filter_of[prop] = filter_expr
        return prop

    def prop_for(self, filter_expr: FilterExpr) -> str:
        try:
            return self._prop_of[filter_expr]
        except KeyError:
            raise MissingFilterError(
                f"filter {_shown(filter_expr)} is not registered"
            ) from None

    def filter_for(self, prop: str) -> FilterExpr:
        try:
            return self._filter_of[prop]
        except KeyError:
            raise MissingFilterError(f"no filter registered for {prop!r}") from None

    def filters(self) -> tuple[FilterExpr, ...]:
        return tuple(self._prop_of)

    def props(self) -> tuple[str, ...]:
        return tuple(self._prop_of.values())

    def __len__(self) -> int:
        return len(self._prop_of)


# ---------------------------------------------------------------------------
# Parsing


# One token per match, after any whitespace, as in the filter lexer: a
# '[' that opens a filter, a symbol, a keyword, the end, or a character
# that starts no token.
_FORMULA_TOKEN = re.compile(r"[ \t\r\n]*(?:(\[)|([&|!(),])|([A-Za-z]+)|(\Z)|(.))", re.DOTALL)


def _tokenize_formula(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    match = _FORMULA_TOKEN.match
    i = 0
    while True:
        m = match(text, i)
        kind = m.lastindex
        i = m.end()
        col = m.start(kind) + 1
        if kind == 1:
            expr, i = _parse_bracketed(text, i - 1)
            toks.append(_Tok("FILTER", expr, col))
        elif kind == 2:
            toks.append(_Tok("SYM", m.group(2), col))
        elif kind == 3:
            word = m.group(3)
            if word not in _KEYWORDS:
                raise ParseError(f"unknown keyword {word!r}", 1, col)
            toks.append(_Tok("WORD", word, col))
        elif kind == 4:
            toks.append(_Tok("END", "", col))
            return toks
        else:
            raise ParseError(f"unexpected character {m.group(5)!r}", 1, col)


# Deepest formula the parser accepts. Each prefix operator, parenthesis
# and until adds a level, and so does each further operand of a & or |
# chain. Later passes recurse over the tree (hashing, filter replacement,
# checking), up to three frames a level, and so does the parser through
# a parenthesis, so this keeps them well inside Python's default
# recursion limit of 1000.
MAX_FORMULA_DEPTH = 150


class _FormulaParser(_Parser):
    what = "formula"
    max_depth = MAX_FORMULA_DEPTH
    or_tok, and_tok = ("SYM", "|"), ("SYM", "&")

    def parse_unary(self) -> tuple[Formula, int]:
        kind, val, col = self.peek()
        if (kind == "SYM" and val == "!") or (kind == "WORD" and val in UNARY_OPS):
            self.next()
            f, depth = self.nested(col, self.parse_unary)
            return (Not(f) if val == "!" else Temporal(val, f)), depth
        if kind == "WORD" and val in UNTIL_OPS:
            self.next()
            self.expect_sym("(")
            left, dl = self.nested(col, self.parse_or)
            self.expect_sym(",")
            right, dr = self.nested(col, self.parse_or)
            self.expect_sym(")")
            return Until(val, left, right), max(dl, dr)
        if kind == "WORD" and val in ("true", "false"):
            self.next()
            return Bool(val == "true"), 0
        if kind == "SYM" and val == "(":
            self.next()
            f, depth = self.nested(col, self.parse_or)
            self.expect_sym(")")
            return f, depth
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
    return _FormulaParser(_tokenize_formula(text), 1).parse()


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
        elif isinstance(f, (Not, Temporal)):
            walk(f.operand)
        elif isinstance(f, (And, Or, Until)):
            walk(f.left)
            walk(f.right)

    walk(formula)
    return found


def _label_bits(net: Network, formula: Formula) -> tuple[dict[str, int], FilterRegistry]:
    """The id bitset of each distinct filter of the formula, by
    proposition id, and the registry: the labelling stage in the one
    form the network stores (see ``label_nodes``)."""
    registry = FilterRegistry()
    for f in collect_filters(formula):
        registry.register(f)
    keys = net.node_keys()
    payloads = net.nodes

    def evaluate(filter_expr: FilterExpr) -> int:
        holds = _compile_filter(filter_expr)
        flags = bytearray(len(keys))  # byte i is 1 where id i matches
        try:
            for i, key in enumerate(keys):
                if holds(payloads[key]):
                    flags[i] = 1
        except FilterTypeError as exc:
            raise FilterTypeError(
                f"filter {_shown(filter_expr)} at node {key!r}: {exc}"
            ) from exc
        return _to_bits(flags)

    bits = {prop: net._label(filter_expr, evaluate)
            for filter_expr, prop in zip(registry.filters(), registry.props())}
    return bits, registry


def label_nodes(net: Network, formula: Formula) -> tuple[LabelMap, FilterRegistry]:
    """Labelling stage: the set of node keys whose payload matches each
    distinct filter of the formula.

    Returns the label map, which holds the set of keys where each
    proposition holds, plus the registry pairing filters with their
    generated proposition ids. A filter is evaluated once per network:
    it is compiled and run at every payload, in one pass over the keys
    that marks a byte per id, and packed into an id bitset, which the
    network keeps in a store bounded by ``_STORED_BYTES_PER_NODE`` bytes
    a node. The key sets are decoded from the bitsets; while a caller
    holds one, later calls on the network return the same set for its
    filter. A FilterTypeError is re-raised annotated with the offending
    node key and filter, and is never stored, so the same filter raises
    the same error on every call; with several failures the first in
    (filter, key) order wins.
    """
    bits, registry = _label_bits(net, formula)
    keys = net.node_keys()
    decoded = net._key_sets
    sat = {}
    for filter_expr, (prop, label) in zip(registry.filters(), bits.items()):
        key_set = decoded.get(filter_expr)
        if key_set is None:
            key_set = decoded[filter_expr] = frozenset(compress(keys, _to_flags(label, len(keys))))
        sat[prop] = key_set
    labels = LabelMap(sat, net._key_set)
    labels._decoded = dict(sat)
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


def _labelled_checker(net: Network, formula: Formula) -> tuple[_Checker, Formula]:
    """Label and replace: a checker whose atoms start from the stored
    bitsets of the formula's filters, and the propositional formula."""
    bits, registry = _label_bits(net, formula)
    checker = _Checker(net, None, {Atom(prop): label for prop, label in bits.items()})
    return checker, replace_filters(formula, registry)


def check(net: Network, formula: Formula) -> frozenset[str]:
    """Label, replace, and model-check; returns the satisfying keys."""
    checker, propositional = _labelled_checker(net, formula)
    return frozenset(checker.keys_in(checker.sat(propositional)))
