"""Filter language tests: parsing, axes, comparison semantics, rendering."""

import sys
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from netcheck.checker import check, label_nodes, parse_formula
from netcheck.ctl import Atom
from netcheck.errors import FilterTypeError, ParseError
from netcheck.network import Network, parse_network
from netcheck.xmldoc import (
    XmlAttribute,
    XmlElement,
    XmlText,
    parse_xml,
    serialize_xml,
    string_value,
)
from netcheck.xpath import (
    MAX_FILTER_DEPTH,
    And,
    AnyItemTest,
    Axis,
    Comparison,
    Contains,
    CountExpr,
    LocationPath,
    NameTest,
    Not,
    NumberLiteral,
    Or,
    Step,
    StringLiteral,
    _compile_filter,
    eval_filter,
    eval_path,
    parse_filter,
    render_filter,
)

from tests import xpath_reference as reference

DOC = parse_xml(
    '<lib genre="mixed">'
    '<book year="2001" lang="en"><title>Alpha</title><author>Ann</author>'
    "<author>Bob</author></book>"
    '<book year="1999"><title>Beta</title><author>Cid</author></book>'
    "<note>see <em>also</em> shelf 3</note>"
    "</lib>"
)


def holds(text, context=DOC):
    return eval_filter(parse_filter(text), context)


def paths(text, context=DOC):
    return eval_path(parse_filter(text), context)


# -- parsing ------------------------------------------------------------------


def test_empty_filter_rejected():
    with pytest.raises(ParseError):
        parse_filter("")
    with pytest.raises(ParseError):
        parse_filter("   ")


def test_unterminated_string_rejected():
    with pytest.raises(ParseError) as exc:
        parse_filter('title = "Alp')
    assert exc.value.column >= 9


def test_unknown_axis_rejected():
    with pytest.raises(ParseError):
        parse_filter("sideways::x")


def test_trailing_junk_rejected():
    with pytest.raises(ParseError):
        parse_filter("title )")


# Filters nested ``depth`` levels deep, each with the 1-based column of
# the token that opens or continues its deepest level. A predicate is
# three levels: the step, its path and the test around the next one.
FILTER_NESTINGS = {
    "not": lambda d: ("not(" * d + "@a" + ")" * d, 4 * d - 3),
    "parentheses": lambda d: ("(" * d + "@a" + ")" * d, d),
    "or chain": lambda d: (" or ".join(["@a"] * (d + 1)), 6 * d - 2),
    "and chain": lambda d: (" and ".join(["@a"] * (d + 1)), 7 * d - 3),
    "predicates": lambda d: ("*[" * (d // 3) + "@a" + "]" * (d // 3), 2 * (d // 3)),
}


@pytest.mark.parametrize("shape", sorted(FILTER_NESTINGS))
def test_filter_depth_cap(shape):
    text, _ = FILTER_NESTINGS[shape](MAX_FILTER_DEPTH)
    expr = parse_filter(text)
    assert parse_filter(render_filter(expr)) == expr
    assert eval_filter(expr, DOC) is False  # <lib> has no @a
    # predicates come three levels at a time
    over = MAX_FILTER_DEPTH + (3 if shape == "predicates" else 1)
    text, col = FILTER_NESTINGS[shape](over)
    with pytest.raises(ParseError) as exc:
        parse_filter(text)
    assert exc.value.message == f"filter nested deeper than {MAX_FILTER_DEPTH} levels"
    assert exc.value.column == col


def test_depth_reported_before_missing_parenthesis():
    # an unclosed parenthesis around an or chain one operand too long
    text = "(" + " or ".join(["@a"] * (MAX_FILTER_DEPTH + 1))
    with pytest.raises(ParseError) as exc:
        parse_filter(text)
    assert exc.value.message == f"filter nested deeper than {MAX_FILTER_DEPTH} levels"
    assert exc.value.column == 1


def test_numeric_predicate_is_boolean_not_positional():
    # there is no positional selection: [1] is the constant true, [0] false
    assert [e.name for e in paths("book[1]")] == ["book", "book"]
    assert paths("book[0]") == []


def test_keywords_are_contextual():
    # and/or are names in step position
    assert not holds("and", DOC)
    doc = parse_xml("<r><and/><or/></r>")
    assert holds("and", doc)
    assert holds("or and and", doc)


# -- axes and node tests -------------------------------------------------------


def test_child_and_star():
    assert [e.name for e in paths("book")] == ["book", "book"]
    assert [e.name for e in paths("*")] == ["book", "book", "note"]


def test_attribute_axis():
    items = paths("@genre")
    assert len(items) == 1
    assert items[0].value == "mixed"
    assert paths("@missing") == []
    assert [a.value for a in paths("book/@year")] == ["2001", "1999"]


def test_attribute_star():
    values = {a.name for a in paths("book/attribute::*")}
    assert values == {"year", "lang"}


def test_text_node_test():
    note = paths("note")[0]
    texts = [t.text for t in eval_path(parse_filter("text()"), note)]
    assert texts == ["see ", " shelf 3"]


def test_descendant_or_self_double_slash():
    assert [e.name for e in paths(".//author")] == ["author", "author", "author"]
    assert [e.name for e in paths("//em")] == ["em"]


def test_descendant_axis_explicit():
    names = [e.name for e in paths("descendant::*")]
    assert names == [
        "book", "title", "author", "author", "book", "title", "author",
        "note", "em",
    ]


def test_parent_and_ancestor():
    first_author = paths("book/author")[0]
    up = eval_path(parse_filter(".."), first_author)
    assert [e.name for e in up] == ["book"]
    anc = eval_path(parse_filter("ancestor::*"), first_author)
    assert [e.name for e in anc] == ["lib", "book"]


def test_sibling_axes():
    first_book = paths("book")[0]
    fol = eval_path(parse_filter("following-sibling::*"), first_book)
    assert [e.name for e in fol] == ["book", "note"]
    note = paths("note")[0]
    pre = eval_path(parse_filter("preceding-sibling::book"), note)
    assert [e.name for e in pre] == ["book", "book"]


def test_self_axis():
    assert holds("self::lib")
    assert not holds("self::book")


def test_attribute_parent_is_owner():
    year = paths("book/@year")[0]
    owners = eval_path(parse_filter("../title"), year)
    assert [string_value(e) for e in owners] == ["Alpha"]


def test_results_deduplicated_in_document_order():
    # ancestors of three cousins reach the root once
    items = paths(".//author/ancestor::lib")
    assert len(items) == 1
    # union-free grammar: order comes from the final sort
    names = [e.name for e in paths(".//*")]
    assert names == [
        "book", "title", "author", "author", "book", "title", "author",
        "note", "em",
    ]


def test_predicates_filter_steps():
    assert [string_value(t) for t in paths('book[@lang = "en"]/title')] == ["Alpha"]
    assert [string_value(t) for t in paths("book[count(author) = 1]/title")] == ["Beta"]
    assert paths('book[@lang = "fr"]') == []


# -- comparison semantics --------------------------------------------------------


def test_bare_path_is_existence():
    assert holds("note")
    assert not holds("chapter")
    assert holds("book/@lang")


def test_string_equality_is_existential():
    assert holds('book/author = "Bob"')
    assert not holds('book/author = "Zoe"')
    assert holds('book/author != "Bob"')  # some author differs


def test_numeric_comparison_when_number_present():
    assert holds("book/@year = 2001")
    assert holds("book/@year > 2000")
    assert not holds("book/@year > 2001")
    assert holds("2001 <= book/@year")


def test_number_literal_triggers_numeric_equality():
    doc = parse_xml('<r n="007"/>')
    assert holds("@n = 7", doc)
    assert not holds('@n = "7"', doc)
    assert holds('@n = "007"', doc)


def test_count_comparisons():
    assert holds("count(book) = 2")
    assert holds("count(.//author) > 2")
    assert holds("count(chapter) = 0")
    assert not holds("count(book) < 2")


def test_count_against_count():
    assert holds("count(book) < count(.//author)")


def test_nodeset_to_nodeset_equality():
    doc = parse_xml("<r><a>x</a><a>y</a><b>y</b></r>")
    assert holds("a = b", doc)
    assert holds("a != b", doc)  # pair ("x","y") differs
    assert not holds("a = c", doc)  # empty right side


def test_relational_on_non_numeric_raises():
    with pytest.raises(FilterTypeError):
        holds('book/title > 1')
    with pytest.raises(FilterTypeError):
        holds('"abc" < "abd"')


def test_relational_trims_surrounding_whitespace():
    doc = parse_xml("<r><n> 42 </n></r>")
    assert holds("n > 41", doc)


def test_empty_set_comparisons_are_false_not_errors():
    assert not holds("chapter > 1")
    assert not holds('chapter = "x"')


@pytest.mark.parametrize(
    "text, filter_text, pinned",
    [
        # both sides non-numeric: the left value is converted first
        ("<r><a>x</a><b>y</b></r>", "a < b", ("error", "cannot interpret 'x' as a number")),
        # 3 < 2 fails, then the next pair reads y
        ("<r><a>3</a><b>2</b><b>y</b></r>", "a < b", ("error", "cannot interpret 'y' as a number")),
        # 1 < 2 holds before y is read
        ("<r><a>1</a><b>2</b><b>y</b></r>", "a < b", ("value", True)),
        # a literal is converted only when a pair reaches it
        ("<r/>", '"z" < a', ("value", False)),
        ("<r><a>1</a></r>", '"z" < a', ("error", "cannot interpret 'z' as a number")),
        ("<r><a/><a/></r>", 'count(a) = "2"', ("value", True)),
        ("<r><a/><a/></r>", 'count(a) = "two"', ("error", "cannot interpret 'two' as a number")),
        # booleans: contains() against a string's non-emptiness
        ("<r><a>box</a></r>", 'contains(a, "x") = "yes"', ("value", True)),
        ("<r><a>b</a></r>", 'contains(a, "x") = "yes"', ("value", False)),
        # numbers: a boolean reads as 0 or 1
        ("<r><b>q</b></r>", 'count(a) < contains(b, "q")', ("value", True)),
        ("<r><a/><b>q</b></r>", 'count(a) < contains(b, "q")', ("value", False)),
    ],
)
def test_comparison_order_pinned(text, filter_text, pinned):
    # The outcome, and for an error which value it names, is the
    # reference's, and stays as pinned.
    expr, root = parse_filter(filter_text), parse_xml(text)
    assert _outcome(reference.eval_filter, expr, root) == pinned
    assert _outcome(eval_filter, expr, root) == pinned


def test_contains():
    assert holds('contains(note, "shelf")')
    assert holds('contains(note/em, "also")')
    assert not holds('contains(note, "attic")')
    assert not holds('contains(missing, "x")')


def test_boolean_connectives():
    assert holds('note and book')
    assert holds('chapter or note')
    assert not holds("not(note)")
    assert holds("not(chapter)")
    assert holds('(count(book) = 2) and (note or chapter)')


def test_literal_truthiness():
    assert holds('"x"')
    assert not holds('""')
    assert holds("1")
    assert not holds("0")


def test_decimal_not_float_comparison():
    doc = parse_xml('<r a="0.1" b="0.3"/>')
    # 0.1 + 0.2 style artifacts must not appear: exact decimal arithmetic
    assert holds("@b > 0.29999999999999998", doc)
    assert eval_filter(parse_filter("@a < 0.1000000000000000000001"), doc)


def test_upward_navigation_stops_at_detached_root():
    inner = parse_xml("<r><x/></r>")
    x = inner.children[0]
    assert eval_path(parse_filter("ancestor::*"), x)[0].name == "r"
    assert eval_path(parse_filter("ancestor::*"), inner) == []


# -- rendering -------------------------------------------------------------------


CANONICAL = [
    'count(author) = 1 and (year > 2007) and contains(abstract/em, "XML")',
    'contains(abstract/em, "relational")',
    '(first = "Moshe") and (last = "Vardi")',
    'count(paper) > 100',
    ".//beta",
    "@num > 2",
    'not(alpha) or alpha = beta',
    "ancestor::x/child::*[@k != 3]/text()",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_render_parse_fixpoint(text):
    expr = parse_filter(text)
    rendered = render_filter(expr)
    assert parse_filter(rendered) == expr
    # rendering is stable once canonical
    assert render_filter(parse_filter(rendered)) == rendered


@given(st.integers(0, 10 ** 12), st.integers(0, 6))
def test_numeric_equality_matches_decimal(value, scale):
    text = str(value) + ("." + "0" * scale if scale else "")
    doc = parse_xml(f'<r n="{text}"/>')
    assert eval_filter(parse_filter(f"@n = {value}"), doc)
    assert Decimal(text) == Decimal(value)


# -- compiled evaluator against the reference interpreter -------------------------

# Element and attribute names, and the values of attributes and text.
# "abc", "" and "1e3" do not parse as numbers, " 3 " parses after trimming.
ELEMENTS = ("a", "b", "c")
ATTRIBUTES = ("x", "y")
VALUES = ("1", "2.5", " 3 ", "-1", "abc", "", "1e3")
COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def document_texts(draw, depth=3):
    name = draw(st.sampled_from(ELEMENTS))
    attrs = draw(st.dictionaries(st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES),
                                 max_size=2))
    inner = st.sampled_from(VALUES)
    if depth > 0:
        inner = st.one_of(inner, document_texts(depth - 1))
    children = draw(st.lists(inner, max_size=3))
    attr_text = "".join(f' {k}="{v}"' for k, v in attrs.items())
    return f"<{name}{attr_text}>{''.join(children)}</{name}>"


@st.composite
def filter_texts(draw, depth=3):
    kind = draw(st.sampled_from(("cmp", "cmp", "operand", "not", "and", "or")))
    if depth <= 0 or kind == "operand":
        return draw(operand_texts(depth))
    if kind == "cmp":
        op = draw(st.sampled_from(COMPARE_OPS))
        return f"{draw(operand_texts(depth))} {op} {draw(operand_texts(depth))}"
    if kind == "not":
        return f"not({draw(filter_texts(depth - 1))})"
    return f"({draw(filter_texts(depth - 1))}) {kind} ({draw(filter_texts(depth - 1))})"


@st.composite
def operand_texts(draw, depth):
    kind = draw(st.sampled_from(("path", "path", "string", "number", "count", "contains")))
    if kind == "string":
        return f'"{draw(st.sampled_from(VALUES))}"'
    if kind == "number":
        return draw(st.sampled_from(("0", "1", "2.5", "3")))
    path = draw(path_texts(depth))
    if kind == "count":
        return f"count({path})"
    if kind == "contains":
        return f'contains({path}, "{draw(st.sampled_from(("1", "b", "")))}")'
    return path


@st.composite
def path_texts(draw, depth):
    steps = draw(st.lists(step_texts(depth), min_size=1, max_size=3))
    text = steps[0]
    for step in steps[1:]:
        text += draw(st.sampled_from(("/", "//"))) + step
    return draw(st.sampled_from(("", "", "//"))) + text


@st.composite
def step_texts(draw, depth):
    kind = draw(st.sampled_from(("axis", "axis", "axis", "abbreviation")))
    if kind == "abbreviation":
        return draw(st.sampled_from((".", "..", "@x", "@y") + ELEMENTS))
    axis = draw(st.sampled_from([a.value for a in Axis]))
    test = draw(st.sampled_from(ELEMENTS + ATTRIBUTES + ("*", "text()")))
    preds = draw(st.lists(filter_texts(depth - 1), max_size=2)) if depth > 0 else []
    return f"{axis}::{test}" + "".join(f"[{p}]" for p in preds)


@given(filter_texts())
@settings(max_examples=100, deadline=None)
def test_render_parses_back_to_an_equal_filter(text):
    # right-nested and/or chains keep their parentheses
    expr = parse_filter(text)
    assert parse_filter(render_filter(expr)) == expr


@pytest.mark.parametrize("number", ["0.0000001", "0.00000010", "12.000"])
def test_number_renders_in_plain_notation(number):
    expr = parse_filter(f"a = {number}")
    assert render_filter(expr) == f"a = {number}"
    assert parse_filter(render_filter(expr)) == expr


def test_string_with_both_quote_kinds_rejected():
    # The grammar has no escapes, so only a hand-built filter could hold
    # such a string, and no text would render it.
    path = parse_filter("a")
    for build in (StringLiteral, lambda s: Contains(path, s)):
        with pytest.raises(ValueError, match="cannot spell a string with both quote kinds"):
            render_filter(build("x'\"y"))
    for one_kind in ("x'y", 'x"y'):
        for expr in (Comparison(path, "=", StringLiteral(one_kind)), Contains(path, one_kind)):
            assert parse_filter(render_filter(expr)) == expr


def test_non_filter_node_in_a_filter_raises_value_error():
    # The connectives are shared with formulas, so a formula's Atom can
    # end up inside a filter's And; evaluating it names the node.
    tree = And(Atom(parse_filter("a")), parse_filter("b"))
    with pytest.raises(ValueError, match=r"^Atom node is not a filter: Atom\(value=LocationPath"):
        eval_filter(tree, parse_xml("<r><a/><b/></r>"))


def test_steps_and_paths_that_would_render_differently_rejected():
    # Construction accepts these, but no filter text spells them, so
    # render_filter refuses them rather than write text that does not
    # parse back. Only '.', '..' and '//' test any item, with no
    # predicate, and '//' is always followed by a step that is not one.
    p = (parse_filter("p"),)
    a = Step(Axis.CHILD, NameTest("a"))
    descent = Step(Axis.DESCENDANT_OR_SELF, AnyItemTest())
    with pytest.raises(ValueError, match="unknown comparison operator"):
        Comparison(LocationPath((a,)), "~", StringLiteral("x"))  # a ~ "x"
    for expr in (
        LocationPath((Step(Axis.CHILD, AnyItemTest()),)),  # XPath's child::node()
        LocationPath((Step(Axis.SELF, AnyItemTest(), p),)),  # .[p]
        LocationPath((Step(Axis.DESCENDANT_OR_SELF, AnyItemTest(), p),)),  # //[p]
        LocationPath((a, descent)),  # a//
        LocationPath((descent,)),  # //
        LocationPath((descent, descent, a)),  # ///a
        LocationPath((a, descent, descent, a)),  # a///a
        LocationPath(()),  # the empty string
        LocationPath((Step(Axis.CHILD, NameTest("1x")),)),
        LocationPath((Step(Axis.CHILD, NameTest("a b")),)),
        LocationPath((Step(Axis.ATTRIBUTE, NameTest(".x")),)),  # an XML name
        Comparison(parse_filter("a and b"), "=", StringLiteral("x")),  # (a and b) = "x"
        *(Comparison(LocationPath((a,)), "=", NumberLiteral(Decimal(number)))
          for number in ("-1", "-0", "Infinity", "-Infinity", "NaN")),
    ):
        with pytest.raises(ValueError, match="filter text cannot spell"):
            render_filter(expr)
    for text in (".", "..", "//a", "a//b[.]/..", "//@k = 'v'", "and and or", "a = 0"):
        expr = parse_filter(text)
        assert parse_filter(render_filter(expr)) == expr
    seven = Comparison(LocationPath((a,)), "=", NumberLiteral(7))
    assert render_filter(seven) == "a = 7" and parse_filter("a = 7") == seven
    # a bare path is its own existence test
    path = LocationPath((descent, a))
    assert parse_filter(render_filter(path)) == path


ANY_ITEM_STEPS = [
    Step(axis, AnyItemTest(), preds)
    for axis in Axis
    for preds in ((), (parse_filter("@x"),), (parse_filter("not(b)"), parse_filter(".")))
]


@pytest.mark.parametrize("step", ANY_ITEM_STEPS, ids=repr)
def test_any_item_steps_evaluate_on_every_axis(step):
    # A step that tests any item evaluates as the reference does at
    # every item of a document, also where no filter text spells it;
    # render_filter writes only '.' and '..' and refuses the rest.
    path = LocationPath((step,))
    for prefixed in (path, LocationPath((Step(Axis.DESCENDANT_OR_SELF, AnyItemTest()), step))):
        for item in _items(parse_xml(TWIN)):
            assert eval_path(prefixed, item) == reference.eval_path(prefixed, item)
            assert eval_filter(prefixed, item) is bool(reference.eval_path(prefixed, item))
    if step.predicates or step.axis not in (Axis.SELF, Axis.PARENT):
        with pytest.raises(ValueError, match="filter text cannot spell"):
            render_filter(path)
    else:
        assert parse_filter(render_filter(path)) == path


@pytest.mark.parametrize("expr", [
    Comparison(parse_filter("a"), "<", NumberLiteral(Decimal(-1))),
    Comparison(LocationPath((Step(Axis.CHILD, AnyItemTest()),)), "<", NumberLiteral(1)),
])
def test_unspellable_filter_shown_by_repr_in_diagnostics(expr):
    # A hand-built filter that no text spells still names itself when
    # it fails at a node.
    net = parse_network('<network><node key="k"><a>x</a></node></network>')
    with pytest.raises(FilterTypeError, match=r"^filter Comparison\(.* at node 'k': "):
        label_nodes(net, Atom(expr))


def _items(root):
    """Every item of a document: elements, their attributes, and text."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, XmlElement):
            out.extend(node.attr_items)
            stack.extend(reversed(node.children))
    return out


def _location_paths(expr):
    """Every location path in a filter, predicates' paths included."""
    if isinstance(expr, (And, Or)):
        return _location_paths(expr.left) + _location_paths(expr.right)
    if isinstance(expr, Not):
        return _location_paths(expr.operand)
    if isinstance(expr, Comparison):
        return _location_paths(expr.left) + _location_paths(expr.right)
    if isinstance(expr, (CountExpr, Contains)):
        return _location_paths(expr.path)
    if isinstance(expr, LocationPath):
        found = [expr]
        for step in expr.steps:
            for pred in step.predicates:
                found += _location_paths(pred)
        return found
    return []


def _outcome(evaluate, *args):
    try:
        return "value", evaluate(*args)
    except FilterTypeError as exc:
        return "error", str(exc)


@given(st.lists(document_texts(), min_size=2, max_size=2), filter_texts())
@settings(max_examples=200, deadline=None)
def test_compiled_evaluator_matches_reference(texts, filter_text):
    # Same booleans and the same document-ordered item lists as the
    # reference, or the same FilterTypeError message, at every item of
    # two documents. One compiled filter is also run at every item in
    # turn, as labelling runs it at every payload; it must keep no
    # reference to the items it visited once it returns.
    expr = parse_filter(filter_text)
    holds = _compile_filter(expr)
    located = _location_paths(expr)
    for root in map(parse_xml, texts):
        items = _items(root)
        for item in items:
            want = _outcome(reference.eval_filter, expr, item)
            assert _outcome(eval_filter, expr, item) == want
            before = [sys.getrefcount(it) for it in items]
            assert _outcome(holds, item) == want
            assert [sys.getrefcount(it) for it in items] == before
            for path in located:
                assert _outcome(eval_path, path, item) == _outcome(
                    reference.eval_path, path, item
                )


# -- ranks and steps by rank --------------------------------------------------------


def _network_of(texts):
    """A network whose payloads hold the documents, with an edge after
    each, so that each payload starts partway into the file."""
    body = "".join(
        f'<node key="k{i}">{text}</node><edge from="k{i}" to="k0"/>'
        for i, text in enumerate(texts)
    )
    return parse_network(f"<network>{body}</network>")


def _assert_ranked(root):
    # Every element and text item sits at its rank in its document's
    # array, and an element's end is the largest rank in its subtree,
    # worked out here by a walk of our own.
    doc = root.doc
    stack = [root]
    while stack:
        node = stack.pop()
        assert doc[node.pos] is node
        if isinstance(node, XmlElement):
            assert node.doc is doc
            largest, below = node.pos, list(node.children)
            while below:
                item = below.pop()
                largest = max(largest, item.pos)
                if isinstance(item, XmlElement):
                    below.extend(item.children)
            assert node.end == largest
            stack.extend(node.children)


def _ranks(root):
    """The ranks of a tree, item by item in preorder (kind, pos, end,
    index, parent pos), and the kind of each item of its array by rank."""
    items, stack = [], [root]
    while stack:
        node = stack.pop()
        parent = node.parent.pos if node.parent is not None else None
        if isinstance(node, XmlElement):
            items.append(("element", node.pos, node.end, node.index, parent))
            stack.extend(reversed(node.children))
        else:
            items.append(("text", node.pos, None, node.index, parent))
    return items, [type(item).__name__ for item in root.doc]


def _assert_string_values(root):
    for item in _items(root):
        assert string_value(item) == reference.string_value(item)


@given(st.lists(document_texts(), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_ranks_index_the_shared_document(texts):
    # Each payload of a network is ranked as the document it would be on
    # its own: from 0, in an array that no other payload shares. The
    # string value that production reads from the ranks is the one the
    # reference finds by walking children, at every item.
    for text in texts:
        root = parse_xml(text)
        _assert_ranked(root)
        _assert_string_values(root)
    net = _network_of(texts)
    docs = set()
    for key in net.node_keys():
        payload = net.payload(key)
        _assert_ranked(payload)
        _assert_string_values(payload)
        assert payload.pos == 0 and payload.doc[0] is payload
        assert _ranks(payload) == _ranks(parse_xml(serialize_xml(payload)))
        docs.add(id(payload.doc))
    assert len(docs) == net.n


@given(st.lists(document_texts(), min_size=2, max_size=3), filter_texts())
@settings(max_examples=100, deadline=None)
def test_compiled_evaluator_matches_reference_in_networks(texts, filter_text):
    # As test_compiled_evaluator_matches_reference, at every item of
    # payloads that parse_network detached from one document.
    expr = parse_filter(filter_text)
    located = _location_paths(expr)
    net = _network_of(texts)
    for key in net.node_keys():
        for item in _items(net.payload(key)):
            assert _outcome(eval_filter, expr, item) == _outcome(
                reference.eval_filter, expr, item
            )
            for path in located:
                assert _outcome(eval_path, path, item) == _outcome(
                    reference.eval_path, path, item
                )


def _labelled(net, filter_text):
    """The keys that label_nodes gives the filter on ``net``."""
    labels, registry = label_nodes(net, parse_formula(f"[{filter_text}]"))
    (prop,) = registry.props()
    return labels.sat[prop]


@given(st.lists(document_texts(), min_size=1, max_size=3), filter_texts())
@settings(max_examples=150, deadline=None)
def test_labels_match_reference_per_payload(texts, filter_text):
    # label_nodes on a fresh network against the reference run at each
    # payload in key order: the same set, or the same first error,
    # annotated with its filter and key.
    expr = parse_filter(filter_text)
    net = _network_of(texts)
    want = set()
    try:
        for key in net.node_keys():
            if reference.eval_filter(expr, net.payload(key)):
                want.add(key)
    except FilterTypeError as exc:
        want = f"filter {render_filter(expr)!r} at node {key!r}: {exc}"
    assert _outcome(_labelled, net, filter_text) == (
        ("error", want) if isinstance(want, str) else ("value", want)
    )


def _elements(net):
    return [item for key in net.node_keys() for item in net.payload(key).doc
            if isinstance(item, XmlElement)]


def test_labelling_a_trailing_attribute_step_builds_no_items():
    # A path that ends in a plain @name reads the attribute map; only
    # other attribute steps build the items, shared as attr_items.
    text = ('<network><node key="a" v="1"><x v="1"/></node><node key="b" t="s" v="5">'
            '<x v="2"/><x/></node><node key="c"><y v="1">t</y></node></network>')
    net = parse_network(text)
    for filter_text, keys in (('@v < 3', {"a"}), ("not(@t)", {"a", "c"}),
                              ("count(x/@v) = 1", {"a", "b"}), ('x/@v = "1"', {"a"})):
        assert _labelled(net, filter_text) == keys
    assert all(e._attr_items is None for e in _elements(net))
    for filter_text, keys, owners in (("attribute::*", {"a", "b", "c"}, "abc"),
                                      ('attribute::v[. = "1"]', {"a"}, "ab")):
        net = parse_network(text)
        assert _labelled(net, filter_text) == keys
        built = [e for e in _elements(net) if e._attr_items is not None]
        assert built == [net.payload(key) for key in owners]
        for e in built:
            assert e.attr_items is e._attr_items
            assert [(a.owner, a.name, a.value) for a in e.attr_items] == [
                (e, n, v) for n, v in e.attrs.items()
            ]


def test_literal_is_converted_once_when_compiled(monkeypatch):
    # Only the payloads' values are converted as pairs reach them.
    import netcheck.xpath as xpath

    converted = []
    to_number = xpath._CONVERT[("str", "num")]
    monkeypatch.setitem(xpath._CONVERT, ("str", "num"),
                        lambda value: converted.append(value) or to_number(value))
    holds = xpath._compile_filter.__wrapped__(parse_filter('@v < "3" or "2" > @w'))
    assert converted == ["3", "2"]
    docs = [parse_xml(f'<n v="{v}" w="{w}"/>') for v, w in (("1", "5"), ("4", "1"), ("4", "2"))]
    assert [holds(doc) for doc in docs] == [True, True, False]
    assert converted == ["3", "2", "1", "4", "1", "4", "2"]


@pytest.mark.parametrize("filter_text, named", [
    ('@v < "abc"', ("'abc'", "'q'")),
    ('"abc" > @v', ("'abc'", "'abc'")),
])
def test_literal_that_fails_conversion_raises_only_when_reached(filter_text, named):
    # The literal cannot be a number, but it raises only when a pair
    # reaches it: never where no payload has v, and otherwise at the
    # first key in key order whose payload has v. There the left value
    # converts first, so a bad v on the left names itself instead.
    none = parse_network('<network><node key="a"><x v="1"/></node><node key="b"/></network>')
    assert _labelled(none, filter_text) == frozenset()
    for (first, then), bad in zip((("1", "q"), ("q", "1")), named):
        net = parse_network(f'<network><node key="a"/><node key="b" v="{first}"/>'
                            f'<node key="c" v="{then}"/></network>')
        with pytest.raises(FilterTypeError) as exc:
            _labelled(net, filter_text)
        assert str(exc.value) == (
            f"filter {filter_text!r} at node 'b': cannot interpret {bad} as a number"
        )


TWIN = '<a x="1"><b y="2">t<c/>u</b><c x="3" y="4"><b>v</b><a/></c>w<b><c>z</c></b></a>'


def _build_by_hand(element, parent=None):
    """A copy of a parsed tree made with the constructors, with parent
    links set but no ranks: every pos is 0 and no index is set."""
    copy = XmlElement(element.name, dict(element.attrs), 0)
    copy.parent = parent
    for child in element.children:
        if isinstance(child, XmlText):
            text = XmlText(child.text, 0)
            text.parent = copy
            copy.children.append(text)
        else:
            copy.children.append(_build_by_hand(child, copy))
    return copy


def _signature(items):
    return [
        ("attribute", it.owner.pos, it.name) if isinstance(it, XmlAttribute)
        else ("text", it.pos, it.text) if isinstance(it, XmlText)
        else ("element", it.pos, it.name)
        for it in items
    ]


@pytest.mark.parametrize("axis", [a.value for a in Axis])
def test_tree_built_by_hand_matches_parsed_twin(axis):
    # The first filter run on a tree built by hand ranks it, here from
    # its last item, so the walk has to climb the parent links first.
    parsed = parse_xml(TWIN)
    built = _build_by_hand(parsed)
    pairs = list(zip(_items(parsed), _items(built)))[::-1]
    paths = [
        parse_filter(f"{prefix}{axis}::{test}")
        for prefix in ("", "descendant-or-self::*/", "//text()/", "//@x/")
        for test in ("a", "b", "c", "x", "*", "text()")
    ]
    for p_item, b_item in pairs:
        for path in paths:
            assert _signature(eval_path(path, b_item)) == _signature(eval_path(path, p_item))
        assert eval_filter(parse_filter(f"{axis}::*"), b_item) == eval_filter(
            parse_filter(f"{axis}::*"), p_item
        )
    # The walk gave the hand-built tree the ranks the parser gives, and
    # the rank array was dropped when the last call returned.
    for p_item, b_item in pairs:
        if not isinstance(p_item, XmlAttribute):
            assert (b_item.pos, b_item.index) == (p_item.pos, p_item.index)
            assert (b_item.parent and b_item.parent.pos) == (p_item.parent and p_item.parent.pos)
        if isinstance(p_item, XmlElement):
            assert b_item.end == p_item.end
            assert b_item.doc is None and p_item.doc is not None


def test_tree_built_by_hand_may_change_between_calls():
    # Each call ranks a tree built by hand afresh, so a child appended
    # after a filter has run is seen by every axis, as in the parsed twin.
    built = XmlElement("r", {}, 0)
    child = parse_filter("child::x")
    below = parse_filter("descendant::x")
    assert not eval_filter(below, built)
    x = XmlElement("x", {}, 0)
    x.parent = built
    built.children.append(x)
    twin = parse_xml("<r><x/></r>")
    for expr in (child, below, parse_filter("descendant-or-self::x/ancestor::r")):
        assert eval_filter(expr, built) is eval_filter(expr, twin) is True
    x.children.append(XmlText("t", 0))
    twin = parse_xml("<r><x>t</x></r>")
    expr = parse_filter('descendant::text() = "t"')
    assert eval_filter(expr, built) is eval_filter(expr, twin) is True
    assert built.doc is None and twin.doc is not None


def test_string_value_ranks_a_tree_built_by_hand_for_the_call():
    # No network holds these trees and no filter call is running, so
    # string_value ranks each for its own call and drops the ranks when
    # it returns: a text appended later is read by the next call.
    a = XmlElement("a", {}, 0)
    for text, want in (("t", "t"), ("u", "tu")):
        item = XmlText(text, 0)
        item.parent = a
        a.children.append(item)
        assert string_value(a) == reference.string_value(a) == want
        assert a.doc is None
    built = _build_by_hand(parse_xml(TWIN))
    items = _items(built)
    for item in items[::-1]:
        assert string_value(item) == reference.string_value(item)
    assert all(item.doc is None for item in items if isinstance(item, XmlElement))


def test_network_ranks_payloads_built_by_hand_once(monkeypatch):
    # A network ranks each payload built by hand when it is built, so
    # checks on it rank nothing, and its ranks and results are those of
    # the parsed twin.
    import netcheck.xmldoc as xmldoc

    parsed = _network_of([TWIN, '<b x="1">t<c/></b>', "<c/>"])
    built = Network(True, {k: _build_by_hand(p) for k, p in parsed.nodes.items()},
                    parsed.edges)
    for key in parsed.node_keys():
        assert _ranks(built.payload(key)) == _ranks(parsed.payload(key))
    ranked = []
    real = xmldoc._rank
    monkeypatch.setattr(xmldoc, "_rank", lambda item: ranked.append(item) or real(item))
    for text, keys in (('EF [//c/ancestor::b] & [*/@x]', {"k0", "k1"}),
                       ('EX [descendant::text() = "t"] | [a/c]', {"k0", "k1", "k2"})):
        formula = parse_formula(text)
        assert check(built, formula) == check(parsed, formula) == keys
    assert ranked == []


def test_attribute_order_of_tree_built_by_hand_follows_its_ranks():
    # The attribute items are built while every pos is still 0; the
    # first filter run ranks the tree, and their order must follow.
    parsed = parse_xml(TWIN)
    built = _build_by_hand(parsed)
    pairs = [(p, b) for p, b in zip(_items(parsed), _items(built)) if isinstance(p, XmlAttribute)]
    assert len(pairs) == 4
    assert eval_filter(parse_filter("@x"), built)
    for p_attr, b_attr in pairs:
        assert reference.doc_order_key(b_attr) == reference.doc_order_key(p_attr)


def _nested(n):
    """One payload of n nested <d> elements, each with a text item."""
    return parse_xml("<d>z" * n + "</d>" * n)


def test_descendant_steps_linear_on_deep_payloads():
    # A descendant step takes the rank slice of each context's subtree
    # and skips the contexts inside the slice taken last, so a step from
    # n nested contexts is one pass. Enumerating every context's subtree
    # and sorting, as the reference does, grows about 16x for 4x the
    # depth; a linear pass measures 4-6x.
    paths = [parse_filter(text)
             for text in ("descendant::d/descendant::d", "descendant-or-self::d//d")]
    small = _nested(200)
    for item in (small, small.children[1], small.children[1].children[1].children[0]):
        for path in paths:
            assert eval_path(path, item) == reference.eval_path(path, item)
    times = []
    for n in (4_000, 16_000):
        root = _nested(n)
        assert [len(eval_path(path, root)) for path in paths] == [n - 2, n - 1]
        best = float("inf")
        for _ in range(7):
            t0 = time.perf_counter()
            for path in paths:
                eval_path(path, root)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    ratio = times[1] / times[0]
    assert 2.0 <= ratio <= 10.0, f"4x depth took {ratio:.1f}x as long ({times})"


def _wide(k):
    """One payload of k sibling <a/> elements followed by a <b/>."""
    return parse_xml("<n>" + "<a/>" * k + "<b/></n>")


_SIBLING_PATHS = ("a/following-sibling::b", "a/preceding-sibling::a")


def test_sibling_steps_match_reference_on_mixed_contexts():
    # Contexts under several parents, nested ones, text items and
    # attributes, on both sibling axes.
    root = parse_xml('<r><a x="1">t<b/>u<a y="2"><b/><c/>v</a></a><b/>w<a/>'
                     '<c><a/><b/>z</c></r>')
    for text in ("//a/following-sibling::*", "//*/preceding-sibling::text()",
                 "descendant::text()/following-sibling::*", "//following-sibling::text()",
                 "//@x/following-sibling::*", "//b/preceding-sibling::a[b]",
                 "a/a/preceding-sibling::text()", ".//preceding-sibling::*", *_SIBLING_PATHS):
        path = parse_filter(text)
        for item in (root, root.children[0], root.children[0].children[3]):
            assert eval_path(path, item) == reference.eval_path(path, item), text


def test_sibling_steps_linear_on_wide_payloads():
    # A sibling step from k siblings takes one slice of their parent's
    # children, so it is one pass. A slice per context, merged and
    # deduplicated, is k²/2 items: about 16x for 4x the siblings.
    paths = [parse_filter(text) for text in _SIBLING_PATHS]
    times = []
    for k in (4_000, 16_000):
        root = _wide(k)
        assert [len(eval_path(path, root)) for path in paths] == [1, k - 1]
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for path in paths:
                eval_path(path, root)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    ratio = times[1] / times[0]
    assert 2.0 <= ratio <= 10.0, f"4x siblings took {ratio:.1f}x as long ({times})"


class _SliceCounter(list):
    """A children list that counts the items its slices hold."""

    read = 0

    def __getitem__(self, index):
        got = list.__getitem__(self, index)
        if isinstance(index, slice):
            self.read += len(got)
        return got


def test_sibling_steps_read_each_sibling_once():
    # The count twin of the bracket above: from k sibling contexts, each
    # sibling axis reads fewer items of the parent's children than it has.
    for k in (500, 1_000, 2_000):
        root = _wide(k)
        for text in _SIBLING_PATHS:
            root.children = counter = _SliceCounter(root.children)
            found = eval_path(parse_filter(text), root)
            assert len(found) == (1 if "following" in text else k - 1)
            assert counter.read <= k + 1, (text, k, counter.read)


def test_predicate_evaluated_once_per_item(monkeypatch):
    # The inner predicate is reached from every ancestor list of the
    # outer one, k items at depth k, but its memo tests each of the n - 1
    # ancestors once; without the memo this is n(n - 1)/2 calls.
    import netcheck.xpath as xpath

    calls = []
    real = xpath.string_value
    monkeypatch.setattr(xpath, "string_value", lambda item: calls.append(item) or real(item))
    path = parse_filter('descendant::d[ancestor::d[contains(text(), "z")]]')
    for n in (50, 100, 200):
        root = _nested(n)
        calls.clear()
        found = eval_path(path, root)
        assert len(calls) == n - 1
        assert found == reference.eval_path(path, root)


def test_eval_filter_compiles_each_filter_once(monkeypatch):
    import netcheck.xpath as xpath

    xpath._compile_filter.cache_clear()
    compiled = []
    real = xpath._compile_bool
    monkeypatch.setattr(
        xpath, "_compile_bool", lambda expr, memos: compiled.append(expr) or real(expr, memos)
    )
    expr = parse_filter('book[author = "Cid"]/title = "Beta" and count(@genre) = 1')
    assert eval_filter(expr, DOC) is True
    assert eval_filter(expr, DOC.children[0]) is False
    assert compiled.count(expr) == 1
