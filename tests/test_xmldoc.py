"""Document parser, serializer, and ordering tests."""

import gc
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from netcheck import xmldoc
from netcheck.errors import ParseError
from netcheck.xmldoc import (
    XmlAttribute,
    XmlElement,
    XmlText,
    escape_attr,
    escape_text,
    parse_xml,
    serialize_xml,
    string_value,
    xml_equal,
)
from netcheck.xpath import eval_path, parse_filter
from tests import xmldoc_reference as reference
from tests.test_network import _calls_to_parse
from tests.xpath_reference import doc_order_key


def test_basic_structure():
    root = parse_xml('<a x="1"><b>hi</b><c/></a>')
    assert root.name == "a"
    assert root.attrs == {"x": "1"}
    assert [c.name for c in root.children] == ["b", "c"]
    b = root.children[0]
    assert isinstance(b.children[0], XmlText)
    assert b.children[0].text == "hi"
    assert root.children[1].children == []


def test_parent_and_index_links():
    root = parse_xml("<a><b/><c/>tail</a>")
    b, c, tail = root.children
    assert b.parent is root and c.parent is root and tail.parent is root
    assert (b.index, c.index, tail.index) == (0, 1, 2)
    assert root.parent is None


def test_whitespace_only_text_is_dropped():
    root = parse_xml("<a>\n  <b/>\n  <c/>\n</a>")
    assert [c.name for c in root.children] == ["b", "c"]


def test_mixed_text_is_preserved():
    root = parse_xml("<p>one <em>two</em> three</p>")
    kinds = [type(c).__name__ for c in root.children]
    assert kinds == ["XmlText", "XmlElement", "XmlText"]
    assert root.children[0].text == "one "
    assert root.children[2].text == " three"


def test_string_value_concatenates_descendant_text():
    root = parse_xml("<a>x<b>y<c>z</c></b>w</a>")
    assert string_value(root) == "xyzw"
    assert string_value(root.children[1]) == "yz"


def test_entities_decode():
    root = parse_xml("<a>&lt;&gt;&amp;&quot;&apos;</a>")
    assert root.children[0].text == "<>&\"'"


def test_entity_in_attribute():
    root = parse_xml('<a t="a&amp;b"/>')
    assert root.attrs["t"] == "a&b"


def test_unknown_entity_rejected():
    with pytest.raises(ParseError) as exc:
        parse_xml("<a>&nbsp;</a>")
    assert "entity" in str(exc.value)


def test_unterminated_entity_rejected():
    with pytest.raises(ParseError):
        parse_xml("<a>&ampx</a>")


def test_comment_skipped_and_text_merges_across_it():
    root = parse_xml("<a>foo<!-- note -->bar</a>")
    assert len(root.children) == 1
    assert root.children[0].text == "foobar"


def test_comment_between_elements():
    root = parse_xml("<a><!-- x --><b/><!-- y --></a>")
    assert [c.name for c in root.children] == ["b"]


def test_bom_and_declaration_accepted():
    data = b'\xef\xbb\xbf<?xml version="1.0" encoding="UTF-8"?>\n<a/>'
    assert parse_xml(data).name == "a"


def test_declaration_only_at_start():
    with pytest.raises(ParseError):
        parse_xml('<a/><?xml version="1.0"?>')


def test_doctype_rejected():
    with pytest.raises(ParseError):
        parse_xml("<!DOCTYPE a><a/>")


def test_mismatched_closing_tag_position():
    with pytest.raises(ParseError) as exc:
        parse_xml("<a>\n<b></c></a>")
    err = exc.value
    assert err.line == 2
    assert "c" in err.message and "b" in err.message


def test_duplicate_attribute_rejected():
    with pytest.raises(ParseError) as exc:
        parse_xml('<a x="1" x="2"/>')
    assert "duplicate" in str(exc.value)


def test_attributes_need_separating_space():
    with pytest.raises(ParseError):
        parse_xml('<a x="1"y="2"/>')


def test_multiple_roots_rejected():
    with pytest.raises(ParseError):
        parse_xml("<a/><b/>")


def test_text_outside_root_rejected():
    with pytest.raises(ParseError):
        parse_xml("<a/>junk")


def test_unclosed_element_rejected():
    with pytest.raises(ParseError):
        parse_xml("<a><b></b>")


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_xml("<a>\n  <3/>\n</a>")
    err = exc.value
    assert err.line == 2
    assert err.column >= 3
    assert f"line {err.line}, column {err.column}" in str(err)


def test_value_cut_off_after_equals_rejected():
    with pytest.raises(ParseError) as exc:
        parse_xml("<a x=")
    err = exc.value
    assert (err.message, err.line, err.column) == ("attribute value must be quoted", 1, 6)


def test_invalid_utf8_rejected():
    with pytest.raises(ParseError):
        parse_xml(b"<a>\xff</a>")


def test_document_order_attrs_before_children():
    root = parse_xml('<a x="1" y="2"><b/></a>')
    ax, ay = root.attr_items
    b = root.children[0]
    items = sorted([b, ay, ax, root], key=doc_order_key)
    assert items == [root, ax, ay, b]


def test_attr_items_built_once_and_shared_with_xpath():
    root = parse_xml('<a x="1" y="&lt;2"><b x="3"/><c/></a>')
    b, c = root.children
    assert eval_path(parse_filter("@z"), root) == []
    assert root._attr_items is None  # a named step that misses builds no items
    for elem in (root, b, c):
        items = elem.attr_items
        assert elem.attr_items is items
        eager = [(elem, n, v, (elem.pos, 1, i)) for i, (n, v) in enumerate(elem.attrs.items())]
        assert [(a.owner, a.name, a.value, doc_order_key(a)) for a in items] == eager
        assert all(isinstance(a, XmlAttribute) for a in items)
    assert [a.value for a in root.attr_items] == ["1", "<2"]
    assert c.attr_items == ()
    (x,) = eval_path(parse_filter("@x"), root)
    assert x is root.attr_items[0]
    assert eval_path(parse_filter("attribute::*"), root)[1] is root.attr_items[1]
    (bx,) = eval_path(parse_filter("*/@x"), root)
    assert bx is b.attr_items[0]


def test_serialize_self_closing_and_escaping():
    root = parse_xml('<a t="x&amp;y">a&lt;b<e/></a>')
    text = serialize_xml(root)
    assert '<a t="x&amp;y">' in text
    assert "a&lt;b" in text
    assert "<e/>" in text


def test_escape_helpers():
    assert escape_text("a<b&c>") == "a&lt;b&amp;c&gt;"
    assert escape_attr('he said "hi"') == "he said &quot;hi&quot;"


def test_xml_equal_ignores_attr_order():
    a = parse_xml('<a x="1" y="2"/>')
    b = parse_xml('<a y="2" x="1"/>')
    assert xml_equal(a, b)


def test_xml_equal_detects_differences():
    a = parse_xml("<a><b/></a>")
    assert not xml_equal(a, parse_xml("<a><c/></a>"))
    assert not xml_equal(a, parse_xml("<a><b/><b/></a>"))
    assert not xml_equal(a, parse_xml('<a z="1"><b/></a>'))


# -- round-trip property -----------------------------------------------------

_names = st.from_regex(r"[a-z][a-z0-9_.\-]{0,5}", fullmatch=True)
_attr_values = st.one_of(
    st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00\r"), max_size=8),
    # mostly characters that must be written as entity references
    st.text(alphabet="a &<>\"'\t\n", max_size=8),
)
_texts = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00\r"),
    min_size=1,
    max_size=8,
).filter(lambda s: s.strip(" \t\n") != "")


# Whitespace inside a tag: before an attribute, around '=', before '>'.
_tag_ws = st.lists(st.sampled_from([" ", "  ", "\t", "\n", "\r\n"]), min_size=1, max_size=3).map("".join)
_opt_tag_ws = st.one_of(st.just(""), _tag_ws)


@st.composite
def _attribute_source(draw, name):
    value = draw(_attr_values)
    if draw(st.booleans()):
        quoted = f'"{escape_attr(value)}"'
    else:
        quoted = "'" + escape_text(value).replace("'", "&apos;") + "'"
    return f"{draw(_tag_ws)}{name}{draw(_opt_tag_ws)}={draw(_opt_tag_ws)}{quoted}"


@st.composite
def _element_source(draw, depth=2, repeats=False):
    """A well-formed element, unless ``repeats`` lets it now and then
    carry one attribute name twice."""
    name = draw(_names)
    n_attrs = draw(st.integers(0, 3))
    attr_names = draw(
        st.lists(_names, min_size=n_attrs, max_size=n_attrs, unique=True)
    )
    if repeats and attr_names and draw(st.integers(0, 9)) == 0:
        attr_names.insert(draw(st.integers(0, len(attr_names))), draw(st.sampled_from(attr_names)))
    attrs = "".join(draw(_attribute_source(an)) for an in attr_names) + draw(_opt_tag_ws)
    if depth <= 0:
        return f"<{name}{attrs}/>"
    parts = []
    last_was_text = True  # no leading text so text nodes never merge on reparse
    for _ in range(draw(st.integers(0, 3))):
        if not last_was_text and draw(st.booleans()):
            parts.append(escape_text(draw(_texts)))
            last_was_text = True
        else:
            parts.append(draw(_element_source(depth - 1, repeats)))
            last_was_text = False
    body = "".join(parts)
    return f"<{name}{attrs}>{body}</{name}>"


@given(_element_source())
def test_parse_serialize_round_trip(source):
    doc = parse_xml(source)
    again = parse_xml(serialize_xml(doc))
    assert xml_equal(doc, again)


# -- depth -------------------------------------------------------------------


def test_tree_nested_5000_deep_at_default_recursion_limit():
    depth = 5000
    assert sys.getrecursionlimit() < depth
    source = "<d>" * depth + "x" + "</d>" * depth
    doc = parse_xml(source)
    assert serialize_xml(doc) == source
    assert xml_equal(doc, parse_xml(serialize_xml(doc)))
    assert not xml_equal(doc, parse_xml(source.replace("x", "y")))


# -- differential test against the reference scanner -------------------------

_TOKENS = [
    "<", ">", "/", "=", '"', "'", "&", ";", "<!--", "-->", "<!", "<?xml", "?>",
    "a", "b", "x1", "_", "-", ".", "amp", "lt", "quot", "nbsp",
    " ", "\t", "\n", "\r", "\r\n", "é", "中", "\ufeff",
]
_xmlish = st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join)


@st.composite
def _edited_document(draw):
    """A valid document with a few tokens inserted or characters deleted."""
    source = draw(_element_source(repeats=True))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(source)))
        if draw(st.booleans()):
            source = source[:k] + draw(_xmlish) + source[k:]
        else:
            source = source[:k] + source[k + draw(st.integers(1, 4)):]
    return source


def _outcome(parse, source):
    """The tree as a flat list in document order, or the error."""
    try:
        root = parse(source)
    except ParseError as err:
        return ("error", err.message, err.line, err.column)
    items = []
    stack = [root]
    while stack:
        item = stack.pop()
        parent = item.parent.pos if item.parent is not None else None
        if isinstance(item, XmlText):
            items.append(("text", item.text, item.pos, item.index, parent))
        else:
            attrs = [(a.name, a.value, a.owner is item, doc_order_key(a))
                     for a in item.attr_items]
            items.append(
                ("element", item.name, list(item.attrs.items()), attrs,
                 item.pos, item.index, parent)
            )
            stack.extend(reversed(item.children))
    return ("tree", items)


@settings(max_examples=400)
@given(st.one_of(
    _xmlish, _xmlish.map(lambda s: "<a" + s), _element_source(repeats=True), _edited_document()
))
@example('<network><node key="a" x=')
@example('<a\tx\r\n=  \'&lt;&apos;"\'\ny="&amp;&quot;\'"\n/><!-- whitespace, both quotes -->')
@example('<a x="1"y="2"/>')  # the tag regex fails: no space between attributes
@example('<a x="&nbsp;"/>')  # unknown entity in a value
@example('<a x="a&b"/>')  # unterminated entity in a value
@example('<a x="&b" y=";"/>')  # an entity that would run past the closing quote
@example('<a x="1" y="2" x="3"/>')  # repeated attribute name
@example('<?xml version="1.0"?>\r\n<!-- c -->\n<a>t<!-- c -->u&amp;<b/> </a><!-- d -->')
@example('<r><a>&amp;t&lt;</a>&gt;<b/>&quot;</r>')  # entities beside tags
@example('<r>&amp;<!-- c -->&lt;<b/></r>')  # one text item across a comment
@example('<r><a></a ></r >')  # whitespace before '>' in a closing tag
@example('<r><a>t</b></r>')  # a well-formed closing tag with the wrong name
@example('<r><a>t<')  # the text ends right after '<'
@example('<r><a>t&')  # ... after '&'
@example('<r><a>t&amp;')  # ... after an entity
@example('<r><a>t</')  # ... after '</'
@example('<r><a x="1" x="2"/></r>')  # a repeated name inside the content
@example('<r><a x="&amp;" x="2"/></r>')  # ... with an entity in the tag
@example("<r><a x='1' y='&lt;\"'>t</a></r>")  # single-quoted values
def test_parser_matches_reference(source):
    assert _outcome(parse_xml, source) == _outcome(reference.parse_xml, source)


@pytest.mark.parametrize("source, expected", [
    ("<a><!DOCTYPE x></a>", ("error", "'<!' markup is not supported", 1, 4)),
    ("<a><!x></a>", ("error", "'<!' markup is not supported", 1, 4)),
    ("<a>t<!-x</a>", ("error", "'<!' markup is not supported", 1, 5)),
    ("<a>t<!", ("error", "'<!' markup is not supported", 1, 5)),
    ("<a><?pi?></a>", ("error", "processing instructions are not supported", 1, 4)),
    ("<a>t<!-- c</a>", ("error", "unterminated comment", 1, 5)),
    ("<a>t<", ("error", "expected element name", 1, 6)),
    ("<a><b/></", ("error", "expected element name", 1, 10)),
    ("<a>a<!--c-->b</a>", ("tree", [("element", "a", [], [], 0, 0, None),
                                    ("text", "ab", 1, 0, 0)])),
])
def test_markup_inside_an_element_matches_reference(source, expected):
    # The parser dispatches on the character after '<'; the reference
    # scanner tests each prefix in turn.
    assert _outcome(parse_xml, source) == _outcome(reference.parse_xml, source) == expected


# -- fused tokens: text runs with entities, and leaves -------------------------


@pytest.mark.parametrize("source, expected", [
    # A text run decodes '&amp;' last, so its '&' starts no reference.
    ("<r><a>&amp;lt;</a></r>", ("tree", [("element", "r", [], [], 0, 0, None),
                                         ("element", "a", [], [], 1, 0, 0),
                                         ("text", "&lt;", 2, 0, 1)])),
    # A leaf whose text is whitespace only has no children.
    ("<r><a> \t\r\n </a>x</r>", ("tree", [("element", "r", [], [], 0, 0, None),
                                           ("element", "a", [], [], 1, 0, 0),
                                           ("text", "x", 2, 1, 0)])),
    # The text on both sides of a comment is one item.
    ("<r>a &amp; b<!-- c -->c&lt;d</r>", ("tree", [("element", "r", [], [], 0, 0, None),
                                                  ("text", "a & bc<d", 1, 0, 0)])),
    # Mixed content: the leaf pattern refuses <p>, whose text a tag follows.
    ("<r><p>a<b/>c</p></r>", ("tree", [("element", "r", [], [], 0, 0, None),
                                       ("element", "p", [], [], 1, 0, 0),
                                       ("text", "a", 2, 0, 1),
                                       ("element", "b", [], [], 3, 1, 1),
                                       ("text", "c", 4, 2, 1)])),
    # A leaf with attributes and entities, an empty leaf, and a closing
    # tag with whitespace before its '>'.
    ('<r><t k="v">&quot;x&apos;</t >  <u></u><w/></r>', (
        "tree", [("element", "r", [], [], 0, 0, None),
                 ("element", "t", [("k", "v")], [("k", "v", True, (1, 1, 0))], 1, 0, 0),
                 ("text", '"x\'', 2, 0, 1),
                 ("element", "u", [], [], 3, 1, 0),
                 ("element", "w", [], [], 4, 2, 0)])),
    # A self-closing tag is not a leaf that a closing tag of its name ends.
    ("<r><a/>x</a></r>", ("error", "mismatched closing tag: expected </r>, found </a>", 1, 9)),
    ("<r><a>x&amp;y</b></r>",
     ("error", "mismatched closing tag: expected </a>, found </b>", 1, 14)),
    ("<r><a>x&amp</a></r>", ("error", "unterminated entity reference", 1, 8)),
    ("<r><a>x&bogus;</a></r>", ("error", "unknown entity &bogus;", 1, 8)),
    # Mixed content: a start tag takes in the text after it whatever
    # follows, and the element's text goes on from there.
    ("<r><p>ab &amp; c<b/>d</p></r>", ("tree", [("element", "r", [], [], 0, 0, None),
                                                ("element", "p", [], [], 1, 0, 0),
                                                ("text", "ab & c", 2, 0, 1),
                                                ("element", "b", [], [], 3, 1, 1),
                                                ("text", "d", 4, 2, 1)])),
    ("<r><p> \n <b/></p></r>", ("tree", [("element", "r", [], [], 0, 0, None),
                                          ("element", "p", [], [], 1, 0, 0),
                                          ("element", "b", [], [], 2, 0, 1)])),
    ("<r><p>a<!-- c -->b<b/>c</p></r>", ("tree", [("element", "r", [], [], 0, 0, None),
                                                  ("element", "p", [], [], 1, 0, 0),
                                                  ("text", "ab", 2, 0, 1),
                                                  ("element", "b", [], [], 3, 1, 1),
                                                  ("text", "c", 4, 2, 1)])),
    ("<r><p>a&bogus;<b/></p></r>", ("error", "unknown entity &bogus;", 1, 8)),
    ("<r><p>a<!x/></p></r>", ("error", "'<!' markup is not supported", 1, 8)),
    ("<r><p> a </q></r>", ("error", "mismatched closing tag: expected </p>, found </q>", 1, 10)),
    ("<r><p>a&lt;b", ("error", "unterminated element <p>", 1, 4)),
    ('<network>data<node key="a"/></network>', (
        "tree", [("element", "network", [], [], 0, 0, None),
                 ("text", "data", 1, 0, 0),
                 ("element", "node", [("key", "a")], [("key", "a", True, (2, 1, 0))], 2, 1, 0)])),
])
def test_fused_tokens_match_reference(source, expected):
    assert _outcome(parse_xml, source) == _outcome(reference.parse_xml, source) == expected
    if expected[0] == "tree":
        # The largest rank in each element's subtree, which a leaf sets
        # itself, is the rank of its last descendant.
        doc = parse_xml(source).doc
        for element in doc:
            last = element
            while isinstance(last, XmlElement) and last.children:
                last = last.children[-1]
            if isinstance(element, XmlElement):
                assert element.end == last.pos, (element, element.end)


_ENTITY_UNIT = "x &amp; y&lt;z "


def _entity_text(n):
    """Text of about n characters in which predefined entity references
    stand between plain characters."""
    return _ENTITY_UNIT * (n // len(_ENTITY_UNIT))


# Documents around one long text, which a start tag takes in and which
# no closing tag of its name follows: a closing tag of another name, an
# error, a comment, after which the text goes on, or a child of another
# name.
LONG_TEXTS = {
    "mismatched closing tag": lambda t: f"<r><a>{t}</b></r>",
    "comment after a leaf's text": lambda t: f"<r><a>{t}<!-- c -->{t}</a></r>",
    "text before a child of another name": lambda t: f"<r><a>{t}<b/>{t}</a></r>",
}


def _parse_outcome(source):
    try:
        return parse_xml(source)
    except ParseError as err:
        return err


@pytest.mark.parametrize("shape", LONG_TEXTS)
def test_long_entity_text_linear(shape):
    # A text run is one match however many entities it holds, and a
    # start tag takes it in whole whatever follows it. A pattern that
    # backtracks per character or per entity grows 16x or worse for 4x
    # the text; a linear one measures 4-6x. The two sizes are timed in
    # alternation, each going first in turn.
    files = []
    for n in (50_000, 200_000):
        text = _entity_text(n)
        files.append(LONG_TEXTS[shape](text))
        outcome = _parse_outcome(files[-1])
        if isinstance(outcome, ParseError):
            assert outcome.message == "mismatched closing tag: expected </a>, found </b>"
        else:
            decoded = text.replace("&amp;", "&").replace("&lt;", "<")
            assert [string_value(c) for c in outcome.children] == [decoded * 2]
    del outcome
    times = [float("inf"), float("inf")]
    for rep in range(5):
        for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
            gc.collect()
            t0 = time.perf_counter()
            _parse_outcome(files[i])
            times[i] = min(times[i], time.perf_counter() - t0)
    ratio = times[1] / times[0]
    assert 2.0 <= ratio <= 10.0, f"4x text took {ratio:.1f}x as long ({times})"


@pytest.mark.parametrize("shape", LONG_TEXTS)
def test_long_entity_text_calls_independent_of_length(shape):
    # The work the timing bracket above measures, counted, so that host
    # load cannot move it: every call, regex matches included. Each run
    # of text is read in a fixed number of calls whatever its length and
    # its number of entities, on the token's route and on the long way
    # after a comment alike.
    small, large = (_calls_to_parse(LONG_TEXTS[shape](_entity_text(n)), _parse_outcome)
                    for n in (50_000, 200_000))
    assert small == large, f"4x text made {large} calls against {small}"


def test_first_text_before_a_child_is_one_token_with_its_start_tag(monkeypatch):
    # The count twin of the mixed-content shape above: the text after
    # <p> is read with its start tag, not matched again as a text token.
    # One match for each of <p>T, <b/>, T, </p> and </r>.
    matches = 0

    class CountingToken:
        def match(self, text, i):
            nonlocal matches
            matches += 1
            return token.match(text, i)

    token = xmldoc._TOKEN
    monkeypatch.setattr(xmldoc, "_TOKEN", CountingToken())
    root = parse_xml("<r><p>T<b/>T</p></r>")
    assert string_value(root) == "TT"
    assert matches == 5
