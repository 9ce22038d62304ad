"""The two routes by which parse_network reads an <edge>: one pattern,
which reads a run of edges at a time, for the spelling
serialize_network writes, and the general tag parser for every other
spelling. Both must give the same network, and a
malformed file must raise the same error, at the same line and column,
as when the whole file was parsed into one XML tree before any of it
was checked."""

import gc
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from netcheck.errors import FormatError, ParseError
from netcheck.network import (Edge, Network, _add_child, _directed, network_equal, parse_network,
                              serialize_network)
from netcheck.xmldoc import XmlElement, XmlText, escape_attr, parse_xml, serialize_xml

from tests.test_metrics import messy_networks

WEIGHTS = ("1", "2.5", "2.50", "0.125", "3E+2", "7")
# How the keys of messy_networks are renamed, so that keys hold
# characters that are written as entity references.
RENAMES = ("{}", "{}&x", "'{}'", '"{}"', "<{}>", "{0} & {0}")
SPELLINGS = ("canonical", "no weight", "single quotes", "swapped", "entities", "spaced",
             "closed", "closed with comment")
SEPARATORS = ("\n", "", "<!-- c -->", " \t\r\n ", "\n<!-- a -->\n<!-- b -->\n")


@st.composite
def weighted_networks(draw):
    """Networks of messy_networks with awkward keys, weights other than
    1, and on some nodes a payload below the node element."""
    net = draw(messy_networks())
    rename = draw(st.sampled_from(RENAMES))
    key = {k: rename.format(k) for k in net.nodes}
    nodes = {}
    for k in net.nodes:
        body = draw(st.sampled_from(("", '<p a="1">t</p>', "<q/>text")))
        nodes[key[k]] = parse_xml(f'<node key="{escape_attr(key[k])}">{body}</node>')
    edges = [Edge(key[e.src], key[e.dst], Decimal(draw(st.sampled_from(WEIGHTS))))
             for e in net.edges]
    return Network(net.directed, nodes, edges)


def _entities(s: str) -> str:
    """``s`` with every character that has a predefined entity written
    as that entity."""
    for c, ref in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
                   ("'", "&apos;")):
        s = s.replace(c, ref)
    return s


def _edge_tag(e: Edge, spelling: str) -> str:
    """The edge ``e`` in one of several spellings that all mean it."""
    src, dst, w = escape_attr(e.src), escape_attr(e.dst), str(e.weight)
    canonical = f'<edge from="{src}" to="{dst}" weight="{w}"/>'
    if spelling == "no weight" and w == "1":
        return f'<edge from="{src}" to="{dst}"/>'
    if spelling == "single quotes":
        return f"<edge from='{_entities(e.src)}' to='{_entities(e.dst)}' weight='{w}'/>"
    if spelling == "swapped":
        return f'<edge weight="{w}" to="{dst}" from="{src}"/>'
    if spelling == "entities":
        return f'<edge from="{_entities(e.src)}" to="{_entities(e.dst)}" weight="{w}"/>'
    if spelling == "spaced":
        return f'<edge\tfrom\t=\r\n"{src}"\n to =\t"{dst}" weight\r\n=\n"{w}" />'
    if spelling == "closed":
        return canonical[:-2] + "></edge>"
    if spelling == "closed with comment":
        return canonical[:-2] + "> <!-- empty -->\n</edge >"
    return canonical


@given(weighted_networks(), st.data())
@settings(max_examples=200, deadline=None)
def test_every_spelling_of_the_edges_gives_the_same_network(net, data):
    canonical = serialize_network(net)
    expected = parse_network(canonical)
    assert network_equal(expected, net)
    assert expected.edges == net.edges
    # The same file with each edge in a spelling of its own, the nodes
    # moved in among the edges, and comments and whitespace between
    # the children of <network>.
    nodes = [serialize_xml(net.nodes[k]) for k in net.node_keys()]
    edges = [_edge_tag(e, data.draw(st.sampled_from(SPELLINGS))) for e in net.edges]
    children = []
    while nodes or edges:
        take_node = nodes and (not edges or data.draw(st.booleans()))
        children.append((nodes if take_node else edges).pop(0))
        children.append(data.draw(st.sampled_from(SEPARATORS)))
    directed = "true" if net.directed else "false"
    respelled = parse_network(f"<network directed='{directed}'>{''.join(children)}</network>")
    assert network_equal(respelled, expected)
    assert respelled.edges == expected.edges
    assert [str(e.weight) for e in respelled.edges] == [str(e.weight) for e in net.edges]


def test_edges_of_both_routes_are_released():
    # An edge that the pattern refuses is parsed as an element, which
    # must not stay alive, nor in the payload's rank array.
    net = parse_network(
        '<network><node key="route-probe"/>'
        "<edge from='route-probe' to='route-probe'/>"
        '<edge to="route-probe" from="route-probe"></edge>'
        '<edge from="route-probe" to="route-probe"/></network>'
    )
    assert net.m == 3
    payload = net.payload("route-probe")
    gc.collect()
    alive = [o for o in gc.get_objects()
             if isinstance(o, XmlElement) and o.attrs.get("from") == "route-probe"]
    assert alive == []
    assert payload.doc == [payload]


# Each malformed file with the exception type and message (a
# ParseError's holds its line and column) that parsing the whole file
# into one tree and checking it after gives; None for the few files in
# the list that are valid.
MALFORMED = [
    ('<network><node key="a"/><edge from="a" to="a" color="red"/></network>',
     ('FormatError', "unknown attribute 'color' on <edge>")),
    ('<network><node key="a"/><edge color="red" from="a"/></network>',
     ('FormatError', "unknown attribute 'color' on <edge>")),
    ('<network><node key="a"/><edge to="a"/></network>',
     ('FormatError', '<edge> requires from and to attributes')),
    ('<network><node key="a"/><edge from=\'a\'/></network>',
     ('FormatError', '<edge> requires from and to attributes')),
    ('<network><node key="a"/><edge from="a" to="a" weight="x"/></network>',
     ('FormatError', "edge weight must be numeric, got 'x'")),
    ('<network><node key="a"/><edge from="a" to="a" weight=""/></network>',
     ('FormatError', "edge weight must be numeric, got ''")),
    ('<network><node key="a"/><edge from=\'a\' to=\'a\' weight=\'0\'/></network>',
     ('FormatError', "edge weight must be positive, got '0'")),
    ('<network><node key="a"/><edge from="a" to="a" weight="-1"/></network>',
     ('FormatError', "edge weight must be positive, got '-1'")),
    ('<network><node key="a"/><edge from="a" to="a" weight="NaN"/></network>',
     ('FormatError', "edge weight must be positive, got 'NaN'")),
    ('<network><node key="a"/><edge from="a" to="a" weight="sNaN"/></network>',
     ('FormatError', "edge weight must be positive, got 'sNaN'")),
    ('<network><node key="a"/><edge from="a" to="a" weight="Infinity"/></network>',
     ('FormatError', "edge weight must be positive, got 'Infinity'")),
    ('<network><node key="a"/><edge from="a" to="zz"/></network>',
     ('FormatError', "edge endpoint 'zz' is not a declared node")),
    ('<network><node key="a"/><edge from="" to="a"/></network>',
     ('FormatError', "edge endpoint '' is not a declared node")),
    ('<network><node key="a"/><edge from="a&amp;b" to="a"/></network>',
     ('FormatError', "edge endpoint 'a&b' is not a declared node")),
    ('<network><node key="a"/><edge from="a" to="a">x</edge></network>',
     ('FormatError', '<edge> must be empty')),
    ('<network><node key="a"/><edge from="a" to="a"><node key="b"/></edge></network>',
     ('FormatError', '<edge> must be empty')),
    ('<network><node key="a"/><edge from="a" to="a" weight="x">x</edge></network>',
     ('FormatError', '<edge> must be empty')),
    ('<network><node key="a"/><edge from="a" from="a" to="a"/></network>',
     ('ParseError', "line 1, column 40: duplicate attribute 'from'")),
    ('<network><node key="a"/><edge from="a" to="a" weight="1"/ ></network>',
     ('ParseError', "line 1, column 58: expected '>' after '/'")),
    ('<network><node key="a"/><edge from="a" to="a" weight="1"',
     ('ParseError', 'line 1, column 25: unterminated start tag <edge>')),
    ('<network><node key="a"/><edge from="a" to="a<"/></network>',
     ('ParseError', "line 1, column 45: '<' is not allowed in an attribute value")),
    ('<network><node key="a"/><edge from="a" to="a&foo;"/></network>',
     ('ParseError', 'line 1, column 45: unknown entity &foo;')),
    ('<network><node key="a"/><edge from="a" to="a&amp"/></network>',
     ('ParseError', 'line 1, column 45: unterminated entity reference')),
    ('<network><node key="a"/><edge from=a to="a"/></network>',
     ('ParseError', 'line 1, column 36: attribute value must be quoted')),
    ('<network><node key="a"/><edge from="a"to="a"/></network>',
     ('ParseError', 'line 1, column 39: expected whitespace before attribute')),
    ('<network><node key="a"/><edge from="a" to="a"></edg></network>',
     ('ParseError', 'line 1, column 47: mismatched closing tag: expected </edge>, found </edg>')),
    ('<network><node key="a"/><edge from="a" to="a"></network>',
     ('ParseError', 'line 1, column 47: mismatched closing tag: expected </edge>, found </network>')),
    ('<network>stray text</network>',
     ('FormatError', 'text content is not allowed inside <network>')),
    ('<network>&amp;</network>',
     ('FormatError', 'text content is not allowed inside <network>')),
    ('<network> <!-- c --> x <node key="a"/></network>',
     ('FormatError', 'text content is not allowed inside <network>')),
    ('<network><node key="a"/>\n  &lt; \n</network>',
     ('FormatError', 'text content is not allowed inside <network>')),
    ('<network>&bogus;</network>',
     ('ParseError', 'line 1, column 10: unknown entity &bogus;')),
    ('<network>&amp</network>',
     ('ParseError', 'line 1, column 10: unterminated entity reference')),
    ('<network><?pi?></network>',
     ('ParseError', 'line 1, column 10: processing instructions are not supported')),
    ('<network><!DOCTYPE x></network>',
     ('ParseError', "line 1, column 10: '<!' markup is not supported")),
    ('<network><!-- unterminated</network>',
     ('ParseError', 'line 1, column 10: unterminated comment')),
    ('<network><node key="a"/><![CDATA[x]]></network>',
     ('ParseError', "line 1, column 25: '<!' markup is not supported")),
    ('<network><other/></network>',
     ('FormatError', 'unknown element <other> inside <network>')),
    ('<network><node key="a"/><other><x/></other></network>',
     ('FormatError', 'unknown element <other> inside <network>')),
    ('<network><Node key="a"/></network>',
     ('FormatError', 'unknown element <Node> inside <network>')),
    ('<network><edges from="a" to="a"/></network>',
     ('FormatError', 'unknown element <edges> inside <network>')),
    ('<graph/>',
     ('FormatError', 'root element must be <network>, got <graph>')),
    ('<graph><x></graph>',
     ('ParseError', 'line 1, column 11: mismatched closing tag: expected </x>, found </graph>')),
    ('<graph/><extra/>',
     ('ParseError', 'line 1, column 9: multiple root elements')),
    ('<network size="3"/>',
     ('FormatError', "unknown attribute 'size' on <network>")),
    ('<network directed="yes"/>',
     ('FormatError', 'directed must be "true" or "false", got \'yes\'')),
    ('<network directed="yes" size="1"><edge/></network>',
     ('FormatError', "unknown attribute 'size' on <network>")),
    ('',
     ('ParseError', 'line 1, column 1: document has no root element')),
    ('   ',
     ('ParseError', 'line 1, column 4: document has no root element')),
    ("<?xml version='1.0'",
     ('ParseError', 'line 1, column 1: unterminated XML declaration')),
    ('x<network/>',
     ('ParseError', 'line 1, column 1: content outside the root element')),
    ('<network></graph>',
     ('ParseError', 'line 1, column 10: mismatched closing tag: expected </network>, found </graph>')),
    ('<network>',
     ('ParseError', 'line 1, column 1: unterminated element <network>')),
    ('<network/><network/>',
     ('ParseError', 'line 1, column 11: multiple root elements')),
    ('<network/>trailing',
     ('ParseError', 'line 1, column 11: content outside the root element')),
    ('<network><other/><node key="a"></network>',
     ('ParseError', 'line 1, column 32: mismatched closing tag: expected </node>, found </network>')),
    ('<network directed="maybe"><node key="a"/>',
     ('ParseError', 'line 1, column 1: unterminated element <network>')),
    ('<network>text<node key="a"/></network><x/>',
     ('ParseError', 'line 1, column 39: multiple root elements')),
    ('<network><node/><edge from="a" to="a" weight="x"/></network>',
     ('FormatError', '<node> requires a key attribute')),
    ('<network><edge from="a" to="a" weight="x"/><node/></network>',
     ('FormatError', "edge weight must be numeric, got 'x'")),
    ('<network><edge from="a" to="zz"/><node key="a"/><node key="a"/></network>',
     ('FormatError', "duplicate node key 'a'")),
    ('<network><edge from="a" to="a" weight="0"/><other/></network>',
     ('FormatError', "edge weight must be positive, got '0'")),
    ('<network><edge from="zz" to="a"/>stray</network>',
     ('FormatError', 'text content is not allowed inside <network>')),
    ('<network><node key="a"/><node key="a"/><edge from=\'a\' to=\'a\' weight=\'x\'/></network>',
     ('FormatError', "duplicate node key 'a'")),
    ('<network><other/></network><!--',
     ('ParseError', 'line 1, column 28: unterminated comment')),
    ('<network><edge from="a" to="a" weight="x"/><node key="a">&bad;</node></network>',
     ('ParseError', 'line 1, column 58: unknown entity &bad;')),
    ('<network><edge from="a" to="a" weight="0"/><node key="a">&bad;</node></network>',
     ('ParseError', 'line 1, column 58: unknown entity &bad;')),
    ('<graph><node key="a"><p></q></node></graph>',
     ('ParseError', 'line 1, column 25: mismatched closing tag: expected </p>, found </q>')),
    ('<network><node key="a"/><edge from="a" to="a" weight="x"/><edge from="a" from="a"/></network>',
     ('ParseError', "line 1, column 74: duplicate attribute 'from'")),
    ('<network><edge weight="x" to="a"/><edge from="a" to="a" weight="y"/></network>',
     ('FormatError', '<edge> requires from and to attributes')),
    ('<network><edge from="a" to="a" weight="y"/><edge weight="x" to="a"/></network>',
     ('FormatError', "edge weight must be numeric, got 'y'")),
    ('<network directed="no"><other/></network>',
     ('FormatError', 'directed must be "true" or "false", got \'no\'')),
    ('<network><node key="a"/><edge from="a" to="zz"/><edge from="a" to="a" weight="0"/></network>',
     ('FormatError', "edge weight must be positive, got '0'")),
    ('<network><node key=""/><node/></network>',
     ('FormatError', 'node key must be nonempty')),
    ('<network><node key="a"/><node key="a"/><node key=""/></network>',
     ('FormatError', "duplicate node key 'a'")),
    ('<network><node key="a"><edge from="a" to="a" weight="x"/></node></network>',
     None),
    ('<network>\n  <node key="a"/>\n  <edge from="a" to="a" weight="1" / >\n</network>',
     ('ParseError', "line 3, column 37: expected '>' after '/'")),
    ('<network>\r\n  <other/>\r\n  <edge\tfrom = "a"\n to="a"\n  from="a"/>\n</network>',
     ('ParseError', "line 5, column 3: duplicate attribute 'from'")),
    ('<network>\n  <node key="a">\n    <p>&nope;</p>\n  </node>\n</network>',
     ('ParseError', 'line 3, column 8: unknown entity &nope;')),
    ('<network>\n  <node key="a"/>\n  <edge from="a" to="a">\n',
     ('ParseError', 'line 3, column 3: unterminated element <edge>')),
    (b'<network><other/>\xff</network>',
     ('ParseError', 'line 1, column 1: input is not valid UTF-8: invalid start byte')),
    (b'\xef\xbb\xbf\xef\xbb\xbf<network/>',
     ('ParseError', 'line 1, column 1: content outside the root element')),
    (b'\xef\xbb\xbf<network><edge from="a" to="a"/>\n<!-- c -->\n<node key="a"/></network>',
     None)
]


@pytest.mark.parametrize("data, expected", MALFORMED)
def test_malformed_file_raises_as_before(data, expected):
    try:
        parse_network(data)
        outcome = None
    except Exception as exc:
        outcome = (type(exc).__name__, str(exc))
    assert outcome == expected


def test_parse_error_after_format_fault_has_no_context():
    # The scan reads on after the first format fault, outside the except
    # block that caught it, so a ParseError found later is not chained
    # to the FormatError it wins over.
    for data, expected in MALFORMED:
        if isinstance(data, str) and expected is not None and expected[0] == "ParseError":
            with pytest.raises(ParseError) as info:
                parse_network(data)
            assert info.value.__context__ is None, data


def _whole_tree_outcome(data):
    """What parsing the whole file into one tree with parse_xml and
    checking its children after gives: the network, or the exception's
    type and message."""
    try:
        root = parse_xml(data)
        if root.name != "network":
            raise FormatError(f"root element must be <network>, got <{root.name}>")
        directed = _directed(root.attrs)
        nodes, edges = {}, []
        for child in root.children:
            if isinstance(child, XmlText):
                raise FormatError("text content is not allowed inside <network>")
            _add_child(child, nodes, edges, {})
        return Network(directed, nodes, edges)
    except (ParseError, FormatError) as exc:
        return type(exc).__name__, str(exc)


def _run(n):
    """n canonical edges between the nodes a and b, one a line, whose
    weights are 2.5, left out and 3E+2 in turn."""
    ends, weights = ("a", "b"), (' weight="2.5"', "", ' weight="3E+2"')
    return "".join(f'<edge from="{ends[i % 2]}" to="{ends[(i + 1) % 2]}"{weights[i % 3]}/>\n'
                   for i in range(n))


NODES = '<node key="a"/>\n<node key="b"><p>x</p></node>\n'
# Each file breaks a run of canonical edges in one way. The runs are
# long enough that some break a run past the longest one the pattern
# reads at once, 256 edges.
RUN_BREAKS = {
    "comment": _run(3) + "<!-- c -->" + _run(300),
    "node": _run(3) + '<node key="c"/>\n' + _run(2),
    "single-quoted edge": _run(2) + "<edge from='a' to='b'/>" + _run(260),
    "empty weight": _run(2) + '<edge from="a" to="b" weight=""/>' + _run(2),
    "bad weight": _run(2) + '<edge from="a" to="b" weight="x"/>\n' + _run(2),
    "zero weight": _run(300) + '<edge from="a" to="b" weight="0"/>' + _run(2),
    "bad weight last in a full run": _run(255) + '<edge from="a" to="b" weight="-1"/>',
    "bad weight after a full run": _run(256) + '<edge from="a" to="b" weight="-1"/>',
    "bad weight, then a syntax error": _run(1) + '<edge from="a" to="b" weight="x"/>'
                                       + _run(1) + '<edge from="a" from="a"/>',
    "undeclared endpoint": _run(2) + '<edge from="a" to="zz"/>\n' + _run(2),
    "text": _run(2) + "stray" + _run(2),
    "CRLF and tabs": _run(2).replace("\n", "\r\n\t") + _run(2),
}
EOF_CUT = NODES + _run(3)


def _run_files(root):
    """Each file of RUN_BREAKS, each file that ends inside an edge, at
    several points of the tag, and one that ends after a run, under the
    root element ``root``, by name."""
    files = {name: f"<{root}>\n{NODES}{body}</{root}>" for name, body in RUN_BREAKS.items()}
    for cut in (1, 5, 17, 26, 31, 35):
        files[f"ends inside an edge {cut}"] = f"<{root}>{EOF_CUT}{_run(1)[:cut]}"
    files["ends after a run"] = f"<{root}>{EOF_CUT}"
    return files


# Each file also under the wrong root <graph>, whose name is then the
# first fault, unless the rest of the file does not parse.
@pytest.mark.parametrize("data", [
    *(pytest.param(data, id=name) for name, data in _run_files("network").items()),
    *(pytest.param(data, id=f"{name}, root <graph>") for name, data in _run_files("graph").items()),
])
def test_runs_of_edges_read_as_the_whole_tree(data):
    expected = _whole_tree_outcome(data)
    try:
        outcome = parse_network(data)
    except (ParseError, FormatError) as exc:
        outcome = type(exc).__name__, str(exc)
    if isinstance(expected, Network):
        assert isinstance(outcome, Network) and network_equal(outcome, expected)
        assert outcome.edges == expected.edges
        assert [str(e.weight) for e in outcome.edges] == [str(e.weight) for e in expected.edges]
    else:
        assert outcome == expected
