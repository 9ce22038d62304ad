"""Network ingestion, adjacency, transpose, and round-trip tests."""

import gc
import pickle
import random
import sys
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings

from netcheck.errors import FormatError, ParseError, UnknownKeyError
from netcheck.network import (
    Edge,
    Network,
    load_network,
    network_equal,
    parse_network,
    serialize_network,
)
from netcheck.xmldoc import XmlElement, parse_xml

from tests.gens import make_network, random_network
from tests.test_metrics import messy_networks


def test_minimal_directed():
    net = parse_network('<network><node key="k1"/><node key="k2"/><edge from="k1" to="k2"/></network>')
    assert net.directed
    assert (net.n, net.m) == (2, 1)
    assert net.successors("k1") == ("k2",)
    assert net.predecessors("k1") == ()
    assert net.successors("k2") == ()
    assert net.predecessors("k2") == ("k1",)


def test_empty_network():
    net = parse_network("<network/>")
    assert (net.n, net.m) == (0, 0)
    assert net.node_keys() == ()


def test_undirected_symmetry():
    net = parse_network(
        '<network directed="false"><node key="a"/><node key="b"/>'
        '<edge from="a" to="b"/></network>'
    )
    assert net.successors("a") == net.predecessors("a") == ("b",)
    assert net.successors("b") == ("a",)


def test_five_node_predecessors():
    edges = [("1", "2"), ("1", "3"), ("2", "3"), ("3", "1")]
    net = make_network(edges, keys=["1", "2", "3", "4", "5"])
    assert net.predecessors("3") == ("1", "2")
    assert net.successors("4") == ()


def test_payload_is_the_node_element():
    net = parse_network(
        '<network><node key="w2"><title>Google</title></node></network>'
    )
    payload = net.payload("w2")
    assert payload.name == "node"
    assert payload.attrs["key"] == "w2"
    assert payload.children[0].name == "title"
    # detached from the surrounding document
    assert payload.parent is None


def test_adjacency_lists_sorted_and_deduplicated():
    net = parse_network(
        '<network><node key="a"/><node key="b"/><node key="c"/>'
        '<edge from="a" to="c"/><edge from="a" to="b"/><edge from="a" to="b"/>'
        "</network>"
    )
    assert net.successors("a") == ("b", "c")
    assert net.edge_multiplicity("a", "b") == 2
    assert net.edge_multiplicity("a", "c") == 1
    assert net.edge_multiplicity("b", "a") == 0
    assert net.m == 3


def test_undirected_multiplicity_counts_both_orientations():
    net = parse_network(
        '<network directed="false"><node key="a"/><node key="b"/>'
        '<edge from="a" to="b"/><edge from="b" to="a"/></network>'
    )
    assert net.edge_multiplicity("a", "b") == 2
    assert net.edge_multiplicity("b", "a") == 2
    assert net.m == 2


def test_undirected_self_loop_counts_once():
    net = parse_network(
        '<network directed="false"><node key="a"/><node key="b"/>'
        '<edge from="a" to="a"/><edge from="a" to="a"/><edge from="b" to="a"/></network>'
    )
    assert net.edge_multiplicity("a", "a") == 2
    assert net.edge_multiplicity("a", "b") == net.edge_multiplicity("b", "a") == 1
    assert net.successors("a") == net.predecessors("a") == ("a", "b")
    assert net.simple_view == (frozenset({1}), frozenset({0}))


@given(messy_networks())
@settings(max_examples=200, deadline=None)
def test_adjacency_and_multiplicity_match_edge_records(net):
    # Each record is one (src, dst) pair, and one (dst, src) pair as
    # well when undirected unless it is a self-loop.
    pairs = [(e.src, e.dst) for e in net.edges]
    if not net.directed:
        pairs += [(b, a) for a, b in pairs if a != b]
    keys = net.node_keys()
    for a in keys:
        assert net.successors(a) == tuple(sorted({d for s, d in pairs if s == a}))
        assert net.predecessors(a) == tuple(sorted({s for s, d in pairs if d == a}))
        for b in keys:
            assert net.edge_multiplicity(a, b) == pairs.count((a, b))
    simple = [{keys.index(b) for s, b in pairs if s == a and b != a}
              | {keys.index(s) for s, b in pairs if b == a and s != a} for a in keys]
    assert list(net.simple_view) == simple
    # The degrees that a counting pass copies: distinct neighbours by id.
    assert net._out_degree == tuple(len(net.successors(a)) for a in keys)
    assert net._in_degree == tuple(len(net.predecessors(a)) for a in keys)
    if not net.directed:
        assert net._in_degree is net._out_degree


def test_unknown_key_raises():
    net = parse_network('<network><node key="a"/></network>')
    for call in (net.successors, net.predecessors, net.payload):
        with pytest.raises(UnknownKeyError):
            call("zz")
    with pytest.raises(UnknownKeyError):
        net.edge_multiplicity("a", "zz")


def test_weight_parsing():
    net = parse_network(
        '<network><node key="a"/><node key="b"/>'
        '<edge from="a" to="b" weight="2.5"/></network>'
    )
    assert net.edges[0].weight == 2.5


@pytest.mark.parametrize(
    "body",
    [
        '<node/>',
        '<node key=""/>',
        '<node key="a"/><node key="a"/>',
        '<node key="a"/><edge from="a" to="zz"/>',
        '<node key="a"/><edge from="a"/>',
        '<node key="a"/><edge from="a" to="a" weight="0"/>',
        '<node key="a"/><edge from="a" to="a" weight="-1"/>',
        '<node key="a"/><edge from="a" to="a" weight="x"/>',
        '<node key="a"/><edge from="a" to="a" weight="NaN"/>',
        '<node key="a"/><edge from="a" to="a" color="red"/>',
        '<node key="a"/><edge from="a" to="a">x</edge>',
        "<other/>",
        "stray text",
    ],
)
def test_malformed_networks_rejected(body):
    with pytest.raises(FormatError):
        parse_network(f"<network>{body}</network>")


def test_bad_root_rejected():
    with pytest.raises(FormatError):
        parse_network("<graph/>")
    with pytest.raises(FormatError):
        parse_network('<network size="3"/>')
    with pytest.raises(FormatError):
        parse_network('<network directed="yes"/>')


def test_malformed_xml_is_parse_error():
    with pytest.raises(ParseError):
        parse_network("<network>")


def test_constructor_validates_endpoints_and_weights():
    payload = parse_xml('<node key="a"/>')
    with pytest.raises(FormatError):
        Network(True, {"a": payload}, [Edge("a", "zz")])
    import decimal

    with pytest.raises(FormatError):
        Network(True, {"a": payload}, [Edge("a", "a", decimal.Decimal(0))])


@pytest.mark.parametrize("edges, message", [
    # The first bad edge wins, whichever check it fails.
    ([Edge("a", "a", Decimal(0)), Edge("zz", "a"), Edge("a", "yy")],
     "edge weight must be positive, got 0"),
    ([Edge("a", "a"), Edge("a", "yy"), Edge("zz", "a", Decimal(-1))],
     "edge endpoint 'yy' is not a declared node"),
    ([Edge("zz", "a"), Edge("a", "a", Decimal(0))],
     "edge endpoint 'zz' is not a declared node"),
    # Within one edge: source, then destination, then weight.
    ([Edge("zz", "yy", Decimal(0))], "edge endpoint 'zz' is not a declared node"),
    ([Edge("a", "yy", Decimal(0))], "edge endpoint 'yy' is not a declared node"),
    ([Edge("a", "a", Decimal(-1))], "edge weight must be positive, got -1"),
])
@pytest.mark.parametrize("directed", [True, False])
def test_constructor_reports_the_first_bad_edge(edges, message, directed):
    with pytest.raises(FormatError) as info:
        Network(directed, {"a": parse_xml('<node key="a"/>')}, edges)
    assert str(info.value) == message


@pytest.mark.parametrize("weight", ["Infinity", "-Infinity", "NaN", "sNaN"])
def test_constructor_rejects_non_finite_weights(weight):
    payload = parse_xml('<node key="a"/>')
    with pytest.raises(FormatError, match="edge weight must be positive"):
        Network(True, {"a": payload}, [Edge("a", "a", Decimal(weight))])


def test_parse_network_releases_root_and_edges():
    # Each payload has a rank array of its own, which holds its items
    # only: the <network> root and the edges never enter one, so once
    # the collector has run, none of them is alive. (XmlElement has no
    # __weakref__ slot, so the survivors are looked for among the
    # collector's objects; the probe key singles out this network's.)
    net = parse_network(
        '<network><node key="release-probe"><p>x</p></node>'
        '<edge from="release-probe" to="release-probe"/>'
        '<node key="b"/><edge from="b" to="release-probe" weight="2"/></network>'
    )
    payload = net.payload("release-probe")
    doc = payload.doc
    gc.collect()
    alive = [
        o for o in gc.get_objects()
        if isinstance(o, XmlElement)
        and ("release-probe" in (o.attrs.get("from"), o.attrs.get("to"))
             or (o.name == "network" and payload in o.children))
    ]
    assert alive == []
    assert doc == [payload, payload.children[0], payload.children[0].children[0]]
    assert net.payload("b").doc == [net.payload("b")]


def test_parse_network_shares_one_weight_per_text():
    # A canonical run, a second one after the comment, and two edges
    # that take the general route; an omitted weight is the text "1".
    net = parse_network(
        '<network><node key="a"/><edge from="a" to="a" weight="2.5"/>'
        '<edge from="a" to="a"/><edge from="a" to="a" weight="2.5"/>'
        '<edge from="a" to="a" weight="2.50"/><!-- c --><edge from="a" to="a" weight="2.5"/>'
        "<edge from='a' to='a' weight='2.5'/><edge from='a' to='a' weight='1'/></network>"
    )
    w = [e.weight for e in net.edges]
    assert w == [Decimal("2.5"), 1, Decimal("2.5"), Decimal("2.5"), Decimal("2.5"),
                 Decimal("2.5"), 1]
    assert w[0] is w[2] is w[4] is w[5] and w[1] is w[6] and w[0] is not w[3]
    assert str(w[3]) == "2.50"


def test_both_edge_routes_make_edge_records():
    net = parse_network(
        '<network><node key="a"/><edge from="a" to="a" weight="2"/>'
        "<edge from='a' to='a'/></network>"
    )
    assert [type(e) for e in net.edges] == [Edge, Edge]
    assert net.edges == (("a", "a", Decimal(2)), ("a", "a", Decimal(1)))


@pytest.mark.parametrize("first, second, message", [
    ("x", "0", "edge weight must be numeric, got 'x'"),
    ("0", "x", "edge weight must be positive, got '0'"),
    ("-1", "-1.0", "edge weight must be positive, got '-1'"),
])
def test_a_run_reports_its_first_bad_weight(first, second, message):
    # All four edges are one canonical run; the bad weights come second
    # and third, each also once more after them.
    edges = "".join(f'<edge from="a" to="a"{w}/>' for w in (
        "", f' weight="{first}"', f' weight="{second}"', f' weight="{first}"'))
    with pytest.raises(FormatError) as info:
        parse_network(f'<network><node key="a"/>{edges}</network>')
    assert str(info.value) == message


def test_edge_record_is_an_immutable_tuple():
    e = Edge("a", "b")
    assert repr(e) == "Edge(src='a', dst='b', weight=Decimal('1'))"
    assert e == ("a", "b", Decimal(1)) and hash(e) == hash(("a", "b", Decimal(1)))
    src, dst, weight = e
    assert (src, dst, weight) == (e.src, e.dst, e.weight)
    with pytest.raises(AttributeError):
        e.weight = Decimal(2)
    again = pickle.loads(pickle.dumps(e))
    assert type(again) is Edge and again == e


def _chain_file(n, q='"', attributes_only=False):
    """A directed chain of n nodes, each with an attributed payload, or
    with ``attributes_only`` each a <node/> tag with two attributes
    besides its key, and n - 1 weighted edges whose attribute values are
    quoted with ``q``."""
    parts = ["<network>"]
    if attributes_only:
        parts += [f'<node key="n{i}" v="{i % 7}" w="x"/>' for i in range(n)]
    else:
        parts += [f'<node key="n{i}"><p v="{i % 7}" w="x">t{i}</p></node>' for i in range(n)]
    parts += [f"<edge from={q}n{i}{q} to={q}n{i + 1}{q} weight={q}{1 + i % 3}{q}/>"
              for i in range(n - 1)]
    parts.append("</network>")
    return "\n".join(parts).encode()


def test_parse_network_linear_on_chains():
    # One pass over the text. Every edge is in the spelling that
    # serialize_network writes, which one pattern reads. A quadratic
    # step would grow about 16x for 4x the nodes; a linear one measures
    # 4-6x, the collector and cache effects included. The same holds
    # when every node is an attribute-only <node/> tag, which the pattern
    # for runs of nodes reads.
    _assert_linear_on_chains('"')
    _assert_linear_on_chains('"', attributes_only=True)


def test_parse_network_linear_on_chains_of_single_quoted_edges():
    # The edge pattern refuses single quotes, so each edge is parsed as
    # an element and then checked; the same bracket holds.
    _assert_linear_on_chains("'")


def _assert_linear_on_chains(quote, attributes_only=False):
    # The two sizes are timed in alternation, each going first in turn,
    # so that a change in host speed reaches both.
    files = []
    for n in (5_000, 20_000):
        data = _chain_file(n, quote, attributes_only)
        net = parse_network(data)
        assert (net.n, net.m) == (n, n - 1)
        assert net.successors(f"n{n - 2}") == (f"n{n - 1}",)
        if attributes_only:
            assert net.payload("n3").attrs == {"key": "n3", "v": "3", "w": "x"}
        else:
            assert net.payload("n3").children[0].attrs == {"v": "3", "w": "x"}
        files.append(data)
    # No network is kept alive while the parses are timed, and each
    # starts after a full collection, so that neither the collector's
    # passes over a kept network nor garbage left by the previous parse
    # falls on one size more than the other.
    del net
    times = [float("inf"), float("inf")]
    for rep in range(3):
        for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
            gc.collect()
            t0 = time.perf_counter()
            parse_network(files[i])
            times[i] = min(times[i], time.perf_counter() - t0)
    ratio = times[1] / times[0]
    assert 2.0 <= ratio <= 10.0, f"4x nodes took {ratio:.1f}x as long ({times})"


def _calls_to_parse(data, parse=parse_network):
    """The Python and built-in calls that ``parse`` makes on ``data``,
    as sys.setprofile reports them."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        parse(data)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("quote", ['"', "'"])
def test_parse_network_calls_linear_on_chains(quote):
    # The work the timing brackets above measure, counted, so that host
    # load cannot move it: every call, regex matches included. A step
    # that repeats per item grows 16x for 4x the nodes, and n log n
    # about 4.7x. Work done inside one call, such as a slice copy, is not
    # seen here; the brackets above still bound it. Both forms of node
    # are counted: with a payload, and attribute-only.
    for attributes_only in (False, True):
        small, large = (_calls_to_parse(_chain_file(n, quote, attributes_only))
                        for n in (5_000, 20_000))
        ratio = large / small
        assert 3.8 <= ratio <= 4.2, (f"4x nodes made {ratio:.2f}x the calls ({small}, {large}),"
                                     f" attributes only: {attributes_only}")


def test_transpose_reverses_edges():
    net = make_network([("a", "b"), ("b", "c")])
    t = net.transpose()
    assert t.successors("b") == ("a",)
    assert t.successors("c") == ("b",)
    assert t.successors("a") == ()
    # payloads shared, not copied
    assert t.payload("a") is net.payload("a")


def test_transpose_is_involution():
    rng = random.Random(7)
    for _ in range(20):
        net = random_network(rng)
        assert network_equal(net.transpose().transpose(), net)


def test_transpose_of_undirected_is_identity():
    net = make_network([("a", "b")], directed=False)
    assert net.transpose() is net


def test_adjacency_view_transposed():
    net = make_network([("a", "b")])
    assert net.successors("a") == ("b",) and net.predecessors("a") == ()
    assert net.predecessors("b") == ("a",) and net.successors("b") == ()
    t = net.transpose()
    for k in net.node_keys():
        assert t.successors(k) == net.predecessors(k)
        assert t.predecessors(k) == net.successors(k)


def test_degree_sum_with_multiplicity():
    rng = random.Random(11)
    for _ in range(20):
        directed = rng.random() < 0.5
        net = random_network(rng, directed=directed)
        total = 0
        for e in net.edges:
            total += 2 if (not directed and e.src != e.dst) else 1
            if not directed and e.src == e.dst:
                total += 1  # loop contributes twice to its endpoint
        expect = net.m if directed else 2 * net.m
        assert total == expect


def test_serialize_round_trip(tmp_path):
    source = (
        '<network directed="false">'
        '<node key="a"><name first="Paul"/>Erdos</node>'
        '<node key="b &amp; co"/>'
        '<edge from="a" to="b &amp; co" weight="2"/>'
        '<edge from="a" to="a"/>'
        "</network>"
    )
    net = parse_network(source)
    text = serialize_network(net)
    again = parse_network(text)
    assert network_equal(net, again)
    # and via file loading
    p = tmp_path / "net.xml"
    p.write_text(text, encoding="utf-8")
    assert network_equal(load_network(p), net)


def test_network_equal_distinguishes():
    a = make_network([("x", "y")])
    assert not network_equal(a, make_network([("y", "x")]))
    assert network_equal(
        make_network([("x", "y")], directed=False),
        make_network([("y", "x")], directed=False),
    )
    assert not network_equal(a, make_network([("x", "y")], directed=False))
    assert not network_equal(a, make_network([("x", "y"), ("x", "y")]))
