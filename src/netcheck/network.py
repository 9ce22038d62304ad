"""Node-attributed networks and their XML wire format.

A network is a keyed set of nodes, each carrying an XML payload, plus a
multiset of weighted edges. An edge record, ``Edge``, is a NamedTuple
``(src, dst, weight)``: it unpacks, and it equals its plain tuple. The
XML format is::

    <network directed="true|false">      directed defaults to "true"
      <node key="K"> ... payload ... </node>
      <edge from="K1" to="K2" weight="W"/>   weight optional, default 1

The file is read without building a tree of it. Each ``<node>`` is a
payload, ranked as the document it would be on its own; a network ranks
a payload built by hand once, when it is built. One regular expression
call reads either a run of ``<edge>`` tags in the spelling that
``serialize_network`` writes, whose columns become ``Edge`` records in
one ``map``, each distinct weight text checked once, or a run of
self-closing ``<node/>`` tags that hold attributes only, double-quoted
and free of entity references, whose attribute maps are built in C
from one ``findall`` each. A tag in any other spelling is parsed as an
element; an edge element is checked and dropped. The errors are those
of parsing the whole file first and checking it after: a ParseError
anywhere wins over a FormatError, so a run of nodes is checked for a
repeated attribute before its keys are, the first FormatError in the
file wins, and the checks of ``Network`` on the endpoints come last.

An undirected edge is a single record incident to both endpoints.
Parallel edges are kept as separate records. Multiplicity is counted
from the records when it is asked for. Weights must be finite and
positive; the logic ignores them entirely.

A network numbers its nodes by their position in key order, so
ascending ids are ascending keys, and keeps one adjacency, in ids: the
distinct successor and predecessor ids of each node as ascending tuples,
built at construction in the one pass that checks the edges. An
undirected network has one tuple per node for both. The checker and the
witness read it; the key form of ``successors`` and ``predecessors`` is
decoded from it, per key. Two views are built on first use and kept:
the undirected simple view and its weak components, which the
statistics share.

A network also keeps the frozenset of its node keys, which every
labelling and check reads; the out-degree and in-degree of each node
id, as tuples made once from the adjacency (one tuple when undirected),
from which a counting pass copies its counts; and a store of filter
labels. For each filter the labelling has evaluated on it, the store
holds the label as one int bitset of the ids whose payload matches, bit
i for id i; the key sets of the public ``LabelMap`` are decoded from
it. The store is bounded by ``_STORED_BYTES_PER_NODE`` bytes per node:
a label counts the bytes of its bitset, which cost up to n/8 whatever
its key count, plus ``_LABEL_ENTRY_BYTES`` for the entry itself, so
that an empty label counts. Labels are dropped oldest first. A payload
must therefore not change once it is inside a network, or its stored
labels go stale. A key set decoded from a label is kept by filter in a
weak map while a caller holds it, so that label maps made meanwhile
share it.
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from functools import cached_property
from itertools import repeat
from typing import Mapping, NamedTuple
from weakref import WeakValueDictionary

from .errors import FormatError, UnknownKeyError
from .xmldoc import (
    _NAME_RE,
    XmlElement,
    _rank,
    _reject_start_tag,
    _root_children,
    escape_attr,
    serialize_xml,
    xml_equal,
)

# Bound of a network's label store, in bytes per node. A label counts
# the bytes of its bitset, up to n/8, and a fixed cost for its entry, so
# a full store holds about 8000 labels that reach the highest id; the 17
# filters of the benchmark's payloads workload hold 9 bytes a node.
_STORED_BYTES_PER_NODE = 1024
_LABEL_ENTRY_BYTES = 64


def _stored_cost(bits: int) -> int:
    """Bytes that a stored bitset counts against the bound: its own, and
    a fixed cost for its entry."""
    return _LABEL_ENTRY_BYTES + (bits.bit_length() + 7 >> 3)


class Edge(NamedTuple):
    """One edge record. A tuple: it unpacks as ``src, dst, weight`` and
    equals the plain tuple of its fields."""

    src: str
    dst: str
    weight: Decimal = Decimal(1)


class Network:
    """Immutable network: payloads by key plus an edge multiset.

    The payloads are not copied, and must not change once they are in a
    network: a payload built by hand is ranked when the network is
    built, and the labels of filters evaluated on it are kept (see the
    module docstring)."""

    def __init__(self, directed: bool, nodes: Mapping[str, XmlElement], edges):
        self.directed = directed
        self.nodes: dict[str, XmlElement] = dict(nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._keys = keys = tuple(sorted(self.nodes))
        self._key_set = frozenset(keys)
        # The ids as one tuple, so that a fixpoint lists the ids of a set
        # with compress over it and makes no int objects of its own.
        self._ids = ids = tuple(range(len(keys)))
        self._index = index = dict(zip(keys, ids))  # key -> id
        succ: list[set[int]] = [set() for _ in keys]
        # An undirected edge joins both ends both ways, so one list serves.
        pred = [set() for _ in keys] if directed else succ
        for e in self.edges:
            # An endpoint without an id is not a declared node.
            src = index.get(e.src)
            if src is None:
                raise FormatError(f"edge endpoint {e.src!r} is not a declared node")
            dst = index.get(e.dst)
            if dst is None:
                raise FormatError(f"edge endpoint {e.dst!r} is not a declared node")
            if not e.weight.is_finite() or e.weight <= 0:
                raise FormatError(f"edge weight must be positive, got {e.weight}")
            succ[src].add(dst)
            pred[dst].add(src)
        # Most sets hold at most one id, and those need no sort.
        self._succ = tuple([tuple(sorted(v)) if len(v) > 1 else tuple(v) for v in succ])
        self._pred = (tuple([tuple(sorted(v)) if len(v) > 1 else tuple(v) for v in pred])
                      if directed else self._succ)
        self._out_degree = tuple(map(len, self._succ))
        self._in_degree = tuple(map(len, self._pred)) if directed else self._out_degree
        self._labels: dict = {}  # filter -> id bitset of its label, oldest first
        self._labels_held = 0  # bytes, by _stored_cost
        self._key_sets = WeakValueDictionary()  # filter -> decoded key set, while held
        for payload in self.nodes.values():
            if payload.doc is None:  # built by hand: rank it once, here
                _rank(payload)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def node_keys(self) -> tuple[str, ...]:
        """All node keys in ascending order."""
        return self._keys

    def payload(self, key: str) -> XmlElement:
        try:
            return self.nodes[key]
        except KeyError:
            raise UnknownKeyError(f"unknown node key {key!r}") from None

    def successors(self, key: str) -> tuple[str, ...]:
        """Distinct successor keys in ascending order, decoded from the
        ids in O(deg). For undirected networks every neighbour counts as
        both successor and predecessor."""
        return self._neighbours(self._succ, key)

    def predecessors(self, key: str) -> tuple[str, ...]:
        """Distinct predecessor keys in ascending order, in O(deg)."""
        return self._neighbours(self._pred, key)

    def _neighbours(self, adj: tuple[tuple[int, ...], ...], key: str) -> tuple[str, ...]:
        i = self._index.get(key)
        if i is None:
            raise UnknownKeyError(f"unknown node key {key!r}")
        return tuple(map(self._keys.__getitem__, adj[i]))

    def edge_multiplicity(self, src: str, dst: str) -> int:
        """Number of parallel edge records from src to dst (either
        orientation counts when undirected, a self-loop once), counted
        from the records on each call."""
        if src not in self.nodes:
            raise UnknownKeyError(f"unknown node key {src!r}")
        if dst not in self.nodes:
            raise UnknownKeyError(f"unknown node key {dst!r}")
        ends = {(src, dst)} if self.directed else {(src, dst), (dst, src)}
        return sum((e.src, e.dst) in ends for e in self.edges)

    def _label(self, filter_expr, evaluate) -> int:
        """The id bitset of ``filter_expr``'s label: the stored one, or
        else ``evaluate(filter_expr)``, which is then stored. An exception
        from ``evaluate`` propagates and stores nothing. Labels are
        dropped oldest first while the store holds more than its bound."""
        bits = self._labels.get(filter_expr)
        if bits is None:
            bits = evaluate(filter_expr)
            self._labels[filter_expr] = bits
            self._labels_held += _stored_cost(bits)
            while self._labels_held > _STORED_BYTES_PER_NODE * len(self._keys):
                oldest = next(iter(self._labels))
                self._labels_held -= _stored_cost(self._labels.pop(oldest))
        return bits

    @cached_property
    def simple_view(self) -> tuple[frozenset[int], ...]:
        """Undirected simple view by node id, the position of a key in
        :meth:`node_keys`: the distinct neighbour ids of each node, with
        directions dropped, parallel edges collapsed and self-loops
        ignored. Built on first use and kept; a network never changes."""
        ends = map(tuple.__add__, self._succ, self._pred) if self.directed else self._succ
        return tuple(frozenset(e) - {i} for i, e in enumerate(ends))

    @cached_property
    def component_ids(self) -> tuple[tuple[int, ...], ...]:
        """Weakly connected components of :attr:`simple_view` as
        ascending id tuples, largest first, ties by smallest id. Ids
        follow key order, so this is also the order by smallest key."""
        adj = self.simple_view
        seen = [False] * len(adj)
        comps = []
        for start in range(len(adj)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for v in comp:  # breadth-first: the list grows as it is read
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(tuple(sorted(comp)))
        comps.sort(key=lambda c: (-len(c), c[0]))
        return tuple(comps)

    def transpose(self) -> "Network":
        """Network with every edge reversed; undirected networks are
        returned unchanged. Payloads are shared, not copied."""
        if not self.directed:
            return self
        return Network(
            True, self.nodes, [Edge(e.dst, e.src, e.weight) for e in self.edges]
        )


def parse_network(data: bytes | str) -> Network:
    """Parse the XML wire format. Raises ParseError for malformed XML
    and FormatError for well-formed XML that is not a valid network.

    A ParseError anywhere in the text wins over a FormatError, and of
    two FormatErrors the earlier in the text wins; so the checks stop at
    the first format fault, which is raised once the rest of the text is
    read. The checks that ``Network`` makes of endpoints come last."""
    children = _root_children(data, _RUN.match)
    root = next(children)
    nodes: dict[str, XmlElement] = {}
    edges: list[Edge] = []
    weights: dict[str, Decimal] = {}  # weight text -> its checked value
    try:
        if root.name != "network":
            raise FormatError(f"root element must be <network>, got <{root.name}>")
        directed = _directed(root.attrs)
        for child in children:
            if isinstance(child, str):
                raise FormatError("text content is not allowed inside <network>")
            if child.__class__ is XmlElement:
                _add_child(child, nodes, edges, weights)
            elif child.lastindex == _EDGE_RUN:  # edges as serialize_network writes them
                srcs, dsts, texts = zip(*_EDGE.findall(child.string, child.start(), child.end()))
                # Each distinct text is checked once, the first in the file
                # first. "" is an omitted weight; it stays out of ``weights``,
                # where it would let an element's weight="" through.
                by_text = {text: _weight(text or "1", weights) for text in dict.fromkeys(texts)}
                # The records are made in C, with no Python frame per edge.
                edges.extend(map(tuple.__new__, repeat(Edge),
                                 zip(srcs, dsts, map(by_text.__getitem__, texts))))
            else:  # attribute-only <node/> tags
                for attrs in _node_run(child):
                    # What _element makes of the tag: a document of its own.
                    node = XmlElement("node", attrs, 0)
                    node.doc = [node]
                    _add_node(node, nodes)
    except FormatError as exc:
        fault = exc
    else:
        return Network(directed, nodes, edges)
    # Out of the except block, so that a ParseError here chains to
    # nothing. A run of nodes is read again only for a repeated
    # attribute name, which is a ParseError.
    for child in children:
        if child.__class__ is re.Match and child.lastindex == _NODE_RUN:
            _node_run(child)
    raise fault


# An empty <edge> in the spelling serialize_network writes: from, to and
# an optional weight, in that order, double-quoted, with no entity
# reference in any value. A weight is nonempty, so that an omitted one
# is the only empty group; weight="" takes the generic route.
_EDGE = re.compile(r'<edge from="([^"&<]*)" to="([^"&<]*)"(?: weight="([^"&<]+)")?/>')
# A self-closing <node/> that holds attributes only, each double-quoted
# after whitespace, with no entity reference and no '<' in any value;
# its one group is the span of the attributes. A name may repeat, which
# _node_run reports.
_NODE = re.compile(rf'<node((?:[ \t\r\n]+{_NAME_RE}="[^"&<]*")*)[ \t\r\n]*/>')
_NODE_ATTR = re.compile(rf'[ \t\r\n]+({_NAME_RE})="([^"]*)"')


def _run_of(tag: re.Pattern) -> str:
    """A run of up to 256 ``tag`` with only whitespace between them,
    without groups. The regex engine keeps a backtracking record per
    repeat, about 270 bytes, so the bound keeps a long run from costing
    memory in proportion to its length."""
    tag = re.sub(r"\((?!\?)", "(?:", tag.pattern)
    return rf"{tag}(?:[ \t\r\n]*{tag}){{0,255}}"


# A run of edges or a run of nodes; ``lastindex`` names which.
_RUN = re.compile(rf"({_run_of(_EDGE)})|({_run_of(_NODE)})")
_EDGE_RUN, _NODE_RUN = 1, 2


def _node_run(m: re.Match) -> list[dict[str, str]]:
    """The attributes of each tag in the run of <node/> tags that ``m``
    matched, in order. Raises the ParseError of the first tag in which a
    name repeats, as the generic route would, at the tag's offset."""
    text, start, end = m.string, m.start(), m.end()
    pairs = list(map(_NODE_ATTR.findall, _NODE.findall(text, start, end)))
    attrs = list(map(dict, pairs))  # built in C
    if list(map(len, attrs)) != list(map(len, pairs)):
        for tag, a, p in zip(_NODE.finditer(text, start, end), attrs, pairs):
            if len(a) != len(p):
                _reject_start_tag(text, tag.start())
    return attrs


def _directed(attrs: dict[str, str]) -> bool:
    """The direction that the attributes of <network> declare."""
    for attr in attrs:
        if attr != "directed":
            raise FormatError(f"unknown attribute {attr!r} on <network>")
    directed_attr = attrs.get("directed", "true")
    if directed_attr not in ("true", "false"):
        raise FormatError(f'directed must be "true" or "false", got {directed_attr!r}')
    return directed_attr == "true"


def _add_child(child: XmlElement, nodes: dict[str, XmlElement], edges: list[Edge],
               weights: dict[str, Decimal]) -> None:
    """Check an element of <network> that the run pattern refused, and
    add it to ``nodes`` or ``edges``."""
    if child.name == "node":
        _add_node(child, nodes)
    elif child.name == "edge":
        for attr in child.attrs:
            if attr not in ("from", "to", "weight"):
                raise FormatError(f"unknown attribute {attr!r} on <edge>")
        if "from" not in child.attrs or "to" not in child.attrs:
            raise FormatError("<edge> requires from and to attributes")
        if child.children:
            raise FormatError("<edge> must be empty")
        weight = _weight(child.attrs.get("weight", "1"), weights)
        edges.append(Edge(child.attrs["from"], child.attrs["to"], weight))
    else:
        raise FormatError(f"unknown element <{child.name}> inside <network>")


def _add_node(node: XmlElement, nodes: dict[str, XmlElement]) -> None:
    """Check the key of a <node> element and add it to ``nodes``. The
    payload is the element itself, which the parser left detached, so
    that upward axes cannot escape into the file."""
    key = node.attrs.get("key")
    if key is None:
        raise FormatError("<node> requires a key attribute")
    if key == "":
        raise FormatError("node key must be nonempty")
    if key in nodes:
        raise FormatError(f"duplicate node key {key!r}")
    nodes[key] = node


def _weight(text: str, weights: dict[str, Decimal]) -> Decimal:
    """The value of the weight ``text``, checked once per text and kept
    in ``weights``, so that equal texts share one Decimal."""
    weight = weights.get(text)
    if weight is None:
        try:
            weight = Decimal(text)
        except InvalidOperation:
            raise FormatError(f"edge weight must be numeric, got {text!r}") from None
        if not weight.is_finite() or weight <= 0:
            raise FormatError(f"edge weight must be positive, got {text!r}")
        weights[text] = weight
    return weight


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        return parse_network(fh.read())


def serialize_network(net: Network) -> str:
    """Serialize back to the wire format; reparsing yields a
    structurally equal network."""
    lines = [f'<network directed="{"true" if net.directed else "false"}">']
    for key in net.node_keys():
        lines.append(serialize_xml(net.nodes[key]))
    for e in net.edges:
        lines.append(
            f'<edge from="{escape_attr(e.src)}" to="{escape_attr(e.dst)}"'
            f' weight="{e.weight}"/>'
        )
    lines.append("</network>")
    return "\n".join(lines)


def _edge_signature(net: Network) -> list[tuple]:
    sig = []
    for e in net.edges:
        ends = (e.src, e.dst) if net.directed else tuple(sorted((e.src, e.dst)))
        sig.append((ends[0], ends[1], e.weight))
    sig.sort()
    return sig


def network_equal(a: Network, b: Network) -> bool:
    """Structural equality: direction, keyed payloads, edge multisets
    (orientation-insensitive when undirected)."""
    if a.directed != b.directed or set(a.nodes) != set(b.nodes):
        return False
    if any(not xml_equal(a.nodes[k], b.nodes[k]) for k in a.nodes):
        return False
    return _edge_signature(a) == _edge_signature(b)
