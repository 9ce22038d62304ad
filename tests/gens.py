"""Seeded random generators shared by the equivalence and property tests.

Everything takes an explicit random.Random so failures replay exactly.
"""

from __future__ import annotations

import random
from collections import deque

from netcheck.ctl import Atom, Bool, Not, And, Or, Temporal, Until, UNARY_OPS, UNTIL_OPS
from netcheck.network import Edge, Network
from netcheck.xmldoc import parse_xml

TEMPORAL_UNARY = sorted(op for op in UNARY_OPS if op not in ("EX",)) + ["EX"]
ALL_UNARY = sorted(UNARY_OPS)
ALL_UNTIL = sorted(UNTIL_OPS)
PROPS = ("p", "q", "r")


def make_network(edges, directed=True, keys=None, payload_xml=None):
    """Build a network from (src, dst) pairs with stub payloads."""
    node_keys = set(keys or ())
    for a, b in edges:
        node_keys.add(a)
        node_keys.add(b)
    payloads = {}
    for k in sorted(node_keys):
        text = payload_xml.get(k) if payload_xml else None
        payloads[k] = parse_xml(text if text is not None else f'<node key="{k}"/>')
    return Network(
        directed=directed,
        nodes=payloads,
        edges=[Edge(a, b) for a, b in edges],
    )


def random_network(rng: random.Random, max_n=8, p=0.3, directed=True):
    n = rng.randint(1, max_n)
    keys = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for a in keys:
        for b in keys:
            if not directed and b < a:
                continue  # one orientation per unordered pair
            if rng.random() < p:
                edges.append((a, b))
    return make_network(edges, directed=directed, keys=keys)


def simple_adjacency(net: Network) -> dict[str, set[str]]:
    """Undirected simple view straight from the edge records: distinct
    neighbour keys, no self-loops."""
    adj: dict[str, set[str]] = {k: set() for k in net.nodes}
    for e in net.edges:
        if e.src != e.dst:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
    return adj


def union_find_components(net: Network) -> tuple[tuple[str, ...], ...]:
    """Weak components by union-find over the edge records: keys
    ascending inside each, largest first, ties by smallest key."""
    parent = {k: k for k in net.nodes}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for e in net.edges:
        parent[find(e.src)] = find(e.dst)
    groups: dict[str, list[str]] = {}
    for k in net.nodes:
        groups.setdefault(find(k), []).append(k)
    comps = [tuple(sorted(g)) for g in groups.values()]
    return tuple(sorted(comps, key=lambda c: (-len(c), c[0])))


def all_pairs_bfs(net: Network):
    """Independent all-pairs figures for the giant component, one
    breadth-first search per source: (size, diameter, sum of
    ordered-pair distances)."""
    giant = set(union_find_components(net)[0])
    adj = simple_adjacency(net)
    longest = 0
    total = 0
    for s in giant:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w in giant and w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        longest = max(longest, max(dist.values()))
        total += sum(dist.values())
    return len(giant), longest, total


def random_labels(rng: random.Random, net: Network, props=PROPS):
    return {
        key: frozenset(pr for pr in props if rng.random() < 0.5)
        for key in net.node_keys()
    }


def random_formula(rng: random.Random, depth: int, props=PROPS):
    """Random formula over the full operator alphabet, leaves are atoms."""
    if depth <= 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.1:
            return Bool(rng.random() < 0.5)
        return Atom(rng.choice(props))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, depth - 1, props))
    if kind == 1:
        return And(random_formula(rng, depth - 1, props), random_formula(rng, depth - 1, props))
    if kind == 2:
        return Or(random_formula(rng, depth - 1, props), random_formula(rng, depth - 1, props))
    if kind in (3, 4):
        return Temporal(rng.choice(ALL_UNARY), random_formula(rng, depth - 1, props))
    return Until(
        rng.choice(ALL_UNTIL),
        random_formula(rng, depth - 1, props),
        random_formula(rng, depth - 1, props),
    )


# -- attributed networks ----------------------------------------------------

COLORS = ("red", "green", "blue")
TAGS = ("alpha", "beta")


def random_attributed_network(rng: random.Random, max_n=8, p=0.3, directed=True):
    """Network whose payloads carry a numeric attribute, a colour, and tags."""
    n = rng.randint(1, max_n)
    keys = [f"v{i}" for i in range(1, n + 1)]
    payload_xml = {}
    for k in keys:
        num = rng.randint(0, 5)
        color = rng.choice(COLORS)
        children = "".join(
            f"<{tag}>{rng.randint(0, 3)}</{tag}>"
            for tag in TAGS
            if rng.random() < 0.6
        )
        payload_xml[k] = f'<item num="{num}" color="{color}">{children}</item>'
    edges = []
    for a in keys:
        for b in keys:
            if not directed and b < a:
                continue
            if rng.random() < p:
                edges.append((a, b))
    return make_network(edges, directed=directed, keys=keys, payload_xml=payload_xml)


FILTER_POOL = (
    '@num > 2',
    '@num <= 3',
    '@color = "red"',
    '@color != "blue"',
    'alpha',
    'beta',
    'not(alpha)',
    'alpha = beta',
    'count(alpha) = 1',
    'count(*) > 1',
    'contains(@color, "re")',
    '(@num > 1) and (@num < 5)',
    'alpha or beta',
    './/beta',
    '@num = 3 or @color = "green"',
)


def random_filter_text(rng: random.Random) -> str:
    return rng.choice(FILTER_POOL)


def random_xpl_text(rng: random.Random, depth: int) -> str:
    """Formula text whose atoms are bracketed filters from the pool."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.08:
            return rng.choice(("true", "false"))
        return f"[{random_filter_text(rng)}]"
    kind = rng.randrange(6)
    if kind == 0:
        return f"!({random_xpl_text(rng, depth - 1)})"
    if kind == 1:
        return f"({random_xpl_text(rng, depth - 1)}) & ({random_xpl_text(rng, depth - 1)})"
    if kind == 2:
        return f"({random_xpl_text(rng, depth - 1)}) | ({random_xpl_text(rng, depth - 1)})"
    if kind in (3, 4):
        op = rng.choice(ALL_UNARY)
        return f"{op} ({random_xpl_text(rng, depth - 1)})"
    op = rng.choice(ALL_UNTIL)
    return f"{op}({random_xpl_text(rng, depth - 1)}, {random_xpl_text(rng, depth - 1)})"
