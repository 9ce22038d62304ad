"""Statistics: exact values on known graphs plus randomized oracles."""

import itertools
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netcheck.errors import EmptyNetworkError, FormatError
import netcheck.metrics as metrics
from netcheck.metrics import (
    _BLOCK,
    _bit_parallel_sweep,
    _geodesics,
    clustering_coefficient,
    components,
    degree_histogram,
    diameter,
    eulerian_path_exists,
    mean_geodesic,
    triangle_triple_counts,
)
from netcheck.network import Edge, Network, load_network, parse_network
from netcheck.xmldoc import parse_xml

from tests.gens import (
    all_pairs_bfs,
    make_network,
    random_network,
    simple_adjacency,
    union_find_components,
)

FIXTURES = "fixtures"


def undirected(edges, keys=None):
    return make_network(edges, directed=False, keys=keys)


# -- clustering -----------------------------------------------------------------


def test_triangle_clustering_exact():
    k3 = undirected([("x", "y"), ("y", "z"), ("x", "z")])
    assert triangle_triple_counts(k3) == (1, 3)
    assert clustering_coefficient(k3) == Fraction(1)

    square_diag = undirected(
        [("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n4", "n1"), ("n1", "n3")]
    )
    assert clustering_coefficient(square_diag) == Fraction(3, 4)

    path = undirected([("a", "b"), ("b", "c")])
    assert clustering_coefficient(path) == Fraction(0)

    empty = undirected([], keys=["a"])
    assert clustering_coefficient(empty) == Fraction(0)


def test_clustering_ignores_direction_loops_and_parallels():
    messy = make_network(
        [("x", "y"), ("y", "x"), ("y", "z"), ("z", "x"), ("x", "x")],
        directed=True,
    )
    assert clustering_coefficient(messy) == Fraction(1)


def test_fixture_clusterings():
    assert clustering_coefficient(load_network(f"{FIXTURES}/k3.xml")) == 1
    assert clustering_coefficient(
        load_network(f"{FIXTURES}/square_diag.xml")
    ) == Fraction(3, 4)


# -- components -------------------------------------------------------------------


def test_components_order_and_giant():
    net = undirected(
        [("a", "b"), ("c", "d"), ("d", "e")], keys=["a", "b", "c", "d", "e", "z"]
    )
    comp = components(net)
    assert comp.components == (("c", "d", "e"), ("a", "b"), ("z",))
    assert comp.giant == ("c", "d", "e")
    assert len(comp) == 3


def test_component_tie_broken_by_smallest_key():
    net = undirected([("b", "d"), ("a", "c")])
    assert components(net).components == (("a", "c"), ("b", "d"))


def test_directed_components_are_weak():
    net = make_network([("a", "b"), ("c", "b")])
    assert len(components(net)) == 1


@st.composite
def messy_networks(draw):
    """Directed or undirected networks with self-loops, parallel edges
    and isolated nodes. Keys v0..v11 sort as strings, not as numbers,
    and the node mapping is built in a shuffled order."""
    n = draw(st.integers(0, 12))
    keys = [f"v{i}" for i in range(n)]
    edges = []
    if n:
        node = st.sampled_from(keys)
        edges = draw(st.lists(st.tuples(node, node), max_size=24))
        if edges:  # repeat some records as parallel edges
            edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    order = draw(st.permutations(keys))
    return Network(
        draw(st.booleans()),
        {k: parse_xml(f'<node key="{k}"/>') for k in order},
        [Edge(a, b) for a, b in edges],
    )


@given(messy_networks())
@settings(max_examples=200, deadline=None)
def test_components_and_triangles_match_independent_oracles(net):
    assert components(net).components == union_find_components(net)
    adj = simple_adjacency(net)
    keys = sorted(net.nodes)
    triangles = sum(
        1
        for a, b, c in itertools.combinations(keys, 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )
    triples = sum(len(list(itertools.combinations(adj[k], 2))) for k in keys)
    assert triangle_triple_counts(net) == (triangles, triples)


# -- geodesics ----------------------------------------------------------------------


def test_chain_diameter_and_mean():
    chain = undirected([("a", "b"), ("b", "c")])
    assert diameter(chain) == 2
    assert mean_geodesic(chain) == Fraction(4, 3)


def test_geodesics_restricted_to_giant():
    net = undirected([("a", "b"), ("b", "c"), ("x", "y")])
    assert diameter(net) == 2
    assert mean_geodesic(net) == Fraction(4, 3)


def test_single_node_distances():
    net = undirected([], keys=["only"])
    assert diameter(net) == 0
    assert mean_geodesic(net) == Fraction(0)


def test_empty_network_raises():
    empty = Network(False, {}, [])
    with pytest.raises(EmptyNetworkError):
        diameter(empty)
    with pytest.raises(EmptyNetworkError):
        mean_geodesic(empty)


def _floyd_warshall(net):
    keys = list(net.node_keys())
    inf = float("inf")
    dist = {(a, b): (0 if a == b else inf) for a in keys for b in keys}
    adj = simple_adjacency(net)
    for a in keys:
        for b in adj[a]:
            dist[(a, b)] = 1
    for k in keys:
        for i in keys:
            for j in keys:
                alt = dist[(i, k)] + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def test_eight_node_fixture_matches_all_pairs_oracle():
    net = load_network(f"{FIXTURES}/eight.xml")
    assert len(components(net)) == 1
    dist = _floyd_warshall(net)
    finite = [d for d in dist.values() if d != float("inf")]
    assert diameter(net) == max(finite)
    pairs = [d for (a, b), d in dist.items() if a != b]
    assert mean_geodesic(net) == Fraction(sum(pairs), len(pairs))


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_distance_stats_match_all_pairs_oracle(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_n=7, directed=False)
    giant = set(union_find_components(net)[0])
    dist = _floyd_warshall(net)
    in_giant = {
        (a, b): d for (a, b), d in dist.items() if a in giant and b in giant
    }
    assert diameter(net) == max(in_giant.values())
    ordered = [d for (a, b), d in in_giant.items() if a != b]
    if ordered:
        assert mean_geodesic(net) == Fraction(sum(ordered), len(ordered))
    else:
        assert mean_geodesic(net) == 0


def _long_chain_edges():
    # even keys out, odd keys back, so key order is not chain order. The
    # sweep numbers nodes by descending degree, so the two ends, of
    # degree 1, are its last two sources: only the last block reaches
    # the diameter
    n = _BLOCK + 476
    order = list(range(0, n, 2)) + list(range(n - 1, 0, -2))
    keys = [f"c{i:04d}" for i in order]
    return list(zip(keys, keys[1:]))


def _long_chain():
    return undirected(_long_chain_edges())


def _chorded_chain():
    # a chord over the first two links closes a triangle at one end, so
    # the giant is not a tree, and its diameter still spans the blocks
    edges = _long_chain_edges()
    return undirected(edges + [(edges[0][0], edges[1][1])])


def _big_star():
    return undirected([("hub", f"leaf{i}") for i in range(_BLOCK + 476)])


def _random_with_islands():
    rng = random.Random(7)
    keys = [f"r{i}" for i in range(_BLOCK + 176)]
    # a random tree keeps the giant whole; extra edges add cycles,
    # loops and parallels; three small components sit beside it
    edges = [(keys[i], rng.choice(keys[:i])) for i in range(1, len(keys))]
    edges += [(rng.choice(keys), rng.choice(keys)) for _ in range(600)]
    edges += [("i0", "i1"), ("i2", "i3"), ("i3", "i4")]
    return undirected(edges, keys=keys + ["lone"])


def _random_multigraph(seed, extra):
    # A random tree over shuffled keys keeps the giant whole and its ids
    # apart from its shape; ``extra`` edges per node add cycles (few
    # give long levels that push, many give short ones that pull). Many
    # nodes share a degree, so the sweep's order breaks ties. Loops,
    # parallel edges in both directions and islands ride along.
    def build():
        rng = random.Random(seed)
        keys = [f"r{i:04d}" for i in range(rng.randint(_BLOCK + 1, _BLOCK + 150))]
        rng.shuffle(keys)
        edges = [(keys[i], rng.choice(keys[:i])) for i in range(1, len(keys))]
        edges += [(rng.choice(keys), rng.choice(keys)) for _ in range(int(extra * len(keys)))]
        edges += [(b, a) for a, b in rng.sample(edges, 40)]
        edges += [(k, k) for k in rng.sample(keys, 20)]
        edges += [("i0", "i1"), ("i1", "i2"), ("i2", "i0"), ("i3", "i3")]
        return undirected(edges, keys=keys + ["lone"])

    build.__name__ = f"_random_multigraph_{seed}"
    return build


def _sweep(net):
    return _bit_parallel_sweep(net.simple_view, net.component_ids[0])


@pytest.mark.parametrize(
    "build",
    [_long_chain, _big_star, _random_with_islands, _chorded_chain,
     _random_multigraph(0, 0.02), _random_multigraph(1, 0.5),
     _random_multigraph(2, 2.0)],
)
def test_geodesics_across_source_blocks(build):
    net = build()
    size, longest, total = all_pairs_bfs(net)
    assert size > _BLOCK
    # the sweep itself, on trees too, and the public route
    assert _sweep(net) == (longest, total)
    assert diameter(net) == longest
    assert mean_geodesic(net) == Fraction(total, size * (size - 1))


def _refuse(adj, giant):
    raise AssertionError("geodesics took the other route")


@pytest.mark.parametrize(
    "build, other",
    [(_long_chain, "_bit_parallel_sweep"), (_big_star, "_bit_parallel_sweep"),
     (_chorded_chain, "_tree_geodesics"), (_random_with_islands, "_tree_geodesics")],
)
def test_geodesic_route_follows_the_tree_test(build, other, monkeypatch):
    net = build()
    size, longest, total = all_pairs_bfs(net)
    monkeypatch.setattr(metrics, other, _refuse)
    assert _geodesics(net) == (longest, Fraction(total, size * (size - 1)))


def _geodesic_reads(net):
    """(adjacency entries that ``_geodesics`` reads through the simple
    view, the diameter it finds)."""
    from tests.test_ctl import _ReadCounter

    net.component_ids  # built first: it reads the simple view too
    net.__dict__["simple_view"] = adj = _ReadCounter(net.simple_view)
    adj.read = 0
    longest = _geodesics(net)[0]
    return adj.read, longest


def _counted_sweep(net):
    """(the sweep's result on ``net``, the adjacency entries its levels
    read, its runs of levels in order as "push" or "pull"). A top-down
    level reads the neighbour tuples of its frontier rows, a bottom-up
    one every entry of every column; building the rows and columns from
    the simple view is not counted."""
    from tests.test_ctl import _ReadCounter

    kinds = []

    def level(kind):
        if kinds[-1:] != [kind]:
            kinds.append(kind)

    class Rows(_ReadCounter):
        read = 0

        def __getitem__(self, i):
            level("push")
            return super().__getitem__(i)

    class Columns(tuple):
        read = 0

        def __iter__(self):
            level("pull")
            for col in tuple.__iter__(self):
                self.read += len(col)
                yield col

    build = metrics._sweep_rows
    counters = []

    def counted(adj, giant):
        rows, cols = build(adj, giant)
        counters[:] = Rows(rows), Columns(cols)
        return counters

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_sweep_rows", counted)
        result = _sweep(net)
    return result, sum(counter.read for counter in counters), kinds


def _star(leaves):
    return undirected([("hub", f"leaf{i:04d}") for i in range(leaves)])


def _chain(n):
    keys = [f"c{i:04d}" for i in range(n)]
    return undirected(list(zip(keys, keys[1:])))


def test_geodesic_sweep_reads_scale_with_blocks_levels_and_edges():
    # The count-based twin of the sweep's cost: all sources of a
    # 1024-source block advance together, so one BFS level reads each
    # adjacency entry at most once for the whole block, whether it
    # pushes the frontier's neighbour tuples or pulls every column, and
    # a sweep reads at most ceil(g/1024)*(D+1)*2m entries. One BFS per
    # source would read about 2L entries per leaf of a star, L*L in all,
    # and double the leaves would read 4x.
    reads = [_counted_sweep(_star(leaves))[1] for leaves in (250, 500, 1000)]
    for small, large in zip(reads, reads[1:]):
        assert 1.95 <= large / small <= 2.05, reads
    for net in [_star(n) for n in (1000, 2000, 4000)] + [_chain(200), _chain(400)]:
        (longest, _), read, _ = _counted_sweep(net)
        g = len(net.component_ids[0])
        bound = -(-g // 1024) * (longest + 1) * 2 * net.m
        assert 0 < read <= bound, (net.n, read, bound)


def _broom():
    # A hub with 1000 leaves and a tail of 200 nodes, closed by a chord
    # near its far end so that the giant is not a tree. In degree order
    # the first block holds the hub, the tail and most leaves: it pulls,
    # then pushes down the tail. The second holds the other leaves and
    # the tail's end: its first level reaches only the hub, and the next
    # reaches every leaf, so it pushes, pulls, and pushes again.
    tail = [f"t{i:03d}" for i in range(200)]
    edges = [("hub", f"leaf{i:04d}") for i in range(1000)]
    edges += [("hub", tail[0])] + list(zip(tail, tail[1:]))
    return undirected(edges + [(tail[-3], tail[-1])])


def test_sweep_switches_level_kind_both_ways():
    net = _broom()
    size, longest, total = all_pairs_bfs(net)
    assert size > _BLOCK
    result, _, kinds = _counted_sweep(net)
    assert result == (longest, total)
    # runs alternate, so three of them go push -> pull and pull -> push
    assert len(kinds) >= 3, kinds


@pytest.mark.parametrize(
    "edges, keys, expected, read",
    [([("a", "b"), ("b", "a"), ("a", "a")], None, (1, 2), 2),
     ([("a", "b"), ("b", "c"), ("c", "a")], None, (1, 6), 6),
     ([], ["only"], (0, 0), 0),
     ([("b", "b")], ["a", "b", "c"], (0, 0), 0)],
)
def test_sweep_stops_on_the_level_that_finds_the_last_pair(edges, keys, expected, read):
    # At diameter 1 one level finds every pair and reads each entry
    # once; a one-node giant has no pair and runs no level.
    result, reads, _ = _counted_sweep(undirected(edges, keys=keys))
    assert (result, reads) == (expected, read)


def _random_tree(rng, n, prefix="t"):
    keys = [f"{prefix}{i:04d}" for i in range(n)]
    return keys, [(keys[i], rng.choice(keys[:i])) for i in range(1, n)]


def _pendant_chain(rng, n):
    # a chain with a small random tree hung from every fifth node
    keys = [f"c{i:04d}" for i in range(n)]
    edges = list(zip(keys, keys[1:]))
    for i in range(0, n, 5):
        sub, sub_edges = _random_tree(rng, rng.randint(1, 6), f"p{i:04d}.")
        edges += sub_edges + [(keys[i], sub[0])]
    return undirected(edges)


def _tree_beside_cycle(rng, n):
    # the tree giant's keys sort after the triangle's, whose ids come first
    _, edges = _random_tree(rng, n)
    return undirected(edges + [("a", "b"), ("b", "c"), ("c", "a")])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "build",
    [lambda rng, n: undirected(_random_tree(rng, n)[1]), _pendant_chain,
     _tree_beside_cycle],
)
def test_tree_geodesics_match_all_pairs_oracle(build, seed):
    rng = random.Random(seed)
    net = build(rng, rng.randint(5, 300))
    size, longest, total = all_pairs_bfs(net)
    assert _geodesics(net) == (longest, Fraction(total, size * (size - 1)))


def test_tree_route_on_two_way_star_with_parallels_and_loops():
    # directed, with both directions, repeated edges and self-loops: the
    # simple view is a star, so the giant is a tree
    edges = []
    for i in range(50):
        leaf = f"leaf{i:02d}"
        edges += [("hub", leaf), (leaf, "hub"), ("hub", leaf), (leaf, leaf)]
    net = make_network(edges + [("hub", "hub")], directed=True)
    assert _geodesics(net) == (2, Fraction(2 * 50 + 2 * 50 * 49, 51 * 50))


@pytest.mark.parametrize(
    "edges, keys, expected",
    [([], ["only"], (0, Fraction(0))),
     ([("only", "only")], None, (0, Fraction(0))),
     ([("b", "b")], ["a", "b", "c"], (0, Fraction(0))),
     ([("a", "b"), ("b", "a"), ("a", "b")], None, (1, Fraction(1))),
     ([("a", "b"), ("x", "x")], None, (1, Fraction(1)))],
)
def test_tree_route_on_giants_of_one_and_two_nodes(edges, keys, expected):
    assert _geodesics(undirected(edges, keys=keys)) == expected


def test_tree_geodesics_linear_on_chains():
    # A tree giant takes two BFS passes and one subtree-size pass, so 4x
    # the chain is about 4x the time. The sweep is quadratic on a chain,
    # because its diameter is about its length: about 16x.
    times = []
    for n in (4_000, 16_000):
        net = _chain(n)
        net.component_ids  # built outside the timer, with the simple view
        assert _geodesics(net)[0] == n - 1
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            _geodesics(net)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    ratio = times[1] / times[0]
    assert 2.0 <= ratio <= 10.0, f"4x the chain took {ratio:.1f}x as long ({times})"


def test_tree_geodesics_read_linear_entries_on_chains():
    # The count twin of the bracket above: the tree test and the two BFS
    # passes each read every adjacency entry of the giant once, so
    # doubling the chain doubles the reads. The sweep would read about 4x.
    reads = [_geodesic_reads(_chain(n)) for n in (1000, 2000, 4000)]
    assert [longest for _, longest in reads] == [999, 1999, 3999]
    for (small, _), (large, _) in zip(reads, reads[1:]):
        assert 1.95 <= large / small <= 2.05, reads


# -- degree histograms ------------------------------------------------------------------


def test_undirected_histogram_counts_multiplicity_and_loops():
    net = parse_network(
        '<network directed="false">'
        '<node key="a"/><node key="b"/><node key="c"/>'
        '<edge from="a" to="b"/><edge from="a" to="b"/>'
        '<edge from="a" to="a"/>'
        "</network>"
    )
    hist = degree_histogram(net)
    assert not hist.directed
    # a: two parallels + loop twice = 4; b: 2; c: 0
    assert hist.counts == {0: 1, 2: 1, 4: 1}
    assert hist.in_counts is None and hist.out_counts is None


def test_directed_histograms():
    net = make_network([("a", "b"), ("a", "c"), ("c", "c")])
    hist = degree_histogram(net)
    assert hist.directed
    assert hist.counts is None
    # in: a 0, b 1, c 2 (loop); out: a 2, b 0, c 1
    assert hist.in_counts == {0: 1, 1: 1, 2: 1}
    assert hist.out_counts == {0: 1, 1: 1, 2: 1}


def test_histogram_keys_sorted():
    net = undirected([("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")])
    hist = degree_histogram(net)
    assert list(hist.counts) == sorted(hist.counts)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_histogram_totals(seed):
    rng = random.Random(seed)
    directed = rng.random() < 0.5
    net = random_network(rng, directed=directed)
    hist = degree_histogram(net)
    if directed:
        assert sum(hist.in_counts.values()) == net.n
        assert sum(d * c for d, c in hist.in_counts.items()) == net.m
        assert sum(d * c for d, c in hist.out_counts.items()) == net.m
    else:
        assert sum(hist.counts.values()) == net.n
        assert sum(d * c for d, c in hist.counts.items()) == 2 * net.m


# -- Eulerian paths ------------------------------------------------------------------------


def _eulerian_by_search(net) -> bool:
    """Exhaustive trail search over the expanded edge multiset."""
    expanded = []
    for e in net.edges:
        expanded.extend([frozenset((e.src, e.dst))] * int(e.weight))
    if not expanded:
        return True
    total = len(expanded)

    def walk(at, remaining):
        if not remaining:
            return True
        for i, edge in enumerate(remaining):
            if at in edge:
                nxt = next(iter(edge - {at}), at)
                if walk(nxt, remaining[:i] + remaining[i + 1 :]):
                    return True
        return False

    assert total <= 8, "oracle meant for tiny instances"
    return any(walk(start, expanded) for start in net.node_keys())


def test_seven_bridges_have_no_trail():
    net = load_network(f"{FIXTURES}/konigsberg.xml")
    assert eulerian_path_exists(net) is False
    assert _eulerian_by_search(net) is False
    hist = degree_histogram(net)
    assert hist.counts == {3: 3, 5: 1}


def test_trail_cases():
    assert eulerian_path_exists(undirected([("a", "b"), ("b", "c")])) is True
    assert eulerian_path_exists(
        undirected([("a", "b"), ("b", "c"), ("c", "a")])
    ) is True
    # two separate edges cannot be one trail
    assert eulerian_path_exists(undirected([("a", "b"), ("c", "d")])) is False
    # isolated extra node is irrelevant
    assert eulerian_path_exists(
        undirected([("a", "b")], keys=["a", "b", "z"])
    ) is True
    assert eulerian_path_exists(undirected([], keys=["a"])) is True
    # star with three leaves has three odd nodes... four including none
    assert eulerian_path_exists(
        undirected([("hub", "a"), ("hub", "b"), ("hub", "c")])
    ) is False


def test_weight_acts_as_multiplicity():
    doubled = parse_network(
        '<network directed="false"><node key="a"/><node key="b"/>'
        '<edge from="a" to="b" weight="2"/></network>'
    )
    assert eulerian_path_exists(doubled) is True  # there and back
    tripled = parse_network(
        '<network directed="false"><node key="a"/><node key="b"/>'
        '<edge from="a" to="b" weight="3"/></network>'
    )
    assert eulerian_path_exists(tripled) is True
    assert _eulerian_by_search(doubled) and _eulerian_by_search(tripled)


def _star_with_spoke(weight):
    # hub-a carries the weight, hub-b and hub-c weigh 1: an odd weight
    # leaves four odd nodes, an even one leaves b and c
    return parse_network(
        '<network directed="false"><node key="hub"/><node key="a"/>'
        '<node key="b"/><node key="c"/>'
        f'<edge from="hub" to="a" weight="{weight}"/>'
        '<edge from="hub" to="b"/><edge from="hub" to="c"/></network>'
    )


@pytest.mark.parametrize(
    "weight, small",
    [
        ("1e1000000", "1e2"),
        ("7" * 300_000, "3"),
        ("30E-1", "3"),
        ("2.000", "2"),
        ("1" + "0" * 300_000 + ".0", "10"),
    ],
    ids=["1e1000000", "300k-digit-odd", "30E-1", "2.000", "300k-digit-even"],
)
def test_eulerian_parity_of_long_weights(weight, small):
    big, small_net = _star_with_spoke(weight), _star_with_spoke(small)
    start = time.perf_counter()
    found = eulerian_path_exists(big)
    elapsed = time.perf_counter() - start
    assert found == eulerian_path_exists(small_net)
    assert found == (int(Decimal(small)) % 2 == 0)
    assert elapsed < 0.5
    # a self-loop of any weight keeps every parity
    loop = Edge("hub", "hub", big.edges[0].weight)
    looped = Network(False, small_net.nodes, small_net.edges + (loop,))
    assert eulerian_path_exists(looped) == found


def test_directed_network_rejected():
    with pytest.raises(ValueError):
        eulerian_path_exists(make_network([("a", "b")]))


def test_fractional_weight_rejected():
    net = parse_network(
        '<network directed="false"><node key="a"/><node key="b"/>'
        '<edge from="a" to="b" weight="1.5"/></network>'
    )
    with pytest.raises(FormatError):
        eulerian_path_exists(net)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=80, deadline=None)
def test_trail_criterion_matches_exhaustive_search(seed):
    rng = random.Random(seed)
    keys = [f"v{i}" for i in range(1, rng.randint(2, 5) + 1)]
    n_edges = rng.randint(0, 6)
    edges = [
        (rng.choice(keys), rng.choice(keys)) for _ in range(n_edges)
    ]
    net = make_network(edges, directed=False, keys=keys)
    assert eulerian_path_exists(net) == _eulerian_by_search_with_loops(net)


def _eulerian_by_search_with_loops(net) -> bool:
    # like _eulerian_by_search but keeps self-loops distinct
    expanded = []
    for idx, e in enumerate(net.edges):
        expanded.extend([(idx, e.src, e.dst)] * int(e.weight))
    if not expanded:
        return True

    def walk(at, remaining):
        if not remaining:
            return True
        for i, (_, a, b) in enumerate(remaining):
            if at == a or at == b:
                nxt = b if at == a else a
                if walk(nxt, remaining[:i] + remaining[i + 1 :]):
                    return True
        return False

    return any(walk(start, expanded) for start in net.node_keys())


# Integer weights, equal values among them spelled apart; a third of
# the networks also draw the fractional ones.
INTEGER_WEIGHTS = ("1", "1", "1", "2", "2.0", "1E+1", "3")
FRACTIONAL_WEIGHTS = ("3.5", "3.50", "0.5")


def _random_multigraph(rng, directed):
    """Up to 10 nodes and 30 edge records, with parallel edges,
    self-loops and isolated nodes."""
    keys = [f"v{i}" for i in range(rng.randint(1, 10))]
    weights = INTEGER_WEIGHTS + (FRACTIONAL_WEIGHTS if rng.random() < 0.3 else ())
    edges = []
    for _ in range(rng.randint(0, 30)):
        if edges and rng.random() < 0.2:
            a, b, _ = rng.choice(edges)  # a parallel edge
        else:
            a = rng.choice(keys)
            b = a if rng.random() < 0.15 else rng.choice(keys)
        edges.append(Edge(a, b, Decimal(rng.choice(weights))))
    return Network(directed, {k: parse_xml(f'<node key="{k}"/>') for k in keys}, edges)


def _histogram_per_record(net):
    """degree_histogram's dicts, one record at a time."""
    def hist(degs):
        counts = {}
        for d in degs.values():
            counts[d] = counts.get(d, 0) + 1
        return dict(sorted(counts.items()))

    ins, outs = dict.fromkeys(net.nodes, 0), dict.fromkeys(net.nodes, 0)
    for e in net.edges:
        outs[e.src] += 1
        ins[e.dst] += 1
    if net.directed:
        return None, hist(ins), hist(outs)
    return hist({k: ins[k] + outs[k] for k in net.nodes}), None, None


def _eulerian_per_record(net):
    """eulerian_path_exists one record at a time, with int weights: the
    result, or the FormatError text of the first fractional weight."""
    degree = dict.fromkeys(net.nodes, 0)
    for e in net.edges:
        if e.weight != int(e.weight):
            return f"edge weight {e.weight} is not an integer multiplicity"
        degree[e.src] += int(e.weight)
        degree[e.dst] += int(e.weight)
    odd = sum(d % 2 for d in degree.values())
    touched = {k for e in net.edges for k in (e.src, e.dst)}
    spanned = [c for c in union_find_components(net) if touched.intersection(c)]
    return odd in (0, 2) and len(spanned) <= 1


@pytest.mark.parametrize("seed", range(4))
def test_edge_statistics_match_per_record_references(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(150):
        net = _random_multigraph(rng, directed=rng.random() < 0.3)
        hist = degree_histogram(net)
        assert (hist.counts, hist.in_counts, hist.out_counts) == _histogram_per_record(net)
        if net.directed:
            continue
        try:
            found = eulerian_path_exists(net)
        except FormatError as exc:
            found = str(exc)
        assert found == _eulerian_per_record(net), net.edges
        outcomes.add(found if isinstance(found, bool) else "error")
    assert outcomes == {True, False, "error"}


# -- invariants -----------------------------------------------------------------------------


@given(st.integers(0, 10 ** 9))
@settings(max_examples=80, deadline=None)
def test_statistic_invariants(seed):
    rng = random.Random(seed)
    net = random_network(rng, directed=rng.random() < 0.5)
    c = clustering_coefficient(net)
    assert 0 <= c <= 1
    comp = components(net)
    assert sorted(k for cmp in comp.components for k in cmp) == list(net.node_keys())
    assert max(len(cmp) for cmp in comp.components) == len(comp.giant)
    d = diameter(net)
    assert 0 <= d <= len(comp.giant) - 1 if len(comp.giant) > 1 else d == 0
    assert mean_geodesic(net) <= d
