"""Whole-network statistics.

Clustering, components, and geodesic statistics are defined on the
undirected simple view of the network: directions are dropped, parallel
edges collapse, self-loops are ignored. They read that view and its
weak components from :attr:`Network.simple_view` and
:attr:`Network.component_ids`, which each network builds once and
shares across every statistic. Degree histograms and the Eulerian-path
criterion instead respect edge multiplicity and read the edge records.
Ratios are returned as exact :class:`fractions.Fraction` values so
callers decide how to format them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from operator import and_, itemgetter, ne, xor

from .errors import EmptyNetworkError, FormatError
from .network import Network


def triangle_triple_counts(net: Network) -> tuple[int, int]:
    """(number of triangles, number of connected triples) of the simple
    undirected view. A triple is a node with an unordered pair of
    distinct neighbours, so each triangle yields three triples."""
    adj = net.simple_view
    triples = sum(len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in adj)
    # Forward counting (Schank & Wagner 2005) from each triangle's
    # smallest node v: its other two nodes are both among v's higher
    # neighbours ``up`` and each is a neighbour of the other, so the sum
    # finds every triangle twice. One node's ``up`` is held at a time.
    ups = (set(filter(v.__lt__, nbrs)) for v, nbrs in enumerate(adj))
    triangles = sum(len(up & adj[w]) for up in ups for w in up) // 2
    return triangles, triples


def clustering_coefficient(net: Network) -> Fraction:
    """Transitivity ratio: three times the triangle count over the
    connected-triple count; 0 when there are no triples."""
    triangles, triples = triangle_triple_counts(net)
    if triples == 0:
        return Fraction(0)
    return Fraction(3 * triangles, triples)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Weakly connected components, largest first (ties: smallest key),
    keys ascending inside each component."""

    components: tuple[tuple[str, ...], ...]

    @property
    def giant(self) -> tuple[str, ...]:
        return self.components[0] if self.components else ()

    def __len__(self) -> int:
        return len(self.components)


def components(net: Network) -> ComponentDecomposition:
    keys = net.node_keys()
    return ComponentDecomposition(
        tuple(tuple(keys[i] for i in comp) for comp in net.component_ids)
    )


# Sources per block of the bit-parallel sweep. A block holds one mask of
# this many bits per node of the giant; a top-down level ANDs the masks
# one adjacency entry at a time, a bottom-up one a whole column at a time.
_BLOCK = 1024


def _geodesics(net: Network) -> tuple[int, Fraction]:
    """(diameter, mean geodesic) of the giant component, so a report
    that needs both walks the giant once.

    A giant of g nodes is a tree exactly when its simple degrees sum to
    2(g - 1), because none of its nodes has a neighbour outside it.
    A tree takes :func:`_tree_geodesics`, O(g); every other giant takes
    :func:`_bit_parallel_sweep`, whose levels push from a small frontier
    or pull whole columns of the nodes' neighbours, numbered by
    descending degree, when most nodes gained bits: O(ceil(g/_BLOCK) *
    D * m) big-int operations for diameter D.
    """
    if net.n == 0:
        raise EmptyNetworkError("network has no nodes")
    giant = net.component_ids[0]
    adj = net.simple_view
    size = len(giant)
    if sum(map(len, map(adj.__getitem__, giant))) == 2 * (size - 1):
        longest, total = _tree_geodesics(adj, giant)
    else:
        longest, total = _bit_parallel_sweep(adj, giant)
    if size < 2:
        return longest, Fraction(0)
    return longest, Fraction(total, size * (size - 1))


def _tree_geodesics(adj, giant) -> tuple[int, int]:
    """(diameter, sum of ordered-pair distances) of a tree, in O(g).

    The edge above a subtree of s nodes lies on the paths of exactly the
    s(g - s) unordered pairs it separates, so summing that over the
    edges of one BFS tree gives the Wiener sum (Mohar & Pisanski, J. Math.
    Chem. 1988); ordered pairs count twice. The node a BFS reaches last is
    an end of a longest path, and a second BFS from it reaches the other
    end (double sweep, exact on trees).
    """
    order, parent = _tree_bfs(adj, giant[0])
    g = len(order)
    below = dict.fromkeys(order, 1)
    half = 0
    # leaves first; the root, its own parent, adds g * 0
    for v in reversed(order):
        s = below[v]
        below[parent[v]] += s
        half += s * (g - s)
    order, parent = _tree_bfs(adj, order[-1])
    v = order[-1]
    longest = 0
    while parent[v] != v:
        v = parent[v]
        longest += 1
    return longest, 2 * half


def _tree_bfs(adj, root: int) -> tuple[list[int], dict[int, int]]:
    """BFS order of a tree from ``root``, and each node's parent (the
    root's is itself). In a tree every neighbour but the parent is new."""
    parent = {root: root}
    order = [root]
    for v in order:
        up = parent[v]
        for w in adj[v]:
            if w != up:
                parent[w] = v
                order.append(w)
    return order, parent


def _bit_parallel_sweep(adj, giant) -> tuple[int, int]:
    """(diameter, sum of ordered-pair distances) of a connected ``giant``
    from one bit-parallel all-pairs BFS.

    Sources are taken ``_BLOCK`` at a time, one bit each (Akiba, Iwata &
    Yoshida, SIGMOD 2013). Every node keeps a mask of the block's
    sources that have not reached it yet, and each new bit at level d
    adds d to the sum of ordered-pair distances. A level runs one of two
    ways (direction-optimizing BFS: Beamer, Asanovic & Patterson, SC
    2012). Top-down, it pushes the bits each frontier node gained to its
    neighbours, one big-int AND per adjacency entry of the frontier.
    Bottom-up, it pulls: a node stays unseen by a source only if all its
    neighbours were (De Morgan), so its mask is ANDed with theirs, one
    whole column of :func:`_sweep_rows` at a time, with no Python frame
    per entry. A level pulls when more than three quarters of the nodes
    gained bits on the level before: a pull also pays a few passes over
    every node's mask, and on a long chain, whose blocks keep about half
    the nodes in the frontier, it loses to the push. A block stops on
    the level that finds its last pair.

    The cost is O(ceil(g/_BLOCK) * D * m) big-int operations on masks
    of ``_BLOCK`` bits, for giant size g and diameter D. On
    short-diameter graphs that is far below the g * m steps of one BFS
    per source; on long chains, where D is about g and the sources'
    frontiers barely overlap, it is no faster.
    """
    rows, cols = _sweep_rows(adj, giant)
    size = len(rows)
    longest = 0
    total = 0
    for lo in range(0, size, _BLOCK):
        width = min(_BLOCK, size - lo)
        block = (1 << width) - 1
        unseen = [block] * size
        frontier = {}
        for i in range(width):
            unseen[lo + i] ^= 1 << i
            frontier[lo + i] = 1 << i
        remaining = width * (size - 1)
        changed = width  # nodes that gained bits on the last level
        depth = 0
        while remaining:
            depth += 1
            if 4 * changed > 3 * size:
                get = unseen.__getitem__
                columns = iter(cols)
                new = list(map(and_, unseen, map(get, next(columns))))
                for col in columns:
                    c = len(col)
                    new[:c] = map(and_, new[:c], map(get, col))
                found = remaining - sum(map(int.bit_count, new))
                moved = list(compress(count(), map(ne, unseen, new)))
                changed = len(moved)
                if 4 * changed <= 3 * size:
                    # the next level pushes the bits each node gained
                    frontier = dict(zip(moved, map(xor, map(get, moved),
                                                   map(new.__getitem__, moved))))
                unseen = new
            else:
                nxt: dict[int, int] = {}
                pushed = nxt.get
                for v, bits in frontier.items():
                    for w in rows[v]:
                        x = bits & unseen[w]
                        if x:
                            unseen[w] ^= x
                            nxt[w] = pushed(w, 0) | x
                found = sum(map(int.bit_count, nxt.values()))
                changed = len(nxt)
                frontier = nxt
            total += depth * found
            remaining -= found
        # the level that found the block's last pair is its largest
        # eccentricity
        longest = max(longest, depth)
    return longest, total


def _sweep_rows(adj, giant) -> tuple[tuple, tuple]:
    """The giant's adjacency for :func:`_bit_parallel_sweep`, numbered
    by descending simple degree (ties by id): each node's neighbours as
    a tuple of positions, and the columns, column j holding the j-th
    neighbour of every node of degree above j. Degree order makes each
    column a prefix of the rows, and the columns hold every entry once."""
    degree = list(map(len, adj))
    order = sorted(giant, key=degree.__getitem__, reverse=True)
    position = dict(zip(order, count()))
    rows = tuple(tuple(map(position.__getitem__, adj[v])) for v in order)
    # c counts the rows of degree above j, so building the columns reads
    # each entry once; a zip_longest over all rows would pad every
    # column to g, O(g * max degree) on a hub
    cols = []
    c = len(rows)
    for j in range(degree[order[0]]):
        while degree[order[c - 1]] <= j:
            c -= 1
        cols.append(tuple(map(itemgetter(j), rows[:c])))
    return rows, tuple(cols)


def diameter(net: Network) -> int:
    """Longest geodesic within the giant component, from
    ``_geodesics``: O(g) for a giant of g nodes that is a tree, and
    otherwise one bit-parallel sweep, whose levels push from a small
    frontier or pull whole columns of degree-ordered neighbours:
    O(ceil(g/1024) * D * m) big-int operations for diameter D, which on
    long-diameter graphs is no faster than per-source BFS."""
    return _geodesics(net)[0]


def mean_geodesic(net: Network) -> Fraction:
    """Mean shortest-path length over unordered distinct pairs of the
    giant component; 0 for a single-node giant. Computed by
    ``_geodesics``, by the routes and at the cost given for
    :func:`diameter`."""
    return _geodesics(net)[1]


@dataclass(frozen=True)
class DegreeHistogram:
    """Node counts per degree. Undirected networks fill ``counts``;
    directed ones fill ``in_counts`` and ``out_counts``."""

    directed: bool
    counts: dict[int, int] | None = None
    in_counts: dict[int, int] | None = None
    out_counts: dict[int, int] | None = None


def degree_histogram(net: Network) -> DegreeHistogram:
    """Degrees counted with edge multiplicity; an undirected self-loop
    adds two, a directed one adds one to each side."""
    srcs, dsts, _ = _columns(net)
    if net.directed:
        return DegreeHistogram(True, None, _histogram(net, Counter(dsts)),
                               _histogram(net, Counter(srcs)))
    degs = Counter(srcs)
    degs.update(dsts)
    return DegreeHistogram(False, _histogram(net, degs))


def _columns(net: Network) -> tuple[tuple, tuple, tuple]:
    """The sources, destinations and weights of the edge records."""
    return tuple(zip(*net.edges)) or ((), (), ())


def _histogram(net: Network, degrees: Counter) -> dict[int, int]:
    """Node counts per degree, from the degrees of the nodes that have
    one; every other node of ``net`` has degree 0."""
    hist = Counter(degrees.values())
    if len(degrees) < net.n:
        hist[0] = net.n - len(degrees)
    return dict(sorted(hist.items()))


def eulerian_path_exists(net: Network) -> bool:
    """Whether a trail using every edge exactly once exists: all edges
    in one component and zero or two odd-degree nodes.

    Undirected networks only. Weights act as multiplicities here and
    must be positive integers; otherwise FormatError.
    """
    if net.directed:
        raise ValueError("Eulerian path criterion applies to undirected networks")
    srcs, dsts, weights = _columns(net)
    # Equal weights share integrality and parity, so each distinct one
    # is read once, in record order, and the first bad record raises.
    odd_weight = {}
    for w in dict.fromkeys(weights):
        # the decimal digits give integrality and parity without the
        # quadratic int(w)
        _, digits, exponent = w.as_tuple()
        if exponent < 0 and any(digits[exponent:]):
            raise FormatError(f"edge weight {w} is not an integer multiplicity")
        odd_weight[w] = exponent <= 0 and digits[exponent - 1] % 2 == 1
    # An edge of odd weight flips the parity of both its ends; a
    # self-loop adds 2w, which is always even.
    flips = tuple(map(and_, map(ne, srcs, dsts), map(odd_weight.__getitem__, weights)))
    ends = Counter(compress(srcs, flips))
    ends.update(compress(dsts, flips))
    if sum(count % 2 for count in ends.values()) not in (0, 2):
        return False
    # every edge in one component (isolated nodes do not matter)
    touched = set(srcs).union(dsts)
    keys = net.node_keys()
    return sum(
        1 for comp in net.component_ids if any(keys[i] in touched for i in comp)
    ) <= 1
