"""Branching-time formulas over labelled networks.

Formulas combine boolean connectives with the temporal operators
EX AX EF AF EG AG EU AU and their inverse forms (IEX, IAX, ...), which
quantify over the transposed edge relation. Path quantification ranges
over maximal paths: a path is either infinite or ends at a node with no
successor. At a sink this makes EX false and AX true, collapses EG and
AF to the current node, and collapses EU to its right argument.

Two evaluators are provided. ``model_check`` is the production
algorithm: bottom-up over the formula with memoization on structural
equality, one O(n+m) set computation per operator for n nodes and m
edges. It works on node ids, the position of each key in key order, so
ascending ids are ascending keys; the network builds its id map and id
adjacency at construction. Between operators a satisfaction set is an
int bitset (bit i is node id i). ``check`` reads an atom's set by its
filter: the bitset that the labelling stored on the network; it builds
no key set. ``model_check`` encodes the key set of each proposition of
its ``LabelMap`` once. The connectives are bitwise operations and AX, AG and
EG complement their duals. Inside a fixpoint the operand bitsets are
expanded once into a bytearray with one byte per node, the pass runs
over the id adjacency, and its result is packed back once; a fixpoint
never tests one bit of an int, because ``s >> v & 1`` costs O(n) and
would make the pass quadratic. EX is a predecessor scan. Every other operator is one
backward counting pass (Clarke, Emerson & Sistla, TOPLAS 1986). For
E[a U b] or A[a U b] the nodes of a outside b are open, each with a
count of the successors it waits for: one for EU, its out-degree for
AU, copied from the degree tuple that the network keeps. A node whose
count falls to zero settles and decrements the counts of its open
predecessors; the open flags guard the loop, so the counts of other
nodes are never read. The result is b plus the settled nodes. An open
sink has no successor to settle, so it never settles: its maximal path
ends outside b. EF and AF are EU and AU with a true left operand; AG is
the dual of EF and EG the dual of AF. A pass seeds from the cheaper
side: from b, reading the edges into it, or, when b holds more than
twice as many nodes as are open (an open node costs about twice a node
of b), from the open nodes that b settles at once, reading the
out-edges of the open nodes instead. With no open node, or b empty, it
returns b at once. Inverse operators run the same pass on the
transposed relation. Either way a pass reads each edge at most twice,
so every operator is O(n+m), also on hubs, the whole check is
O(|formula|*(n+m)), and only the final set is decoded back to keys.
``oracle_check`` recomputes satisfaction by deliberately different
brute-force means over keys, on successor and predecessor maps of its
own built from the edge records, and is capped at 12 nodes; it exists
so the two can be compared on random instances. ``witness`` computes
only the operand sets of a top-level EX, EF or EU, reading an atom's
key set from the label map as it is, without encoding it; one search
over the id adjacency from the start node, testing the key of each node
it reaches, then finds a shortest witness path or decides that the
formula does not hold there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, KeysView, Mapping

from ._hashing import And, Not, Or, hashed_once
from .errors import (
    NotSatisfiedError,
    SizeExceededError,
    UnboundAtomError,
    UnknownKeyError,
)
from .network import Network

UNARY_OPS = ("EX", "AX", "EF", "AF", "EG", "AG",
              "IEX", "IAX", "IEF", "IAF", "IEG", "IAG")
UNTIL_OPS = ("EU", "AU", "IEU", "IAU")


@hashed_once
@dataclass(frozen=True)
class Bool:
    value: bool


@hashed_once
@dataclass(frozen=True)
class Atom:
    """Atomic proposition: a filter, as parsed and as ``check`` reads
    it, or the proposition id that ``replace_filters`` puts in its place."""

    value: object


@hashed_once
@dataclass(frozen=True)
class Temporal:
    op: str
    operand: "Formula"

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown temporal operator {self.op!r}")


@hashed_once
@dataclass(frozen=True)
class Until:
    op: str
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        if self.op not in UNTIL_OPS:
            raise ValueError(f"unknown until operator {self.op!r}")


Formula = Bool | Atom | Not | And | Or | Temporal | Until

TRUE = Bool(True)
FALSE = Bool(False)


def formula_length(formula: Formula) -> int:
    """Number of AST nodes."""
    if isinstance(formula, (Bool, Atom)):
        return 1
    if isinstance(formula, Not):
        return 1 + formula_length(formula.operand)
    if isinstance(formula, Temporal):
        return 1 + formula_length(formula.operand)
    return 1 + formula_length(formula.left) + formula_length(formula.right)


def _split_op(op: str) -> tuple[str, bool]:
    """Return (base operator, inverse?)."""
    if op.startswith("I"):
        return op[1:], True
    return op, False


@dataclass
class LabelMap:
    """Assignment of registered proposition ids to nodes.

    ``sat`` maps each registered proposition to the set of node keys
    where it holds, and ``keys`` is the set of keys the map labels.
    ``props``, the key set of ``sat``, is the registered universe, so an
    unlabelled but registered proposition is simply false everywhere,
    while an unregistered one is an error.

    ``label_nodes`` keeps a copy of the ``sat`` it made, whose sets the
    network decoded, in ``_decoded``, so that a check can pass them
    unread while ``sat`` still equals it.
    """

    sat: dict[str, frozenset[str]]
    keys: frozenset[str]
    _decoded: dict[str, frozenset[str]] | None = field(default=None, init=False, repr=False,
                                                       compare=False)

    @property
    def props(self) -> KeysView[str]:
        return self.sat.keys()

    @classmethod
    def build(cls, assignments: Mapping[str, Iterable[str]],
              props: Iterable[str] | None = None) -> "LabelMap":
        by_node = {k: frozenset(v) for k, v in assignments.items()}
        universe = frozenset(props) if props is not None else frozenset(
            p for ps in by_node.values() for p in ps
        )
        holders: dict[str, list[str]] = {p: [] for p in universe}
        for key, ps in by_node.items():
            extra = ps - universe
            if extra:
                raise UnboundAtomError(
                    f"node {key!r} labelled with unregistered propositions {sorted(extra)}"
                )
            for p in ps:
                holders[p].append(key)
        sat = {p: frozenset(ks) for p, ks in holders.items()}
        return cls(sat, frozenset(by_node))

    def holds(self, prop: str, key: str) -> bool:
        return key in self.sat.get(prop, ())


def _check_labels(net: Network, labels: LabelMap) -> None:
    """Refuse a label map that names a key outside ``net``, among the
    keys it labels or in the set of any proposition. A map that
    label_nodes made labels the network's own key set with sets that the
    network decoded; while it holds those sets, or equal ones, it passes
    in O(props) without a set being read. A set put in their place is
    read."""
    keys = net._key_set
    if labels.keys is keys and labels._decoded == labels.sat:
        return
    unknown = labels.keys.union(*labels.sat.values()).difference(keys)
    if unknown:
        raise UnknownKeyError(
            f"label map mentions keys not in the network: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# Production checker


def model_check(net: Network, labels: LabelMap, formula: Formula) -> frozenset[str]:
    """Satisfaction set of a formula over a labelled network.

    Bottom-up over the formula, memoized on structural equality, with
    one O(n+m) set computation per operator over node ids, so the whole
    check is O(|formula|*(n+m)) for n nodes and m edges. The module
    docstring describes the ids, the bitsets and each fixpoint.
    """
    _check_labels(net, labels)
    checker = _Checker(net, labels)
    return frozenset(checker.keys_in(checker.sat(formula)))


# A set is an int with bit i for node id i, or inside a fixpoint a
# bytearray with byte i 1 or 0. The conversions go through base-2 digit
# strings, lowest id last: a few O(n) passes in C.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _to_bits(flags: bytearray) -> int:
    """The bitset of a byte-per-id array."""
    return int(flags[::-1].translate(_TO_DIGITS) or b"0", 2)


def _to_flags(bits: int, n: int) -> bytearray:
    """The byte-per-id array of a bitset over ids below n."""
    # A top bit at n keeps the digit string n + 1 long whatever the
    # highest id in the set; without it, format(0, "b") is one digit "0".
    return bytearray(format(bits | 1 << n, "b").encode()[:0:-1].translate(_TO_FLAGS))


class _Checker:
    """Satisfaction sets of one network, as int bitsets over its node
    ids, memoized per subformula. ``check`` passes no label map and
    reads an atom's set by its filter from ``bits``; otherwise an atom's
    set is encoded from the key set that ``labels`` holds for it."""

    def __init__(self, net: Network, labels: LabelMap | None, bits: dict | None = None):
        self.net = net
        self.keys = net.node_keys()
        self.everything = (1 << len(self.keys)) - 1
        self.labels = labels
        self.bits = bits
        self.memo: dict[Formula, int] = {}

    def _relation(self, op: str) -> tuple[str, tuple, tuple, tuple]:
        """(base operator, successor ids, predecessor ids, out-degrees),
        transposed for an inverse operator."""
        base, inverse = _split_op(op)
        net = self.net
        if inverse:
            return base, net._pred, net._succ, net._in_degree
        return base, net._succ, net._pred, net._out_degree

    def keys_in(self, bits: int) -> Iterator[str]:
        """The keys of a bitset, in ascending order."""
        return compress(self.keys, _to_flags(bits, len(self.keys)))

    def sat(self, f: Formula) -> int:
        hit = self.memo.get(f)
        if hit is not None:
            return hit
        result = self._compute(f)
        self.memo[f] = result
        return result

    def _atom(self, f: Atom) -> frozenset[str]:
        keys = self.labels.sat.get(f.value)
        if keys is None:
            raise UnboundAtomError(f"unregistered proposition {f.value!r}")
        return keys

    def _compute(self, f: Formula) -> int:
        everything = self.everything
        if isinstance(f, Bool):
            return everything if f.value else 0
        if isinstance(f, Atom):
            if self.labels is None:
                return self.bits[f.value]
            keys = self._atom(f)
            flags = bytearray(len(self.keys))
            for i in map(self.net._index.__getitem__, keys):  # _check_labels passed them
                flags[i] = 1
            return _to_bits(flags)
        if isinstance(f, Not):
            return everything ^ self.sat(f.operand)
        if isinstance(f, And):
            return self.sat(f.left) & self.sat(f.right)
        if isinstance(f, Or):
            return self.sat(f.left) | self.sat(f.right)
        if isinstance(f, Temporal):
            base, succ, pred, degree = self._relation(f.op)
            s = self.sat(f.operand)
            if base == "EX":
                return self._pre(s, pred)
            if base == "AX":
                return everything ^ self._pre(everything ^ s, pred)
            # EF s = E[true U s] and AF s = A[true U s]; AG is the dual
            # of EF and EG the dual of AF.
            if base in ("EF", "AF"):
                return self._until(everything, s, succ, pred, degree, base == "AF")
            return everything ^ self._until(everything, everything ^ s, succ, pred, degree,
                                            base == "EG")
        base, succ, pred, degree = self._relation(f.op)
        return self._until(self.sat(f.left), self.sat(f.right), succ, pred, degree,
                           base == "AU")

    def _pre(self, s: int, pred) -> int:
        ids = self.net._ids
        n = len(ids)
        out = bytearray(n)
        for w in compress(ids, _to_flags(s, n)):
            for v in pred[w]:
                out[v] = 1
        return _to_bits(out)

    def _until(self, a: int, b: int, succ, pred, degree, universal: bool) -> int:
        """E[a U b], or A[a U b] when universal, by the counting pass
        that the module docstring describes (see also Baier & Katoen,
        Principles of Model Checking, 2008, section 6.4). The result is
        b plus the open nodes that settle."""
        ids = self.net._ids
        n = len(ids)
        rest = a & ~b
        if not rest or not b:
            return b
        open_ = _to_flags(rest, n)
        # An open node waits for all its successors (AU), its count a copy
        # of its out-degree, or for one (EU), its count its open flag. Only
        # the counts of open nodes are read.
        count = list(degree) if universal else open_
        if 2 * rest.bit_count() < b.bit_count():
            # Seed from the open side: the open nodes with a successor in
            # b (EU) or with successors only in b (AU) settle at once,
            # and an AU node counts only its successors outside b. The
            # out-edges of the open nodes are read, not the in-edges of b.
            # Each costs a map and a sum, about two steps of the loop below.
            in_b = _to_flags(b, n).__getitem__
            if universal:
                queue = []
                for v in compress(ids, open_):
                    nxt = succ[v]
                    c = count[v] = len(nxt) - sum(map(in_b, nxt))
                    if nxt and not c:
                        queue.append(v)
            else:
                queue = [v for v in compress(ids, open_) if any(map(in_b, succ[v]))]
            for v in queue:
                open_[v] = 0
        else:
            queue = list(compress(ids, _to_flags(b, n)))
        for w in queue:  # breadth-first: the list grows as it is read
            for v in pred[w]:
                if open_[v]:
                    c = count[v] - 1
                    if c:
                        count[v] = c
                    else:
                        open_[v] = 0
                        queue.append(v)
        return b | (rest ^ _to_bits(open_))

    def _key_set_of(self, f: Formula) -> frozenset[str]:
        """The keys where ``f`` holds: an atom's set as the label map
        holds it, and any other set, or any set without a label map,
        decoded from its bitset."""
        if isinstance(f, Atom) and self.labels is not None:
            return self._atom(f)
        return frozenset(self.keys_in(self.sat(f)))

    def witness(self, f: Formula, start: str) -> Witness:
        """The public ``witness``, reading operand sets from this checker."""
        key_set = self.net._key_set
        if start not in key_set:
            raise UnknownKeyError(f"unknown node key {start!r}")
        op = f.op if isinstance(f, (Temporal, Until)) else None
        if op not in _WITNESSABLE:
            return Witness("none-available")
        base, inverse = _split_op(op)
        keys = self.keys
        adj = self.net._pred if inverse else self.net._succ
        if base == "EU":
            allowed, targets = self._key_set_of(f.left), self._key_set_of(f.right)
        else:
            allowed, targets = key_set, self._key_set_of(f.operand)
        # The search runs over ids, which ascend with keys, so its ties
        # and paths are those of a search over keys.
        start_id = self.net._index[start]
        if base == "EX":
            for w in adj[start_id]:  # ascending key order
                if keys[w] in targets:
                    return Witness("path", (start, keys[w]), inverse)
        else:
            parent: dict[int, int | None] = {start_id: None}
            queue = [start_id]
            for u in queue:  # breadth-first: the list grows as it is read
                if keys[u] in targets:
                    path = [keys[u]]
                    while (u := parent[u]) is not None:
                        path.append(keys[u])
                    kind = "path" if len(path) > 1 else "node"
                    return Witness(kind, tuple(reversed(path)), inverse)
                if keys[u] in allowed:
                    for w in adj[u]:  # ascending key order
                        if w not in parent:
                            parent[w] = u
                            queue.append(w)
        raise NotSatisfiedError(f"node {start!r} does not satisfy the formula")


# ---------------------------------------------------------------------------
# Witness extraction


@hashed_once
@dataclass(frozen=True)
class Witness:
    """A path demonstrating a top-level existential operator.

    ``kind`` is "path" (two or more nodes), "node" (the start already
    settles it), or "none-available" for operators that have no single
    finite witness path. For inverse operators the path follows the
    transposed relation and ``in_transpose`` is set.
    """

    kind: str
    path: tuple[str, ...] = ()
    in_transpose: bool = False


_WITNESSABLE = {"EX", "EF", "EU", "IEX", "IEF", "IEU"}


def witness(net: Network, labels: LabelMap, formula: Formula, start: str) -> Witness:
    """Shortest witness path for a top-level EX, EF, or EU (or inverse)
    at ``start``; ties are broken by ascending key at each expansion.

    Only the operand sets are computed, never the top-level set: a scan
    of the successors of ``start`` (EX) or a breadth-first search from it
    that stops at the first target (EF, EU) finds the path; when it runs
    out, the node does not satisfy the formula and NotSatisfiedError is
    raised. Returns kind "none-available" when the top operator has no
    finite witness (EG, universal and boolean forms). Raises
    UnknownKeyError for an unknown node, and for a label map that names
    a key the network does not have.
    """
    _check_labels(net, labels)
    return _Checker(net, labels).witness(formula, start)


# ---------------------------------------------------------------------------
# Brute-force oracle


_ORACLE_MAX_NODES = 12


def oracle_check(net: Network, labels: LabelMap, formula: Formula) -> frozenset[str]:
    """Satisfaction set by brute force, for cross-checking.

    EX/AX scan neighbours directly, EF/AG go through a reflexive
    transitive-closure matrix, EU iterates its defining equation from
    the empty set, and EG searches for a maximal path (sink or lasso)
    by depth-first search with explicit cycle detection. It reads the
    network's edge records, not the id adjacency that ``model_check``
    reads. Exponential in the worst case; refuses networks with more
    than 12 nodes.
    """
    if net.n > _ORACLE_MAX_NODES:
        raise SizeExceededError(
            f"oracle_check is capped at {_ORACLE_MAX_NODES} nodes, got {net.n}"
        )
    _check_labels(net, labels)
    return _Oracle(net, labels).sat(formula)


class _Oracle:
    def __init__(self, net: Network, labels: LabelMap):
        self.keys = net.node_keys()
        self.universe = frozenset(self.keys)
        # Built from the edge records, not from the id adjacency that
        # model_check reads, so that a fault in that adjacency shows.
        self.succ = {k: set() for k in self.keys}
        # An undirected edge joins both ends both ways, so one map serves.
        self.pred = {k: set() for k in self.keys} if net.directed else self.succ
        for e in net.edges:
            self.succ[e.src].add(e.dst)
            self.pred[e.dst].add(e.src)
        self.labels = labels
        self._closures: dict[bool, dict[str, frozenset[str]]] = {}

    def sat(self, f: Formula) -> frozenset[str]:
        if isinstance(f, Bool):
            return self.universe if f.value else frozenset()
        if isinstance(f, Atom):
            if f.value not in self.labels.sat:
                raise UnboundAtomError(f"unregistered proposition {f.value!r}")
            return frozenset(k for k in self.keys if k in self.labels.sat[f.value])
        if isinstance(f, Not):
            return self.universe - self.sat(f.operand)
        if isinstance(f, And):
            return self.sat(f.left) & self.sat(f.right)
        if isinstance(f, Or):
            return self.sat(f.left) | self.sat(f.right)
        if isinstance(f, Temporal):
            base, inverse = _split_op(f.op)
            adj = self.pred if inverse else self.succ
            s = self.sat(f.operand)
            if base == "EX":
                return frozenset(v for v in self.keys if any(w in s for w in adj[v]))
            if base == "AX":
                return frozenset(v for v in self.keys if all(w in s for w in adj[v]))
            if base == "EF":
                reach = self._closure(inverse)
                return frozenset(v for v in self.keys if reach[v] & s)
            if base == "AG":
                reach = self._closure(inverse)
                return frozenset(v for v in self.keys if reach[v] <= s)
            if base == "EG":
                return frozenset(v for v in self.keys if self._eg_holds(v, s, adj))
            # AF: no maximal path avoids the operand forever.
            return frozenset(
                v for v in self.keys if not self._eg_holds(v, self.universe - s, adj)
            )
        base, inverse = _split_op(f.op)
        adj = self.pred if inverse else self.succ
        a = self.sat(f.left)
        b = self.sat(f.right)
        if base == "EU":
            return self._eu(a, b, adj)
        # AU: no finite prefix breaks the left argument before the right
        # one holds, and no maximal path avoids the right one forever.
        not_b = self.universe - b
        bad_prefix = self._eu(not_b, (self.universe - a) & not_b, adj)
        return frozenset(
            v for v in self.keys
            if v not in bad_prefix and not self._eg_holds(v, not_b, adj)
        )

    def _closure(self, inverse: bool) -> dict[str, frozenset[str]]:
        if inverse not in self._closures:
            adj = self.pred if inverse else self.succ
            reach = {v: {v} for v in self.keys}
            changed = True
            while changed:
                changed = False
                for v in self.keys:
                    new = set(reach[v])
                    for w in adj[v]:
                        new |= reach[w]
                    if new != reach[v]:
                        reach[v] = new
                        changed = True
            self._closures[inverse] = {v: frozenset(r) for v, r in reach.items()}
        return self._closures[inverse]

    def _eu(self, a: frozenset[str], b: frozenset[str], adj) -> frozenset[str]:
        z: frozenset[str] = frozenset()
        while True:
            nz = b | frozenset(
                v for v in a if any(w in z for w in adj[v])
            )
            if nz == z:
                return z
            z = nz

    def _eg_holds(self, v: str, allowed: frozenset[str], adj) -> bool:
        if v not in allowed:
            return False
        on_path: set[str] = set()

        def walk(u: str) -> bool:
            if not adj[u]:
                return True  # sink of the full graph: the path may stop
            on_path.add(u)
            try:
                for w in adj[u]:
                    if w in allowed and (w in on_path or walk(w)):
                        return True
            finally:
                on_path.discard(u)
            return False

        return walk(v)
