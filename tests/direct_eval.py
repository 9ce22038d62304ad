"""Independent reference evaluator used only by tests.

Computes satisfaction sets by naive fixpoint iteration directly on the
formula with filter atoms evaluated inline at each node, with no
labelling pass, no proposition substitution, no shortest-path search and
no component analysis. Its successor and predecessor maps are built
from the network's edge records, not read from the adjacency the
network builds. Deliberately shares no code path with either
production route so agreement between all three is meaningful.
"""

from __future__ import annotations

from netcheck.ctl import And, Atom, Bool, Not, Or, Temporal, Until, _split_op
from netcheck.network import Network
from tests.xpath_reference import eval_filter


def direct_check(net: Network, formula, labels=None) -> frozenset:
    keys = list(net.node_keys())
    succ = {k: set() for k in keys}
    pred = {k: set() for k in keys}
    for e in net.edges:
        succ[e.src].add(e.dst)
        pred[e.dst].add(e.src)
        if not net.directed:
            succ[e.dst].add(e.src)
            pred[e.src].add(e.dst)
    return frozenset(_sat(net, keys, succ, pred, formula, labels or {}))


def _sat(net, keys, succ, pred, f, labels) -> set:
    if isinstance(f, Bool):
        return set(keys) if f.value else set()
    if isinstance(f, Atom):
        if isinstance(f.value, str):
            return {k for k in keys if f.value in labels.get(k, ())}
        return {k for k in keys if eval_filter(f.value, net.payload(k))}
    if isinstance(f, Not):
        return set(keys) - _sat(net, keys, succ, pred, f.operand, labels)
    if isinstance(f, And):
        return _sat(net, keys, succ, pred, f.left, labels) & _sat(
            net, keys, succ, pred, f.right, labels
        )
    if isinstance(f, Or):
        return _sat(net, keys, succ, pred, f.left, labels) | _sat(
            net, keys, succ, pred, f.right, labels
        )
    if isinstance(f, Temporal):
        base, inverse = _split_op(f.op)
        step = pred if inverse else succ
        s = _sat(net, keys, succ, pred, f.operand, labels)
        return _temporal(keys, step, base, s)
    if isinstance(f, Until):
        base, inverse = _split_op(f.op)
        step = pred if inverse else succ
        a = _sat(net, keys, succ, pred, f.left, labels)
        b = _sat(net, keys, succ, pred, f.right, labels)
        return _until(keys, step, base, a, b)
    raise TypeError(f"unexpected formula node {f!r}")


def _temporal(keys, step, base, s) -> set:
    if base == "EX":
        return {v for v in keys if step[v] & s}
    if base == "AX":
        return {v for v in keys if step[v] <= s}
    if base == "EF":
        # least fixpoint of Z = S or step into Z
        z = set(s)
        while True:
            nxt = z | {v for v in keys if step[v] & z}
            if nxt == z:
                return z
            z = nxt
    if base == "AF":
        # sinks satisfy AF(S) only through S itself
        z = set(s)
        while True:
            nxt = z | {v for v in keys if step[v] and step[v] <= z}
            if nxt == z:
                return z
            z = nxt
    if base == "EG":
        # greatest fixpoint: keep S-nodes that are sinks or can stay in Z
        z = set(s)
        while True:
            nxt = {v for v in z if not step[v] or step[v] & z}
            if nxt == z:
                return z
            z = nxt
    if base == "AG":
        z = set(s)
        while True:
            nxt = {v for v in z if step[v] <= z}
            if nxt == z:
                return z
            z = nxt
    raise ValueError(base)


def _until(keys, step, base, a, b) -> set:
    if base == "EU":
        z = set(b)
        while True:
            nxt = z | {v for v in a if step[v] & z}
            if nxt == z:
                return z
            z = nxt
    if base == "AU":
        z = set(b)
        while True:
            nxt = z | {v for v in a if step[v] and step[v] <= z}
            if nxt == z:
                return z
            z = nxt
    raise ValueError(base)
