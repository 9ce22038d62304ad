"""Reference answers computed without netcheck.

Label sets come from the generator's payload records and filter
predicates. Temporal sets come from the textbook fixpoint algorithms
below, run on adjacency built from the generator's edge list: EG by
counter pruning (a greatest fixpoint) and AU by counter propagation (a
least fixpoint), neither of which is how netcheck computes them.
Witness paths follow the documented rule (breadth-first, ties toward
ascending keys). Statistics come from networkx, imported only when
:func:`expected_report` is first called so that it does not count in
the benchmark's peak memory.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from workloads import UNTIL_OPS, Workload


class Reference:
    def __init__(self, wl: Workload):
        self.wl = wl
        self.universe = frozenset(wl.keys)
        succ = {k: set() for k in wl.keys}
        pred = {k: set() for k in wl.keys}
        for a, b, _ in wl.edges:
            succ[a].add(b)
            pred[b].add(a)
            if not wl.directed:
                succ[b].add(a)
                pred[a].add(b)
        self.forward = (succ, pred)
        self.backward = (pred, succ)
        self.labels = [
            frozenset(k for k in wl.keys if f.holds(wl.records[k])) for f in wl.filters
        ]
        self._memo: dict[tuple, frozenset[str]] = {}
        self._report: dict | None = None
        self._stdout: str | None = None

    # -- temporal sets -----------------------------------------------------

    def sat(self, tree: tuple) -> frozenset[str]:
        hit = self._memo.get(tree)
        if hit is None:
            hit = self._memo[tree] = self._compute(tree)
        return hit

    def _compute(self, tree: tuple) -> frozenset[str]:
        head = tree[0]
        if head == "atom":
            return self.labels[tree[1]]
        if head == "not":
            return self.universe - self.sat(tree[1])
        if head == "and":
            return self.sat(tree[1]) & self.sat(tree[2])
        if head == "or":
            return self.sat(tree[1]) | self.sat(tree[2])
        inverse = head.startswith("I")
        base = head[1:] if inverse else head
        succ, pred = self.backward if inverse else self.forward
        u = self.universe
        if head in UNTIL_OPS:
            a, b = self.sat(tree[1]), self.sat(tree[2])
            if base == "EU":
                return _backward_closure(b, pred, a)
            return _au(a, b, succ, pred)
        s = self.sat(tree[1])
        if base == "EX":
            return frozenset(v for v in u if any(w in s for w in succ[v]))
        if base == "AX":
            return frozenset(v for v in u if all(w in s for w in succ[v]))
        if base == "EF":
            return _backward_closure(s, pred, u)
        if base == "AG":
            return u - _backward_closure(u - s, pred, u)
        if base == "EG":
            return _eg(s, succ, pred)
        return u - _eg(u - s, succ, pred)  # AF

    # -- witnesses ---------------------------------------------------------

    def witness(self, tree: tuple, start: str) -> tuple[str, tuple[str, ...], bool]:
        """(kind, path, in_transpose) for a top-level EX/EF/EU form."""
        head = tree[0]
        inverse = head.startswith("I")
        base = head[1:] if inverse else head
        succ = self.backward[0] if inverse else self.forward[0]
        if base == "EX":
            target = self.sat(tree[1])
            for w in sorted(succ[start]):
                if w in target:
                    return "path", (start, w), inverse
            raise ValueError("EX does not hold at the start node")
        if base == "EF":
            targets, allowed = self.sat(tree[1]), self.universe
        else:
            targets, allowed = self.sat(tree[2]), self.sat(tree[1])
        if start in targets:
            return "node", (start,), inverse
        parent: dict[str, str | None] = {start: None}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in sorted(succ[v]):
                if w in parent:
                    continue
                parent[w] = v
                if w in targets:
                    path = [w]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return "path", tuple(reversed(path)), inverse
                if w in allowed:
                    queue.append(w)
        raise ValueError("no witness path from the start node")

    # -- statistics --------------------------------------------------------

    def expected_report(self) -> dict:
        """Everything ``netcheck metrics`` prints, plus the component
        decomposition, computed with networkx and exact fractions."""
        if self._report is None:
            self._report = self._compute_report()
        return self._report

    def _compute_report(self) -> dict:
        import networkx as nx

        wl = self.wl
        simple = nx.Graph()
        simple.add_nodes_from(wl.keys)
        simple.add_edges_from((a, b) for a, b, _ in wl.edges if a != b)
        comps = sorted((tuple(sorted(c)) for c in nx.connected_components(simple)),
                       key=lambda c: (-len(c), c[0]))
        triangles = sum(nx.triangles(simple).values()) // 3
        triples = sum(d * (d - 1) // 2 for _, d in simple.degree())
        giant = simple.subgraph(comps[0])
        distances = [d for _, row in nx.all_pairs_shortest_path_length(giant)
                     for d in row.values()]
        g = len(comps[0])
        report = {
            "components": tuple(comps),
            "nodes": len(wl.keys),
            "edges": len(wl.edges),
            "directed": wl.directed,
            "component_count": len(comps),
            "giant_component_size": g,
            "clustering_coefficient": Fraction(3 * triangles, triples) if triples else Fraction(0),
            "diameter": max(distances),
            "mean_geodesic": Fraction(sum(distances), g * (g - 1)) if g > 1 else Fraction(0),
        }
        if wl.directed:
            ins = {k: 0 for k in wl.keys}
            outs = {k: 0 for k in wl.keys}
            for a, b, _ in wl.edges:
                outs[a] += 1
                ins[b] += 1
            report["in_degree_histogram"] = _histogram(ins)
            report["out_degree_histogram"] = _histogram(outs)
        else:
            degs = {k: 0 for k in wl.keys}
            for a, b, _ in wl.edges:
                degs[a] += 1
                degs[b] += 1
            report["degree_histogram"] = _histogram(degs)
            multi = nx.MultiGraph()
            multi.add_edges_from((a, b) for a, b, w in wl.edges for _ in range(w))
            multi.remove_nodes_from(list(nx.isolates(multi)))
            report["eulerian_path"] = nx.has_eulerian_path(multi)
        return report

    def expected_stdout(self) -> str:
        """What the workload's CLI command prints."""
        if self._stdout is None:
            self._stdout = self._compute_stdout()
        return self._stdout

    def _compute_stdout(self) -> str:
        kind = self.wl.cli[0]
        if kind == "check":
            lines = sorted(self.sat(self.wl.cli[1]))
        elif kind == "query":
            lines = sorted(self.labels[self.wl.cli[1]])
        else:
            lines = report_lines(self.expected_report())
        return "".join(line + "\n" for line in lines)


def report_lines(report: dict) -> list[str]:
    """The documented line format of ``netcheck metrics``."""
    lines = []
    for key in ("nodes", "edges", "directed", "component_count", "giant_component_size",
                "clustering_coefficient", "diameter", "mean_geodesic", "degree_histogram",
                "in_degree_histogram", "out_degree_histogram", "eulerian_path"):
        if key not in report:
            continue
        value = report[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, dict):
            text = "{" + ", ".join(f"{d}: {c}" for d, c in sorted(value.items())) + "}"
        elif isinstance(value, Fraction):
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{key}: {text}")
    return lines


def _histogram(degrees: dict[str, int]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for d in degrees.values():
        hist[d] = hist.get(d, 0) + 1
    return hist


def _backward_closure(seed: frozenset[str], pred, allowed) -> frozenset[str]:
    """Nodes of ``allowed`` that reach ``seed`` through ``allowed``, plus ``seed``."""
    seen = set(seed)
    queue = deque(seed)
    while queue:
        w = queue.popleft()
        for v in pred[w]:
            if v not in seen and v in allowed:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


def _eg(s: frozenset[str], succ, pred) -> frozenset[str]:
    """Greatest fixpoint by counter pruning: a node of ``s`` stays while
    it has a successor in the set, or no successor at all (a sink ends
    a maximal path)."""
    alive = set(s)
    count = {v: sum(1 for w in succ[v] if w in alive) for v in alive}
    queue = deque(v for v in alive if succ[v] and count[v] == 0)
    dead = set(queue)
    while queue:
        w = queue.popleft()
        alive.discard(w)
        for v in pred[w]:
            if v in alive and v not in dead:
                count[v] -= 1
                if count[v] == 0:
                    dead.add(v)
                    queue.append(v)
    return frozenset(alive)


def _au(a: frozenset[str], b: frozenset[str], succ, pred) -> frozenset[str]:
    """Least fixpoint: b, or a with successors that all satisfy AU."""
    result = set(b)
    pending = {v: len(succ[v]) for v in succ}
    queue = deque(b)
    while queue:
        w = queue.popleft()
        for v in pred[w]:
            if v in result:
                continue
            pending[v] -= 1
            if pending[v] == 0 and v in a:
                result.add(v)
                queue.append(v)
    return frozenset(result)
