"""Seeded generators for the three benchmark workloads.

The seed draws the data: attribute values, texts and random edge
endpoints. What sets the cost is fixed per workload, so that runs on
different seeds measure comparable work: sizes, payload nesting, and
the formula and witness batches (drawn from a fixed generator).

Each generator returns a :class:`Workload`: the network as XML bytes,
the generator's own record of every payload, the edge list, a pool of
filters (filter text plus a Python predicate over a payload record),
the formula batch as small tuple trees, the witness batch and the CLI
command. netcheck only ever sees the bytes and the rendered texts; the
records, predicates and trees are what the reference works from.

Formula trees use plain tuples:

    ("atom", i)            filter i of the pool
    ("not", f)  ("and", f, g)  ("or", f, g)
    (OP, f)                one of the twelve unary temporal operators
    (OP, f, g)             EU, AU, IEU or IAU
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

UNARY_OPS = ("EX", "AX", "EF", "AF", "EG", "AG",
             "IEX", "IAX", "IEF", "IAF", "IEG", "IAG")
UNTIL_OPS = ("EU", "AU", "IEU", "IAU")
ALL_OPS = UNARY_OPS + UNTIL_OPS
WITNESS_OPS = ("EX", "EF", "EU", "IEX", "IEF", "IEU")


@dataclass(frozen=True)
class Filter:
    text: str
    holds: Callable[[dict], bool]


@dataclass
class Workload:
    name: str
    directed: bool
    keys: list[str]                      # ascending
    records: dict[str, dict]
    edges: list[tuple[str, str, int]]    # (from, to, weight), file order
    data: bytes
    filters: list[Filter]
    formulas: list[tuple]
    witnesses: list[tuple]               # top-level EX/EF/EU forms, inverse too
    cli: tuple                           # ("check", tree) | ("query", i) | ("metrics",)

    def digest(self) -> str:
        h = hashlib.sha256(self.data)
        for f in self.filters:
            h.update(f.text.encode())
        for tree in self.formulas:
            h.update(render(tree, self.filters).encode())
        for tree in self.witnesses:
            h.update(render(tree, self.filters).encode())
        return h.hexdigest()[:16]


def render(tree: tuple, filters: list[Filter]) -> str:
    """Surface syntax of a formula tree; binary connectives are always
    parenthesised, so operator precedence never matters."""
    head = tree[0]
    if head == "atom":
        return f"[{filters[tree[1]].text}]"
    if head == "not":
        return f"!{render(tree[1], filters)}"
    if head in ("and", "or"):
        sym = " & " if head == "and" else " | "
        return f"({render(tree[1], filters)}{sym}{render(tree[2], filters)})"
    if head in UNTIL_OPS:
        return f"{head}({render(tree[1], filters)}, {render(tree[2], filters)})"
    return f"{head} {render(tree[1], filters)}"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _network_xml(directed: bool, keys, payload_xml: dict[str, str], edges) -> bytes:
    parts = [f'<network directed="{"true" if directed else "false"}">\n']
    for k in keys:
        parts.append(payload_xml[k])
        parts.append("\n")
    for a, b, w in edges:
        weight = f' weight="{w}"' if w != 1 else ""
        parts.append(f'<edge from="{a}" to="{b}"{weight}/>\n')
    parts.append("</network>\n")
    return "".join(parts).encode("utf-8")


# ---------------------------------------------------------------------------
# paths: chain + bidirectional hub + random part, tiny payloads


def _paths_filters() -> list[Filter]:
    return [
        Filter('@v < 3', lambda r: r["v"] < 3),
        Filter('@v >= 5', lambda r: r["v"] >= 5),
        Filter('@t = "a"', lambda r: r.get("t") == "a"),
        Filter('@v = 7 or @t = "b"', lambda r: r["v"] == 7 or r.get("t") == "b"),
        Filter('not(@t)', lambda r: "t" not in r),
        Filter('@v != 4', lambda r: r["v"] != 4),
        Filter('@t = "c" and @v > 1', lambda r: r.get("t") == "c" and r["v"] > 1),
        Filter('@v > 0', lambda r: r["v"] > 0),
    ]


def _single_op_batch(rng: random.Random, count: int, n_filters: int,
                     ops: tuple[str, ...] = ALL_OPS) -> list[tuple]:
    """``count`` one-operator formulas over atoms; operators cycle."""
    batch = []
    for i in range(count):
        op = ops[i % len(ops)]
        a, b = rng.sample(range(n_filters), 2)
        batch.append((op, ("atom", a), ("atom", b)) if op in UNTIL_OPS else (op, ("atom", a)))
    return batch


def _random_formula(rng: random.Random, budget: int, atoms: list[int]) -> tuple:
    """A formula with exactly ``budget`` temporal operators over ``atoms``."""
    if budget == 0:
        leaf = ("atom", rng.choice(atoms))
        return ("not", leaf) if rng.random() < 0.2 else leaf
    roll = rng.random()
    if roll < 0.2 and budget >= 2:
        k = rng.randint(1, budget - 1)
        return (rng.choice(("and", "or")),
                _random_formula(rng, k, atoms), _random_formula(rng, budget - k, atoms))
    if roll < 0.45:
        k = rng.randint(0, budget - 1)
        return (rng.choice(UNTIL_OPS),
                _random_formula(rng, k, atoms), _random_formula(rng, budget - 1 - k, atoms))
    if roll < 0.5:
        return ("not", (rng.choice(UNARY_OPS), _random_formula(rng, budget - 1, atoms)))
    return (rng.choice(UNARY_OPS), _random_formula(rng, budget - 1, atoms))


def _nested_batch(rng: random.Random, count: int, n_filters: int,
                  lo: int, hi: int) -> list[tuple]:
    """``count`` formulas of ``lo``..``hi`` temporal operators over 2-3
    atoms each; the top operators cycle through all sixteen."""
    batch = []
    for i in range(count):
        atoms = rng.sample(range(n_filters), rng.randint(2, 3))
        top = ALL_OPS[i % len(ALL_OPS)]
        budget = rng.randint(lo, hi) - 1
        if top in UNTIL_OPS:
            k = rng.randint(0, budget)
            tree = (top, _random_formula(rng, k, atoms),
                    _random_formula(rng, budget - k, atoms))
        else:
            tree = (top, _random_formula(rng, budget, atoms))
        batch.append(tree)
    return batch


def make_paths(seed: int | str, chain: int = 700, leaves: int = 900, rand_nodes: int = 500,
               rand_edges: int = 1500, formulas: int = 16, witnesses: int = 48) -> Workload:
    rng = random.Random(f"paths/{seed}")
    chain_keys = [f"c{i:05d}" for i in range(chain)]
    leaf_keys = [f"l{i:05d}" for i in range(leaves)]
    rand_keys = [f"r{i:05d}" for i in range(rand_nodes)]
    keys = sorted(chain_keys + ["h"] + leaf_keys + rand_keys)
    records: dict[str, dict] = {}
    payload_xml: dict[str, str] = {}
    for k in keys:
        rec = {"v": rng.randrange(10)}
        if rng.random() < 0.5:
            rec["t"] = rng.choice("abc")
        if k == "h":
            # Whether EG and AF pass through the hub decides most of a
            # formula's cost, so the hub's payload does not vary by seed.
            rec = {"v": 9, "t": "a"}
        records[k] = rec
        t_attr = f' t="{rec["t"]}"' if "t" in rec else ""
        payload_xml[k] = f'<node key="{k}" v="{rec["v"]}"{t_attr}/>'
    edges: list[tuple[str, str, int]] = []
    edges += [(a, b, 1) for a, b in zip(chain_keys, chain_keys[1:])]
    for leaf in leaf_keys:
        edges.append(("h", leaf, 1))
        edges.append((leaf, "h", 1))
    edges += [(rng.choice(rand_keys), rng.choice(rand_keys), 1) for _ in range(rand_edges)]
    filters = _paths_filters()
    queries = random.Random("paths/queries")
    batch = _nested_batch(queries, formulas, len(filters), 5, 12)
    return Workload(
        name="paths", directed=True, keys=keys, records=records, edges=edges,
        data=_network_xml(True, keys, payload_xml, edges), filters=filters,
        formulas=batch,
        witnesses=_single_op_batch(queries, witnesses, len(filters), WITNESS_OPS),
        cli=("check", batch[ALL_OPS.index("EG")]),
    )


# ---------------------------------------------------------------------------
# payloads: random digraph with rich, nested payloads

_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta")
_TITLES = ("Intro", "Methods", "Results", "Notes", "R&D report", "A<B test",
           "Summary", "Outlook")
_TAGS = ("red", "blue", "green", "amber")


def _payload_filters() -> list[Filter]:
    def sections(r):
        stack = list(r["sections"])
        while stack:
            s = stack.pop()
            yield s
            stack.extend(s["subs"])

    def has_para_below(s) -> bool:
        return bool(s["paras"]) or any(has_para_below(c) for c in s["subs"])

    return [
        Filter('@grp = "g1"', lambda r: r["grp"] == "g1"),
        Filter('tag = "red"', lambda r: "red" in r["tags"]),
        Filter('count(tag) >= 3', lambda r: len(r["tags"]) >= 3),
        Filter('meta/@year < 2000', lambda r: r["year"] < 2000),
        Filter('contains(descendant::para, "gamma")',
               lambda r: any("gamma" in p for s in sections(r) for p in s["paras"])),
        Filter('descendant-or-self::section[@level >= 4]',
               lambda r: any(s["level"] >= 4 for s in sections(r))),
        Filter('descendant::para/parent::section/title = "Methods"',
               lambda r: any(s["paras"] and s["title"] == "Methods" for s in sections(r))),
        Filter('descendant::para[ancestor::section[@level = 2]]',
               lambda r: any(s["level"] == 2 and has_para_below(s) for s in sections(r))),
        Filter('self::node[@score > 50]', lambda r: r["score"] > 50),
        Filter('tag[following-sibling::tag = "red"]', lambda r: "red" in r["tags"][1:]),
        Filter('ref[preceding-sibling::tag = "blue"]',
               lambda r: bool(r["refs"]) and "blue" in r["tags"]),
        Filter('title = section/title',
               lambda r: any(s["title"] == r["title"] for s in r["sections"])),
        Filter('contains(title/text(), "&")', lambda r: "&" in r["title"]),
        Filter('not(ref) and @grp != "g0"', lambda r: not r["refs"] and r["grp"] != "g0"),
        Filter('@score = 7 or count(descendant::section) > 5',
               lambda r: r["score"] == 7 or sum(1 for _ in sections(r)) > 5),
        Filter('*[@lang = "fr"]', lambda r: r["lang"] == "fr"),
        Filter('section/section/section/para', lambda r: any(
            s["level"] == 3 and s["paras"] for s in sections(r))),
    ]


def _section(shape: random.Random, rng: random.Random, level: int, max_level: int) -> dict:
    paras = [" ".join(rng.choice(_WORDS) for _ in range(shape.randint(2, 6)))
             + rng.choice(("", " & co", " <x>"))
             for _ in range(shape.randint(0, 3))]
    subs = []
    if level < max_level:
        # branch near the top only, so deep payloads stay linear in depth
        width = shape.randint(1, 2) if level < 3 else 1
        subs = [_section(shape, rng, level + 1, max_level) for _ in range(width)]
    return {"level": level, "title": rng.choice(_TITLES), "paras": paras, "subs": subs}


def _section_xml(s: dict, out: list[str]) -> None:
    out.append(f'<section level="{s["level"]}"><title>{_escape(s["title"])}</title>')
    for p in s["paras"]:
        out.append(f"<para>{_escape(p)}</para>")
    for c in s["subs"]:
        _section_xml(c, out)
    out.append("</section>")


def _rich_payload(shape: random.Random, rng: random.Random, key: str, keys: list[str],
                  i: int) -> tuple[dict, str]:
    # one payload in forty is 32 section levels deep
    max_level = 32 if i % 40 == 0 else shape.choice((1, 2, 2, 3, 3, 4, 5))
    rec = {
        "grp": f"g{rng.randrange(5)}",
        "score": rng.randrange(100),
        "title": rng.choice(_TITLES),
        "lang": rng.choice(("en", "fr", "de")),
        "year": rng.randint(1985, 2020),
        "sections": [_section(shape, rng, 1, max_level) for _ in range(shape.randint(1, 2))],
        "tags": [rng.choice(_TAGS) for _ in range(shape.randint(1, 5))],
        "refs": [rng.choice(keys) for _ in range(shape.randint(0, 2))],
    }
    out = [f'<node key="{key}" id="{i}" grp="{rec["grp"]}" score="{rec["score"]}">',
           f"<title>{_escape(rec['title'])}</title>",
           f'<meta lang="{rec["lang"]}" year="{rec["year"]}"/>']
    for s in rec["sections"]:
        _section_xml(s, out)
    out += [f"<tag>{t}</tag>" for t in rec["tags"]]
    out += [f'<ref to="{r}"/>' for r in rec["refs"]]
    out.append("</node>")
    return rec, "".join(out)


def make_payloads(seed: int | str, nodes: int = 160, out_degree: int = 3,
                  formulas: int = 112, witnesses: int = 96) -> Workload:
    rng = random.Random(f"payloads/{seed}")
    shape = random.Random("payloads/shape")
    keys = [f"n{i:05d}" for i in range(nodes)]
    records: dict[str, dict] = {}
    payload_xml: dict[str, str] = {}
    for i, k in enumerate(keys):
        records[k], payload_xml[k] = _rich_payload(shape, rng, k, keys, i)
    edges = [(k, rng.choice(keys), 1)
             for k in keys for _ in range(shape.randint(0, 2 * out_degree))]
    filters = _payload_filters()
    queries = random.Random("payloads/queries")
    return Workload(
        name="payloads", directed=True, keys=keys, records=records, edges=edges,
        data=_network_xml(True, keys, payload_xml, edges), filters=filters,
        formulas=_single_op_batch(queries, formulas, len(filters)),
        witnesses=_single_op_batch(queries, witnesses, len(filters), WITNESS_OPS),
        cli=("query", 4),
    )


# ---------------------------------------------------------------------------
# topology: undirected multigraph for the statistics report


def make_topology(seed: int | str, communities: int = 8, size: int = 60, p_in: float = 0.12,
                  bridges: int = 12, small: int = 8, formulas: int = 32,
                  witnesses: int = 48) -> Workload:
    rng = random.Random(f"topology/{seed}")
    giant = [f"t{i:05d}" for i in range(communities * size)]
    comm = {k: i // size for i, k in enumerate(giant)}
    edges: list[tuple[str, str, int]] = []
    for c in range(communities):
        members = giant[c * size:(c + 1) * size]
        # a ring keeps each community connected; random chords make it dense
        edges += [(a, b, rng.randint(1, 3)) for a, b in zip(members, members[1:] + members[:1])]
        pairs = [(a, b) for i, a in enumerate(members) for b in members[i + 2:]]
        edges += [(a, b, rng.randint(1, 3))
                  for a, b in rng.sample(pairs, int(p_in * len(pairs)))]
    for c in range(communities):
        # chain the communities together, then add random long-range bridges
        a = giant[c * size + rng.randrange(size)]
        b = giant[((c + 1) % communities) * size + rng.randrange(size)]
        edges.append((a, b, 1))
    for _ in range(bridges):
        edges.append((rng.choice(giant), rng.choice(giant), 1))
    for _ in range(len(edges) // 20):
        a, b, w = rng.choice(edges)
        edges.append((a, b, w))                      # parallel edge
    for _ in range(communities * 2):
        k = rng.choice(giant)
        edges.append((k, k, rng.randint(1, 2)))      # self-loop
    keys = list(giant)
    for s in range(small):
        members = [f"s{s:02d}{j:02d}" for j in range(2 + s % 5)]
        keys += members
        for c in members:
            comm[c] = communities + s
        edges += [(a, b, rng.randint(1, 3)) for a, b in zip(members, members[1:])]
    keys.sort()
    rng.shuffle(edges)
    records = {k: {"comm": comm[k], "hub": rng.random() < 0.1} for k in keys}
    payload_xml = {
        k: f'<node key="{k}" comm="{r["comm"]}"' + (' hub="1"/>' if r["hub"] else "/>")
        for k, r in records.items()
    }
    filters = [
        Filter('@comm = 0', lambda r: r["comm"] == 0),
        Filter('@comm > 3', lambda r: r["comm"] > 3),
        Filter('@hub', lambda r: r["hub"]),
        Filter('@comm < 2 and not(@hub)', lambda r: r["comm"] < 2 and not r["hub"]),
    ]
    queries = random.Random("topology/queries")
    return Workload(
        name="topology", directed=False, keys=keys, records=records, edges=edges,
        data=_network_xml(False, keys, payload_xml, edges), filters=filters,
        formulas=_single_op_batch(queries, formulas, len(filters)),
        witnesses=_single_op_batch(queries, witnesses, len(filters), WITNESS_OPS),
        cli=("metrics",),
    )


GENERATORS = {"paths": make_paths, "payloads": make_payloads, "topology": make_topology}
