"""Acceptance gate: seven shipping criteria, one test per criterion,
plus a count-based twin of criterion 5.

``pytest -v tests/test_acceptance.py`` shows one PASSED/FAILED row per
test; each criterion's test also prints an ``ACCEPTANCE n ... PASS``
line (visible with ``-s``) when its assertions all hold. Expected sets
marked as pinned below were computed by the brute-force route (or by
hand) before the production checker was written, then frozen here.
"""

import gc
import glob
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from netcheck.checker import check, parse_formula
from netcheck.ctl import LabelMap, model_check, oracle_check
from netcheck.metrics import (
    clustering_coefficient,
    degree_histogram,
    diameter,
    eulerian_path_exists,
    mean_geodesic,
)
from netcheck.network import Edge, Network, load_network
from netcheck.xmldoc import XmlElement, XmlText, parse_xml
from netcheck.xpath import eval_filter, parse_filter

from tests.direct_eval import direct_check
from tests.gens import (
    all_pairs_bfs,
    random_attributed_network,
    random_formula,
    random_labels,
    random_network,
    random_xpl_text,
)

FIXTURES = sorted(glob.glob("fixtures/*.xml"))


def _report(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


# -- 1: worked examples ---------------------------------------------------------

# (fixture, formula, expected satisfaction set); expected sets pinned
# from the brute-force route before the production checker existed
EXAMPLES = [
    ("fixtures/web.xml", 'EX [title = "Google"]', {"w1", "w3"}),
    (
        "fixtures/scholars.xml",
        'IEX [(first = "Moshe") and (last = "Vardi")]',
        {"s2", "s3"},
    ),
    (
        "fixtures/papers.xml",
        'AX [contains(keywords, "network analysis")]',
        {"p1", "p2", "p3", "p5"},
    ),
    (
        "fixtures/metabolites.xml",
        'EX [name = "ATP"] | EX EX [name = "ATP"] | EX EX EX [name = "ATP"]',
        {"m2", "m3", "m4"},
    ),
    (
        "fixtures/contacts.xml",
        'EF [(first = "Gaetan") and (last = "Dugas")]',
        {"c1", "c2", "c3", "c4"},
    ),
    (
        "fixtures/collab.xml",
        'EU([count(paper) > 100], [(first = "Paul") and (last = "Erdos")])',
        {"e1", "e2", "e3"},
    ),
]


def test_criterion_1_example_fidelity():
    start = time.perf_counter()

    bibitem = parse_xml(Path("fixtures/bibitem.xml").read_bytes())
    falsy = 'count(author) = 1 and (year > 2007) and contains(abstract/em, "XML")'
    truthy = 'contains(abstract/em, "relational")'
    assert eval_filter(parse_filter(falsy), bibitem) is False
    assert eval_filter(parse_filter(truthy), bibitem) is True

    for path, text, expected in EXAMPLES:
        net = load_network(path)
        got = check(net, parse_formula(text))
        assert got == frozenset(expected), (path, text, sorted(got))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"examples took {elapsed:.2f}s"
    _report(1, "worked examples under 1s")


# -- 2: brute-force agreement ------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20250822)
    instances = 1000
    for i in range(instances):
        net = random_network(rng, max_n=8, p=0.3, directed=rng.random() < 0.8)
        labels = LabelMap.build(random_labels(rng, net), props=("p", "q", "r"))
        formula = random_formula(rng, depth=4)
        fast = model_check(net, labels, formula)
        slow = oracle_check(net, labels, formula)
        assert fast == slow, (i, sorted(net.edges), formula)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{instances} instances took {elapsed:.1f}s"
    _report(2, f"{instances} random instances agree with brute force")


# -- 3: staged pipeline vs inline evaluation -----------------------------------------


def test_criterion_3_pipeline_equivalence():
    rng = random.Random(4207)
    instances = 200
    for i in range(instances):
        net = random_attributed_network(rng, max_n=8, directed=rng.random() < 0.8)
        formula = parse_formula(random_xpl_text(rng, depth=3))
        assert check(net, formula) == direct_check(net, formula), (i, formula)
    _report(3, f"{instances} attributed networks match inline evaluation")


# -- 4: dualities ---------------------------------------------------------------------


def test_criterion_4_duality_suite():
    from netcheck.ctl import TRUE, And, Not, Temporal, Until

    rng = random.Random(1759)
    instances = 500
    for _ in range(instances):
        net = random_network(rng, max_n=7, directed=rng.random() < 0.8)
        labels = LabelMap.build(random_labels(rng, net), props=("p", "q", "r"))
        f = random_formula(rng, depth=2)
        g = random_formula(rng, depth=2)
        sat = lambda h: model_check(net, labels, h)
        assert sat(Temporal("AX", f)) == sat(Not(Temporal("EX", Not(f))))
        assert sat(Temporal("AG", f)) == sat(Not(Temporal("EF", Not(f))))
        assert sat(Temporal("AF", f)) == sat(Not(Temporal("EG", Not(f))))
        assert sat(Until("AU", f, g)) == sat(
            And(
                Not(Until("EU", Not(g), And(Not(f), Not(g)))),
                Not(Temporal("EG", Not(g))),
            )
        )
        assert sat(Temporal("EF", f)) == sat(Until("EU", TRUE, f))
    _report(4, f"five identities over {instances} random instances")


# -- 5: scaling ------------------------------------------------------------------------


def _chain_payload(key: str, flag: str) -> XmlElement:
    node = XmlElement("node", {"key": key}, 0)
    p = XmlElement("p", {}, 1)
    t = XmlText(flag, 2)
    t.parent = p
    p.children.append(t)
    p.parent = node
    node.children.append(p)
    return node


def _chain(n: int) -> Network:
    keys = [f"n{i:07d}" for i in range(n)]
    nodes = {
        k: _chain_payload(k, "1" if i == n - 1 else "0")
        for i, k in enumerate(keys)
    }
    edges = [Edge(keys[i], keys[i + 1]) for i in range(n - 1)]
    return Network(True, nodes, edges)


def _best_times(first, second, reps: int = 8) -> tuple[float, float]:
    """Best times of ``check`` for two (network, formula) cases, timed
    in alternation rep by rep, each case going first in turn, so that a
    change in host speed reaches both. Every timed call runs on a copy
    of its network that has not seen the formula, so that it labels its
    filters rather than reading a stored set. Each copy is built before
    its timer starts and freed after it stops."""
    cases = (first, second)
    best = [float("inf"), float("inf")]
    for rep in range(reps):
        for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
            net, formula = cases[i]
            fresh = Network(True, net.nodes, net.edges)
            gc.collect()
            t0 = time.perf_counter()
            check(fresh, formula)
            best[i] = min(best[i], time.perf_counter() - t0)
            del fresh
    return best[0], best[1]


def test_criterion_5_linear_scaling():
    f1 = parse_formula('EF [p = "1"]')
    net100 = _chain(100_000)
    net200 = _chain(200_000)

    sat200 = check(net200, f1)
    assert len(sat200) == 200_000  # the whole chain reaches the tail

    t100, t200 = _best_times((net100, f1), (net200, f1))
    ratio = t200 / t100
    assert t200 < 5.0, f"200k nodes took {t200:.2f}s"
    assert 1.3 <= ratio <= 3.0, f"size ratio {ratio:.2f} (t100={t100:.3f}s t200={t200:.3f}s)"

    # Formula growth at fixed size. The atoms must all be distinct:
    # repeated identical subformulas are computed once, deliberately.
    f_half = parse_formula('EF [p = "1"] | EF [p = "2"]')
    f_full = parse_formula(
        'EF [p = "1"] | EF [p = "2"] | EF [p = "3"] | EF [p = "4"]'
    )
    t_half, t_full = _best_times((net100, f_half), (net100, f_full))
    fratio = t_full / t_half
    assert 1.3 <= fratio <= 3.0, f"formula ratio {fratio:.2f}"
    _report(
        5,
        f"200k in {t200:.2f}s, size ratio {ratio:.2f}, formula ratio {fratio:.2f}",
    )


def test_criterion_5_counts_linear(monkeypatch):
    # The count-based twin of the timing bracket above: payload
    # evaluations and id-adjacency entries read by one check, on a fresh
    # network each time. Counts do not depend on the host's speed.
    from tests.test_checker import _counting_compiler
    from tests.test_ctl import _ReadCounter

    counts = _counting_compiler(monkeypatch)

    def counted(net, formula):
        fresh = Network(True, net.nodes, net.edges)
        fresh._succ = succ = _ReadCounter(fresh._succ)
        fresh._pred = pred = _ReadCounter(fresh._pred)
        succ.read = pred.read = 0
        counts["runs"].clear()
        check(fresh, formula)
        return sum(counts["runs"].values()), succ.read + pred.read

    f1 = parse_formula('EF [p = "1"]')
    net10 = _chain(10_000)
    evals10, read10 = counted(net10, f1)
    evals20, read20 = counted(_chain(20_000), f1)
    assert abs(evals20 / evals10 - 2) <= 0.05, (evals10, evals20)
    assert abs(read20 / read10 - 2) <= 0.05, (read10, read20)

    f_half = parse_formula('EF [p = "1"] | EF [p = "2"]')
    f_full = parse_formula(
        'EF [p = "1"] | EF [p = "2"] | EF [p = "3"] | EF [p = "4"]'
    )
    evals_half, read_half = counted(net10, f_half)
    evals_full, read_full = counted(net10, f_full)
    assert abs(evals_full / evals_half - 2) <= 0.05, (evals_half, evals_full)
    assert read_full <= 1.05 * read_half, (read_half, read_full)


# -- 6: statistics ---------------------------------------------------------------------


def test_criterion_6_metrics_exactness():
    k3 = load_network("fixtures/k3.xml")
    assert clustering_coefficient(k3) == Fraction(1)
    assert float(clustering_coefficient(k3)) == 1.0

    square = load_network("fixtures/square_diag.xml")
    assert clustering_coefficient(square) == Fraction(3, 4)
    assert float(clustering_coefficient(square)) == 0.75

    bridges = load_network("fixtures/konigsberg.xml")
    assert eulerian_path_exists(bridges) is False
    assert degree_histogram(bridges).counts == {3: 3, 5: 1}

    chain = load_network("fixtures/chain3.xml")
    assert diameter(chain) == 2
    assert mean_geodesic(chain) == Fraction(4, 3)

    eight = load_network("fixtures/eight.xml")
    size, longest, total = all_pairs_bfs(eight)
    assert size == 8
    assert diameter(eight) == longest
    assert mean_geodesic(eight) == Fraction(total, size * (size - 1))
    _report(6, "exact statistics on all five reference graphs")


# -- 7: determinism ----------------------------------------------------------------------


def test_criterion_7_cli_determinism():
    assert FIXTURES, "fixture directory must not be empty"
    commands = [
        ("metrics", "--network"),
        ("check", "--formula", "EF true", "--network"),
        ("query", "--filter", "*", "--network"),
    ]
    # The children import the package from this checkout, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for path in FIXTURES:
        for cmd in commands:
            argv = [sys.executable, "-m", "netcheck", *cmd, path]
            first = subprocess.run(argv, capture_output=True, env=env)
            second = subprocess.run(argv, capture_output=True, env=env)
            assert first.returncode == second.returncode, (path, cmd)
            assert first.stdout == second.stdout, (path, cmd)
    _report(7, f"byte-identical reruns over {len(FIXTURES)} fixtures")
