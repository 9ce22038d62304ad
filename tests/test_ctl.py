"""Checker semantics: frozen instances, dualities, witnesses, oracle parity."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from netcheck.ctl import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bool,
    LabelMap,
    Not,
    Or,
    Temporal,
    Until,
    formula_length,
    model_check,
    oracle_check,
    witness,
)
from netcheck.errors import (
    NotSatisfiedError,
    SizeExceededError,
    UnboundAtomError,
    UnknownKeyError,
)

from tests.direct_eval import direct_check
from tests.gens import (
    ALL_UNARY,
    ALL_UNTIL,
    make_network,
    random_formula,
    random_labels,
    random_network,
)


def lm(assignments, props=("p", "q", "r")):
    return LabelMap.build(assignments, props)


# -- AST ----------------------------------------------------------------------


def test_operator_names_validated():
    with pytest.raises(ValueError):
        Temporal("XX", TRUE)
    with pytest.raises(ValueError):
        Temporal("EU", TRUE)
    with pytest.raises(ValueError):
        Until("EX", TRUE, FALSE)


def test_formula_length_counts_nodes():
    f = Until("AU", Atom("p"), Temporal("EX", Atom("q")))
    assert formula_length(f) == 4
    assert formula_length(Not(And(TRUE, FALSE))) == 4


class CountedProp(str):
    """Proposition id that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        self.hashes += 1
        return str.__hash__(self)


def test_long_chain_hashes_each_node_a_bounded_number_of_times():
    # EX p1 | EX p2 | ... | EX p150 nests 150 deep. If every lookup
    # rehashed the whole subtree, p1 would be hashed once per enclosing
    # node; hashed once per node, each proposition is hashed by its atom
    # and by the two label lookups of the atom's check, whatever its depth.
    props = [CountedProp(f"p{i}") for i in range(1, 151)]
    labels = lm({"a": props[:1]}, props=props)
    formula = Temporal("EX", Atom(props[0]))
    for p in props[1:]:
        formula = Or(formula, Temporal("EX", Atom(p)))
    for p in props:
        p.hashes = 0
    assert model_check(make_network([("a", "a")]), labels, formula) == {"a"}
    assert max(p.hashes for p in props) <= 3


def test_label_map_build_checks_universe():
    with pytest.raises(UnboundAtomError):
        LabelMap.build({"a": ["z"]}, props=["p"])
    m = LabelMap.build({"a": ["p"]})
    assert m.props == frozenset({"p"})
    assert m.holds("p", "a") and not m.holds("p", "b")


def test_unregistered_atom_rejected_at_check_time():
    net = make_network([("a", "b")])
    with pytest.raises(UnboundAtomError):
        model_check(net, lm({"a": ["p"]}, props=["p"]), Atom("z"))


def test_labels_for_unknown_nodes_rejected():
    net = make_network([("a", "b")])
    with pytest.raises(UnknownKeyError):
        model_check(net, lm({"zz": ["p"]}), Atom("p"))


def test_unlabelled_unknown_node_rejected():
    # a key with no proposition holds nowhere, but is still checked
    net = make_network([("a", "b")])
    with pytest.raises(UnknownKeyError):
        model_check(net, LabelMap.build({"zz": []}), TRUE)


def test_label_sets_naming_unknown_nodes_rejected():
    # A map built by hand whose proposition sets name a key that neither
    # the network nor the map's own keys hold.
    net = make_network([("a", "b")])
    stray = LabelMap({"p": frozenset({"zz"})}, frozenset())
    for run in (
        lambda: model_check(net, stray, Atom("p")),
        lambda: model_check(net, stray, Temporal("EX", Atom("p"))),
        lambda: model_check(net, stray, Temporal("EF", Atom("p"))),
        lambda: witness(net, stray, Temporal("EF", Atom("p")), "a"),
        lambda: witness(net, stray, Temporal("EG", Atom("p")), "a"),  # no witness form
        lambda: oracle_check(net, stray, Atom("p")),
    ):
        with pytest.raises(UnknownKeyError, match="not in the network: \\['zz'\\]"):
            run()


# -- frozen instances ----------------------------------------------------------

AU_EDGES = [
    ("v1", "v3"), ("v1", "v4"), ("v2", "v3"), ("v2", "v5"),
    ("v3", "v1"), ("v4", "v1"), ("v4", "v2"), ("v4", "v6"),
    ("v5", "v3"), ("v5", "v4"), ("v6", "v4"), ("v6", "v6"),
]
AU_LABELS = {
    "v1": [], "v2": ["p", "q"], "v3": ["p"],
    "v4": [], "v5": ["q"], "v6": ["p", "q"],
}


def test_frozen_au_instance():
    # expected set computed by the brute-force route before the
    # production checker existed, then pinned here
    net = make_network(AU_EDGES, keys=[f"v{i}" for i in range(1, 7)])
    labels = lm(AU_LABELS)
    f = Until("AU", Atom("p"), Temporal("EX", Atom("q")))
    expected = frozenset({"v2", "v4", "v6"})
    assert model_check(net, labels, f) == expected
    assert oracle_check(net, labels, f) == expected
    assert direct_check(net, f, {k: frozenset(v) for k, v in AU_LABELS.items()}) == expected


def test_boolean_connectives_over_sets():
    net = make_network([("a", "b"), ("b", "c")])
    labels = lm({"a": ["p"], "b": ["q"], "c": ["p", "q"]})
    assert model_check(net, labels, TRUE) == {"a", "b", "c"}
    assert model_check(net, labels, FALSE) == frozenset()
    assert model_check(net, labels, And(Atom("p"), Atom("q"))) == {"c"}
    assert model_check(net, labels, Or(Atom("p"), Atom("q"))) == {"a", "b", "c"}
    assert model_check(net, labels, Not(Atom("p"))) == {"b"}


# -- path semantics at sinks and loops ------------------------------------------


def test_sink_semantics():
    net = make_network([], keys=["s"])
    has_p = lm({"s": ["p"]})
    no_p = lm({})
    cases = [
        (Temporal("EX", Atom("p")), False, False),
        (Temporal("AX", Atom("p")), True, True),  # vacuous: no next state
        (Temporal("EF", Atom("p")), True, False),
        (Temporal("AF", Atom("p")), True, False),
        (Temporal("EG", Atom("p")), True, False),
        (Temporal("AG", Atom("p")), True, False),
        (Until("EU", TRUE, Atom("p")), True, False),
        (Until("AU", TRUE, Atom("p")), True, False),
    ]
    for f, expect_with, expect_without in cases:
        assert (model_check(net, has_p, f) == {"s"}) is expect_with, f
        assert (model_check(net, no_p, f) == {"s"}) is expect_without, f


def test_eg_requires_a_cycle_or_sink_within_the_region():
    # s -> t, both maximal paths leave p, so EG p holds nowhere
    net = make_network([("s", "t")])
    labels = lm({"s": ["p"]})
    assert model_check(net, labels, Temporal("EG", Atom("p"))) == frozenset()
    # a self-loop inside the region suffices
    looped = make_network([("s", "t"), ("s", "s")])
    assert model_check(looped, labels, Temporal("EG", Atom("p"))) == {"s"}


def test_eg_through_larger_cycle():
    net = make_network([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    labels = lm({"a": ["p"], "b": ["p"], "c": ["p"]})
    assert model_check(net, labels, Temporal("EG", Atom("p"))) == {"a", "b", "c"}


def test_eg_prunes_back_along_a_chain():
    # v0 -> ... -> v5 -> t: each v stays in p only until its successor
    # drops out, so the pruning has to travel back the whole chain
    chain = [(f"v{i}", f"v{i + 1}") for i in range(5)] + [("v5", "t")]
    labels = lm({f"v{i}": ["p"] for i in range(6)})
    eg = Temporal("EG", Atom("p"))
    assert model_check(make_network(chain), labels, eg) == frozenset()
    # a loop at the far end keeps the whole chain
    looped = make_network(chain + [("v5", "v5")])
    assert model_check(looped, labels, eg) == {f"v{i}" for i in range(6)}


def test_af_on_a_cycle_fails():
    # the loop can postpone p forever
    net = make_network([("a", "b"), ("b", "a"), ("b", "c")])
    labels = lm({"c": ["p"]})
    assert model_check(net, labels, Temporal("AF", Atom("p"))) == {"c"}
    assert model_check(net, labels, Temporal("EF", Atom("p"))) == {"a", "b", "c"}


def _hub(n):
    """Hub h joined both ways to leaves l0..l(n-1), except that every
    fourth leaf only receives an edge and so is a sink. p holds at the
    hub and at the leaves whose index is not a multiple of 3, q at the
    leaves whose index is a multiple of 5."""
    leaves = [f"l{i:05d}" for i in range(n)]
    edges = [("h", k) for k in leaves]
    edges += [(k, "h") for i, k in enumerate(leaves) if i % 4]
    assignments = {k: [] for k in leaves}
    assignments["h"] = ["p"]
    for i, k in enumerate(leaves):
        if i % 3:
            assignments[k].append("p")
        if i % 5 == 0:
            assignments[k].append("q")
    return make_network(edges), lm(assignments), leaves


# EG, AF and AU on the hub, each with its satisfaction set as a
# predicate on the leaf index and whether the hub is in it.
_HUB_CASES = [
    # every p-node has a p-successor or is a sink
    (Temporal("EG", Atom("p")), True, lambda i: i % 3 != 0),
    # the hub is outside the region, so only its sink leaves survive
    (Temporal("EG", Not(Atom("p"))), False, lambda i: i % 12 == 0),
    # only a sink leaf outside p can avoid p forever
    (Temporal("AF", Atom("p")), True, lambda i: i % 12 != 0),
    # q then p: a q-leaf reaches p at the hub unless it is a sink
    (Until("AU", Atom("q"), Atom("p")), True,
     lambda i: i % 3 != 0 or (i % 5 == 0 and i % 4 != 0)),
]


def test_eg_af_au_linear_on_two_way_hub():
    # Each operator is one O(n+m) counting pass. A quadratic pass over
    # the hub's successor list would grow about 16x for 4x the leaves;
    # a linear one measures 4-6x, cache effects included.
    # The two sizes are timed in alternation, each going first in turn,
    # so that a change in host speed reaches both.
    hubs = [_hub(n) for n in (5_000, 20_000)]
    for net, labels, leaves in hubs:
        for f, hub, leaf in _HUB_CASES:
            expected = {k for i, k in enumerate(leaves) if leaf(i)}
            expected |= {"h"} if hub else set()
            assert model_check(net, labels, f) == expected, f
    times = [float("inf"), float("inf")]
    for rep in range(5):
        for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
            net, labels, _ = hubs[i]
            t0 = time.perf_counter()
            for f, _, _ in _HUB_CASES:
                model_check(net, labels, f)
            times[i] = min(times[i], time.perf_counter() - t0)
    ratio = times[1] / times[0]
    assert 2.0 <= ratio <= 10.0, f"4x leaves took {ratio:.1f}x as long ({times})"


class _ReadCounter(tuple):
    """An id adjacency that counts the neighbour ids read through it."""

    def __getitem__(self, i):
        ids = tuple.__getitem__(self, i)
        self.read += len(ids)
        return ids


def test_passes_read_linear_edge_counts_on_two_way_hub():
    # The count-based twin of the timing bracket above: each operator's
    # pass reads at most 2(n+m) adjacency entries, each edge at most
    # twice, and 4x the leaves reads 4x the entries. A pass that
    # rescanned the hub's successor list per decrement would read
    # about 16x. Counting does not depend on the host's speed.
    formulas = [f for f, _, _ in _HUB_CASES] + [
        Temporal("EF", Atom("q")), Temporal("AG", Atom("p")),
        Until("EU", Atom("p"), Atom("q")),
        Temporal("IAF", Atom("q")), Until("IAU", Atom("q"), Atom("p")),
    ]
    totals = []
    for n in (5_000, 20_000):
        net, labels, leaves = _hub(n)
        bound = 2 * (net.n + net.m)
        net._succ = succ = _ReadCounter(net._succ)
        net._pred = pred = _ReadCounter(net._pred)
        total = 0
        for f in formulas:
            succ.read = pred.read = 0
            model_check(net, labels, f)
            read = succ.read + pred.read
            assert 0 < read <= bound, (f, read, bound)
            total += read
        totals.append(total)
    ratio = totals[1] / totals[0]
    assert 3.5 <= ratio <= 4.5, f"4x leaves read {ratio:.2f}x the entries ({totals})"
    # Seeded from the smaller side, a pass with one open node (AG, EG),
    # or with one node in b and no open node before it (EU, AU), reads
    # a few entries, not the tens of thousands that the other side would.
    few = lm({"h": ["h"], leaves[1]: ["p"], leaves[0]: ["q"]}, props=("h", "p", "q"))
    for f in (Temporal("AG", Atom("p")), Temporal("EG", Atom("p")),
              Until("EU", Not(Atom("h")), Atom("q")), Until("AU", Not(Atom("h")), Atom("q"))):
        succ.read = pred.read = 0
        model_check(net, few, f)
        assert succ.read + pred.read <= 2, (f, succ.read + pred.read)


def test_until_needs_left_to_hold_up_to_right():
    net = make_network([("a", "b"), ("b", "c")])
    labels = lm({"a": ["p"], "c": ["q"]})
    f = Until("EU", Atom("p"), Atom("q"))
    # b breaks p before q is reached
    assert model_check(net, labels, f) == {"c"}
    labels2 = lm({"a": ["p"], "b": ["p"], "c": ["q"]})
    assert model_check(net, labels2, f) == {"a", "b", "c"}


# -- inverse operators -----------------------------------------------------------


def test_inverse_runs_on_transposed_relation():
    net = make_network([("a", "b")])
    labels = lm({"a": ["p"]})
    assert model_check(net, labels, Temporal("IEX", Atom("p"))) == {"b"}
    assert model_check(net, labels, Temporal("EX", Atom("p"))) == frozenset()
    assert model_check(net, labels, Temporal("IEF", Atom("p"))) == {"a", "b"}


def _flip(f):
    """Toggle the inverse marker on every temporal operator."""
    if isinstance(f, (Bool, Atom)):
        return f
    if isinstance(f, Not):
        return Not(_flip(f.operand))
    if isinstance(f, And):
        return And(_flip(f.left), _flip(f.right))
    if isinstance(f, Or):
        return Or(_flip(f.left), _flip(f.right))
    op = f.op[1:] if f.op.startswith("I") else "I" + f.op
    if isinstance(f, Temporal):
        return Temporal(op, _flip(f.operand))
    return Until(op, _flip(f.left), _flip(f.right))


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_flipping_every_operator_matches_transpose(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_n=7)
    labels = lm(random_labels(rng, net))
    f = random_formula(rng, depth=3)
    assert model_check(net, labels, f) == model_check(net.transpose(), labels, _flip(f))


def test_undirected_inverse_coincides():
    net = make_network([("a", "b"), ("b", "c")], directed=False)
    labels = lm({"c": ["p"]})
    for fwd, inv in (("EX", "IEX"), ("EF", "IEF"), ("AG", "IAG")):
        assert model_check(net, labels, Temporal(fwd, Atom("p"))) == model_check(
            net, labels, Temporal(inv, Atom("p"))
        )


# -- dualities --------------------------------------------------------------------


def _dual_pairs(f, g):
    return [
        (Temporal("AX", f), Not(Temporal("EX", Not(f)))),
        (Temporal("AG", f), Not(Temporal("EF", Not(f)))),
        (Temporal("AF", f), Not(Temporal("EG", Not(f)))),
        (
            Until("AU", f, g),
            And(
                Not(Until("EU", Not(g), And(Not(f), Not(g)))),
                Not(Temporal("EG", Not(g))),
            ),
        ),
        (Temporal("EF", f), Until("EU", TRUE, f)),
    ]


@given(st.integers(0, 10 ** 9))
@settings(max_examples=80, deadline=None)
def test_dualities_hold(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_n=7)
    labels = lm(random_labels(rng, net))
    f = random_formula(rng, depth=2)
    g = random_formula(rng, depth=2)
    for left, right in _dual_pairs(f, g):
        assert model_check(net, labels, left) == model_check(net, labels, right)


# -- agreement between the three routes --------------------------------------------


@given(st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_model_check_matches_oracle(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_n=6)
    assignments = random_labels(rng, net)
    labels = lm(assignments)
    f = random_formula(rng, depth=3)
    assert model_check(net, labels, f) == oracle_check(net, labels, f)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=100, deadline=None)
def test_model_check_matches_fixpoint_evaluator(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_n=7, directed=rng.random() < 0.8)
    assignments = random_labels(rng, net)
    labels = lm(assignments)
    f = random_formula(rng, depth=4)
    assert model_check(net, labels, f) == direct_check(net, f, assignments)


def _network_with_sinks_and_loops(rng, n, directed):
    """About two edges out of each node but the sinks (a fifth of the
    nodes, isolated when undirected), a self-loop on about a tenth."""
    keys = [f"v{i:03d}" for i in range(n)]
    sinks = set(rng.sample(keys, n // 5))
    edges = []
    for a in keys:
        if a in sinks:
            continue
        edges += [(a, b) for b in rng.sample(keys, min(n, 2)) if directed or b not in sinks]
        if rng.random() < 0.1:
            edges.append((a, a))
    return make_network(edges, directed=directed, keys=keys)


def _assert_one_universal_pass(monkeypatch, net, assignments, formulas):
    """Each formula agrees with direct_check, and its top operator, over
    operands without a fixpoint, runs exactly one pass, a universal one."""
    import netcheck.ctl as ctl

    calls = []
    real = ctl._Checker._until
    monkeypatch.setattr(ctl._Checker, "_until",
                        lambda *args: calls.append(args[-1]) or real(*args))
    labels = lm(assignments)
    for f in formulas:
        calls.clear()
        assert model_check(net, labels, f) == direct_check(net, f, assignments), f
        assert calls == [True], (f, calls)


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 130])
def test_model_check_matches_fixpoint_evaluator_at_word_edges(monkeypatch, n, directed):
    # Sizes on both sides of byte and machine-word edges, with the lowest
    # and the highest id each alone in a set.
    rng = random.Random(f"{n}/{directed}")
    net = _network_with_sinks_and_loops(rng, n, directed)
    keys = net.node_keys()
    assignments = {k: {"p"} if rng.random() < 0.5 else set() for k in keys}
    if keys:
        assignments[keys[0]].add("r")
        assignments[keys[-1]].add("q")
    labels = lm(assignments)
    operands = [Atom("p"), Not(Atom("q")), Or(Atom("r"), Temporal("EX", Atom("q"))), TRUE]
    formulas = [Temporal(op, x) for op in ALL_UNARY for x in operands]
    formulas += [Until(op, x, y) for op in ALL_UNTIL
                 for x, y in zip(operands, operands[1:] + [FALSE])]
    universal = [f for f in formulas if f.op in ("AF", "IAF", "AU", "IAU")]
    formulas += [random_formula(rng, depth=4) for _ in range(8)]
    for f in formulas:
        assert model_check(net, labels, f) == direct_check(net, f, assignments), f
    _assert_one_universal_pass(monkeypatch, net, assignments, universal)


def test_universal_until_runs_one_pass_on_hub(monkeypatch):
    net, labels, _ = _hub(40)
    assignments = {k: {p for p, ks in labels.sat.items() if k in ks} for k in net.node_keys()}
    formulas = [f for f, _, _ in _HUB_CASES if f.op in ("AF", "AU")]
    _assert_one_universal_pass(monkeypatch, net, assignments, formulas + list(map(_flip, formulas)))


def _sized_sets_labels(rng, keys):
    """Propositions z0, z1, zm and zn holding at 0, 1, n-1 and n nodes;
    the one node in z1 and the one node outside zm are drawn at random."""
    assignments = {k: {"zm", "zn"} for k in keys}
    if keys:
        assignments[rng.choice(keys)].add("z1")
        assignments[rng.choice(keys)].discard("zm")
    return assignments


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 130])
def test_fixpoints_from_both_sides_at_word_edges(monkeypatch, n, directed):
    # Operand sets of 0, 1, n-1 and n nodes make a pass seed from b in
    # some cases and from the open nodes in others, for both counts.
    import netcheck.ctl as ctl

    sides = set()
    real = ctl._Checker._until
    def spy(checker, a, b, succ, pred, degree, universal):
        rest = a & ~b
        if rest and b:
            sides.add((universal, rest.bit_count() < b.bit_count()))
        return real(checker, a, b, succ, pred, degree, universal)
    monkeypatch.setattr(ctl._Checker, "_until", spy)
    rng = random.Random(f"sides/{n}/{directed}")
    net = _network_with_sinks_and_loops(rng, n, directed)
    assignments = _sized_sets_labels(rng, net.node_keys())
    labels = lm(assignments, props=("z0", "z1", "zm", "zn"))
    sets = [Atom(z) for z in ("z0", "z1", "zm", "zn")]
    formulas = [Temporal(op, x) for op in ("EF", "AG", "EG", "AF", "IEF", "IAG", "IEG", "IAF")
                for x in sets]
    formulas += [Until(op, x, y) for op in ALL_UNTIL for x in sets for y in sets]
    for f in formulas:
        assert model_check(net, labels, f) == direct_check(net, f, assignments), f
    if n >= 7:
        assert sides == {(False, False), (False, True), (True, False), (True, True)}


def test_oracle_refuses_large_networks():
    net = make_network([], keys=[f"n{i:02d}" for i in range(13)])
    with pytest.raises(SizeExceededError):
        oracle_check(net, lm({}), TRUE)
    # 12 nodes is still allowed
    net12 = make_network([], keys=[f"n{i:02d}" for i in range(12)])
    assert oracle_check(net12, lm({}), TRUE) == frozenset(net12.node_keys())


def test_memoized_repeated_subformulas():
    net = make_network(AU_EDGES)
    labels = lm(AU_LABELS)
    sub = Temporal("EF", Atom("p"))
    f = And(sub, Or(sub, Not(sub)))
    assert model_check(net, labels, f) == model_check(net, labels, sub)


# -- witnesses -----------------------------------------------------------------------


def test_witness_ex():
    net = make_network([("a", "b")])
    labels = lm({"b": ["p"]})
    w = witness(net, labels, Temporal("EX", Atom("p")), "a")
    assert (w.kind, w.path, w.in_transpose) == ("path", ("a", "b"), False)


def test_witness_node_when_start_satisfies():
    net = make_network([("a", "b")])
    labels = lm({"a": ["p"]})
    w = witness(net, labels, Temporal("EF", Atom("p")), "a")
    assert (w.kind, w.path) == ("node", ("a",))


def test_witness_eu_chain():
    net = make_network([("a", "b"), ("b", "c")])
    labels = lm({"a": ["p"], "b": ["p"], "c": ["q"]})
    w = witness(net, labels, Until("EU", Atom("p"), Atom("q")), "a")
    assert w.path == ("a", "b", "c")
    assert w.kind == "path"


def test_witness_shortest_with_ascending_tie_break():
    net = make_network([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    labels = lm({"d": ["p"]})
    w = witness(net, labels, Temporal("EF", Atom("p")), "a")
    assert w.path == ("a", "b", "d")


def test_witness_eu_respects_left_region():
    # short route blocked: b lacks p, so the witness must detour via c, d
    net = make_network([("a", "b"), ("b", "e"), ("a", "c"), ("c", "d"), ("d", "e")])
    labels = lm({"a": ["p"], "c": ["p"], "d": ["p"], "e": ["q"]})
    w = witness(net, labels, Until("EU", Atom("p"), Atom("q")), "a")
    assert w.path == ("a", "c", "d", "e")


def test_witness_inverse_sets_transpose_flag():
    net = make_network([("a", "b"), ("b", "c")])
    labels = lm({"a": ["p"]})
    w = witness(net, labels, Temporal("IEF", Atom("p")), "c")
    assert w.in_transpose
    assert w.path == ("c", "b", "a")


def test_witness_not_satisfied_raises():
    net = make_network([("a", "b")])
    labels = lm({})
    with pytest.raises(NotSatisfiedError):
        witness(net, labels, Temporal("EF", Atom("p")), "a")


def test_witness_unknown_start_raises():
    net = make_network([("a", "b")])
    with pytest.raises(UnknownKeyError):
        witness(net, lm({}), TRUE, "zz")


def test_witness_unavailable_for_universal_and_boolean_forms():
    net = make_network([("a", "a")])
    labels = lm({"a": ["p"]})
    for f in (Temporal("AG", Atom("p")), Temporal("EG", Atom("p")), Atom("p"), TRUE):
        w = witness(net, labels, f, "a")
        assert w.kind == "none-available"


def _distance(step, start, allowed, targets):
    """Fewest edges from start to a target along nodes that satisfy
    ``allowed`` (the target itself excepted), by layers; None if none."""
    layer, seen, d = [start], {start}, 0
    while layer:
        if any(targets(k) for k in layer):
            return d
        layer = list(dict.fromkeys(
            w for u in layer if allowed(u) for w in step(u) if w not in seen
        ))
        seen.update(layer)
        d += 1
    return None


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_witness_paths_are_genuine(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_n=7)
    assignments = random_labels(rng, net)
    labels = lm(assignments)
    op = rng.choice(["EX", "EF", "EU", "IEX", "IEF", "IEU"])
    # Operands may be compound, whose sets the witness decodes from the
    # checker's bitsets; the path is judged against each operand's own set.
    operands = [Atom("p"), Atom("q"), Not(Atom("p")), Temporal("EX", Atom("q")),
                Or(Atom("p"), Temporal("AX", Atom("q"))), And(Atom("q"), Not(Atom("p")))]
    p, q = rng.choice(operands), rng.choice(operands)
    p_set, q_set = model_check(net, labels, p), model_check(net, labels, q)
    if op.endswith("U"):
        f = Until(op, p, q)
    else:
        f = Temporal(op, q)
    sat = model_check(net, labels, f)
    for start in net.node_keys():
        if start not in sat:
            with pytest.raises(NotSatisfiedError):
                witness(net, labels, f, start)
            continue
        w = witness(net, labels, f, start)
        assert w.path[0] == start
        step = net.predecessors if w.in_transpose else net.successors
        for u, v in zip(w.path, w.path[1:]):
            assert v in step(u)
        if op.endswith("X"):
            assert len(w.path) == 2
            assert w.path[1] in q_set
        elif op.endswith("F"):
            assert w.path[-1] in q_set
        else:
            assert w.path[-1] in q_set
            assert all(k in p_set for k in w.path[:-1])
        # No shorter path demonstrates the formula.
        if not op.endswith("X"):
            left = p_set.__contains__ if op.endswith("U") else (lambda k: True)
            shortest = _distance(step, start, left, q_set.__contains__)
            assert len(w.path) - 1 == shortest
            assert (w.kind == "node") == (shortest == 0)

    # An EU start in neither operand's set does not satisfy it.
    net = make_network([("a", "b")])
    labels = lm({"b": ["p", "q"]})
    for op in ("EU", "IEU"):
        with pytest.raises(NotSatisfiedError):
            witness(net, labels, Until(op, Atom("p"), Atom("q")), "a")
    # With both operands unregistered, the left one is reported, as
    # model_check reports it.
    f = Until("EU", Atom("zl"), Atom("zr"))
    with pytest.raises(UnboundAtomError, match="zl") as checked:
        model_check(net, labels, f)
    with pytest.raises(UnboundAtomError, match="zl") as found:
        witness(net, labels, f, "a")
    assert str(found.value) == str(checked.value)


def test_witness_computes_no_fixpoint(monkeypatch):
    # A witness over atom operands needs only the atoms' sets: the search
    # from the start node decides, so neither fixpoint runs.
    import netcheck.ctl as ctl

    calls = []
    real = ctl._Checker._until
    monkeypatch.setattr(ctl._Checker, "_until",
                        lambda *args: calls.append("_until") or real(*args))
    net = make_network(AU_EDGES)
    labels = lm(AU_LABELS)
    formulas = [Temporal(op, Atom("q")) for op in ("EX", "EF", "IEX", "IEF")]
    formulas += [Until(op, Atom("p"), Atom("q")) for op in ("EU", "IEU")]
    found = 0
    for f in formulas:
        for start in net.node_keys():
            try:
                found += witness(net, labels, f, start).kind != "none-available"
            except NotSatisfiedError:
                pass
    assert found > 0 and calls == []
    model_check(net, labels, formulas[1])
    assert calls == ["_until"]


def test_witness_over_atoms_converts_no_whole_network_set(monkeypatch):
    # A witness over atom operands reads the atoms' key sets as the label
    # map holds them: no set is encoded to bits or decoded back to keys,
    # and no neighbours are decoded to keys.
    import netcheck.ctl as ctl

    calls = []
    for name in ("_to_bits", "_to_flags"):
        real = getattr(ctl, name)
        monkeypatch.setattr(ctl, name,
                            lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    from netcheck.network import Network

    real_neighbours = Network._neighbours  # successors() and predecessors() decode here
    monkeypatch.setattr(Network, "_neighbours",
                        lambda *args: calls.append("_neighbours") or real_neighbours(*args))
    net = make_network(AU_EDGES)
    labels = lm(AU_LABELS)
    formulas = [Temporal(op, Atom("q")) for op in ("EX", "EF", "IEX", "IEF")]
    formulas += [Until(op, Atom("p"), Atom("q")) for op in ("EU", "IEU")]
    found = 0
    for f in formulas:
        for start in net.node_keys():
            try:
                found += witness(net, labels, f, start).kind != "none-available"
            except NotSatisfiedError:
                pass
    assert found > 0 and calls == []
    model_check(net, labels, formulas[1])
    assert "_to_bits" in calls and "_to_flags" in calls
