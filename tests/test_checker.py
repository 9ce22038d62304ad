"""Combined-language pipeline: parse, label, substitute, check."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import netcheck
from netcheck.checker import (
    MAX_FORMULA_DEPTH,
    FilterRegistry,
    check,
    collect_filters,
    label_nodes,
    parse_formula,
    replace_filters,
)
from netcheck.ctl import And, Atom, Bool, Not, Or, Temporal, Until, model_check
from netcheck.errors import FilterTypeError, MissingFilterError, ParseError
from netcheck import xpath as xp
from netcheck.xpath import parse_filter

from tests.direct_eval import direct_check
from tests.gens import make_network, random_attributed_network, random_xpl_text

EXAMPLE_FORMULAS = [
    'EX [title = "Google"]',
    'IEX [(first = "Moshe") and (last = "Vardi")]',
    'AX [contains(keywords, "network analysis")]',
    'EX [name = "ATP"] | EX EX [name = "ATP"] | EX EX EX [name = "ATP"]',
    'EF [(first = "Gaetan") and (last = "Dugas")]',
    'EU([count(paper) > 100], [(first = "Paul") and (last = "Erdos")])',
]


# -- parsing ---------------------------------------------------------------


@pytest.mark.parametrize("text", EXAMPLE_FORMULAS)
def test_example_formulas_parse(text):
    parse_formula(text)


def test_parse_shapes():
    f = parse_formula('EX [a]')
    assert isinstance(f, Temporal) and f.op == "EX"
    assert f.operand == Atom(parse_filter("a"))

    f = parse_formula('EU([a], [b])')
    assert isinstance(f, Until) and f.op == "EU"

    f = parse_formula("!true & false | true")
    assert f == Or(And(Not(Bool(True)), Bool(False)), Bool(True))

    f = parse_formula("AG (EF [x])")
    assert f == Temporal("AG", Temporal("EF", Atom(parse_filter("x"))))

    # quantifier juxtaposition nests to the right
    f = parse_formula("EX EX [x]")
    assert f == Temporal("EX", Temporal("EX", Atom(parse_filter("x"))))


def test_parse_precedence_and_binds_tighter_than_or():
    a, b, c = (Atom(parse_filter(n)) for n in ("a", "b", "c"))
    assert parse_formula("[a] | [b] & [c]") == Or(a, And(b, c))
    assert parse_formula("([a] | [b]) & [c]") == And(Or(a, b), c)


def test_unary_scope_is_tightest_operand():
    a, b = Atom(parse_filter("a")), Atom(parse_filter("b"))
    assert parse_formula("EF [a] & [b]") == And(Temporal("EF", a), b)
    assert parse_formula("! [a] | [b]") == Or(Not(a), b)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "EX",
        "EX [",
        "[a] [b]",
        "EU([a])",
        "EU [a], [b]",
        "maybe [a]",
        "[a] &",
        "([a]",
        "EX []",
        "[a] extra",
        "AND",
    ],
)
def test_malformed_formulas_rejected(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_filter_error_position_is_global():
    # offset points into the whole formula string, not the bracket
    with pytest.raises(ParseError) as exc:
        parse_formula('EX [title = ]')
    assert exc.value.column >= 5
    assert "in filter" in exc.value.message


# (parser, text, message, column). A filter inside a formula is parsed
# in place, so every column counts from the start of the whole formula.
PARSE_ERRORS = [
    (parse_formula, "EX [title = ]", "in filter: expected a node test", 13),
    (parse_formula, "[  ]", "in filter: empty filter", 2),
    (parse_formula, "EX []", "in filter: empty filter", 5),
    (parse_formula, 'EF [book[@lang = "en"]/title', "unterminated filter bracket", 4),
    (parse_formula, "EF [a = 'x'] & [b", "unterminated filter bracket", 16),
    (parse_formula, '["]"', "unterminated filter bracket", 1),
    (parse_formula, "[a]]", "unexpected character ']'", 4),
    (parse_formula, "EU([a], [b = 1 = 2])", "in filter: unexpected trailing input '='", 16),
    (parse_formula, "[a[b]c]", "in filter: unexpected trailing input 'c'", 6),
    (parse_formula, '[a] [b/@c = "1"]', "unexpected trailing input '[b/@c = \"1\"]'", 5),
    (parse_formula, "[a][b]", "unexpected trailing input '[b]'", 4),
    (parse_formula, "   ", "empty formula", 1),
    # two faults: the lexer meets the bad token before the missing ']'
    (parse_formula, '[a = "x', "in filter: unterminated string literal", 6),
    (parse_formula, "[a # b", "in filter: unexpected character '#'", 4),
    (parse_formula, "[a = 'x]", "in filter: unterminated string literal", 6),
    # a digit that isdigit() accepts but a decimal number cannot hold
    (parse_formula, "[a = \u00b2]", "in filter: unexpected character '\u00b2'", 6),
    (parse_filter, "]", "expected a node test", 1),
    (parse_filter, "a[b]]", "unexpected trailing input ']'", 5),
    (parse_filter, "a] #", "unexpected character '#'", 4),
    (parse_filter, "", "empty filter", 1),
    (parse_filter, "\u00b2", "unexpected character '\u00b2'", 1),
    # lexer edges: where a keyword, a symbol or a token ends
    (parse_formula, "EX_a [b]", "unexpected character '_'", 3),
    (parse_formula, "[a] != [b]", "unexpected character '='", 6),
    (parse_formula, "[a] & EXX [b]", "unknown keyword 'EXX'", 7),
    (parse_formula, "[a]\x0b", "unexpected character '\\x0b'", 4),
    (parse_filter, "contains(a, b)", "expected a string literal", 13),
    (parse_filter, "@1", "expected attribute name after '@'", 2),
    (parse_filter, "a | b", "unexpected character '|'", 3),
    (parse_filter, "a:b", "unexpected character ':'", 2),
    (parse_filter, "a = 1.", "unexpected trailing input '.'", 6),
]


@pytest.mark.parametrize("parse, text, message, column", PARSE_ERRORS)
def test_parse_error_message_and_column(parse, text, message, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.column) == (message, column)


def test_unicode_decimal_digit_is_a_number():
    assert parse_filter("a = \u0663") == parse_filter("a = 3")


def test_nested_brackets_inside_filter():
    f = parse_formula('EF [book[@lang = "en"]/title]')
    assert isinstance(f.operand, Atom)


def test_quoted_bracket_inside_filter():
    f = parse_formula('EX [title = "a]b"]')
    assert isinstance(f.operand, Atom)


# Formulas nested ``depth`` levels deep, each with the 1-based column of
# the token that opens or continues its deepest level.
FORMULA_NESTINGS = {
    "prefix": lambda d: ("EX " * (d - 1) + "!" + "[a]", 3 * (d - 1) + 1),
    "parentheses": lambda d: ("(" * d + "[a]" + ")" * d, d),
    "until": lambda d: ("EU(" * d + "[a]" + ", [b])" * d, 3 * d - 2),
    "or chain": lambda d: (" | ".join(["[a]"] * (d + 1)), 6 * d - 1),
    "and chain": lambda d: (" & ".join(f"[a = {i:03d}]" for i in range(d + 1)), 12 * d - 1),
}


@pytest.mark.parametrize("shape", sorted(FORMULA_NESTINGS))
def test_formula_depth_cap(shape):
    text, _ = FORMULA_NESTINGS[shape](MAX_FORMULA_DEPTH)
    parse_formula(text)
    text, col = FORMULA_NESTINGS[shape](MAX_FORMULA_DEPTH + 1)
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert exc.value.message == f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
    assert exc.value.column == col


def test_formula_depth_reported_before_missing_parenthesis():
    # as for filters: an unclosed parenthesis around a | chain one
    # operand too long is too deep before it is unclosed
    text = "(" + " | ".join(["[a]"] * (MAX_FORMULA_DEPTH + 1))
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert exc.value.message == f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
    assert exc.value.column == 1


def test_formula_depth_counts_chains_under_nesting():
    # a chain inside parentheses inside a chain: the tree is as deep as
    # the two chains and the parenthesis together
    half = MAX_FORMULA_DEPTH // 2
    inner = " | ".join(["[a]"] * (half + 1))
    parse_formula("(" + inner + ")" + " | [b]" * (MAX_FORMULA_DEPTH - half - 1))
    with pytest.raises(ParseError):
        parse_formula("(" + inner + ")" + " | [b]" * (MAX_FORMULA_DEPTH - half))


# -- registry and staging ----------------------------------------------------


def test_collect_filters_first_occurrence_distinct():
    f = parse_formula('EU([a], [b]) & EX [a] | ![c]')
    texts = collect_filters(f)
    assert texts == [parse_filter("a"), parse_filter("b"), parse_filter("c")]


def test_registry_assigns_stable_ids():
    reg = FilterRegistry()
    fa, fb = parse_filter("a"), parse_filter("b")
    assert reg.register(fa) == "p1"
    assert reg.register(fb) == "p2"
    assert reg.register(fa) == "p1"
    assert reg.prop_for(fa) == "p1"
    assert reg.filter_for("p2") == fb
    assert len(reg) == 2
    with pytest.raises(MissingFilterError):
        reg.prop_for(parse_filter("zz"))
    # a hand-built filter that no text spells is named by its repr
    with pytest.raises(MissingFilterError, match=r"^filter Comparison\("):
        reg.prop_for(xp.Comparison(parse_filter("a and b"), "=", fa))
    with pytest.raises(MissingFilterError):
        reg.filter_for("p9")


def test_replace_filters_is_shape_preserving():
    f = parse_formula('EU([a], [b]) & !EX [a]')
    reg = FilterRegistry()
    for flt in collect_filters(f):
        reg.register(flt)
    g = replace_filters(f, reg)
    assert g == And(
        Until("EU", Atom("p1"), Atom("p2")),
        Not(Temporal("EX", Atom("p1"))),
    )


def test_label_nodes_evaluates_each_filter_everywhere():
    rng = random.Random(5)
    net = random_attributed_network(rng, max_n=6)
    f = parse_formula('EX [@num > 2] | [alpha]')
    labels, reg = label_nodes(net, f)
    assert labels.props == {"p1", "p2"}
    from netcheck.xpath import eval_filter

    for key in net.node_keys():
        for flt in collect_filters(f):
            prop = reg.prop_for(flt)
            assert labels.holds(prop, key) == eval_filter(flt, net.payload(key))


class CountedName(str):
    """Element name that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        self.hashes += 1
        return str.__hash__(self)


def test_long_filter_hashes_each_node_a_bounded_number_of_times():
    # [t0 or (t1 or ... t149)] nests 150 deep. collect_filters, the
    # registry, the network's label store and the replacement stage
    # each look the filter up; if every lookup rehashed the whole tree,
    # each name would be hashed at every lookup, nine times a check.
    # Hashed once per node, each name is hashed when its node first is,
    # and the second check on the same filter hashes nothing again.
    names = [CountedName(f"t{i}") for i in range(150)]
    tests = [xp.LocationPath((xp.Step(xp.Axis.CHILD, xp.NameTest(n)),)) for n in names]
    filter_expr = tests[-1]
    for test in reversed(tests[:-1]):
        filter_expr = xp.Or(test, filter_expr)
    net = make_network([("a", "b")], payload_xml={"a": '<node key="a"><t149/></node>'})
    formula = Or(Atom(filter_expr), Temporal("EX", Atom(filter_expr)))
    assert check(net, formula) == {"a"}
    assert check(net, formula) == {"a"}
    assert max(n.hashes for n in names) <= 2


def test_filter_type_error_names_filter_and_node():
    net = random_attributed_network(random.Random(1), max_n=3)
    f = parse_formula('EF [@color > 3]')
    with pytest.raises(FilterTypeError) as exc:
        check(net, f)
    msg = str(exc.value)
    assert "@color > 3" in msg
    assert "node" in msg


# -- end-to-end equivalence -----------------------------------------------------


def test_frozen_pipeline_example():
    # three-hop reachability of an ATP-named node on a 5-chain
    from netcheck.network import parse_network

    net = parse_network(
        "<network>"
        + "".join(f'<node key="m{i}"><name>{"ATP" if i == 5 else "X"}</name></node>' for i in range(1, 6))
        + "".join(f'<edge from="m{i}" to="m{i+1}"/>' for i in range(1, 5))
        + "</network>"
    )
    f = parse_formula(EXAMPLE_FORMULAS[3])
    assert check(net, f) == {"m2", "m3", "m4"}


@given(st.integers(0, 10 ** 9))
@settings(max_examples=120, deadline=None)
def test_pipeline_matches_inline_evaluation(seed):
    rng = random.Random(seed)
    net = random_attributed_network(rng, max_n=7, directed=rng.random() < 0.8)
    f = parse_formula(random_xpl_text(rng, depth=3))
    assert check(net, f) == direct_check(net, f)


def test_check_is_deterministic_across_runs():
    rng = random.Random(42)
    net = random_attributed_network(rng, max_n=8)
    f = parse_formula('EU([@num > 1], [alpha]) | AG [@color != "red"]')
    results = {check(net, f) for _ in range(5)}
    assert len(results) == 1


# -- the label store ------------------------------------------------------------


_BATCH = [
    'EX [item/@num > 2] | [item/alpha]',
    'EU([item/alpha], [item/@color = "red"])',
    'AG [item/@num > 2] & !EF [item/alpha]',
    'IEX [item/beta] | EX [item/@color = "red"]',
    'EF [item/beta] & [item/alpha]',
]


def _counting_compiler(monkeypatch) -> dict:
    """Wrap the compiler that labelling uses; count, per filter, how
    often it is compiled and how many payloads its compiled form runs on."""
    from netcheck import checker

    counts = {"compiled": {}, "runs": {}}
    compile_filter = checker._compile_filter

    def counted(filter_expr):
        counts["compiled"][filter_expr] = counts["compiled"].get(filter_expr, 0) + 1
        holds = compile_filter(filter_expr)

        def run(payload):
            counts["runs"][filter_expr] = counts["runs"].get(filter_expr, 0) + 1
            return holds(payload)

        return run

    monkeypatch.setattr(checker, "_compile_filter", counted)
    return counts


def _batch_network_text() -> str:
    return (
        '<network>'
        + ''.join(f'<node key="v{i}"><item num="{i % 5}" color="{("red", "blue")[i % 2]}">'
                  + ('<alpha>1</alpha>' if i % 3 else '<beta>2</beta>') + '</item></node>'
                  for i in range(9))
        + ''.join(f'<edge from="v{i}" to="v{(i * 4 + 1) % 9}"/>' for i in range(9))
        + '</network>'
    )


def test_batch_labels_each_distinct_filter_once_per_network(monkeypatch):
    from netcheck.network import parse_network

    formulas = [parse_formula(text) for text in _BATCH]
    distinct = {f for formula in formulas for f in collect_filters(formula)}
    counts = _counting_compiler(monkeypatch)
    nets = [parse_network(_batch_network_text()) for _ in range(2)]
    for net in nets:
        for _ in range(2):
            for formula in formulas:
                assert check(net, formula) == direct_check(net, formula)
    assert counts["compiled"] == {f: len(nets) for f in distinct}
    assert counts["runs"] == {f: sum(net.n for net in nets) for f in distinct}


def test_filter_type_error_is_raised_alike_and_never_stored():
    from netcheck.network import parse_network

    net = parse_network(
        '<network><node key="a"><x v="1"/></node><node key="b"><x v="q"/></node>'
        '<node key="c"><x v="r"/></node></network>'
    )
    both = parse_formula('[x/@v = "1"] | EX [x/@v > 0] | [x/@v < 9]')
    messages = []
    for formula in (both, parse_formula('[x/@v < 9]'), both):
        with pytest.raises(FilterTypeError) as exc:
            check(net, formula)
        messages.append(str(exc.value))
    # The first failure in (filter, key) order wins, on every call.
    assert messages[0] == messages[2]
    assert messages[0].startswith("filter 'x/@v > 0' at node 'b': ")
    assert messages[1].startswith("filter 'x/@v < 9' at node 'b': ")
    assert set(net._labels) == {parse_filter('x/@v = "1"')}


def test_networks_never_share_stored_labels(monkeypatch):
    from netcheck.network import Network, parse_network

    formula = parse_formula('EX [item/alpha] | [item/@num > 2]')
    first = parse_network(_batch_network_text())
    counts = _counting_compiler(monkeypatch)
    check(first, formula)
    others = [
        parse_network(_batch_network_text()),
        first.transpose(),
        Network(True, first.nodes, first.edges),
    ]
    for other in others:
        assert other._labels is not first._labels
        before = dict(counts["runs"])
        assert check(other, formula) == direct_check(other, formula)
        assert all(counts["runs"][f] == before[f] + other.n for f in before)
    # Each network labelled each filter once.
    assert counts["compiled"] == {f: 1 + len(others) for f in collect_filters(formula)}


def test_label_store_stays_within_its_bound():
    from netcheck.network import _STORED_BYTES_PER_NODE, parse_network

    net = parse_network(_batch_network_text())
    bound = _STORED_BYTES_PER_NODE * net.n
    formulas = [parse_formula(f'[item/@num != "{i}"] | EX [item/@num = "{i}"]') for i in range(100)]
    for formula in formulas:
        check(net, formula)
        # A label counts 64 bytes for its entry and the bytes of its bitset.
        held = sum(64 + -(-bits.bit_length() // 8) for bits in net._labels.values())
        assert held == net._labels_held <= bound
    # The earliest sets were dropped, the latest are kept, oldest first.
    assert parse_filter('item/@num != "0"') not in net._labels
    assert list(net._labels)[-2:] == collect_filters(formulas[-1])
    for formula in formulas:  # answers after eviction are unchanged
        assert check(net, formula) == direct_check(net, formula)
        assert net._labels_held <= bound


def test_label_store_counts_bitsets_against_its_bound(monkeypatch):
    # A bitset costs up to n/8 bytes whatever its key count: one key on
    # the highest id costs as much as every key. Filters that each hold
    # there alone fill the store; counted by their keys only, they would
    # hold n/8 bytes apiece for one key. The bound is lowered to 16 bytes
    # a node, so that a few hundred filters fill it.
    from netcheck import network
    from netcheck.network import parse_network

    monkeypatch.setattr(network, "_STORED_BYTES_PER_NODE", 16)
    n = 1100
    net = parse_network('<network>' + ''.join(
        f'<node key="v{i:04d}" last="{int(i == n - 1)}"/>' for i in range(n)) + '</network>')
    bound = 16 * n
    top = frozenset({net.node_keys()[-1]})
    filters = [parse_filter(f'@last = "1" and not(@x = "{i}")') for i in range(n // 4)]
    for f in filters:
        labels, _ = label_nodes(net, Atom(f))
        assert labels.sat == {"p1": top}
        held = sum(64 + -(-bits.bit_length() // 8) for bits in net._labels.values())
        assert held == net._labels_held <= bound
        # Each stored label is the bitset of the one key it holds.
        for bits in net._labels.values():
            assert bits == 1 << n - 1
    # Each label counts 64 + 138 bytes: the store keeps the latest bound // 202.
    assert list(net._labels) == filters[-(bound // 202):]
    assert sum(bits.bit_length() for bits in net._labels.values()) // 8 <= bound


def test_stored_and_encoded_atoms_check_alike():
    # An atom's bitset comes from the network's store for a label map
    # that label_nodes made, and is encoded from its key set for one
    # built by hand. Both routes give the same answers, also once the
    # store has dropped the labels that an older label map still holds.
    from netcheck.ctl import LabelMap
    from netcheck.network import Network

    rng = random.Random("atom-routes")
    for trial in range(40):
        net = random_attributed_network(rng, max_n=20, directed=trial % 3 != 0)
        formula = parse_formula(random_xpl_text(rng, depth=3))
        labels, registry = label_nodes(net, formula)
        propositional = replace_filters(formula, registry)
        by_key = {k: {p for p, keys in labels.sat.items() if k in keys} for k in net.node_keys()}
        built = LabelMap.build(by_key, props=registry.props())
        assert built == labels
        expected = model_check(net, built, propositional)
        assert model_check(net, labels, propositional) == expected
        # A set swapped into the map after labelling is encoded afresh.
        swapped, _ = label_nodes(net, formula)
        for prop in swapped.sat:
            swapped.sat[prop] = frozenset(net.node_keys()[::2])
            assert (model_check(net, swapped, propositional)
                    == model_check(net, LabelMap(dict(swapped.sat), net._key_set), propositional))
        # Fill the store with other labels until this formula's are gone.
        i = 0
        while any(f in net._labels for f in registry.filters()):
            label_nodes(net, Atom(parse_filter(f'@color = "c{i}"')))
            i += 1
        assert model_check(net, labels, propositional) == expected
        again, registry = label_nodes(net, formula)
        assert model_check(net, again, replace_filters(formula, registry)) == expected
        # Labels made on a network without the first key number their ids
        # one lower; on the whole network their key sets are encoded.
        first, *rest = net.node_keys()
        part = Network(net.directed, {k: net.nodes[k] for k in rest},
                       [e for e in net.edges if first not in (e.src, e.dst)])
        labels, registry = label_nodes(part, formula)
        propositional = replace_filters(formula, registry)
        by_key = {k: {p for p, keys in labels.sat.items() if k in keys} for k in rest}
        assert (model_check(net, labels, propositional)
                == model_check(net, LabelMap.build(by_key, props=registry.props()), propositional))


class _CountingIndex(dict):
    """A key -> id map that counts the entries read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.reads += 1
        return dict.get(self, key, default)


def test_checks_read_atom_bitsets_without_the_key_index():
    # The count twin of the stored bitsets: a check after labelling reads
    # no key -> id entry, on the second call as on the first. Encoding a
    # label map built by hand reads one entry per key, which shows that
    # the counter sees the reads.
    from netcheck.ctl import LabelMap

    n = 3000
    net = make_network([(f"v{i:04d}", f"v{i + 1:04d}") for i in range(n - 1)],
                       payload_xml={f"v{i:04d}": f'<node p="{i % 2}"/>' for i in range(n)})
    formula = parse_formula('EF [@p = "1"] | AF [@p = "0"] | EG [@p = "0"]')
    net._index = index = _CountingIndex(net._index)
    first = check(net, formula)
    assert check(net, formula) == first == direct_check(net, formula)
    assert index.reads == 0
    labels, registry = label_nodes(net, formula)
    by_hand = LabelMap(dict(labels.sat), labels.keys)
    assert model_check(net, by_hand, replace_filters(formula, registry)) == first
    assert index.reads == sum(map(len, labels.sat.values())) == n


def test_non_filter_node_in_an_atom_raises_value_error():
    from netcheck.network import parse_network

    net = parse_network('<network><node key="a"><a/><b/></node></network>')
    formula = Atom(And(Atom(parse_filter("a")), parse_filter("b")))
    with pytest.raises(ValueError, match=r"^Atom node is not a filter: "):
        check(net, formula)
    assert not net._labels


def test_references_read_the_edge_records_not_the_id_adjacency():
    # Both references build their maps from the edge records, so a fault
    # in the id adjacency that the network builds, and the checker reads,
    # shows as a disagreement. Here the edge b -> c is dropped from that
    # adjacency alone.
    from netcheck.ctl import oracle_check

    net = make_network([("a", "b"), ("b", "c"), ("c", "d")],
                       payload_xml={"d": '<node key="d" v="3"/>'})
    formula = parse_formula("EF [@v = 3]")
    labels, registry = label_nodes(net, formula)
    propositional = replace_filters(formula, registry)
    b, c = net._index["b"], net._index["c"]
    net._succ = tuple(() if v == b else ids for v, ids in enumerate(net._succ))
    net._pred = tuple(() if v == c else ids for v, ids in enumerate(net._pred))
    assert model_check(net, labels, propositional) == {"c", "d"}
    assert oracle_check(net, labels, propositional) == {"a", "b", "c", "d"}
    assert direct_check(net, formula) == {"a", "b", "c", "d"}


def test_pickled_formulas_and_filters_hash_afresh():
    # String hashes differ between processes, so a hash kept on a node
    # must not travel in its pickled state: under another hash seed the
    # unpickled node hashes as a fresh parse does, and is found in a dict.
    formula_text, filter_text = 'EF [(first = "Paul") and (last = "Erdos")]', 'a/@b = "c"'
    formula, filter_expr = parse_formula(formula_text), parse_filter(filter_text)
    hash(formula), hash(filter_expr)  # each keeps a hash, which pickling must leave out
    script = (
        "import pickle, sys\n"
        "from netcheck.checker import parse_formula\n"
        "from netcheck.xpath import parse_filter\n"
        "nodes = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = parse_formula(sys.argv[1]), parse_filter(sys.argv[2])\n"
        "for node, new in zip(nodes, fresh):\n"
        "    assert hash(node) == hash(new) and {new: 1}[node] == 1\n"
    )
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script, formula_text, filter_text],
            input=pickle.dumps((formula, filter_expr)), capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        assert proc.returncode == 0, proc.stderr.decode()
    # Filters and formulas share one set of connectives.
    for name in ("And", "Or", "Not"):
        assert getattr(xp, name) is getattr(netcheck, name)
    a, b, c = map(parse_filter, "abc")
    assert parse_filter("a and not(b or c)") == And(a, Not(Or(b, c)))
    assert parse_formula("[a] & !([b] | [c])") == And(Atom(a), Not(Or(Atom(b), Atom(c))))


def test_every_tree_node_hashes_as_its_field_tuple():
    # The kept hash is the one the dataclass generates from the fields;
    # a decorator that kept some other hash (say, object identity, were
    # the two decorators swapped) fails here.
    from dataclasses import fields, is_dataclass

    from netcheck import ctl
    from netcheck.ctl import witness
    from netcheck.network import parse_network

    formula = parse_formula(
        'true & !false & (EX [a/* and not(text() = "x")] | EU([count(.//b) > 1.5],'
        ' [contains(k, "y") or ../@c = 2])) & AG [e]'
    )
    net = parse_network('<network><node key="u"><e/></node><node key="v"/>'
                        '<edge from="u" to="v"/></network>')
    labels, registry = label_nodes(net, parse_formula("[e]"))
    found = witness(net, labels, replace_filters(parse_formula("EF [e]"), registry), "u")
    seen = set()

    def walk(node):
        if isinstance(node, tuple):
            for item in node:
                walk(item)
        elif is_dataclass(node):
            seen.add(type(node))
            values = tuple(getattr(node, f.name) for f in fields(node))
            assert hash(node) == hash(values), node
            for value in values:
                walk(value)

    walk(formula)
    for filter_expr in collect_filters(formula):
        walk(filter_expr)
    walk(found)
    tree_nodes = {cls for module in (xp, ctl) for cls in vars(module).values()
                  if isinstance(cls, type) and "_hash" in vars(cls)}
    assert seen == tree_nodes, tree_nodes - seen


def test_labels_and_checker_share_the_network_key_set():
    from netcheck.ctl import LabelMap, _Checker, witness
    from netcheck.errors import UnknownKeyError
    from netcheck.network import parse_network

    net = parse_network(_batch_network_text())
    labels, registry = label_nodes(net, parse_formula('[item] | [item/alpha]'))
    assert labels.keys is net._key_set
    # Every checker reads the one id adjacency the network built.
    for checker in (_Checker(net, labels, {}), _Checker(net, labels, {})):
        assert checker._relation("EX")[1] is net._succ
        assert checker._relation("IEX")[1] is net._pred
    # A filter that holds at every node labels every key, and its stored
    # bitset has every id's bit.
    assert labels.sat[registry.prop_for(parse_filter("item"))] == net._key_set
    assert net._labels[parse_filter("item")] == (1 << net.n) - 1
    # A label map built by the caller is still checked against the network.
    stray = LabelMap.build({"v1": {"p"}, "nowhere": {"p"}}, props={"p"})
    with pytest.raises(UnknownKeyError):
        model_check(net, stray, Atom("p"))
    with pytest.raises(UnknownKeyError):
        witness(net, stray, Temporal("EX", Atom("p")), "v1")


def test_check_builds_no_key_set(monkeypatch):
    # A check labels into id bitsets and starts its atoms from them: on a
    # fresh network it stores only ints, and no key set is decoded while
    # it checks. The checker it builds has no label map to read one from.
    from netcheck import ctl
    from netcheck.network import parse_network

    seen = []
    real = ctl._Checker.__init__

    def spy(self, net, labels, memo):
        seen.append((labels, len(net._key_sets)))
        real(self, net, labels, memo)

    monkeypatch.setattr(ctl._Checker, "__init__", spy)
    net = parse_network(_batch_network_text())
    formula = parse_formula('EU([item/alpha], [item/@num > 2]) | AX [item/beta]')
    assert check(net, formula) == direct_check(net, formula)
    assert seen == [(None, 0)]
    assert not net._key_sets
    assert len(net._labels) == 3
    assert all(type(bits) is int for bits in net._labels.values())


def test_label_maps_share_decoded_key_sets_while_held():
    # label_nodes decodes each filter's key set from its stored bitset
    # once while a caller holds it: later calls, under any proposition
    # id, return the same set. Once every map is dropped, none is kept.
    import gc

    from netcheck.network import parse_network

    net = parse_network(_batch_network_text())
    formula = parse_formula('[item/alpha] | EX [item/@num > 2]')
    first, registry = label_nodes(net, formula)
    second, _ = label_nodes(net, formula)
    assert first.sat.keys() == second.sat.keys() == {"p1", "p2"}
    assert all(second.sat[p] is first.sat[p] for p in first.sat)
    alone, _ = label_nodes(net, parse_formula('[item/@num > 2]'))
    assert alone.sat["p1"] is first.sat[registry.prop_for(parse_filter("item/@num > 2"))]
    assert len(net._key_sets) == 2
    expected = dict(first.sat)
    del first, second, alone
    assert len(net._key_sets) == 2  # ``expected`` holds the sets still
    del expected
    gc.collect()
    assert not net._key_sets
    again, _ = label_nodes(net, formula)
    assert again.sat == {"p1": {k for k in net.node_keys() if int(k[1:]) % 3},
                         "p2": {f"v{i}" for i in range(9) if i % 5 > 2}}


def test_swapped_label_set_naming_an_unknown_key_is_refused():
    # _check_labels passes a label_nodes map that still holds the sets the
    # network decoded for it without reading them; a set swapped in
    # afterwards is read, and one that names an unknown key is refused,
    # by model_check and by witness alike, not reported as a bare
    # KeyError or as a witness that does not exist.
    from netcheck.ctl import witness
    from netcheck.errors import UnknownKeyError
    from netcheck.network import parse_network

    net = parse_network(_batch_network_text())
    formula = parse_formula('EF [item/alpha] & [item/@num > 2]')
    labels, registry = label_nodes(net, formula)
    propositional = replace_filters(formula, registry)
    labels.sat["p2"] = frozenset({"v1", "zz"})
    with pytest.raises(UnknownKeyError, match=r"not in the network: \['zz'\]$"):
        model_check(net, labels, propositional)

    reach = parse_formula('EF [item/@num > 2]')
    labels, registry = label_nodes(net, reach)
    propositional = replace_filters(reach, registry)
    assert witness(net, labels, propositional, "v0").kind in ("path", "node")
    labels.sat["p1"] = frozenset({"zz"})
    with pytest.raises(UnknownKeyError, match=r"not in the network: \['zz'\]$"):
        witness(net, labels, propositional, "v0")
    # A set equal to the decoded one, though not that set, passes.
    labels.sat["p1"] = frozenset(sorted(label_nodes(net, reach)[0].sat["p1"]))
    assert witness(net, labels, propositional, "v0").kind in ("path", "node")
