"""Command-line behaviour: output shapes, exit codes, determinism."""

import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from netcheck.checker import MAX_FORMULA_DEPTH
from netcheck.cli import main
from netcheck.network import Network
from netcheck.xpath import MAX_FILTER_DEPTH

WEB = "fixtures/web.xml"
COLLAB = "fixtures/collab.xml"
KONIGSBERG = "fixtures/konigsberg.xml"
K3 = "fixtures/k3.xml"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    # The child imports the package from this checkout, installed or not.
    return subprocess.run(
        [sys.executable, "-m", "netcheck", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )


# -- check ---------------------------------------------------------------------


def test_check_lines(capsys):
    code, out, err = run_main(
        capsys, "check", "--network", WEB, "--formula", 'EX [title = "Google"]'
    )
    assert code == 0
    assert out == "w1\nw3\n"
    assert err == ""


def test_check_json_is_key_array(capsys):
    code, out, _ = run_main(
        capsys,
        "check", "--network", WEB, "--formula", 'EX [title = "Google"]',
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == ["w1", "w3"]


def test_check_empty_result_is_success(capsys):
    code, out, _ = run_main(
        capsys, "check", "--network", WEB, "--formula", 'EX [title = "Missing"]'
    )
    assert code == 0
    assert out == ""


def test_check_formula_file(capsys, tmp_path):
    p = tmp_path / "f.xpl"
    p.write_text('EX [title = "Google"]', encoding="utf-8")
    code, out, _ = run_main(
        capsys, "check", "--network", WEB, "--formula-file", str(p)
    )
    assert code == 0
    assert out == "w1\nw3\n"


def test_formula_file_not_utf8_is_exit_2(capsys, tmp_path):
    p = tmp_path / "f.xpl"
    p.write_bytes(b"\xff\xfeE\x00X\x00")
    code, out, err = run_main(
        capsys, "check", "--network", WEB, "--formula-file", str(p)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("netcheck: cannot read formula file: ")
    assert err.count("\n") == 1


# -- witness ---------------------------------------------------------------------


def test_witness_path_line(capsys):
    code, out, _ = run_main(
        capsys,
        "check", "--network", COLLAB,
        "--formula", 'EU([count(paper) > 100], [(first = "Paul") and (last = "Erdos")])',
        "--witness-for", "e3",
    )
    assert code == 0
    assert out.endswith("witness e3: e3 -> e2 -> e1\n")


def test_witness_json(capsys):
    code, out, _ = run_main(
        capsys,
        "check", "--network", WEB, "--formula", 'EX [title = "Google"]',
        "--witness-for", "w3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["satisfying"] == ["w1", "w3"]
    assert data["witness"] == {
        "for": "w3",
        "status": "path",
        "path": ["w3", "w2"],
        "transpose": False,
    }


def test_witness_not_satisfied_is_reported(capsys):
    code, out, _ = run_main(
        capsys,
        "check", "--network", WEB, "--formula", 'EX [title = "Google"]',
        "--witness-for", "w2",
    )
    assert code == 0
    assert "witness w2: formula does not hold" in out


def test_witness_unknown_node(capsys):
    code, out, _ = run_main(
        capsys,
        "check", "--network", WEB, "--formula", "true", "--witness-for", "zz",
    )
    assert code == 0
    assert "unknown node" in out


def test_witness_unavailable_operator(capsys):
    code, out, _ = run_main(
        capsys,
        "check", "--network", WEB, "--formula", 'AG true', "--witness-for", "w1",
    )
    assert code == 0
    assert "none available" in out


def test_witness_transposed_flagged(capsys):
    code, out, _ = run_main(
        capsys,
        "check", "--network", "fixtures/scholars.xml",
        "--formula", 'IEF [(first = "Moshe") and (last = "Vardi")]',
        "--witness-for", "s3",
    )
    assert code == 0
    assert "(transposed edges)" in out


def test_witness_reads_the_sets_check_computed(monkeypatch, capsys):
    # The witness reads its operand sets from the checker that produced
    # the printed set, so the whole call builds one checker.
    import netcheck.ctl as ctl

    built = []
    real = ctl._Checker.__init__
    monkeypatch.setattr(ctl._Checker, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    for formula, key in [
        ('EU([count(paper) > 100], [(first = "Paul") and (last = "Erdos")])', "e3"),
        ('EX [title = "Google"]', "w2"),
        ("AG true", "zz"),
    ]:
        built.clear()
        network = COLLAB if key == "e3" else WEB
        code, out, _ = run_main(capsys, "check", "--network", network, "--formula", formula,
                                "--witness-for", key)
        assert code == 0 and f"witness {key}: " in out
        assert len(built) == 1


def test_check_and_query_build_no_propositions(monkeypatch, capsys):
    # check, netcheck check and netcheck query check the formula as
    # parsed: with the replacement stage and the registry made to fail,
    # each answers as before, the witness included.
    from netcheck import checker
    from netcheck.network import load_network

    text = 'EU([count(paper) > 100], [(first = "Paul") and (last = "Erdos")])'
    calls = [("check", "--network", COLLAB, "--formula", text, "--witness-for", "e3"),
             ("query", "--network", WEB, "--filter", 'title = "Google"')]

    def answers():
        return (checker.check(load_network(COLLAB), checker.parse_formula(text)),
                [run_main(capsys, *argv) for argv in calls])

    expected = answers()
    assert [code for code, _, _ in expected[1]] == [0, 0]
    assert "witness e3: e3 -> " in expected[1][0][1]

    def refuse(*args):
        raise AssertionError("a proposition id was made")

    monkeypatch.setattr(checker, "replace_filters", refuse)
    monkeypatch.setattr(checker.FilterRegistry, "register", refuse)
    assert answers() == expected


# -- query ----------------------------------------------------------------------


def test_query_lines(capsys):
    code, out, _ = run_main(
        capsys,
        "query", "--network", "fixtures/papers.xml",
        "--filter", 'contains(keywords, "network analysis")',
    )
    assert code == 0
    assert out == "p1\np2\np3\n"


def test_query_json(capsys):
    code, out, _ = run_main(
        capsys,
        "query", "--network", K3, "--filter", "true", "--format", "json",
    )
    # "true" is just a name test here: no <true> children anywhere
    assert code == 0
    assert json.loads(out) == []


# -- metrics --------------------------------------------------------------------


def test_metrics_k3(capsys):
    code, out, _ = run_main(capsys, "metrics", "--network", K3)
    assert code == 0
    assert "clustering_coefficient: 1.0" in out
    assert "diameter: 1" in out
    assert "eulerian_path: true" in out


def test_metrics_report_runs_one_geodesic_sweep(capsys, monkeypatch):
    import netcheck.cli as cli
    import netcheck.metrics as metrics

    # One counter behind both names, so a second sweep fails the test
    # whether the report calls it directly or through diameter() or
    # mean_geodesic().
    sweeps = []
    sweep = metrics._geodesics
    for module in (cli, metrics):
        monkeypatch.setattr(
            module, "_geodesics", lambda net: sweeps.append(net) or sweep(net)
        )
    builds = Counter()
    for name in ("simple_view", "component_ids"):
        build = getattr(Network, name).func
        counted = cached_property(
            lambda net, build=build, name=name: builds.update([name]) or build(net)
        )
        counted.__set_name__(Network, name)
        monkeypatch.setattr(Network, name, counted)
    code, out, _ = run_main(capsys, "metrics", "--network", K3)
    assert code == 0
    assert "diameter: 1" in out and "mean_geodesic: 1.0" in out
    assert len(sweeps) == 1
    assert builds == {"simple_view": 1, "component_ids": 1}


PINNED = json.loads(Path(__file__).with_name("metrics_pinned.json").read_text())


@pytest.mark.parametrize("fmt", ["lines", "json"])
@pytest.mark.parametrize("fixture", sorted(PINNED))
def test_metrics_output_pinned(capsys, fixture, fmt):
    code, out, _ = run_main(
        capsys, "metrics", "--network", f"fixtures/{fixture}", "--format", fmt
    )
    expected = PINNED[fixture][fmt]
    assert (code, out) == (expected["exit"], expected["stdout"])


# check (four formulas, and one with --witness-for) and query (five
# filters) on every fixture in both formats, captured before query
# was routed through check.
CHECK_AND_QUERY_PINNED = json.loads(
    Path(__file__).with_name("cli_pinned.json").read_text()
)


@pytest.mark.parametrize(
    "run", CHECK_AND_QUERY_PINNED, ids=lambda run: " ".join(run["argv"][2:])
)
def test_check_and_query_output_pinned(capsys, run):
    code, out, _ = run_main(capsys, *run["argv"])
    assert (code, out) == (run["exit"], run["stdout"])


def test_walkthrough_output_pinned():
    # The demo walks the public API; its output is deterministic.
    root = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "demos/walkthrough.py"], cwd=root, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == Path(__file__).with_name("walkthrough_pinned.txt").read_text()


def test_metrics_konigsberg_lines(capsys):
    code, out, _ = run_main(capsys, "metrics", "--network", KONIGSBERG)
    assert code == 0
    assert "degree_histogram: {3: 3, 5: 1}" in out
    assert "eulerian_path: false" in out
    assert "nodes: 4" in out
    assert "edges: 7" in out


def test_metrics_directed_json(capsys):
    code, out, _ = run_main(
        capsys, "metrics", "--network", WEB, "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["directed"] is True
    assert data["degree_histogram"] is None
    assert data["eulerian_path"] is None
    assert data["in_degree_histogram"] == {"0": 1, "1": 1, "2": 2}
    assert data["mean_geodesic"] == pytest.approx(7 / 6)


# -- exit codes -------------------------------------------------------------------


def test_formula_syntax_error_without_network_is_exit_1():
    proc = run_proc("check", "--formula", "EX [")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "column" in proc.stderr


def test_filter_syntax_error_is_exit_1(capsys):
    code, out, err = run_main(
        capsys, "query", "--network", K3, "--filter", "a ="
    )
    assert code == 1
    assert out == ""
    assert "filter" in err


@pytest.fixture
def loop_net(tmp_path):
    net = tmp_path / "loop.xml"
    net.write_text(
        '<network><node key="k1" a="1"/><edge from="k1" to="k1"/></network>',
        encoding="utf-8",
    )
    return str(net)


_F, _P = MAX_FORMULA_DEPTH, MAX_FILTER_DEPTH
# a filter at its own cap: nested predicates, three levels each
_DEEP_FILTER = "self::*[" * (_P // 3) + "@a" + "]" * (_P // 3)


@pytest.mark.parametrize(
    "command, text",
    [
        ("check", "EX " * _F + f"[{_DEEP_FILTER}]"),
        ("check", " | ".join([f"[{_DEEP_FILTER}]"] * (_F + 1))),
        ("check", "(" * _F + "[@a]" + ")" * _F),
        ("check", "AU([@b], " * _F + "[@a]" + ")" * _F),
        ("query", _DEEP_FILTER),
        ("query", "(" * _P + "@a" + ")" * _P),
        ("query", " or ".join(["@b"] * _P + ["@a"])),
    ],
    ids=["prefix", "or-chain", "parentheses", "until", "predicates",
         "filter-parentheses", "filter-chain"],
)
def test_input_at_depth_cap_runs_end_to_end(capsys, loop_net, command, text):
    flag = "--formula" if command == "check" else "--filter"
    code, out, err = run_main(capsys, command, "--network", loop_net, flag, text)
    assert (code, out, err) == (0, "k1\n", "")


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("check", "EX " * 3000 + "[@a]",
         f"formula: line 1, column {3 * _F + 1}: formula nested deeper"),
        ("check", " | ".join(["[@a]"] * 1500),
         f"formula: line 1, column {7 * _F + 6}: formula nested deeper"),
        ("check", "EX [" + "(" * (_P + 1) + "@a" + ")" * (_P + 1) + "]",
         f"formula: line 1, column {_P + 5}: in filter: filter nested deeper"),
        ("query", "(" * 2000 + "@a" + ")" * 2000,
         f"filter: line 1, column {_P + 1}: filter nested deeper"),
    ],
    ids=["prefix", "or-chain", "filter-in-formula", "filter-parentheses"],
)
def test_input_past_depth_cap_is_exit_1(capsys, loop_net, command, text, message):
    flag = "--formula" if command == "check" else "--filter"
    code, out, err = run_main(capsys, command, "--network", loop_net, flag, text)
    assert code == 1
    assert out == ""
    assert err.startswith(f"netcheck: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "command, flag, text",
    [("check", "--formula", "EF [d]"), ("query", "--filter", "d")],
)
def test_payload_nested_3000_deep_runs_end_to_end(capsys, tmp_path, command, flag, text):
    net = tmp_path / "deep.xml"
    net.write_text(
        '<network><node key="k1">' + "<d>" * 3000 + "</d>" * 3000 + "</node></network>",
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, command, "--network", str(net), flag, text)
    assert (code, out, err) == (0, "k1\n", "")


def test_missing_network_file_is_exit_2(capsys):
    code, out, err = run_main(
        capsys, "check", "--network", "no/such/file.xml", "--formula", "true"
    )
    assert code == 2
    assert out == ""
    assert "cannot read network" in err


def test_network_flag_required_when_formula_is_valid(capsys):
    code, out, err = run_main(capsys, "check", "--formula", "true")
    assert code == 2
    assert "--network is required" in err


def test_malformed_network_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.xml"
    # the second input ends right after '=', where a value must start
    for text in ("<graph/>", '<network><node key="a" x='):
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_main(
            capsys, "check", "--network", str(bad), "--formula", "true"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("netcheck: network:")
        assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--network", WEB], "one of the arguments --formula --formula-file is required"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["check", "--network", WEB, "--formula", "true", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
    ],
)
def test_argument_error_is_one_line_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"netcheck: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_metrics_fractional_weight_is_exit_2(capsys, tmp_path, fmt):
    net = tmp_path / "w.xml"
    net.write_text(
        '<network directed="false"><node key="a"/><node key="b"/>'
        '<edge from="a" to="b" weight="1.5"/></network>',
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "metrics", "--network", str(net), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "netcheck: network: edge weight 1.5 is not an integer multiplicity\n"


def test_metrics_bad_weight_exits_before_the_geodesics(capsys, tmp_path, monkeypatch):
    # The Eulerian criterion reads the weights first, so a network that
    # exits 2 does not pay for the geodesics.
    import netcheck.cli as cli

    def refuse(net):
        raise AssertionError("geodesics computed for a network that exits 2")

    monkeypatch.setattr(cli, "_geodesics", refuse)
    net = tmp_path / "w.xml"
    net.write_text(
        '<network directed="false"><node key="a"/><node key="b"/>'
        '<edge from="a" to="b" weight="1.5"/></network>',
        encoding="utf-8",
    )
    code, out, err = run_main(capsys, "metrics", "--network", str(net))
    assert (code, out) == (2, "")
    assert err == "netcheck: network: edge weight 1.5 is not an integer multiplicity\n"


def test_type_error_is_exit_3(capsys, tmp_path):
    net = tmp_path / "t.xml"
    net.write_text(
        '<network><node key="a"><name>word</name></node></network>',
        encoding="utf-8",
    )
    code, out, err = run_main(
        capsys, "check", "--network", str(net), "--formula", "EF [name > 3]"
    )
    assert code == 3
    assert out == ""
    assert "number" in err


def test_query_type_error_is_exit_3(capsys, tmp_path):
    net = tmp_path / "t.xml"
    net.write_text(
        '<network><node key="a"><name>word</name></node></network>',
        encoding="utf-8",
    )
    code, out, err = run_main(
        capsys, "query", "--network", str(net), "--filter", "name > 3"
    )
    assert code == 3
    assert out == ""
    assert err == (
        "netcheck: evaluation: filter 'name > 3' at node 'a': "
        "cannot interpret 'word' as a number\n"
    )


def test_metrics_directed_eulerian_not_an_error(capsys):
    # directed networks simply omit the undirected-only figures
    code, out, _ = run_main(capsys, "metrics", "--network", WEB)
    assert code == 0
    assert "eulerian_path" not in out
    assert "in_degree_histogram" in out


# -- robustness --------------------------------------------------------------------


def _mutate(rng, text, pieces, corpus):
    """``text`` (bytes or str) after one to three edits: a deletion, a
    splice from ``corpus``, or an insertion from ``pieces``."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        roll = rng.random()
        if roll < 0.3:
            text = text[:i] + text[j:]
        elif roll < 0.6:
            other = rng.choice(corpus)
            a = rng.randrange(len(other) + 1)
            text = text[:i] + other[a : a + rng.randint(1, 40)] + text[j:]
        else:
            text = text[:i] + rng.choice(pieces) + text[i:]
    return text


# markup, NUL and bytes that are not UTF-8: a lone lead byte, a
# continuation byte and an encoded surrogate
BYTE_PIECES = [b"<", b">", b"/>", b"</", b"&", b"&#0;", b"<!--", b'"', b"'", b"=",
               b"\x00", b"\xc3", b"\x80", b"\xed\xa0\x80"]
# filter and formula syntax, NUL, a digit \d does not read, an Arabic-Indic
# digit, and an argument byte that is not UTF-8, as Python passes it
TEXT_PIECES = ["[", "]", "(", ")", '"', "'", "&", "|", "!", "::", "//", "@", ",",
               " or ", " and ", "not(", "EX ", "\x00", "\u00b2", "\u0663", "\udcff"]


def test_cli_survives_mutated_input(capsys, tmp_path):
    # Seeded mutations of the fixtures, formulas and filters, run through
    # every command in both formats: every run ends in a documented exit
    # code, and a failure in one diagnostic line with stdout empty.
    rng = random.Random(7)
    fixtures = [p.read_bytes() for p in sorted(Path("fixtures").glob("*.xml"))]
    texts = {"check": set(), "query": set()}
    for run in CHECK_AND_QUERY_PINNED:
        texts[run["argv"][0]].add(run["argv"][4])
    # a relational comparison on a value that is not a number: exit 3
    formulas = sorted(texts["check"]) + ["EF [* > 0]"]
    filters = sorted(texts["query"]) + ["* > 0"]
    network = tmp_path / "net.xml"
    codes = Counter()
    for case in range(400):
        data = rng.choice(fixtures)
        keys = re.findall(r'key="([^"]*)"', data.decode())
        if rng.random() < 0.4:
            data = _mutate(rng, data, BYTE_PIECES, fixtures)
        network.write_bytes(data)
        command = rng.choice(["check", "witness", "query", "metrics"])
        if command == "query":
            argv = ["query", "--filter", rng.choice(filters)]
        elif command == "metrics":
            argv = ["metrics"]
        else:
            argv = ["check", "--formula", rng.choice(formulas)]
            if command == "witness":
                argv += ["--witness-for", rng.choice(keys)]
        if command != "metrics" and rng.random() < 0.4:
            argv[2] = _mutate(rng, argv[2], TEXT_PIECES, formulas + filters)
        argv += ["--network", str(network), "--format", rng.choice(["lines", "json"])]
        try:
            code, out, err = run_main(capsys, *argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"case {case}, {argv}: {exc!r} escaped")
        codes[code] += 1
        assert code in (0, 1, 2, 3), (case, argv)
        if code:
            assert out == "", (case, argv)
            assert err.startswith("netcheck: ") and err.count("\n") == 1, (case, argv, err)
            assert err.endswith("\n"), (case, argv, err)
        else:
            assert err == "", (case, argv, err)
    # every outcome occurred, so the mutations still reach each kind of failure
    assert sorted(codes) == [0, 1, 2, 3], codes


# -- determinism -------------------------------------------------------------------


def test_repeated_runs_byte_identical():
    argv = ("check", "--network", COLLAB, "--formula", "EF [count(paper) > 100]")
    first = run_proc(*argv)
    second = run_proc(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_installed_entry_point_matches_module(capsys):
    import shutil

    exe = shutil.which("netcheck")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "metrics", "--network", K3], capture_output=True, text=True
    )
    code, out, _ = run_main(capsys, "metrics", "--network", K3)
    assert proc.returncode == code == 0
    assert proc.stdout == out
