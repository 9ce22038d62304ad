"""Untimed checks run on every benchmark run: the deep-input probes and
the self-test of the reference against netcheck's brute-force oracle."""

from __future__ import annotations

from pathlib import Path

import netcheck

from reference import Reference
from session import Tally, run_cli
from workloads import make_paths, make_payloads, make_topology, render

PROBE_DEPTH_XML = 3000
PROBE_DEPTH_EX = 3000
PROBE_DEPTH_PARENS = 2000


def run_probes(workdir: Path, tally: Tally) -> list[str]:
    """Four deep inputs through ``netcheck.cli.main``. A probe passes with
    exit 0 and the right output, or with its documented refusal code (2
    for a network file, 1 for formula or filter syntax) and a one-line
    ``netcheck:`` diagnostic on stderr. Returns one line per probe."""
    deep = workdir / "probe-deep.xml"
    deep.write_text('<network directed="true"><node key="k1">'
                    + "<d>" * PROBE_DEPTH_XML + "</d>" * PROBE_DEPTH_XML
                    + "</node></network>\n", encoding="utf-8")
    loop = workdir / "probe-loop.xml"
    loop.write_text('<network directed="true"><node key="k1" a="1"/>'
                    '<edge from="k1" to="k1"/></network>\n', encoding="utf-8")
    probes = [
        (f"payload nested {PROBE_DEPTH_XML} deep, check",
         ["check", "--network", str(deep), "--formula", "EF [d]"], 2),
        (f"payload nested {PROBE_DEPTH_XML} deep, query",
         ["query", "--network", str(deep), "--filter", "d"], 2),
        (f"formula of {PROBE_DEPTH_EX} chained EX",
         ["check", "--network", str(loop), "--formula", "EX " * PROBE_DEPTH_EX + "[@a]"], 1),
        (f"filter with {PROBE_DEPTH_PARENS} nested parentheses",
         ["query", "--network", str(loop),
          "--filter", "(" * PROBE_DEPTH_PARENS + "@a" + ")" * PROBE_DEPTH_PARENS], 1),
    ]
    lines = []
    for what, argv, refusal in probes:
        code, out, err, exc = run_cli(argv)
        diagnostic = err.endswith("\n") and err.count("\n") == 1 and err.startswith("netcheck: ")
        if exc is not None:
            ok, outcome = False, f"raised {type(exc).__name__}"
        elif code == 0 and out == "k1\n" and not err:
            ok, outcome = True, "exit 0, correct output"
        elif code == refusal and not out and diagnostic:
            ok, outcome = True, f"exit {code}, {err.strip()}"
        else:
            ok, outcome = False, f"exit {code}, stdout {out[:40]!r}, stderr {err[:80]!r}"
        tally.record(ok, f"probe {what}: {outcome}")
        lines.append(f"probe {'pass' if ok else 'FAIL'}: {what}: {outcome}")
    deep.unlink()
    loop.unlink()
    return lines


def _small_instances(seed: int):
    """Instances of each workload shape with at most twelve nodes."""
    for k in range(3):
        tag = f"selftest/{seed}/{k}"
        yield make_paths(tag, chain=4, leaves=3, rand_nodes=4, rand_edges=6,
                         formulas=16, witnesses=6)
        yield make_payloads(tag, nodes=10, out_degree=2, formulas=16, witnesses=6)
        yield make_topology(tag, communities=2, size=3, p_in=0.5, bridges=2, small=1,
                            formulas=16, witnesses=6)


def self_test(seed: int) -> list[str]:
    """The reference agrees with ``oracle_check`` on small instances.
    Returns a description of each disagreement."""
    problems = []
    for wl in _small_instances(seed):
        if len(wl.keys) > 12:
            problems.append(f"self-test {wl.name}: {len(wl.keys)} nodes, over the oracle's cap")
            continue
        ref = Reference(wl)
        net = netcheck.parse_network(wl.data)
        for tree in wl.formulas + wl.witnesses:
            formula = netcheck.parse_formula(render(tree, wl.filters))
            labels, registry = netcheck.label_nodes(net, formula)
            oracle = netcheck.oracle_check(net, labels,
                                           netcheck.replace_filters(formula, registry))
            if oracle != ref.sat(tree):
                problems.append(f"self-test {wl.name}: reference and oracle differ on "
                                f"{render(tree, wl.filters)[:80]}")
    return problems
