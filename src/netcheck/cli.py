"""Command-line interface.

Three subcommands: ``check`` evaluates a formula and prints the
satisfying node keys in ascending order, ``query`` prints the keys
whose payload matches a bare filter, ``metrics`` prints the statistics
report. All three take ``--network`` and ``--format``, and ``query`` is
answered as ``check`` is, with the filter as the one atom of its
formula. Output goes to stdout only on success and is byte-identical
across runs; diagnostics go to stderr. Exit codes: 0 success (an empty
result set is success), 1 formula or filter syntax error, 2 network
file or format error or command-line argument error, 3 evaluation type
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .checker import _labelled_checker, parse_formula
from .ctl import Atom, NotSatisfiedError, _Checker
from .errors import FilterTypeError, FormatError, ParseError, UnknownKeyError
from .metrics import (
    _geodesics,
    clustering_coefficient,
    components,
    degree_histogram,
    eulerian_path_exists,
)
from .network import Network, load_network
from .xpath import parse_filter

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_FORMAT = 2
EXIT_TYPE = 3


class _ArgumentParser(argparse.ArgumentParser):
    """Reports an argument error on one line, as every other error is,
    instead of after a usage block. Subcommand parsers are of the same
    class."""

    def error(self, message: str):
        self.exit(EXIT_FORMAT, f"netcheck: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="netcheck",
        description="Check path properties of XML-attributed networks.",
    )
    parser.add_argument("--version", action="version", version=f"netcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # What every subcommand takes, declared once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--network", metavar="PATH")
    common.add_argument("--format", choices=("lines", "json"), default="lines")

    check_p = sub.add_parser("check", parents=[common], help="evaluate a formula over a network")
    group = check_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", metavar="TEXT")
    group.add_argument("--formula-file", metavar="PATH")
    check_p.add_argument("--witness-for", metavar="KEY")

    query_p = sub.add_parser("query", parents=[common],
                             help="print keys whose payload matches a filter")
    query_p.add_argument("--filter", required=True, metavar="TEXT")

    sub.add_parser("metrics", parents=[common], help="print network statistics")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "query":
            return _run_query(args)
        return _run_metrics(args)
    except BrokenPipeError:
        return EXIT_OK


def _fail(code: int, message: str) -> int:
    print(f"netcheck: {message}", file=sys.stderr)
    return code


def _load(args) -> Network | int:
    """The network named by ``--network``, or the exit code after
    reporting why it could not be loaded."""
    try:
        if args.network is None:
            raise FormatError("--network is required")
        return load_network(args.network)
    except OSError as exc:
        return _fail(EXIT_FORMAT, f"cannot read network: {exc}")
    except (ParseError, FormatError) as exc:
        return _fail(EXIT_FORMAT, f"network: {exc}")


def _emit(lines: list[str]) -> None:
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _run_check(args) -> int:
    # Formula syntax is checked before the network is touched.
    if args.formula is not None:
        formula_text = args.formula
    else:
        try:
            with open(args.formula_file, "r", encoding="utf-8") as fh:
                formula_text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(EXIT_FORMAT, f"cannot read formula file: {exc}")
    try:
        formula = parse_formula(formula_text)
    except ParseError as exc:
        return _fail(EXIT_SYNTAX, f"formula: {exc}")
    return _answer(args, formula, args.witness_for)


def _answer(args, formula, witness_for: str | None = None) -> int:
    """Load the network, then label, check and print the keys where
    ``formula`` holds, in ascending order, with the witness report for
    ``witness_for`` if one is asked for."""
    net = _load(args)
    if isinstance(net, int):
        return net

    try:
        # One checker: the witness reads its sets too.
        checker, propositional = _labelled_checker(net, formula)
        keys = list(checker.keys_in(checker.sat(propositional)))  # ascending
        witness_report = None
        if witness_for is not None:
            witness_report = _witness_report(checker, propositional, witness_for)
    except FilterTypeError as exc:
        return _fail(EXIT_TYPE, f"evaluation: {exc}")

    if args.format == "json":
        # plain key array; an object only when a witness is attached
        if witness_report is None:
            _emit([json.dumps(keys, indent=2)])
        else:
            payload = {"satisfying": keys, "witness": witness_report}
            _emit([json.dumps(payload, indent=2, sort_keys=True)])
    else:
        if witness_report is not None:
            keys.append(_witness_line(witness_report))
        _emit(keys)
    return EXIT_OK


def _witness_report(checker: _Checker, formula, key: str) -> dict:
    try:
        w = checker.witness(formula, key)
    except UnknownKeyError:
        return {"for": key, "status": "unknown-node"}
    except NotSatisfiedError:
        return {"for": key, "status": "not-satisfied"}
    if w.kind == "none-available":
        return {"for": key, "status": "none-available"}
    return {
        "for": key,
        "status": w.kind,
        "path": list(w.path),
        "transpose": w.in_transpose,
    }


def _witness_line(report: dict) -> str:
    key = report["for"]
    status = report["status"]
    if status == "unknown-node":
        return f"witness {key}: unknown node"
    if status == "not-satisfied":
        return f"witness {key}: formula does not hold at this node"
    if status == "none-available":
        return f"witness {key}: none available for this operator"
    arrow = " -> ".join(report["path"])
    suffix = " (transposed edges)" if report["transpose"] else ""
    return f"witness {key}: {arrow}{suffix}"


def _run_query(args) -> int:
    try:
        filter_expr = parse_filter(args.filter)
    except ParseError as exc:
        return _fail(EXIT_SYNTAX, f"filter: {exc}")
    return _answer(args, Atom(filter_expr))


def _run_metrics(args) -> int:
    net = _load(args)
    if isinstance(net, int):
        return net

    eulerian = None
    if not net.directed:
        # decided first, so that a bad weight exits before the geodesics
        try:
            eulerian = eulerian_path_exists(net)
        except FormatError as exc:
            return _fail(EXIT_FORMAT, f"network: {exc}")
    comp = components(net)
    hist = degree_histogram(net)
    longest, mean = _geodesics(net) if net.n > 0 else (None, None)
    # keys in print order; None means "not printed" and null in JSON
    data: dict = {
        "nodes": net.n,
        "edges": net.m,
        "directed": net.directed,
        "component_count": len(comp),
        "giant_component_size": len(comp.giant),
        "clustering_coefficient": float(clustering_coefficient(net)),
        "diameter": longest,
        "mean_geodesic": None if mean is None else float(mean),
        "degree_histogram": hist.counts,
        "in_degree_histogram": hist.in_counts,
        "out_degree_histogram": hist.out_counts,
        "eulerian_path": eulerian,
    }

    if args.format == "json":
        _emit([json.dumps(_jsonable(data), indent=2, sort_keys=True)])
    else:
        _emit(_metrics_lines(data))
    return EXIT_OK


def _jsonable(data: dict) -> dict:
    out = {}
    for k, v in data.items():
        if isinstance(v, dict):
            out[k] = {str(d): c for d, c in v.items()}
        else:
            out[k] = v
    return out


def _metrics_lines(data: dict) -> list[str]:
    lines = []
    for key, value in data.items():
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, dict):
            text = "{" + ", ".join(f"{d}: {c}" for d, c in sorted(value.items())) + "}"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key}: {text}")
    return lines
