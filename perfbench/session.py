"""Timed and traced runs of one workload through netcheck's public API.

Only names in ``netcheck.__all__`` and ``netcheck.cli.main`` are called,
always with default arguments. Every output is compared with the
reference; a call that raises, exits with the wrong code or gives the
wrong answer counts as a failed operation.

A run is a sequence of rounds, and each round runs every stage once
(set-up three times), so that each stage's repetitions spread over the
whole run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import statistics
import time
from collections import defaultdict
from pathlib import Path

import netcheck
from netcheck import cli

from hostspeed import REFERENCE_S, HostProbe
from reference import Reference
from workloads import ALL_OPS, Workload, render

perf = time.perf_counter

MIN_ROUNDS = 5
SETUP_REPS = 3
STATISTICS = (
    ("components", netcheck.components),
    ("clustering", netcheck.clustering_coefficient),
    ("degree_histogram", netcheck.degree_histogram),
    ("diameter", netcheck.diameter),
    ("mean_geodesic", netcheck.mean_geodesic),
    ("eulerian", netcheck.eulerian_path_exists),
)


class Tally:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None,
                  "start": perf(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf()
            self._open.pop()

    def self_time_by_layer(self) -> dict[str, float]:
        """Per layer (the span name up to its first dot), the time its
        spans cover minus the part covered by their child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        layers: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layers[s["name"].split(".")[0]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(layers)


class NoTracer:
    """Times a span like :class:`Tracer` but keeps nothing."""

    @staticmethod
    @contextlib.contextmanager
    def span(name: str, **attrs):
        record = {"start": perf(), "end": None}
        try:
            yield record
        finally:
            record["end"] = perf()


def took(span: dict) -> float:
    return span["end"] - span["start"]


def run_cli(argv: list[str]) -> tuple[int | None, str, str, BaseException | None]:
    """One in-process ``netcheck.cli.main`` call with captured output."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback is a failed operation, not a crash of the run
            exc = e
    return code, out.getvalue(), err.getvalue(), exc


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_rounds(seconds: float, one_round) -> int:
    """Call ``one_round`` until ``seconds`` have passed, at least
    MIN_ROUNDS times; returns the number of rounds."""
    end = perf() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf() < end:
        one_round()
        rounds += 1
    return rounds


def statistics_report(net, tracer=NoTracer) -> tuple[dict, dict[str, float]]:
    """What ``netcheck metrics`` prints, from the public functions, in the
    form the reference gives it; and the time of each call."""
    values, times = {}, {}
    for name, fn in STATISTICS:
        if name == "eulerian" and net.directed:
            continue
        with tracer.span(f"metrics.{name}") as s:
            values[name] = fn(net)
        times[name] = took(s)
    comp, hist = values["components"], values["degree_histogram"]
    report = {
        "components": comp.components,
        "nodes": net.n, "edges": net.m, "directed": net.directed,
        "component_count": len(comp), "giant_component_size": len(comp.giant),
        "clustering_coefficient": values["clustering"],
        "diameter": values["diameter"], "mean_geodesic": values["mean_geodesic"],
    }
    if net.directed:
        report["in_degree_histogram"] = hist.in_counts
        report["out_degree_histogram"] = hist.out_counts
    else:
        report["degree_histogram"] = hist.counts
        report["eulerian_path"] = values["eulerian"]
    return report, times


class Session:
    def __init__(self, wl: Workload, ref: Reference, seed: int, workdir: Path, tally: Tally):
        self.wl = wl
        self.ref = ref
        self.tally = tally
        self.texts = [render(t, wl.filters) for t in wl.formulas]
        self.expected = [ref.sat(t) for t in wl.formulas]
        self.net = netcheck.parse_network(wl.data)
        self.witness_cases = self._witness_cases(random.Random(f"witness/{seed}"))
        self.net_path = workdir / f"{wl.name}-{seed}.xml"
        self.net_path.write_bytes(wl.data)
        kind = wl.cli[0]
        if kind == "check":
            self.cli_argv = ["check", "--network", str(self.net_path),
                             "--formula", render(wl.cli[1], wl.filters)]
        elif kind == "query":
            self.cli_argv = ["query", "--network", str(self.net_path),
                             "--filter", wl.filters[wl.cli[1]].text]
        else:
            self.cli_argv = ["metrics", "--network", str(self.net_path)]
        # The statistics reference needs networkx, which is imported only
        # after timing: the first output of those stages waits until then,
        # later ones are compared with the first.
        self.first_output: dict[str, object] = {}

    def _witness_cases(self, rng: random.Random) -> list[tuple]:
        """(tree, start, labels, propositional formula, expected) for each
        witness formula that holds somewhere, at a seeded start node where
        it holds."""
        cases = []
        for tree in self.wl.witnesses:
            holds = sorted(self.ref.sat(tree))
            if not holds:
                continue
            start = rng.choice(holds)
            formula = netcheck.parse_formula(render(tree, self.wl.filters))
            labels, registry = netcheck.label_nodes(self.net, formula)
            cases.append((tree, start, labels, netcheck.replace_filters(formula, registry),
                          self.ref.witness(tree, start)))
        return cases

    # -- output checks -----------------------------------------------------

    def _record_later(self, stage: str, output) -> None:
        if stage not in self.first_output:
            self.first_output[stage] = output
        else:
            self.tally.record(output == self.first_output[stage],
                              f"{stage}: output changed between rounds")

    def finish_checks(self) -> None:
        """Compare the first output of the deferred stages with the reference."""
        expected = {"metrics": self.ref.expected_report, "cli": self.ref.expected_stdout}
        for stage, output in self.first_output.items():
            self.tally.record(output == expected[stage](),
                              f"{stage}: output differs from the reference")

    def _check_cli(self, code, out, err, exc) -> None:
        if exc is not None or code != 0 or err:
            self.tally.record(False, f"cli: exit {code}, {exc!r}, {err[:80]!r}")
        else:
            self._record_later("cli", out)

    # -- stages ------------------------------------------------------------

    def stage_setup(self, tracer=NoTracer) -> dict:
        """parse_network on the bytes; traced, parse_xml on them as well."""
        gc.collect()
        rec = {}
        if tracer is not NoTracer:
            with tracer.span("xmldoc.parse_xml") as s:
                root = netcheck.parse_xml(self.wl.data)
            rec["parse_xml"] = took(s)
            rec["items"] = _count_items(root)
            del root
        with tracer.span("network.parse_network") as s:
            net = netcheck.parse_network(self.wl.data)
        rec["parse_network"] = took(s)
        self.tally.record(net.n == len(self.wl.keys) and net.m == len(self.wl.edges)
                          and list(net.node_keys()) == self.wl.keys, "setup: network shape")
        return rec

    def stage_check(self) -> list[tuple[int, float]]:
        """The formula batch through parse_formula + check."""
        gc.collect()
        latencies = []
        for i, (text, expected) in enumerate(zip(self.texts, self.expected)):
            try:
                t0 = perf()
                result = netcheck.check(self.net, netcheck.parse_formula(text))
                latencies.append((i, perf() - t0))
            except Exception as exc:
                self.tally.record(False, f"check raised {exc!r}: {text[:80]}")
                continue
            self.tally.record(result == expected, f"check: wrong set for {text[:80]}")
        return latencies

    def stage_witness(self, tracer=NoTracer) -> list[tuple[int, float]]:
        gc.collect()
        times = []
        for i, (tree, start, labels, formula, expected) in enumerate(self.witness_cases):
            try:
                with tracer.span("ctl.witness", op=tree[0]) as s:
                    w = netcheck.witness(self.net, labels, formula, start)
            except Exception as exc:
                self.tally.record(False, f"witness raised {exc!r}")
                continue
            times.append((i, took(s)))
            self.tally.record((w.kind, w.path, w.in_transpose) == expected,
                              f"witness: wrong path at {start}")
        return times

    def stage_metrics(self, tracer=NoTracer) -> dict[str, float]:
        gc.collect()
        with tracer.span("bench.metrics") as s:
            report, times = statistics_report(self.net, tracer)
        times["total"] = took(s)
        if self.net.directed and tracer is not NoTracer:
            # No Eulerian criterion for directed networks: time the refusal.
            with tracer.span("metrics.eulerian") as s:
                with contextlib.suppress(ValueError):
                    netcheck.eulerian_path_exists(self.net)
            times["eulerian"] = took(s)
        self._record_later("metrics", report)
        return times

    def stage_cli(self) -> float:
        gc.collect()
        t0 = perf()
        result = run_cli(self.cli_argv)
        dt = perf() - t0
        self._check_cli(*result)
        return dt

    # -- untraced run ------------------------------------------------------

    def run_untraced(self, seconds: float) -> tuple[dict, dict, list[float], int, int]:
        """End-to-end metrics adjusted for host speed, the same metrics
        unadjusted, the probe times, the number of formulas behind the
        latency percentiles and the number of rounds.

        Each repetition of a stage is adjusted by the host probe run just
        before it, and every metric is a median over the run's rounds:
        check_s and witness_s sum each call's median, and the latency
        percentiles are taken over the formulas' medians."""
        probes: list[float] = []
        raw = defaultdict(list)
        adjusted = defaultdict(list)
        latency = [([], []) for _ in self.texts]
        witness = [([], []) for _ in self.witness_cases]
        probe = HostProbe()

        def keep(name: str, t: float) -> None:
            raw[name].append(t)
            adjusted[name].append(t * REFERENCE_S / probes[-1])

        def keep_each(store, timings) -> None:
            for i, t in timings:
                store[i][0].append(t)
                store[i][1].append(t * REFERENCE_S / probes[-1])

        def one_round():
            for _ in range(SETUP_REPS):
                probes.append(probe.time())
                keep("setup_s", self.stage_setup()["parse_network"])
            probes.append(probe.time())
            keep_each(latency, self.stage_check())
            probes.append(probe.time())
            keep_each(witness, self.stage_witness())
            probes.append(probe.time())
            keep("metrics_s", self.stage_metrics()["total"])
            probes.append(probe.time())
            keep("cli_s", self.stage_cli())

        rounds = run_rounds(seconds, one_round)

        def summary(which: int, singles) -> dict:
            per_formula = [median(ts[which]) for ts in latency if ts[which]]
            cuts = statistics.quantiles(per_formula, n=100, method="inclusive")
            return {
                "setup_s": median(singles["setup_s"]),
                "check_s": sum(per_formula),
                "query_p50_ms": cuts[49] * 1000,
                "query_p90_ms": cuts[89] * 1000,
                "witness_s": sum(median(ts[which]) for ts in witness if ts[which]),
                "metrics_s": median(singles["metrics_s"]),
                "cli_s": median(singles["cli_s"]),
            }

        return summary(1, adjusted), summary(0, raw), probes, len(latency), rounds

    # -- traced run --------------------------------------------------------

    def run_traced(self, seconds: float, tracer: Tracer) -> dict:
        """Per-layer metrics: medians over rounds of each round's totals.
        Every round also runs the check batch and the CLI call untraced,
        and the difference is the tracing overhead."""
        per_round: dict[str, list] = defaultdict(list)

        def one_round():
            per_round["plain_check"].append(sum(t for _, t in self.stage_check()))
            per_round["plain_cli"].append(self.stage_cli())
            for _ in range(SETUP_REPS):
                per_round["setup"].append(self.stage_setup(tracer))
            per_round["check"].append(self._traced_check(tracer))
            per_round["xpath"].append(self._traced_xpath(tracer))
            per_round["witness"].append(sum(t for _, t in self.stage_witness(tracer)))
            per_round["metrics"].append(self.stage_metrics(tracer))
            per_round["cli"].append(self._traced_cli(tracer))

        run_rounds(seconds, one_round)

        def med(stage: str, key: str) -> float:
            return median([r[key] for r in per_round[stage]])

        setup, check, xpath = per_round["setup"], per_round["check"], per_round["xpath"]
        out: dict[str, float] = {}
        out["xmldoc.parse_s"] = med("setup", "parse_xml")
        out["xmldoc.mb_per_s"] = len(self.wl.data) / out["xmldoc.parse_s"] / 1e6
        out["xmldoc.items"] = setup[0]["items"]
        out["network.build_s"] = median([r["parse_network"] - r["parse_xml"] for r in setup])
        out["network.edges"] = self.net.m
        out["xpath.eval_s"] = med("xpath", "time")
        out["xpath.evals"] = xpath[0]["evals"]
        out["xpath.match_ratio"] = xpath[0]["matches"] / xpath[0]["evals"]
        out["checker.parse_s"] = med("check", "parse")
        out["checker.label_s"] = med("check", "label")
        out["checker.filters"] = check[0]["filters"]
        out["ctl.model_check_s"] = med("check", "model_check")
        for op in ALL_OPS:
            out[f"ctl.{op}_s"] = median([r["ops"][op] for r in check])
        out["ctl.sat_nodes"] = check[0]["sat_nodes"]
        out["ctl.witness_s"] = median(per_round["witness"])
        for name, _ in STATISTICS:
            out[f"metrics.{name}_s"] = med("metrics", name)
        out["cli.self_s"] = median([r["cli"] - r["api"] for r in per_round["cli"]])
        out["trace.check_overhead_s"] = med("check", "total") - median(per_round["plain_check"])
        out["trace.cli_overhead_s"] = med("cli", "cli") - median(per_round["plain_cli"])
        self.totals = {"check": med("check", "total"), "metrics": med("metrics", "total"),
                       "setup": med("setup", "parse_network")}
        return out

    def _traced_formula(self, tracer: Tracer, net, text: str) -> tuple[frozenset, dict]:
        """parse_formula + label_nodes + replace_filters + model_check,
        one span each: the same work as ``check``."""
        with tracer.span("checker.parse_formula") as parse:
            formula = netcheck.parse_formula(text)
        with tracer.span("checker.label_nodes") as label:
            labels, registry = netcheck.label_nodes(net, formula)
        with tracer.span("checker.replace_filters"):
            propositional = netcheck.replace_filters(formula, registry)
        with tracer.span("ctl.model_check") as check:
            result = netcheck.model_check(net, labels, propositional)
        return result, {"parse": took(parse), "label": took(label),
                        "model_check": took(check), "filters": len(registry)}

    def _traced_check(self, tracer: Tracer) -> dict:
        gc.collect()
        rec = {"parse": 0.0, "label": 0.0, "model_check": 0.0, "total": 0.0,
               "filters": 0, "sat_nodes": 0, "ops": dict.fromkeys(ALL_OPS, 0.0)}
        for tree, text, expected in zip(self.wl.formulas, self.texts, self.expected):
            try:
                with tracer.span("checker.check", op=tree[0]) as top:
                    result, times = self._traced_formula(tracer, self.net, text)
            except Exception as exc:
                self.tally.record(False, f"check raised {exc!r}: {text[:80]}")
                continue
            self.tally.record(result == expected, f"check: wrong set for {text[:80]}")
            for key in ("parse", "label", "model_check", "filters"):
                rec[key] += times[key]
            rec["ops"][tree[0]] += times["model_check"]
            rec["total"] += took(top)
            rec["sat_nodes"] += len(result)
        return rec

    def _filter_pass(self, tracer: Tracer, net, index: int) -> tuple[float, int]:
        """eval_filter on every node's payload, one span for the pass."""
        parsed = netcheck.parse_filter(self.wl.filters[index].text)
        keys = net.node_keys()
        with tracer.span("xpath.eval_filter", filter=index) as s:
            matched = [k for k in keys if netcheck.eval_filter(parsed, net.payload(k))]
        self.tally.record(frozenset(matched) == self.ref.labels[index],
                          f"eval_filter: wrong nodes for {self.wl.filters[index].text}")
        return took(s), len(matched)

    def _traced_xpath(self, tracer: Tracer) -> dict:
        """One pass per distinct filter of the formula batch."""
        gc.collect()
        used = sorted({t[1] for tree in self.wl.formulas for t in _atoms(tree)})
        rec = {"time": 0.0, "evals": 0, "matches": 0}
        for i in used:
            dt, matched = self._filter_pass(tracer, self.net, i)
            rec["time"] += dt
            rec["evals"] += self.net.n
            rec["matches"] += matched
        return rec

    def _traced_cli(self, tracer: Tracer) -> dict:
        """The CLI call, then the same load and check (or report) through
        the API; the difference is the CLI's own time."""
        gc.collect()
        with tracer.span("cli.main") as s:
            result = run_cli(self.cli_argv)
        self._check_cli(*result)
        gc.collect()  # the CLI's network is garbage now; do not bill its collection to the API
        kind = self.wl.cli[0]
        with tracer.span("bench.cli_api") as api:
            with tracer.span("network.load_network"):
                net = netcheck.load_network(self.net_path)
            if kind == "check":
                self._traced_formula(tracer, net, self.cli_argv[-1])
            elif kind == "query":
                self._filter_pass(tracer, net, self.wl.cli[1])
            else:
                statistics_report(net, tracer)
        return {"cli": took(s), "api": took(api)}


def _count_items(root) -> int:
    """Elements plus text items of a parsed document."""
    items, stack = 0, [root]
    while stack:
        item = stack.pop()
        items += 1
        if isinstance(item, netcheck.XmlElement):
            stack.extend(item.children)
    return items


def _atoms(tree: tuple):
    if tree[0] == "atom":
        yield tree
        return
    for sub in tree[1:]:
        yield from _atoms(sub)
