"""netcheck benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paths --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same stages with spans around every public call
and reports the per-layer metrics, writing the spans to
``.perfbench_out/trace-<workload>-<seed>.json``. Human-readable lines
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
netcheck is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

from hostspeed import REFERENCE_S
from workloads import ALL_OPS, GENERATORS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s", "check_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
    "witness_s": "s", "metrics_s": "s", "cli_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "xmldoc.parse_s": "s", "xmldoc.mb_per_s": "MB/s", "xmldoc.items": "count",
    "network.build_s": "s", "network.edges": "count",
    "xpath.eval_s": "s", "xpath.evals": "count", "xpath.match_ratio": "ratio",
    "checker.parse_s": "s", "checker.label_s": "s", "checker.filters": "count",
    "ctl.model_check_s": "s",
    **{f"ctl.{op}_s": "s" for op in ALL_OPS},
    "ctl.sat_nodes": "count", "ctl.witness_s": "s",
    **{f"metrics.{name}_s": "s" for name in (
        "components", "clustering", "degree_histogram", "diameter",
        "mean_geodesic", "eulerian")},
    "cli.self_s": "s", "trace.check_overhead_s": "s", "trace.cli_overhead_s": "s",
}

# The layers each workload was built to make dominant: (workload,
# end-to-end metric, per-layer metrics summed, traced stage total).
DESIGN = (
    ("paths", "check_s", ("ctl.model_check_s",), "check"),
    ("paths", "setup_s", ("xmldoc.parse_s",), "setup"),
    ("payloads", "check_s", ("checker.label_s",), "check"),
    ("topology", "metrics_s", ("metrics.diameter_s", "metrics.mean_geodesic_s"), "metrics"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent measuring (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netcheck" / "__init__.py").is_file():
        print(f"perfbench: no netcheck sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import netcheck

    if Path(netcheck.__file__).resolve().parent != SRC / "netcheck":
        print(f"perfbench: imported netcheck from {netcheck.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from checks import run_probes, self_test
    from reference import Reference
    from session import Session, Tally, Tracer

    workdir = ROOT / ".perfbench_out"
    workdir.mkdir(exist_ok=True)
    make = GENERATORS[args.workload]
    wl = make(args.seed)
    digest = wl.digest()
    reproducible = make(args.seed).digest() == digest
    print(f"workload {wl.name}: seed {args.seed}, inputs {digest} "
          f"({'identical' if reproducible else 'DIFFERENT'} on regeneration), "
          f"{len(wl.keys)} nodes, {len(wl.edges)} edges, {len(wl.data)} bytes, "
          f"{len(wl.formulas)} formulas")

    tally = Tally()
    session = Session(wl, Reference(wl), args.seed, workdir, tally)
    if args.trace:
        tracer = Tracer(f"{wl.name}-{args.seed}")
        values = session.run_traced(args.seconds, tracer)
        units = PER_LAYER
    else:
        values, raw, probes, formulas, rounds = session.run_untraced(args.seconds)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    session.net_path.unlink()
    session.finish_checks()
    disagreements = self_test(args.seed)
    # The deep-input probes are known defects of netcheck, not operations
    # of the workload: they count in failed_share but not in the JSON's
    # attempted/failed, which cover the measured operations only.
    probe_tally = Tally()
    probe_lines = run_probes(workdir, probe_tally)

    for name, unit in units.items():
        print(f"  {name:<24} {values[name]:>14.6g} {unit}")
    if args.trace:
        spans_path = workdir / f"trace-{wl.name}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        for layer, t in sorted(tracer.self_time_by_layer().items()):
            print(f"  self time {layer:<10} {t:10.4f} s")
        for workload, e2e, parts, total in DESIGN:
            if workload == wl.name:
                share = sum(values[p] for p in parts) / session.totals[total]
                print(f"  design: {' + '.join(parts)} is {share:.0%} of {e2e} (traced)")
    else:
        print(f"  {rounds} rounds; latency percentiles over the medians of {formulas} formulas")
        print(f"  host probe: median {statistics.median(probes) * 1000:.3f} ms, range "
              f"{min(probes) * 1000:.3f}-{max(probes) * 1000:.3f} ms over {len(probes)} probes; "
              f"times above are scaled to a probe of {REFERENCE_S * 1000:g} ms")
        print("  raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    failed = tally.failed + probe_tally.failed
    attempted = tally.attempted + probe_tally.attempted
    print(f"  failed_share {failed / attempted:.4f} ratio ({failed} failed of {attempted} "
          f"attempted: {tally.failed} of {tally.attempted} workload operations, "
          f"{probe_tally.failed} of {probe_tally.attempted} deep-input probes)")
    for line in probe_lines:
        print(f"  {line}")
    for line in tally.problems + disagreements:
        print(f"  problem: {line}")
    print(f"  self-test of the reference against oracle_check: "
          f"{'pass' if not disagreements else 'FAIL'}")

    result = {
        "correct": reproducible and not disagreements and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
