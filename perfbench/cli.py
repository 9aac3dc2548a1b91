"""The benchmark command: one workload, timed end to end or traced by layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

With ``--trace 0`` it replays the workload's scenario seeds in turn, each
pass through a fresh executor, until every seed has run, ``S`` seconds of
engine work are measured and at least 1,000 tick samples are taken, then
prints every end-to-end metric.  With ``--trace 1`` it takes the first
scenario seed only: it measures half of ``S`` untraced, then installs the
layer wrappers, measures the other half traced and prints the per-layer
breakdown.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a correctness failure exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

from perfbench.tracing import Tracer, installed
from perfbench.workloads import WORKLOADS, build_executor, check_pass, drive, set_up
from repro.core.assessment.base import FrequencyAssessor
from repro.core.bit_index import BitAddressIndex
from repro.core.selector import IndexSelector
from repro.core.tuner import AMRITuner, HashIndexTuner, NullTuner
from repro.engine.kernel.context import EngineContext
from repro.engine.kernel.kernel import EngineKernel, default_stages
from repro.engine.metrics import MetricsRegistry
from repro.engine.router import Router
from repro.engine.slo import LatencyTracker, SloMonitor
from repro.storage.store import StateStore

SPAN_DIR = Path(__file__).resolve().parent / "out"
MIN_P99_SAMPLES = 1000  # p99 needs at least 10 samples beyond it

#: name -> (unit, better), in print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "tuples_per_s": ("tuples/s", "higher"),
    "tick_ms_p50": ("ms", "lower"),
    "tick_ms_p99": ("ms", "lower"),
    "results": ("count", "higher"),
    "served_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

STAGES = (
    "arrivals",
    "expiry",
    "route_probe",
    "faults",
    "tuning",
    "migration",
    "slo",
    "shed_degrade",
    "audit",
)

#: Spans reported with their calls and self time.
LAYER_SPANS = (
    "context.spend",
    "router.choose_route",
    "storage.insert",
    "storage.expire",
    "storage.probe",
    "storage.tune",
    "index.search",
    "index.insert",
    "index.remove",
    "index.reconfigure",
    "assessment.record",
    "tuner.tune",
    "selector.select",
    "metrics.lookup",
    "metrics.span",
    "slo.observe",
    "slo.end_tick",
)
INDEX_SPANS = ("index.search", "index.insert", "index.remove", "index.reconfigure")


def _per_layer_table() -> dict[str, tuple[str, str]]:
    table = {f"kernel.{s}.self_ms": ("ms", "lower") for s in STAGES}
    table["kernel.loop.self_ms"] = ("ms", "lower")
    table["kernel.backlog_mean"] = ("requests", "lower")
    table["kernel.requests"] = ("count", "higher")
    table["kernel.probes_per_request"] = ("probes/request", "lower")
    for name in LAYER_SPANS:
        table[f"{name}.calls"] = ("count", "lower")
        table[f"{name}.self_ms"] = ("ms", "lower")
    table.update(
        {
            "index.tuples_examined": ("count", "lower"),
            "index.buckets_visited": ("count", "lower"),
            "index.hashes": ("count", "lower"),
            "index.match_yield": ("ratio", "higher"),
            "index.us_per_cost_unit": ("us/cu", "lower"),
            "run.us_per_cost_unit": ("us/cu", "lower"),
            "tuner.migrate_ratio": ("ratio", "lower"),
            "migration.tuples_moved": ("tuples", "lower"),
            "slo.latency_ticks_p95": ("ticks", "lower"),
            "setup.generate_ms": ("ms", "lower"),
            "setup.train_ms": ("ms", "lower"),
            "setup.build_ms": ("ms", "lower"),
            "trace.overhead_ratio": ("ratio", "lower"),
            "trace.coverage": ("ratio", "higher"),
        }
    )
    return table


#: name -> (unit, better) of every per-layer metric, per measured pass.
PER_LAYER = _per_layer_table()


def percentile(samples: list[float], q: float, *, min_beyond: int = 10) -> float:
    """The nearest-rank ``q`` quantile, refused when fewer than
    ``min_beyond`` samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"at least {min_beyond} are needed"
        )
    return sorted(samples)[max(rank - 1, 0)]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    return args


def run_passes(setups, seconds: float, min_samples: int, errors: list[str]):
    """Replay the sub-workloads in turn, each pass through a fresh executor,
    until every one has run, ``seconds`` of stepping are measured and
    ``min_samples`` tick samples are taken.

    Every pass is checked against its sub-workload's first pass; finished
    passes drop their executors, except the last.
    """
    firsts: dict[int, dict] = {}
    passes = []
    while True:
        i = len(passes) % len(setups)
        setup = setups[i]
        executor = setup.executor if len(passes) < len(setups) else build_executor(
            setup.workload, setup.scenario, setup.training
        )
        setup.executor = None
        result = drive(executor, setup.arrivals)
        errors.extend(check_pass(setup.workload, setup.seed, result, firsts.get(i)))
        firsts.setdefault(i, result.fingerprint)
        if passes:
            passes[-1].executor = None
        passes.append(result)
        samples = sum(len(p.tick_ns) for p in passes)
        if (
            len(passes) >= len(setups)
            and sum(p.wall_ns for p in passes) >= seconds * 1e9
            and samples >= min_samples
        ):
            return passes


def end_to_end(setups, passes) -> dict[str, float]:
    firsts = passes[: len(setups)]  # one pass of each sub-workload
    tick_ns = [ns for p in passes for ns in p.tick_ns]
    wall_s = sum(p.wall_ns for p in passes) / 1e9
    return {
        "setup_s": statistics.median(s.total_s for s in setups),
        "tuples_per_s": sum(p.stats.source_tuples for p in passes) / wall_s,
        "tick_ms_p50": percentile(tick_ns, 0.50) / 1e6,
        "tick_ms_p99": percentile(tick_ns, 0.99) / 1e6,
        "results": sum(p.fingerprint["results"] for p in firsts),
        "served_ratio": 1.0
        - sum(p.unserved for p in firsts) / sum(p.attempted for p in firsts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_targets() -> list[tuple]:
    """``(base class, method, span name, after)`` for every traced layer."""

    def count_matches(tracer, outcome):
        tracer.count("index.matches", len(outcome.matches))

    def count_moved(tracer, report):
        tracer.count("migration.tuples_moved", report.tuples_moved)

    return [
        *((type(s), "run", f"kernel.{s.name}", None) for s in default_stages()),
        (EngineContext, "spend", "context.spend", None),
        (Router, "choose_route", "router.choose_route", None),
        *((StateStore, op, f"storage.{op}", None) for op in ("insert", "expire", "probe", "tune")),
        (BitAddressIndex, "search", "index.search", count_matches),
        (BitAddressIndex, "insert", "index.insert", None),
        (BitAddressIndex, "remove", "index.remove", None),
        (BitAddressIndex, "reconfigure", "index.reconfigure", count_moved),
        (FrequencyAssessor, "record", "assessment.record", None),
        *((cls, "tune", "tuner.tune", None) for cls in (AMRITuner, HashIndexTuner, NullTuner)),
        (IndexSelector, "select", "selector.select", None),
        *((MetricsRegistry, m, "metrics.lookup", None) for m in ("counter", "gauge", "histogram")),
        *((MetricsRegistry, m, "metrics.span", None) for m in ("start_span", "end_span")),
        (LatencyTracker, "observe", "slo.observe", None),
        (SloMonitor, "end_tick", "slo.end_tick", None),
    ]


def traced_passes(setup, seconds: float, first, errors: list[str], span_path: Path):
    """Build executors under the layer wrappers and replay traced passes
    until ``seconds`` of traced stepping; returns the passes, their
    per-pass ``name -> (calls, self ns)`` tables and summed counters."""
    workload = setup.workload
    tracer = Tracer()
    passes, tables, counters = [], [], {}
    with installed(tracer, trace_targets(), root=(EngineKernel, "step", "kernel.step", 1)):
        while True:
            tracer.reset()
            result = drive(build_executor(workload, setup.scenario, setup.training), setup.arrivals)
            errors.extend(check_pass(workload, setup.seed, result, first))
            passes.append(result)
            tables.append(tracer.self_times())
            for name, value in tracer.counters.items():
                counters[name] = counters.get(name, 0) + value
            if sum(p.wall_ns for p in passes) >= seconds * 1e9:
                break
            result.executor = None
    tracer.write(span_path)
    return passes, tables, counters


def per_layer(setups, untraced, traced, tables, counters, errors: list[str]) -> dict[str, float]:
    """The per-layer metrics, averaged over the traced passes."""
    n = len(traced)
    names = set().union(*tables)
    calls = {k: sum(t.get(k, (0, 0))[0] for t in tables) / n for k in names}
    self_ms = {k: sum(t.get(k, (0, 0))[1] for t in tables) / n / 1e6 for k in names}
    traced_ms = sum(p.wall_ns for p in traced) / n / 1e6
    untraced_ms = sum(p.wall_ns for p in untraced) / len(untraced) / 1e6
    coverage = sum(self_ms.values()) / traced_ms
    if abs(coverage - 1.0) > 0.05:
        errors.append(f"layer self times sum to {coverage:.3f} of the traced wall time")

    last = traced[-1]
    ex, stats = last.executor, last.stats
    accountants = [stem.index.accountant for stem in ex.stems.values()]
    index_cu = sum(a.cost(ex.meter.params) for a in accountants)
    examined = sum(a.tuples_examined for a in accountants)
    requests = stats.source_tuples - last.fingerprint["final_backlog"] - stats.shed_tuples
    spent = statistics.fmean(p.cost_spent for p in untraced)
    latency = ex.latency.quantile(0.95) if ex.latency is not None else None
    index_us = sum(self_ms.get(s, 0.0) for s in INDEX_SPANS) * 1000

    out = {f"kernel.{s}.self_ms": self_ms.get(f"kernel.{s}", 0.0) for s in STAGES}
    out["kernel.loop.self_ms"] = self_ms.get("kernel.step", 0.0)
    out["kernel.backlog_mean"] = statistics.fmean(s.backlog for s in stats.samples)
    out["kernel.requests"] = requests
    out["kernel.probes_per_request"] = stats.probes / requests if requests else 0.0
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = calls.get(name, 0.0)
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    out["index.tuples_examined"] = examined
    out["index.buckets_visited"] = sum(a.buckets_visited for a in accountants)
    out["index.hashes"] = sum(a.hashes for a in accountants)
    out["index.match_yield"] = counters.get("index.matches", 0) / n / examined if examined else 0.0
    out["index.us_per_cost_unit"] = index_us / index_cu if index_cu else 0.0
    out["run.us_per_cost_unit"] = untraced_ms * 1000 / spent if spent else 0.0
    out["tuner.migrate_ratio"] = (
        stats.migrations / stats.tuning_rounds if stats.tuning_rounds else 0.0
    )
    out["migration.tuples_moved"] = counters.get("migration.tuples_moved", 0) / n
    out["slo.latency_ticks_p95"] = float(latency) if latency is not None else 0.0
    out["setup.generate_ms"] = statistics.median(s.generate_s for s in setups) * 1000
    out["setup.train_ms"] = statistics.median(s.train_s for s in setups) * 1000
    out["setup.build_ms"] = statistics.median(s.build_s for s in setups) * 1000
    out["trace.overhead_ratio"] = traced_ms / untraced_ms
    out["trace.coverage"] = coverage
    return out


def print_layers(values: dict[str, float], traced_ms: float) -> None:
    rows = [
        (name.removesuffix(".self_ms"), values.get(name.replace(".self_ms", ".calls")), v)
        for name, v in values.items()
        if name.endswith(".self_ms")
    ]
    print(f"{'layer':<24}{'calls':>12}{'self ms':>12}{'share':>8}")
    for layer, calls, ms in sorted(rows, key=lambda r: -r[2]):
        calls_text = f"{calls:12.0f}" if calls is not None else f"{'':12}"
        print(f"{layer:<24}{calls_text}{ms:12.2f}{ms / traced_ms:8.1%}")
    print(
        f"calibration: index.us_per_cost_unit={values['index.us_per_cost_unit']:.3f} "
        f"run.us_per_cost_unit={values['run.us_per_cost_unit']:.3f} (us per cost unit)"
    )
    for name, value in values.items():
        if not name.endswith((".self_ms", ".calls")):
            print(f"{name:<28}{value:14.4f} {PER_LAYER[name][0]}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds = workload.sub_seeds(args.seed)
    errors: list[str] = []

    if args.trace:
        setups = [set_up(workload, seeds[0])]
        untraced = run_passes(setups, args.seconds / 2, 1, errors)
        traced, tables, counters = traced_passes(
            setups[0],
            args.seconds / 2,
            untraced[0].fingerprint,
            errors,
            SPAN_DIR / f"{workload.name}.spans.npz",
        )
        values = per_layer(setups, untraced, traced, tables, counters, errors)
        counted = traced[-1:]
        print(
            f"{workload.name} seed {args.seed}: {len(untraced)} untraced and "
            f"{len(traced)} traced passes of {workload.pass_ticks} ticks; per pass:"
        )
        print_layers(values, sum(p.wall_ns for p in traced) / len(traced) / 1e6)
    else:
        setups = [set_up(workload, seed) for seed in seeds]
        passes = run_passes(setups, args.seconds, MIN_P99_SAMPLES, errors)
        values = end_to_end(setups, passes)
        counted = passes[: len(setups)]
        samples = sum(len(p.tick_ns) for p in passes)
        print(
            f"{workload.name} seed {args.seed}: {len(passes)} passes of "
            f"{workload.pass_ticks} ticks over {len(setups)} scenario seeds, "
            f"{samples} tick samples ({samples - math.ceil(0.99 * samples)} beyond p99)"
        )
        for name, value in values.items():
            print(f"{name:<16}{value:16.4f} {END_TO_END[name][0]}")
    for p in counted:
        print(f"fingerprint {p.fingerprint}")
    units = PER_LAYER if args.trace else END_TO_END
    errors = list(dict.fromkeys(errors))
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(p.attempted for p in counted),
                "failed": sum(p.failed for p in counted),
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in units.items()
                },
            }
        )
    )
    return 1 if errors else 0
