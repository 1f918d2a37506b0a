"""Benchmark of the newton_strata engine, one workload per run.

    python3 bench/run.py --workload bulk-sampling --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src, with no
install.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (see BENCHMARK.json); with --trace 1 they are the per-layer
ones, from one round run again under span tracing.  A record of the run
goes to bench/out/, and the spans of a traced run to
bench/out/trace-<workload>.json.gz.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
MODULES = ("series", "isocrystal", "affine_weyl", "strata", "empirics", "cli")


def fresh_import():
    """Import newton_strata and its modules anew, dropping earlier copies
    (and with them every cache the package holds)."""
    for name in [m for m in sys.modules if m == "newton_strata" or m.startswith("newton_strata.")]:
        del sys.modules[name]
    ns = argparse.Namespace(package=importlib.import_module("newton_strata"))
    for name in MODULES:
        setattr(ns, name, importlib.import_module(f"newton_strata.{name}"))
    return ns


def set_up(workload, probe):
    """Median over SETUP_REPEATS of a fresh import plus the workload's
    warm-up, at the reference speed (probes run before and after each);
    the last set-up is the one used."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = [probe() for _ in range(3)]
        t0 = time.perf_counter()
        ns = fresh_import()
        workload.prepare(ns)
        raw.append(time.perf_counter() - t0)
        local = statistics.median(before + [probe() for _ in range(3)])
        scaled.append(raw[-1] * probe.nominal_s / local)
    return ns, statistics.median(scaled), raw


def part_rates(workload, rounds, scaled=True):
    """Items per second of each part.

    Each operation's time is its median over the rounds (operations sit at
    the same index in every round), and a part's rate is its items in one
    round over the sum of its operations' median times.  Times are at the
    reference speed (see probes.py) unless scaled is false.
    """
    rates = {}
    for metric, part in workload.parts:
        items = seconds = 0.0
        for k, op in enumerate(rounds[0].ops):
            if op[0] != part:
                continue
            times = [rec.scaled(k) if scaled else rec.ops[k][2] for rec in rounds]
            times = [t for t in times if t is not None]
            if times:
                items += op[1]
                seconds += statistics.median(times)
        rates[metric] = items / seconds if seconds else 0.0
    return rates


def layer_metrics(tracer, rec, untraced, traced_s):
    """Per-layer metrics from the spans of the traced round."""
    dur, self_s, root = tracer.summary()
    names = tracer.names
    calls, self_sum, total, returned = {}, {}, {}, {}
    miss_self = 0.0
    misses = 0
    sample_in_campaign = 0
    part_time = {}
    for k, span in enumerate(tracer.spans):
        name = names[span[0]]
        calls[name] = calls.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + self_s[k]
        total[name] = total.get(name, 0.0) + dur[k]
        returned[name] = returned.get(name, 0) + (span[4] & 1)
        if name == "strata.poset_of" and span[4] & 2:
            misses += 1
            miss_self += self_s[k]
        if name == "empirics.sample_pattern" and tracer.has_ancestor(k, "empirics.predicate_campaign"):
            sample_in_campaign += 1
        if name == "empirics.empirical_poset":
            part = names[tracer.spans[root[k]][0]]
            part_time[part] = part_time.get(part, 0.0) + dur[k]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    part_items = {}
    for part, n, *_ in rec.ops:
        part_items[part] = part_items.get(part, 0) + n
    out = {}
    for prefix in ("series.mul", "series.inverse", "isocrystal.slope_sequence", "isocrystal.charpoly3",
                   "isocrystal.inverse", "affine_weyl.chamber_of", "affine_weyl.coset_pattern",
                   "affine_weyl.pattern_contains", "strata.codim", "strata.codim_roottheoretic",
                   "strata.stratum_predicate", "strata.witness", "empirics.sample_pattern", "cli.main"):
        out[f"{prefix}.calls"] = (calls.get(prefix, 0), "count")
        out[f"{prefix}.self_s"] = (self_sum.get(prefix, 0.0), "s")
    for prefix in ("isocrystal.slope_sequence", "strata.codim"):
        out[f"{prefix}.us_per_call"] = (per(total.get(prefix, 0.0), calls.get(prefix, 0), 1e6), "us")
    out["isocrystal.slope_sequence.resolved_ratio"] = (
        per(returned.get("isocrystal.slope_sequence", 0), calls.get("isocrystal.slope_sequence", 0)), "ratio")
    poset_calls = calls.get("strata.poset_of", 0)
    out["strata.poset_of.misses"] = (misses, "count")
    out["strata.poset_of.hit_ratio"] = (per(poset_calls - misses, poset_calls), "ratio")
    out["strata.poset_of.miss_self_s"] = (miss_self, "s")
    for part in ("xI_short", "xI_wide", "IxI"):
        out[f"empirics.bulk.{part}.us_per_trial"] = (
            per(part_time.get("bench." + part, 0.0), part_items.get(part, 0), 1e6), "us")
    out["empirics.bulk.retried"] = (rec.extra["retried"], "count")
    out["empirics.bulk.unresolved"] = (rec.extra["unresolved"], "count")
    out["empirics.campaign.draws_per_trial"] = (per(sample_in_campaign, rec.extra["campaign_trials"]), "ratio")
    for prefix in ("empirics.estimate_codim", "empirics.kappa_check"):
        out[f"{prefix}.self_s"] = (self_sum.get(prefix, 0.0), "s")
    untraced_s = statistics.median(untraced)
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_ratio"] = (per(traced_s, untraced_s), "ratio")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "newton_strata" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'newton_strata'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  the dependency's import is not the program's set-up
    import probes
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    ns, setup_s, setup_times = set_up(workload, probes.PYTHON)
    if not str(Path(ns.package.__file__).resolve()).startswith(str(SRC)):
        print(f"error: newton_strata imported from {ns.package.__file__}, not {SRC}", file=sys.stderr)
        return 2

    problems, rounds = [], []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rec = Recorder(workload.probe)
        problems += workload.round(len(rounds), rec)
        rec.close()
        rounds.append(rec)
    attempted = sum(rec.attempted for rec in rounds)
    failed = sum(rec.failed for rec in rounds)
    errors = [e for rec in rounds for e in rec.errors]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "rounds": len(rounds), "setup_wall_s": setup_times,
              "probe_s": [statistics.median(rec.probes) for rec in rounds]}
    if args.trace:
        from tracing import Tracer

        # the traced operations are those of trace_round; their untraced
        # time is taken from the same operations in the measured rounds
        tracer = Tracer()
        traced = Recorder(workload.probe, tracer)
        tracer.install()
        try:
            problems += workload.trace_round(traced)
        finally:
            tracer.uninstall()
        traced.close()

        def slice_s(rec):
            return sum(t for t in map(rec.scaled, range(len(traced.ops))) if t is not None)

        untraced = [slice_s(rec) for rec in rounds]
        traced_s = slice_s(traced)
        metrics = layer_metrics(tracer, traced, untraced, traced_s)
        tracer.write(OUT / f"trace-{args.workload}.json.gz")
        record["spans"] = len(tracer.spans)
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
        metrics.update({m: (v, "1/s") for m, v in part_rates(workload, rounds).items()})
        record["wall_clock_rates"] = part_rates(workload, rounds, scaled=False)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for e in errors[:20]:
        print(f"operation failed: {e}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    record.update(problems=problems[:50], errors=errors[:50], result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
