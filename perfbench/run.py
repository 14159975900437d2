"""The quivex benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload verify|ladder|oracle|all \
        [--seed N] [--seconds S] [--trace 0|1]

A run imports quivex from ``src/`` of the checkout it sits in.  It then
repeats rounds until about ``--seconds`` have passed: each round times five
set-ups (a fresh import plus building the workload's inputs from the seed)
and one pass over the workload's timed operations, checking every output.
All times are normalised to a reference machine speed (``harness.Speedometer``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds a traced
pass to every round and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record (context,
sizes, per-operation times, failures, probes, spans) goes to
``perfbench/results/``.  ``--workload all`` runs the three workloads one
after another, each in its own process."""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import ladder
import oracle
import verify

WORKLOADS = {"verify": verify, "ladder": ladder, "oracle": oracle}
SETUPS_PER_ROUND = 5
RESULTS = Path(__file__).resolve().parent / "results"

END_TO_END_UNITS = {"wall_s": "s", "max_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Span names; each gives the metric "<name>_s", its total time in seconds.
LAYER_SPANS = (
    ["acceptance.corpus"]
    + [f"acceptance.c{n}" for n in range(1, 8)]
    + ["rep.sample"]
    + ["homext.assemble", "homext.eliminate", "homext.ext1_reps"]
    + ["ratmat.rref", "stability.verdict", "invariants.fingerprint"]
    + ["hecke.reduce", "hecke.extend", "hecke.isomorphic"]
    + ["cli.hom_ext", "cli.reduce", "cli.extend"]
    + ["kacmoody.count", "kacmoody.roots", "kacmoody.freudenthal"]
)
LAYER_COUNTS = (
    "homext.assemble_calls",
    "homext.cells",
    "ratmat.rref_cells",
    "stability.verdicts",
    "invariants.entries",
    "hecke.round_trips",
    "kacmoody.roots",
    "kacmoody.drops",
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _typical_op_s(passes: list[harness.Pass]) -> dict[str, float]:
    """Each operation's median duration over the passes.  A pass's wall time
    is the sum of its operations, so a pause that hits one operation in one
    pass is dropped here, where a median of pass totals would keep it."""
    names = {name for p in passes for name in p.durations}
    return {n: _median([p.durations[n] for p in passes if n in p.durations]) for n in names}


def _median_layers(layers: list[dict]) -> dict[str, dict[str, float]]:
    """Median total and self time per span name over several runs of the
    same operations."""
    return {
        span: {
            key: _median([t.get(span, {}).get(key, 0.0) for t in layers])
            for key in ("total_s", "self_s")
        }
        for span in sorted({s for t in layers for s in t})
    }


def _run_probes(workload, qx, inputs) -> list[dict]:
    out = []
    for name, thunk, expected in getattr(workload, "probes", lambda qx, inputs: [])(qx, inputs):
        try:
            value = thunk()
        except Exception as exc:  # a probe exists to record how it fails
            out.append({"name": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"[:300]})
            continue
        ok = value == expected
        out.append({"name": name, "ok": ok, "error": None if ok else "wrong value"})
    return out


def measure(name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    harness.use_checkout_sources()

    # Set-ups are interleaved with the passes, so that their median samples
    # the machine across the whole run and not in one burst; each pass uses
    # the package and inputs of the set-up just before it.
    setups: list[tuple[float, float, harness.Tracer]] = []
    untraced: list[harness.Pass] = []
    traced: list[harness.Pass] = []
    # The first round's length fixes how many rounds fill --seconds, so a run
    # never stops inside a round.
    rounds, done, start = 1, 0, time.perf_counter()
    with harness.Speedometer() as meter:
        while done < rounds:
            for _ in range(SETUPS_PER_ROUND):
                qx = inputs = None
                gc.collect()
                setup_tracer = harness.Tracer(trace, meter.clock)
                first = meter.sample()
                setup_start = meter.clock()
                qx = harness.fresh_import()
                seed = qx.acceptance.DEFAULT_SEED if seed is None else seed
                inputs = workload.setup(qx, seed, setup_tracer)
                raw = meter.clock() - setup_start
                meter.sample()
                factor = meter.factor(first)
                setups.append((raw * factor, factor, setup_tracer))
            for tracing in (False, True) if trace else (False,):
                gc.collect()
                tracer = harness.Tracer(tracing, meter.clock)
                op = harness.Pass(tracer, meter)
                workload.run_pass(qx, inputs, op, tracer)
                (traced if tracing else untraced).append(op)
            done += 1
            if done == 1:
                rounds = max(1, round(seconds / (time.perf_counter() - start)))
                # Every round's re-imports add to the high-water mark, so it
                # is read while the number of rounds behind it is fixed.
                rss = harness.peak_rss_mb()
    probes = _run_probes(workload, qx, inputs)

    ops = untraced + traced
    attempted = sum(len(p.durations) for p in ops)
    failed = sum(len(p.failures) for p in ops)
    probe_failed = sum(not p["ok"] for p in probes)
    record = {
        "context": harness.run_context(name, seed, seconds, trace),
        "sizes": workload.sizes(inputs),
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f"{k}: {v}" for p in ops for k, v in p.failures.items()}),
        "probes": probes,
        "fail_rate": (failed + probe_failed) / (attempted + len(probes)),
        "setup_s": [t for t, _, _ in setups],
        "passes": [
            {"wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s, "ops": p.durations, "factors": p.factors}
            for p in untraced
        ],
    }
    if not trace:
        typical = _typical_op_s(untraced)
        metrics = {
            "wall_s": sum(typical.values()),
            "max_op_s": max(typical.values()),
            "setup_s": _median([t for t, _, _ in setups]),
            "peak_rss_mb": rss,
        }
        record["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        return record

    layers = [harness.layer_times(p.tracer.spans, p.factors) for p in traced]
    setup_layers = [harness.layer_times(tracer.spans, {None: f}) for _, f, tracer in setups]
    metrics = {}
    for span in LAYER_SPANS:
        in_setup = _median([t.get(span, {}).get("total_s", 0.0) for t in setup_layers])
        in_passes = _median([t.get(span, {}).get("total_s", 0.0) for t in layers])
        metrics[f"{span}_s"] = (in_setup + in_passes, "s")
    counts = dict(setups[0][2].counts)
    for key, value in traced[0].tracer.counts.items():
        counts[key] = counts.get(key, 0) + value
    for key in LAYER_COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    attempts = counts.get("rep.crystal_attempts", 0)
    metrics["rep.crystal_hit_ratio"] = (
        counts.get("rep.crystal_hits", 0) / attempts if attempts else 0.0,
        "ratio",
    )
    metrics["fail_rate"] = (record["fail_rate"], "ratio")
    overhead = _median([p.wall_s for p in traced]) - _median([p.wall_s for p in untraced])
    metrics["trace.overhead_s"] = (overhead, "s")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["counts_repeat"] = all(
        p.tracer.counts == traced[0].tracer.counts for p in traced
    ) and all(tracer.counts == setups[0][2].counts for _, _, tracer in setups)
    record["layers"] = {"setup": _median_layers(setup_layers), "passes": _median_layers(layers)}
    record["spans"] = {
        "setup": [tracer.spans for _, _, tracer in setups],
        "passes": [p.tracer.spans for p in traced],
    }
    return record


def _report(record: dict) -> None:
    ctx = record["context"]
    print(
        f"quivex benchmark: workload {ctx['workload']}, seed {ctx['seed']}, "
        f"{len(record['passes'])} untraced passes, trace {int(ctx['trace'])}"
    )
    print("context " + json.dumps(ctx, sort_keys=True))
    print("sizes " + json.dumps(record["sizes"], sort_keys=True))
    for key, metric in record["metrics"].items():
        print(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}")
    raw = _median([p["raw_wall_s"] for p in record["passes"]])
    factor = _median([f for p in record["passes"] for f in p["factors"].values()])
    print(f"  raw wall time of a pass {raw:.4g} s at a median speed factor of {factor:.4g}")
    probe_failed = sum(not p["ok"] for p in record["probes"])
    print(
        f"  {'fail_rate':<28} {record['fail_rate']:>14.6g} ratio "
        f"({record['failed']} of {record['attempted']} operations, "
        f"{probe_failed} of {len(record['probes'])} known-defect probes)"
    )
    for line in record["failures"]:
        print(f"  FAILED {line[:300]}")
    for probe in record["probes"]:
        print(f"  probe {probe['name']}: {'ok' if probe['ok'] else 'FAILED ' + probe['error']}")
    if ctx["trace"]:
        print(f"  {'layer (median traced pass)':<28} {'total_s':>10} {'self_s':>10}")
        for span, t in record["layers"]["passes"].items():
            print(f"  {span:<28} {t['total_s']:>10.4f} {t['self_s']:>10.4f}")
        for span, t in record["layers"]["setup"].items():
            print(f"  {span + ' (set-up)':<28} {t['total_s']:>10.4f} {t['self_s']:>10.4f}")
        overhead = record["metrics"]["trace.overhead_s"]["value"]
        print(f"  tracing overhead on {ctx['workload']}: {overhead:+.4f} s per pass")


def _write(record: dict) -> None:
    ctx = record["context"]
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{ctx['workload']}-seed{ctx['seed']}-trace{int(ctx['trace'])}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")


def _result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0 and all(
                p["ok"] or p["error"] != "wrong value" for p in record["probes"]
            ),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{key}": metric
            for name, r in results.items()
            for key, metric in r["metrics"].items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None, help="default: acceptance.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _report(record)
    _write(record)
    print(_result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
