"""Benchmark of the mcfc link on three workloads, driven through its public API.

Usage, from the root of a checkout::

    python3 linkbench/run.py --workload image-link --seed 1 --seconds 25 --trace 0

``--workload`` is ``image-link``, ``mc-sweep`` or ``capture-scan`` (see
``workloads.py`` for what each stresses and why).  One run:

1. times set-up in fresh processes: import ``mcfc`` and build the plan and
   seeded inputs, ``SETUP_SAMPLES`` times, reporting the median;
2. builds the same inputs here and warms up on a small slice of them;
3. repeats the workload's unit (one image, one sweep, one capture-scan) on
   those inputs until ``--seconds`` would be exceeded, checking every
   operation's output;
4. prints the metrics, one per line, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
each round runs the unit once untraced and once under a tracer that wraps
every layer boundary (``tracing.LAYER_TARGETS``), and the metrics are the
per-layer ones plus ``trace.overhead_s``, the traced minus the untraced
median time of the unit.  The run record (seed, ``nproc``, library
versions, thread-pool limits, output fingerprints, and for a traced run
every span) is written to ``.linkbench/<workload>-seed<seed>-trace<t>.json``.

The run exits with code 2, printing no result, when the checkout holds no
``src/mcfc`` or ``mcfc`` no longer makes the calls the benchmark watches.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bootstrap
import tracing

WORKLOAD_NAMES = ("image-link", "mc-sweep", "capture-scan")
SETUP_SAMPLES = 3

#: End-to-end metrics: (name, unit).  ``work_per_s`` counts windows decoded
#: (image-link), Monte Carlo trials (mc-sweep) or periodogram points
#: (capture-scan); ``op_ms_*`` is the latency of one operation: a window, a
#: sweep point or, on capture-scan, the ``spectrum`` call (the other two CLI
#: calls are checked and counted but are not latency samples, see
#: ``workloads.CaptureScan``; with one sample a unit, its percentiles are
#: all that sample).
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("events_per_s", "1/s"),
    ("work_per_s", "1/s"), ("op_ms_p90", "ms"),
)
#: Printed but not in the result line, because each spreads across runs of
#: the same code by more than any bound the benchmark may take.  Window
#: latency on image-link has two modes about 1.5x apart whose shares change
#: from unit to unit, so the median jumps between them (IQR/median 0.16 over
#: ten seeds, 0.32 in an earlier check) while the 90th percentile stays in
#: the slower mode.  The 99th percentile of 1024 windows is set by the few
#: that a stall of a shared machine lands on.
REPORT_ONLY = (("op_ms_p50", "ms"), ("op_ms_p99", "ms"))
#: The names of ``work_per_s`` and ``op_ms_*`` on each workload.
ALIASES = {
    "image-link": {"work_per_s": "symbols_per_s", "op_ms_p50": "window_ms_p50",
                   "op_ms_p90": "window_ms_p90", "op_ms_p99": "window_ms_p99"},
    "mc-sweep": {"work_per_s": "trials_per_s", "op_ms_p50": "point_ms_p50",
                 "op_ms_p90": "point_ms_p90", "op_ms_p99": "point_ms_p99"},
    "capture-scan": {"work_per_s": "scan_points_per_s", "op_ms_p50": "scan_ms_p50",
                     "op_ms_p90": "scan_ms_p90", "op_ms_p99": "scan_ms_p99"},
}

LAYERS = ("photon_channel", "spectral", "codec", "analysis", "harness", "cli")
STAGES = (
    "photon_channel.source", "photon_channel.loss", "photon_channel.noise",
    "photon_channel.detector", "photon_channel.batch", "photon_channel.pts1_write",
    "photon_channel.pts1_read", "spectral.point_dft_many", "spectral.batch_amplitudes",
    "spectral.periodogram", "codec.image", "analysis.error_model", "analysis.g2",
    "analysis.mandel_q",
)
KERNELS = ("spectral.point_dft_many", "spectral.batch_amplitudes", "spectral.periodogram")
COUNTS = (
    ("photon_channel.source.events_out", "count"), ("photon_channel.loss.events_dropped", "count"),
    ("photon_channel.noise.events_added", "count"), ("photon_channel.detector.events_in", "count"),
    ("photon_channel.detector.events_dropped", "count"),
    ("photon_channel.batch.events_out", "count"), ("photon_channel.pts1.bytes", "B"),
    ("spectral.phasor_evals", "count"), ("spectral.bytes_computed", "B"),
    ("codec.decode.calls", "count"), ("codec.decode.failures", "count"),
    ("analysis.g2.pairs", "count"),
)
#: Per-layer metrics in the result line of a traced run: every exact count,
#: and the times that each workload exercises.  Times of a layer a workload
#: bypasses are zero by design; they are in the report lines and the record.
PER_LAYER = COUNTS + (
    ("photon_channel.self_s", "s"), ("spectral.self_s", "s"),
    ("spectral.phasor_evals_per_s", "1/s"), ("trace.overhead_s", "s"),
)


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has built the inputs."""
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "setup_probe.py"), workload, str(seed),
           str(workdir)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=bootstrap.ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {err.strip()}")
        samples.append(ready - start)
    return samples


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def op_percentiles_ms(outcome) -> tuple[float, float, float]:
    """50th, 90th and 99th percentile of operation latency within one unit."""
    if len(outcome.op_s) == 1:
        return (1e3 * outcome.op_s[0],) * 3
    cuts = statistics.quantiles([1e3 * s for s in outcome.op_s], n=100, method="inclusive")
    return cuts[49], cuts[89], cuts[98]


def end_to_end(plain, setup: list[float]) -> dict[str, float]:
    # percentiles are taken per unit and their median reported, so that one
    # unit slowed by another process on the machine does not set the tail,
    # and so that each percentile of the few unequal sweep points stays the
    # same blend of them however many units a run holds
    per_unit = [op_percentiles_ms(o) for o in plain if o.op_s]
    return {
        "setup_s": median_or_zero(setup),
        "wall_s": median_or_zero(o.wall_s for o in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events_per_s": median_or_zero(o.events / o.wall_s for o in plain),
        "work_per_s": median_or_zero(o.work / o.wall_s for o in plain),
        "op_ms_p50": median_or_zero(p[0] for p in per_unit),
        "op_ms_p90": median_or_zero(p[1] for p in per_unit),
        "op_ms_p99": median_or_zero(p[2] for p in per_unit),
    }


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced unit."""
    busy, own, layer = tracing.span_times(tracer.spans)
    metrics = {f"{stage}.busy_s": busy.get(stage, 0.0) for stage in STAGES}
    metrics.update({f"{name}.self_s": layer.get(name, 0.0) for name in LAYERS})
    metrics["codec.decode.self_s"] = own.get("codec.decode", 0.0)
    metrics.update({name: tracer.counts[name] for name, _ in COUNTS})
    kernel_s = sum(busy.get(k, 0.0) for k in KERNELS)
    metrics["spectral.phasor_evals_per_s"] = (
        tracer.counts["spectral.phasor_evals"] / kernel_s if kernel_s else 0.0
    )
    metrics["trace.attributed_s"] = sum(layer.values())
    return metrics


def per_layer(plain, under_trace) -> dict[str, float]:
    per_unit = [layer_metrics(tracer) for _, tracer in under_trace]
    metrics = {name: median_or_zero(m[name] for m in per_unit) for name in per_unit[0]}
    # the inputs are the same in every unit, so the counts are too
    metrics.update({name: statistics.median_low(m[name] for m in per_unit) for name, _ in COUNTS})
    metrics["trace.traced_wall_s"] = median_or_zero(o.wall_s for o, _ in under_trace)
    metrics["trace.untraced_wall_s"] = median_or_zero(o.wall_s for o in plain)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def unit_of(name: str) -> str:
    """Unit of a reported metric; the ones not listed are all in seconds."""
    return dict(END_TO_END + REPORT_ONLY + PER_LAYER).get(name, "s")


def record(args, limits, plain, under_trace, setup, metrics, versions) -> dict:
    outcomes = plain + [o for o, _ in under_trace]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": bootstrap.nproc(),
        "load_generators": 1,
        "thread_limits": limits,
        "versions": versions,
        "setup_samples_s": setup,
        "unit_wall_s": [o.wall_s for o in plain],
        "traced_unit_wall_s": [o.wall_s for o, _ in under_trace],
        "units": len(plain),
        "traced_units": len(under_trace),
        "op_samples": sum(len(o.op_s) for o in plain),
        "fingerprints": sorted({o.fingerprint for o in outcomes}),
        "notes": sorted({n for o in outcomes for n in o.notes})[:50],
        "metrics": metrics,
    }
    if under_trace:
        doc["spans"] = [
            [[name, s - tracer.spans[0][1], e - tracer.spans[0][1], parent]
             for name, s, e, parent in tracer.spans]
            for _, tracer in under_trace
        ]
        doc["counts"] = [dict(tracer.counts) for _, tracer in under_trace]
    return doc


def print_report(args, metrics: dict, doc: dict, attempted: int, failed: int) -> None:
    print(f"linkbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{doc['units']} units, {doc['op_samples']} operation samples, "
          f"nproc={doc['nproc']}, python {doc['versions']['python']}, "
          f"numpy {doc['versions']['numpy']}, scipy {doc['versions']['scipy']}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value!r} {unit_of(name)}")
        alias = ALIASES[args.workload].get(name)
        if alias:
            print(f"  {alias:<42} {value!r} {unit_of(name)}")
    print(f"  {'failed_ops_ratio':<42} {failed / attempted!r} ratio ({failed}/{attempted})")
    if args.trace:
        gap = metrics["trace.attributed_s"] - metrics["trace.untraced_wall_s"]
        print(f"  layer self times sum to {metrics['trace.attributed_s']!r} s: "
              f"{gap!r} s off the untraced wall_s, against a tracing overhead of "
              f"{metrics['trace.overhead_s']!r} s")
    for fingerprint in doc["fingerprints"]:
        print(f"  output sha256 {fingerprint}")
    for note in doc["notes"]:
        print(f"  FAILED: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limits = bootstrap.pin_threads()
    try:
        bootstrap.use_source_tree()
    except bootstrap.MissingSourceError as exc:
        print(f"linkbench: {exc}", file=sys.stderr)
        return 2

    bootstrap.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bootstrap.WORK_DIR, prefix="run-") as tmp:
        workdir = Path(tmp)
        setup = measure_setup(args.workload, args.seed, workdir)

        import mcfc
        import numpy
        import scipy
        import workloads

        bootstrap.check_imported(mcfc)
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.build(args.seed, workdir)
        workload.warm(inputs)
        try:
            plain, under_trace = workloads.measure(workload, inputs, args.seconds,
                                                   bool(args.trace))
        except workloads.BindingError as exc:
            print(f"linkbench: {exc}; the benchmark needs updating", file=sys.stderr)
            return 2

    outcomes = plain + [o for o, _ in under_trace]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if args.trace:
        metrics = per_layer(plain, under_trace)
        names = PER_LAYER
    else:
        metrics = end_to_end(plain, setup)
        names = END_TO_END
    versions = {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "mcfc": mcfc.__version__}
    doc = record(args, limits, plain, under_trace, setup, metrics, versions)
    out = bootstrap.WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc) + "\n")

    print_report(args, metrics, doc, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
