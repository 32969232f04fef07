"""The three link workloads: seeded inputs, one timed unit each, and its checks.

Each workload is a closed loop: the benchmark makes one call into ``mcfc``,
waits for it, and only then makes the next.  ``mcfc`` receives only the
inputs built here from the benchmark's ``--seed``.

* ``image-link`` sends a seeded random 32x32 RGB image through
  ``harness.run_image_transmission``: 1024 windows of 1 ms, each a small
  per-sequence pass through the photon channel, ``point_dft_many`` and
  ``decode``.  Per-call overhead dominates.  The batch sampler,
  ``batch_amplitudes`` and ``periodogram`` are never touched.
* ``mc-sweep`` runs ``harness.run_error_vs_components`` for one and three
  tones over four rates from chance-level error to error-free: a few large
  vectorised ``sample_event_batch`` and ``batch_amplitudes`` calls over
  flat event arrays, plus the analytic error model.  It bypasses the
  per-sequence pipeline, ``decode``, ``periodogram`` and PTS1.
* ``capture-scan`` calls ``cli.main`` in-process to generate a 1 s capture
  (about 180k events, through the dead-time loop), scan it over 501 points
  at 1 Hz (the dense-grid case a type-1 NUFFT would speed up), and print
  its statistics (g2 pair counting, Mandel Q).  It is the only workload
  with a PTS1 write and read and with the ``cli`` layer, and it bypasses
  the batch sampler and ``decode``.

Every check compares against a model or an independent computation, never
against a stored output, so it survives a change in RNG consumption or in
summation order.

Operation latency and the event count of the untraced runs come from a
probe on the one call ``mcfc`` makes per operation: ``decode`` per window
and ``sample_event_batch`` per sweep point.  If that stops being true the
run raises :class:`BindingError` instead of reporting wrong numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import special

from mcfc import cli, codec, harness, photon_channel, spectral
from tracing import LAYER_TARGETS, Target, Tracer


@dataclass
class Outcome:
    """One timed unit of a workload and the verdict of its checks."""

    wall_s: float
    op_s: list[float]  # latency of each window, sweep point or spectrum call
    attempted: int
    failed: int  # operations that raised or failed a check
    events: int  # photon events produced by photon_channel
    work: int  # windows decoded, Monte Carlo trials, or periodogram points
    fingerprint: str  # sha256 of the received image, sweep CSV or spectrum CSV
    notes: list[str] = field(default_factory=list)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class BindingError(RuntimeError):
    """``mcfc`` no longer calls the function a probe watches once per operation."""


def _op_latencies(edges: list[float]) -> list[float]:
    """Latency of each operation from the boundaries between consecutive operations."""
    return [b - a for a, b in zip(edges, edges[1:])]


# ---------------------------------------------------------------------------
# image-link
# ---------------------------------------------------------------------------

IMAGE_SIDE = 32
IMAGE_WINDOW = 1e-3
#: Chosen by decode margin, the line minus the strongest other channel of a
#: band in units of sqrt(events): on seeds 0-9 (30,720 band decisions) the
#: median is 4.8 and the minimum 2.2, where 2.88 Mcps gave 3.9 and 1.1.
#: Run ``margin.py`` to repeat this.
IMAGE_RATE = 4.32e6
IMAGE_BUDGET = photon_channel.LinkBudget(
    transmittance=0.5, noise_rate=100e3, jitter_sigma=1e-9, dead_time=50e-9, rep_period=100e-9
)


@dataclass(frozen=True)
class ImageInputs:
    seed: int
    pixels: np.ndarray
    plan: codec.FrequencyPlan
    expected: np.ndarray  # the image after 11-level quantisation


def _quantised(pixels: np.ndarray) -> np.ndarray:
    levels = codec.IMAGE_LEVELS - 1
    return np.round(np.round(pixels * (levels / 255.0)) * (255.0 / levels)).astype(np.uint8)


def _decoded_events(c, args, out) -> None:
    c["events"] += len(args[0])


class ImageLink:
    name = "image-link"
    ops = IMAGE_SIDE * IMAGE_SIDE

    def build(self, seed: int, workdir: Path) -> ImageInputs:
        pixels = np.random.default_rng(seed).integers(
            0, 256, size=(IMAGE_SIDE, IMAGE_SIDE, 3), dtype=np.uint8
        )
        return ImageInputs(seed, pixels, codec.rgb_image_plan(), _quantised(pixels))

    def warm(self, inp: ImageInputs) -> None:
        harness.run_image_transmission(inp.pixels[:1, :16], inp.plan, IMAGE_RATE,
                                       IMAGE_BUDGET, seed=inp.seed, window=IMAGE_WINDOW)

    def run(self, inp: ImageInputs) -> Outcome:
        windows = self.ops
        probe = Tracer((Target("mcfc.harness", "decode", "window", _decoded_events),))
        start = time.perf_counter()
        with probe.installed():
            received, report = harness.run_image_transmission(
                inp.pixels, inp.plan, IMAGE_RATE, IMAGE_BUDGET, seed=inp.seed, window=IMAGE_WINDOW
            )
        end = time.perf_counter()
        if len(probe.spans) != windows:
            raise BindingError(f"expected one decode per window, saw {len(probe.spans)} "
                               f"for {windows} windows")

        notes = []
        wrong = np.any(np.asarray(received) != inp.expected, axis=2)
        failed = max(int(wrong.sum()), report.pixel_errors, report.failed_pixels)
        if failed:
            notes.append(f"{int(wrong.sum())} wrong pixels, {report.pixel_errors} pixel errors "
                         f"and {report.failed_pixels} undecodable windows reported")
        return Outcome(
            wall_s=end - start,
            op_s=_op_latencies([start] + [s[2] for s in probe.spans]),
            attempted=windows,
            failed=failed,
            events=probe.counts["events"],
            work=windows,
            fingerprint=_sha256(np.ascontiguousarray(received).tobytes()),
            notes=notes,
        )


# ---------------------------------------------------------------------------
# mc-sweep
# ---------------------------------------------------------------------------

SWEEP_RATES = tuple(float(r) for r in np.geomspace(80e3, 1.44e6, 4))
SWEEP_COMPONENTS = (1, 3)
#: Fewer than the 2000 a point first proposed, so that a sweep takes about
#: 7 s and several fit in one run.
SWEEP_TRIALS = 800
SWEEP_WINDOW = 1e-3
SWEEP_CHANNELS = 11
#: The line and floor moments of a sweep point come from its first band,
#: which is centred on this tone (see ``harness.run_error_vs_components``).
SWEEP_LINE_HZ = 30_000.0
SWEEP_BAND_PITCH_HZ = 20_000.0
#: A point's moments must lie within this many standard errors of the model.
SWEEP_Z = 6.0


def _batch_events(c, args, out) -> None:
    c["events"] += int(out.times.size)


def _rice_moments(nu: float, sigma2: float) -> tuple[float, float]:
    """Mean and variance of |nu + complex Gaussian noise of variance sigma2 per component|."""
    a = nu * nu / (2.0 * sigma2)
    mean = math.sqrt(sigma2 * math.pi / 2.0) * ((1.0 + a) * special.i0e(a / 2.0)
                                                + a * special.i1e(a / 2.0))
    return mean, nu * nu + 2.0 * sigma2 - mean * mean


def check_sweep_point(point, trials: int) -> list[str]:
    """Compare a point's line and floor moments with the Poisson phasor model.

    The line is a Rician magnitude around ``|spectral.expected_line|`` with
    noise variance N/2 per component (N the expected count); the floor
    channels sit on zeros of every line's leakage, so they are Rayleigh with
    mean sqrt(pi*N)/2.
    """
    k = point.components
    tones = tuple(photon_channel.Tone(SWEEP_LINE_HZ + SWEEP_BAND_PITCH_HZ * b) for b in range(k))
    config = photon_channel.SourceConfig(point.value, SWEEP_WINDOW, tones)
    n = config.expected_count
    line_mean, line_var = _rice_moments(abs(spectral.expected_line(config, SWEEP_LINE_HZ)), n / 2.0)
    floor_mean = math.sqrt(math.pi * n) / 2.0
    floor_sd = math.sqrt((4.0 - math.pi) / 4.0 * n)
    floor_samples = trials * (SWEEP_CHANNELS - 3)
    problems = []
    if abs(point.line_mean - line_mean) > SWEEP_Z * math.sqrt(line_var / trials):
        problems.append(f"k={k} rate={point.value:.6g}: line_mean {point.line_mean:.6g}, "
                        f"model {line_mean:.6g}")
    if abs(point.floor_mean - floor_mean) > SWEEP_Z * floor_sd / math.sqrt(floor_samples):
        problems.append(f"k={k} rate={point.value:.6g}: floor_mean {point.floor_mean:.6g}, "
                        f"model {floor_mean:.6g}")
    if point.trials != trials:
        problems.append(f"k={k} rate={point.value:.6g}: {point.trials} trials, asked {trials}")
    return problems


class McSweep:
    name = "mc-sweep"
    ops = len(SWEEP_RATES) * len(SWEEP_COMPONENTS)

    def build(self, seed: int, workdir: Path) -> tuple[harness.SweepSpec, Path]:
        spec = harness.SweepSpec(
            grid=SWEEP_RATES, trials=SWEEP_TRIALS, seed=seed, window=SWEEP_WINDOW,
            spacing=1_000.0, channels_per_band=SWEEP_CHANNELS, components=SWEEP_COMPONENTS,
        )
        return spec, workdir / "error-vs-components.csv"

    def warm(self, inp) -> None:
        spec, _ = inp
        harness.run_error_vs_components(replace(spec, trials=20))

    def run(self, inp) -> Outcome:
        spec, csv_path = inp
        n_points = self.ops
        probe = Tracer((Target("mcfc.harness", "sample_event_batch", "point", _batch_events),))
        start = time.perf_counter()
        with probe.installed():
            points = harness.run_error_vs_components(spec)
        end = time.perf_counter()
        if len(probe.spans) != n_points:
            raise BindingError(f"expected one batch per sweep point, saw {len(probe.spans)} "
                               f"for {n_points} points")

        notes = []
        failed = 0
        for point in points:
            problems = check_sweep_point(point, spec.trials)
            failed += bool(problems)
            notes.extend(problems)
        three = [p.errors for p in points if p.components == 3]
        rising = sum(b > a for a, b in zip(three, three[1:]))
        if rising or len(three) != len(SWEEP_RATES) or three[0] <= three[-1]:
            failed += max(rising, 1)
            notes.append(f"k=3 error counts do not fall across the grid: {three}")
        if len(points) != n_points:
            failed = n_points
            notes.append(f"{len(points)} sweep points, expected {n_points}")
        failed = min(failed, n_points)

        harness.write_sweep_csv(csv_path, points)
        return Outcome(
            wall_s=end - start,
            op_s=_op_latencies([start] + [s[1] for s in probe.spans[1:]] + [end]),
            attempted=n_points,
            failed=failed,
            events=probe.counts["events"],
            work=spec.trials * len(points),
            fingerprint=_sha256(csv_path.read_bytes()),
            notes=notes,
        )


# ---------------------------------------------------------------------------
# capture-scan
# ---------------------------------------------------------------------------

CAPTURE_TONE_HZ = 50_000.0
SCAN_LOW_HZ, SCAN_HIGH_HZ, SCAN_STEP_HZ = 49_750.0, 50_250.0, 1.0
SCAN_POINTS = int(round((SCAN_HIGH_HZ - SCAN_LOW_HZ) / SCAN_STEP_HZ)) + 1
#: The phasor-kernel gate: relative agreement with the direct sum.
SCAN_REL_TOL = 1e-9
_PTS1_MAGIC = b"PHTS0001"


@dataclass(frozen=True)
class CaptureInputs:
    capture: Path
    spectrum: Path
    argv: tuple[tuple[str, ...], ...]  # generate, spectrum, stats


def _parse_pts1(blob: bytes) -> np.ndarray:
    """Event times in seconds from a PTS1 file, parsed without ``mcfc``."""
    if len(blob) < 24 or blob[:8] != _PTS1_MAGIC:
        raise ValueError("not a PTS1 file")
    count = int.from_bytes(blob[16:24], "little")
    if len(blob) != 24 + 8 * count:
        raise ValueError(f"PTS1 header promises {count} events in {len(blob)} bytes")
    ps = np.frombuffer(blob, dtype="<u8", count=count, offset=24)
    if np.any(ps[1:] < ps[:-1]):
        raise ValueError("PTS1 times out of order")
    if count and int(ps[-1]) >= int.from_bytes(blob[8:16], "little"):
        raise ValueError("PTS1 times outside the window")
    return ps.astype(np.float64) / 1e12


def _direct_sum(t: np.ndarray, f: float) -> complex:
    """Exactly rounded sum of exp(-2*pi*i*f*t) over the events, in float64."""
    phase = 2.0 * np.pi * (f * t)
    return complex(math.fsum(np.cos(phase)), -math.fsum(np.sin(phase)))


def check_spectrum(spectrum_csv: bytes, times: np.ndarray) -> list[str]:
    """The peak is at the tone, and probe points match the direct sum."""
    rows = np.loadtxt(io.StringIO(spectrum_csv.decode()), delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (SCAN_POINTS, 4):
        return [f"spectrum has shape {rows.shape}, expected ({SCAN_POINTS}, 4)"]
    freqs, values = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
    problems = []
    peak = int(np.argmax(rows[:, 3]))
    if freqs[peak] != CAPTURE_TONE_HZ:
        problems.append(f"peak at {float(freqs[peak])!r} Hz, tone at {CAPTURE_TONE_HZ!r} Hz")
    m = len(freqs)
    for i in sorted({0, m // 4, m // 2 - 1, peak, m // 2 + 1, 3 * m // 4, m - 1}):
        ref = _direct_sum(times, float(freqs[i]))
        rel = abs(values[i] - ref) / abs(ref)
        if not rel <= SCAN_REL_TOL:
            problems.append(f"X({float(freqs[i])!r} Hz) is {complex(values[i])!r}, "
                            f"direct sum {ref!r} (relative error {rel:.3g})")
    return problems


class CaptureScan:
    name = "capture-scan"
    ops = 3

    def build(self, seed: int, workdir: Path) -> CaptureInputs:
        capture, spectrum = workdir / "capture.pts1", workdir / "spectrum.csv"
        generate = (
            "generate", "--rate", "200e3", "--tone", f"{CAPTURE_TONE_HZ!r}", "--duration", "1.0",
            "--seed", str(seed), "--out", str(capture), "--transmittance", "0.8",
            "--noise-rate", "20e3", "--dark-rate", "1e3", "--jitter", "50e-12",
            "--dead-time", "50e-9", "--rep-period", "10e-9",
        )
        scan = ("spectrum", "--in", str(capture), "--low", f"{SCAN_LOW_HZ!r}",
                "--high", f"{SCAN_HIGH_HZ!r}", "--resolution", f"{SCAN_STEP_HZ!r}",
                "--out", str(spectrum))
        stats = ("stats", "--in", str(capture), "--mandel-window", "1e-3",
                 "--g2-max-lag", "1e-4", "--g2-bin", "2e-6")
        return CaptureInputs(capture, spectrum, (generate, scan, stats))

    def warm(self, inp: CaptureInputs) -> None:
        """All three calls on a 0.12 s capture scanned at 100 Hz steps."""
        shorter = {"--duration": "0.12", "--resolution": "100.0"}
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in inp.argv:
                cli.main([shorter.get(prev, arg) for prev, arg in zip(("",) + argv, argv)])

    def run(self, inp: CaptureInputs) -> Outcome:
        """Generate, scan and summarise one capture.

        Only the ``spectrum`` call is a latency sample: the three calls
        differ in cost by a factor of a hundred, so a percentile over all of
        them would be whichever small call happens to sit in the middle.
        """
        # a file left by the previous unit must not pass for this unit's output
        inp.capture.unlink(missing_ok=True)
        inp.spectrum.unlink(missing_ok=True)
        codes, outputs, op_s = [], [], []
        start = time.perf_counter()
        for argv in inp.argv:
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(list(argv)))
            op_s.append(time.perf_counter() - t0)
            outputs.append(out.getvalue())
        end = time.perf_counter()

        notes = [f"{argv[0]} exited {rc}" for argv, rc in zip(inp.argv, codes) if rc != 0]
        bad = {argv[0] for argv, rc in zip(inp.argv, codes) if rc != 0}
        times = np.empty(0)
        try:
            times = _parse_pts1(inp.capture.read_bytes())
        except (OSError, ValueError) as exc:
            notes.append(f"capture: {exc}")
            bad.add("generate")
        written = re.search(r": (\d+) events", outputs[0])
        if not written or int(written.group(1)) != times.size:
            notes.append(f"generate reported {written and written.group(1)} events, "
                         f"PTS1 holds {times.size}")
            bad.add("generate")
        counted = re.search(r"^events: (\d+)$", outputs[2], re.MULTILINE)
        if not counted or int(counted.group(1)) != times.size:
            notes.append(f"stats counted {counted and counted.group(1)} events, "
                         f"PTS1 holds {times.size}")
            bad.add("stats")
        fingerprint = ""
        try:
            spectrum_csv = inp.spectrum.read_bytes()
            fingerprint = _sha256(spectrum_csv)
            problems = check_spectrum(spectrum_csv, times)
        except (OSError, ValueError) as exc:
            problems = [f"spectrum: {exc}"]
        if problems:
            notes.extend(problems)
            bad.add("spectrum")
        return Outcome(
            wall_s=end - start,
            op_s=op_s[1:2],
            attempted=len(inp.argv),
            failed=len(bad),
            events=int(times.size),
            work=SCAN_POINTS,
            fingerprint=fingerprint,
            notes=notes,
        )


WORKLOADS = {w.name: w for w in (ImageLink(), McSweep(), CaptureScan())}


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def run_unit(workload, inputs) -> Outcome:
    """One unit of the workload; an exception fails every operation in it."""
    start = time.perf_counter()
    try:
        return workload.run(inputs)
    except BindingError:
        raise
    except Exception as exc:  # the program under test failed: count it, keep going
        return Outcome(
            wall_s=time.perf_counter() - start, op_s=[], attempted=workload.ops,
            failed=workload.ops, events=0, work=0, fingerprint="",
            notes=[f"{type(exc).__name__}: {exc}"],
        )


def measure(workload, inputs, seconds: float, traced: bool):
    """Repeat the unit until another round would pass ``seconds``.

    A traced round runs the unit untraced and traced, alternating which
    goes first.  Returns the untraced outcomes and (outcome, tracer) pairs.
    """
    plain, under_trace = [], []
    start = time.perf_counter()
    while True:
        steps = ["plain", "traced"] if traced else ["plain"]
        if len(plain) % 2:
            steps.reverse()
        for step in steps:
            if step == "plain":
                plain.append(run_unit(workload, inputs))
            else:
                tracer = Tracer(LAYER_TARGETS)
                with tracer.installed():
                    under_trace.append((run_unit(workload, inputs), tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, under_trace
