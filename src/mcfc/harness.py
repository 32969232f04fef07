"""Monte-Carlo experiment runner: error-rate sweeps, the per-window link, results files.

Each sweep fixes an operating point, varies one parameter over a grid, and
reports per grid point both the empirical decode error (with a Wilson 95%
interval) and the analytic prediction obtained by feeding measured
line/floor moments through the Gaussian error model; :func:`band_model`
is the one line/floor measurement, a band's moments and its error rate.
Points whose empirical error count is zero are flagged analytic-only: the
harness never turns an absence of observed errors into a rate claim.

Reproducibility: every grid point draws from an independent substream
derived from (seed, sweep label[, tone count], point index), so
results do not depend on evaluation order and re-running any single point
in isolation reproduces it bit-exactly.  Trials inside a point are
vectorized over one substream rather than individually seeded; this is a
deliberate trade of per-trial addressing for an order-of-magnitude faster
inner loop.

Images, ``encode`` and ``transmit-text`` share one per-window link, and
every CSV results file goes through :func:`write_csv`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .analysis import InsufficientDataError, channel_error_rate, misdecode_prob
from .codec import FrequencyPlan, Symbol, decode, encode, image_to_symbols, symbols_to_image, DecodeError
from .codec import write_json
from .photon_channel import (
    LinkBudget,
    PhotonSequence,
    SourceConfig,
    Tone,
    WINDOW,
    derive_rng,
    sample_event_batch,
    transmit,
)
from .photon_channel import NON_NEGATIVE, POSITIVE, atomic_write, check_count, check_range, interval
from .spectral import LineStats, band_argmax, batch_amplitudes, floor_channels


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """One sweep definition: the swept grid plus the fixed operating point.

    Runners read the subset of fields they need; unused fields are ignored.
    ``components`` lists the tone counts to run (most sweeps use just one).
    """

    grid: tuple[float, ...]
    trials: int = 10_000
    seed: int = 0
    window: float = 1e-3
    signal_rate: float = 80_000.0
    modulation_frequency: float = 200_000.0
    spacing: float = 1_000.0
    channels_per_band: int = 11
    components: tuple[int, ...] = (1,)
    mean_count: float = 80.0
    budget: LinkBudget = LinkBudget()

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("sweep grid must be nonempty")
        # two trials to estimate a spread, two channels a band to measure a floor
        check_count(interval(2, math.inf, "[)"),
                    **{repr(n): getattr(self, n) for n in ("trials", "channels_per_band")})
        check_count(NON_NEGATIVE, **{"'seed'": self.seed})  # numpy seeds from non-negative integers only
        check_range(NON_NEGATIVE, **{"'signal_rate'": self.signal_rate})  # 0: the pure-noise point
        check_range(WINDOW, **{"'window'": self.window})
        check_range(POSITIVE, **{repr(n): getattr(self, n)
                                 for n in ("modulation_frequency", "spacing", "mean_count")})
        for value in self.grid:  # a rate, a time or a spacing; a runner may ask more
            check_range(NON_NEGATIVE, **{"'grid'": value})
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if not self.components:
            raise ValueError("'components' must list tone counts >= 1, got []")
        for k in self.components:
            check_count(interval(1, math.inf, "[)"), **{"'components'": k})
        object.__setattr__(self, "components", tuple(int(k) for k in self.components))


@dataclass(frozen=True)
class SweepPoint:
    """Result at one grid point."""

    parameter: str
    value: float
    components: int
    trials: int
    errors: int
    empirical_rate: float
    wilson_low: float
    wilson_high: float
    analytic_rate: float
    line_mean: float
    line_std: float
    floor_mean: float
    floor_std: float

    @property
    def analytic_only(self) -> bool:
        """True when no errors were observed and only the analytic rate is meaningful."""
        return self.errors == 0


@dataclass(frozen=True)
class ImageReport:
    """Outcome of one image transmission."""

    pixels: int
    pixel_errors: int
    failed_pixels: int
    band_errors: dict[str, int] = field(default_factory=dict)

    @property
    def pixel_error_rate(self) -> float:
        return self.pixel_errors / self.pixels if self.pixels else 0.0


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    check_count(interval(1, math.inf, "[)"), trials=trials)
    check_count(interval(0, trials, "[]"), errors=errors)
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * float(np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)))
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# shared measurement core
# ---------------------------------------------------------------------------

def band_model(amplitudes: np.ndarray, line: int) -> tuple[LineStats, float]:
    """The one line/floor measurement: one band's moments and its Gaussian-model error rate.

    ``amplitudes`` holds one row of the band's channel magnitudes per trial
    and ``line`` is the line's column.  The floor pools the columns that
    :func:`floor_channels` keeps.  Spreads are sample standard deviations,
    so at least two trials are needed.  The rate is that of the line
    losing to any of the band's ``width - 1`` competitors.
    """
    trials, width = amplitudes.shape
    check_count(interval(2, math.inf, "[)"), trials=trials)  # two to estimate a spread
    probes = floor_channels(width, line)  # checks ``line`` before it indexes
    line_amps = amplitudes[:, line]
    floor = amplitudes[:, probes].ravel()
    stats = LineStats(float(line_amps.mean()), float(line_amps.std(ddof=1)),
                      float(floor.mean()), float(floor.std(ddof=1)))
    return stats, channel_error_rate(misdecode_prob(stats), width - 1)


def _measure_point(
    parameter: str,
    value: float,
    components: int,
    config: SourceConfig,
    bands: Sequence[np.ndarray],
    line_indices: Sequence[int],
    trials: int,
    rng: np.random.Generator,
    budget: LinkBudget,
) -> SweepPoint:
    """Sample one operating point, decide every band and summarize.

    ``bands`` holds the channel grid of each band, ``line_indices`` the
    true channel index per band.  A trial errs when any band's argmax
    misses its line; the analytic rate combines the bands' rates from
    :func:`band_model`, and the reported moments are those of the first band.
    """
    widths = [len(b) for b in bands]
    all_freqs = np.concatenate([np.asarray(b, dtype=np.float64) for b in bands])
    batch = sample_event_batch(config, trials, rng, budget)
    if batch.times.size == 0:
        raise InsufficientDataError(
            f"no photons detected at {parameter} = {value:g} in any of {trials} trials"
        )
    amps = batch_amplitudes(batch, all_freqs)
    errors = int((band_argmax(amps, widths) != np.asarray(line_indices)).any(axis=1).sum())

    models = [band_model(segment, line)
              for segment, line in zip(np.split(amps, np.cumsum(widths)[:-1], axis=1), line_indices)]
    analytic = 0.0
    for _, rate in models:  # 1 - prod(1 - r_b) with no cancellation in the tail; one band's r exactly
        analytic += rate * (1.0 - analytic)
    first = models[0][0]
    low, high = wilson_interval(errors, trials)
    return SweepPoint(
        parameter=parameter,
        value=value,
        components=components,
        trials=trials,
        errors=errors,
        empirical_rate=errors / trials,
        wilson_low=low,
        wilson_high=high,
        analytic_rate=analytic,
        line_mean=first.line_mean,
        line_std=first.line_std,
        floor_mean=first.floor_mean,
        floor_std=first.floor_std,
    )


def _centered_band(center: float, spacing: float, channels: int, what: str) -> np.ndarray:
    """Channel ladder of ``channels`` frequencies centered on ``center``, ``what`` naming the centre.

    A channel at or below 0 Hz would hold ``|X(0)|`` = count and win every
    trial, so such a band is refused.
    """
    half = channels // 2
    if not center - spacing * half > 0:
        raise ValueError(f"{what} {center:g} Hz less {half} channels of 'spacing' {spacing:g} Hz "
                         f"('channels_per_band' {channels}) puts a channel at {center - spacing * half:g} Hz;"
                         " every channel must lie above 0 Hz")
    return center + spacing * (np.arange(channels) - half)


def _units(seed: int, label: str, items: Iterable, unit: Callable, *path: int) -> Iterator:
    """Lazily, ``unit(item, rng)`` for each item ``i``, ``rng`` being ``derive_rng(seed, label, *path, i)``.

    The harness's one source of generators: each sweep point and each link
    window is an independent unit on its own substream.
    """
    return (unit(item, derive_rng(seed, label, *path, i)) for i, item in enumerate(items))


def _sweep(spec: SweepSpec, label: str, parameter: str, point: Callable, components: int,
           *path: int) -> list[SweepPoint]:
    """One :func:`_measure_point` per grid value; ``point(value)`` gives its source, bands, lines, budget."""
    def measure(value: float, rng: np.random.Generator) -> SweepPoint:
        config, bands, lines, budget = point(value)
        return _measure_point(parameter, value, components, config, bands, lines, spec.trials, rng, budget)
    return list(_units(spec.seed, label, spec.grid, measure, *path))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def run_error_vs_noise(spec: SweepSpec) -> list[SweepPoint]:
    """Decode error versus background-noise rate at fixed signal rate.

    One full-depth tone at ``modulation_frequency``; the decoder picks the
    strongest of ``channels_per_band`` channels centered on the tone.
    """
    band = _centered_band(spec.modulation_frequency, spec.spacing, spec.channels_per_band,
                          "'modulation_frequency'")
    config = SourceConfig(spec.signal_rate, spec.window, (Tone(spec.modulation_frequency),))
    return _sweep(spec, "error-vs-noise", "noise_rate_cps", lambda noise: (
        config, [band], [spec.channels_per_band // 2], replace(spec.budget, noise_rate=noise)), 1)


def run_error_vs_integration_time(spec: SweepSpec) -> list[SweepPoint]:
    """Decode error versus window length at fixed per-window mean count.

    The photon budget per window stays at ``mean_count`` while the window
    stretches, so the signal rate falls as 1/window.  Competing channels
    sit at the tone frequency plus 1..(channels_per_band-1) multiples of
    the window's natural grid 1/window, strictly above the line so every
    probe stays positive even for very short windows.
    """
    check_range(WINDOW, **{"'grid'": min(spec.grid)})
    f_m = spec.modulation_frequency
    return _sweep(spec, "error-vs-window", "window_s", lambda window: (
        SourceConfig(spec.mean_count / window, window, (Tone(f_m),)),
        [f_m + np.arange(spec.channels_per_band) / window], [0], spec.budget), 1)


def run_error_vs_spacing(spec: SweepSpec) -> list[SweepPoint]:
    """Decode error versus channel spacing for one active + one idle channel.

    The active channel stays fixed on the window's natural grid near
    ``modulation_frequency``; a single competitor sits ``spacing`` above
    it.  Leakage from the active line into the competitor produces the
    characteristic damped oscillation as spacing grows.
    """
    check_range(POSITIVE, **{"'grid'": min(spec.grid)})
    base = round(spec.modulation_frequency * spec.window) / spec.window
    if not base > 0:
        raise ValueError(f"'modulation_frequency' {spec.modulation_frequency:g} Hz rounds to {base:g} Hz "
                         f"on the 'window''s {1 / spec.window:g} Hz grid; the line must lie above 0 Hz")
    config = SourceConfig(spec.signal_rate, spec.window, (Tone(base),))
    return _sweep(spec, "error-vs-spacing", "spacing_hz", lambda spacing: (
        config, [np.asarray([base, base + spacing])], [0], spec.budget), 1)


def _tone_count_sweep(spec: SweepSpec, label: str, decided_bands: int | None) -> list[SweepPoint]:
    """Signal-rate sweep per tone count, deciding the first ``decided_bands`` bands (all if None).

    The k tones sit one per band, at the centres of bands 20 kHz apart from 30 kHz,
    so with two tones or more a band must span less than those 20 kHz.
    """
    step, span = 20_000.0, spec.spacing * (spec.channels_per_band - 1)
    if max(spec.components) > 1 and not span < step:
        raise ValueError(f"'spacing' {spec.spacing:g} Hz over 'channels_per_band' {spec.channels_per_band} "
                         f"spans {span:g} Hz; bands {step:g} Hz apart would share channels, so with "
                         f"'components' above 1 the span must be below {step:g} Hz")
    line = spec.channels_per_band // 2
    points = []
    for k in spec.components:
        bands = [_centered_band(30_000.0 + step * b, spec.spacing, spec.channels_per_band,
                                f"band {b}'s centre") for b in range(k)]
        tones = tuple(Tone(float(band[line])) for band in bands)
        bands = bands[:decided_bands]
        points += _sweep(spec, label, "signal_rate_cps", lambda rate: (  # run before the next k rebinds
            SourceConfig(rate, spec.window, tones), bands, [line] * len(bands), spec.budget), k, k)
    return points


def run_error_vs_components(spec: SweepSpec) -> list[SweepPoint]:
    """Symbol error versus signal rate for each tone count in ``spec.components``.

    The total detected rate is held fixed while k tones share it, one tone
    per band; a symbol decodes correctly only if every band's argmax lands
    on its line.
    """
    return _tone_count_sweep(spec, "error-vs-components", None)


def run_amplitude_nonlinearity(spec: SweepSpec) -> list[SweepPoint]:
    """Line and floor amplitude moments versus signal rate, per tone count.

    Only the first band is measured and decided; with k tones sharing the
    fixed total rate the per-band line amplitude shrinks accordingly,
    which is exactly the effect this sweep quantifies.
    """
    return _tone_count_sweep(spec, "amplitude", 1)


#: Each sweep's runner and the config keys it does not read, its grid's among them.
SWEEPS = {
    "error-vs-noise": (run_error_vs_noise, {"components", "mean_count", "budget.noise_rate"}),
    "error-vs-integration-time": (run_error_vs_integration_time,
                                  {"window", "signal_rate", "spacing", "components"}),
    "error-vs-spacing": (run_error_vs_spacing, {"spacing", "channels_per_band", "components", "mean_count"}),
    "error-vs-components": (run_error_vs_components, {"signal_rate", "modulation_frequency", "mean_count"}),
    "amplitude": (run_amplitude_nonlinearity, {"signal_rate", "modulation_frequency", "mean_count"}),
}


# ---------------------------------------------------------------------------
# the per-window link
# ---------------------------------------------------------------------------

def transmit_windows(tone_sets: Iterable[tuple[Tone, ...]], signal_rate: float, window: float,
                     budget: LinkBudget, seed: int, label: str) -> Iterator[PhotonSequence]:
    """One window per tone set, window ``i`` drawn from ``derive_rng(seed, label, i)``.

    The source (rate and window) is checked when this is called, before
    the first window; windows are then transmitted one at a time as the
    result is iterated.
    """
    source = SourceConfig(signal_rate, window)
    return _units(seed, label, tone_sets,
                  lambda tones, rng: transmit(replace(source, tones=tones), budget, rng))


def decode_windows(windows: Iterable[PhotonSequence], plan: FrequencyPlan) -> Iterator[Symbol | None]:
    """The symbol of each window, or None for a window that does not decode."""
    for seq in windows:
        try:
            yield decode(seq, plan)
        except DecodeError:
            yield None


def run_image_transmission(
    pixels: np.ndarray,
    plan: FrequencyPlan,
    signal_rate: float,
    budget: LinkBudget | None = None,
    seed: int = 0,
    window: float = 1e-3,
) -> tuple[np.ndarray, ImageReport]:
    """Encode an image, push every pixel's window through the channel, decode.

    Each pixel is one integration window carrying one tone per band.  The
    received image renders undecodable windows in the sentinel color.
    """
    sent = image_to_symbols(pixels)
    budget = budget or LinkBudget()
    windows = transmit_windows(encode(sent, plan), signal_rate, window, budget, seed, "image")
    received = list(decode_windows(windows, plan))
    band_errors = {  # an undecodable window counts against every band
        band.name: sum(got is None or got.value[b] != sym.value[b] for sym, got in zip(sent, received))
        for b, band in enumerate(plan.bands)
    }
    report = ImageReport(len(sent), sum(r != s for s, r in zip(sent, received)),
                         received.count(None), band_errors)
    return symbols_to_image(received, pixels.shape[:2]), report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _cell(value):
    """A CSV cell: integers (numpy ones and bools too) as int, other numbers as repr(float)."""
    if isinstance(value, float):  # numpy's float64 too: the common cell, before the ABC checks
        return repr(float(value))
    if isinstance(value, (numbers.Integral, np.bool_)):
        return int(value)
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return value


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one results writer: a header line, then one line per row, with the csv module's CRLF ends."""
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_sweep_csv(path: str | os.PathLike, points: Sequence[SweepPoint]) -> None:
    """One line per point: the :class:`SweepPoint` fields, then ``analytic_only``."""
    columns = [f.name for f in fields(SweepPoint)] + ["analytic_only"]
    write_csv(path, columns, ([getattr(p, c) for c in columns] for p in points))


def write_manifest(path: str | os.PathLike, config: dict, outputs: Sequence[str]) -> None:
    """Record what produced a result set: version, seed, config digest.

    Deliberately contains no timestamps so identical runs produce
    identical manifests.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    doc = {
        "version": _pkg_version,
        "seed": config.get("seed"),
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": config,
        "outputs": list(outputs),
    }
    write_json(path, doc)
