"""Spectral estimation directly from photon timestamps.

With only a handful of detections per window there is no waveform to
Fourier-transform.  Instead the estimator evaluates, at each probe
frequency, the coherent sum of unit phasors over the raw arrival times

    X(f) = sum_i exp(-2j*pi*f*t_i)

whose magnitude concentrates at the intensity-modulation frequencies:
``|X(0)|`` equals the event count, an unmodulated stream contributes a
flat noise floor with ``E[|X|^2] = count``, and a full-depth modulation
at frequency ``f`` raises a line of expected magnitude ``count/2`` (per
shared tone) on top of that floor.  All decoding reduces to comparing
these magnitudes across a known channel grid.

:func:`phasor_sums` is the one kernel for the sum, over a batch of trials;
:func:`point_dft`, :func:`point_dft_many`, :func:`batch_amplitudes`,
:func:`periodogram` and :func:`band_peak` adapt it.  :func:`band_argmax`
is the one per-band decision, shared by decoding and the sweeps.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .photon_channel import EventBatch, LinkBudget, PhotonSequence, SourceConfig, sample_event_batch

#: Refuse to build evaluation grids larger than this (denser grids are a
#: sign of a mistaken resolution argument, not a real need).
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class Band:
    """A closed frequency interval [low, high] in Hz."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0.0 < self.low < self.high:
            raise ValueError(f"band must satisfy 0 < low < high, got [{self.low}, {self.high}]")

    def contains(self, frequency: float) -> bool:
        return self.low <= frequency <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low


@dataclass(frozen=True)
class Spectrum:
    """A sampled spectrum: probe frequencies and complex phasor sums."""

    frequencies: np.ndarray
    values: np.ndarray
    window: float
    count: int

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frequency_hz", "re", "im", "abs"])
            for f, v in zip(self.frequencies, self.values):
                writer.writerow([repr(float(f)), repr(float(v.real)),
                                 repr(float(v.imag)), repr(float(abs(v)))])


@dataclass(frozen=True)
class LineStats:
    """Monte-Carlo amplitude moments at a line and its local noise floor."""

    line_mean: float
    line_std: float
    floor_mean: float
    floor_std: float
    trials: int

    @classmethod
    def from_amplitudes(cls, line: np.ndarray, floor: np.ndarray) -> "LineStats":
        """Moments of the line magnitudes and of the floor magnitudes pooled.

        ``line`` holds one magnitude per trial; ``floor`` holds one row of
        floor-channel magnitudes per trial.  Spreads are sample standard
        deviations, so at least two trials are needed.
        """
        trials = len(line)
        if trials < 2:
            raise ValueError(f"trials must be >= 2 to estimate a spread, got {trials}")
        floor = floor.ravel()
        return cls(
            line_mean=float(line.mean()),
            line_std=float(line.std(ddof=1)),
            floor_mean=float(floor.mean()),
            floor_std=float(floor.std(ddof=1)),
            trials=trials,
        )


# ---------------------------------------------------------------------------
# phasor sums
# ---------------------------------------------------------------------------

#: Most phasors (frequencies x events) evaluated by one ``exp`` call.  Its
#: temporaries then stay in a 2 MiB L2 cache: on a Xeon with that cache, a
#: 2k-event window at 33 channels ran ~1.4x slower as one 64k-phasor call.
PHASOR_CHUNK = 1 << 15


def phasor_sums(times: np.ndarray, frequencies: np.ndarray,
                trial_ids: np.ndarray | None = None, trials: int = 1) -> np.ndarray:
    """Phasor sums of each trial at each frequency, complex, shape (trials, len(frequencies)).

    Event ``i`` belongs to trial ``trial_ids[i]`` in ``[0, trials)``, or to
    trial 0 when ``trial_ids`` is omitted: a single sequence is a batch of
    one.  Events are grouped by trial once; each block of at most
    :data:`PHASOR_CHUNK` phasors is then reduced per trial by ``reduceat``.
    """
    t = np.asarray(times, dtype=np.float64)
    freqs = np.asarray(frequencies, dtype=np.float64)
    tid = np.zeros(t.size, dtype=np.intp) if trial_ids is None else np.asarray(trial_ids)
    if tid.shape != t.shape or (tid.size and not 0 <= tid.min() <= tid.max() < trials):
        raise ValueError(f"trial_ids must match times in shape and lie in [0, {trials})")
    order = np.argsort(tid, kind="stable")
    t, tid = t[order], tid[order]
    out = np.zeros((trials, freqs.size), dtype=np.complex128)
    events = max(1, min(t.size, PHASOR_CHUNK))
    step = max(1, PHASOR_CHUNK // events)
    for lo in range(0, t.size, events):
        block, owner = t[lo: lo + events], tid[lo: lo + events]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        for f0 in range(0, freqs.size, step):
            phasors = np.exp(-2j * np.pi * np.outer(freqs[f0: f0 + step], block))
            out[owner[starts], f0: f0 + step] += np.add.reduceat(phasors, starts, axis=1).T
    return out


def band_argmax(magnitudes: np.ndarray, widths: Sequence[int]) -> np.ndarray:
    """In-band index of the strongest channel per band, ties to the lowest index.

    The last axis of ``magnitudes`` holds the bands' channels side by side,
    ``widths[b]`` for band ``b``; that axis becomes one entry per band.
    """
    mags = np.asarray(magnitudes)
    if sum(widths) != mags.shape[-1]:
        raise ValueError(f"band widths {list(widths)} do not tile {mags.shape[-1]} channels")
    segments = np.split(mags, np.cumsum(widths)[:-1], axis=-1)
    return np.stack([np.argmax(s, axis=-1) for s in segments], axis=-1)


def point_dft(seq: PhotonSequence, frequency: float) -> complex:
    """Evaluate the phasor sum of one sequence at a single frequency."""
    return complex(phasor_sums(seq.seconds, [frequency])[0, 0])


def point_dft_many(seq: PhotonSequence, frequencies: np.ndarray) -> np.ndarray:
    """Phasor sums of one sequence at many frequencies, shape (len(frequencies),)."""
    return phasor_sums(seq.seconds, frequencies)[0]


def batch_amplitudes(batch: EventBatch, frequencies: np.ndarray) -> np.ndarray:
    """Phasor-sum magnitudes for every trial of a batch, shape (trials, len(frequencies))."""
    return np.abs(phasor_sums(batch.times, frequencies, batch.trial_ids, batch.trials))


def periodogram(seq: PhotonSequence, band: Band, resolution: float) -> Spectrum:
    """Scan a band on a uniform grid of the given resolution (Hz/point)."""
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    n = int(np.floor(band.width / resolution)) + 1
    if n > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {n} points exceeds the {MAX_GRID_POINTS}-point cap; "
            "coarsen the resolution or narrow the band"
        )
    freqs = band.low + resolution * np.arange(n)
    return Spectrum(freqs, point_dft_many(seq, freqs), seq.window, len(seq))


def band_peak(seq: PhotonSequence, channel_frequencies: np.ndarray) -> tuple[int, float, float]:
    """Pick the strongest channel of a band.

    Returns (index, frequency, magnitude) of the channel with the largest
    phasor-sum magnitude.  Exact ties resolve to the lowest frequency.
    """
    freqs = np.asarray(channel_frequencies, dtype=np.float64)
    mags = np.abs(point_dft_many(seq, freqs))
    idx = int(band_argmax(mags, [freqs.size])[0])
    return idx, float(freqs[idx]), float(mags[idx])


# ---------------------------------------------------------------------------
# analytic expectation
# ---------------------------------------------------------------------------

def _finite_exp_integral(a: np.ndarray | float, duration: float) -> np.ndarray | complex:
    """Integral of exp(1j*a*t) over [0, duration], removable singularity included.

    Equals ``duration * exp(1j*a*duration/2) * sinc(a*duration/(2*pi))``,
    which is exact for a = 0 as well.
    """
    return duration * np.exp(0.5j * np.asarray(a) * duration) * np.sinc(
        np.asarray(a) * duration / (2.0 * np.pi)
    )


def expected_line(config: SourceConfig, frequency: float) -> complex:
    """Expectation of the phasor sum X(frequency) under the source model.

    By the first-moment identity for Poisson point processes the
    expectation is the Fourier integral of the rate function over the
    window; each tone contributes two shifted-frequency terms and the
    constant offset contributes a sinc-shaped leakage term.
    """
    w = 2.0 * np.pi * frequency
    T = config.duration
    total = config.mean_rate * _finite_exp_integral(-w, T)
    for tone in config.tones:
        wm = 2.0 * np.pi * tone.frequency
        term = (
            np.exp(1j * tone.phase) * _finite_exp_integral(wm - w, T)
            - np.exp(-1j * tone.phase) * _finite_exp_integral(-(wm + w), T)
        ) / 2j
        total += (config.mean_rate / len(config.tones)) * tone.depth * term
    return complex(total)


# ---------------------------------------------------------------------------
# channel housekeeping and Monte-Carlo moments
# ---------------------------------------------------------------------------

def floor_channels(channel_frequencies: np.ndarray, line_frequency: float) -> np.ndarray:
    """Channels usable as noise-floor probes around an active line.

    Drops the line channel and its nearest neighbor on each side, since
    those carry leakage from the line itself; everything else in the band
    measures the white floor.  A band too narrow to keep any channel that
    way falls back to every channel but the line.  Passing the index
    ladder ``np.arange(M)`` and a line index returns floor column indices.
    """
    freqs = np.asarray(channel_frequencies)
    if freqs.size < 2:
        raise ValueError("a band needs at least two channels to measure a floor")
    idx = int(np.argmin(np.abs(freqs - line_frequency)))
    mask = np.ones(freqs.size, dtype=bool)
    mask[max(idx - 1, 0): idx + 2] = False
    if not mask.any():
        mask = np.arange(freqs.size) != idx
    return freqs[mask]


def line_stats(
    config: SourceConfig,
    line_frequency: float,
    floor_frequencies: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    budget: LinkBudget | None = None,
) -> LineStats:
    """Estimate amplitude moments at the line and pooled over floor channels."""
    floors = np.asarray(floor_frequencies, dtype=np.float64)
    batch = sample_event_batch(config, trials, rng, budget)
    amps = batch_amplitudes(batch, np.concatenate([[line_frequency], floors]))
    return LineStats.from_amplitudes(amps[:, 0], amps[:, 1:])
