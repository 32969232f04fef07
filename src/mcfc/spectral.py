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
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

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

def point_dft(seq: PhotonSequence, frequency: float) -> complex:
    """Evaluate the phasor sum of one sequence at a single frequency."""
    t = seq.seconds
    return complex(np.sum(np.exp(-2j * np.pi * frequency * t)))


def point_dft_many(seq: PhotonSequence, frequencies: np.ndarray) -> np.ndarray:
    """Phasor sums of one sequence at many frequencies, shape (len(frequencies),)."""
    freqs = np.asarray(frequencies, dtype=np.float64)
    t = seq.seconds
    if t.size == 0:
        return np.zeros(freqs.shape, dtype=np.complex128)
    # outer product in chunks keeps peak memory bounded for long sequences
    out = np.empty(freqs.shape, dtype=np.complex128)
    chunk = max(1, int(4e6 // max(t.size, 1)))
    for start in range(0, freqs.size, chunk):
        sl = slice(start, start + chunk)
        out[sl] = np.exp(-2j * np.pi * np.outer(freqs[sl], t)).sum(axis=1)
    return out


def batch_amplitudes(batch: EventBatch, frequencies: np.ndarray) -> np.ndarray:
    """Phasor-sum magnitudes for every trial of a batch.

    Returns an array of shape (trials, len(frequencies)).  One
    ``bincount`` pass per frequency over the flat event arrays; this is
    the workhorse of every Monte-Carlo sweep.
    """
    freqs = np.asarray(frequencies, dtype=np.float64)
    out = np.empty((batch.trials, freqs.size), dtype=np.float64)
    t, tid = batch.times, batch.trial_ids
    for j, f in enumerate(freqs):
        ph = np.exp(-2j * np.pi * f * t)
        re = np.bincount(tid, weights=ph.real, minlength=batch.trials)
        im = np.bincount(tid, weights=ph.imag, minlength=batch.trials)
        out[:, j] = np.hypot(re, im)
    return out


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
    idx = int(np.argmax(mags))  # argmax returns the first (lowest-f) maximum on ties
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
    if config.tones:
        k = len(config.tones)
        for tone in config.tones:
            wm = 2.0 * np.pi * tone.frequency
            term = (
                np.exp(1j * tone.phase) * _finite_exp_integral(wm - w, T)
                - np.exp(-1j * tone.phase) * _finite_exp_integral(-(wm + w), T)
            ) / 2j
            total += (config.mean_rate / k) * tone.depth * term
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
