"""Analytic error-rate and capacity models, plus photon-statistics diagnostics.

The decoding error model treats the spectral-line magnitude and the local
noise-floor magnitude as Gaussian variables with measured moments.  The
probability that one floor channel beats the line then has the closed form

    p = Phi(-(line_mean - floor_mean) / sqrt(line_std**2 + floor_std**2))

and a band misdecodes with probability 1 - (1 - p)**M, where M counts the
line's competitors: the band's width - 1 other channels.
The closed form is the reference for rates below Monte-Carlo reach; the
tests check it against a numeric quadrature of the underlying double
Gaussian integral.

Capacity counts distinct k-subsets of the channel grid with exact
big-integer arithmetic, converts to bits per integration window, and
discounts by the binary entropy of the residual symbol error.

The remaining helpers are bench diagnostics: the intensity correlation
g2(tau) and Mandel Q statistics that certify the source's photon
statistics, the two-port interferometric modulator transfer curve, and
the white-floor exceedance boundary used to draw detection thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import effective_channels, optimal_channels
from .photon_channel import NON_NEGATIVE, POSITIVE, REAL, UNIT, PhotonSequence
from .photon_channel import check_count, check_range, interval
from .spectral import LineStats, grid_points


class InsufficientDataError(ValueError):
    """Raised when a statistic is requested from too little data."""


# ---------------------------------------------------------------------------
# decoding error model
# ---------------------------------------------------------------------------

def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def misdecode_prob(model: LineStats) -> float:
    """Probability that one floor channel outgrows the line, closed form.

    The difference of two independent Gaussians is Gaussian, so
    P(floor > line) reduces to a single normal CDF evaluation.
    """
    gap = model.line_mean - model.floor_mean
    spread = math.hypot(model.line_std, model.floor_std)
    return _norm_cdf(-gap / spread)


def channel_error_rate(p: float, channels: int) -> float:
    """Band misdecode probability 1 - (1-p)**M in a numerically stable form.

    ``channels`` is M, the count of the line's competitors: the band's
    width - 1.  One competitor gives ``p`` itself.
    """
    check_range(UNIT, p=p)
    check_count(interval(1, math.inf, "[)"), channels=channels)
    if p == 1.0 or channels == 1:
        return p
    return -math.expm1(channels * math.log1p(-p))


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityReport:
    """Channel-counting and throughput summary for one operating point."""

    m_opt: int
    m_max: int
    raw_bps: float
    effective_bps: float
    p_e: float
    entropy_term: float


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) in bits, with the 0*log(0) = 0 convention."""
    check_range(UNIT, p=p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def capacity(
    bandwidth: float,
    spacing: float,
    window: float,
    components: int,
    symbol_error: float = 0.0,
) -> CapacityReport:
    """Throughput of a k-tone alphabet over the available channel grid.

    The alphabet size is the exact binomial count of k-subsets of the
    channel grid; raw throughput is its log2 per integration window.  A
    nonzero residual symbol error discounts throughput by the binary
    entropy of the confusion probability, where a wrong symbol is assumed
    to land uniformly among the remaining alternatives (this is the source
    of the (m_max/(m_max - 1))/2 scaling).
    """
    check_range(POSITIVE, window=window)
    check_range(UNIT, symbol_error=symbol_error)
    check_count(interval(1, math.inf, "[)"), components=components)
    m_opt = optimal_channels(bandwidth, spacing)
    m_max = effective_channels(m_opt, components)
    raw = math.log2(m_max) / window
    p_e = symbol_error * (m_max / (m_max - 1)) / 2.0 if m_max > 1 else 0.0
    entropy = binary_entropy(p_e)
    return CapacityReport(
        m_opt=m_opt,
        m_max=m_max,
        raw_bps=raw,
        effective_bps=raw * (1.0 - entropy),
        p_e=p_e,
        entropy_term=entropy,
    )


# ---------------------------------------------------------------------------
# photon-statistics diagnostics
# ---------------------------------------------------------------------------

#: Most steps :func:`g2` takes, events times its bound on passes over them:
#: 3-6 ns a step on a 2-vCPU Xeon (the more pairs, the dearer), so a refused
#: call would have taken 3 s or more.
_G2_MAX_STEPS = 1e9


@dataclass(frozen=True)
class G2Curve:
    """Second-order intensity correlation estimate on uniform lag bins."""

    lags: np.ndarray
    values: np.ndarray
    pair_counts: np.ndarray


def g2(seq: PhotonSequence, max_lag: float, bin_width: float) -> G2Curve:
    """Estimate g2(tau) by forward pair counting.

    Counts ordered pairs (i, j>i) with lag below ``max_lag`` into uniform
    bins and divides by the pair count a homogeneous stream of the same
    event count would produce per bin.  Its ``count * (count - 1) / 2``
    pairs have lags of density ``2 * (window - tau) / window**2``, so a bin
    of width ``bin`` centred on ``tau`` expects
    ``count * (count - 1) * bin / window * (1 - tau / window)`` of them: the
    density is linear, so its value at the centre is exact over the bin.
    The last bin expects only its part below ``max_lag``, the lags it
    counts; ``max_lag`` may not exceed the window, past which no pair lies.
    Counting takes one pass over the events per offset, until no pair at
    that offset lies within ``max_lag``.  Events within ``max_lag`` of each
    other share two adjacent ``max_lag``-wide cells, so the passes are at
    most the events in the fullest two such cells; a ``max_lag`` under which
    the events times that bound exceed 1e9 is refused before counting,
    however the events bunch.
    A homogeneous stream gives 1 at all lags; a depth-m tone at frequency f
    gives 1 + (m**2 / 2) * cos(2*pi*f*tau).
    """
    check_range(POSITIVE, bin_width=bin_width)
    check_range(interval(bin_width, math.inf, "[)"), max_lag=max_lag)
    n_bins = grid_points(np.rint(max_lag / bin_width), "widen bin_width or shorten max_lag")
    check_range(interval(bin_width, seq.window, "[]"), max_lag=max_lag)  # after the cap and its remedy
    t = seq.seconds
    n = t.size
    window = seq.window
    cells, counts = np.unique(np.floor(t / max_lag), return_counts=True)
    adjacent = counts[:-1] + counts[1:] * (np.diff(cells) == 1)
    passes = int(max(counts.max(initial=0), adjacent.max(initial=0)))
    if n * passes > _G2_MAX_STEPS:
        raise ValueError(f"max_lag {max_lag:g} s would take up to {passes} passes over {n} events, "
                         f"past the {_G2_MAX_STEPS:.0e}-step bound; shorten max_lag")
    edges = bin_width * np.arange(n_bins + 1)
    hist = np.zeros(n_bins, dtype=np.int64)

    # accumulate forward differences offset by offset; stop once the
    # smallest difference at an offset exceeds the horizon
    offset = 1
    while offset < n:
        d = t[offset:] - t[:-offset]
        inside = d < max_lag
        if not inside.any():
            break
        hist += np.histogram(d[inside], bins=edges)[0]
        offset += 1

    if not hist.any():
        raise InsufficientDataError("no photon pairs within max_lag; need more events")
    lows, tops = edges[:-1], np.minimum(edges[1:], max_lag)
    expected_per_bin = n * (n - 1) * (tops - lows) / window * (1.0 - 0.5 * (lows + tops) / window)
    return G2Curve(lags=lows + 0.5 * bin_width, values=hist / expected_per_bin, pair_counts=hist)


def mandel_q(counts: np.ndarray | PhotonSequence, window: float | None = None) -> float:
    """Mandel Q = (Var(N) - E[N]) / E[N] over per-window photon counts.

    Accepts either an array of per-window counts or a single sequence plus
    a sub-window length, in which case the sequence is chopped into
    consecutive windows (a trailing partial window is discarded).  At
    least 100 windows are required.
    """
    if isinstance(counts, PhotonSequence):
        check_range(POSITIVE, window=window)
        n_windows = grid_points(np.floor(counts.window / window),
                                "lengthen window or shorten the capture")
        idx = np.floor(counts.seconds / window).astype(np.int64)
        values = np.bincount(idx[idx < n_windows], minlength=n_windows).astype(np.float64)
    else:
        values = np.asarray(counts, dtype=np.float64)
    if values.size < 100:
        raise InsufficientDataError(f"only {values.size} complete windows; need at least 100")
    mean = values.mean()
    if mean == 0.0:
        raise InsufficientDataError("all windows empty")
    return float((values.var(ddof=1) - mean) / mean)


def expected_mandel_q(rate: float, depth: float, frequency: float, window: float) -> float:
    """Analytic Q for a single tone observed over random-phase windows.

    By the law of total variance the count variance exceeds the Poisson
    value by the variance of the integrated rate across the uniform phase
    ensemble, giving

        Q = 2 * rate * depth**2 * sin(pi*f*w)**2 / ((2*pi*f)**2 * w)

    which vanishes whenever the window holds an integer number of
    modulation cycles.

    Consecutive windows of one sequence march through phase in steps of
    2*pi*f*w, so they only sample this ensemble when f*w is not close to
    a small rational; at f*w = 1/2, say, windows alternate between two
    fixed phases and the measured excess can reach twice this value.
    """
    check_range(NON_NEGATIVE, rate=rate)
    check_range(UNIT, depth=depth)
    check_range(POSITIVE, frequency=frequency, window=window)
    w = 2.0 * math.pi * frequency
    return 2.0 * rate * (depth * math.sin(0.5 * w * window) / w) ** 2 / window


def modulator_transfer(theta: float, mean_photons: float) -> tuple[float, float]:
    """Mean photon numbers at the two ports of an interferometric modulator.

    The constructive port passes mu*(1+cos(theta))/2 and the other port
    the complement; the two always sum to mu exactly.
    """
    check_range(REAL, theta=theta)
    check_range(NON_NEGATIVE, mean_photons=mean_photons)
    bright = mean_photons * (1.0 + math.cos(theta)) / 2.0
    return bright, mean_photons - bright


def noise_floor_boundary(count: float, n_frequencies: int, miss_prob: float = 0.002) -> float:
    """Magnitude below which a pure-noise scan stays with high probability.

    For a homogeneous stream of N events the squared floor magnitude at
    any fixed frequency is exponential with mean N, so by a union bound
    over n probe frequencies the maximum stays below
    sqrt(N * ln(n / miss_prob)) except with probability about miss_prob.
    """
    check_range(POSITIVE, count=count)
    check_count(interval(1, math.inf, "[)"), n_frequencies=n_frequencies)
    check_range(interval(0.0, 1.0), miss_prob=miss_prob)
    return float(np.sqrt(count * np.log(n_frequencies / miss_prob)))
