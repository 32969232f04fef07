"""Photon-stream generation and the detection channel.

Light at the single-photon level is modelled as an inhomogeneous Poisson
point process.  A transmitter superimposes one or more sinusoidal
intensity modulations on a weak coherent beam; the instantaneous rate for
a set of tones is

    rate(t) = (mean_rate / n_tones) * sum_i (1 + depth_i * sin(2*pi*f_i*t + phase_i))

so the time-averaged detection rate stays at ``mean_rate`` no matter how
many tones are active.  Sampling uses thinning of a homogeneous proposal
process, which is exact for bounded rate functions (Lewis & Shedler 1979):
candidate ``i`` is kept where ``u_i * ceiling < rate(t_i) * transmittance``.
Loss is a thinning too, so a candidate whose ``u_i * ceiling`` reaches the
most that float64 ``rate * transmittance`` can be is dropped first, with no
sine.  The rest are screened (Marsaglia's squeeze): an approximate rate, from
float64-reduced phases and float32 ``sin``, decides every candidate farther
than a derived error bound from it, and only the few within the bound take
the exact float64 test, so the kept events are those of the exact test, bit
for bit (see :func:`_screened_thinning` for the cut and the bound).  Uniform
draws come from ``Generator.random``, scaled where needed: the same numbers
as ``Generator.uniform``, which returns ``low + (high - low) * random()``.
The thinning levels are drawn :data:`SCREEN_CHUNK` candidates at a time into
one buffer, each chunk just before the screen decides it (the numbers of one
draw, in its order), and each chunk's survivors are gathered in place to the
front of the candidate times: sampling holds one candidate-sized array, 8 bytes
a candidate, beside a 1-byte mask.

One pipeline, :func:`sample_event_batch`, samples many trials at once:
source thinning with loss folded in, background light and dark counts,
timing jitter, then detector dead time and (optionally) gating onto a clock
grid.  Arrival stages work in float seconds, the detector in integer
picoseconds; jitter and the cast to picoseconds work in place, and the
dead-time walk visits only clusters of two or more events.  :func:`transmit`
runs it on one trial.  Four per-sequence stages remain, not exported from
``mcfc``, for the benchmark's tracer alone.

Timestamps are stored as integer picoseconds (``numpy.uint64``) so that
sequences survive serialization round trips bit-exactly.  The on-disk
container is a small binary format, see :func:`write_pts1`.
:class:`PhotonSequence` is the one check of timestamps, in memory or read
from a file: it names the first event out of order or outside the window.
Every count goes through :func:`check_count` with its real interval.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

PS_PER_SECOND = 10**12

#: Magic bytes identifying the binary timestamp container.
PTS1_MAGIC = b"PHTS0001"

_HEADER_BYTES = 24  # magic(8) + window_ps(8) + count(8)


class StreamFormatError(ValueError):
    """Raised when a serialized timestamp stream is malformed."""


class BadEventError(ValueError):
    """Raised by :class:`PhotonSequence` for event ``index``, out of order or outside the window."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def interval(low: float, high: float, ends: str = "()") -> tuple[float, float, str]:
    """The least and greatest floats from ``low`` to ``high``, each end closed (``[``, ``]``) or
    open (``(``, ``)``), and the interval's text: the ``bounds`` of :func:`check_range`."""
    return (low if ends[0] == "[" else math.nextafter(low, math.inf),
            high if ends[1] == "]" else math.nextafter(high, -math.inf),
            f"{ends[0]}{low:g}, {high:g}{ends[1]}")


REAL = interval(-math.inf, math.inf)
POSITIVE = interval(0.0, math.inf)
NON_NEGATIVE = interval(0.0, math.inf, "[)")
UNIT = interval(0.0, 1.0, "[]")
#: A window or duration in seconds: at least one picosecond, the tick of the timestamps.
WINDOW = interval(1.0 / PS_PER_SECOND, math.inf, "[)")


def check_range(bounds: tuple[float, float, str], **values: float) -> None:
    """The one range check: refuse, by name, any value that is not a finite number in ``bounds``.

    A bool is refused too: ``True`` is no frequency, rate or window, though Python counts it as 1.
    """
    low, high, text = bounds
    for name, value in values.items():
        try:
            ok = not isinstance(value, (bool, np.bool_)) and math.isfinite(value) and low <= value <= high
        except (TypeError, OverflowError):  # None, a string: not a number; an int past the float range
            ok = False
        if not ok:
            raise ValueError(f"{name} must be finite and in {text}, got {value!r}")


def check_count(bounds: tuple[float, float, str], **values: int) -> None:
    """:func:`check_range` for counts: refuse, by name, a bool or any value that is not an integer first."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    check_range(bounds, **values)


def check_finite(**arrays: np.ndarray) -> None:
    """Refuse, by name, an array holding NaN or an infinity: its first such value and that value's index."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            i = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(f"{name} must be finite, got {values.flat[i]} at index {i}")


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike, mode: str, newline: str | None = None):
    """The one write path: yield ``<path>.tmp.<pid>`` open in ``mode``, renamed onto ``path`` if the
    block succeeds (replacing a symlink or special file there too) and removed if it fails."""
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# deterministic stream derivation
# ---------------------------------------------------------------------------

def derive_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Derive an independent random generator for a labelled sub-task.

    Every stochastic stage of the pipeline draws from its own generator,
    derived from a root ``seed`` plus a path of integers or short string
    labels.  Two calls with the same arguments always return generators
    producing identical streams; distinct paths give statistically
    independent streams.  String labels are folded to integers with CRC32
    so the scheme is stable across platforms and sessions.
    """
    key = tuple(
        int(p) if not isinstance(p, str) else zlib.crc32(p.encode("utf-8"))
        for p in path
    )
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


# ---------------------------------------------------------------------------
# source model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tone:
    """One sinusoidal intensity modulation component.

    frequency : modulation frequency in Hz
    phase     : initial phase in radians
    depth     : modulation depth, 0..1 (1 = full on/off swing)
    """

    frequency: float
    phase: float = 0.0
    depth: float = 1.0

    def __post_init__(self) -> None:
        check_range(POSITIVE, frequency=self.frequency)
        check_range(UNIT, depth=self.depth)
        check_range(REAL, phase=self.phase)
        object.__setattr__(self, "phase", float(self.phase) % (2.0 * np.pi))


@dataclass(frozen=True)
class SourceConfig:
    """A modulated weak-light source observed for a fixed window.

    ``mean_rate`` is the time-averaged detected photon rate in counts/s and
    ``duration`` the observation window in seconds.  ``tones`` may be empty,
    in which case the source is homogeneous.
    """

    mean_rate: float
    duration: float
    tones: tuple[Tone, ...] = ()

    def __post_init__(self) -> None:
        check_range(NON_NEGATIVE, mean_rate=self.mean_rate)
        check_range(WINDOW, duration=self.duration)
        object.__setattr__(self, "tones", tuple(self.tones))

    def rate(self, t: np.ndarray | float) -> np.ndarray | float:
        """Instantaneous rate in counts/s at time(s) ``t``."""
        if not self.tones:
            return np.broadcast_to(self.mean_rate, np.shape(t)).copy() if np.ndim(t) else self.mean_rate
        k = len(self.tones)
        out = np.zeros_like(np.asarray(t, dtype=float))
        for tone in self.tones:
            out = out + 1.0 + tone.depth * np.sin(2.0 * np.pi * tone.frequency * np.asarray(t) + tone.phase)
        return out * (self.mean_rate / k)

    @property
    def rate_ceiling(self) -> float:
        """Least upper bound of :meth:`rate`, used as the thinning proposal rate."""
        if not self.tones:
            return self.mean_rate
        k = len(self.tones)
        return self.mean_rate / k * sum(1.0 + tone.depth for tone in self.tones)

    @property
    def expected_count(self) -> float:
        """Exact expected number of events, integral of the rate over the window."""
        total = self.mean_rate * self.duration
        for tone in self.tones:
            w = 2.0 * np.pi * tone.frequency
            total += (self.mean_rate / len(self.tones)) * tone.depth * (
                np.cos(tone.phase) - np.cos(w * self.duration + tone.phase)
            ) / w
        return total


# ---------------------------------------------------------------------------
# timestamp container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhotonSequence:
    """An ordered sequence of detection timestamps within one window.

    ``times_ps`` is a nondecreasing ``uint64`` array of picosecond
    timestamps, all strictly less than ``window_ps``.
    """

    times_ps: np.ndarray
    window_ps: int

    def __post_init__(self) -> None:
        """The one timestamp check: a refused sequence names its first bad event by index."""
        check_count(interval(1, math.inf, "[)"), window_ps=self.window_ps)
        arr, window_ps = np.asarray(self.times_ps, dtype=np.uint64), int(self.window_ps)
        if arr.ndim != 1:
            raise ValueError("times_ps must be one-dimensional")
        if arr.size and np.any(arr[1:] < arr[:-1]):
            i = int(np.argmax(arr[1:] < arr[:-1])) + 1
            raise BadEventError(i, f"event {i} precedes event {i - 1}")
        if arr.size and int(arr[-1]) >= window_ps:  # sorted: the first late event by bisection
            i = int(np.searchsorted(arr, np.uint64(window_ps)))  # a uint64 key: no float64 copy
            raise BadEventError(i, f"event {i} at {int(arr[i])} ps is outside the {window_ps} ps window")
        object.__setattr__(self, "times_ps", arr)
        object.__setattr__(self, "window_ps", window_ps)

    def __len__(self) -> int:
        return int(self.times_ps.size)

    @property
    def window(self) -> float:
        """Observation window length in seconds."""
        return self.window_ps / PS_PER_SECOND

    @property
    def seconds(self) -> np.ndarray:
        """Timestamps converted to float seconds."""
        return self.times_ps.astype(np.float64) / PS_PER_SECOND

    @classmethod
    def from_seconds(cls, times: Iterable[float], window: float) -> "PhotonSequence":
        """Build a sequence from float-second timestamps.

        Times are quantized to the picosecond grid; an event that rounds up
        to the window edge is clamped one tick inside so the closed
        invariant ``t < window`` holds after quantization.  A window that is
        not finite and at least 1 ps, or a time that is not finite, is refused
        before any cast.
        """
        check_range(WINDOW, window=window)
        window_ps = int(round(float(window) * PS_PER_SECOND))
        t = np.array(list(times) if not isinstance(times, np.ndarray) else times, dtype=np.float64)
        check_finite(times=t)
        if t.size and (np.any(t < 0.0) or np.any(t >= window)):
            raise ValueError("timestamps must lie in [0, window)")
        ps = _to_ps(t, window_ps)  # in the copy's own buffer
        ps.sort()
        return cls(ps.view(np.uint64), window_ps)

    @classmethod
    def empty(cls, window: float) -> "PhotonSequence":
        return cls.from_seconds((), window)


# ---------------------------------------------------------------------------
# receive-side budget
# ---------------------------------------------------------------------------

_TRANSMITTANCE = interval(0.0, 1.0, "(]")
#: Seconds that round to at least one picosecond: above half of one.
_WHOLE_PICOSECONDS = interval(0.5 / PS_PER_SECOND, math.inf)


@dataclass(frozen=True)
class LinkBudget:
    """Impairments applied between source and decoder.

    transmittance : probability a transmitted photon is detected (0..1]
    noise_rate    : homogeneous background rate added before the detector, counts/s
    dark_rate     : detector-generated homogeneous rate, counts/s
    jitter_sigma  : Gaussian timing jitter standard deviation, seconds
    dead_time     : non-extending detector dead time, seconds, compared in
                    integer picoseconds: without gating, registered events of
                    a window are at least ``round(dead_time / 1 ps)`` ps apart
    rep_period    : optional gated-detector clock period, seconds.  When set,
                    registered times are floored onto the clock grid and
                    events falling into one gate merge into a single count.
                    Gating follows dead time, so a gated gap can be shorter
                    than the dead time (5 ns dead time, 3 ns gate: 3000 ps).
    """

    transmittance: float = 1.0
    noise_rate: float = 0.0
    dark_rate: float = 0.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0
    rep_period: float | None = None

    def __post_init__(self) -> None:
        check_range(_TRANSMITTANCE, transmittance=self.transmittance)
        check_range(NON_NEGATIVE, noise_rate=self.noise_rate, dark_rate=self.dark_rate,
                    jitter_sigma=self.jitter_sigma, dead_time=self.dead_time)
        # the detector works in integer picoseconds, so a dead time or gate must round to >= 1 ps
        if self.dead_time:
            check_range(_WHOLE_PICOSECONDS, dead_time=self.dead_time)
        if self.rep_period is not None:
            check_range(_WHOLE_PICOSECONDS, rep_period=self.rep_period)


# ---------------------------------------------------------------------------
# the sampling pipeline, and the four per-sequence stages the tracer rebinds
# ---------------------------------------------------------------------------

#: Candidates per pass of the thinning screen (:func:`_survivors`): its five
#: work vectors, the levels among them, ~0.6 MB, stay in a 2 MiB L2 cache.
SCREEN_CHUNK = 1 << 14

#: Tone phases (rad) from which the thinning screen's reduction error would
#: exceed its float32 error bound, so every candidate takes the exact test.
_SCREEN_MAX_PHASE = 2.0**32


def _poisson_times(rate: float, duration: float, trials: int, rng: np.random.Generator):
    """Homogeneous Poisson arrivals on [0, duration): float seconds, grouped by trial, and counts."""
    counts = rng.poisson(rate * duration, size=trials)
    t = rng.random(int(counts.sum()))
    t *= duration  # rng.uniform(0.0, duration) to the bit: it returns 0.0 + duration * random()
    return t, counts


def _survivors(t: np.ndarray, rng: np.random.Generator, eta: float, config: SourceConfig) -> np.ndarray:
    """Keep each event with probability ``eta``, times ``rate(t) / ceiling`` if ``config`` is modulated.

    A modulated source keeps candidate ``i`` where ``u_i * ceiling < rate(t_i) * eta``
    (:func:`_screened_thinning` decides the same test with few float64 sines).  The
    uniforms ``u`` are drawn :data:`SCREEN_CHUNK` at a time into one buffer, each chunk
    just before it is decided: the numbers of one draw of ``t.size``, in its order.
    """
    if config.tones:
        decide = _screened_thinning(t, eta, config)
    else:
        def decide(chunk, u, out):
            np.less(u, eta, out=out)
    keep = np.zeros(t.size, dtype=bool)
    u = np.empty(min(SCREEN_CHUNK, t.size))
    for lo in range(0, t.size, SCREEN_CHUNK):
        chunk = t[lo:lo + SCREEN_CHUNK]
        decide(chunk, rng.random(out=u[:chunk.size]), keep[lo:lo + SCREEN_CHUNK])
    return keep


def _screened_thinning(t: np.ndarray, eta: float, config: SourceConfig):
    """The test ``level < config.rate(t) * eta``, ``level = u * ceiling``, bit for bit, mostly
    without float64 ``sin``: a function of a chunk of ``t``, its uniforms ``u`` (made its levels
    in place) and that chunk of the mask, which it leaves ``False`` where it rejects.  Its
    constants, below, are worked out once, for all of ``t``.

    Loss is a thinning of its own (Lewis & Shedler 1979), so with ``eta < 1``
    each chunk of :data:`SCREEN_CHUNK` candidates first drops, with no sine,
    those whose ``level`` is at or above ``cut``, the most that float64
    ``rate(t) * eta`` can be; ~``1 - eta`` of them go there.  With ``eps =
    2**-53``, ``k`` tones, ``q = fl(mean_rate / k)`` and ``|sin| <= 1``, so that
    ``fl(d_i * sin) <= d_i``: the ``2*k - 1`` inexact additions of ``rate``'s
    sum, its product by ``q`` and the one by ``eta`` are monotone in their
    operands and each rounds up by at most a factor ``1 + eps``, so
    ``fl(rate(t) * eta) <= q*eta*(k + sum_i d_i)*(1 + eps)**(2*k + 1)``.
    ``cut`` is that product computed in float64 times ``1 + 16*k*eps`` (exact):
    its ``k`` additions and three products round down by at most a factor
    ``(1 - eps)**(k + 3)``, and ``(1 - eps)**(k + 3) * (1 + 16*k*eps)`` exceeds
    ``(1 + eps)**(2*k + 1)`` by ``(13*k - 4)*eps`` to first order, at least
    ``9*eps``.  With ``eta == 1`` the cut would reject nothing (``level`` stays
    below the ceiling) and is skipped.

    The squeeze step of rejection sampling (Marsaglia 1977) then decides
    the rest: an approximate rate ``A`` decides every candidate whose
    ``level`` lies farther than a bound ``B`` from it, and only the rest,
    ~``2*B / ceiling`` of them, go through the exact test.  ``A`` uses the
    exact path's phase ``x = fl(fl(2*pi*f*t) + phase)`` of each tone, reduced
    in float64 to ``r = x - fl(n*fl(2*pi))`` with ``n = rint(x / (2*pi))``, and
    the float32 ``sin`` of ``r`` (~1 ns a value, against 20-30 ns for float64
    ``sin``).

    The bound, with ``eps``, ``k`` and ``q`` as above:

    - The reduction errs from ``x - 2*pi*n`` by at most ``eps*|n*2*pi|`` for
      the product, ``|n|*|fl(2*pi) - 2*pi| <= 2.2*eps*|n|`` for the constant
      and ``eps*|r|`` for the difference: below ``2*eps*(|x| + 8)``.
    - Casting ``|r| <= 3.2`` to float32 moves it by at most ``2**-24 * 3.2 <
      2**-22``; float32 ``sin`` errs by at most 1.5 ulps (NumPy's documented
      bound, 1.05 measured), below ``2**-22``; float64 ``sin`` by at most a few
      ulps of 1.  With ``|sin'| <= 1`` each approximate sine is within
      ``e_i = 2**-20 + 2*eps*(|x_i| + 8)`` of the exact one, half of the first
      term being margin.
    - Both sums of ``1 + d_i * sin`` round by at most ``5*k**2*eps`` and
      ``3*k**2*eps``, the two products by ``q`` and ``eta`` by ``8.1*k*eps*q*eta``.

    So ``|rate(t)*eta - A| <= B = q*eta*(sum_i d_i*e_i + 32*k**2*eps)``, over
    ten per cent above the sum of these terms, which covers the rounding of
    ``level - A`` too.  Where a tone's ``|x|`` can reach :data:`_SCREEN_MAX_PHASE`
    the reduction term would outgrow the float32 terms, and every candidate
    takes the exact test.
    """
    tones = config.tones
    k = len(tones)
    q = config.mean_rate / k
    ceiling = config.rate_ceiling
    eps = np.finfo(np.float64).eps / 2
    reach = float(max(t.max(), -t.min())) if t.size else 0.0
    scales = [2.0 * np.pi * tone.frequency for tone in tones]  # as in SourceConfig.rate
    phases = [abs(scale) * reach + tone.phase for scale, tone in zip(scales, tones)]
    if max(phases) >= _SCREEN_MAX_PHASE:
        def exact(chunk, u, out):
            u *= ceiling
            np.less(u, config.rate(chunk) * eta, out=out)
        return exact
    sines = sum(tone.depth * (2.0**-20 + 2.0 * eps * (x + 8.0)) for tone, x in zip(tones, phases))
    bound = q * eta * (sines + 32.0 * k * k * eps)
    cut = q * eta * (k + sum(tone.depth for tone in tones)) * (1.0 + 16.0 * k * eps) if eta < 1.0 else None
    width = min(SCREEN_CHUNK, t.size)
    x, r, acc = np.empty(width), np.empty(width), np.empty(width)
    sine = np.empty(width, dtype=np.float32)

    def screen(chunk, level, out):
        level *= ceiling
        live = slice(None)
        if cut is not None:
            live = np.flatnonzero(level < cut)
            chunk, level = chunk[live], level[live]
        n = chunk.size
        x_, r_, acc_, sine_ = x[:n], r[:n], acc[:n], sine[:n]
        acc_.fill(k)
        for scale, tone in zip(scales, tones):
            if tone.depth == 0.0:
                continue
            np.add(np.multiply(scale, chunk, out=x_), tone.phase, out=x_)
            np.rint(np.multiply(x_, 1.0 / (2.0 * np.pi), out=r_), out=r_)
            np.subtract(x_, np.multiply(r_, 2.0 * np.pi, out=r_), out=r_)
            np.sin(r_, out=sine_, dtype=np.float32)
            acc_ += np.multiply(sine_, tone.depth, out=x_, dtype=np.float64)
        acc_ *= q * eta
        np.subtract(level, acc_, out=acc_)  # level - A
        decided = acc_ < -bound
        close = np.flatnonzero(np.abs(acc_, out=acc_) <= bound)
        if close.size:
            decided[close] = level[close] < config.rate(chunk[close]) * eta
        out[live] = decided

    return screen


def _jitter(t: np.ndarray, sigma: float, high: float, rng: np.random.Generator) -> np.ndarray:
    """Add Gaussian timing noise of standard deviation ``sigma`` to ``t`` in place, clipped to [0, high]."""
    t += rng.normal(0.0, sigma, size=t.size)
    return np.clip(t, 0.0, high, out=t)


def _arrivals(config: SourceConfig, trials: int, rng: np.random.Generator, budget: LinkBudget):
    """Source thinning with loss folded in, background and dark counts, jitter: seconds, trial ids.

    Each chunk's survivors are gathered to the front of the candidate array, and
    the survivors before each trial's end counted on the way; the trial ids are
    built once the candidates are released.  No other array spans the candidates
    but the survivors' 1-byte mask.
    """
    t, counts = _poisson_times(config.rate_ceiling, config.duration, trials, rng)
    keep = _survivors(t, rng, budget.transmittance, config)
    bounds = np.zeros(trials + 1, dtype=np.intp)  # each trial's first candidate, then the last one's end
    np.cumsum(counts, out=bounds[1:])
    before = np.empty_like(bounds)  # survivors before each bound
    n = 0
    for lo in range(0, t.size + 1, SCREEN_CHUNK):  # to t.size itself: the bounds there count too
        at = lo + np.flatnonzero(keep[lo:lo + SCREEN_CHUNK])
        here = slice(*np.searchsorted(bounds, (lo, lo + SCREEN_CHUNK)))
        before[here] = n + np.searchsorted(at, bounds[here])
        t[n:n + at.size] = t[at]
        n += at.size
    del keep
    # background and dark counts (none drawn at rate 0) follow the survivors, each grouped by trial
    te, extra = _poisson_times(budget.noise_rate + budget.dark_rate, config.duration, trials, rng)
    t = np.concatenate([t[:n], te])
    ids = np.arange(trials)
    tid = np.repeat(np.concatenate([ids, ids]), np.concatenate([before[1:] - before[:-1], extra]))
    if budget.jitter_sigma > 0.0 and t.size:
        _jitter(t, budget.jitter_sigma, config.duration - 1e-12, rng)
    return t, tid


def _to_ps(t: np.ndarray, window_ps: int) -> np.ndarray:
    """Round float seconds to int64 picoseconds, at most one tick inside the window, in ``t``'s buffer."""
    t *= PS_PER_SECOND
    np.rint(t, out=t)
    ps = t.view(np.int64)
    ps[...] = t  # an elementwise cast onto the same bytes: no copy
    return np.minimum(ps, window_ps - 1, out=ps)


def _detect(ps: np.ndarray, tid: np.ndarray, trials: int, window_ps: int,
            budget: LinkBudget) -> tuple[np.ndarray, np.ndarray]:
    """Non-extending dead time, then gating, of int64 ps times; sorted by trial and time.

    Trials lie ``stride = window_ps + tau`` apart on one axis, so no gate and
    no cluster (a run of events each closer than ``tau`` to the one before)
    spans two.  Every cluster's first event is registered.  Only clusters of
    two or more events are walked: they open where a cluster start is followed
    by an event that is not one and close at the next start.  Each round
    registers, per open cluster, the first event ``tau`` or more after the last
    registered one.  One division splits the registered keys into trials and
    times; gating floors each time onto its gate and drops an event whose
    trial and gate equal those of the event before it.
    """
    tau = round(budget.dead_time * PS_PER_SECOND)
    stride = window_ps + tau
    if trials * stride > np.iinfo(np.int64).max:
        raise ValueError(f"{trials} trials of a {window_ps} ps window overflow int64 picoseconds")
    key = np.multiply(tid, stride)
    key += ps
    key.sort()
    if tau > 0:
        start = np.empty(key.size + 1, dtype=bool)  # cluster starts, and one past the last event
        start[0] = start[-1] = True
        np.greater_equal(key[1:] - key[:-1], tau, out=start[1:-1])
        edge = np.flatnonzero(start[1:] != start[:-1])  # start then non-start, non-start then start
        at, end = edge[0::2], edge[1::2] + 1
        keep = start[:-1]
        while at.size:
            at = np.searchsorted(key, key[at] + tau)
            inside = at < end
            at, end = at[inside], end[inside]
            keep[at] = True
        key = key[keep]
        del start, keep
    trial = key // stride
    ps = key  # each event's time in its trial, in place
    del key  # so that gating's copies release it
    ps -= trial * stride
    if budget.rep_period is not None:
        gate = round(budget.rep_period * PS_PER_SECOND)
        ps //= gate  # the gate's start, ps - ps % gate, by one division (% is slower)
        ps *= gate
        # still sorted: drop an event whose trial and gate equal the one before
        new = np.ones(ps.size, dtype=bool)
        new[1:] = (ps[1:] != ps[:-1]) | (trial[1:] != trial[:-1])
        ps = ps[new]  # one at a time: one copy alive beside the two arrays
        trial = trial[new]
    return ps, trial


def transmit(config: SourceConfig, budget: LinkBudget, rng: np.random.Generator) -> PhotonSequence:
    """Run the full pipeline on one window: source, loss, background, detector.

    This is :func:`sample_event_batch` with one trial, drawing the same
    numbers from ``rng``, with the registered times kept in picoseconds.
    """
    window_ps = round(config.duration * PS_PER_SECOND)
    t, tid = _arrivals(config, 1, rng, budget)
    ps, _ = _detect(_to_ps(t, window_ps), tid, 1, window_ps, budget)  # the float times become ps
    return PhotonSequence(ps.view(np.uint64), window_ps)


@dataclass(frozen=True)
class EventBatch:
    """Events of many independent trials in flat arrays.

    ``times`` holds float-second timestamps, ``trial_ids`` the owning trial
    of each event.  Events within a trial are unordered (sorted after dead
    time or gating); spectral reduction does not need them sorted.
    """

    times: np.ndarray
    trial_ids: np.ndarray
    trials: int
    window: float

    def counts(self) -> np.ndarray:
        """Events per trial, shape (trials,)."""
        return np.bincount(self.trial_ids, minlength=self.trials)


def sample_event_batch(
    config: SourceConfig,
    trials: int,
    rng: np.random.Generator,
    budget: LinkBudget | None = None,
) -> EventBatch:
    """Sample many independent realizations of the same link at once.

    Loss is folded into the thinning acceptance (one uniform draw per
    candidate), background and dark counts are appended as homogeneous
    events, and jitter is applied vectorized.  Dead time and gating draw
    nothing; a budget with either rounds the times to picoseconds first.
    """
    check_count(NON_NEGATIVE, trials=trials)
    budget = budget or LinkBudget()
    t, tid = _arrivals(config, trials, rng, budget)
    if budget.dead_time > 0.0 or budget.rep_period is not None:
        window_ps = round(config.duration * PS_PER_SECOND)
        ps, tid = _detect(_to_ps(t, window_ps), tid, trials, window_ps, budget)
        t = ps / PS_PER_SECOND
    return EventBatch(times=t, trial_ids=tid, trials=trials, window=config.duration)


# Kept only because linkbench/tracing.py rebinds these four; they go with it (ROADMAP item 1).
def sample_modulated(config: SourceConfig, rng: np.random.Generator) -> PhotonSequence:
    """The source alone: :func:`transmit` with a clean budget, drawing the same numbers."""
    return transmit(config, LinkBudget(), rng)


def apply_loss(seq: PhotonSequence, transmittance: float, rng: np.random.Generator) -> PhotonSequence:
    """Thin a sequence by an independent Bernoulli survival trial per event."""
    if transmittance >= 1.0 or len(seq) == 0:
        return seq
    return PhotonSequence(seq.times_ps[rng.random(len(seq)) < transmittance], seq.window_ps)


def merge_noise(seq: PhotonSequence, budget: LinkBudget, rng: np.random.Generator) -> PhotonSequence:
    """Superimpose background light and dark counts onto a sequence.

    Both contributions are homogeneous Poisson streams, so they merge into
    one stream at the summed rate.
    """
    rate = budget.noise_rate + budget.dark_rate
    if rate <= 0.0:
        return seq
    extra = transmit(SourceConfig(rate, seq.window), LinkBudget(), rng).times_ps
    return PhotonSequence(np.sort(np.concatenate([seq.times_ps, extra])), seq.window_ps)


def apply_detector(seq: PhotonSequence, budget: LinkBudget, rng: np.random.Generator) -> PhotonSequence:
    """Apply detector-side impairments: timing jitter, dead time, gating.

    Jittered events are clamped to the observation window and rounded to
    the picosecond grid; dead time and gating then act as in the batch.
    """
    ps = seq.times_ps.astype(np.int64)
    if budget.jitter_sigma > 0.0 and ps.size:
        sigma_ps = budget.jitter_sigma * PS_PER_SECOND
        ps = np.rint(_jitter(ps.astype(np.float64), sigma_ps, seq.window_ps - 1, rng)).astype(np.int64)
    ps, _ = _detect(ps, np.zeros_like(ps), 1, seq.window_ps, budget)
    return PhotonSequence(ps.astype(np.uint64), seq.window_ps)


# ---------------------------------------------------------------------------
# binary timestamp container
# ---------------------------------------------------------------------------

def write_pts1(path: str | os.PathLike, seq: PhotonSequence) -> None:
    """Serialize a sequence to the PTS1 container.

    Layout (all little-endian):
      bytes 0..7   magic ``PHTS0001``
      bytes 8..15  observation window, unsigned picoseconds
      bytes 16..23 event count
      bytes 24..   count * uint64 nondecreasing event times, picoseconds
    """
    header = PTS1_MAGIC
    header += int(seq.window_ps).to_bytes(8, "little")
    header += len(seq).to_bytes(8, "little")
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(seq.times_ps, dtype="<u8"))  # the times' own buffer: no copy


def read_pts1(path: str | os.PathLike) -> PhotonSequence:
    """Parse a PTS1 container, validating structure with byte-offset diagnostics.

    The file's size is checked against its header before the payload is read
    straight into the times array, so the file is held in memory once.  The
    events are checked by :class:`PhotonSequence` alone; the first bad one is
    named by its byte offset, ``24 + 8 * index``.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if len(header) < _HEADER_BYTES:
            raise StreamFormatError(
                f"offset 0: truncated header, need {_HEADER_BYTES} bytes, got {len(header)}"
            )
        if header[:8] != PTS1_MAGIC:
            raise StreamFormatError(f"offset 0: bad magic {header[:8]!r}, expected {PTS1_MAGIC!r}")

        window_ps = int.from_bytes(header[8:16], "little")
        count = int.from_bytes(header[16:24], "little")
        if window_ps == 0:
            raise StreamFormatError("offset 8: observation window must be nonzero")

        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER_BYTES + 8 * count
        if size < expected:
            raise StreamFormatError(
                f"offset {size}: truncated payload, header promises {count} events "
                f"({expected} bytes total), file has {size} bytes"
            )
        if size > expected:
            raise StreamFormatError(
                f"offset {expected}: {size - expected} trailing bytes after the {count} "
                f"events the header promises"
            )
        times = np.empty(count, dtype="<u8")
        got = _HEADER_BYTES + fh.readinto(times)
        if got < expected:  # the file shrank after its size was read
            raise StreamFormatError(f"offset {got}: truncated payload, header promises {count} events")

    try:
        return PhotonSequence(times, window_ps)
    except BadEventError as exc:
        raise StreamFormatError(f"offset {_HEADER_BYTES + 8 * exc.index}: {exc}") from None
