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
That test is screened (Marsaglia's squeeze): an approximate rate, from
float64-reduced phases and float32 ``sin``, decides every candidate farther
than a derived error bound from it, and only the few within the bound take
the exact float64 test, so the kept events are those of the exact test, bit
for bit (see :func:`_screened_thinning` for the bound).

One pipeline, :func:`sample_event_batch`, samples many trials at once:
source thinning with loss folded in, background light and dark counts,
timing jitter, then detector dead time and (optionally) gating onto a clock
grid.  Arrival stages work in float seconds, the detector in integer
picoseconds.  :func:`transmit` runs it on one trial, and the per-sequence
functions are adapters onto its stages.

Timestamps are stored as integer picoseconds (``numpy.uint64``) so that
sequences survive serialization round trips bit-exactly.  The on-disk
container is a small binary format, see :func:`write_pts1`.
"""

from __future__ import annotations

import math
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


def check_range(bounds: tuple[float, float, str], **values: float) -> None:
    """The one range check: refuse, by name, any value that is not a finite number in ``bounds``."""
    low, high, text = bounds
    for name, value in values.items():
        try:
            ok = math.isfinite(value) and low <= value <= high
        except TypeError:  # None, a string: not a number
            ok = False
        if not ok:
            raise ValueError(f"{name} must be finite and in {text}, got {value!r}")


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
        check_range(POSITIVE, duration=self.duration)
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
        arr = np.asarray(self.times_ps, dtype=np.uint64)
        if arr.ndim != 1:
            raise ValueError("times_ps must be one-dimensional")
        if arr.size and np.any(arr[1:] < arr[:-1]):
            raise ValueError("timestamps must be nondecreasing")
        if arr.size and int(arr[-1]) >= int(self.window_ps):
            raise ValueError("timestamps must lie inside the observation window")
        object.__setattr__(self, "times_ps", arr)
        object.__setattr__(self, "window_ps", int(self.window_ps))

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
        invariant ``t < window`` holds after quantization.
        """
        window_ps = int(round(float(window) * PS_PER_SECOND))
        t = np.asarray(list(times) if not isinstance(times, np.ndarray) else times, dtype=np.float64)
        if t.size and (np.any(t < 0.0) or np.any(t >= window)):
            raise ValueError("timestamps must lie in [0, window)")
        return cls(np.sort(_to_ps(t, window_ps)).astype(np.uint64), window_ps)

    @classmethod
    def empty(cls, window: float) -> "PhotonSequence":
        return cls(np.empty(0, dtype=np.uint64), int(round(float(window) * PS_PER_SECOND)))


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
# the sampling pipeline, and per-sequence adapters onto its stages
# ---------------------------------------------------------------------------

#: Candidates per pass of the thinning screen (:func:`_screened_thinning`):
#: its four work vectors, ~0.4 MB, stay in a 2 MiB L2 cache.
SCREEN_CHUNK = 1 << 14

#: Tone phases (rad) from which the thinning screen's reduction error would
#: exceed its float32 error bound, so every candidate takes the exact test.
_SCREEN_MAX_PHASE = 2.0**32


def _poisson_times(rate: float, duration: float, trials: int, rng: np.random.Generator):
    """Homogeneous Poisson arrivals on [0, duration): float seconds, grouped by trial, and counts."""
    counts = rng.poisson(rate * duration, size=trials)
    return rng.uniform(0.0, duration, size=int(counts.sum())), counts


def _survivors(t: np.ndarray, rng: np.random.Generator, eta: float,
               config: SourceConfig | None = None) -> np.ndarray:
    """Keep each event with probability ``eta``, times ``rate(t) / ceiling`` if ``config`` is modulated.

    A modulated source keeps candidate ``i`` where ``u_i * ceiling < rate(t_i) * eta``
    (:func:`_screened_thinning` decides the same test with few float64 sines).
    """
    if config is None or not config.tones:
        return rng.uniform(size=t.size) < eta
    level = rng.uniform(size=t.size)
    level *= config.rate_ceiling
    return _screened_thinning(t, level, eta, config)


def _screened_thinning(t: np.ndarray, level: np.ndarray, eta: float, config: SourceConfig) -> np.ndarray:
    """``level < config.rate(t) * eta``, bit for bit, mostly without float64 ``sin``.

    The squeeze step of rejection sampling (Marsaglia 1977) applied to
    thinning: in chunks of :data:`SCREEN_CHUNK` candidates, an approximate
    rate ``A`` decides every candidate whose ``level`` lies farther than a
    bound ``B`` from it, and only the rest, ~``2*B / ceiling`` of them, go
    through the exact test.  ``A`` uses the exact path's phase
    ``x = fl(fl(2*pi*f*t) + phase)`` of each tone, reduced in float64 to
    ``r = x - fl(n*fl(2*pi))`` with ``n = rint(x / (2*pi))``, and the float32
    ``sin`` of ``r`` (~1 ns a value, against 20-30 ns for float64 ``sin``).

    The bound, with ``eps = 2**-53``, ``k`` tones, ``q = mean_rate / k``:

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
    eps = np.finfo(np.float64).eps / 2
    reach = float(max(t.max(), -t.min())) if t.size else 0.0
    scales = [2.0 * np.pi * tone.frequency for tone in tones]  # as in SourceConfig.rate
    phases = [abs(scale) * reach + tone.phase for scale, tone in zip(scales, tones)]
    if max(phases) >= _SCREEN_MAX_PHASE:
        return level < config.rate(t) * eta
    sines = sum(tone.depth * (2.0**-20 + 2.0 * eps * (x + 8.0)) for tone, x in zip(tones, phases))
    bound = q * eta * (sines + 32.0 * k * k * eps)
    keep = np.empty(t.size, dtype=bool)
    width = max(1, min(SCREEN_CHUNK, t.size))
    x, r, acc = np.empty(width), np.empty(width), np.empty(width)
    sine = np.empty(width, dtype=np.float32)
    for lo in range(0, t.size, width):
        chunk = t[lo: lo + width]
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
        np.subtract(level[lo: lo + n], acc_, out=acc_)  # level - A
        np.less(acc_, -bound, out=keep[lo: lo + n])
        close = np.flatnonzero(np.abs(acc_, out=acc_) <= bound)
        if close.size:
            close += lo
            keep[close] = level[close] < config.rate(t[close]) * eta
    return keep


def _jitter(t: np.ndarray, sigma: float, high: float, rng: np.random.Generator) -> np.ndarray:
    """Add Gaussian timing noise of standard deviation ``sigma``, clipped to [0, high]."""
    return np.clip(t + rng.normal(0.0, sigma, size=t.size), 0.0, high)


def _arrivals(config: SourceConfig, trials: int, rng: np.random.Generator, budget: LinkBudget):
    """Source thinning with loss folded in, background and dark counts, jitter: seconds, trial ids."""
    t, counts = _poisson_times(config.rate_ceiling, config.duration, trials, rng)
    # trial ids of the survivors only, from their count per trial (the survivors
    # before each trial's end): a candidate-sized id array would raise the peak
    keep = np.flatnonzero(_survivors(t, rng, budget.transmittance, config))
    per_trial = np.diff(np.searchsorted(keep, np.cumsum(counts)), prepend=0)
    t, tid = t[keep], np.repeat(np.arange(trials), per_trial)
    extra_rate = budget.noise_rate + budget.dark_rate
    if extra_rate > 0.0:
        te, extra = _poisson_times(extra_rate, config.duration, trials, rng)
        t, tid = np.concatenate([t, te]), np.concatenate([tid, np.repeat(np.arange(trials), extra)])
    if budget.jitter_sigma > 0.0 and t.size:
        t = _jitter(t, budget.jitter_sigma, config.duration - 1e-12, rng)
    return t, tid


def _to_ps(t: np.ndarray, window_ps: int) -> np.ndarray:
    """Round float seconds to int64 picoseconds, at most one tick inside the window."""
    return np.minimum(np.rint(t * PS_PER_SECOND).astype(np.int64), window_ps - 1)


def _detect(ps: np.ndarray, tid: np.ndarray, trials: int, window_ps: int,
            budget: LinkBudget) -> tuple[np.ndarray, np.ndarray]:
    """Non-extending dead time, then gating, of int64 ps times; sorted by trial and time.

    Trials lie ``window_ps + tau`` apart on one axis, so no gate and no cluster
    (a run of events each closer than ``tau`` to the one before) spans two.
    A cluster's first event is registered; each round then registers, per open
    cluster, the first event ``tau`` or more after the last registered one.
    """
    tau = round(budget.dead_time * PS_PER_SECOND)
    stride = window_ps + tau
    if trials * stride > np.iinfo(np.int64).max:
        raise ValueError(f"{trials} trials of a {window_ps} ps window overflow int64 picoseconds")
    key = np.sort(tid * stride + ps)
    if tau > 0:
        keep = np.zeros(key.size, dtype=bool)
        at = np.flatnonzero(np.diff(key, prepend=key[:1] - tau) >= tau)
        end = np.append(at[1:], key.size)
        while at.size:
            keep[at] = True
            open_ = end - at > 1  # a cluster's last event closes it: no search
            at = np.searchsorted(key, key[at[open_]] + tau)
            end = end[open_]
            at, end = at[at < end], end[at < end]
        key = key[keep]
    if budget.rep_period is not None:
        key = key - key % stride % round(budget.rep_period * PS_PER_SECOND)
        key = key[np.diff(key, prepend=-1) > 0]  # still sorted: drop repeats
    return key % stride, key // stride


def transmit(config: SourceConfig, budget: LinkBudget, rng: np.random.Generator) -> PhotonSequence:
    """Run the full pipeline on one window: source, loss, background, detector.

    This is :func:`sample_event_batch` with one trial, drawing the same
    numbers from ``rng``, with the registered times kept in picoseconds.
    """
    window_ps = round(config.duration * PS_PER_SECOND)
    t, tid = _arrivals(config, 1, rng, budget)
    ps, _ = _detect(_to_ps(t, window_ps), tid, 1, window_ps, budget)
    return PhotonSequence(ps.astype(np.uint64), window_ps)


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
    budget = budget or LinkBudget()
    t, tid = _arrivals(config, trials, rng, budget)
    if budget.dead_time > 0.0 or budget.rep_period is not None:
        window_ps = round(config.duration * PS_PER_SECOND)
        ps, tid = _detect(_to_ps(t, window_ps), tid, trials, window_ps, budget)
        t = ps / PS_PER_SECOND
    return EventBatch(times=t, trial_ids=tid, trials=trials, window=config.duration)


def sample_homogeneous(rate: float, duration: float, rng: np.random.Generator) -> PhotonSequence:
    """Sample a homogeneous Poisson process on [0, duration)."""
    return sample_modulated(SourceConfig(rate, duration), rng)


def sample_modulated(config: SourceConfig, rng: np.random.Generator) -> PhotonSequence:
    """Sample the modulated source by thinning a homogeneous proposal.

    Draw ``Poisson(ceiling * T)`` candidate times uniformly on the window
    and keep each with probability ``rate(t) / ceiling``.  The survivors
    are exactly an inhomogeneous Poisson sample of the target rate.
    """
    t, _ = _arrivals(config, 1, rng, LinkBudget())
    return PhotonSequence.from_seconds(t, config.duration)


def apply_loss(seq: PhotonSequence, transmittance: float, rng: np.random.Generator) -> PhotonSequence:
    """Thin a sequence by an independent Bernoulli survival trial per event."""
    if transmittance >= 1.0 or len(seq) == 0:
        return seq
    return PhotonSequence(seq.times_ps[_survivors(seq.times_ps, rng, transmittance)], seq.window_ps)


def merge_noise(seq: PhotonSequence, budget: LinkBudget, rng: np.random.Generator) -> PhotonSequence:
    """Superimpose background light and dark counts onto a sequence.

    Both contributions are homogeneous Poisson streams, so they merge into
    one stream at the summed rate.
    """
    rate = budget.noise_rate + budget.dark_rate
    if rate <= 0.0:
        return seq
    extra = sample_homogeneous(rate, seq.window, rng).times_ps
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
    payload = np.ascontiguousarray(seq.times_ps, dtype="<u8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_pts1(path: str | os.PathLike) -> PhotonSequence:
    """Parse a PTS1 container, validating structure with byte-offset diagnostics.

    The file's size is checked against its header before the payload is read
    straight into the times array, so the file is held in memory once.
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

    bad_order = np.nonzero(times[1:] < times[:-1])[0]
    if bad_order.size:
        i = int(bad_order[0]) + 1
        raise StreamFormatError(
            f"offset {_HEADER_BYTES + 8 * i}: event {i} precedes event {i - 1}"
        )
    too_late = np.nonzero(times >= window_ps)[0]
    if too_late.size:
        i = int(too_late[0])
        raise StreamFormatError(
            f"offset {_HEADER_BYTES + 8 * i}: event {i} at {int(times[i])} ps "
            f"is outside the {window_ps} ps window"
        )
    return PhotonSequence(times, window_ps)
