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

Channel grids and scan grids are uniform ladders, so the kernel does not
call ``exp`` per phasor.  It cuts the frequency list into maximal
arithmetic runs (a lone frequency is a run of one), evaluates ``exp`` once
per event for the step phasor ``w = exp(-2j*pi*step*t)``, and rotates an
anchor by powers of ``w``.  Every channel band in use lies on the lattice
of whole multiples of its step (the RGB plan's 25-75 kHz bands and the
sweeps' bands at 1 kHz, the acceptance sweeps' around 200 kHz), so a piece
starting at rung ``K = f / step`` takes ``w**K`` from the same powers as its
anchor; a piece off the lattice, or past its gate (:data:`LATTICE_BITS`),
evaluates ``exp`` exactly at its first rung, every :data:`ANCHOR` rungs.  A
bare rotation drifts from the direct formula's rounded phase
``fl(2*pi*fl(f*t))`` by a few ulps of the phase (~3e-11 rad at f*t ~ 5e4),
enough to move a quiet point's sum by ~1e-10 relative, so each rotated
phasor is multiplied by ``1 - i*r``, with ``r`` the difference between the
direct phase and the rotated one.  A call over a whole channel plan then
costs one ``exp`` per event, and its sums agree with the direct formula to
~1e-13 relative.  The ladder's work arrays (phases, rotated phasors,
``(K + k) * theta``) persist between calls in a per-thread workspace of at
most :data:`PHASOR_CHUNK` phasors a piece, 1.5 MiB in all, so a stream of
short windows neither allocates nor page-faults them again on every call.

A dense scan of one sequence (one trial, a run of more than
:data:`NUFFT_MIN_RUNGS` rungs) instead goes through a type-1 non-uniform
FFT (Dutt & Rokhlin 1993; the exponential-of-semicircle kernel of
Barnett, Magland & af Klinteberg 2019): one ``exp`` per event to rotate it
by the run's centre frequency, a spread of each event onto a periodic grid
(the least power of two at least twice the run's length), one FFT, and a
division by the kernel's transform.  Its cost per event does not grow with
the run's length.  The NUFFT approximates the exact sum to
``eps * N`` for ``N`` events, but the direct formula rounds each event's
phase by up to an ulp, so the two differ by a random walk of those ulps,
``W = sqrt(sum(u_i**2)) <= u*sqrt(N)`` (``u`` the ulp of the largest
phase, plus the rounding of the mode phase).  Near a line that is far below
1e-9 of ``|X|``; at a quiet point, where ``|X|`` is of the order of ``W``,
it is not.  So every point with ``|X| < b = (eps*N + 3*W) / NUFFT_RTOL``
(:data:`NUFFT_RTOL` = 1e-9) is recomputed on the ladder path, and every
value keeps the direct formula's rounding to 1e-9 relative unless the walk
strays beyond 6 of its scales.  At a floor
point ``|X|**2`` is about exponential with mean ``N``, so the recomputed
fraction is about ``b**2 / N``: ~1.5% of a 1 s, 180k-event capture's scan.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .photon_channel import EventBatch, PhotonSequence, SourceConfig
from .photon_channel import POSITIVE, check_range, interval

#: Refuse to build evaluation grids larger than this (denser grids are a
#: sign of a mistaken resolution argument, not a real need).
MAX_GRID_POINTS = 2_000_000


def grid_points(points: float, remedy: str) -> int:
    """``points`` as an int, refused above :data:`MAX_GRID_POINTS` with the ``remedy`` in the message."""
    if not points <= MAX_GRID_POINTS:
        raise ValueError(f"grid of {points:.0f} points exceeds the {MAX_GRID_POINTS}-point cap; {remedy}")
    return int(points)


@dataclass(frozen=True)
class Band:
    """A closed frequency interval [low, high] in Hz."""

    low: float
    high: float

    def __post_init__(self) -> None:
        check_range(POSITIVE, low=self.low)
        check_range(interval(self.low, math.inf), high=self.high)

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


@dataclass(frozen=True)
class LineStats:
    """Amplitude moments at a line and its local noise floor, the error model's input."""

    line_mean: float
    line_std: float
    floor_mean: float
    floor_std: float

    def __post_init__(self) -> None:
        check_range(POSITIVE, line_std=self.line_std, floor_std=self.floor_std)


# ---------------------------------------------------------------------------
# phasor sums
# ---------------------------------------------------------------------------

#: Most phasors (frequencies x events) in one piece's temporaries (its
#: phases, its rotated phasors), so they stay in a 2 MiB L2 cache: events
#: go in blocks of ``PHASOR_CHUNK // rows``, ``rows`` being the longest
#: ladder piece of the call (at most :data:`ANCHOR`).  On a Xeon with that
#: cache, a 2k-event window at 33 channels ran ~1.4x slower through the
#: direct ``exp`` as one 64k-phasor block than in 32k pieces.
PHASOR_CHUNK = 1 << 15

#: Rows of a ladder piece: each piece starts at an anchor, and its other rows
#: are the anchor rotated by powers of the step phasor, then corrected back
#: to the direct formula's rounding.  Off the step lattice, each anchor is
#: one exact ``exp``.
ANCHOR = 64

#: A piece anchors on the lattice of its step, with no ``exp``, while its
#: rungs ``K + k`` stay below ``2**LATTICE_BITS`` in size and its largest
#: phase below ``2**(26 - LATTICE_BITS)`` rad; the bounds are derived in
#: :func:`_ladder_sums`.
LATTICE_BITS = 8

#: Steps that differ from their run's first step by at most this many ulps of
#: the larger frequency count as equal, so ``low + step * np.arange(n)`` is one run.
_LADDER_ULPS = 8.0
_SLACK = _LADDER_ULPS * np.finfo(np.float64).eps

#: One-trial runs of more than this many rungs go through the type-1 NUFFT
#: (:func:`_nufft_run`) instead of the ladder rotation.  On a 2-vCPU Xeon the
#: NUFFT overtook the ladder at ~24 rungs for 1k events and at ~40 for 90k
#: events, and was 1.7-4x faster at 64; the channel bands (11-33 rungs) stay
#: on the ladder, whose sums keep the direct rounding more closely.
NUFFT_MIN_RUNGS = 64

#: A NUFFT value stands only where the bound on its distance from the direct
#: formula's rounding is at most this fraction of ``|X|``; quieter points are
#: recomputed on the ladder path.
NUFFT_RTOL = 1e-9

#: Exponential-of-semicircle kernel ``exp(beta*(sqrt(1 - z*z) - 1))`` on
#: ``|z| <= 1``, spanning this many cells of a grid oversampled 2 to 4 times,
#: with ``beta = 2.3 * width`` (Barnett, Magland & af Klinteberg 2019), tuned
#: for 2; more oversampling only makes it more accurate.
_ES_WIDTH = 16
_ES_BETA = 2.3 * _ES_WIDTH


def _es_kernel(z: np.ndarray) -> np.ndarray:
    return np.exp(_ES_BETA * (np.sqrt(1.0 - z * z) - 1.0))


#: Trapezoid rule on [0, 1] for the kernel's Fourier transform, its weights
#: doubled for the even kernel's other half and multiplied by the kernel.  The
#: kernel and its derivatives fall to ``exp(-beta)`` ~ 1e-16 at the ends, so the
#: rule converges as on a periodic function: these 33 nodes match a 200-node
#: Gauss-Legendre rule to 7e-15 relative, and need no LAPACK call, whose first
#: use holds ~1 MB more of resident memory.
_ES_NODES = np.linspace(0.0, 1.0, 2 * _ES_WIDTH + 1)
_ES_WEIGHTS = np.where((_ES_NODES == 0.0) | (_ES_NODES == 1.0), 1.0, 2.0) / (2 * _ES_WIDTH)
_ES_WEIGHTS *= _es_kernel(_ES_NODES)

#: Bound on the NUFFT's own error, relative to the event count: against the
#: direct sum, on runs of 150 to 4001 points whose phases round finely, it
#: stayed below 5e-15.
_NUFFT_EPS = 3e-14

#: The direct formula rounds each event's phase by about one of its ulps
#: ``u_i``, and the NUFFT's rotation and mode phase round it again.  Summed at
#: random, the two drift apart by ``W = sqrt(sum(u_i**2))`` times a Rayleigh
#: variable whose scale measured 0.29 to 0.52 (capture scans, late and offset
#: windows, a 20 001-point grid); the bound allows this many ``W``, 6 to 10 scales.
_WALK_SCALE = 3.0

#: ``(fl(pi) - pi) / pi``: the direct phase ``fl(2*pi)*f*t`` runs at
#: ``(1 + _PI_ROUNDING)`` times the frequency, while an FFT's modes use the exact 2*pi.
_PI_ROUNDING = -math.sin(math.pi) / math.pi


class _Workspace(threading.local):
    """Work arrays of :func:`_ladder_sums`, one set per thread, kept between calls.

    A call needs ``rows * events`` float64 phases, complex rotated phasors and
    float64 ``(K + k) * theta``, at most ``max(PHASOR_CHUNK, ANCHOR)`` elements
    each, plus a few event-long vectors: 1.2 MiB for 11-rung bands, 1.5 MiB at
    most.  Fresh arrays of that size went back to the operating system when
    freed and were faulted in again by the next call, ~250 page faults per 1 ms
    image window, so the arrays stay.  They grow on demand and never shrink; each
    call writes every element it reads, so no result depends on an earlier call.
    """

    def __init__(self) -> None:
        self.real = np.empty(0)
        self.cplx = np.empty(0, dtype=np.complex128)

    def take(self, rows: int, events: int, count: int) -> SimpleNamespace:
        """Views for pieces of up to ``rows`` x ``events`` phasors and ``count``
        step phasor powers, grown if too small."""
        span = rows * events
        if self.real.size < 2 * span + 2 * events:
            self.real = np.empty(2 * span + 2 * events)
        if self.cplx.size < span + count * events:
            self.cplx = np.empty(span + count * events, dtype=np.complex128)
        real, cplx = self.real, self.cplx
        vectors = 2 * span + events * np.arange(3)
        return SimpleNamespace(
            phase=real[:span], k_theta=real[span: 2 * span],
            theta=real[vectors[0]: vectors[1]], spare=real[vectors[1]: vectors[2]],
            rot=cplx[:span], powers=[cplx[span + i * events:][:events] for i in range(count)],
        )


_WORKSPACE = _Workspace()


def _ladders(freqs: np.ndarray) -> list[tuple[int, int, float]]:
    """Cut ``freqs`` into maximal arithmetic runs ``(start, stop, step)``, in order.

    The rule: a run keeps going while each step stays within the slack of its
    first step; a lone frequency (or one next to a non-finite step) is a run
    of one, and the step that breaks a run joins no run.  A list whose steps
    are all finite and within the first step's slack is one run, found by one
    array check (every periodogram grid); any other list goes by the rule, one
    Python step per frequency.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is a nan step, which joins no run
        steps = freqs[1:] - freqs[:-1]
        slack = _SLACK * np.maximum(np.abs(freqs[:-1]), np.abs(freqs[1:]))
        if steps.size and np.isfinite(steps).all() and (np.abs(steps - steps[0]) <= slack).all():
            return [(0, freqs.size, float(steps[0]))]
    steps, slack = steps.tolist(), slack.tolist()
    runs, start = [], 0
    while start < freqs.size:
        stop, step = start + 1, 0.0
        if start < len(steps) and math.isfinite(steps[start]):
            step = steps[start]
            while stop < freqs.size and abs(steps[stop - 1] - step) <= slack[stop - 1]:
                stop += 1
        runs.append((start, stop, step))
        start = stop
    return runs


def phasor_sums(times: np.ndarray, frequencies: np.ndarray,
                trial_ids: np.ndarray | None = None, trials: int = 1) -> np.ndarray:
    """Phasor sums of each trial at each frequency, complex, shape (trials, len(frequencies)).

    Event ``i`` belongs to trial ``trial_ids[i]`` in ``[0, trials)``, or to
    trial 0 when ``trial_ids`` is omitted: a single sequence is a batch of
    one.

    The frequencies are cut into arithmetic runs (:func:`_ladders`).  With
    one trial, a run of more than :data:`NUFFT_MIN_RUNGS` rungs and a nonzero
    step is evaluated by :func:`_nufft_run`; every other run, and every point
    of a NUFFT run too quiet for its NUFFT value to hold the direct formula's
    rounding, goes through :func:`_ladder_sums`.
    """
    t = np.asarray(times, dtype=np.float64)
    freqs = np.asarray(frequencies, dtype=np.float64).reshape(-1)
    tid = np.zeros(t.size, dtype=np.intp) if trial_ids is None else np.asarray(trial_ids)
    if tid.shape != t.shape or (tid.size and not 0 <= tid.min() <= tid.max() < trials):
        raise ValueError(f"trial_ids must match times in shape and lie in [0, {trials})")
    if trial_ids is not None:  # group the events by trial
        order = np.argsort(tid, kind="stable")
        t, tid = t[order], tid[order]
    if trials > 1 or freqs.size <= NUFFT_MIN_RUNGS:
        return _ladder_sums(t, tid, freqs, trials)
    out = np.zeros((1, freqs.size), dtype=np.complex128)
    ladder = np.ones(freqs.size, dtype=bool)
    for start, stop, step in _ladders(freqs):
        if stop - start > NUFFT_MIN_RUNGS and step != 0.0:
            out[0, start:stop], ladder[start:stop] = _nufft_run(t, freqs[start:stop])
    cols = np.flatnonzero(ladder)
    if cols.size:
        out[:, cols] = _ladder_sums(t, tid, freqs[cols], 1)
    return out


def _lattice_rung(freqs: np.ndarray, step: float, top_t: float) -> int:
    """Rung ``K = freqs[0] / step`` of a piece anchored on its step's lattice, or 0
    for a piece off the lattice or past the gate of :data:`LATTICE_BITS`."""
    rung = freqs[0] / step if step else 0.0
    on_lattice = rung.is_integer() and rung * step == freqs[0]
    if not on_lattice or (abs(int(rung)) + freqs.size - 1).bit_length() > LATTICE_BITS:
        return 0
    top_phase = 2.0 * np.pi * max(abs(freqs[0]), abs(freqs[-1])) * top_t
    return int(rung) if top_phase <= 2.0 ** (26 - LATTICE_BITS) else 0


def _ladder_sums(t: np.ndarray, tid: np.ndarray, freqs: np.ndarray, trials: int) -> np.ndarray:
    """Phasor sums along ladders, events ``t`` grouped by their trial ids ``tid``.

    Each block of events is reduced per trial by ``reduceat``.  Each run of
    :func:`_ladders` is cut into pieces of at most :data:`ANCHOR` rows, and
    row ``k`` of a piece is its anchor ``exp(-i*phi_b) * w**K`` rotated by
    ``w**k``, ``w = exp(-i*theta)`` for the run's step, then multiplied by
    ``1 - i*r`` with ``r = phi_k - phi_b - (K + k)*theta`` from the direct
    phases ``phi = fl(2*pi*fl(f*t))``.  So each phasor keeps the direct
    formula's rounding up to the dropped ``r**2 / 2`` and the rounding of
    the powers of ``w``.

    On the lattice, the piece's first rung is ``K`` whole steps: ``phi_b = 0``
    and no ``exp`` runs; ``w**K`` is the product of the powers
    ``w, w**2, w**4, ...`` at the bits of ``|K|``, conjugated for ``K < 0``.
    Off it, ``phi_b`` is the first rung's phase and ``K = 0``.  A call over
    bands sharing one step thus costs one ``exp`` per event in all.  Theta
    keeps ``53 - s`` bits (a Veltkamp split), ``s`` the bits of the largest
    ``|K| + rows - 1`` of its step's pieces, so ``(K + k)*theta`` is exact
    and so is its difference from ``phi_k``.  Two bounds gate the lattice,
    with ``u = 2**-53``:

    * The powers: each squaring doubles the relative error it is given, so
      ``w**(K + k)`` carries about ``(|K| + k) * u`` that no ``r`` sees
      (measured up to 4 times that, 231 ``u`` at worst over 4000 single
      events); ``|K| + rows - 1 < 2**LATTICE_BITS`` keeps that scale below
      ``256*u`` (2.8e-14), four times the ``64*u`` of a direct anchor's
      rotation.
    * The dropped term: the split moves ``(K + k)*theta`` by up to
      ``2**(s - 53)`` of it and the roundings of ``phi`` and ``theta`` by a
      few ``u``, so ``|r| <= 2**(s - 52) * Phi`` for the piece's largest
      phase ``Phi = 2*pi*max|f*t|`` (``t`` over the whole call).
      ``Phi <= 2**(26 - LATTICE_BITS)`` keeps ``|r| <= 2**-26`` and
      ``r**2 / 2 <= u / 2``, below the direct formula's own rounding: at 8
      bits, ``max|f*t| <= 41.7e3``, e.g. 41 kHz over 1 s.
    """
    out = np.zeros((trials, freqs.size), dtype=np.complex128)
    carry = np.zeros_like(out)  # Kahan compensation: a long trial adds up hundreds of blocks
    runs = _ladders(freqs)
    rows = min(ANCHOR, max((stop - start for start, stop, _ in runs), default=1))
    offsets = np.arange(rows, dtype=np.float64)
    top_t = float(max(-t.min(), t.max())) if t.size else 0.0  # max |t| without a copy of t
    pieces, bits = [], {}  # pieces (first, stop, step, K); bits split off theta per step
    for start, stop, step in runs:
        for first in range(start, stop, rows):
            end = min(first + rows, stop)
            rung = _lattice_rung(freqs[first: end], step, top_t)
            pieces.append((first, end, step, rung))
            bits[step] = max(bits.get(step, 0), max(rows - 1, abs(rung) + end - first - 1).bit_length())
    events = max(1, PHASOR_CHUNK // rows)
    work = _WORKSPACE.take(rows, min(events, t.size), max(bits.values(), default=0))
    for lo in range(0, t.size, events):
        block, owner = t[lo: lo + events], tid[lo: lo + events]
        starts = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        n = block.size
        theta, spare = work.theta[:n], work.spare[:n]
        powers = [w[:n] for w in work.powers]  # w, w**2, w**4, ... for this block's step
        rotor, ready = None, 0
        for first, stop, step, rung in pieces:
            r = stop - first
            if step != rotor:  # theta for a new step, split so that (K + k) * theta is exact
                split = float(1 << bits[step]) + 1.0
                np.multiply(2.0 * np.pi * step, block, out=theta)
                # theta = theta * split - (theta * split - theta)
                np.multiply(theta, split, out=spare)
                np.subtract(spare, theta, out=theta)
                np.subtract(spare, theta, out=theta)
                rotor, ready = step, 0
            while ready < max((r - 1).bit_length(), abs(rung).bit_length()):
                w = powers[ready]
                if ready:
                    np.multiply(powers[ready - 1], powers[ready - 1], out=w)
                else:
                    np.exp(np.multiply(-1j, theta, out=w), out=w)
                ready += 1
            phase = work.phase[:r * n].reshape(r, n)
            k_theta = work.k_theta[:r * n].reshape(r, n)
            rot = work.rot[:r * n].reshape(r, n)
            np.multiply.outer(freqs[first: stop], block, out=phase)
            phase *= 2.0 * np.pi
            np.multiply.outer(offsets[:r] + rung, theta, out=k_theta)
            if rung:  # w**K from the powers at the bits of |K|
                factors = [w for i, w in enumerate(powers) if abs(rung) >> i & 1]
                np.copyto(rot[0], factors[0])
                for w in factors[1:]:
                    rot[0] *= w
                if rung < 0:
                    np.conjugate(rot[0], out=rot[0])
            else:
                np.exp(np.multiply(-1j, phase[0], out=rot[0]), out=rot[0])
                # phi_k - phi_0, exact (Sterbenz) while they lie within a factor of 2;
                # row 0 last, so the other rows read it unchanged
                np.subtract(phase[1:], phase[0], out=phase[1:])
                np.subtract(phase[0], phase[0], out=phase[0])
            # rows [2**b, 2**(b + 1)) are rows [0, 2**b) times w**(2**b), one row a
            # call: broadcasting w over the rows ran ~1.5x slower on 3k-event blocks
            for k in range(1, r):
                b = k.bit_length() - 1
                np.multiply(rot[k - (1 << b)], powers[b], out=rot[k])
            phase -= k_theta
            sums = np.add.reduceat(rot, starts, axis=1)
            rot *= phase
            sums -= 1j * np.add.reduceat(rot, starts, axis=1)
            cell = owner[starts], slice(first, stop)
            addend = sums.T - carry[cell]
            total = out[cell] + addend
            carry[cell] = (total - out[cell]) - addend
            out[cell] = total
    return out


def _nufft_run(t: np.ndarray, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phasor sums of one sequence along one arithmetic run by type-1 NUFFT.

    Returns the sums and a mask of the quiet points, those whose ``|X|`` lies
    below the bound ``b`` on the NUFFT's distance from the direct formula's
    rounding divided by :data:`NUFFT_RTOL`; their values are to be recomputed.

    With ``h = len(freqs) // 2``, point ``j`` is ``fc + k*s + d_k`` for
    ``k = j - h``, centre ``fc = freqs[h]`` and the step ``s`` fitted to the
    run's ends.  Each event is rotated by ``fc`` at the direct phase (one
    ``exp`` per event), so the sum at point ``j`` is mode ``k`` of the
    rotated phasors ``c`` at ``x = (s*t) mod 1``: spread by the ES kernel onto
    a periodic grid, the least power of two at least twice the run's length,
    one FFT, and divided by the kernel's transform.  The same transform of
    ``t*c`` is the derivative in frequency, which moves each mode by ``d_k``
    onto its point and by ``_PI_ROUNDING * k * s`` onto the direct formula's
    ``fl(2*pi)``.

    The bound is ``b = (N*(eps + (2*pi*D*T)**2 / 2) + 3*W) / NUFFT_RTOL`` for
    ``N`` events, the NUFFT error ``eps`` (:data:`_NUFFT_EPS`), the largest
    ``|t|`` ``T``, the largest frequency shift ``D`` (its second-order term is
    what the correction drops) and the rounding walk ``W = sqrt(sum(u_i**2))``
    (:data:`_WALK_SCALE`), where event ``i``'s ``u_i`` is the ulp of its
    largest phase plus the mode phase's rounding, ``h*2*pi*ulp(s*t_i)``.
    """
    m = freqs.size
    h = m // 2
    fc = freqs[h]
    s = (freqs[-1] - freqs[0]) / (m - 1)
    k = np.arange(-h, m - h, dtype=np.float64)
    # d_k = freqs - fc - k*s, exactly: a two-sum for freqs - fc and a Veltkamp
    # split of s (k * s_hi is exact while |k| < 2**27)
    diff = freqs - fc
    back = diff - freqs
    lost = (freqs - (diff - back)) - (fc + back)
    split = float((1 << 27) + 1)
    s_hi = s * split - (s * split - s)
    shift = ((diff - k * s_hi) - k * (s - s_hi)) + lost + _PI_ROUNDING * k * s

    n = 1 << (2 * max(m, _ES_WIDTH) - 1).bit_length()  # the least power of two >= 2*max(m, W)
    grid = np.zeros((4, n + _ES_WIDTH))  # cells past n wrap around to the start
    offsets = np.arange(_ES_WIDTH)
    top_f = max(abs(freqs[0]), abs(freqs[-1]))
    walk_sq, top_t = 0.0, 0.0
    events = max(1, PHASOR_CHUNK // _ES_WIDTH)
    for lo in range(0, t.size, events):
        block = t[lo: lo + events]
        c = np.exp(-1j * (2.0 * np.pi * (fc * block)))
        x = s * block
        nx = n * (x - np.floor(x))
        first = np.ceil(nx - _ES_WIDTH / 2)
        z = np.add.outer(first - nx, offsets) * (2.0 / _ES_WIDTH)  # exact, in [-1, 1)
        kernel = _es_kernel(z)
        cells = np.add.outer(first.astype(np.intp) % n, offsets).ravel()
        weighted = c * block
        for row, weight in enumerate((c.real, c.imag, weighted.real, weighted.imag)):
            grid[row] += np.bincount(cells, (kernel * weight[:, None]).ravel(), minlength=grid.shape[1])
        span = np.abs(block)
        ulps = np.spacing(2.0 * np.pi * top_f * span) + h * 2.0 * np.pi * np.spacing(abs(s) * span)
        walk_sq += np.dot(ulps, ulps)
        top_t = max(top_t, span.max())
    grid[:, :_ES_WIDTH] += grid[:, n:]
    modes = np.fft.fft(grid[0::2, :n] + 1j * grid[1::2, :n])[:, k.astype(np.intp) % n]
    transform = np.zeros(h + 1)
    for node, weight in zip(_ES_NODES, _ES_WEIGHTS):
        transform += weight * np.cos((np.pi * _ES_WIDTH / n * node) * np.arange(h + 1))
    modes /= (_ES_WIDTH / 2) * transform[np.abs(k).astype(np.intp)]
    values = modes[0] - 2j * np.pi * shift * modes[1]

    taylor = 0.5 * (2.0 * np.pi * np.abs(shift).max() * top_t) ** 2
    bound = (t.size * (_NUFFT_EPS + taylor) + _WALK_SCALE * math.sqrt(walk_sq)) / NUFFT_RTOL
    return values, np.abs(values) < bound


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
    """Scan a band on a uniform grid of the given resolution (Hz/point).

    The grid starts at ``band.low`` and keeps ``band.high`` when the width is
    a whole number of steps up to rounding (``Band(0.1, 0.7)`` at 0.1 Hz has 7
    points, though ``0.6 / 0.1`` rounds to just below 6).  Every point lies
    inside the closed band.
    """
    check_range(POSITIVE, resolution=resolution)
    slack = 4.0 * math.ulp(1.0) * band.high / resolution
    n = grid_points(np.floor(band.width / resolution + slack) + 1,
                    "coarsen the resolution or narrow the band")
    freqs = np.minimum(band.low + resolution * np.arange(n), band.high)
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
# channel housekeeping
# ---------------------------------------------------------------------------

def floor_channels(channels: int, line: int) -> np.ndarray:
    """Indices of a band's channels usable as noise-floor probes around its line.

    Drops the line channel and its nearest neighbor on each side, since
    those carry leakage from the line itself; everything else in the band
    measures the white floor.  A band too narrow to keep any channel that
    way falls back to every channel but the line.
    """
    if channels < 2:
        raise ValueError("a band needs at least two channels to measure a floor")
    if not 0 <= line < channels:
        raise ValueError(f"line must be a channel index in [0, {channels}), got {line}")
    mask = np.ones(channels, dtype=bool)
    mask[max(line - 1, 0): line + 2] = False
    if not mask.any():
        mask = np.arange(channels) != line
    return np.flatnonzero(mask)
