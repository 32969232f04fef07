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
call over a whole channel plan then costs one ``exp`` per event.  The
ladder's rotated phasors and step powers persist between calls in a
per-thread workspace of at most :data:`PHASOR_CHUNK` phasors a piece, so a
stream of short windows neither allocates nor page-faults them again on
every call.

Events go through the ladder in blocks that pack whole trials, so a trial's
sums depend on its own events alone: a batch's row equals the one-trial
call on that trial's events, bit for bit.  That lets a large batch be cut
at trial boundaries over a small thread pool (up to :data:`THREADS`
threads, no more than the CPUs the process may run on) with results that
do not depend on the number of threads.  Single sequences stay on the
caller's thread.

A dense scan of one sequence (one trial, a run of more than
:data:`NUFFT_MIN_RUNGS` rungs) instead goes through a type-1 non-uniform
FFT (Dutt & Rokhlin 1993; the exponential-of-semicircle kernel of
Barnett, Magland & af Klinteberg 2019): one ``exp`` per event to rotate it
by the run's centre frequency, a spread of each event onto a periodic grid
(the least power of two at least twice the run's length), one FFT, and a
division by the kernel's transform.  Its cost per event does not grow with
the run's length.

Both paths hold one contract, a bound against the exact sum ``X`` of the
float64 times at the float64 frequencies, with ``P = fl(2*pi)`` and no
rounding of the phase ``P*f*t``:

    |Y - X| <= a*u*sum(phi_i) + b*N*u    (+ N*eps on a NUFFT run)

for ``N`` events, ``u = 2**-53`` and event ``i``'s largest phase
``phi_i = P*max|f|*|t_i|``; ``a`` and ``b`` are derived in
:func:`_ladder_sums`, ``eps`` is :data:`_NUFFT_EPS` (for a run within a
few ulps of its line, :func:`_nufft_run`).  The bound is the worst
case, every rounding in one direction; the roundings are independent
across events, so a typical error is a walk of about
``u*sqrt(sum(phi_i**2))``, as small as that of the float64 direct formula
``exp(-i*fl(P*fl(f*t)))``, and as close to the exact sum at a quiet point
as next to a line.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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

#: Most phasors (frequencies x events) in one piece's rotated phasors: events
#: go in blocks of at most ``PHASOR_CHUNK // rows``, ``rows`` being the
#: longest ladder piece of the call (at most :data:`ANCHOR`).  On a 2-vCPU
#: Xeon (2 MiB L2 a core), 2**16 against 2**15 took mc-sweep's eight batches
#: (64k-1.2M events, 11 and 33 channels) from 212 to 208 ms on one thread
#: and from 178 to 146 ms on two, and one 33-channel window from 335 to
#: 286 us at 4.2k events and from 138 to 137 us at 1.4k.
PHASOR_CHUNK = 1 << 16

#: At most this many threads sum one batch (:func:`_split_trials`).
THREADS = 4

#: Batches of fewer events stay on the caller's thread.  On the same Xeon,
#: two threads took 0.87 and 1.07 times one thread's time on sweep batches
#: of 32k events at 11 and 33 channels, 0.69 and 0.96 at 64k, 0.61 and 0.86
#: at 128k, and 0.93 and 1.16 at 8k: the ladder's many short ufuncs hold the
#: GIL between their loops, so the gain comes from its per-event ``exp``.
THREAD_MIN_EVENTS = 1 << 15

#: Rows of a ladder piece: each piece starts at an anchor, and its other rows
#: are the anchor rotated by powers of the step phasor.  Off the step lattice,
#: each anchor is one ``exp``.
ANCHOR = 64

#: A piece anchors on the lattice of its step, with no ``exp``, while its
#: rungs ``K + k`` stay below ``2**LATTICE_BITS`` in size: the error of a
#: step phasor's power grows with its exponent (:func:`_ladder_sums`).
LATTICE_BITS = 8

#: Steps that differ from their run's first step by at most this many ulps of
#: the larger frequency count as equal, so ``low + step * np.arange(n)`` is one run.
_LADDER_ULPS = 8.0
_SLACK = _LADDER_ULPS * np.finfo(np.float64).eps

#: One-trial runs of more than this many rungs go through the type-1 NUFFT
#: (:func:`_nufft_run`) instead of the ladder rotation.  On a 2-vCPU Xeon,
#: over 1 s, the ladder took 0.68 and 0.97 times the NUFFT's time at 96 rungs
#: for 1k and 90k events, and 0.73 and 1.06 at 112; the NUFFT overtook it at
#: ~160 rungs for 1k events and ~100 for 90k, where the time goes.  The
#: channel bands (11-33 rungs) stay on the ladder.
NUFFT_MIN_RUNGS = 100

#: Exponential-of-semicircle kernel ``exp(beta*(sqrt(1 - z*z) - 1))`` on
#: ``|z| <= 1``, spanning this many cells of a grid oversampled 2 to 4 times,
#: with ``beta = 2.3 * width`` (Barnett, Magland & af Klinteberg 2019), tuned
#: for 2; more oversampling only makes it more accurate.
_ES_WIDTH = 16
_ES_BETA = 2.3 * _ES_WIDTH

#: Events spread onto the NUFFT grid per block, ``_ES_WIDTH`` cells each.
#: On a 2-vCPU Xeon a 180k-event capture's 501-point scan took 38.7 ms in
#: blocks of 2048, 40.6 ms in blocks of 4096 and 40.3 ms in blocks of 1024.
_NUFFT_BLOCK = 2048


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

#: ``(fl(pi) - pi) / pi``: the phase ``P*f*t`` of the ladder and of the
#: reference sum, with ``P = fl(2*pi)``, runs at ``(1 + _PI_ROUNDING)`` times
#: the frequency, while an FFT's modes use the exact 2*pi.
_PI_ROUNDING = -math.sin(math.pi) / math.pi


class _Workspace(threading.local):
    """Work arrays of :func:`_ladder_sums`, one set per thread, kept between calls.

    A call needs ``rows * events`` rotated phasors, at most
    ``max(PHASOR_CHUNK, ANCHOR)``, and up to :data:`LATTICE_BITS` event-long
    powers of the step phasor: 1.6 MiB for the RGB plan's 11-rung bands,
    9 MiB at most (lone frequencies far up the lattice of their step, one
    row of 2**16 events and eight powers).  Each thread of the pool
    (:func:`_split_trials`) keeps its own.
    Fresh arrays of that size went back to the operating system when freed
    and were faulted in again by the next call, ~250 page faults per 1 ms
    image window, so the arrays stay.  They grow on demand and never shrink;
    each call writes every element it reads, so no result depends on an
    earlier call.
    """

    def __init__(self) -> None:
        self.cplx = np.empty(0, dtype=np.complex128)

    def take(self, rows: int, events: int, count: int) -> SimpleNamespace:
        """Views for pieces of up to ``rows`` x ``events`` phasors and ``count``
        step phasor powers, grown if too small."""
        span = rows * events
        if self.cplx.size < span + count * events:
            self.cplx = np.empty(span + count * events, dtype=np.complex128)
        cplx = self.cplx
        powers = [cplx[span + i * events:][:events] for i in range(count)]
        return SimpleNamespace(rot=cplx[:span], powers=powers)


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
    step is evaluated by :func:`_nufft_run`; every other run goes through
    :func:`_ladder_sums`, whose row of a trial depends on that trial's events
    alone: a batch's row equals the one-trial call on the same events, in the
    same order, bit for bit, on any number of threads (:func:`_split_trials`).
    Each value lies within the module's bound of the exact sum,
    ``a*u*sum(phi_i) + b*N*u`` with ``a = 1014`` and ``b = 1116`` over the
    trial's ``N`` events, plus ``N * _NUFFT_EPS`` on the NUFFT.
    """
    t = np.asarray(times, dtype=np.float64)
    freqs = np.asarray(frequencies, dtype=np.float64).reshape(-1)
    tid = np.zeros(t.size, dtype=np.intp) if trial_ids is None else np.asarray(trial_ids)
    if tid.shape != t.shape or (tid.size and not 0 <= tid.min() <= tid.max() < trials):
        raise ValueError(f"trial_ids must match times in shape and lie in [0, {trials})")
    if trial_ids is not None and not (tid[1:] >= tid[:-1]).all():  # group the events by trial
        order = np.argsort(tid, kind="stable")
        t, tid = t[order], tid[order]
    out = np.zeros((trials, freqs.size), dtype=np.complex128)
    if trials > 1 or freqs.size <= NUFFT_MIN_RUNGS:
        _split_trials(t, tid, freqs, out)
        return out
    ladder = np.ones(freqs.size, dtype=bool)
    for start, stop, step in _ladders(freqs):
        if stop - start > NUFFT_MIN_RUNGS and step != 0.0:
            out[0, start:stop] = _nufft_run(t, freqs[start:stop])
            ladder[start:stop] = False
    cols = np.flatnonzero(ladder)
    if cols.size:
        sums = np.zeros((1, cols.size), dtype=np.complex128)
        _ladder_sums(t, tid, freqs[cols], sums)
        out[:, cols] = sums
    return out


def _threads() -> int:
    """Threads a batch may use: the CPUs this process may run on, at most :data:`THREADS`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(THREADS, cpus))


_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The kernel's thread pool, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(THREADS - 1, thread_name_prefix="mcfc-phasor")
        return _POOL


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there, so build anew."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split_trials(t: np.ndarray, tid: np.ndarray, freqs: np.ndarray, out: np.ndarray) -> None:
    """:func:`_ladder_sums` of events grouped by trial, their trials cut into shares.

    A batch of at least :data:`THREAD_MIN_EVENTS` events is cut at trial
    boundaries into :func:`_threads` shares of about equal events (views, no
    copies); the caller's thread sums the first and the pool the others, each
    into its own rows of ``out``.  Smaller batches, and one trial, stay on
    the caller's thread.
    """
    threads = _threads() if t.size >= THREAD_MIN_EVENTS else 1
    cuts = [0] + [int(np.searchsorted(tid, tid[t.size * k // threads])) for k in range(1, threads)]
    shares = [(lo, hi) for lo, hi in zip(cuts, cuts[1:] + [t.size]) if hi > lo]
    if len(shares) <= 1:
        _ladder_sums(t, tid, freqs, out)
        return
    pool = _pool()
    others = [pool.submit(_ladder_sums, t[lo:hi], tid[lo:hi], freqs, out) for lo, hi in shares[1:]]
    try:
        lo, hi = shares[0]
        _ladder_sums(t[lo:hi], tid[lo:hi], freqs, out)
    finally:
        for share in others:
            share.result()


def _lattice_rung(freqs: np.ndarray, step: float) -> int:
    """Rung ``K = freqs[0] / step`` of a piece anchored on its step's lattice, or 0
    for a piece off the lattice or past the gate of :data:`LATTICE_BITS`."""
    rung = freqs[0] / step if step else 0.0
    on_lattice = rung.is_integer() and rung * step == freqs[0]
    return int(rung) if on_lattice and (abs(int(rung)) + freqs.size - 1).bit_length() <= LATTICE_BITS else 0


def _ladder_sums(t: np.ndarray, tid: np.ndarray, freqs: np.ndarray, out: np.ndarray) -> None:
    """Phasor sums along ladders, events ``t`` grouped by their trial ids ``tid``.

    Each run of :func:`_ladders` is cut into pieces of at most :data:`ANCHOR`
    rows, and row ``k`` of a piece is its anchor rotated by ``w**k``, with
    ``w = exp(-i*theta)`` and ``theta = fl(P*fl(s*t))`` for the run's step
    ``s`` and ``P = fl(2*pi)``.  On the lattice, the piece's first rung is
    ``K`` whole steps, and its anchor ``w**K`` is the product of the powers
    ``w, w**2, w**4, ...`` at the bits of ``|K|``, conjugated for ``K < 0``:
    no ``exp`` runs.  Off it, ``K = 0`` and the anchor is
    ``exp(-i*fl(P*fl(f0*t)))`` at the first rung ``f0``.  A call over bands
    sharing one step thus costs one ``exp`` per event in all.

    Sums go into the rows ``tid`` of ``out``, trial by trial.  Events go in
    blocks of at most ``E = PHASOR_CHUNK // rows``.  A block packs whole
    trials, and one ``reduceat`` a piece writes each trial's sums straight
    into its row.  A trial longer than ``E`` gets blocks of its own, cut
    every ``E`` events from its start, which add up under a Kahan carry.
    Either way a row depends on its trial's events alone, not on the trials
    that share its call.

    The bound of :func:`phasor_sums` sums, per event ``i``, the errors below,
    with ``u = 2**-53``, ``phi_i = P*max|f|*|t_i|`` and ``J = |K| + k``, the
    exponent of ``w`` in row ``k``:

    * Phase roundings, ``a = 1014``.  ``theta`` is within ``2u`` of
      ``P*s*t_i`` relative, and ``w**J`` carries ``J`` times that: at most
      ``2u*phi_i`` on the lattice, where ``J*|s|`` is the row's frequency.
      Off it, the anchor's phase is within ``2u`` of ``P*f0*t_i`` and
      ``|f0| + k*|s| <= 3*max|f|``: ``6u*phi_i``.  A row may also lie off its
      piece's line ``f0 + k*s``, as the ladder cut lets each step stray from
      the first by :data:`_LADDER_ULPS` ulps (``16u``) of the larger
      frequency: row ``k < ANCHOR`` by ``16*k*u*max|f|``, its phase by
      ``16*k*u*phi_i``.  So ``a = 6 + 16*(ANCHOR - 1)``.  (``P*s`` is not
      rounded on its own: that one rounding would scale every event's phase
      alike, an error that adds up coherently next to a line, to 24 times
      ``u*sqrt(sum(phi_i**2))`` on a 50k-event capture.)
    * The ``exp`` error: each complex ``exp`` is within ``2u`` of the unit
      phasor at its phase (an ulp in each part), and ``w**J`` carries ``J``
      times ``w``'s: ``2*J*u``.
    * The error of the step powers: a complex product rounds by at most
      ``sqrt(5)*u`` (Brent, Percival & Zimmermann 2007) and a squaring
      doubles the error it is given, so ``w**J``, built by any chain of
      squarings and products, carries ``(J - 1)*sqrt(5)*u`` of them.  The gate
      ``|K| + rows - 1 < 2**LATTICE_BITS`` keeps ``J <= 255``, so these two
      terms stay below ``1078u``; off the lattice ``J <= 63`` and the anchor's
      ``exp`` adds ``2u``.
    * The sums: numpy's ``reduceat`` adds pairwise (leaves of 128 values in
      8 interleaved sums, then halvings), so each phasor of a block of at
      most 2**16 events passes at most 36 roundings, and the Kahan carry of
      a long trial adds ``2u`` of the total: ``38u``.  So
      ``b = 1078 + 38 = 1116``.

    That is the worst case, every rounding of every event in one direction.
    The phase roundings dominate where ``phi_i`` is large, and being
    independent across events they typically add up to a walk of about
    ``u*sqrt(sum(phi_i**2))``.
    """
    if not t.size:
        return
    runs = _ladders(freqs)
    rows = min(ANCHOR, max((stop - start for start, stop, _ in runs), default=1))
    pieces = []  # (first, stop, step, K, powers of w it needs)
    for start, stop, step in runs:
        for first in range(start, stop, rows):
            end = min(first + rows, stop)
            rung = _lattice_rung(freqs[first: end], step)
            need = max((end - first - 1).bit_length(), abs(rung).bit_length())
            pieces.append((first, end, step, rung, need))
    events = max(1, PHASOR_CHUNK // rows)
    work = _WORKSPACE.take(rows, min(events, t.size), max((p[-1] for p in pieces), default=0))
    # each trial's first event, then the end
    edges = np.concatenate(([0], np.flatnonzero(tid[1:] != tid[:-1]) + 1, [t.size]))
    i = 0
    while i < edges.size - 1:
        lo = edges[i]
        j = int(np.searchsorted(edges, lo + events, side="right")) - 1
        if j > i:  # trials i .. j - 1 whole in one block
            owners = tid[edges[i:j]]
            for first, stop, sums in _block_sums(t[lo: edges[j]], edges[i:j] - lo, freqs, pieces, work):
                out[owners, first:stop] = sums.T
            i = j
            continue
        # a trial longer than a block: blocks of its own, added under a Kahan carry
        end = edges[i + 1]
        total = np.zeros(freqs.size, dtype=np.complex128)
        carry = np.zeros_like(total)
        for block in range(lo, end, events):
            piece_sums = _block_sums(t[block: min(block + events, end)], [0], freqs, pieces, work)
            for first, stop, sums in piece_sums:
                addend = sums[:, 0] - carry[first:stop]
                running = total[first:stop] + addend
                carry[first:stop] = (running - total[first:stop]) - addend
                total[first:stop] = running
        out[tid[lo]] = total
        i += 1


def _block_sums(block: np.ndarray, starts, freqs: np.ndarray, pieces: list, work: SimpleNamespace):
    """Yield ``(first, stop, sums)`` per ladder piece of :func:`_ladder_sums` on one
    block of events: ``sums[k, s]`` adds up row ``first + k`` over the events
    from ``starts[s]`` to the next start."""
    n = block.size
    powers = [w[:n] for w in work.powers]  # w, w**2, w**4, ... for this block's step
    rotor, ready = None, 0
    for first, stop, step, rung, need in pieces:
        r = stop - first
        if step != rotor:
            rotor, ready = step, 0
        while ready < need:
            w = powers[ready]
            if ready:
                np.multiply(powers[ready - 1], powers[ready - 1], out=w)
            else:  # w = exp(-i*theta), theta = fl(P*fl(s*t))
                np.multiply(block, step, out=w)
                w *= -2j * np.pi
                np.exp(w, out=w)
            ready += 1
        rot = work.rot[:r * n].reshape(r, n)
        if rung:  # w**K from the powers at the bits of |K|
            factors = [w for i, w in enumerate(powers) if abs(rung) >> i & 1]
            np.copyto(rot[0], factors[0])
            for w in factors[1:]:
                if n > 1:
                    rot[0] *= w
                else:  # numpy's in-place loop for one element rounds apart from its vector loop
                    rot[0] = rot[0] * w
            if rung < 0:
                np.conjugate(rot[0], out=rot[0])
        else:  # exp(-i*fl(P*fl(f0*t)))
            np.multiply(block, freqs[first], out=rot[0])
            rot[0] *= -2j * np.pi
            np.exp(rot[0], out=rot[0])
        # rows [2**b, 2**(b + 1)) are rows [0, 2**b) times w**(2**b), one row a
        # call: broadcasting w over the rows ran ~1.5x slower on 3k-event blocks
        for k in range(1, r):
            b = k.bit_length() - 1
            np.multiply(rot[k - (1 << b)], powers[b], out=rot[k])
        yield first, stop, np.add.reduceat(rot, starts, axis=1)


def _nufft_run(t: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Phasor sums of one sequence along one arithmetic run by type-1 NUFFT.

    With ``h = len(freqs) // 2``, point ``j`` is ``fc + k*s + d_k`` for
    ``k = j - h``, centre ``fc = freqs[h]`` and the step ``s`` fitted to the
    run's ends.  Each event is rotated by ``fc`` (one ``exp`` per event), so
    the sum at point ``j`` is mode ``k`` of the rotated phasors ``c`` at
    ``x = (s*t) mod 1``: spread by the ES kernel onto a periodic grid, the
    least power of two at least twice the run's length, one FFT, and divided
    by the kernel's transform.  The same transform of ``t*c`` is the
    derivative in frequency, which moves each mode by ``d_k`` onto its point
    and by ``_PI_ROUNDING * k * s`` onto the reference phase's ``fl(2*pi)``.

    Against the bound of :func:`phasor_sums`: the rotation's phase
    ``fl(P*fl(fc*t))`` is within ``2u*phi_i`` of ``P*fc*t``, and the modes'
    ``x`` rounds by ``u*|s*t|``, which mode ``k`` turns into ``2u*phi_i``
    (``|k*s| <= 2*max|f|``); with the ``exp``, both lie inside the ladder's
    ``a`` and ``b``.  Spreading, FFT and division stay within ``N *
    _NUFFT_EPS``.  The derivative drops ``(P*D*t_i)**2 / 2`` per event for the
    largest shift ``D``, below ``u/2`` while ``P*D*|t_i| <= 2**-26``.  A
    periodogram's grid strays from its line by a few ulps of ``max|f|``, so
    ``P*D*|t_i|`` is a few ``u*phi_i`` and that holds up to ``phi_i`` ~ 1e7;
    a run drifting farther within the ladder cut's slack adds the term.
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
    for lo in range(0, t.size, _NUFFT_BLOCK):
        block = t[lo: lo + _NUFFT_BLOCK]
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
    grid[:, :_ES_WIDTH] += grid[:, n:]
    modes = np.fft.fft(grid[0::2, :n] + 1j * grid[1::2, :n])[:, k.astype(np.intp) % n]
    transform = np.zeros(h + 1)
    for node, weight in zip(_ES_NODES, _ES_WEIGHTS):
        transform += weight * np.cos((np.pi * _ES_WIDTH / n * node) * np.arange(h + 1))
    modes /= (_ES_WIDTH / 2) * transform[np.abs(k).astype(np.intp)]
    return modes[0] - 2j * np.pi * shift * modes[1]


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
