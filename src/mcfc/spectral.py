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
:func:`point_dft_many`, :func:`batch_amplitudes` and :func:`periodogram`
adapt it.  :func:`band_argmax` is the one per-band decision, shared by
decoding and the sweeps.

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
ladder's rotated phasors and step powers are allocated once per call, at
most :data:`PHASOR_CHUNK` phasors a piece, and freed when it returns.

Events go through the ladder in blocks that pack whole trials, so a trial's
sums depend on its own events alone: a batch's row equals the one-trial
call on that trial's events, bit for bit.  That lets a large batch be cut
at trial boundaries over threads started for that call (up to
:data:`THREADS`, no more than the CPUs the process may run on) with results
that do not depend on the number of threads.  The threads end with the
call, as do the work arrays: the module keeps nothing between calls.
Single sequences stay on the caller's thread.

A dense scan of one sequence (one trial, a run of more than
:data:`NUFFT_MIN_RUNGS` rungs) instead goes through a type-1 non-uniform
FFT (Dutt & Rokhlin 1993; the exponential-of-semicircle kernel of
Barnett, Magland & af Klinteberg 2019): one ``exp`` per event to rotate it
by the run's centre frequency, a spread of each event onto a periodic grid
(the least power of two at least twice the run's length), one FFT, and a
division by the kernel's transform.  Its cost per event does not grow with
the run's length, and falls where events crowd onto the same grid cells: a
run of events sharing a cell is added up before it is spread.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .photon_channel import EventBatch, PhotonSequence, SourceConfig
from .photon_channel import NON_NEGATIVE, POSITIVE, check_count, check_finite, check_range, interval

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
#: go in blocks of at most ``E = PHASOR_CHUNK // rows``, ``rows`` being the
#: longest ladder piece of the call (at most :data:`ANCHOR`).  A call's work
#: arrays, the rotated phasors and the step powers, hold at most
#: ``(rows + LATTICE_BITS) * E`` complex values (``E`` capped at the call's
#: events) and are freed when it returns.  On a 2-vCPU Xeon (2 MiB L2 a
#: core), 2**16 against 2**15 took mc-sweep's eight batches
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
#: One call at a time, two threads took 1.03-1.11 times one thread's time on
#: ``np.add.reduceat`` (6k and 100k elements), 1.04 on a 6k-element complex
#: product but 0.68 on a 100k one, and 0.54 on ``Generator.uniform`` (one
#: generator a thread); two processes took 0.56.  Longer calls would let the
#: products overlap, never the ``reduceat``.
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
#: over 1 s, the ladder took 0.37 and 0.95 times the NUFFT's time at 64 rungs
#: for 1k and 90k events, and 0.57 and 1.25 at 72, where it needs a second
#: piece (:data:`ANCHOR`); 0.70 and 1.60 at 112.  The NUFFT overtakes it at
#: ~170 rungs for 1k events, but there it costs ~0.15 ms more a call, while
#: at 90k events it saves 3-8 ms: the threshold follows where the time goes.
#: The channel bands (11-33 rungs) stay on the ladder.
NUFFT_MIN_RUNGS = 64

#: Exponential-of-semicircle kernel ``exp(beta*(sqrt(1 - z*z) - 1))`` on
#: ``|z| <= 1``, spanning this many cells of a grid oversampled 2 to 4 times,
#: with ``beta = 2.3 * width`` (Barnett, Magland & af Klinteberg 2019), tuned
#: for 2; more oversampling only makes it more accurate.
_ES_WIDTH = 16
_ES_BETA = 2.3 * _ES_WIDTH

#: Events spread onto the NUFFT grid per block, ``_ES_WIDTH`` cells each.
#: On a 2-vCPU Xeon a 180k-event capture's 501-point scan took 26.8 ms in
#: blocks of 2048, 27.0 ms in blocks of 4096 and 28.0 ms in blocks of 1024;
#: blocks of 8192 took 25.4 ms with four times the work arrays (~2 MB a block).
_NUFFT_BLOCK = 2048

#: A block of the NUFFT adds up runs of events sharing a first grid cell before
#: spreading them when its runs average at least this many events
#: (:func:`_nufft_run`).  On the same Xeon, 5001-point scans of sorted events
#: on 1 s took 17.8 ms by run sums against 13.0 ms event by event at 3.2
#: events a run, 21.7 against 20.4 at 4.9, 25.0 against 24.5 at 6.1, 29.2
#: against 31.5 at 7.9 and 33.8 against 37.9 at 9.8: each run costs a
#: ``reduceat`` inner loop per cell, each event a ``bincount`` add per cell.
_NUFFT_RUN_EVENTS = 6


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """The kernel at ``z``, evaluated into ``z`` (no temporaries)."""
    np.multiply(z, z, out=z)
    np.subtract(1.0, z, out=z)
    np.sqrt(z, out=z)
    z -= 1.0
    z *= _ES_BETA
    return np.exp(z, out=z)


#: Trapezoid rule on [0, 1] for the kernel's Fourier transform, its weights
#: doubled for the even kernel's other half and multiplied by the kernel.  The
#: kernel and its derivatives fall to ``exp(-beta)`` ~ 1e-16 at the ends, so the
#: rule converges as on a periodic function: these 33 nodes match a 200-node
#: Gauss-Legendre rule to 7e-15 relative, and need no LAPACK call, whose first
#: use holds ~1 MB more of resident memory.
_ES_NODES = np.linspace(0.0, 1.0, 2 * _ES_WIDTH + 1)
_ES_WEIGHTS = np.where((_ES_NODES == 0.0) | (_ES_NODES == 1.0), 1.0, 2.0) / (2 * _ES_WIDTH)
_ES_WEIGHTS *= _es_kernel(_ES_NODES.copy())

#: Bound on the NUFFT's own error, relative to the event count.  Against the
#: exact sum, on runs of 150 to 4001 points over 20k events on 1 s whose
#: phases round finely (0.01 Hz steps from 1 Hz: a walk below 1.2e-16 an
#: event), the largest error was 5.6e-16 an event, with the events sorted
#: (run sums) and shuffled (event by event) alike; at 1 Hz steps it stayed
#: within the walk of the phase roundings, up to 1.1e-14 an event.
_NUFFT_EPS = 3e-14

#: ``(fl(pi) - pi) / pi``: the phase ``P*f*t`` of the ladder and of the
#: reference sum, with ``P = fl(2*pi)``, runs at ``(1 + _PI_ROUNDING)`` times
#: the frequency, while an FFT's modes use the exact 2*pi.
_PI_ROUNDING = -math.sin(math.pi) / math.pi


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

    Event ``i`` belongs to trial ``trial_ids[i]``, an integer in ``[0, trials)``,
    or to trial 0 when ``trial_ids`` is omitted: a single sequence is a batch
    of one.  ``trials`` may be 0, for an empty batch.

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
    check_count(NON_NEGATIVE, trials=trials)
    t = np.asarray(times, dtype=np.float64)
    freqs = np.asarray(frequencies, dtype=np.float64).reshape(-1)
    check_finite(times=t, frequencies=freqs)  # a NaN phase would pass as a NaN sum
    tid = np.zeros(t.size, dtype=np.intp) if trial_ids is None else np.asarray(trial_ids)
    if tid.dtype.kind not in "iu":  # float ids fail numpy's indexing, bools its shapes
        raise ValueError(f"trial_ids must be integers, got dtype {tid.dtype}")
    if tid.shape != t.shape or (tid.size and not 0 <= tid.min() <= tid.max() < trials):
        raise ValueError(f"trial_ids must match times in shape and lie in [0, {trials})")
    if trial_ids is not None and not (tid[1:] >= tid[:-1]).all():  # group the events by trial
        order = np.argsort(tid, kind="stable")
        t, tid = t[order], tid[order]
    out = np.zeros((trials, freqs.size), dtype=np.complex128)
    runs = []
    for start, stop, step in _ladders(freqs):
        if trials == 1 and stop - start > NUFFT_MIN_RUNGS and step != 0.0:
            out[0, start:stop] = _nufft_run(t, freqs[start:stop])
        else:
            runs.append((start, stop, step))
    if runs:
        _split_trials(t, tid, freqs, runs, out)
    return out


def _threads() -> int:
    """Threads a batch may use: the CPUs this process may run on, at most :data:`THREADS`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(THREADS, cpus))


def _split_trials(t: np.ndarray, tid: np.ndarray, freqs: np.ndarray, runs: list, out: np.ndarray) -> None:
    """:func:`_ladder_sums` on ``runs`` of events grouped by trial, their trials cut into shares.

    A batch of at least :data:`THREAD_MIN_EVENTS` events is cut at trial
    boundaries into :func:`_threads` shares of about equal events (views, no
    copies), each summed into its own rows of ``out``: the caller's thread
    sums the first, and threads started for this call the others, joined
    before it returns.  (Putting the first share on a thread of its own too
    took mc-sweep ~2.5% longer and held 0.7 MB more.)  No thread outlives the
    call, so a forked child starts with none to miss.  Smaller batches, and
    one trial, stay on the caller's thread.
    """
    threads = _threads() if t.size >= THREAD_MIN_EVENTS else 1
    cuts = [0] + [int(np.searchsorted(tid, tid[t.size * k // threads])) for k in range(1, threads)]
    shares = [(lo, hi) for lo, hi in zip(cuts, cuts[1:] + [t.size]) if hi > lo]
    if len(shares) <= 1:
        _ladder_sums(t, tid, freqs, runs, out)
        return
    with ThreadPoolExecutor(len(shares) - 1, thread_name_prefix="mcfc-phasor") as pool:
        others = [pool.submit(_ladder_sums, t[lo:hi], tid[lo:hi], freqs, runs, out) for lo, hi in shares[1:]]
        lo, hi = shares[0]
        _ladder_sums(t[lo:hi], tid[lo:hi], freqs, runs, out)
        for share in others:
            share.result()


def _lattice_rung(freqs: np.ndarray, step: float) -> int:
    """Rung ``K = freqs[0] / step`` of a piece anchored on its step's lattice, or 0
    for a piece off the lattice or past the gate of :data:`LATTICE_BITS`."""
    rung = freqs[0] / step if step else 0.0
    on_lattice = rung.is_integer() and rung * step == freqs[0]
    return int(rung) if on_lattice and (abs(int(rung)) + freqs.size - 1).bit_length() <= LATTICE_BITS else 0


def _ladder_sums(t: np.ndarray, tid: np.ndarray, freqs: np.ndarray, runs: list, out: np.ndarray) -> None:
    """Phasor sums along ``runs``, runs of :func:`_ladders` on ``freqs``, into
    their columns of ``out``, events ``t`` grouped by their trial ids ``tid``.

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
    rows = min(ANCHOR, max((stop - start for start, stop, _ in runs), default=1))
    pieces = []  # (first, stop, step, K, powers of w it needs)
    for start, stop, step in runs:
        for first in range(start, stop, rows):
            end = min(first + rows, stop)
            rung = _lattice_rung(freqs[first: end], step)
            need = max((end - first - 1).bit_length(), abs(rung).bit_length())
            pieces.append((first, end, step, rung, need))
    events = max(1, PHASOR_CHUNK // rows)
    n = min(events, t.size)  # work arrays: the rotated phasors, the powers of w the pieces need
    work = (np.empty(rows * n, dtype=np.complex128),
            np.empty((max((p[-1] for p in pieces), default=0), n), dtype=np.complex128))
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
        total = out[tid[lo]]  # a view of the trial's row, whose run columns start at 0
        carry = np.zeros(freqs.size, dtype=np.complex128)
        for block in range(lo, end, events):
            piece_sums = _block_sums(t[block: min(block + events, end)], [0], freqs, pieces, work)
            for first, stop, sums in piece_sums:
                addend = sums[:, 0] - carry[first:stop]
                running = total[first:stop] + addend
                carry[first:stop] = (running - total[first:stop]) - addend
                total[first:stop] = running
        i += 1


def _block_sums(block: np.ndarray, starts, freqs: np.ndarray, pieces: list, work: tuple):
    """Yield ``(first, stop, sums)`` per ladder piece of :func:`_ladder_sums` on one
    block of events: ``sums[k, s]`` adds up row ``first + k`` over the events
    from ``starts[s]`` to the next start, with the call's ``work`` arrays."""
    n = block.size
    # row views made once a block: indexing the 2-D array per row cost ~5% on two threads
    rotated, powers = work[0], [w[:n] for w in work[1]]  # w, w**2, w**4, ... for this block's step
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
        rot = rotated[:r * n].reshape(r, n)
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

    Events are spread in blocks of :data:`_NUFFT_BLOCK`, each onto the
    :data:`_ES_WIDTH` cells from its first cell ``ceil(n*x - W/2)`` on.  Where
    ``s*t`` sweeps the grid about once, consecutive events share a first
    cell: ~175 at a time on a 180k-event 1 s capture scanned over 501 points.
    A block whose runs of events sharing a first cell average at least
    :data:`_NUFFT_RUN_EVENTS` events adds up each run's weighted kernel
    values by ``np.add.reduceat`` (pairwise within the run) and scatters the
    ``runs x W`` sums; any other block (a time-shuffled capture, a scan with
    about as many cells as events) scatters its ``events x W`` values one at
    a time.  Either way a cell's total adds the same terms, only in another
    order.

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
        weighted = c * block
        x = s * block
        nx = n * (x - np.floor(x))
        first = np.ceil(nx - _ES_WIDTH / 2)
        cell = first.astype(np.intp) & (n - 1)  # n is a power of two: a negative cell wraps as by % n
        runs = np.flatnonzero(np.diff(cell, prepend=-1))  # each run's first event
        if _NUFFT_RUN_EVENTS * runs.size <= block.size:  # offsets x events, added up along each run
            kernel = _es_kernel(np.add.outer(offsets, first - nx) * (2.0 / _ES_WIDTH))  # exact, in [-1, 1)
            cells = np.add.outer(offsets, cell[runs]).ravel()
            for row, weight in ((0, c), (2, weighted)):
                sums = np.add.reduceat(kernel * weight, runs, axis=1).ravel()
                grid[row] += np.bincount(cells, sums.real, minlength=grid.shape[1])
                grid[row + 1] += np.bincount(cells, sums.imag, minlength=grid.shape[1])
        else:  # events x offsets, each event on its own cells
            kernel = _es_kernel(np.add.outer(first - nx, offsets) * (2.0 / _ES_WIDTH))
            cells = np.add.outer(cell, offsets).ravel()
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
    ``widths[b]`` for band ``b``; that axis becomes one entry per band.  Equal
    widths, as in every stock plan and sweep, take one ``argmax`` over a
    ``(..., bands, width)`` view of it; unequal ones take one per band.
    """
    mags = np.asarray(magnitudes)
    # plain isinstance tests, not check_count: a decoded window runs this once
    if not len(widths) or not all(isinstance(w, (int, np.integer)) and not isinstance(w, bool) and w >= 1
                                  for w in widths):
        raise ValueError(f"band widths {list(widths)} must be whole numbers of channels, at least 1 each")
    if sum(widths) != mags.shape[-1]:
        raise ValueError(f"band widths {list(widths)} do not tile {mags.shape[-1]} channels")
    if min(widths) == max(widths):
        return mags.reshape(*mags.shape[:-1], len(widths), widths[0]).argmax(axis=-1)
    segments = np.split(mags, np.cumsum(widths)[:-1], axis=-1)
    return np.stack([np.argmax(s, axis=-1) for s in segments], axis=-1)


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
    check_count(interval(2, math.inf, "[)"), channels=channels)
    check_count(interval(0, channels - 1, "[]"), line=line)
    mask = np.ones(channels, dtype=bool)
    mask[max(line - 1, 0): line + 2] = False
    if not mask.any():
        mask = np.arange(channels) != line
    return np.flatnonzero(mask)
