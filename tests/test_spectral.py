"""Phasor-sum estimation: identities, floor/line statistics, expectations."""

import csv
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from conftest import P, U, exact_sums, kernel_bound, rounding_walk
from mcfc import cli, spectral
from mcfc.codec import Symbol, decode
from mcfc.harness import SweepSpec, band_model, run_error_vs_components
from mcfc.photon_channel import (
    PS_PER_SECOND,
    LinkBudget,
    PhotonSequence,
    SourceConfig,
    Tone,
    derive_rng,
    sample_event_batch,
    transmit,
    write_pts1,
)
from mcfc.spectral import (
    MAX_GRID_POINTS,
    Band,
    band_argmax,
    batch_amplitudes,
    expected_line,
    floor_channels,
    periodogram,
    phasor_sums,
    point_dft_many,
)


def test_band_validation():
    with pytest.raises(ValueError):
        Band(0.0, 10.0)
    with pytest.raises(ValueError):
        Band(10.0, 10.0)
    b = Band(40e3, 60e3)
    assert b.width == pytest.approx(20e3)
    assert b.contains(40e3) and b.contains(60e3) and not b.contains(61e3)


# -----------------------------------------------------------------
# exact identities of the phasor sum
# -----------------------------------------------------------------

def test_dc_value_equals_event_count():
    seq = transmit(SourceConfig(7e4, 1e-3), LinkBudget(), derive_rng(40))
    assert phasor_sums(seq.seconds, [0.0])[0, 0] == pytest.approx(len(seq), rel=1e-12)


def test_linearity_over_concatenation():
    rng = derive_rng(41)
    a = np.sort(rng.uniform(0, 1e-3, 500))
    b = np.sort(rng.uniform(0, 1e-3, 700))
    f = 123_456.0
    xa = phasor_sums(PhotonSequence.from_seconds(a, 1e-3).seconds, [f])[0, 0]
    xb = phasor_sums(PhotonSequence.from_seconds(b, 1e-3).seconds, [f])[0, 0]
    ab = PhotonSequence.from_seconds(np.sort(np.concatenate([a, b])), 1e-3)
    xab = phasor_sums(ab.seconds, [f])[0, 0]
    assert abs(xab - (xa + xb)) / abs(xab) < 1e-9


def test_magnitude_invariant_under_time_shift():
    rng = derive_rng(42)
    t = np.sort(rng.uniform(0, 5e-4, 300))
    f = 50e3
    m0 = abs(phasor_sums(PhotonSequence.from_seconds(t, 1e-3).seconds, [f])[0, 0])
    m1 = abs(phasor_sums(PhotonSequence.from_seconds(t + 4.9e-4, 1e-3).seconds, [f])[0, 0])
    assert m1 == pytest.approx(m0, rel=1e-9)


def test_point_dft_many_matches_scalar():
    seq = transmit(SourceConfig(5e4, 1e-3, (Tone(50e3),)), LinkBudget(), derive_rng(43))
    freqs = np.array([10e3, 50e3, 123e3])
    many = point_dft_many(seq, freqs)
    for f, v in zip(freqs, many):
        assert v == pytest.approx(phasor_sums(seq.seconds, [f])[0, 0], rel=1e-12)


def test_point_dft_many_chunked_path():
    # few events + a wide grid forces several chunks through the outer product
    seq = transmit(SourceConfig(2e5, 1e-3), LinkBudget(), derive_rng(44))
    assert len(seq) > 150
    freqs = np.linspace(1e3, 500e3, 30_000)
    many = point_dft_many(seq, freqs)
    for idx in (0, 17_345, 29_999):
        assert many[idx] == pytest.approx(phasor_sums(seq.seconds, [freqs[idx]])[0, 0], rel=1e-12)


def test_empty_sequence_gives_zero_spectrum():
    spec = periodogram(PhotonSequence.empty(1e-3), Band(10e3, 20e3), 1e3)
    assert np.all(spec.values == 0)
    assert spec.count == 0


def test_batch_amplitudes_match_per_trial_dft():
    config = SourceConfig(3e4, 1e-3, (Tone(40e3),))
    batch = sample_event_batch(config, 50, derive_rng(45))
    freqs = np.array([20e3, 40e3])
    amps = batch_amplitudes(batch, freqs)
    for trial in (0, 13, 49):
        mask = batch.trial_ids == trial
        seq = PhotonSequence.from_seconds(np.sort(batch.times[mask]), 1e-3)
        for j, f in enumerate(freqs):
            # from_seconds snaps timestamps onto the picosecond grid, so
            # allow the resulting phase slew instead of exact agreement
            assert amps[trial, j] == pytest.approx(abs(phasor_sums(seq.seconds, [f])[0, 0]), rel=1e-5)


# -----------------------------------------------------------------
# the kernel against the exact sum (conftest.exact_sums) at its bound
# -----------------------------------------------------------------

@st.composite
def _events(draw):
    """Unordered event times, their trial ids (some trials left empty), and the trial count."""
    trials = draw(st.integers(1, 6))
    n = draw(st.integers(0, 60))
    times = draw(st.lists(st.floats(0.0, 2e-3), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, trials - 1), min_size=n, max_size=n))
    return np.array(times, dtype=np.float64), np.array(ids, dtype=np.int64), trials


def _assert_within_bound(values, t, freqs, nufft=False):
    """Every value of one trial lies within the kernel's bound of the exact sum."""
    errors = np.abs(np.asarray(values) - exact_sums(t, freqs))
    assert (errors <= kernel_bound(t, freqs, nufft)).all(), errors.max()
    return errors


def _assert_match_direct_fsum(times, ids, trials, freqs, chunk):
    # a small chunk cap drives the event blocking on small inputs
    with mock.patch.object(spectral, "PHASOR_CHUNK", chunk):
        got = phasor_sums(times, freqs, ids, trials)
    assert got.shape == (trials, len(freqs))
    for k in range(trials):
        _assert_within_bound(got[k], times[ids == k], freqs)


@settings(deadline=None)
@given(_events(), st.lists(st.floats(0.0, 3e5), max_size=8),
       st.integers(1, 40))
def test_phasor_sums_match_direct_fsum(events, freqs, chunk):
    _assert_match_direct_fsum(*events, freqs, chunk)


@st.composite
def _ladder_frequencies(draw):
    """Uniform ladders back to back: ascending, descending or zero-step, some through 0 Hz."""
    freqs = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 2 * spectral.ANCHOR + 20))
        step = draw(st.sampled_from([1.0, -1.0, 0.0])) * draw(st.floats(0.5, 2e3))
        if draw(st.booleans()):
            start = draw(st.floats(0.0, 3e5))
        else:  # 0 Hz lands on one rung of this ladder
            start = -step * draw(st.integers(0, length - 1))
        freqs.extend(start + step * np.arange(length))
    return freqs


@settings(deadline=None, max_examples=60)
@given(_events(), _ladder_frequencies(), st.sampled_from([1, 97, spectral.PHASOR_CHUNK]))
def test_phasor_sums_on_ladders_match_direct_fsum(events, freqs, chunk):
    _assert_match_direct_fsum(*events, freqs, chunk)


def test_rotation_holds_the_bound_at_the_quietest_point():
    # at f*t ~ 5e4 each phase (~3e5 rad) rounds by up to ~3e-11 rad; the rotated
    # phasors keep those roundings independent, so they add up to a walk of about
    # u*sqrt(sum(phi**2)) (~5e-9 here) at the line and at the quietest point alike
    t = transmit(SourceConfig(5e4, 1.0, (Tone(50e3, depth=0.5),)), LinkBudget(), derive_rng(54)).seconds
    # 61 rungs through the line: on the lattice of 250 Hz (K = 170), and off it
    for ladder in (250.0 * np.arange(170, 231), 49_970.0 + 1.0 * np.arange(61)):
        values = phasor_sums(t, ladder)[0]
        errors = _assert_within_bound(values, t, ladder)
        assert np.abs(values).min() < 0.25 * math.sqrt(t.size) < np.abs(values).max() / 100
        assert errors.max() <= 10 * rounding_walk(t, ladder)


def test_ladder_callers_stay_off_the_nufft(rgb_plan):
    # decode windows (33 channels in 11-rung bands) and multi-trial batches keep
    # the ladder's values bit for bit, so image and sweep outputs cannot change
    tones = tuple(Tone(f) for f in rgb_plan.frequencies_for(Symbol.gray(4, 5, 10)))
    window = transmit(SourceConfig(2e6, 1e-3, tones), LinkBudget(), derive_rng(55)).seconds
    channels = np.concatenate([band.channels for band in rgb_plan.bands])
    batch = sample_event_batch(SourceConfig(1e5, 1e-3, (Tone(50e3),)), 20, derive_rng(56))
    scan = 49_750.0 + 1.0 * np.arange(501)
    assert window.size > 1500
    with mock.patch.object(spectral, "_nufft_run", wraps=spectral._nufft_run) as nufft:
        values = phasor_sums(window, channels)
        amps = batch_amplitudes(batch, scan)
        assert not nufft.called
        phasor_sums(window, scan)
        assert nufft.called
    with mock.patch.object(spectral, "NUFFT_MIN_RUNGS", scan.size):
        assert np.array_equal(values, phasor_sums(window, channels))
        assert np.array_equal(amps, batch_amplitudes(batch, scan))


def _run_through_nufft(times, freqs):
    with mock.patch.object(spectral, "_nufft_run", wraps=spectral._nufft_run) as nufft:
        got = phasor_sums(times, freqs)[0]
    assert nufft.call_count == 1
    return got


@pytest.mark.parametrize("times, freqs", [
    pytest.param(np.empty(0), 49_900.0 + 1.0 * np.arange(201), id="empty"),
    pytest.param(np.array([0.3]), 49_900.0 + 1.0 * np.arange(201), id="one-event"),
    pytest.param(np.sort(derive_rng(57).uniform(0.0, 1.0, 2000)), 1_000.0 + 0.37 * np.arange(301),
                 id="0.37Hz-on-1s"),
    pytest.param(np.sort(derive_rng(58).uniform(0.0, 0.25, 2000)), 20_000.0 + 3.0 * np.arange(301),
                 id="3Hz-on-0.25s"),
    pytest.param(np.concatenate([[0.0], np.sort(derive_rng(59).uniform(0.0, 1.0, 500)), [1.0 - 1e-12]]),
                 49_900.0 + 1.0 * np.arange(201), id="window-edges"),
    pytest.param(np.sort(derive_rng(60).uniform(0.0, 1.0, 2000)), 50_100.0 - 1.0 * np.arange(201),
                 id="descending"),
])
def test_nufft_runs_match_direct_fsum(times, freqs):
    got = _run_through_nufft(times, freqs)
    if times.size == 0:
        assert np.array_equal(got, np.zeros(freqs.size))
    _assert_within_bound(got, times, freqs, nufft=True)


def _nufft_tight(t, freqs):
    """Ten walks of the phase roundings plus the NUFFT's own error: a fixed-seed
    check on the largest error of a run, which a coherent error (one that grows
    with ``N``, not ``sqrt(N)``) would fail long before the worst-case bound."""
    return 10 * rounding_walk(t, freqs) + t.size * spectral._NUFFT_EPS


def test_nufft_moves_each_mode_onto_its_exact_frequency():
    # 0.0037 Hz steps round, so the points sit ~1 ulp (7e-12 Hz) off the run's
    # line; over a 100 s capture that drifts the line's ~1000 phasors alike by
    # up to ~4e-9 rad, a few 1e-6 in all, which the derivative transform must take
    # out to stay within ten walks (~1e-6).  All three runs take a 256-cell
    # grid: 121 rungs, 65 (oversampled 3.9 times, kept on the NUFFT by the
    # patched threshold whatever its default) and 128 (oversampled exactly twice)
    for rungs, line in [(121, 100), (65, 50), (128, 100)]:
        grid = 49_999.8 + 0.0037 * np.arange(rungs)
        seq = transmit(SourceConfig(20.0, 100.0, (Tone(grid[line]),)), LinkBudget(), derive_rng(67))
        with mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft, \
                mock.patch.object(spectral, "NUFFT_MIN_RUNGS", rungs - 1):
            values = _run_through_nufft(seq.seconds, grid)
        assert fft.call_args.args[0].shape == (2, 256)
        errors = _assert_within_bound(values, seq.seconds, grid, nufft=True)
        assert errors.max() <= _nufft_tight(seq.seconds, grid), rungs


def test_nufft_holds_a_planted_quiet_point_to_the_bound():
    # pairs an odd number of half periods apart cancel at 50 kHz, and two events
    # on whole periods leave |X| ~ 2 there; the NUFFT value stands, no ladder
    # runs, and it is as close to the exact sum as the line's neighbours are
    f0 = 50_000.0
    first = derive_rng(62).uniform(0.0, 0.9, 1000)
    t = np.sort(np.concatenate([first, first + 5001 / (2 * f0), np.arange(1, 3) / f0]))
    grid = 49_850.0 + 1.0 * np.arange(201)  # 50 kHz at mode 50, off the centre
    with mock.patch.object(spectral, "_ladder_sums", wraps=spectral._ladder_sums) as ladder:
        values = _run_through_nufft(t, grid)
    assert not ladder.called
    errors = _assert_within_bound(values, t, grid, nufft=True)
    assert abs(exact_sums(t, [f0])[0]) < 2.5 and grid[150] == f0
    assert errors[150] <= _nufft_tight(t, grid)


def test_a_mixed_list_is_cut_once_and_each_run_summed_as_cut():
    # [1, 2, 3] kHz, 70 rungs for the NUFFT, then [4, 5] kHz: cutting the ladder's
    # columns again would sum 1..5 kHz as one run, [4, 5] as its rungs 3 and 4
    t = np.sort(derive_rng(73).uniform(0.0, 1e-3, 5000))
    short, scan, tail = 1e3 * np.arange(1, 4), 10e3 + 500.0 * np.arange(70), np.array([4e3, 5e3])
    freqs = np.concatenate([short, scan, tail])
    with mock.patch.object(spectral, "_ladders", wraps=spectral._ladders) as ladders:
        got = _run_through_nufft(t, freqs)
    assert ladders.call_count == 1
    for run, cols in [(short, slice(0, 3)), (scan, slice(3, 73)), (tail, slice(73, 75))]:
        assert np.array_equal(got[cols], phasor_sums(t, run)[0]), run
    # a trial longer than a ladder block adds up into its row around the NUFFT's columns
    with mock.patch.object(spectral, "PHASOR_CHUNK", 64):
        blocked = phasor_sums(t, freqs)[0]
    assert np.array_equal(blocked[3:73], got[3:73])
    _assert_within_bound(blocked, t, freqs, nufft=True)


def _scanned_capture():
    """A 1 s capture of ~20k events at f*t up to 5e4 and a 251-point scan across
    its line: ~40 events share each first cell of the 512-cell grid."""
    seq = transmit(SourceConfig(2e4, 1.0, (Tone(50e3, depth=0.5),)), LinkBudget(), derive_rng(63))
    return seq.seconds, 49_875.0 + 1.0 * np.arange(251)


def test_scan_error_stays_within_ten_rounding_walks():
    # at floor points |X|**2 is about exponential with mean N, so some points are quiet
    t, scan = _scanned_capture()
    values = _run_through_nufft(t, scan)
    errors = _assert_within_bound(values, t, scan, nufft=True)
    assert np.abs(values).min() < 0.1 * math.sqrt(t.size)
    assert errors.max() <= _nufft_tight(t, scan)


def test_shuffled_events_hold_the_bound_like_sorted_ones():
    # sorted, each block adds up runs of events sharing a first cell; shuffled,
    # neighbours seldom share one and each event is spread on its own
    t, scan = _scanned_capture()
    shuffled = derive_rng(64).permutation(t)
    exact = exact_sums(t, scan)
    for times in (t, shuffled):
        errors = np.abs(_run_through_nufft(times, scan) - exact)
        assert (errors <= kernel_bound(times, scan, nufft=True)).all(), errors.max()
        assert errors.max() <= _nufft_tight(times, scan)


def test_dense_blocks_spread_run_sums_and_sparse_blocks_each_event():
    # the capture's blocks hold ~40 events a run: two reduceats a block (the
    # phasors and their time-weighted twins); 2000 events over 4096 cells hold
    # about one event a run, which goes on its own
    dense, scan = _scanned_capture()
    sparse = np.sort(derive_rng(65).uniform(0.0, 1.0, 2000))
    wide = 40_000.0 + 1.0 * np.arange(2001)
    blocks = -(-dense.size // spectral._NUFFT_BLOCK)
    for times, freqs, reduceats in [(dense, scan, 2 * blocks), (sparse, wide, 0)]:
        with mock.patch.object(np, "add", wraps=np.add) as add:
            values = spectral._nufft_run(times, freqs)
        assert add.reduceat.call_count == reduceats
        _assert_within_bound(values, times, freqs, nufft=True)


def test_nufft_work_arrays_stay_small():
    # the grid and one block's kernel, products and sums; nothing the size of
    # the capture (1.4 MB of times), which would show in the process's peak RSS
    t = transmit(SourceConfig(1.8e5, 1.0, (Tone(50e3, depth=0.5),)), LinkBudget(), derive_rng(66)).seconds
    scan = 49_750.0 + 1.0 * np.arange(501)
    assert t.size > 170_000
    spectral._nufft_run(t, scan)
    tracemalloc.start()
    try:
        spectral._nufft_run(t, scan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000, peak


def test_nufft_modes_turn_at_the_reference_two_pi():
    # one event whose phases round nowhere: f*t is a power of two at the centre
    # (2048 Hz at 0.5 s) and s*t = 1/2, so only the NUFFT's own error is left;
    # modes at the exact 2*pi would miss P*f*t by (2*pi - P)*k/2, 1.2e-13 at |k| = 1000
    t = np.array([0.5])
    grid = 1048.0 + 1.0 * np.arange(2001)
    errors = np.abs(_run_through_nufft(t, grid) - exact_sums(t, grid))
    assert errors.max() <= t.size * spectral._NUFFT_EPS


def test_many_event_blocks_add_up_like_one_sum():
    # one event per block: next to a strong line the running sum swings by ~1e3
    # over the capture, and adding 20k block sums in turn would drift by ~1e-11;
    # the Kahan carry keeps them within 1e-12 of the sum in a few large blocks
    seq = transmit(SourceConfig(20e3, 1.0, (Tone(50e3),)), LinkBudget(), derive_rng(61))
    ladder = np.array([49_998.0, 49_999.0, 50_000.0, 50_001.0, 50_002.0])
    with mock.patch.object(spectral, "PHASOR_CHUNK", ladder.size):
        values = phasor_sums(seq.seconds, ladder)[0]
    assert np.abs(values - phasor_sums(seq.seconds, ladder)[0]).max() <= 1e-12


# -----------------------------------------------------------------
# lattice anchors: w**K in place of an exp per band
# -----------------------------------------------------------------

class _ExpCounter:
    """numpy as ``spectral`` sees it, counting the complex elements passed through ``exp``."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        if np.iscomplexobj(x):
            self.elements += np.size(x)
        return np.exp(x, *args, **kwargs)


def _exp_per_call(run):
    """Run ``run()``; return its result and, per ``phasor_sums`` call in it, the
    events and the complex ``exp`` elements of that call."""
    counter, calls, kernel = _ExpCounter(), [], spectral.phasor_sums

    def counted(times, *args, **kwargs):
        before = counter.elements
        values = kernel(times, *args, **kwargs)
        calls.append((np.size(times), counter.elements - before))
        return values

    with mock.patch.object(spectral, "np", counter), mock.patch.object(spectral, "phasor_sums", counted):
        result = run()
    return result, calls


def test_one_exp_per_event_for_a_whole_channel_plan(rgb_plan):
    tones = tuple(Tone(f) for f in rgb_plan.frequencies_for(Symbol.gray(4, 5, 10)))
    window = transmit(SourceConfig(1.44e6, 1e-3, tones), LinkBudget(), derive_rng(80))
    symbol, calls = _exp_per_call(lambda: decode(window, rgb_plan))
    assert symbol == Symbol.gray(4, 5, 10)
    assert calls == [(len(window), len(window))]
    # mc-sweep's bands, k = 1 and k = 3 (one and three 11-channel bands at 1 kHz)
    spec = SweepSpec(grid=(1.44e6,), trials=40, seed=81, components=(1, 3))
    points, calls = _exp_per_call(lambda: run_error_vs_components(spec))
    assert [p.components for p in points] == [1, 3] and len(calls) == 2
    assert all(events > 40_000 and exps == events for events, exps in calls)


@st.composite
def _lattice_bands(draw):
    """Bands of 2-64 rungs on the lattice of one step, ascending or descending,
    disjoint and apart, every rung and ``|K| + rows - 1`` below ``2**LATTICE_BITS``;
    the largest event time keeps ``max|f*t|`` at most 5e4."""
    step = 0.25 * draw(st.integers(1, 4000))  # K * step is exact
    cursor, bands = draw(st.integers(1, 40)), []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(2, spectral.ANCHOR))
        if cursor + 2 * rows - 2 >= 2 ** spectral.LATTICE_BITS:
            break
        rungs = cursor + np.arange(rows)
        bands.append(rungs[::-1] if draw(st.booleans()) else rungs)
        cursor += rows + draw(st.integers(2, 40))
    if draw(st.booleans()):
        bands.reverse()
    freqs = step * np.concatenate(bands)
    top_t = draw(st.floats(1e-4, 1.0)) * min(1.0, 5e4 / np.abs(freqs).max())
    flips = sum((a[1] - a[0]) != (b[1] - b[0]) for a, b in zip(bands, bands[1:]))
    return freqs, top_t, 1 + flips


@settings(deadline=None, max_examples=60)
@given(_lattice_bands(), st.integers(1, 3), st.integers(1, 200), st.data())
def test_lattice_pieces_match_direct_fsum(bands, trials, n, data):
    freqs, top_t, steps = bands
    times = np.array(data.draw(st.lists(st.floats(0.0, top_t), min_size=n, max_size=n)))
    ids = np.array(data.draw(st.lists(st.integers(0, trials - 1), min_size=n, max_size=n)))
    got, calls = _exp_per_call(lambda: spectral.phasor_sums(times, freqs, ids, trials))
    assert calls == [(n, n * steps)]  # one exp per event for each step, none per band
    for k in range(trials):
        _assert_within_bound(got[k], times[ids == k], freqs)


def test_pieces_off_the_lattice_or_past_its_gate_keep_the_direct_anchor():
    rng = derive_rng(82)
    window = np.sort(rng.uniform(0.0, 1e-3, 2000))
    long_capture = np.sort(rng.uniform(0.0, 2.0, 2000))
    rungs = np.arange(11)
    cases = [
        (window, 200e3 + 0.5 + 1e3 * rungs),  # off the lattice
        (window, 300e3 + 1e3 * rungs),  # |K| + rows - 1 past 2**LATTICE_BITS
        (window, 25e3 + 1e3 * rungs),  # on the lattice
        (long_capture, 30e3 + 1e3 * rungs),  # on it too: no phase gates it, max |f * t| ~ 8e4
    ]
    got = [phasor_sums(t, freqs) for t, freqs in cases]
    with mock.patch.object(spectral, "LATTICE_BITS", 0):  # no piece passes the gate
        direct = [phasor_sums(t, freqs) for t, freqs in cases]
    assert [np.array_equal(a, b) for a, b in zip(got, direct)] == [True, True, False, False]
    for (t, freqs), values in zip(cases, got):
        _assert_within_bound(values[0], t, freqs)


def test_ladder_runs_follow_the_channel_grids(rgb_plan):
    channels = np.concatenate([band.channels for band in rgb_plan.bands])
    assert spectral._ladders(channels) == [(0, 11, -1e3), (11, 22, -1e3), (22, 33, -1e3)]
    grid = periodogram(PhotonSequence.empty(1.0), Band(49_750.0, 50_250.0), 1.0).frequencies
    assert spectral._ladders(grid) == [(0, 501, 1.0)]
    assert spectral._ladders(np.array([5.0, 5.0, 5.0, 7.0])) == [(0, 3, 0.0), (3, 4, 0.0)]
    assert spectral._ladders(np.array([1.0, np.inf, 2.0])) == [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0)]
    # the whole-list check must fall through to the rule at its edges
    assert spectral._ladders(np.array([1.0, 2.0, 3.0, 4.0 + 1e-9])) == [(0, 3, 1.0), (3, 4, 0.0)]
    assert spectral._ladders(np.array([np.inf, 1.0, 2.0])) == [(0, 1, 0.0), (1, 3, 1.0)]
    assert spectral._ladders(np.array([1.0, 2.0, np.nan, 4.0])) == [(0, 2, 1.0), (2, 3, 0.0), (3, 4, 0.0)]
    assert spectral._ladders(np.array([5.0, 6.0])) == [(0, 2, 1.0)]


def _ladders_loop(freqs):
    """The sequential definition of the ladder cut, one Python step per frequency."""
    with np.errstate(invalid="ignore"):  # inf - inf
        steps = np.diff(freqs).tolist()
    slack = (spectral._LADDER_ULPS * np.finfo(np.float64).eps
             * np.maximum(np.abs(freqs[:-1]), np.abs(freqs[1:]))).tolist()
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


@st.composite
def _cut_frequencies(draw):
    """Ladders, some with steps a few ulps inside or past the slack, repeats, inf and nan."""
    freqs = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["ladder", "jitter", "repeat", "special", "loose"]))
        length = draw(st.integers(1, 12))
        start = draw(st.floats(-3e5, 3e5))
        step = draw(st.sampled_from([1.0, -1.0, 1e-3, 37.5]))
        run = start + step * np.arange(length)
        if kind == "jitter":  # each rung moved by up to 12 ulps, so steps straddle the 8-ulp slack
            ulps = draw(st.lists(st.integers(-12, 12), min_size=length, max_size=length))
            run = run + np.array(ulps) * np.spacing(np.abs(run))
        elif kind == "repeat":
            run = np.full(length, start)
        elif kind == "special":
            run = np.array(draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan, 0.0, start]),
                                         min_size=length, max_size=length)))
        elif kind == "loose":
            run = np.array(draw(st.lists(st.floats(-3e5, 3e5), min_size=length, max_size=length)))
        freqs.extend(run)
    return np.array(freqs, dtype=np.float64)


@settings(deadline=None, max_examples=300)
@given(_cut_frequencies())
def test_ladder_cut_matches_the_sequential_rule(freqs):
    assert spectral._ladders(freqs) == _ladders_loop(freqs)


def test_ladder_cut_of_a_drifting_ladder():
    # each step is within the slack of the one before, but the drift leaves the
    # first step's slack: runs break against their first step, not the last one
    freqs = 1e5 + np.cumsum(np.concatenate([[0.0], 1.0 + 4e-11 * np.arange(1, 200)]))
    runs = spectral._ladders(freqs)
    assert runs == _ladders_loop(freqs)
    assert len(runs) > 1


# -----------------------------------------------------------------
# the kernel keeps nothing between calls
# -----------------------------------------------------------------

def _kernel_cases():
    rng = derive_rng(70)
    channels = 200e3 + 1e3 * np.arange(-5, 6)
    big_t = rng.uniform(0.0, 1e-3, 20_000)
    big = (big_t, np.concatenate([channels, channels + 37e3]), rng.integers(0, 40, big_t.size), 40)
    small = (rng.uniform(0.0, 1e-3, 50), channels[:3], None, 1)
    return big, small


def test_sums_do_not_depend_on_earlier_calls():
    big, small = _kernel_cases()
    first = phasor_sums(*big)
    lone = phasor_sums(*small)
    assert np.array_equal(phasor_sums(*big), first)
    assert np.array_equal(phasor_sums(*small), lone)
    assert np.array_equal(phasor_sums(*big), first)


def _in_threads(*jobs, timeout=120.0):
    """Run each job in its own thread, all at once; return their results."""
    results = [None] * len(jobs)

    def runner(i, job):
        results[i] = job()

    threads = [threading.Thread(target=runner, args=(i, job)) for i, job in enumerate(jobs)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the threads interleave inside the kernel
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_threads_calling_at_once_get_their_own_sums():
    big, small = _kernel_cases()
    want_big, want_small = phasor_sums(*big), phasor_sums(*small)

    def repeat(case, times):
        return [phasor_sums(*case) for _ in range(times)]

    got_big, got_small, got_big_too = _in_threads(lambda: repeat(big, 3), lambda: repeat(small, 300),
                                                  lambda: repeat(big, 3))
    assert all(np.array_equal(v, want_big) for v in got_big + got_big_too)
    assert all(np.array_equal(v, want_small) for v in got_small)


def test_a_call_holds_no_memory_once_it_returns():
    # on a fresh thread, which no earlier call can have left anything to; only
    # the returned sums stay (a 20k-event, 11-channel call)
    t = _kernel_cases()[0][0]
    channels = 200e3 + 1e3 * np.arange(-5, 6)
    phasor_sums(t, channels)  # whatever a first call in the process sets up

    def held():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sums = phasor_sums(t, channels)
            return tracemalloc.get_traced_memory()[0] - before - sums.nbytes
        finally:
            tracemalloc.stop()

    (extra,) = _in_threads(held)
    assert extra <= 16_384, extra


def test_a_patched_chunk_cap_lowers_the_call_peak():
    t = derive_rng(71).uniform(0.0, 1e-3, 1000)
    ladder = 200e3 + 1e3 * np.arange(-5, 6)

    def peak_and_sums(chunk):
        with mock.patch.object(spectral, "PHASOR_CHUNK", chunk):
            tracemalloc.start()
            try:
                sums = phasor_sums(t, ladder)
                return tracemalloc.get_traced_memory()[1], sums
            finally:
                tracemalloc.stop()

    (capped_peak, capped), (free_peak, free) = peak_and_sums(97), peak_and_sums(spectral.PHASOR_CHUNK)
    # at least the rotated phasors of all 1000 events against those of 97 // 11
    assert free_peak - capped_peak >= 16 * ladder.size * (t.size - 97 // ladder.size)
    _assert_within_bound(capped[0], t, ladder)
    assert np.allclose(capped, free, rtol=0.0, atol=1e-12)


# -----------------------------------------------------------------
# trial-independent sums, and threads over trials
# -----------------------------------------------------------------

def _one_trial_each(times, ids, trials, freqs):
    """Each trial's events summed by a call of its own, in batch order."""
    return np.array([phasor_sums(times[ids == k], freqs)[0] for k in range(trials)]).reshape(trials, -1)


@settings(deadline=None, max_examples=120)
@given(_events(), st.one_of(_ladder_frequencies(), _lattice_bands().map(lambda bands: list(bands[0]))),
       st.sampled_from([1, 7, 97, spectral.PHASOR_CHUNK]))
@example((np.array([4.25896548e-05, 3e-4]), np.array([0, 1]), 2), list(1e3 * np.arange(60, 71)), 97)
def test_batch_rows_equal_one_trial_calls(events, freqs, chunk):
    # empty trials, one trial, one-event trials, and (at a small chunk cap)
    # trials longer than a block; off and on the lattice; one-trial calls kept
    # off the NUFFT, which batches never take
    times, ids, trials = events
    with mock.patch.object(spectral, "PHASOR_CHUNK", chunk), \
            mock.patch.object(spectral, "NUFFT_MIN_RUNGS", sys.maxsize):
        batch = phasor_sums(times, freqs, ids, trials)
        alone = _one_trial_each(times, ids, trials, freqs)
    assert np.array_equal(batch, alone)


def _threaded_batch():
    """Unordered ids, empty trials, trials from one event to many blocks long."""
    rng = derive_rng(72)
    lengths = np.concatenate([[0, 1, 2000], rng.integers(0, 60, 200), [0, 5000, 3]])
    ids = rng.permutation(np.repeat(np.arange(lengths.size), lengths))
    times = rng.uniform(0.0, 1e-3, ids.size)
    channels = 1e3 * np.concatenate([np.arange(20, 31), np.arange(40, 51), np.arange(60, 71)])
    return times, channels, ids, lengths.size


def _on_threads(threads, case):
    """``phasor_sums(*case)`` cut into ``threads`` shares; the values, the shares
    and the number of threads that summed them (a worker may take two shares)."""
    seen, kernel = [], spectral._ladder_sums

    def traced(*args):
        seen.append(threading.get_ident())
        return kernel(*args)

    with mock.patch.object(spectral, "_threads", lambda: threads), \
            mock.patch.object(spectral, "THREAD_MIN_EVENTS", 0), \
            mock.patch.object(spectral, "PHASOR_CHUNK", 4096), \
            mock.patch.object(spectral, "_ladder_sums", traced):
        return phasor_sums(*case), len(seen), len(set(seen))


def test_worker_counts_give_identical_sums():
    case = _threaded_batch()
    (one, *on_one), (two, *on_two), (three, *on_three) = (_on_threads(n, case) for n in (1, 2, 3))
    assert on_one == [1, 1] and on_two == [2, 2] and on_three[0] == 3 and on_three[1] >= 2
    assert np.array_equal(one, two) and np.array_equal(one, three)
    times, freqs, ids, trials = case
    with mock.patch.object(spectral, "PHASOR_CHUNK", 4096):
        assert np.array_equal(one, _one_trial_each(times, ids, trials, freqs))


def test_concurrent_callers_get_their_own_sums():
    times, freqs, ids, trials = _threaded_batch()
    half = times.size // 2
    cases = [(times, freqs, ids, trials), (times[:half], freqs[:11], ids[:half], trials),
             (times, freqs[::-1], (ids * 7) % trials, trials)]
    want = [phasor_sums(*case) for case in cases]
    with mock.patch.object(spectral, "_threads", lambda: 3), mock.patch.object(spectral, "THREAD_MIN_EVENTS", 0):
        got = _in_threads(*(lambda case=case: [phasor_sums(*case) for _ in range(4)] for case in cases))
    for values, expected in zip(got, want):
        assert all(np.array_equal(v, expected) for v in values)


def test_import_and_one_trial_calls_start_no_thread():
    probe = (
        "import threading, numpy as np, mcfc, mcfc.cli\n"
        "from mcfc import spectral\n"
        "assert threading.active_count() == 1, 'import'\n"
        "t = np.random.default_rng(1).uniform(0.0, 1.0, 4 * spectral.THREAD_MIN_EVENTS)\n"
        "spectral.phasor_sums(t, 1e3 + np.arange(11.0))\n"
        "spectral.phasor_sums(t, 1e3 + np.arange(501.0))\n"
        "assert threading.active_count() == 1, 'one-trial call'\n"
    )
    source_root = os.path.dirname(os.path.dirname(spectral.__file__))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": source_root})
    assert proc.returncode == 0, proc.stderr


def test_threaded_batch_leaves_no_thread_behind():
    before = threading.active_count()
    _, *used = _on_threads(2, _threaded_batch())
    assert used == [2, 2] and threading.active_count() == before


def test_forked_child_sums_on_threads_of_its_own():
    case = _threaded_batch()
    want, *used = _on_threads(2, case)
    assert used == [2, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a process with threads
        pid = os.fork()
    if pid == 0:  # the child: sum again on two threads, exit at once
        status = 1
        try:
            got, *used = _on_threads(2, case)
            status = 0 if used == [2, 2] and np.array_equal(got, want) else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's threaded call did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


@settings(deadline=None)
@given(_events())
def test_phasor_sum_at_dc_is_count_per_trial(events):
    times, ids, trials = events
    dc = phasor_sums(times, [0.0], ids, trials)[:, 0]
    assert np.array_equal(np.abs(dc), np.bincount(ids, minlength=trials))


def test_phasor_sums_single_sequence_is_one_trial():
    t = np.sort(derive_rng(53).uniform(0, 1e-3, 200))
    freqs = [10e3, 50e3]
    assert np.array_equal(phasor_sums(t, freqs), phasor_sums(t, freqs, np.zeros(200, int), 1))
    assert phasor_sums(np.empty(0), freqs, trials=3).shape == (3, 2)
    with pytest.raises(ValueError, match="trial_ids"):
        phasor_sums(t, freqs, np.full(200, 3), 3)


def test_phasor_sums_take_zero_trials_and_refuse_fewer():
    config = SourceConfig(80e3, 1e-3, (Tone(200e3),))
    empty = sample_event_batch(config, 0, derive_rng(54))
    for rungs in (11, spectral.NUFFT_MIN_RUNGS + 36):  # the one-trial NUFFT's length too
        assert batch_amplitudes(empty, 1e3 * np.arange(1.0, rungs + 1)).shape == (0, rungs)
    with pytest.raises(ValueError, match="trials"):
        phasor_sums(np.empty(0), [1e3], np.empty(0, dtype=np.intp), -1)


@pytest.mark.parametrize("times, freqs, named", [
    ([0.1, 0.2], [math.nan, 1.0], "frequencies must be finite, got nan at index 0"),
    ([0.1, 0.2], [1.0, math.inf], "frequencies must be finite, got inf at index 1"),
    ([0.1, math.nan], [1.0], "times must be finite, got nan at index 1"),
])
def test_phasor_sums_refuse_what_is_not_finite_by_name(times, freqs, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused by name before numpy can warn
        with pytest.raises(ValueError, match=rf"^{named}$"):
            phasor_sums(times, freqs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
def test_phasor_sums_refuse_trial_ids_that_are_not_integers(dtype):
    t = derive_rng(55).uniform(0.0, 1e-3, 4)
    with pytest.raises(ValueError, match="trial_ids"):
        phasor_sums(t, [10e3, 50e3], np.array([0, 1, 1, 0], dtype=dtype), 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
def test_phasor_sums_take_any_integer_trial_ids(dtype):
    t = derive_rng(55).uniform(0.0, 1e-3, 4)
    ids = np.array([0, 1, 1, 0])
    want = phasor_sums(t, [10e3, 50e3], ids, 2)
    assert np.array_equal(phasor_sums(t, [10e3, 50e3], ids.astype(dtype), 2), want)


@settings(deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4).flatmap(
    lambda widths: st.tuples(
        st.just(widths),
        st.lists(st.integers(0, 2), min_size=sum(widths), max_size=sum(widths)),
    )))
def test_band_argmax_ties_resolve_to_lowest_index(case):
    widths, values = case
    picks = band_argmax(np.array(values, dtype=np.float64), widths)
    offset = 0
    for b, width in enumerate(widths):
        band = values[offset: offset + width]
        assert picks[b] == band.index(max(band))
        offset += width


def test_band_argmax_over_trials():
    mags = np.array([[1.0, 3.0, 3.0, 0.0, 2.0], [5.0, 0.0, 0.0, 1.0, 1.0]])
    assert band_argmax(mags, [3, 2]).tolist() == [[1, 1], [0, 0]]
    with pytest.raises(ValueError, match="widths"):
        band_argmax(mags, [3, 3])
    for widths in ([-1, 6], [0, 5], [6, -1, 0]):  # they tile the axis, but a band needs a channel
        with pytest.raises(ValueError, match="widths"):
            band_argmax(mags, widths)
    with pytest.raises(ValueError, match="widths"):  # no band: nothing to take the argmax of
        band_argmax(np.zeros((2, 0)), [])
    for widths in ([True, 4], [np.bool_(True), 4], [2.0, 3], [2.5, 2.5], ["2", 3], [None, 5]):
        with pytest.raises(ValueError, match="widths"):  # a width counts channels
            band_argmax(mags, widths)
    assert band_argmax(mags, [np.int64(3), np.int32(2)]).tolist() == [[1, 1], [0, 0]]


@pytest.mark.parametrize("bands, width", [(3, 11), (1, 26)])
def test_band_argmax_equal_widths_match_one_argmax_per_band(bands, width):
    rng = derive_rng(84, bands)
    mags = rng.random((64, bands * width))
    mags[::2] = np.round(mags[::2] * 3.0)  # ties in every band of every other row
    mags[1, :] = 1.0  # all channels tie
    split = np.stack([np.argmax(s, axis=-1) for s in np.split(mags, bands, axis=-1)], axis=-1)
    got = band_argmax(mags, [width] * bands)
    assert got.shape == split.shape and np.array_equal(got, split)
    assert np.array_equal(band_argmax(mags[5], [width] * bands), split[5])
    assert np.array_equal(band_argmax(mags.reshape(8, 8, -1), [width] * bands), split.reshape(8, 8, -1))


# -----------------------------------------------------------------
# statistical levels: white floor and modulation lines
# -----------------------------------------------------------------

def test_white_floor_power_equals_count():
    # E|X(f)|^2 = N for a homogeneous stream at any nonzero frequency
    config = SourceConfig(2e5, 1e-3)
    batch = sample_event_batch(config, 10_000, derive_rng(46))
    amps = batch_amplitudes(batch, np.array([137_531.0]))
    mean_count = batch.counts().mean()
    assert (amps**2).mean() / mean_count == pytest.approx(1.0, abs=0.05)


def test_full_depth_line_is_half_count():
    config = SourceConfig(2e5, 1e-3, (Tone(50e3),))
    batch = sample_event_batch(config, 4000, derive_rng(47))
    amps = batch_amplitudes(batch, np.array([50e3]))
    n = config.expected_count
    # Rician mean exceeds N/2 by ~sigma^2/N; 3% absorbs that comfortably
    assert amps.mean() == pytest.approx(n / 2, rel=0.03)
    assert abs(expected_line(config, 50e3)) == pytest.approx(n / 2, rel=1e-6)


def test_line_and_floor_scaling_with_count():
    line, floor = [], []
    for i, rate in enumerate((40e3, 160e3)):
        config = SourceConfig(rate, 1e-3, (Tone(50e3),))
        batch = sample_event_batch(config, 4000, derive_rng(48, i))
        amps = batch_amplitudes(batch, np.array([50e3, 57e3]))
        line.append(amps[:, 0].mean())
        floor.append(amps[:, 1].mean())
    assert line[1] / line[0] == pytest.approx(4.0, rel=0.05)   # line ~ N
    assert floor[1] / floor[0] == pytest.approx(2.0, rel=0.10)  # floor ~ sqrt(N)


def test_expected_line_matches_quadrature():
    """The closed-form Fourier integral against brute-force quadrature."""
    rng = np.random.default_rng(49)
    for _ in range(5):
        tones = tuple(
            Tone(rng.uniform(5e3, 90e3), rng.uniform(0, 2 * np.pi), rng.uniform(0.2, 1.0))
            for _ in range(rng.integers(1, 4))
        )
        config = SourceConfig(rng.uniform(1e4, 2e5), rng.uniform(2e-4, 2e-3), tones)
        probe = rng.uniform(5e3, 90e3)

        def integrand_re(t):
            return config.rate(t) * np.cos(2 * np.pi * probe * t)

        def integrand_im(t):
            return -config.rate(t) * np.sin(2 * np.pi * probe * t)

        re, _ = integrate.quad(integrand_re, 0, config.duration, limit=400)
        im, _ = integrate.quad(integrand_im, 0, config.duration, limit=400)
        got = expected_line(config, probe)
        assert got.real == pytest.approx(re, abs=1e-6 * max(1.0, abs(re)))
        assert got.imag == pytest.approx(im, abs=1e-6 * max(1.0, abs(im)))


@settings(deadline=None, max_examples=12)
@given(st.lists(st.tuples(st.floats(5e3, 90e3), st.floats(0.0, 2 * np.pi), st.floats(0.0, 1.0)),
                min_size=1, max_size=3),
       st.floats(5e3, 90e3), st.booleans())
def test_expected_line_matches_the_monte_carlo_mean(tones, probe, on_tone):
    config = SourceConfig(5e4, 1e-3, tuple(Tone(f, phase, depth) for f, phase, depth in tones))
    probe = tones[0][0] if on_tone else probe
    trials = 3000
    batch = sample_event_batch(config, trials, derive_rng(64, len(tones)))
    values = phasor_sums(batch.times, [probe], batch.trial_ids, trials)[:, 0]
    want = expected_line(config, probe)
    for got, spread, exact in ((values.real, values.real.std(ddof=1), want.real),
                               (values.imag, values.imag.std(ddof=1), want.imag)):
        assert abs(got.mean() - exact) <= 5.0 * spread / math.sqrt(trials)


def test_expected_line_at_dc_is_expected_count():
    config = SourceConfig(8e4, 1e-3, (Tone(50e3, phase=0.7, depth=0.9),))
    assert expected_line(config, 0.0) == pytest.approx(config.expected_count, rel=1e-12)


# -----------------------------------------------------------------
# aliasing: a gated detector registers on its clock, a free-running one at random
# -----------------------------------------------------------------

@settings(deadline=None, max_examples=20)
@given(st.integers(2_000, 50_000), st.floats(5e3, 90e3), st.integers(1, 3), st.integers(0, 2**16))
def test_gated_detector_aliases_every_multiple_of_its_rate(period_ps, tone, m, seed):
    # every registered time is a whole number of gate periods T, so the phasors
    # at f + m/T are those at f: the line reappears there, |X(f)| = |X(f + m/T)|
    period = period_ps / PS_PER_SECOND
    config = SourceConfig(1e5, 1e-3, (Tone(tone),))
    batch = sample_event_batch(config, 4, derive_rng(83, seed), LinkBudget(rep_period=period))
    alias = tone + m / period
    values = np.abs(phasor_sums(batch.times, [tone, alias], batch.trial_ids, batch.trials))
    for k in range(batch.trials):
        t = batch.times[batch.trial_ids == k]
        # the bound at each frequency; the times, T, m/T and the alias round off
        # whole periods by u each, and P is not 2*pi: 5*u*phi_i in all
        slack = 2 * kernel_bound(t, [alias]) + 5 * U * P * alias * np.abs(t).sum()
        assert abs(values[k, 0] - values[k, 1]) <= slack


def test_free_running_detector_does_not_alias():
    # without a gate the times fall anywhere, so f + 1/T is one more floor point:
    # E|X|**2 = N there, while the line at f keeps its N/2
    config = SourceConfig(2e5, 1e-3, (Tone(50e3),))
    batch = sample_event_batch(config, 2000, derive_rng(84), LinkBudget(dead_time=50e-9))
    amps = batch_amplitudes(batch, np.array([50e3, 50e3 + 1 / 10e-9]))
    assert amps[:, 0].mean() == pytest.approx(config.expected_count / 2, rel=0.03)
    assert (amps[:, 1] ** 2).mean() / batch.counts().mean() == pytest.approx(1.0, abs=0.1)


# -----------------------------------------------------------------
# scanning and channel bookkeeping
# -----------------------------------------------------------------

def test_periodogram_grid_and_peak():
    config = SourceConfig(2e5, 1e-3, (Tone(50e3),))
    seq = transmit(config, LinkBudget(), derive_rng(50))
    spec = periodogram(seq, Band(40e3, 60e3), 1e3)
    assert spec.frequencies.size == 21
    assert spec.frequencies[np.argmax(spec.magnitude)] == pytest.approx(50e3)
    mags = np.abs(point_dft_many(seq, spec.frequencies))
    idx = int(band_argmax(mags, [mags.size])[0])
    assert (idx, spec.frequencies[idx]) == (10, pytest.approx(50e3))
    assert mags[idx] == pytest.approx(spec.magnitude.max(), rel=1e-12)


def test_periodogram_keeps_the_closed_band_top():
    empty = PhotonSequence.empty(1.0)
    # 0.6 / 0.1 and 0.3 / 0.1 round to just below 6 and 3
    for low, high, resolution, points in [(0.1, 0.7, 0.1, 7), (1000.0, 1000.3, 0.1, 4),
                                          (0.1, 0.75, 0.1, 7), (40e3, 60e3, 1e3, 21)]:
        freqs = periodogram(empty, Band(low, high), resolution).frequencies
        assert freqs.size == points
        assert freqs[0] == low
        assert all(Band(low, high).contains(f) for f in freqs)
    # 0.1 + 0.1 * 6 is 0.7000000000000001, one ulp outside the band
    assert periodogram(empty, Band(0.1, 0.7), 0.1).frequencies[-1] == 0.7
    scan = periodogram(empty, Band(49_750.0, 50_250.0), 1.0).frequencies
    assert np.array_equal(scan, 49_750.0 + 1.0 * np.arange(501))


def test_periodogram_grid_cap():
    seq = PhotonSequence.empty(1e-3)
    with pytest.raises(ValueError, match=str(MAX_GRID_POINTS)):
        periodogram(seq, Band(1.0, 1e9), 0.1)


def test_floor_channels_mask():
    # the line and its nearest neighbours carry leakage; the rest is floor
    assert floor_channels(11, 5).tolist() == [0, 1, 2, 3, 7, 8, 9, 10]
    # line at the band edge only has one neighbor to drop
    assert floor_channels(11, 0).tolist() == list(range(2, 11))
    assert floor_channels(11, 10).tolist() == list(range(9))
    # too narrow to drop the neighbors: every channel but the line is floor
    assert floor_channels(3, 1).tolist() == [0, 2]
    assert floor_channels(2, 0).tolist() == [1]
    assert floor_channels(2, 1).tolist() == [0]
    with pytest.raises(ValueError):
        floor_channels(1, 0)
    for line in (-1, 11):  # numpy would take -1 as the last column
        with pytest.raises(ValueError, match="line"):
            floor_channels(11, line)


def test_line_stats_against_theory():
    """Moments of the line and floor magnitudes at a known operating point."""
    n = 80.0
    config = SourceConfig(80e3, 1e-3, (Tone(200e3),))
    band = 200e3 + 1e3 * (np.arange(11) - 5)
    stats, _ = band_model(batch_amplitudes(sample_event_batch(config, 10_000, derive_rng(51)), band), 5)
    assert stats.line_mean == pytest.approx(n / 2, rel=0.03)
    assert stats.line_std == pytest.approx(np.sqrt(n / 2), rel=0.10)
    # Rayleigh floor: mean sqrt(pi N / 4), std sqrt((4 - pi) N / 4)
    assert stats.floor_mean == pytest.approx(np.sqrt(np.pi * n / 4), rel=0.05)
    assert stats.floor_std == pytest.approx(np.sqrt((4 - np.pi) * n / 4), rel=0.10)
    with pytest.raises(ValueError, match="trials"):
        band_model(batch_amplitudes(sample_event_batch(config, 1, derive_rng(51)), band), 5)


# -----------------------------------------------------------------
# CSV output
# -----------------------------------------------------------------

def test_spectrum_csv_format(tmp_path, capsys):
    seq = transmit(SourceConfig(5e4, 1e-3, (Tone(50e3),)), LinkBudget(), derive_rng(52))
    write_pts1(tmp_path / "s.pts1", seq)
    path = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--in", str(tmp_path / "s.pts1"), "--low", "45e3",
                     "--high", "55e3", "--resolution", "1e3", "--out", str(path)]) == 0
    text = path.read_text()
    assert "np." not in text
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["frequency_hz", "re", "im", "abs"]
    assert len(rows) == 1 + 11
    f, re, im, mag = (float(x) for x in rows[6])
    assert f == 50e3
    assert np.hypot(re, im) == pytest.approx(mag, rel=1e-12)
