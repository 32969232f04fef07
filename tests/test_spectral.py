"""Phasor-sum estimation: identities, floor/line statistics, expectations."""

import csv
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft, integrate

from mcfc import cli, spectral
from mcfc.codec import Symbol, decode
from mcfc.harness import SweepSpec, run_error_vs_components
from mcfc.photon_channel import (
    PhotonSequence,
    SourceConfig,
    Tone,
    derive_rng,
    sample_event_batch,
    sample_homogeneous,
    sample_modulated,
    write_pts1,
)
from mcfc.spectral import (
    MAX_GRID_POINTS,
    Band,
    band_argmax,
    band_peak,
    batch_amplitudes,
    expected_line,
    floor_channels,
    line_stats,
    periodogram,
    phasor_sums,
    point_dft,
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
    seq = sample_homogeneous(7e4, 1e-3, derive_rng(40))
    assert point_dft(seq, 0.0) == pytest.approx(len(seq), rel=1e-12)


def test_linearity_over_concatenation():
    rng = derive_rng(41)
    a = np.sort(rng.uniform(0, 1e-3, 500))
    b = np.sort(rng.uniform(0, 1e-3, 700))
    f = 123_456.0
    xa = point_dft(PhotonSequence.from_seconds(a, 1e-3), f)
    xb = point_dft(PhotonSequence.from_seconds(b, 1e-3), f)
    xab = point_dft(PhotonSequence.from_seconds(np.sort(np.concatenate([a, b])), 1e-3), f)
    assert abs(xab - (xa + xb)) / abs(xab) < 1e-9


def test_magnitude_invariant_under_time_shift():
    rng = derive_rng(42)
    t = np.sort(rng.uniform(0, 5e-4, 300))
    f = 50e3
    m0 = abs(point_dft(PhotonSequence.from_seconds(t, 1e-3), f))
    m1 = abs(point_dft(PhotonSequence.from_seconds(t + 4.9e-4, 1e-3), f))
    assert m1 == pytest.approx(m0, rel=1e-9)


def test_point_dft_many_matches_scalar():
    seq = sample_modulated(SourceConfig(5e4, 1e-3, (Tone(50e3),)), derive_rng(43))
    freqs = np.array([10e3, 50e3, 123e3])
    many = point_dft_many(seq, freqs)
    for f, v in zip(freqs, many):
        assert v == pytest.approx(point_dft(seq, f), rel=1e-12)


def test_point_dft_many_chunked_path():
    # few events + a wide grid forces several chunks through the outer product
    seq = sample_homogeneous(2e5, 1e-3, derive_rng(44))
    assert len(seq) > 150
    freqs = np.linspace(1e3, 500e3, 30_000)
    many = point_dft_many(seq, freqs)
    for idx in (0, 17_345, 29_999):
        assert many[idx] == pytest.approx(point_dft(seq, freqs[idx]), rel=1e-12)


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
            assert amps[trial, j] == pytest.approx(abs(point_dft(seq, f)), rel=1e-5)


# -----------------------------------------------------------------
# the kernel against the direct sum (property tests)
# -----------------------------------------------------------------

@st.composite
def _events(draw):
    """Unordered event times, their trial ids (some trials left empty), and the trial count."""
    trials = draw(st.integers(1, 6))
    n = draw(st.integers(0, 60))
    times = draw(st.lists(st.floats(0.0, 2e-3), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, trials - 1), min_size=n, max_size=n))
    return np.array(times, dtype=np.float64), np.array(ids, dtype=np.int64), trials


def _direct_sum(t, f):
    """The direct formula, exp(-i*fl(2*pi*fl(f*t))) per event, summed exactly."""
    phase = 2.0 * np.pi * (f * np.asarray(t, dtype=np.float64))
    return complex(math.fsum(np.cos(phase)), -math.fsum(np.sin(phase)))


def _assert_match_direct_fsum(times, ids, trials, freqs, chunk):
    # a small chunk cap drives the event blocking on small inputs
    with mock.patch.object(spectral, "PHASOR_CHUNK", chunk):
        got = phasor_sums(times, freqs, ids, trials)
    assert got.shape == (trials, len(freqs))
    for k in range(trials):
        t = times[ids == k]
        for j, f in enumerate(freqs):
            # relative to the sum of the phasor magnitudes, i.e. the count
            assert abs(got[k, j] - _direct_sum(t, f)) <= 1e-9 * max(t.size, 1)


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


def test_rotation_keeps_the_direct_rounding_at_the_quietest_point():
    # at f*t ~ 5e4 the phase is ~3e5 rad, whose ulp is ~6e-11 rad; an uncorrected
    # rotation misses each direct (rounded) phase by up to half of that, which
    # shows at the ladder's smallest |X| (~0.1 sqrt(N)) as a relative error ~1e-10
    t = np.sort(derive_rng(54).uniform(0.0, 1.0, 50_000))
    ladder = 49_950.0 + 1.0 * np.arange(101)
    values = phasor_sums(t, ladder)[0]
    quiet = int(np.argmin(np.abs(values)))
    ref = _direct_sum(t, ladder[quiet])
    assert abs(values[quiet] - ref) <= 1e-12 * abs(ref)


def test_ladder_callers_stay_off_the_nufft(rgb_plan):
    # decode windows (33 channels in 11-rung bands) and multi-trial batches keep
    # the ladder's values bit for bit, so image and sweep outputs cannot change
    tones = tuple(Tone(f) for f in rgb_plan.frequencies_for(Symbol.gray(4, 5, 10)))
    window = sample_modulated(SourceConfig(2e6, 1e-3, tones), derive_rng(55)).seconds
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


def test_fast_len_is_scipys_complex_fft_length():
    # the NUFFT grid length, so numpy's FFT runs on the grid scipy's would
    for target in [*range(1, 100_001), *range(3_999_990, 4_000_011)]:
        assert spectral._fast_len(target) == fft.next_fast_len(target), target


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
    for f, value in zip(freqs, got):
        assert abs(value - _direct_sum(times, f)) <= 1e-9 * max(times.size, 1)


def test_nufft_moves_each_mode_onto_its_exact_frequency():
    # 0.0037 Hz steps round, so the points sit ~1 ulp (7e-12 Hz) off the run's
    # line; over a 100 s capture that drifts the line's phasors by ~4e-9 rad,
    # which the derivative transform must take out to keep 1e-9 relative
    grid = 49_999.8 + 0.0037 * np.arange(121)
    seq = sample_modulated(SourceConfig(20.0, 100.0, (Tone(grid[100]),)), derive_rng(67))
    values = _run_through_nufft(seq.seconds, grid)
    for f, value in zip(grid, values):
        ref = _direct_sum(seq.seconds, f)
        assert abs(value - ref) <= 1e-9 * abs(ref)


def test_nufft_recomputes_a_planted_quiet_point():
    # pairs an odd number of half periods apart cancel at 50 kHz, and two events
    # on whole periods leave |X| ~ 2 there: below the bound (~3.8 for these 2002
    # events), so the NUFFT value, ~1e-10 relative off the direct rounding, must
    # be replaced by the ladder's
    f0 = 50_000.0
    first = derive_rng(62).uniform(0.0, 0.9, 1000)
    t = np.sort(np.concatenate([first, first + 5001 / (2 * f0), np.arange(1, 3) / f0]))
    grid = 49_850.0 + 1.0 * np.arange(201)  # off the centre, whose phase is the direct one
    ref = _direct_sum(t, f0)
    assert abs(ref) < 2.5
    assert abs(_run_through_nufft(t, grid)[150] - ref) <= 1e-12 * abs(ref)
    with mock.patch.object(spectral, "NUFFT_RTOL", np.inf):  # nothing counts as quiet
        assert abs(_run_through_nufft(t, grid)[150] - ref) > 1e-12 * abs(ref)


def test_nufft_recomputes_few_points_of_a_capture_scan():
    seq = sample_modulated(SourceConfig(1.8e5, 1.0, (Tone(50e3, depth=0.5),)), derive_rng(63))
    assert len(seq) > 170_000
    scan = 49_750.0 + 1.0 * np.arange(501)
    with mock.patch.object(spectral, "_ladder_sums", wraps=spectral._ladder_sums) as ladder:
        values = _run_through_nufft(seq.seconds, scan)
    (call,) = ladder.call_args_list
    recomputed = call.args[2]
    assert 0 < recomputed.size < 0.05 * scan.size
    for f in recomputed[:3]:
        ref = _direct_sum(seq.seconds, f)
        assert abs(values[np.searchsorted(scan, f)] - ref) <= 1e-12 * abs(ref)


def test_many_event_blocks_add_up_like_one_sum():
    # one event per block: next to a strong line the running sum swings by ~1e3
    # over the capture, and adding 20k block sums in turn would drift by ~1e-11
    seq = sample_modulated(SourceConfig(20e3, 1.0, (Tone(50e3),)), derive_rng(61))
    ladder = np.array([49_998.0, 49_999.0, 50_000.0, 50_001.0, 50_002.0])
    with mock.patch.object(spectral, "PHASOR_CHUNK", ladder.size):
        values = phasor_sums(seq.seconds, ladder)[0]
    for f, value in zip(ladder, values):
        assert abs(value - _direct_sum(seq.seconds, f)) <= 1e-12


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
    window = sample_modulated(SourceConfig(1.44e6, 1e-3, tones), derive_rng(80))
    symbol, calls = _exp_per_call(lambda: decode(window, rgb_plan))
    assert symbol == Symbol.gray(4, 5, 10)
    assert calls == [(len(window), len(window))]
    # mc-sweep's bands, k = 1 and k = 3 (one and three 11-channel bands at 1 kHz)
    spec = SweepSpec(grid=(1.44e6,), trials=40, seed=81, components=(1, 3))
    points, calls = _exp_per_call(lambda: run_error_vs_components(spec))
    assert [p.components for p in points] == [1, 3] and len(calls) == 2
    assert all(events > 40_000 and exps == events for events, exps in calls)


#: Worst gap from the direct sum per event that a lattice piece may leave:
#: ``4 * 2**-53`` for each of the ``2**LATTICE_BITS`` rungs the gate admits
#: (1.1e-13; single events measured up to 231 * 2**-53).
_LATTICE_TOL = 4 * 2.0 ** spectral.LATTICE_BITS * np.finfo(np.float64).eps / 2


@st.composite
def _lattice_bands(draw):
    """Bands of 2-64 rungs on the lattice of one step, ascending or descending,
    disjoint and apart, every rung and ``|K| + rows - 1`` below ``2**LATTICE_BITS``;
    the largest event time keeps the phases inside the gate."""
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
    top_t = draw(st.floats(1e-4, 1.0)) * min(1.0, 4.1e4 / np.abs(freqs).max())
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
        t = times[ids == k]
        for j, f in enumerate(freqs):
            assert abs(got[k, j] - _direct_sum(t, f)) <= _LATTICE_TOL * max(t.size, 1)


def test_pieces_off_the_lattice_or_past_its_gate_keep_the_direct_anchor():
    rng = derive_rng(82)
    window = np.sort(rng.uniform(0.0, 1e-3, 2000))
    long_capture = np.sort(rng.uniform(0.0, 2.0, 2000))
    first = rng.uniform(0.0, 0.9, 1000)  # the planted quiet point of the NUFFT test
    quiet = np.sort(np.concatenate([first, first + 5001 / 1e5, np.arange(1, 3) / 5e4]))
    rungs = np.arange(11)
    cases = [
        (window, 200e3 + 0.5 + 1e3 * rungs),  # off the lattice
        (window, 300e3 + 1e3 * rungs),  # |K| + rows - 1 past 2**LATTICE_BITS
        (long_capture, 30e3 + 1e3 * rungs),  # max |f * t| ~ 8e4, past the phase gate
        (quiet, 49_850.0 + 1.0 * np.arange(201)),  # points too quiet for the NUFFT, K ~ 5e4
    ]
    got = [phasor_sums(t, freqs) for t, freqs in cases]
    on_lattice = phasor_sums(window, 25e3 + 1e3 * rungs)
    with mock.patch.object(spectral, "LATTICE_BITS", 0):  # no piece passes the gate
        assert all(np.array_equal(v, phasor_sums(t, freqs)) for v, (t, freqs) in zip(got, cases))
        assert not np.array_equal(on_lattice, phasor_sums(window, 25e3 + 1e3 * rungs))


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
# the kernel's persistent workspace
# -----------------------------------------------------------------

def _kernel_cases():
    rng = derive_rng(70)
    channels = 200e3 + 1e3 * np.arange(-5, 6)
    big_t = rng.uniform(0.0, 1e-3, 20_000)
    big = (big_t, np.concatenate([channels, channels + 37e3]), rng.integers(0, 40, big_t.size), 40)
    small = (rng.uniform(0.0, 1e-3, 50), channels[:3], None, 1)
    return big, small


def test_workspace_leaves_no_trace_between_calls():
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


def test_workspace_is_per_thread():
    big, small = _kernel_cases()
    want_big, want_small = phasor_sums(*big), phasor_sums(*small)

    def repeat(case, times):
        return [phasor_sums(*case) for _ in range(times)]

    got_big, got_small, got_big_too = _in_threads(lambda: repeat(big, 3), lambda: repeat(small, 300),
                                                  lambda: repeat(big, 3))
    assert all(np.array_equal(v, want_big) for v in got_big + got_big_too)
    assert all(np.array_equal(v, want_small) for v in got_small)


def test_workspace_follows_a_patched_chunk_cap():
    # a new thread starts with an empty workspace, so its size shows the cap in force
    t = derive_rng(71).uniform(0.0, 1e-3, 1000)
    ladder = 200e3 + 1e3 * np.arange(-5, 6)

    def workspace_size(chunk):
        with mock.patch.object(spectral, "PHASOR_CHUNK", chunk):
            (values,) = _in_threads(lambda: (phasor_sums(t, ladder), spectral._WORKSPACE.real.size))
        return values

    (capped, capped_size), (free, free_size) = workspace_size(97), workspace_size(spectral.PHASOR_CHUNK)
    assert capped_size <= 4 * 97  # two pieces of at most 97 phasors, two event vectors
    assert capped_size < free_size
    for j, f in enumerate(ladder):
        assert abs(capped[0, j] - _direct_sum(t, f)) <= 1e-9 * t.size
    assert np.allclose(capped, free, rtol=0.0, atol=1e-9 * t.size)


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
# scanning and channel bookkeeping
# -----------------------------------------------------------------

def test_periodogram_grid_and_peak():
    config = SourceConfig(2e5, 1e-3, (Tone(50e3),))
    seq = sample_modulated(config, derive_rng(50))
    spec = periodogram(seq, Band(40e3, 60e3), 1e3)
    assert spec.frequencies.size == 21
    assert spec.frequencies[np.argmax(spec.magnitude)] == pytest.approx(50e3)
    idx, freq, mag = band_peak(seq, spec.frequencies)
    assert (idx, freq) == (10, pytest.approx(50e3))
    assert mag == pytest.approx(spec.magnitude.max(), rel=1e-12)


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


def test_band_peak_tie_resolves_to_lowest_frequency():
    idx, freq, mag = band_peak(PhotonSequence.empty(1e-3), np.array([10e3, 20e3, 30e3]))
    assert idx == 0 and freq == 10e3 and mag == 0.0


def test_floor_channels_mask():
    band = 200e3 + 1e3 * (np.arange(11) - 5)
    floors = floor_channels(band, 200e3)
    assert floors.size == 8
    assert 200e3 not in floors and 199e3 not in floors and 201e3 not in floors
    # line at the band edge only has one neighbor to drop
    assert floor_channels(band, float(band[0])).size == 9
    # too narrow to drop the neighbors: every channel but the line is floor
    assert floor_channels(band[4:7], 200e3).tolist() == [199e3, 201e3]
    assert floor_channels(band[5:7], 200e3).tolist() == [201e3]
    with pytest.raises(ValueError):
        floor_channels(band[5:6], 200e3)
    # on the index ladder the same rule gives floor column indices
    assert floor_channels(np.arange(11), 5).tolist() == [0, 1, 2, 3, 7, 8, 9, 10]


def test_line_stats_against_theory():
    """Moments of the line and floor magnitudes at a known operating point."""
    n = 80.0
    config = SourceConfig(80e3, 1e-3, (Tone(200e3),))
    band = 200e3 + 1e3 * (np.arange(11) - 5)
    stats = line_stats(config, 200e3, floor_channels(band, 200e3), 10_000, derive_rng(51))
    assert stats.line_mean == pytest.approx(n / 2, rel=0.03)
    assert stats.line_std == pytest.approx(np.sqrt(n / 2), rel=0.10)
    # Rayleigh floor: mean sqrt(pi N / 4), std sqrt((4 - pi) N / 4)
    assert stats.floor_mean == pytest.approx(np.sqrt(np.pi * n / 4), rel=0.05)
    assert stats.floor_std == pytest.approx(np.sqrt((4 - np.pi) * n / 4), rel=0.10)
    assert stats.trials == 10_000
    with pytest.raises(ValueError, match="trials"):
        line_stats(config, 200e3, floor_channels(band, 200e3), 1, derive_rng(51))


# -----------------------------------------------------------------
# CSV output
# -----------------------------------------------------------------

def test_spectrum_csv_format(tmp_path, capsys):
    seq = sample_modulated(SourceConfig(5e4, 1e-3, (Tone(50e3),)), derive_rng(52))
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
