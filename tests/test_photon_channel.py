"""Source sampling, channel impairments, and the PTS1 container."""

import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from mcfc.photon_channel import (
    PS_PER_SECOND,
    PTS1_MAGIC,
    LinkBudget,
    PhotonSequence,
    SourceConfig,
    StreamFormatError,
    Tone,
    apply_detector,
    apply_loss,
    derive_rng,
    merge_noise,
    read_pts1,
    sample_event_batch,
    sample_modulated,
    transmit,
    write_pts1,
)
from mcfc import photon_channel
from mcfc.photon_channel import _detect


# -----------------------------------------------------------------
# validation and small helpers
# -----------------------------------------------------------------

def test_tone_validation():
    with pytest.raises(ValueError):
        Tone(0.0)
    with pytest.raises(ValueError):
        Tone(-5.0)
    with pytest.raises(ValueError):
        Tone(1e3, depth=1.5)
    with pytest.raises(ValueError):
        Tone(1e3, depth=-0.1)


def test_tone_phase_reduced():
    t = Tone(1e3, phase=7.0)
    assert 0.0 <= t.phase < 2 * np.pi
    assert t.phase == pytest.approx(7.0 - 2 * np.pi)
    assert Tone(1e3, phase=-0.5).phase == pytest.approx(2 * np.pi - 0.5)


def test_source_config_validation():
    with pytest.raises(ValueError):
        SourceConfig(-1.0, 1e-3)
    with pytest.raises(ValueError):
        SourceConfig(1e4, 0.0)
    # zero rate is a legal degenerate source
    assert SourceConfig(0.0, 1e-3).expected_count == 0.0


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(transmittance=0.0)
    with pytest.raises(ValueError):
        LinkBudget(transmittance=1.5)
    with pytest.raises(ValueError):
        LinkBudget(noise_rate=-1.0)
    with pytest.raises(ValueError):
        LinkBudget(rep_period=0.0)
    # below half a picosecond the gate period would round to zero
    with pytest.raises(ValueError, match="rep_period"):
        LinkBudget(rep_period=2e-13)
    assert LinkBudget(rep_period=1e-12).rep_period == 1e-12
    # dead time is compared in whole picoseconds too
    for dead in (4e-13, float("inf")):
        with pytest.raises(ValueError, match="dead_time"):
            LinkBudget(dead_time=dead)
    assert LinkBudget(dead_time=1e-12).dead_time == 1e-12


def test_derive_rng_reproducible_and_distinct():
    a1 = derive_rng(7, "stage", 3).standard_normal(8)
    a2 = derive_rng(7, "stage", 3).standard_normal(8)
    b = derive_rng(7, "stage", 4).standard_normal(8)
    c = derive_rng(7, "other", 3).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_expected_count_matches_numeric_integral():
    config = SourceConfig(
        43_210.0, 3.7e-4,
        (Tone(13_300.0, phase=1.1, depth=0.8), Tone(41_000.0, phase=4.0, depth=0.3)),
    )
    numeric, _ = integrate.quad(lambda t: config.rate(t), 0.0, config.duration, limit=200)
    assert config.expected_count == pytest.approx(numeric, rel=1e-9)


def test_rate_ceiling_bounds_rate():
    config = SourceConfig(5e4, 1e-3, (Tone(10e3), Tone(23e3, depth=0.5)))
    t = np.linspace(0.0, config.duration, 10_001)
    assert np.all(config.rate(t) <= config.rate_ceiling + 1e-9)


# -----------------------------------------------------------------
# PhotonSequence container
# -----------------------------------------------------------------

def test_sequence_invariants():
    with pytest.raises(ValueError, match=r"^event 1 precedes event 0$"):
        PhotonSequence(np.array([5, 3], dtype=np.uint64), 100)
    with pytest.raises(ValueError, match=r"^event 0 at 100 ps is outside the 100 ps window$"):
        PhotonSequence(np.array([100], dtype=np.uint64), 100)
    with pytest.raises(ValueError, match=r"^event 1 at 100 ps is outside the 100 ps window$"):
        PhotonSequence(np.array([7, 100, 120], dtype=np.uint64), 100)
    seq = PhotonSequence(np.array([0, 3, 3, 99], dtype=np.uint64), 100)
    assert len(seq) == 4
    assert seq.window_ps == 100


@pytest.mark.parametrize("window_ps", [0, -5])
def test_sequence_refuses_a_window_below_one_picosecond(tmp_path, window_ps):
    path = tmp_path / "never.pts1"
    with pytest.raises(ValueError, match=rf"^window_ps must be finite and in \[1, inf\), got {window_ps}$"):
        write_pts1(path, PhotonSequence(np.empty(0), window_ps))
    assert not path.exists()  # refused on construction, so write_pts1 never ran


def test_from_seconds_quantizes_and_clamps():
    window = 1e-3
    # an event that rounds up to exactly the window edge must stay inside
    t_edge = (1e9 - 0.4) / PS_PER_SECOND
    seq = PhotonSequence.from_seconds([0.0, 1.23e-7, t_edge], window)
    assert seq.window_ps == 10**9
    assert int(seq.times_ps[-1]) == 10**9 - 1
    assert int(seq.times_ps[1]) == 123_000
    with pytest.raises(ValueError):
        PhotonSequence.from_seconds([window], window)
    with pytest.raises(ValueError):
        PhotonSequence.from_seconds([-1e-9], window)


def test_from_seconds_refuses_non_finite_input_by_name_before_any_cast():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "invalid value encountered in cast" would raise
        for times in ([np.nan], [1e-4, np.inf], [-np.inf, 1e-4]):
            with pytest.raises(ValueError, match=r"^times must be finite, got -?(nan|inf) at index \d$"):
                PhotonSequence.from_seconds(times, 1e-3)
        for window in (np.nan, np.inf, 0.0, -1e-3, True):
            with pytest.raises(ValueError, match=r"^window must be finite and in \[1e-12, inf\), got "):
                PhotonSequence.from_seconds([], window)
            with pytest.raises(ValueError, match=r"^window must be finite and in \[1e-12, inf\), got "):
                PhotonSequence.empty(window)


def test_empty_sequence():
    seq = PhotonSequence.empty(2e-3)
    assert len(seq) == 0
    assert seq.window == pytest.approx(2e-3)


# -----------------------------------------------------------------
# samplers
# -----------------------------------------------------------------

def test_homogeneous_count_statistics():
    # dispersion of a Poisson family: var/mean stays near 1
    config = SourceConfig(50_000.0, 1e-3)
    counts = sample_event_batch(config, 100_000, derive_rng(11, "poisson")).counts()
    ratio = counts.var(ddof=1) / counts.mean()
    assert 0.97 < ratio < 1.03
    assert counts.mean() == pytest.approx(50.0, abs=3 * np.sqrt(50.0 / 100_000))


def test_modulated_mean_count_unbiased():
    config = SourceConfig(80_000.0, 1e-3, (Tone(50e3), Tone(71e3, depth=0.7)))
    counts = sample_event_batch(config, 10_000, derive_rng(12, "thin")).counts()
    se = np.sqrt(config.expected_count / 10_000)
    assert counts.mean() == pytest.approx(config.expected_count, abs=3 * se)


def test_depth_zero_is_homogeneous():
    # a zero-depth tone must leave the arrival-time law untouched
    config = SourceConfig(80_000.0, 1.0, (Tone(50e3, depth=0.0),))
    seq = sample_modulated(config, derive_rng(13, "flat"))
    u = seq.seconds / config.duration
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_modulated_times_follow_rate():
    # chi-square of the phase histogram against the rate profile
    config = SourceConfig(200_000.0, 1.0, (Tone(1_000.0),))
    seq = sample_modulated(config, derive_rng(14, "profile"))
    phase = (seq.seconds * 1_000.0) % 1.0
    hist, edges = np.histogram(phase, bins=40, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    expected = len(seq) * (1.0 + np.sin(2 * np.pi * centers)) / 40.0
    chi2 = np.sum((hist - expected) ** 2 / expected)
    # 39 dof; 0.999 quantile is ~72
    assert chi2 < 72.0


def test_loss_identity_and_total():
    seq = transmit(SourceConfig(1e4, 1e-3), LinkBudget(), derive_rng(15))
    assert apply_loss(seq, 1.0, derive_rng(16)) is seq
    lost = apply_loss(seq, 1e-12, derive_rng(16))
    assert len(lost) == 0 or len(lost) < len(seq) // 100


def test_loss_composition_matches_product():
    # eta_a then eta_b must look like a single eta_a*eta_b thinning
    config = SourceConfig(100_000.0, 1e-3)
    counts_two, counts_one = [], []
    for i in range(2000):
        seq = sample_modulated(config, derive_rng(17, "src", i))
        a = apply_loss(seq, 0.7, derive_rng(17, "a", i))
        counts_two.append(len(apply_loss(a, 0.6, derive_rng(17, "b", i))))
        seq2 = sample_modulated(config, derive_rng(18, "src", i))
        counts_one.append(len(apply_loss(seq2, 0.42, derive_rng(18, "ab", i))))
    assert stats.ks_2samp(counts_two, counts_one).pvalue > 0.01


def test_merge_noise_adds_sorted_stream():
    seq = transmit(SourceConfig(5e4, 1e-3), LinkBudget(), derive_rng(19, 0))
    budget = LinkBudget(noise_rate=30e3, dark_rate=10e3)
    totals = []
    for i in range(3000):
        merged = merge_noise(seq, budget, derive_rng(19, i))
        assert np.all(np.diff(merged.times_ps.astype(np.int64)) >= 0)
        totals.append(len(merged) - len(seq))
    # added events follow Poisson(40e3 * 1 ms) = Poisson(40)
    assert np.mean(totals) == pytest.approx(40.0, abs=3 * np.sqrt(40.0 / 3000))


def test_merge_noise_zero_rate_is_identity():
    seq = transmit(SourceConfig(1e4, 1e-3), LinkBudget(), derive_rng(20))
    assert merge_noise(seq, LinkBudget(), derive_rng(21)) is seq


def test_sample_modulated_is_transmit_with_a_clean_budget():
    # random sources of 0-3 tones: the same events, and the generators stay in step
    draw = derive_rng(90, "configs")
    for i in range(40):
        tones = tuple(Tone(draw.uniform(1e3, 2e5), draw.uniform(0, 2 * np.pi), draw.choice([0.0, 0.3, 1.0]))
                      for _ in range(draw.integers(0, 4)))
        config = SourceConfig(draw.choice([0.0, 2e4, 3e5]), draw.choice([1e-4, 1e-3, 3.3e-3]), tones)
        a, b = derive_rng(90, i), derive_rng(90, i)
        seq, ref = sample_modulated(config, a), transmit(config, LinkBudget(), b)
        assert seq.window_ps == ref.window_ps and np.array_equal(seq.times_ps, ref.times_ps)
        assert a.random() == b.random()


def test_merge_noise_adds_transmit_of_the_homogeneous_stream():
    seq = transmit(SourceConfig(5e4, 1e-3, (Tone(50e3),)), LinkBudget(), derive_rng(91))
    a, b = derive_rng(92), derive_rng(92)
    merged = merge_noise(seq, LinkBudget(noise_rate=30e3, dark_rate=10e3), a)
    extra = transmit(SourceConfig(40e3, seq.window), LinkBudget(), b)
    assert len(extra) > 0
    assert np.array_equal(merged.times_ps, np.sort(np.concatenate([seq.times_ps, extra.times_ps])))
    assert a.random() == b.random()


# -----------------------------------------------------------------
# detector
# -----------------------------------------------------------------

def test_jitter_keeps_events_inside_window():
    seq = transmit(SourceConfig(2e5, 1e-4), LinkBudget(), derive_rng(22))
    out = apply_detector(seq, LinkBudget(jitter_sigma=5e-5), derive_rng(23))
    assert len(out) == len(seq)
    assert np.all(np.diff(out.times_ps.astype(np.int64)) >= 0)
    assert int(out.times_ps[-1]) < out.window_ps


def test_jitter_attenuates_line_by_gaussian_factor():
    # sigma chosen so the predicted attenuation is far from both 0 and 1
    f, sigma = 200e3, 5e-7
    predicted = np.exp(-0.5 * (2 * np.pi * f * sigma) ** 2)
    config = SourceConfig(80e3, 1e-3, (Tone(f),))
    clean = sample_event_batch(config, 4000, derive_rng(24, "clean"))
    jittered = sample_event_batch(config, 4000, derive_rng(24, "jit"),
                                  LinkBudget(jitter_sigma=sigma))
    from mcfc.spectral import batch_amplitudes
    a_clean = batch_amplitudes(clean, np.array([f])).mean()
    a_jit = batch_amplitudes(jittered, np.array([f])).mean()
    assert a_jit / a_clean == pytest.approx(predicted, rel=0.03)


def test_dead_time_enforces_minimum_gap():
    dead = 2e-6
    seq = transmit(SourceConfig(5e5, 1e-3), LinkBudget(), derive_rng(25))
    out = apply_detector(seq, LinkBudget(dead_time=dead), derive_rng(26))
    dead_ps = int(dead * PS_PER_SECOND)
    assert len(out) < len(seq)
    assert np.all(np.diff(out.times_ps.astype(np.int64)) >= dead_ps - 1)


def test_dead_time_monotone_in_length():
    seq = transmit(SourceConfig(5e5, 1e-3), LinkBudget(), derive_rng(27))
    n = [len(apply_detector(seq, LinkBudget(dead_time=d), derive_rng(28)))
         for d in (0.0, 1e-6, 4e-6, 16e-6)]
    assert n[0] == len(seq)
    assert n[0] >= n[1] >= n[2] >= n[3]
    assert n[3] < n[0]


def test_gating_quantizes_onto_clock_grid():
    period = 1e-7
    seq = transmit(SourceConfig(80e3, 1e-3), LinkBudget(), derive_rng(29))
    out = apply_detector(seq, LinkBudget(rep_period=period), derive_rng(30))
    period_ps = int(period * PS_PER_SECOND)
    assert np.all(out.times_ps % period_ps == 0)
    assert np.unique(out.times_ps).size == len(out)
    # at 80 events per 10^4 gates collisions are rare
    assert len(out) >= 0.99 * len(seq)


def test_transmit_deterministic_per_seed():
    config = SourceConfig(80e3, 1e-3, (Tone(50e3),))
    budget = LinkBudget(transmittance=0.8, noise_rate=20e3, jitter_sigma=1e-9)
    a = transmit(config, budget, derive_rng(31, "x"))
    b = transmit(config, budget, derive_rng(31, "x"))
    c = transmit(config, budget, derive_rng(31, "y"))
    assert np.array_equal(a.times_ps, b.times_ps)
    assert not np.array_equal(a.times_ps, c.times_ps)


# -----------------------------------------------------------------
# batched sampling
# -----------------------------------------------------------------

def test_batch_matches_sequence_pipeline():
    """transmit is the batch pipeline on one trial: same draws, same events, same law."""
    config = SourceConfig(80e3, 1e-3, (Tone(50e3),))
    for budget in (
        LinkBudget(transmittance=0.75, noise_rate=20e3),
        # the documented gated case: a 3 ns gate after 5 ns of dead time
        LinkBudget(transmittance=0.75, noise_rate=20e3, jitter_sigma=1e-9,
                   dead_time=5e-9, rep_period=3e-9),
    ):
        seqs = [transmit(config, budget, derive_rng(32, "seq", i)) for i in range(1500)]
        for i in range(5):
            one = sample_event_batch(config, 1, derive_rng(32, "seq", i), budget)
            assert np.array_equal(PhotonSequence.from_seconds(one.times, 1e-3).times_ps,
                                  seqs[i].times_ps)

        counts_batch = sample_event_batch(config, 1500, derive_rng(32, "batch"), budget).counts()
        counts_seq = np.array([len(seq) for seq in seqs])
        assert stats.ks_2samp(counts_batch, counts_seq).pvalue > 0.01
        # dead time and gating remove ~0.04 of the ~80 events here, well inside 4 SE
        expected = config.expected_count * budget.transmittance + budget.noise_rate * config.duration
        se = np.sqrt(expected / 1500)
        assert counts_batch.mean() == pytest.approx(expected, abs=4 * se)
        assert counts_seq.mean() == pytest.approx(expected, abs=4 * se)


# -----------------------------------------------------------------
# the thinning screen keeps the exact thinning test's decisions
# -----------------------------------------------------------------

def _rate(config, t):
    """The source's rate law, rate(t) = (mean_rate / k) * sum_i (1 + d_i sin(2 pi f_i t + phase_i))."""
    total = np.zeros_like(t)
    for tone in config.tones:
        total = total + 1.0 + tone.depth * np.sin(2.0 * np.pi * tone.frequency * t + tone.phase)
    return total * (config.mean_rate / len(config.tones))


def _thinning_reference(t, rng, eta, config):
    """The thinning test u * ceiling < rate(t) * eta, one float64 sine per tone and candidate."""
    if not config.tones:
        return rng.uniform(size=t.size) < eta
    return rng.uniform(size=t.size) * config.rate_ceiling < _rate(config, t) * eta


@st.composite
def _thinning_cases(draw):
    """1-4 tones up to ~1e6 rad over the window, depths including 0 and 1, eta in (0, 1]."""
    duration = draw(st.sampled_from([1e-3, 0.05, 1.0]))
    depth = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    tones = tuple(
        Tone(draw(st.floats(1.0, 1e6)) / (2.0 * np.pi * duration), draw(st.floats(0.0, 2.0 * np.pi)),
             draw(depth))
        for _ in range(draw(st.integers(1, 4)))
    )
    config = SourceConfig(draw(st.floats(0.0, 1500.0)) / duration, duration, tones)
    eta = draw(st.floats(1e-6, 1.0))
    return config, eta, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([7, 1000, 1 << 14]))


@settings(deadline=None, max_examples=80)
@given(_thinning_cases())
def test_screened_thinning_keeps_the_exact_decisions(case):
    config, eta, seed, chunk = case
    t = np.random.default_rng(seed).uniform(0.0, config.duration, 20_000)
    assert np.array_equal(config.rate(t), _rate(config, t))
    with mock.patch.object(photon_channel, "SCREEN_CHUNK", chunk):
        got = photon_channel._survivors(t, np.random.default_rng(seed), eta, config)
        budget = LinkBudget(transmittance=eta)
        batch = sample_event_batch(config, 3, np.random.default_rng(seed), budget)
        window = transmit(config, budget, np.random.default_rng(seed))
    assert np.array_equal(got, _thinning_reference(t, np.random.default_rng(seed), eta, config))
    with mock.patch.object(photon_channel, "_survivors", _thinning_reference):
        want_batch = sample_event_batch(config, 3, np.random.default_rng(seed), budget)
        want_window = transmit(config, budget, np.random.default_rng(seed))
    assert np.array_equal(batch.times, want_batch.times)
    assert np.array_equal(batch.trial_ids, want_batch.trial_ids)
    assert np.array_equal(window.times_ps, want_window.times_ps)


class _Planted:
    """Stands in for a generator whose uniform draws are given."""

    def __init__(self, values):
        self.values = values

    def random(self, size):
        assert size == self.values.size
        return self.values.copy()


@pytest.mark.parametrize("tones", [1, 2, 4])
def test_screened_thinning_leaves_ties_to_the_exact_test(tones):
    # full-depth tones and a mean rate of 2**19 make the ceiling 2**20, so
    # u = level / ceiling is exact and u * ceiling can be planted on rate(t) * eta
    # and one ulp either side of it; only the exact test can tell those apart
    config = SourceConfig(2.0**19, 1e-3, tuple(Tone(1e3 * (3 + i), phase=0.4 * i) for i in range(tones)))
    assert config.rate_ceiling == 2.0**20
    eta = 0.7
    t = np.random.default_rng(80).uniform(0.0, 1e-3, 400)
    t = t[_rate(config, t) > 1e3]
    target = _rate(config, t) * eta
    level = np.concatenate([target, np.nextafter(target, np.inf), np.nextafter(target, -np.inf)])
    times = np.tile(t, 3)
    with mock.patch.object(SourceConfig, "rate", autospec=True, side_effect=_rate) as exact:
        keep = photon_channel._survivors(times, _Planted(level / 2.0**20), eta, config)
    assert keep.tolist() == [False] * (2 * t.size) + [True] * t.size
    checked = np.concatenate([np.atleast_1d(call.args[1]) for call in exact.call_args_list])
    assert np.isin(times, checked).all()


def test_screened_thinning_falls_back_at_huge_phases():
    # 2 pi f t reaches ~6e9 rad, past the screen's 2**32, so every candidate takes the exact test
    config = SourceConfig(2e6, 1e-3, (Tone(1e12, depth=0.8), Tone(3e3)))
    t = np.random.default_rng(81).uniform(0.0, 1e-3, 5000)
    with mock.patch.object(SourceConfig, "rate", autospec=True, side_effect=_rate) as exact:
        keep = photon_channel._survivors(t, np.random.default_rng(82), 0.9, config)
    assert exact.call_count == 1 and exact.call_args.args[1].size == t.size
    assert np.array_equal(keep, _thinning_reference(t, np.random.default_rng(82), 0.9, config))


@pytest.mark.parametrize("chunk", [7, 1 << 14])
@pytest.mark.parametrize("eta", [0.5, 0.7])
def test_loss_cut_leaves_every_level_below_it_to_the_rate(eta, chunk):
    # three full-depth tones at f, 5f and 9f all peak at t = 1/(4f) + j/f, where
    # rate(t) reaches its ceiling; at eta 0.7 float64 rate(t) * eta there lies one
    # ulp above q*eta*(k + sum d) itself, so the cut needs its margin
    f = 3e3
    config = SourceConfig(1.002e6, 1e-3, tuple(Tone(f * (1 + 4 * i)) for i in range(3)))
    k, depths = len(config.tones), sum(tone.depth for tone in config.tones)
    cut = config.mean_rate / k * eta * (k + depths) * (1.0 + 16.0 * k * 2.0**-53)
    peaks = 1.0 / (4.0 * f) + np.arange(3) / f
    peaks = np.concatenate([peaks, np.nextafter(peaks, 0.0), np.nextafter(peaks, 1.0)])
    target = _rate(config, peaks) * eta
    assert target.max() <= cut
    planted = [np.full(peaks.size, cut), np.full(peaks.size, np.nextafter(cut, np.inf)),
               np.full(peaks.size, np.nextafter(cut, -np.inf)),
               target, np.nextafter(target, np.inf), np.nextafter(target, -np.inf)]
    rng = np.random.default_rng(83)
    filler = rng.uniform(0.0, config.duration, 40)
    times = np.concatenate([np.tile(peaks, len(planted)), filler])
    level = np.concatenate(planted + [rng.uniform(0.0, config.rate_ceiling, filler.size)])
    order = rng.permutation(times.size)  # planted candidates spread over the 7-candidate chunks
    times, level = times[order], level[order]
    with mock.patch.object(photon_channel, "SCREEN_CHUNK", chunk):
        keep = photon_channel._screened_thinning(times, level, eta, config)
    want = level < _rate(config, times) * eta
    assert np.array_equal(keep, want)
    assert want.any() and not want.all()


def test_random_draws_are_the_uniform_draws():
    # uniform(low, high) returns low + (high - low) * random(), so random() scaled by the
    # window is uniform(0.0, window) to the bit; this fails if numpy's two ever part
    # (seed 235 draws Poisson counts of exactly 1 and 16 385 at those means)
    config = SourceConfig(2e6, 1e-3, (Tone(40e3, depth=0.7), Tone(95e3, phase=1.0)))
    for size in (0, 1, 16_385):
        t, counts = photon_channel._poisson_times(float(size), 1.0, 1, np.random.default_rng(235))
        rng = np.random.default_rng(235)
        want_counts = rng.poisson(float(size), size=1)
        assert counts.tolist() == want_counts.tolist() == [size]
        assert np.array_equal(t, rng.uniform(0.0, 1.0, size=size))
        t = np.random.default_rng(size).uniform(0.0, config.duration, size)
        for source in (SourceConfig(2e6, 1e-3), config):
            got = photon_channel._survivors(t, np.random.default_rng(235), 0.6, source)
            assert np.array_equal(got, _thinning_reference(t, np.random.default_rng(235), 0.6, source))


def _registered(times, tau_ps, period_ps=None):
    """The detector rule one event at a time: non-extending dead time, then gating."""
    kept = []
    for t in sorted(times):
        if not kept or t - kept[-1] >= tau_ps:
            kept.append(t)
    return kept if period_ps is None else sorted({t - t % period_ps for t in kept})


@st.composite
def _detector_cases(draw):
    """Dense picosecond trials (equal times and gaps of exactly tau are common), in any order."""
    window = draw(st.integers(1, 300))
    tau = draw(st.one_of(st.integers(1, 40), st.integers(window, 2 * window)))
    period = draw(st.one_of(st.none(), st.integers(1, 60)))
    trials = draw(st.lists(st.lists(st.integers(0, window - 1), max_size=25), min_size=1, max_size=5))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(
        sum(len(times) for times in trials))
    ps = np.array([t for times in trials for t in times], dtype=np.int64)[order]
    tid = np.repeat(np.arange(len(trials)), [len(times) for times in trials])[order]
    return window, tau, period, trials, ps, tid


@settings(deadline=None)
@given(_detector_cases())
def test_dead_time_and_gating_match_the_sequential_rule(case):
    window, tau, period, trials, ps, tid = case
    budget = LinkBudget(dead_time=tau * 1e-12, rep_period=None if period is None else period * 1e-12)
    out, out_tid = _detect(ps, tid, len(trials), window, budget)
    for i, times in enumerate(trials):
        assert out[out_tid == i].tolist() == _registered(times, tau, period)
    # without gating every registered gap within a trial is at least tau
    if period is None:
        gaps = np.diff(out)[np.diff(out_tid) == 0]
        assert np.all(gaps >= tau)


def test_gating_is_idempotent_and_merges_within_a_trial_only():
    budget = LinkBudget(rep_period=1e-9)
    # two trials hit the 1000 ps gate: each keeps its event; one trial's pair merges
    ps = np.array([1500, 1200, 1999, 3000], dtype=np.int64)
    tid = np.array([0, 1, 1, 1])
    out, out_tid = _detect(ps, tid, 2, 10_000, budget)
    assert out.tolist() == [1000, 1000, 3000]
    assert out_tid.tolist() == [0, 1, 1]
    again, again_tid = _detect(out, out_tid, 2, 10_000, budget)
    assert np.array_equal(again, out) and np.array_equal(again_tid, out_tid)

    seq = transmit(SourceConfig(2e7, 1e-4), LinkBudget(), derive_rng(37))
    gated = apply_detector(seq, budget, derive_rng(38))
    assert len(gated) < len(seq)
    assert np.array_equal(apply_detector(gated, budget, derive_rng(38)).times_ps, gated.times_ps)


@pytest.mark.parametrize("budget", [
    LinkBudget(), LinkBudget(dead_time=7e-12), LinkBudget(rep_period=1e-10),
    LinkBudget(dead_time=7e-12, rep_period=1e-10),
])
def test_detect_takes_no_event_and_one_event(budget):
    out, out_tid = _detect(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp), 3, 1000, budget)
    assert out.tolist() == out_tid.tolist() == []
    out, out_tid = _detect(np.array([987], dtype=np.int64), np.array([2]), 3, 1000, budget)
    assert out.tolist() == [987 if budget.rep_period is None else 900]
    assert out_tid.tolist() == [2]


@pytest.mark.parametrize("tau", [0, 7])
def test_gating_merges_equal_gates_of_one_trial_only_at_trial_boundaries(tau):
    # 100 ps gates on a 1000 ps window; a dead time of 7 ps makes the trial stride
    # 1007 ps, so gates must be counted from each trial's start, not from zero
    budget = LinkBudget(dead_time=tau * 1e-12, rep_period=1e-10)
    ps = np.array([999, 950, 901, 0, 42, 0, 999], dtype=np.int64)
    tid = np.array([0, 0, 1, 3, 3, 4, 4])  # trial 2 is empty
    out, out_tid = _detect(ps, tid, 5, 1000, budget)
    # trial 0's last gate equals trial 1's only gate, and trial 3's equals trial 4's first
    assert out.tolist() == [900, 900, 0, 0, 900]
    assert out_tid.tolist() == [0, 1, 3, 4, 4]


def test_batch_dead_time_and_gating_draw_nothing():
    """A batch with a detector budget is its detector-free twin, passed through the rule."""
    config = SourceConfig(3e6, 1e-5, (Tone(1e6),))
    tau_ps, period_ps = 200_000, 70_000
    free = sample_event_batch(config, 300, derive_rng(33), LinkBudget(jitter_sigma=1e-9))
    times_ps = np.minimum(np.rint(free.times * PS_PER_SECOND), 10**7 - 1).astype(np.int64)
    for period in (None, period_ps):
        budget = LinkBudget(jitter_sigma=1e-9, dead_time=tau_ps * 1e-12,
                            rep_period=None if period is None else period * 1e-12)
        batch = sample_event_batch(config, 300, derive_rng(33), budget)
        got = np.rint(batch.times * PS_PER_SECOND).astype(np.int64)
        for i in range(300):
            assert got[batch.trial_ids == i].tolist() == _registered(
                times_ps[free.trial_ids == i], tau_ps, period)


def test_dead_time_mean_count_follows_the_non_extending_rate():
    # lambda*tau = 0.5 drops a third of the events; the renewal mean is
    # lambda*T / (1 + lambda*tau) up to a start-up term of ~0.06 events, 0.1 SE here
    rate, duration, dead = 80e3, 1e-2, 6.25e-6
    counts = sample_event_batch(SourceConfig(rate, duration), 1000, derive_rng(39),
                                LinkBudget(dead_time=dead)).counts()
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert counts.mean() == pytest.approx(rate * duration / (1 + rate * dead), abs=4 * se)


def test_batch_counts_shape():
    batch = sample_event_batch(SourceConfig(1e3, 1e-3), 64, derive_rng(34))
    assert batch.counts().shape == (64,)
    assert batch.counts().sum() == batch.times.size


# -----------------------------------------------------------------
# PTS1 container
# -----------------------------------------------------------------

def test_pts1_round_trip(tmp_path):
    seq = sample_modulated(SourceConfig(5e4, 1e-3, (Tone(50e3),)), derive_rng(35))
    path = tmp_path / "stream.pts1"
    write_pts1(path, seq)
    back = read_pts1(path)
    assert np.array_equal(back.times_ps, seq.times_ps)
    assert back.window_ps == seq.window_ps


def test_pts1_write_takes_no_copy_of_the_times(tmp_path):
    # 1M events are 8 MB of times: the writer hands their own buffer to the file
    seq = PhotonSequence(np.arange(1_000_000, dtype=np.uint64), 10**6)
    path = tmp_path / "big.pts1"
    tracemalloc.start()
    try:
        write_pts1(path, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert np.array_equal(read_pts1(path).times_ps, seq.times_ps)


def test_pts1_round_trip_empty(tmp_path):
    path = tmp_path / "empty.pts1"
    write_pts1(path, PhotonSequence.empty(1e-3))
    back = read_pts1(path)
    assert len(back) == 0
    assert back.window_ps == 10**9


def _valid_blob():
    header = PTS1_MAGIC + (10**9).to_bytes(8, "little") + (3).to_bytes(8, "little")
    times = np.array([100, 200, 300], dtype="<u8").tobytes()
    return header + times


def test_pts1_bad_magic(tmp_path):
    path = tmp_path / "bad.pts1"
    path.write_bytes(b"NOTMAGIC" + _valid_blob()[8:])
    with pytest.raises(StreamFormatError, match="offset 0.*magic"):
        read_pts1(path)


def test_pts1_truncated_header(tmp_path):
    path = tmp_path / "short.pts1"
    path.write_bytes(_valid_blob()[:17])
    with pytest.raises(StreamFormatError, match="offset 0.*truncated header"):
        read_pts1(path)


def test_pts1_truncated_payload(tmp_path):
    path = tmp_path / "cut.pts1"
    path.write_bytes(_valid_blob()[:-8])
    with pytest.raises(StreamFormatError, match="truncated payload"):
        read_pts1(path)


def test_pts1_out_of_order_event_names_offset(tmp_path):
    blob = bytearray(_valid_blob())
    blob[24 + 8:24 + 16] = (50).to_bytes(8, "little")  # event 1 before event 0
    path = tmp_path / "unsorted.pts1"
    path.write_bytes(bytes(blob))
    with pytest.raises(StreamFormatError, match="offset 32.*event 1"):
        read_pts1(path)


def test_pts1_event_outside_window(tmp_path):
    blob = bytearray(_valid_blob())
    blob[24 + 16:24 + 24] = (10**9).to_bytes(8, "little")
    path = tmp_path / "late.pts1"
    path.write_bytes(bytes(blob))
    with pytest.raises(StreamFormatError, match="offset 40.*outside"):
        read_pts1(path)


def test_pts1_late_event_past_float_precision_names_its_offset(tmp_path):
    # above 2**53 ps a float64 comparison would round the window onto its events
    window = 2**53 + 1
    header = PTS1_MAGIC + window.to_bytes(8, "little") + (3).to_bytes(8, "little")
    path = tmp_path / "late.pts1"
    path.write_bytes(header + np.array([2**53 - 1, 2**53, 2**53 + 1], dtype="<u8").tobytes())
    with pytest.raises(StreamFormatError,
                       match=rf"^offset 40: event 2 at {2**53 + 1} ps is outside the {window} ps window$"):
        read_pts1(path)


def test_pts1_trailing_bytes_name_the_payload_end(tmp_path):
    path = tmp_path / "long.pts1"
    blob = bytearray(_valid_blob())
    blob[16:24] = (1).to_bytes(8, "little")  # three events on disk, one promised
    path.write_bytes(bytes(blob))
    with pytest.raises(StreamFormatError, match="offset 32: 16 trailing bytes"):
        read_pts1(path)
    path.write_bytes(_valid_blob() + bytes(5))
    with pytest.raises(StreamFormatError, match="offset 48: 5 trailing bytes"):
        read_pts1(path)


_U64_MAX = 2**64 - 1


@st.composite
def _sequences(draw):
    times = sorted(draw(st.lists(st.integers(0, _U64_MAX - 1), max_size=20)))
    window = draw(st.integers(times[-1] + 1 if times else 1, _U64_MAX))
    return PhotonSequence(np.array(times, dtype=np.uint64), window)


@pytest.fixture(scope="module")
def pts1_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pts1") / "fuzz.pts1"


@settings(deadline=None)
@given(_sequences())
def test_pts1_round_trips_any_nondecreasing_times(pts1_path, seq):
    write_pts1(pts1_path, seq)
    back = read_pts1(pts1_path)
    assert np.array_equal(back.times_ps, seq.times_ps)
    assert back.window_ps == seq.window_ps


def _pts1_bytes(seq):
    header = PTS1_MAGIC + seq.window_ps.to_bytes(8, "little") + len(seq).to_bytes(8, "little")
    return header + seq.times_ps.astype("<u8").tobytes()


@st.composite
def _corrupt(draw, blob):
    """A truncated, extended or byte-flipped copy of ``blob``."""
    how = draw(st.sampled_from(["truncate", "extend", "flip"]))
    if how == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if how == "extend":
        return blob + draw(st.binary(min_size=1, max_size=24))
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


@settings(deadline=None)
@given(_sequences().flatmap(lambda seq: st.tuples(st.just(seq), _corrupt(_pts1_bytes(seq)))))
def test_pts1_corruption_parses_or_names_an_offset_in_the_file(pts1_path, case):
    seq, blob = case
    pts1_path.write_bytes(blob)
    try:
        back = read_pts1(pts1_path)
    except StreamFormatError as exc:
        offset = re.match(r"offset (\d+): ", str(exc))
        assert offset is not None, str(exc)
        assert 0 <= int(offset.group(1)) <= len(blob)
    else:
        # whatever parses is a valid sequence that accounts for every byte
        assert len(blob) == 24 + 8 * len(back)
        assert np.all(back.times_ps[1:] >= back.times_ps[:-1])
        assert len(back) == 0 or int(back.times_ps[-1]) < back.window_ps


def test_pts1_zero_window(tmp_path):
    blob = bytearray(_valid_blob())
    blob[8:16] = (0).to_bytes(8, "little")
    path = tmp_path / "zero.pts1"
    path.write_bytes(bytes(blob))
    with pytest.raises(StreamFormatError, match="offset 8"):
        read_pts1(path)
