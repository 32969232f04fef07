"""Error model, capacity accounting, and photon-statistics diagnostics."""

import math

import numpy as np
import pytest

from mcfc.analysis import (
    CapacityReport,
    InsufficientDataError,
    binary_entropy,
    capacity,
    channel_error_rate,
    expected_mandel_q,
    g2,
    mandel_q,
    misdecode_prob,
    misdecode_prob_quadrature,
    modulator_transfer,
    noise_floor_boundary,
)
from mcfc.photon_channel import (
    LinkBudget,
    PhotonSequence,
    SourceConfig,
    Tone,
    derive_rng,
    sample_event_batch,
    transmit,
)
from mcfc.spectral import LineStats, batch_amplitudes


# -----------------------------------------------------------------
# misdecode probability
# -----------------------------------------------------------------

def test_error_model_input_validation():
    with pytest.raises(ValueError):
        LineStats(10.0, 0.0, 5.0, 1.0, channels=11)
    with pytest.raises(ValueError):
        LineStats(10.0, 1.0, 5.0, -1.0, channels=11)
    with pytest.raises(ValueError):
        LineStats(10.0, 1.0, 5.0, 1.0, channels=0)
    stats = LineStats(40.0, 6.3, 7.9, 4.1, 500)
    assert (stats.line_mean, stats.floor_std, stats.trials, stats.channels) == (40.0, 4.1, 500, None)
    model = LineStats(40.0, 6.3, 7.9, 4.1, channels=11)
    assert misdecode_prob(model) == misdecode_prob(stats)


def test_closed_form_agrees_with_quadrature():
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(100):
        model = LineStats(
            line_mean=rng.uniform(5.0, 100.0),
            line_std=rng.uniform(0.5, 10.0),
            floor_mean=rng.uniform(1.0, 60.0),
            floor_std=rng.uniform(0.5, 10.0),
            channels=int(rng.integers(1, 30)),
        )
        worst = max(worst, abs(misdecode_prob(model) - misdecode_prob_quadrature(model)))
    assert worst < 1e-10


def test_misdecode_limits_and_monotonicity():
    equal = LineStats(10.0, 2.0, 10.0, 2.0, channels=2)
    assert misdecode_prob(equal) == pytest.approx(0.5, abs=1e-12)

    far = LineStats(100.0, 3.0, 10.0, 3.0, channels=2)
    assert misdecode_prob(far) < 1e-23

    base = LineStats(40.0, 6.0, 8.0, 4.0, channels=11)
    higher_floor = LineStats(40.0, 6.0, 12.0, 4.0, channels=11)
    stronger_line = LineStats(50.0, 6.0, 8.0, 4.0, channels=11)
    noisier = LineStats(40.0, 9.0, 8.0, 4.0, channels=11)
    assert misdecode_prob(higher_floor) > misdecode_prob(base)
    assert misdecode_prob(stronger_line) < misdecode_prob(base)
    assert misdecode_prob(noisier) > misdecode_prob(base)


def test_channel_error_rate_forms():
    assert channel_error_rate(1e-6, 10) == pytest.approx(9.99995500012e-6, rel=1e-9)
    assert channel_error_rate(0.0, 10) == 0.0
    assert channel_error_rate(1.0, 3) == 1.0
    # union bound
    for p, m in ((1e-4, 10), (0.05, 32), (0.3, 4)):
        assert channel_error_rate(p, m) <= m * p
        assert channel_error_rate(p, m) >= p
    with pytest.raises(ValueError):
        channel_error_rate(1.5, 3)
    with pytest.raises(ValueError):
        channel_error_rate(0.1, 0)


# -----------------------------------------------------------------
# capacity
# -----------------------------------------------------------------

def test_binary_entropy_basics():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), rel=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_capacity_single_bit_reference():
    # 2 channels, 1 tone, 1 ms windows: exactly one bit per window
    rep = capacity(1e3, 1e3, 1e-3, 1)
    assert rep.m_opt == 2 and rep.m_max == 2
    assert rep.raw_bps == 1000.0
    assert rep.effective_bps == 1000.0


def test_capacity_error_free_equals_raw():
    rep = capacity(1e6, 1e3, 1e-3, 2)
    assert rep.m_max == math.comb(1001, 2)
    assert rep.p_e == 0.0
    assert rep.effective_bps == rep.raw_bps


def test_capacity_monotone_in_symbol_error():
    errs = np.linspace(0.0, 0.5, 11)
    effs = [capacity(1e6, 1e3, 1e-3, 2, e).effective_bps for e in errs]
    assert all(a >= b for a, b in zip(effs, effs[1:]))
    assert effs[-1] < effs[0]


def test_capacity_confusion_probability_scaling():
    rep = capacity(1e4, 1e3, 1e-3, 1, symbol_error=0.02)
    m = rep.m_max
    assert rep.p_e == pytest.approx(0.02 * (m / (m - 1)) / 2.0, rel=1e-12)
    assert rep.entropy_term == pytest.approx(binary_entropy(rep.p_e), rel=1e-12)
    assert rep.effective_bps == pytest.approx(rep.raw_bps * (1 - rep.entropy_term), rel=1e-12)


def test_capacity_degenerate_and_invalid():
    rep = capacity(500.0, 1e3, 1e-3, 1)  # single channel: no information
    assert rep.m_max == 1 and rep.raw_bps == 0.0
    with pytest.raises(ValueError):
        capacity(1e3, 1e3, 1e-3, 5)
    with pytest.raises(ValueError):
        capacity(1e3, 1e3, 0.0, 1)
    with pytest.raises(ValueError):
        capacity(1e3, 1e3, 1e-3, 1, symbol_error=1.5)


# -----------------------------------------------------------------
# modulator transfer
# -----------------------------------------------------------------

def test_modulator_transfer_ports():
    assert modulator_transfer(0.0, 2.0) == (2.0, 0.0)
    bright, dark = modulator_transfer(np.pi, 2.0)
    assert bright == pytest.approx(0.0, abs=1e-12)
    assert dark == pytest.approx(2.0, rel=1e-12)
    bright, dark = modulator_transfer(np.pi / 2, 3.0)
    assert bright == pytest.approx(1.5, rel=1e-12)
    assert dark == pytest.approx(1.5, rel=1e-12)


def test_modulator_transfer_conserves_energy():
    for theta in np.linspace(0, 2 * np.pi, 37):
        bright, dark = modulator_transfer(float(theta), 1.7)
        assert bright + dark == pytest.approx(1.7, rel=1e-12)
        assert bright >= 0.0 and dark >= 0.0
    with pytest.raises(ValueError):
        modulator_transfer(0.0, -1.0)


# -----------------------------------------------------------------
# photon statistics on long streams
# -----------------------------------------------------------------

@pytest.fixture(scope="module")
def flat_stream():
    return transmit(SourceConfig(2e5, 5.0, ()), LinkBudget(), derive_rng(71, "flat"))


@pytest.fixture(scope="module")
def tone_stream():
    # 50 cycles per 1 ms sub-window: integer-cycle case
    return transmit(SourceConfig(2e5, 5.0, (Tone(50e3),)), LinkBudget(),
                    derive_rng(71, "tone"))


def test_g2_flat_stream_is_one(flat_stream):
    curve = g2(flat_stream, 1e-4, 2e-6)
    assert curve.lags.size == 50
    assert np.max(np.abs(curve.values - 1.0)) < 0.02
    assert curve.pair_counts.sum() > 0


def test_g2_of_a_finite_capture_is_one_at_long_lags():
    # on a 1 s window, a pair fits at lag tau with odds (1 - tau), so a count
    # normalised as on an endless line would read 1 - tau: 0.75 to 0.875 here
    seq = PhotonSequence.from_seconds(np.sort(derive_rng(75).uniform(0.0, 1.0, 10_000)), 1.0)
    curve = g2(seq, 0.25, 2e-4)
    long = curve.lags > 0.125
    expected = curve.pair_counts[long] / curve.values[long]
    assert expected.min() > 1e4
    # each bin within 8 binomial spreads: ~6 of its own noise, ~2 for a swing all bins share
    assert np.all(np.abs(curve.values[long] - 1.0) <= 8.0 / np.sqrt(expected))

def test_g2_modulated_stream_cosine(tone_stream):
    curve = g2(tone_stream, 1e-4, 2e-6)
    theory = 1.0 + 0.5 * np.cos(2 * np.pi * 50e3 * curve.lags)
    assert np.max(np.abs(curve.values - theory)) < 0.05
    # swing: full-depth modulation gives 1 +/- 0.5 at the bin centers
    assert curve.values.max() == pytest.approx(theory.max(), abs=0.05)
    assert curve.values.min() == pytest.approx(theory.min(), abs=0.05)
    # first trough at half the modulation period, peak at the full period
    early = curve.lags < 16e-6
    trough = curve.lags[early][np.argmin(curve.values[early])]
    assert abs(trough - 10e-6) <= 2e-6
    around_period = (curve.lags > 14e-6) & (curve.lags < 26e-6)
    peak = curve.lags[around_period][np.argmax(curve.values[around_period])]
    assert abs(peak - 20e-6) <= 2e-6


def test_g2_validation():
    seq = transmit(SourceConfig(1e4, 1e-3, ()), LinkBudget(), derive_rng(72))
    with pytest.raises(ValueError):
        g2(seq, 1e-6, 1e-5)  # max_lag below bin width
    sparse = PhotonSequence.from_seconds([0.1, 0.9], 1.0)
    with pytest.raises(InsufficientDataError):
        g2(sparse, 1e-4, 2e-6)


def test_mandel_q_flat_stream(flat_stream):
    assert abs(mandel_q(flat_stream, 1e-3)) < 0.05


def test_mandel_q_integer_cycle_window(tone_stream):
    # whole cycles per window integrate the modulation away
    assert abs(mandel_q(tone_stream, 1e-3)) < 0.05
    assert expected_mandel_q(2e5, 1.0, 50e3, 1e-3) < 1e-12


def test_mandel_q_fractional_window_matches_prediction():
    # 0.487 cycles per window; consecutive windows equidistribute in phase
    predicted = expected_mandel_q(2e5, 1.0, 487.0, 1e-3)
    seq = transmit(SourceConfig(2e5, 5.0, (Tone(487.0),)), LinkBudget(),
                   derive_rng(73, "frac"))
    assert predicted == pytest.approx(42.65, rel=0.01)
    assert mandel_q(seq, 1e-3) == pytest.approx(predicted, rel=0.15)


def test_mandel_q_counts_array_path():
    rng = derive_rng(74)
    counts = rng.poisson(30.0, size=5000)
    assert abs(mandel_q(counts)) < 0.05
    with pytest.raises(InsufficientDataError):
        mandel_q(counts[:50])


def test_mandel_q_window_requirements(flat_stream):
    with pytest.raises(ValueError):
        mandel_q(flat_stream, 0.0)
    with pytest.raises(InsufficientDataError):
        mandel_q(flat_stream, 1.0)  # only 5 complete windows


# -----------------------------------------------------------------
# noise-floor boundary
# -----------------------------------------------------------------

def test_noise_floor_boundary_calibration():
    """A pure-noise scan should stay under the boundary in ~all trials."""
    config = SourceConfig(2e5, 1e-3)
    trials = 2000
    batch = sample_event_batch(config, trials, derive_rng(75))
    freqs = 150e3 + 1e3 * np.arange(33)
    amps = batch_amplitudes(batch, freqs)
    bound = noise_floor_boundary(config.expected_count, 33)
    clean = np.mean(amps.max(axis=1) < bound)
    assert clean >= 0.99


def test_noise_floor_boundary_validation():
    assert noise_floor_boundary(100.0, 1, 0.5) == pytest.approx(
        np.sqrt(100.0 * np.log(2.0)), rel=1e-12)
    with pytest.raises(ValueError):
        noise_floor_boundary(0.0, 10)
    with pytest.raises(ValueError):
        noise_floor_boundary(100.0, 0)
    with pytest.raises(ValueError):
        noise_floor_boundary(100.0, 10, 0.0)
