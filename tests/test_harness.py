"""Monte-Carlo sweep runners, the image pipeline, and result persistence."""

import csv
import json
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from mcfc import harness
from mcfc.analysis import InsufficientDataError, channel_error_rate, misdecode_prob
from mcfc.codec import FAILED_PIXEL
from mcfc.harness import (
    ImageReport,
    SweepPoint,
    SweepSpec,
    run_amplitude_nonlinearity,
    run_error_vs_components,
    run_error_vs_integration_time,
    run_error_vs_noise,
    run_error_vs_spacing,
    run_image_transmission,
    transmit_windows,
    wilson_interval,
    write_manifest,
    write_sweep_csv,
)
from mcfc.photon_channel import LinkBudget, Tone
from mcfc.spectral import LineStats


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(grid=())
    with pytest.raises(ValueError):
        SweepSpec(grid=(1.0,), trials=0)
    # one trial has no sample spread for the error model
    with pytest.raises(ValueError, match="trials"):
        SweepSpec(grid=(1.0,), trials=1)
    # a one-channel band has no floor to compare the line against
    with pytest.raises(ValueError, match="channels_per_band"):
        SweepSpec(grid=(1.0,), channels_per_band=1)
    # sweeps sample dead time and gating like every other impairment
    for budget in (LinkBudget(dead_time=1e-8), LinkBudget(rep_period=1e-9)):
        (point,) = run_error_vs_noise(SweepSpec(grid=(0.0,), trials=10, budget=budget))
        assert point.trials == 10 and point.line_mean > point.floor_mean
    spec = SweepSpec(grid=[1, 2], components=[1, 3])
    assert spec.grid == (1.0, 2.0)
    assert spec.components == (1, 3)


# -----------------------------------------------------------------
# Wilson interval
# -----------------------------------------------------------------

def test_wilson_interval_basics():
    low, high = wilson_interval(0, 100)
    assert low == pytest.approx(0.0, abs=1e-12) and 0.0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert high == 1.0 and low > 0.95
    low, high = wilson_interval(10, 100)
    assert low < 0.1 < high
    # narrows with more data at fixed proportion
    w1 = np.diff(wilson_interval(10, 100))[0]
    w2 = np.diff(wilson_interval(100, 1000))[0]
    assert w2 < w1
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_interval_coverage():
    # 95% nominal coverage, Wilson holds up well even at p = 0.05
    rng = np.random.default_rng(80)
    p = 0.05
    hits = 0
    trials = 2000
    for k in rng.binomial(200, p, size=trials):
        low, high = wilson_interval(int(k), 200)
        hits += low <= p <= high
    assert hits / trials >= 0.93


# -----------------------------------------------------------------
# sweep runners
# -----------------------------------------------------------------

def test_error_vs_noise_reproducible_and_calibrated():
    spec = SweepSpec(grid=(0.0, 80e3), trials=800, seed=81)
    pts1 = run_error_vs_noise(spec)
    pts2 = run_error_vs_noise(spec)
    assert pts1 == pts2  # bit-exact reproducibility

    clean, noisy = pts1
    assert clean.parameter == "noise_rate_cps"
    assert clean.errors == 0 and clean.analytic_only
    assert clean.analytic_rate < 1e-3
    # at 80k/80k the empirical rate is ~2%: enough errors to compare
    assert noisy.errors >= 5
    assert not noisy.analytic_only
    assert noisy.wilson_low <= noisy.empirical_rate <= noisy.wilson_high
    ratio = noisy.empirical_rate / noisy.analytic_rate
    assert 1 / 3 < ratio < 3


def test_three_channel_band_measures_a_real_floor():
    # with the line's neighbours as the only other channels, the floor is
    # those neighbours, not the line itself
    spec = SweepSpec(grid=(0.0,), trials=800, seed=90, channels_per_band=3)
    (clean,) = run_error_vs_noise(spec)
    assert clean.errors == 0
    assert clean.floor_mean != clean.line_mean
    assert clean.floor_mean < clean.line_mean / 3
    assert clean.analytic_rate < 1e-3


def test_band_model_refuses_a_line_outside_the_band():
    with pytest.raises(ValueError, match=r"^line must be finite and in \[0, 4\], got 7$"):
        harness.band_model(np.ones((4, 5)), 7)


def test_pure_noise_point_is_measured():
    spec = SweepSpec(grid=(80e3,), trials=500, seed=91, signal_rate=0.0)
    (point,) = run_error_vs_noise(spec)
    # no line: the decision is a coin toss over the band
    assert point.empirical_rate > 0.5
    assert point.line_std > 0.0 and point.floor_std > 0.0
    assert point.line_mean == pytest.approx(point.floor_mean, rel=0.2)


def test_analytic_rate_keeps_its_tail_below_double_epsilon():
    # at 640 kcps a lone tone's band rate is ~1e-42; 1 - (1 - r) would give 0
    spec = SweepSpec(grid=(640e3,), trials=400, seed=13)
    (point,) = run_error_vs_components(spec)
    model = LineStats(point.line_mean, point.line_std, point.floor_mean, point.floor_std)
    band_rate = channel_error_rate(misdecode_prob(model), spec.channels_per_band - 1)
    assert 0.0 < point.analytic_rate < 1e-16
    assert point.analytic_rate == pytest.approx(band_rate, rel=1e-12, abs=0)


@pytest.mark.parametrize("runner, spec, competitors", [
    (run_error_vs_spacing, SweepSpec(grid=(250.0, 1000.0), trials=400, seed=92), 1),
    (run_error_vs_noise, SweepSpec(grid=(0.0, 80e3), trials=400, seed=92), 10),
    (run_error_vs_noise, SweepSpec(grid=(80e3,), trials=400, seed=92, channels_per_band=3), 2),
    (run_error_vs_integration_time, SweepSpec(grid=(1e-3,), trials=400, seed=92, channels_per_band=5), 4),
    (run_error_vs_components, SweepSpec(grid=(80e3,), trials=400, seed=92), 10),
    (run_amplitude_nonlinearity, SweepSpec(grid=(80e3,), trials=400, seed=92, components=(1, 3)), 10),
])
def test_analytic_rate_is_the_model_of_its_moments(runner, spec, competitors):
    # one decided band: the rate is the Gaussian model of the reported moments,
    # the line facing the band's width - 1 other channels
    for point in runner(spec):
        p = misdecode_prob(LineStats(point.line_mean, point.line_std, point.floor_mean, point.floor_std))
        assert point.analytic_rate == channel_error_rate(p, competitors)
        if competitors == 1:
            assert point.analytic_rate == p


@pytest.mark.parametrize("runner, spec, named", [
    (run_error_vs_noise, SweepSpec(grid=(0.0,), trials=50, signal_rate=0.0), "noise_rate_cps = 0"),
    (run_error_vs_components, SweepSpec(grid=(0.0,), trials=50), "signal_rate_cps = 0"),
    (run_amplitude_nonlinearity, SweepSpec(grid=(0.0,), trials=50), "signal_rate_cps = 0"),
])
def test_point_without_photons_is_insufficient_data(runner, spec, named):
    with pytest.raises(InsufficientDataError, match=named):
        runner(spec)


def test_error_vs_spacing_shape():
    window = 1e-3
    spec = SweepSpec(grid=(250.0, 1000.0), trials=1500, seed=82, window=window)
    tight, natural = run_error_vs_spacing(spec)
    # clear leakage at a quarter of the natural grid, none on the grid
    assert tight.empirical_rate > 0.05
    assert natural.empirical_rate < 0.01
    assert natural.analytic_rate < 1e-3


def test_tone_count_sweeps_refuse_bands_that_share_channels():
    # bands sit 20 kHz apart: 11 channels at 2 kHz span 20 kHz and touch the next band
    spec = SweepSpec(grid=(2e5,), trials=20, spacing=2e3, components=(2,))
    for runner in (run_error_vs_components, run_amplitude_nonlinearity):
        with pytest.raises(ValueError, match=r"^'spacing' 2000 Hz over 'channels_per_band' 11 spans 20000 Hz"):
            runner(spec)
    (point,) = run_error_vs_components(SweepSpec(grid=(2e5,), trials=20, spacing=2e3))  # one tone, one band
    assert point.components == 1


def test_components_share_the_rate_budget():
    spec = SweepSpec(grid=(320e3,), trials=2500, seed=83, components=(1, 3))
    single, triple = run_amplitude_nonlinearity(spec)
    assert single.components == 1 and triple.components == 3
    assert single.line_mean / triple.line_mean == pytest.approx(3.0, rel=0.1)
    # floors see the same total rate either way
    assert single.floor_mean == pytest.approx(triple.floor_mean, rel=0.1)


def test_error_vs_components_analytic_tracks_empirical():
    spec = SweepSpec(grid=(40e3,), trials=3000, seed=84, components=(1,))
    (pt,) = run_error_vs_components(spec)
    assert pt.errors > 10
    # the Gaussian model treats floor channels as independent, so it sits a
    # little above the Monte Carlo rate; demand same order, not equality
    assert 0.5 <= pt.analytic_rate / pt.empirical_rate <= 4.0


# -----------------------------------------------------------------
# image pipeline
# -----------------------------------------------------------------

def test_image_transmission_clean_channel(rgb_plan):
    rng = np.random.default_rng(85)
    img = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
    received, report = run_image_transmission(img, rgb_plan, 1.44e6, seed=86)
    assert report.pixels == 6
    assert report.pixel_errors == 0
    assert report.failed_pixels == 0
    assert report.pixel_error_rate == 0.0
    assert set(report.band_errors) == {"red", "green", "blue"}
    # a clean run reproduces the quantized image exactly
    from mcfc.codec import image_to_symbols, symbols_to_image
    assert np.array_equal(received, symbols_to_image(image_to_symbols(img), (2, 3)))


def test_image_transmission_total_loss_marks_failures(rgb_plan):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    budget = LinkBudget(transmittance=1e-9)
    received, report = run_image_transmission(img, rgb_plan, 1e3, budget, seed=87)
    assert report.failed_pixels == report.pixels == 4
    assert report.pixel_errors == 4
    assert np.all(received.reshape(-1, 3) == FAILED_PIXEL)


# The link benchmark counts image windows by its probe on harness.decode and
# sweep points by its probe on harness.sample_event_batch, so these counts
# are part of the runners' contract.

def test_image_transmission_decodes_once_per_window(rgb_plan):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    with mock.patch.object(harness, "decode", wraps=harness.decode) as decode:
        run_image_transmission(img, rgb_plan, 1.44e6, seed=88)
    assert decode.call_count == 4


def test_components_sweep_samples_once_per_point():
    spec = SweepSpec(grid=(80e3, 160e3), trials=20, seed=89, components=(1, 3))
    with mock.patch.object(harness, "sample_event_batch", wraps=harness.sample_event_batch) as sample:
        points = run_error_vs_components(spec)
    assert len(points) == sample.call_count == 4


@pytest.mark.parametrize("rate, window, field", [
    (-5.0, 1e-3, "mean_rate"), (float("nan"), 1e-3, "mean_rate"), (8e4, 0.0, "duration"),
])
def test_window_link_checks_the_source_before_the_first_window(rgb_plan, rate, window, field):
    with mock.patch.object(harness, "transmit", wraps=harness.transmit) as transmit:
        with pytest.raises(ValueError, match=field):
            transmit_windows([(Tone(1e5),)], rate, window, LinkBudget(), 0, "test")
        with pytest.raises(ValueError, match=field):
            run_image_transmission(np.zeros((1, 1, 3), dtype=np.uint8), rgb_plan, rate, window=window)
        assert transmit.call_count == 0
        # a good source draws nothing until a window is asked for, then one per window
        windows = transmit_windows([(Tone(1e5),)] * 3, 8e4, 1e-3, LinkBudget(), 0, "test")
        assert transmit.call_count == 0
        next(windows)
        assert transmit.call_count == 1


@pytest.mark.parametrize("runner, label, counts", [
    (run_error_vs_noise, "error-vs-noise", ()),
    (run_error_vs_integration_time, "error-vs-window", ()),  # the runner's label, not the CLI's name
    (run_error_vs_spacing, "error-vs-spacing", ()),
    (run_error_vs_components, "error-vs-components", (1, 3)),
    (run_amplitude_nonlinearity, "amplitude", (1, 3)),
])
def test_each_sweep_point_draws_from_its_own_substream(runner, label, counts):
    # point i of a sweep draws from (seed, label, i), and of tone count k from (seed, label, k, i):
    # the paths every written result depends on
    spec = SweepSpec(grid=(1e-3, 2e-3) if runner is run_error_vs_integration_time else (8e4, 2e5),
                     trials=20, seed=93, components=counts or (1,))
    with mock.patch.object(harness, "derive_rng", wraps=harness.derive_rng) as derive:
        runner(spec)
    paths = [(93, label, *k, i) for k in ([(k,) for k in counts] or [()]) for i in range(2)]
    assert [c.args for c in derive.call_args_list] == paths


def test_every_sweep_has_a_runner_and_names_only_config_keys():
    keys = {f.name for f in fields(SweepSpec)} | {f"budget.{f.name}" for f in fields(LinkBudget)}
    assert set(harness.SWEEPS) == {"error-vs-noise", "error-vs-integration-time", "error-vs-spacing",
                                   "error-vs-components", "amplitude"}
    for name, (runner, unread) in harness.SWEEPS.items():
        assert getattr(harness, runner.__name__) is runner and runner.__name__.startswith("run_"), name
        assert unread <= keys and not unread & {"grid", "trials", "seed", "budget"}, (name, unread)


def test_image_report_rate_empty():
    assert ImageReport(0, 0, 0).pixel_error_rate == 0.0


# -----------------------------------------------------------------
# persistence
# -----------------------------------------------------------------

def test_sweep_csv_round_trip(tmp_path):
    spec = SweepSpec(grid=(0.0, 40e3), trials=300, seed=88)
    points = run_error_vs_noise(spec)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, points)
    text = path.read_text()
    assert "np." not in text
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 2
    assert rows[0]["parameter"] == "noise_rate_cps"
    assert float(rows[1]["value"]) == 40e3
    assert int(rows[0]["trials"]) == 300
    assert float(rows[0]["analytic_rate"]) == points[0].analytic_rate
    assert rows[0]["analytic_only"] in ("0", "1")


def test_sweep_csv_exact_bytes(tmp_path):
    # numpy scalars are written as plain ints and floats, never with an np. prefix
    point = SweepPoint(
        parameter="signal_rate_cps", value=np.float64(80e3), components=np.int64(3), trials=200,
        errors=np.int64(0), empirical_rate=0.0, wilson_low=0.0, wilson_high=0.25,
        analytic_rate=1e-20, line_mean=np.float64(13.5), line_std=2.0, floor_mean=0.1, floor_std=1.0,
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, [point])
    assert path.read_bytes() == (
        b"parameter,value,components,trials,errors,empirical_rate,wilson_low,wilson_high,"
        b"analytic_rate,line_mean,line_std,floor_mean,floor_std,analytic_only\r\n"
        b"signal_rate_cps,80000.0,3,200,0,0.0,0.0,0.25,1e-20,13.5,2.0,0.1,1.0,1\r\n"
    )


def test_moments_csv(tmp_path):
    spec = SweepSpec(grid=(80e3,), trials=500, seed=89, components=(1, 2))
    points = run_amplitude_nonlinearity(spec)
    path = tmp_path / "amp.csv"
    write_sweep_csv(path, points)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert len(rows) == 2
    assert {r["components"] for r in rows} == {"1", "2"}
    assert rows[0]["parameter"] == "signal_rate_cps"
    assert float(rows[0]["value"]) == 80e3
    assert float(rows[0]["line_mean"]) == points[0].line_mean


def test_manifest_is_deterministic(tmp_path):
    config = {"sweep": "error-vs-noise", "grid": [0.0, 1.0], "seed": 9}
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_manifest(p1, config, ["a.csv"])
    write_manifest(p2, dict(config), ["a.csv"])
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    assert d1 == d2
    assert d1["config_sha256"] == d2["config_sha256"]
    assert d1["outputs"] == ["a.csv"]
    # different config, different fingerprint
    write_manifest(p2, {**config, "seed": 10}, ["a.csv"])
    assert json.loads(p2.read_text())["config_sha256"] != d1["config_sha256"]
