"""Every numeric input of the library goes through one range check.

Each row names a constructor or function, the field it checks and the
interval that field must lie in.  NaN, both infinities, bools and the nearest float
outside each finite end are refused with a ``ValueError`` that names the
field; a closed finite end is accepted.
"""

import math
import re

import numpy as np
import pytest

from mcfc.analysis import (
    binary_entropy,
    capacity,
    channel_error_rate,
    expected_mandel_q,
    g2,
    mandel_q,
    modulator_transfer,
    noise_floor_boundary,
)
from mcfc.codec import FrequencyPlan, NamedBand, Symbol, effective_channels, optimal_channels
from mcfc.harness import SweepSpec, run_error_vs_integration_time, run_error_vs_spacing, wilson_interval
from mcfc.photon_channel import (
    LinkBudget,
    PhotonSequence,
    SourceConfig,
    Tone,
    check_range,
    derive_rng,
    interval,
    sample_event_batch,
)
from mcfc.spectral import Band, LineStats, floor_channels, periodogram, phasor_sums

INF = math.inf
#: A 10 ms stream of 4000 evenly spaced events: pairs within any lag >= 2.5 us.
SEQ = PhotonSequence.from_seconds(np.arange(4000) * 2.5e-6, 1e-2)
BAND = NamedBand("b", 1e3, 2e3, (1e3, 2e3))


def _plan(spacing):
    return FrequencyPlan("p", spacing, (BAND,), {Symbol.index(0): (1e3,), Symbol.index(1): (2e3,)})


ROWS = [
    # (call with the value, field named in the message, low, high, ends)
    (lambda v: Tone(v), "frequency", 0.0, INF, "()"),
    (lambda v: Tone(1e3, depth=v), "depth", 0.0, 1.0, "[]"),
    (lambda v: Tone(1e3, phase=v), "phase", -INF, INF, "()"),
    (lambda v: SourceConfig(v, 1e-3), "mean_rate", 0.0, INF, "[)"),
    (lambda v: SourceConfig(1e3, v), "duration", 1e-12, INF, "[)"),
    (lambda v: LinkBudget(transmittance=v), "transmittance", 0.0, 1.0, "(]"),
    (lambda v: LinkBudget(noise_rate=v), "noise_rate", 0.0, INF, "[)"),
    (lambda v: LinkBudget(dark_rate=v), "dark_rate", 0.0, INF, "[)"),
    (lambda v: LinkBudget(jitter_sigma=v), "jitter_sigma", 0.0, INF, "[)"),
    # a nonzero dead time or a gate must round to at least 1 ps
    (lambda v: LinkBudget(dead_time=v), "dead_time", 5e-13, INF, "()"),
    (lambda v: LinkBudget(rep_period=v), "rep_period", 5e-13, INF, "()"),
    (lambda v: Band(v, 2e3), "low", 0.0, INF, "()"),
    (lambda v: Band(1e3, v), "high", 1e3, INF, "()"),
    (lambda v: periodogram(SEQ, Band(1e3, 2e3), v), "resolution", 0.0, INF, "()"),
    (lambda v: LineStats(10.0, v, 5.0, 1.0), "line_std", 0.0, INF, "()"),
    (lambda v: LineStats(10.0, 1.0, 5.0, v), "floor_std", 0.0, INF, "()"),
    (lambda v: NamedBand("b", v, 2e3, (2e3,)), "band 'b' low", 0.0, INF, "()"),
    (lambda v: NamedBand("b", 1e3, v, (1e3,)), "band 'b' high", 1e3, INF, "()"),
    (lambda v: NamedBand("b", 1e3, 2e3, (v,)), "band 'b' channel", 1e3, 2e3, "[]"),
    (lambda v: _plan(v), "spacing", 0.0, INF, "()"),
    (lambda v: optimal_channels(v, 1e3), "bandwidth", 0.0, INF, "()"),
    (lambda v: optimal_channels(1e3, v), "spacing", 0.0, INF, "()"),
    (lambda v: SweepSpec(grid=(v,)), "'grid'", 0.0, INF, "[)"),
    (lambda v: SweepSpec(grid=(1.0,), signal_rate=v), "'signal_rate'", 0.0, INF, "[)"),
    (lambda v: SweepSpec(grid=(1.0,), window=v), "'window'", 1e-12, INF, "[)"),
    (lambda v: SweepSpec(grid=(1.0,), modulation_frequency=v), "'modulation_frequency'", 0.0, INF, "()"),
    (lambda v: SweepSpec(grid=(1.0,), spacing=v), "'spacing'", 0.0, INF, "()"),
    (lambda v: SweepSpec(grid=(1.0,), mean_count=v), "'mean_count'", 0.0, INF, "()"),
    # refused before any point runs, so these rows sample nothing
    (lambda v: run_error_vs_spacing(SweepSpec(grid=(500.0, v), trials=2)), "'grid'", 0.0, INF, "()"),
    (lambda v: run_error_vs_integration_time(SweepSpec(grid=(1e-3, v), trials=2)), "'grid'",
     0.0, INF, "()"),
    (lambda v: channel_error_rate(v, 3), "p", 0.0, 1.0, "[]"),
    (lambda v: binary_entropy(v), "p", 0.0, 1.0, "[]"),
    (lambda v: capacity(1e6, 1e3, v, 2), "window", 0.0, INF, "()"),
    (lambda v: capacity(1e6, 1e3, 1e-3, 2, v), "symbol_error", 0.0, 1.0, "[]"),
    (lambda v: g2(SEQ, 1e-4, v), "bin_width", 0.0, INF, "()"),
    (lambda v: g2(SEQ, v, 5e-6), "max_lag", 5e-6, 1e-2, "[]"),  # no pair lies past the window
    (lambda v: mandel_q(SEQ, v), "window", 0.0, INF, "()"),
    (lambda v: modulator_transfer(v, 1.0), "theta", -INF, INF, "()"),
    (lambda v: modulator_transfer(0.0, v), "mean_photons", 0.0, INF, "[)"),
    (lambda v: noise_floor_boundary(v, 10), "count", 0.0, INF, "()"),
    (lambda v: noise_floor_boundary(100.0, 10, v), "miss_prob", 0.0, 1.0, "()"),
    (lambda v: expected_mandel_q(v, 1.0, 1e3, 1e-3), "rate", 0.0, INF, "[)"),
    (lambda v: expected_mandel_q(1e4, v, 1e3, 1e-3), "depth", 0.0, 1.0, "[]"),
    (lambda v: expected_mandel_q(1e4, 1.0, v, 1e-3), "frequency", 0.0, INF, "()"),
    (lambda v: expected_mandel_q(1e4, 1.0, 1e3, v), "window", 0.0, INF, "()"),
    (lambda v: PhotonSequence.from_seconds([], v), "window", 1e-12, INF, "[)"),
]


@pytest.mark.parametrize("call, field, low, high, ends", ROWS,
                         ids=[f"{i}-{row[1]}" for i, row in enumerate(ROWS)])
def test_each_field_refuses_what_lies_outside_its_interval(call, field, low, high, ends):
    refused = [math.nan, INF, -INF, True, False, np.bool_(True), np.bool_(False)]  # a bool is no number
    if math.isfinite(low):
        refused.append(low if ends[0] == "(" else math.nextafter(low, -INF))
    if math.isfinite(high):
        refused.append(high if ends[1] == ")" else math.nextafter(high, INF))
    for value in refused:
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite and in "):
            call(value)
    for end, closed in ((low, ends[0] == "["), (high, ends[1] == "]")):
        if closed and math.isfinite(end):
            call(end)  # accepted


COUNTS = [
    # (call with the count, field named in the message, least and greatest count)
    (lambda v: phasor_sums(np.empty(0), [1e3], np.empty(0, dtype=np.intp), v), "trials", 0, INF),
    (lambda v: sample_event_batch(SourceConfig(1e3, 1e-3), v, derive_rng(0)), "trials", 0, INF),
    (lambda v: SweepSpec(grid=(1.0,), trials=v), "'trials'", 2, INF),
    (lambda v: SweepSpec(grid=(1.0,), channels_per_band=v), "'channels_per_band'", 2, INF),
    (lambda v: SweepSpec(grid=(1.0,), components=(1, v)), "'components'", 1, INF),
    (lambda v: channel_error_rate(0.1, v), "channels", 1, INF),
    (lambda v: capacity(1e6, 1e3, 1e-3, v), "components", 1, INF),
    (lambda v: PhotonSequence(np.empty(0), v), "window_ps", 1, INF),
    (lambda v: noise_floor_boundary(100, v), "n_frequencies", 1, INF),
    (lambda v: wilson_interval(v, 3), "errors", 0, 3),  # at most the trials
    (lambda v: wilson_interval(1, v), "trials", 1, INF),
    (lambda v: effective_channels(v, 1), "m_opt", 1, INF),
    (lambda v: effective_channels(5, v), "k", 1, 5),  # at most the channels
    (lambda v: floor_channels(v, 0), "channels", 2, INF),
    (lambda v: floor_channels(3, v), "line", 0, 2),  # a channel index
]


@pytest.mark.parametrize("call, field, least, most", COUNTS,
                         ids=[f"{i}-{row[1]}" for i, row in enumerate(COUNTS)])
def test_each_count_refuses_what_is_not_an_integer_in_range(call, field, least, most):
    for value in (2.5, float(least), True, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer, got "):
            call(value)
    text = f"[{least}, inf)" if most == INF else f"[{least}, {most}]"
    for value in (least - 1, most + 1):
        if math.isfinite(value):
            with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite and in "
                                                 rf"{re.escape(text)}, got {value}$"):
                call(value)
    for value in (least, np.int64(least), most):  # accepted, as a numpy integer too
        if math.isfinite(value):
            call(value)


def test_a_count_past_the_float_range_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^trials must be finite and in \[1, inf\), got 1000"):
        wilson_interval(1, 10**400)


def test_the_check_refuses_what_is_not_a_number():
    for value in (None, "1", [1.0], 1j):
        with pytest.raises(ValueError, match=r"^x must be finite and in \(0, inf\), got "):
            check_range(interval(0.0, INF), x=value)
    check_range(interval(0.0, INF), x=np.float64(1.0))
    check_range(interval(0.0, INF), x=1)


def test_interval_ends_are_exact_and_shown_as_written():
    low, high, text = interval(0.0, 1.0, "(]")
    assert (low, high, text) == (5e-324, 1.0, "(0, 1]")
    assert interval(-INF, INF)[2] == "(-inf, inf)"
    # an open end admits the next float, so "> 0.5 ps" holds exactly at 1 ps rounding
    low, _, _ = interval(5e-13, INF)
    assert low * 1e12 > 0.5 and round(low * 1e12) == 1
    assert math.nextafter(low, 0.0) * 1e12 <= 0.5


def test_grid_caps_refuse_before_allocating():
    # 1e15 lag bins or Mandel windows would ask numpy for petabytes
    with pytest.raises(ValueError, match=r"2000000-point cap; widen bin_width or shorten max_lag"):
        g2(SEQ, 1.0, 1e-15)
    with pytest.raises(ValueError, match=r"2000000-point cap; lengthen window or shorten the capture"):
        mandel_q(SEQ, 1e-17)
    # a width over resolution past the float range is refused, not an OverflowError
    with pytest.raises(ValueError, match=r"grid of inf points .* coarsen the resolution"):
        periodogram(SEQ, Band(1.0, 1e308), 1e-300)
