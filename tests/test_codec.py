"""Symbol alphabets, frequency plans, image quantization, and plan/pixmap I/O."""

import itertools
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcfc.codec import (
    FAILED_PIXEL,
    IMAGE_LEVELS,
    DecodeError,
    FrequencyPlan,
    NamedBand,
    Symbol,
    UnknownSymbolError,
    decode,
    effective_channels,
    encode,
    encode_text,
    image_to_symbols,
    letter_plan,
    level_to_byte,
    load_plan,
    optimal_channels,
    quantize_level,
    read_pixmap,
    rgb_image_plan,
    save_plan,
    symbols_to_image,
    write_pixmap,
)
from mcfc.photon_channel import LinkBudget, SourceConfig, Tone, derive_rng, transmit


# -----------------------------------------------------------------
# channel counting
# -----------------------------------------------------------------

def test_optimal_channels_values_and_monotonicity():
    assert optimal_channels(1e9, 1e3) == 1_000_001
    assert optimal_channels(20e3, 1e3) == 21
    assert optimal_channels(999.0, 1e3) == 1
    for b1, b2 in ((1e4, 2e4), (1e6, 1e9)):
        assert optimal_channels(b1, 1e3) <= optimal_channels(b2, 1e3)
    with pytest.raises(ValueError):
        optimal_channels(0.0, 1e3)


def test_effective_channels_exact_binomials():
    assert effective_channels(33, 3) == 5456
    assert effective_channels(1_000_001, 3) == 166_666_666_666_500_000
    # binomial symmetry
    for m, k in ((10, 3), (26, 5), (100, 17)):
        assert effective_channels(m, k) == effective_channels(m, m - k)
    with pytest.raises(ValueError):
        effective_channels(5, 6)
    with pytest.raises(ValueError):
        effective_channels(5, 0)


# -----------------------------------------------------------------
# stock plans
# -----------------------------------------------------------------

def test_rgb_plan_structure(rgb_plan):
    assert rgb_plan.components == 3
    assert [b.name for b in rgb_plan.bands] == ["red", "green", "blue"]
    all_channels = [f for b in rgb_plan.bands for f in b.channels]
    assert len(all_channels) == 33
    assert len(set(all_channels)) == 33
    assert len(rgb_plan.symbol_map) == IMAGE_LEVELS**3
    assert rgb_plan.total_bandwidth == pytest.approx(60e3)


def test_rgb_plan_frequency_table(rgb_plan):
    # levels walk downward from the top of each band
    assert rgb_plan.frequencies_for(Symbol.gray(4, 5, 10)) == (71e3, 50e3, 25e3)
    assert rgb_plan.frequencies_for(Symbol.gray(0, 0, 0)) == (75e3, 55e3, 35e3)
    assert rgb_plan.frequencies_for(Symbol.gray(10, 10, 10)) == (65e3, 45e3, 25e3)
    assert rgb_plan.symbol_for((71e3, 50e3, 25e3)) == Symbol.gray(4, 5, 10)


def test_letter_plan_table(letters):
    assert letters.frequencies_for(Symbol.character("A")) == (50e3,)
    assert letters.frequencies_for(Symbol.character("S")) == (68e3,)
    assert letters.frequencies_for(Symbol.character("Z")) == (75e3,)
    hi = encode_text(letters, "HI")
    assert [t[0].frequency for t in hi] == [57e3, 58e3]


def test_unknown_symbols_rejected(rgb_plan, letters):
    with pytest.raises(UnknownSymbolError):
        rgb_plan.frequencies_for(Symbol.gray(11, 0, 0))
    with pytest.raises(UnknownSymbolError):
        letters.frequencies_for(Symbol.character("a"))
    with pytest.raises(DecodeError) as err:
        rgb_plan.symbol_for((75e3, 55e3, 99e3))
    assert err.value.frequencies == (75e3, 55e3, 99e3)


def test_plan_validation_rejects_bad_structures():
    band = NamedBand("one", 10e3, 12e3, (10e3, 11e3, 12e3))
    ok_map = {Symbol.index(i): (band.channels[i],) for i in range(3)}
    FrequencyPlan("ok", 1e3, (band,), ok_map)  # sanity: this one is fine

    dup = NamedBand("two", 11e3, 13e3, (11e3, 13e3))
    with pytest.raises(ValueError, match="unique"):
        FrequencyPlan("dup", 1e3, (band, dup),
                      {Symbol.index(0): (10e3, 11e3)})

    uneven = NamedBand("uneven", 10e3, 13e3, (10e3, 11e3, 13e3))
    with pytest.raises(ValueError, match="spaced"):
        FrequencyPlan("uneven", 1e3, (uneven,), {Symbol.index(0): (10e3,)})

    with pytest.raises(ValueError, match="share"):
        FrequencyPlan("collide", 1e3, (band,),
                      {Symbol.index(0): (10e3,), Symbol.index(1): (10e3,)})

    with pytest.raises(ValueError, match="not a channel"):
        FrequencyPlan("stray", 1e3, (band,), {Symbol.index(0): (10_500.0,)})


def test_plan_refuses_a_band_name_used_twice(tmp_path, rgb_plan):
    # reports count errors per band name, so a repeated name would merge two bands' counts
    a = NamedBand("x", 10e3, 12e3, (10e3, 11e3, 12e3))
    b = NamedBand("x", 20e3, 22e3, (20e3, 21e3, 22e3))
    with pytest.raises(ValueError, match=r"^band 1 repeats band 0's name 'x'; band names must be unique"):
        FrequencyPlan("twice", 1e3, (a, b), {Symbol.index(0): (10e3, 20e3)})
    path = tmp_path / "plan.json"
    save_plan(path, rgb_plan)
    doc = json.loads(path.read_text())
    doc["bands"][2]["name"] = "red"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^plan {re.escape(str(path))}: band 2 repeats band 0's name 'red'"):
        load_plan(path)


def test_plan_rejects_overpacked_bandwidth():
    # a ladder pitched finer than the declared spacing is caught directly
    band = NamedBand("tight", 10e3, 11e3, tuple(10e3 + 250.0 * i for i in range(5)))
    with pytest.raises(ValueError, match="spaced"):
        FrequencyPlan("tight", 1e3, (band,),
                      {Symbol.index(i): (band.channels[i],) for i in range(5)})
    # two narrow bands together promise more channels than their summed
    # bandwidth supports at the declared spacing (4 > floor(2k/1k)+1)
    a = NamedBand("a", 10e3, 11e3, (10e3, 11e3))
    b = NamedBand("b", 20e3, 21e3, (20e3, 21e3))
    with pytest.raises(ValueError, match="bandwidth"):
        FrequencyPlan("packed", 1e3, (a, b),
                      {Symbol.index(0): (10e3, 20e3), Symbol.index(1): (11e3, 21e3)})


# -----------------------------------------------------------------
# quantization
# -----------------------------------------------------------------

def test_quantize_level_examples():
    assert quantize_level(0) == 0
    assert quantize_level(255) == 10
    assert quantize_level(128) == 5
    assert quantize_level(12) == 0
    assert quantize_level(13) == 1
    assert np.array_equal(quantize_level(np.array([0, 128, 255])), [0, 5, 10])


def test_level_to_byte_examples():
    assert level_to_byte(0) == 0
    assert level_to_byte(10) == 255
    assert level_to_byte(5) == 128
    # quantize(level_to_byte(l)) is the identity on levels
    for level in range(IMAGE_LEVELS):
        assert quantize_level(level_to_byte(level)) == level


def test_image_symbol_round_trip():
    rng = np.random.default_rng(60)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    symbols = image_to_symbols(img)
    assert len(symbols) == 35
    back = symbols_to_image(symbols, (5, 7))
    # re-quantizing the reconstruction must reproduce the same levels
    assert symbols == image_to_symbols(back)


def test_failed_pixels_render_sentinel():
    out = symbols_to_image([Symbol.gray(0, 0, 0), None], (1, 2))
    assert tuple(out[0, 1]) == FAILED_PIXEL
    with pytest.raises(ValueError):
        symbols_to_image([None], (2, 2))


def test_image_to_symbols_shape_check():
    with pytest.raises(ValueError):
        image_to_symbols(np.zeros((4, 4), dtype=np.uint8))


# -----------------------------------------------------------------
# encode / decode
# -----------------------------------------------------------------

def test_encode_tone_sets(rgb_plan):
    sets = encode([Symbol.gray(4, 5, 10)], rgb_plan)
    assert len(sets) == 1 and len(sets[0]) == 3
    assert [t.frequency for t in sets[0]] == [71e3, 50e3, 25e3]
    assert all(t.depth == 1.0 and t.phase == 0.0 for t in sets[0])


def test_decode_round_trip_every_letter(letters):
    for i in range(26):
        sym = Symbol.character(chr(ord("A") + i))
        tones = encode([sym], letters)[0]
        seq = transmit(SourceConfig(160e3, 1e-3, tones), LinkBudget(), derive_rng(61, i))
        assert decode(seq, letters) == sym


def test_decode_rgb_pixel(rgb_plan):
    tones = encode(image_to_symbols(np.full((1, 1, 3), 200, dtype=np.uint8)), rgb_plan)[0]
    seq = transmit(SourceConfig(1.44e6, 1e-3, tones), LinkBudget(), derive_rng(62))
    assert decode(seq, rgb_plan) == Symbol.gray(8, 8, 8)


def test_decode_empty_sequence_raises(rgb_plan):
    from mcfc.photon_channel import PhotonSequence
    with pytest.raises(DecodeError):
        decode(PhotonSequence.empty(1e-3), rgb_plan)


# -----------------------------------------------------------------
# serialization
# -----------------------------------------------------------------

def test_plan_json_round_trip(tmp_path, rgb_plan):
    path = tmp_path / "plan.json"
    save_plan(path, rgb_plan)
    doc = json.loads(path.read_text())
    assert doc["format"] == "mcfc-plan-1"
    assert doc["bandwidth_hz"] == pytest.approx(60e3)
    assert doc["spacing_hz"] == 1e3
    assert doc["components"] == 3
    assert len(doc["symbols"]) == IMAGE_LEVELS**3
    back = load_plan(path)
    assert back.name == rgb_plan.name
    assert back.bands == rgb_plan.bands
    assert back.symbol_map == rgb_plan.symbol_map


@st.composite
def _uniform_plans(draw):
    """Plans of 1-3 bands, each a uniform ladder, ascending or descending, at a drawn spacing."""
    spacing = draw(st.floats(0.5, 5e3))
    bands = []
    for b in range(draw(st.integers(1, 3))):
        count = draw(st.integers(1, 6))
        low = draw(st.floats(1.0, 1e5)) + b * 1e6
        channels = low + spacing * (0.5 + np.arange(count))
        if draw(st.booleans()):
            channels = channels[::-1]
        bands.append(NamedBand(f"band{b}", low, low + spacing * count, tuple(channels)))
    symbol_map = {
        Symbol.gray(*levels): tuple(band.channels[i] for band, i in zip(bands, levels))
        for levels in itertools.product(*(range(len(band)) for band in bands))
    }
    return FrequencyPlan("drawn", spacing, tuple(bands), symbol_map)


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.just(letter_plan()), st.just(rgb_image_plan()), _uniform_plans()))
def test_plans_round_trip_through_json(plan):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        save_plan(path, plan)
        back = load_plan(path)
    assert (back.name, back.spacing, back.bands) == (plan.name, plan.spacing, plan.bands)
    assert back.symbol_map == plan.symbol_map


def test_load_plan_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "mcfc-plan-9"}))
    with pytest.raises(ValueError, match="format"):
        load_plan(path)


def test_pixmap_round_trip(tmp_path):
    rng = np.random.default_rng(63)
    img = rng.integers(0, 256, size=(9, 4, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_pixmap(path, img)
    assert np.array_equal(read_pixmap(path), img)


def test_pixmap_reader_handles_comments(tmp_path):
    payload = bytes(range(12))
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment line\n2 2\n# another\n255\n" + payload)
    img = read_pixmap(path)
    assert img.shape == (2, 2, 3)
    assert img.ravel().tolist() == list(payload)


def test_pixmap_reader_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError, match="magic"):
        read_pixmap(path)
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(ValueError, match="maxval"):
        read_pixmap(path)
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(ValueError, match="truncated"):
        read_pixmap(path)
