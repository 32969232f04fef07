"""Command-line interface: round trips, exit codes, determinism, diagnostics."""

import ast
import errno
import importlib.util
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import mcfc
from mcfc import cli, harness
from mcfc.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from mcfc.codec import encode_text, letter_plan, read_pixmap, rgb_image_plan, save_plan, write_pixmap
from mcfc.harness import write_csv, write_manifest
from mcfc.photon_channel import (
    LinkBudget,
    PhotonSequence,
    SourceConfig,
    derive_rng,
    read_pts1,
    transmit,
    write_pts1,
)
from mcfc.spectral import Spectrum


def run(args, **kwargs):
    return main([str(a) for a in args], **kwargs)


# -----------------------------------------------------------------
# generate / spectrum / stats
# -----------------------------------------------------------------

def test_generate_writes_container(tmp_path, capsys):
    out = tmp_path / "s.pts1"
    code = run(["generate", "--rate", 80e3, "--duration", 1e-3,
                "--tone", "50e3", "--seed", 3, "--out", out])
    assert code == EXIT_OK
    seq = read_pts1(out)
    assert 40 < len(seq) < 140
    assert seq.window == pytest.approx(1e-3)


def test_generate_is_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.pts1", "b.pts1", "c.pts1"))
    args = ["generate", "--rate", 50e3, "--duration", 1e-3, "--tone", "60e3,0.8,1.0"]
    assert run(args + ["--seed", 5, "--out", a]) == EXIT_OK
    assert run(args + ["--seed", 5, "--out", b]) == EXIT_OK
    assert run(args + ["--seed", 6, "--out", c]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generate_zero_rate_then_spectrum_all_zero(tmp_path):
    src = tmp_path / "empty.pts1"
    assert run(["generate", "--rate", 0, "--duration", 1e-3, "--out", src]) == EXIT_OK
    assert len(read_pts1(src)) == 0
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--in", src, "--low", 10e3, "--high", 20e3,
                "--resolution", 1e3, "--out", out])
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert len(rows) == 12
    assert all(float(r.split(",")[3]) == 0.0 for r in rows[1:])


@pytest.mark.parametrize("resolution", [0, -1e3, "inf", "nan"])
def test_spectrum_refuses_a_bad_resolution(tmp_path, capsys, resolution):
    src = tmp_path / "s.pts1"
    assert run(["generate", "--rate", 1e5, "--duration", 1e-3, "--out", src]) == EXIT_OK
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--in", src, "--low", 40e3, "--high", 60e3,
                "--resolution", resolution, "--out", out]) == EXIT_DATA
    assert "resolution" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_csv_exact_bytes(tmp_path, capsys):
    # numpy scalars are written as plain floats, with the csv module's CRLF line ends
    src = tmp_path / "s.pts1"
    write_pts1(src, PhotonSequence.from_seconds([0.0], 1e-3))
    spectrum = Spectrum(np.array([1000.0, 1500.5]), np.array([3 - 4j, -6 + 8j]), 1e-3, 1)
    out = tmp_path / "spec.csv"
    with mock.patch.object(cli, "periodogram", return_value=spectrum):
        assert run(["spectrum", "--in", src, "--low", 1e3, "--high", 2e3,
                    "--resolution", 500.5, "--out", out]) == EXIT_OK
    assert out.read_bytes() == (b"frequency_hz,re,im,abs\r\n"
                                b"1000.0,3.0,-4.0,5.0\r\n"
                                b"1500.5,-6.0,8.0,10.0\r\n")


def test_spectrum_finds_tone(tmp_path, capsys):
    src = tmp_path / "s.pts1"
    run(["generate", "--rate", 200e3, "--duration", 1e-3, "--tone", "50e3",
         "--seed", 7, "--out", src])
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--in", src, "--low", 40e3, "--high", 60e3,
                "--resolution", 1e3, "--out", out]) == EXIT_OK
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    freqs = [float(r[0]) for r in rows]
    mags = [float(r[3]) for r in rows]
    assert freqs[int(np.argmax(mags))] == pytest.approx(50e3)


def test_stats_reports_diagnostics(tmp_path, capsys):
    src = tmp_path / "s.pts1"
    run(["generate", "--rate", 100e3, "--duration", 0.5, "--seed", 8, "--out", src])
    capsys.readouterr()
    code = run(["stats", "--in", src, "--mandel-window", 1e-3,
                "--g2-max-lag", 1e-4, "--g2-bin", 5e-6])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "events:" in text and "mandel_q" in text and "g2:" in text


def test_stats_refuses_a_g2_lag_past_the_pair_bound(tmp_path, capsys):
    # ~60k events over 1 s, all within a 1 s lag: ~60k passes over them, ~30 s of counting
    src = tmp_path / "s.pts1"
    run(["generate", "--rate", 60e3, "--duration", 1, "--seed", 8, "--out", src])
    capsys.readouterr()
    out = tmp_path / "g2.csv"
    assert run(["stats", "--in", src, "--g2-max-lag", 1, "--g2-bin", 1e-3, "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "--g2-max-lag 1" in err and "step bound; shorten max_lag" in err, err
    assert not out.exists()


def test_stats_g2_csv(tmp_path):
    src = tmp_path / "s.pts1"
    run(["generate", "--rate", 100e3, "--duration", 0.5, "--seed", 8, "--out", src])
    out = tmp_path / "g2.csv"
    assert run(["stats", "--in", src, "--g2-max-lag", 1e-4, "--g2-bin", 5e-6,
                "--out", out]) == EXIT_OK
    text = out.read_bytes().decode()
    assert "np." not in text
    lines = text.split("\r\n")
    assert lines[0] == "lag_s,g2,pairs" and lines[-1] == ""
    assert len(lines) == 22
    lag, value, pairs = lines[1].split(",")
    assert float(lag) == pytest.approx(2.5e-6) and int(pairs) > 0


@pytest.mark.parametrize("flags, name", [
    (["--g2-max-lag", "inf", "--g2-bin", 5e-6], "max_lag"),
    (["--g2-max-lag", "nan", "--g2-bin", 5e-6], "max_lag"),
    (["--g2-max-lag", 1e-4, "--g2-bin", "nan"], "bin_width"),
    (["--g2-max-lag", 1e-4, "--g2-bin", "inf"], "bin_width"),
    (["--mandel-window", "nan"], "window"),
    (["--mandel-window", "inf"], "window"),
    (["--g2-max-lag", 1e-6, "--g2-bin", 5e-6], "max_lag"),  # below one bin
])
def test_stats_refuses_non_finite_parameters_by_name(tmp_path, capsys, flags, name):
    src = tmp_path / "s.pts1"
    run(["generate", "--rate", 100e3, "--duration", 0.2, "--seed", 8, "--out", src])
    capsys.readouterr()
    out = tmp_path / "g2.csv"
    assert run(["stats", "--in", src, *flags, "--out", out]) == EXIT_DATA
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, names", [
    (["spectrum", "--low", 1e3, "--high", "inf", "--resolution", 1], ["high must be finite"]),
    (["spectrum", "--low", "nan", "--high", 2e3, "--resolution", 1], ["low must be finite"]),
    (["spectrum", "--low", 2e3, "--high", 1e3, "--resolution", 1], ["high must be finite"]),
    (["spectrum", "--low", 1, "--high", 1e308, "--resolution", 1e-300], ["cap", "resolution"]),
    # 1e15 lag bins or Mandel windows: refused by the grid cap, not by a MemoryError
    (["stats", "--g2-max-lag", 1, "--g2-bin", 1e-15], ["cap", "bin_width", "max_lag"]),
    (["stats", "--mandel-window", 1e-15], ["cap", "window", "capture"]),
])
def test_spectrum_and_stats_refuse_bad_inputs_by_name(tmp_path, capsys, command, names):
    src = tmp_path / "s.pts1"
    run(["generate", "--rate", 1e4, "--duration", 1, "--seed", 8, "--out", src])
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert run(command + ["--in", src, "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.pts1"]


# -----------------------------------------------------------------
# encode / decode / transmit
# -----------------------------------------------------------------

def test_encode_decode_file_round_trip(tmp_path, capsys):
    outdir = tmp_path / "syms"
    assert run(["encode", "HI", "--plan", "letters", "--rate", 160e3,
                "--seed", 9, "--out-dir", outdir]) == EXIT_OK
    files = sorted(outdir.glob("symbol_*.pts1"))
    assert len(files) == 2
    capsys.readouterr()
    assert run(["decode", "--plan", "letters", *files]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "HI"


def test_encode_draws_window_i_from_the_encode_substream(tmp_path, capsys):
    outdir = tmp_path / "syms"
    assert run(["encode", "QED", "--rate", 90e3, "--window", 2e-3, "--seed", 31,
                "--out-dir", outdir]) == EXIT_OK
    for i, tones in enumerate(encode_text(letter_plan(), "QED")):
        expected = tmp_path / f"expected_{i}.pts1"
        write_pts1(expected, transmit(SourceConfig(90e3, 2e-3, tones), LinkBudget(),
                                      derive_rng(31, "encode", i)))
        assert (outdir / f"symbol_{i:04d}.pts1").read_bytes() == expected.read_bytes()


def test_transmit_text_round_trip(capsys):
    assert run(["transmit-text", "HELLO", "--plan", "letters", "--rate", 160e3,
                "--seed", 10]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "HELLO"


def test_transmit_image_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8)
    src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
    write_pixmap(src, img)
    code = run(["transmit-image", "--in", src, "--out", dst, "--rate", 1.44e6,
                "--seed", 12])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "0/4 pixel errors" in text
    assert "0 undecodable" in text
    received = read_pixmap(dst)
    assert received.shape == img.shape


# -----------------------------------------------------------------
# sweep and capacity
# -----------------------------------------------------------------

def test_sweep_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": "error-vs-noise", "grid": [0.0, 80e3], "trials": 200, "seed": 13,
    }))
    outdir = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out-dir", outdir]) == EXIT_OK
    csv_path = outdir / "error-vs-noise.csv"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert csv_path.exists()
    assert manifest["outputs"] == ["error-vs-noise.csv"]
    assert len(manifest["config_sha256"]) == 64
    assert len(csv_path.read_text().splitlines()) == 3


def test_amplitude_sweep_writes_sweep_columns(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": "amplitude", "grid": [80e3], "trials": 200, "seed": 14, "components": [1, 2],
    }))
    assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "out"]) == EXIT_OK
    rows = (tmp_path / "out" / "amplitude.csv").read_text().splitlines()
    assert rows[0].startswith("parameter,value,components,trials,")
    assert len(rows) == 3


def test_sweep_rejects_unknown_kind(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": "nope", "grid": [1.0]}))
    assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "x"]) == EXIT_DATA


@pytest.mark.parametrize("budget", [{"dead_time": 1e-8}, {"rep_period": 1e-9}])
def test_sweep_runs_with_a_detector_budget(tmp_path, capsys, budget):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": "error-vs-noise", "grid": [0], "trials": 10, "budget": budget,
    }))
    assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "x"]) == EXIT_OK
    assert len((tmp_path / "x" / "error-vs-noise.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("config, key", [
    ({"trails": 20}, "trails"),
    ({"budget": {"dead_tme": 1e-8}}, "dead_tme"),
    ({"trials": "20"}, "trials"),
    ({"grid": 5}, "grid"),
    ({"trials": 20.5}, "trials"),
    ({"components": [1, "2"]}, "components"),
    ({"budget": {"rep_period": "1e-9"}}, "rep_period"),
    ({"budget": [1e-8]}, "budget"),
    ({"grid": None}, "grid"),
    ({"grid": ...}, "grid"),  # ... drops the key
    ({"spacing": 0}, "spacing"),
    ({"spacing": -1e3}, "spacing"),
    ({"window": float("nan")}, "window"),
    ({"modulation_frequency": 0}, "modulation_frequency"),
    ({"mean_count": float("inf")}, "mean_count"),
    ({"signal_rate": -1.0}, "signal_rate"),
    ({"signal_rate": float("nan")}, "signal_rate"),
    ({"components": [0]}, "components"),
    ({"components": [1, -2]}, "components"),
    ({"grid": [-1e3]}, "grid"),
    ({"grid": [float("inf")]}, "grid"),
    ({"sweep": "error-vs-spacing", "grid": [float("nan")]}, "grid"),
    ({"sweep": "error-vs-spacing", "grid": [1e3, 0]}, "grid"),  # two identical channels
    ({"sweep": "error-vs-integration-time", "grid": [0]}, "grid"),
    ({"sweep": "error-vs-components", "grid": [float("nan")]}, "grid"),
    ({"sweep": "amplitude", "grid": [-8e4]}, "grid"),
    ({"components": [1.5]}, "components"),
    ({"seed": -3}, "seed"),
    # a key the sweep does not read, its grid's included
    ({"sweep": "error-vs-spacing", "grid": [1e3], "spacing": 2e3}, "spacing"),
    ({"sweep": "error-vs-integration-time", "grid": [1e-3], "window": 2e-3}, "window"),
    ({"sweep": "error-vs-components", "grid": [8e4], "modulation_frequency": 1e5}, "modulation_frequency"),
    ({"sweep": "error-vs-components", "grid": [8e4], "mean_count": 40.0}, "mean_count"),
    ({"sweep": "error-vs-components", "grid": [8e4], "signal_rate": 4e4}, "signal_rate"),
    ({"components": [2]}, "components"),
    ({"budget": {"noise_rate": 1e3}}, "budget.noise_rate"),
    ({"window": 3e-13, "budget": {"dead_time": 1e-12}}, "window"),  # below the 1 ps tick
    # a channel at or below 0 Hz holds |X(0)| = count and wins every trial
    ({"modulation_frequency": 3000.0}, "modulation_frequency"),  # channels -2 ... 8 kHz
    ({"modulation_frequency": 5000.0}, "modulation_frequency"),  # a channel at 0 Hz
    ({"channels_per_band": 401}, "channels_per_band"),  # 200 kHz less 200 channels of 1 kHz
    ({"sweep": "error-vs-components", "grid": [200e3], "spacing": 6000.0}, "spacing"),  # band 0 from 0 Hz
    ({"sweep": "error-vs-spacing", "grid": [1e3], "modulation_frequency": 400.0}, "modulation_frequency"),
    # with two tones or more, bands 20 kHz apart must not share channels
    ({"sweep": "error-vs-components", "grid": [2e5], "spacing": 2000.0, "components": [1, 2]}, "spacing"),
    ({"sweep": "amplitude", "grid": [2e5], "channels_per_band": 21, "components": [3]}, "channels_per_band"),
    ({"trials": 10**400}, "trials"),  # a whole number past the float range
])
def test_sweep_config_errors_name_the_key_and_exit_2(tmp_path, capsys, config, key):
    doc = {"sweep": "error-vs-noise", "grid": [0], "trials": 10} | config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in doc.items() if v is not ...}))
    assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "x"]) == EXIT_DATA
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_capacity_output(capsys):
    assert run(["capacity", "--bandwidth", 1e9, "--spacing", 1e3,
                "--window", 1e-3, "--k", 3]) == EXIT_OK
    text = capsys.readouterr().out
    assert "symbols: 166666666666500000" in text
    assert "raw: 57209.7" in text


# -----------------------------------------------------------------
# exit codes and hygiene
# -----------------------------------------------------------------

def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(["generate", "--rate", 1e3]) == EXIT_USAGE          # missing --out
    assert run(["no-such-command"]) == EXIT_USAGE
    assert run(["capacity", "--bandwidth", 1e9, "--spacing", 1e3,
                "--window", 1e-3, "--k", 0]) == EXIT_USAGE
    # capacity flags go through the library's checks, which name the field
    for bandwidth, spacing, window, k, error, field in [
        (1e9, 1e3, "nan", 3, 0, "window"), (1e9, 1e3, "inf", 3, 0, "window"),
        ("nan", 1e3, 1e-3, 3, 0, "bandwidth"), ("inf", 1e3, 1e-3, 3, 0, "bandwidth"),
        (1e9, "nan", 1e-3, 3, 0, "spacing"), (1e9, "inf", 1e-3, 3, 0, "spacing"),
        (1e300, 1e-300, 1e-3, 3, 0, "bandwidth / spacing"),
        (1e9, 1e3, 1e-3, 3, "nan", "symbol_error"), (1e3, 1e3, 1e-3, 5, 0, "k must be finite and in [1, 2], got 5"),
    ]:
        assert run(["capacity", "--bandwidth", bandwidth, "--spacing", spacing, "--window", window,
                    "--k", k, "--error", error]) == EXIT_USAGE
        assert field in capsys.readouterr().err
    assert run(["generate", "--rate", -5, "--duration", 1e-3,
                "--out", tmp_path / "x.pts1"]) == EXIT_USAGE
    assert run(["generate", "--rate", 1e3, "--duration", 1e-3, "--tone", "bogus",
                "--out", tmp_path / "x.pts1"]) == EXIT_USAGE
    assert run(["generate", "--rate", 1e6, "--duration", 1e-3, "--rep-period", 2e-13,
                "--out", tmp_path / "x.pts1"]) == EXIT_USAGE
    assert "rep_period" in capsys.readouterr().err
    # nan and inf are refused by name, not dropped or left to numpy's messages
    for rate, duration, field in [("nan", 1e-3, "mean_rate"), ("inf", 1e-3, "mean_rate"),
                                  (1e3, "nan", "duration"), (1e3, "inf", "duration")]:
        assert run(["generate", "--rate", rate, "--duration", duration,
                    "--out", tmp_path / "x.pts1"]) == EXIT_USAGE
        assert field in capsys.readouterr().err
    for tone, field in [("1e3,1,nan", "phase"), ("1e3,1,inf", "phase"), ("1e3,1.5", "depth"),
                        ("1e3,-0.1", "depth"), ("0", "frequency"), ("nan", "frequency")]:
        assert run(["generate", "--rate", 1e4, "--duration", 1e-2, "--tone", tone,
                    "--out", tmp_path / "x.pts1"]) == EXIT_USAGE
        assert f"{field} must be finite" in capsys.readouterr().err
    # FREQ[,DEPTH[,PHASE]]: a fourth field or one that is not a number is refused, naming the flag
    for tone in ["5e3,1,0,7", "abc", "5e3,,0", "5e3,1,0,"]:
        assert run(["generate", "--rate", 1e4, "--duration", 1e-2, "--tone", tone,
                    "--out", tmp_path / "x.pts1"]) == EXIT_USAGE
        assert f"--tone must be FREQ[,DEPTH[,PHASE]], up to three numbers, got {tone!r}" in (
            capsys.readouterr().err)
    for flag, field in [("--noise-rate", "noise_rate"), ("--dark-rate", "dark_rate"),
                        ("--jitter", "jitter_sigma")]:
        assert run(["generate", "--rate", 1e3, "--duration", 1e-3, flag, "nan",
                    "--out", tmp_path / "x.pts1"]) == EXIT_USAGE
        assert field in capsys.readouterr().err
    assert not (tmp_path / "x.pts1").exists()


@pytest.mark.parametrize("command", [
    ["generate", "--rate", 1e6, "--duration", 1e-3, "--out", "x.pts1"],
    ["transmit-text", "A"],
    ["transmit-image", "--in", "in.ppm", "--out", "out.ppm"],
    ["encode", "--out-dir", "e", "A"],  # takes no budget flags: a clean link
])
def test_bad_budget_flag_exits_1_on_every_subcommand(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    write_pixmap(tmp_path / "in.ppm", np.zeros((1, 1, 3), dtype=np.uint8))
    window = "--duration" if command[0] == "generate" else "--window"
    rows = [("--rate", -5, "mean_rate"), ("--rate", "nan", "mean_rate"), (window, 0, "duration"),
            (window, 1e-13, "duration")]  # below the 1 ps tick of the timestamps
    if command[0] != "encode":
        rows += [("--rep-period", 2e-13, "rep_period"), ("--noise-rate", "nan", "noise_rate"),
                 ("--dark-rate", "nan", "dark_rate"), ("--jitter", "nan", "jitter_sigma"),
                 ("--dead-time", "inf", "dead_time")]
    for flag, value, field in rows:
        assert run(command + [flag, value]) == EXIT_USAGE
        assert field in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ppm"]


def test_a_file_that_cannot_be_read_or_written_exits_2(tmp_path, capsys):
    # every OSError is data: a file where a directory belongs, or the other way round
    blocker = tmp_path / "F"
    blocker.write_text("keep")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sweep": "error-vs-noise", "grid": [0], "trials": 10}))
    for command in (["encode", "--out-dir", blocker, "A"],
                    ["sweep", "--config", cfg, "--out-dir", blocker],
                    ["generate", "--rate", 1e3, "--duration", 1e-3, "--out", blocker / "x.pts1"],
                    ["spectrum", "--in", blocker / "x", "--low", 1e3, "--high", 2e3, "--resolution", 1e3,
                     "--out", tmp_path / "s.csv"]):
        assert run(command) == EXIT_DATA, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err, err
    assert blocker.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "c.json"]


def test_unknown_symbol_is_data_and_writes_nothing(tmp_path, capsys):
    assert run(["encode", "--out-dir", tmp_path / "e", "AB1"]) == EXIT_DATA
    assert "not in plan" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()
    assert run(["transmit-text", "a"]) == EXIT_DATA


def test_data_errors_exit_2(tmp_path, capsys):
    assert run(["decode", "--plan", "letters", tmp_path / "missing.pts1"]) == EXIT_DATA
    bad = tmp_path / "bad.pts1"
    bad.write_bytes(b"JUNKJUNK" + bytes(24))
    assert run(["decode", "--plan", "letters", bad]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "offset 0" in err
    empty = tmp_path / "empty.pts1"
    write_pts1(empty, PhotonSequence.from_seconds([], 1e-3))
    assert run(["decode", "--plan", "letters", empty]) == EXIT_DATA
    assert "no events to decode" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    for text, says in [(b'{"sweep": "error-vs-noise",', "line 1"), (b'{"sweep": "\xff"}', "utf-8")]:
        cfg.write_bytes(text)
        assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "out"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg}: ") and says in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("breakage, named", [
    (lambda doc: {k: v for k, v in doc.items() if k != "bands"}, "is missing the key 'bands'"),
    (lambda doc: [doc], "must be a JSON object"),
    (lambda doc: {**doc, "symbols": [{k: v for k, v in s.items() if k != "frequencies_hz"}
                                     for s in doc["symbols"]]},
     "symbol 0 is missing the key 'frequencies_hz'"),
    (lambda doc: {**doc, "symbols": [{**s, "kind": "bogus"} for s in doc["symbols"]]},
     "symbol 0 key 'kind' must be one of"),
    (lambda doc: {**doc, "symbols": [doc["symbols"][0], {**doc["symbols"][1], "value": "A"},
                                     *doc["symbols"][2:]]},
     "symbol 1 key 'value' repeats symbol 0, 'A'"),
    (lambda doc: {**doc, "symbols": [{**doc["symbols"][0], "kind": "gray-level", "value": [0.5, 1, 2]},
                                     *doc["symbols"][1:]]},
     "symbol 0 key 'value' must be an array of whole numbers, got [0.5, 1, 2]"),
], ids=["no-bands", "a-list", "no-frequencies", "unknown-kind", "repeated-symbol", "fractional-level"])
def test_malformed_plan_files_exit_2(tmp_path, capsys, breakage, named):
    plan = tmp_path / "plan.json"
    save_plan(plan, letter_plan())
    args = ["transmit-text", "--plan", plan, "--rate", 160e3, "--seed", 10, "A"]
    assert run(args) == EXIT_OK
    plan.write_text(json.dumps(breakage(json.loads(plan.read_text()))))
    capsys.readouterr()
    assert run(args) == EXIT_DATA
    assert f"error: plan {plan} {named}" in capsys.readouterr().err


@pytest.mark.parametrize("text, says", [(b'{"format": "mcfc-plan-1", "bands"', "line 1"),
                                         (b'{"format": "mcfc-plan-1", "name": "\xe9"}', "utf-8")],
                         ids=["truncated", "not-utf-8"])
def test_plan_files_that_do_not_parse_exit_2(tmp_path, capsys, text, says):
    plan = tmp_path / "plan.json"
    plan.write_bytes(text)
    assert run(["transmit-text", "--plan", plan, "A"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: plan {plan}: ") and says in err


def test_plan_file_with_a_band_name_used_twice_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    save_plan(plan, rgb_image_plan())
    doc = json.loads(plan.read_text())
    doc["bands"][1]["name"] = "red"
    plan.write_text(json.dumps(doc))
    img, out = tmp_path / "in.ppm", tmp_path / "out.ppm"
    write_pixmap(img, np.zeros((2, 2, 3), dtype=np.uint8))
    assert run(["transmit-image", "--in", img, "--out", out, "--plan", plan]) == EXIT_DATA
    assert f"error: plan {plan}: band 1 repeats band 0's name 'red'" in capsys.readouterr().err
    assert not out.exists()


def test_insufficient_data_exits_2(tmp_path, capsys):
    short = tmp_path / "short.pts1"
    assert run(["generate", "--rate", 80e3, "--duration", 1e-2, "--out", short]) == EXIT_OK
    # 10 windows of 1 ms, Mandel Q needs 100
    assert run(["stats", "--in", short, "--mandel-window", 1e-3]) == EXIT_DATA
    assert "need at least 100" in capsys.readouterr().err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweep": "error-vs-noise", "grid": [0.0], "trials": 50, "signal_rate": 0.0,
    }))
    assert run(["sweep", "--config", cfg, "--out-dir", tmp_path / "out"]) == EXIT_DATA
    assert "noise_rate_cps = 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "error-vs-noise.csv").exists()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert run(["generate", "--help"]) == EXIT_OK


def test_seed_env_variable(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a.pts1", tmp_path / "b.pts1"
    args = ["generate", "--rate", 50e3, "--duration", 1e-3]
    monkeypatch.setenv("MCFC_SEED", "21")
    assert run(args + ["--out", a]) == EXIT_OK
    monkeypatch.setenv("MCFC_SEED", "22")
    assert run(args + ["--out", b]) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()
    # explicit flag wins over the environment
    c = tmp_path / "c.pts1"
    assert run(args + ["--seed", 21, "--out", c]) == EXIT_OK
    assert c.read_bytes() == a.read_bytes()
    # a malformed value is a usage error of --seed, and only where --seed is taken
    monkeypatch.setenv("MCFC_SEED", "abc")
    d = tmp_path / "d.pts1"
    for command in (args + ["--out", d], ["transmit-text", "A"], ["encode", "--out-dir", d, "A"]):
        assert run(command) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
    assert not d.exists()
    assert run(args + ["--seed", 21, "--out", d]) == EXIT_OK
    assert run(["capacity", "--bandwidth", 1e6, "--spacing", 1e3, "--window", 1e-3, "--k", 2]) == EXIT_OK
    # so is a negative one, from the flag or the environment: numpy takes no negative seed
    e = tmp_path / "e.pts1"
    assert run(args + ["--seed", -1, "--out", e]) == EXIT_USAGE
    assert "--seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    monkeypatch.setenv("MCFC_SEED", "-1")
    for command in (args + ["--out", e], ["transmit-text", "A"]):
        assert run(command) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
    assert not e.exists()


def test_no_stray_temp_files(tmp_path):
    out = tmp_path / "s.pts1"
    run(["generate", "--rate", 50e3, "--duration", 1e-3, "--out", out])
    leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
    assert leftovers == []


class _DiskFull:
    """A file open for writing that takes its first write and fails the next, as a full disk does."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


_WRITERS = {
    "write_pts1": lambda path: write_pts1(path, PhotonSequence.from_seconds([1e-4, 2e-4], 1e-3)),
    "write_pixmap": lambda path: write_pixmap(path, np.zeros((2, 2, 3), dtype=np.uint8)),
    "save_plan": lambda path: save_plan(path, letter_plan()),
    "write_csv": lambda path: write_csv(path, ("a",), [(3,), (4,)]),
    "write_manifest": lambda path: write_manifest(path, {"seed": 1}, ["a.csv"]),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_write_that_fails_midway_keeps_the_old_file(tmp_path, writer):
    path = tmp_path / "result"
    path.write_bytes(b"a\r\n1\r\n2\r\n")
    real_open = open

    def disk_full_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _DiskFull(fh) if set(mode) & set("wax+") else fh

    with mock.patch("builtins.open", disk_full_open), pytest.raises(OSError, match="No space left"):
        _WRITERS[writer](path)
    assert path.read_bytes() == b"a\r\n1\r\n2\r\n"
    assert list(tmp_path.iterdir()) == [path]
    _WRITERS[writer](path)  # and the write itself succeeds, through the same path
    assert path.read_bytes() != b"a\r\n1\r\n2\r\n" and list(tmp_path.iterdir()) == [path]


def test_write_csv_keeps_the_old_file_when_its_rows_fail(tmp_path):
    def rows():
        yield (3,)
        raise RuntimeError("the row source failed")

    path = tmp_path / "a.csv"
    write_csv(path, ("a",), [(1,), (2,)])
    with pytest.raises(RuntimeError, match="row source"):
        write_csv(path, ("a",), rows())
    assert path.read_bytes() == b"a\r\n1\r\n2\r\n"
    assert list(tmp_path.iterdir()) == [path]


def test_module_entry_point(tmp_path):
    # Run the very package under test, installed or not: its source root
    # goes on PYTHONPATH, and an empty cwd cannot supply another copy.
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(mcfc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "mcfc", "--help"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is for the tests and the benchmark
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(mcfc.__file__)))
    probe = ("import sys, mcfc, mcfc.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # linkbench's tracer rebinds these names from outside the package; a
    # refactor that drops one leaves `linkbench/run.py --trace 1` crashing
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "linkbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("linkbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_TARGETS
    for target in tracing.LAYER_TARGETS:
        assert callable(getattr(importlib.import_module(target.module), target.attr, None)), target


def _opens_for_writing(tree):
    """Lines of the ``open`` calls under ``tree`` whose mode writes, appends or creates, or is not a constant."""
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "open":
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
                yield call.lineno


def test_only_the_atomic_writer_opens_files_for_writing():
    # a writer that opened its target itself would truncate it, and a failure
    # midway would leave a partial file: photon_channel.atomic_write is the one way
    package = os.path.dirname(os.path.abspath(mcfc.__file__))
    found, trees = [], {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                trees[name] = ast.parse(fh.read())
            found += [f"{name}:{line}" for line in _opens_for_writing(trees[name])]
    assert len(found) == 1, found
    helper = next(node for node in ast.walk(trees["photon_channel.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "atomic_write")
    assert found == [f"photon_channel.py:{line}" for line in _opens_for_writing(helper)]


def test_only_units_derives_generators_in_the_harness():
    # every sweep point and link window draws through harness._units, so its body alone decides how
    # independent units run: a name bound to derive_rng outside it would draw past it
    with open(harness.__file__) as fh:
        tree = ast.parse(fh.read())
    units = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_units")
    uses = {node for node in ast.walk(tree)
            if "derive_rng" in (getattr(node, "id", None), getattr(node, "attr", None))}
    assert uses and uses <= set(ast.walk(units)), sorted(node.lineno for node in uses)


def test_only_the_json_helpers_load_and_dump_json():
    # one reader names the file a document fails to parse in, one writer keeps one layout:
    # codec.read_json and codec.write_json; json.dumps, for messages and digests, is free
    package = os.path.dirname(os.path.abspath(mcfc.__file__))
    found, allowed = set(), set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            found |= {f"{name}:{line}" for line in _json_loads_and_dumps(tree)}
            allowed |= {f"{name}:{line}" for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                        and node.name in ("read_json", "write_json") for line in _json_loads_and_dumps(node)}
    assert len(allowed) == 2 and found == allowed, sorted(found)


def _json_loads_and_dumps(tree):
    """Lines under ``tree`` that name ``json.load`` or ``json.dump``, or import either from ``json``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "dump")
                and getattr(node.value, "id", None) == "json"):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and node.module == "json" and {
                alias.name for alias in node.names} & {"load", "dump", "*"}:
            yield node.lineno


def test_benchmark_probe_targets_resolve():
    # image-link counts windows by `decode`, mc-sweep points by `sample_event_batch`;
    # a probe whose name is gone stops the run with a BindingError
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "linkbench", "workloads.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())  # parsed only: importing it would need the benchmark's path
    probes = {(call.args[0].value, call.args[1].value) for call in ast.walk(tree)
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Target"}
    assert {("mcfc.harness", "decode"), ("mcfc.harness", "sample_event_batch")} <= probes
    for module, attr in probes:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
