"""Command-line interface.

One executable, nine subcommands:

    generate        sample a photon stream to a PTS1 file
    spectrum        scan a PTS1 file over a band, write a CSV spectrum
    encode          write one PTS1 window per symbol of a message
    decode          decode PTS1 windows back to symbols
    transmit-text   end-to-end channel simulation of a text message
    transmit-image  end-to-end channel simulation of a P6 image
    sweep           run a Monte-Carlo sweep from a JSON config
    capacity        print channel-counting and throughput figures
    stats           print photon-statistics diagnostics of a PTS1 file

Conventions: rates in counts/second, times in seconds, frequencies in Hz;
numeric flags accept scientific notation.  ``--seed`` falls back to the
MCFC_SEED environment variable, then to 0.  Exit codes: 0 success, 1 usage
error, 2 data/format error, a file that cannot be read or written, or too
little data for a statistic, 3 internal error.  Every writer replaces its
file atomically (``photon_channel.atomic_write``): a failed run leaves the
old file, never a partial one; a symlink or special file at the path is
replaced, and the new file takes the umask's mode.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import typing

import numpy as np

from . import __version__
from .analysis import capacity, g2, mandel_q
from .codec import (
    FrequencyPlan,
    decode,
    encode_text,
    json_key,
    letter_plan,
    load_plan,
    read_json,
    read_pixmap,
    rgb_image_plan,
    write_pixmap,
)
from .harness import (
    SWEEPS,
    SweepSpec,
    decode_windows,
    run_image_transmission,
    transmit_windows,
    write_csv,
    write_manifest,
    write_sweep_csv,
)
from .photon_channel import (
    LinkBudget,
    SourceConfig,
    Tone,
    derive_rng,
    read_pts1,
    transmit,
    write_pts1,
)
from .spectral import Band, periodogram

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    """Flag values that argparse cannot reject on its own."""


@contextlib.contextmanager
def _built_from_flags():
    """Inputs built from flags, before any file or directory is touched: a ValueError is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; this tool reserves 2 for
    data errors, so usage problems are remapped to exit 1."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds its generators from non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _window_flags(parser: argparse.ArgumentParser, plan: str, rate: float) -> None:
    parser.add_argument("--plan", default=plan)
    parser.add_argument("--rate", type=float, default=rate)
    parser.add_argument("--window", type=float, default=1e-3)
    parser.add_argument("--seed", type=_seed, default=os.environ.get("MCFC_SEED", "0"))


def _budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--transmittance", type=float, default=1.0)
    parser.add_argument("--noise-rate", type=float, default=0.0, help="background counts/s")
    parser.add_argument("--dark-rate", type=float, default=0.0, help="detector dark counts/s")
    parser.add_argument("--jitter", dest="jitter_sigma", type=float, default=0.0,
                        help="timing jitter sigma, s")
    parser.add_argument("--dead-time", type=float, default=0.0, help="detector dead time, s")
    parser.add_argument("--rep-period", type=float, default=None,
                        help="gated-detector clock period, s (gating off when omitted)")


def _budget_from(args: argparse.Namespace) -> LinkBudget:
    """The budget flags' link budget; a command without them gets a clean link."""
    return LinkBudget(**{f.name: getattr(args, f.name)
                         for f in dataclasses.fields(LinkBudget) if hasattr(args, f.name)})


def _plan_from(name: str) -> FrequencyPlan:
    if name == "rgb":
        return rgb_image_plan()
    if name == "letters":
        return letter_plan()
    if os.path.exists(name):
        return load_plan(name)
    raise _UsageError(f"--plan must be 'rgb', 'letters', or a plan file; got {name!r}")


def _parse_tone(text: str) -> Tone:
    """Parse FREQ[,DEPTH[,PHASE]]; ``Tone`` checks the numbers' ranges."""
    fields = text.split(",")
    try:
        if len(fields) > 3:
            raise ValueError
        values = [float(f) for f in fields]
    except ValueError:
        raise ValueError(f"--tone must be FREQ[,DEPTH[,PHASE]], up to three numbers, got {text!r}") from None
    return Tone(**dict(zip(("frequency", "depth", "phase"), values)))


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    with _built_from_flags():
        config = SourceConfig(args.rate, args.duration, tuple(_parse_tone(t) for t in args.tone or []))
        budget = _budget_from(args)
    seq = transmit(config, budget, derive_rng(args.seed, "generate"))
    write_pts1(args.out, seq)
    print(f"wrote {args.out}: {len(seq)} events over {seq.window:g} s")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    seq = read_pts1(args.input)
    spec = periodogram(seq, Band(args.low, args.high), args.resolution)
    magnitude = spec.magnitude  # one rounding of |X| for the abs column and the peak
    columns = (spec.frequencies, spec.values.real, spec.values.imag, magnitude)
    write_csv(args.out, ("frequency_hz", "re", "im", "abs"), zip(*(column.tolist() for column in columns)))
    peak = int(np.argmax(magnitude)) if len(seq) else 0
    print(f"wrote {args.out}: {spec.frequencies.size} points, "
          f"peak {magnitude[peak]:.3f} at {spec.frequencies[peak]:g} Hz")
    return EXIT_OK


def _text_windows(args, label: str):
    """The plan and the windows that send ``args.text``, one symbol each.

    The text is encoded first, so an unknown symbol fails (exit 2) before
    anything is written; the link flags are then checked before any window.
    """
    plan = _plan_from(args.plan)
    tone_sets = encode_text(plan, args.text)
    with _built_from_flags():
        windows = transmit_windows(tone_sets, args.rate, args.window, _budget_from(args), args.seed, label)
    return plan, windows


def _cmd_encode(args) -> int:
    _, windows = _text_windows(args, "encode")
    os.makedirs(args.out_dir, exist_ok=True)
    paths = []
    for i, seq in enumerate(windows):
        path = os.path.join(args.out_dir, f"symbol_{i:04d}.pts1")
        write_pts1(path, seq)
        paths.append(path)
    print(f"wrote {len(paths)} windows to {args.out_dir}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    plan = _plan_from(args.plan)
    out = []
    for path in args.inputs:
        sym = decode(read_pts1(path), plan)
        out.append(sym.value if isinstance(sym.value, str) else repr(sym.value))
    print("".join(out))
    return EXIT_OK


def _cmd_transmit_text(args) -> int:
    plan, windows = _text_windows(args, "transmit-text")
    print("".join("?" if sym is None else str(sym.value) for sym in decode_windows(windows, plan)))
    return EXIT_OK


def _cmd_transmit_image(args) -> int:
    with _built_from_flags():
        budget = _budget_from(args)
        SourceConfig(args.rate, args.window)  # the link's source, as run_image_transmission builds it
    pixels = read_pixmap(args.input)
    plan = _plan_from(args.plan)
    received, report = run_image_transmission(pixels, plan, args.rate, budget, args.seed, args.window)
    write_pixmap(args.out, received)
    print(f"wrote {args.out}: {report.pixel_errors}/{report.pixels} pixel errors "
          f"({report.pixel_error_rate:.4f}), {report.failed_pixels} undecodable")
    for name, count in report.band_errors.items():
        print(f"  band {name}: {count} symbol errors")
    return EXIT_OK


def _from_config(cls, doc: dict, where: str):
    """The dataclass ``cls`` built from the JSON object ``doc``, nested objects for dataclass fields.

    A key that is not a field of ``cls``, a missing required field and a value
    of the wrong JSON kind (from the field's annotation) are refused by a
    ``ValueError`` naming the key; ``cls`` refuses what is out of range or not whole.
    """
    hints = typing.get_type_hints(cls)
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    kwargs = {}
    for key in [*doc, *(name for name in required if name not in doc)]:
        if key not in hints:
            raise ValueError(f"unknown key {key!r} in {where}; expected one of {sorted(hints)}")
        hint = hints[key]
        kind = ("an object" if dataclasses.is_dataclass(hint) else
                "an array of numbers" if typing.get_origin(hint) is tuple else
                "a number or null" if type(None) in typing.get_args(hint) else "a number")
        value = json_key(doc, key, kind, where)  # a missing required key is refused here
        kwargs[key] = _from_config(hint, value, f"{where} {key!r}") if kind == "an object" else value
    return cls(**kwargs)


def _cmd_sweep(args) -> int:
    doc = read_json(args.config, f"config {args.config}")
    kind = doc.get("sweep") if isinstance(doc, dict) else None
    if kind not in SWEEPS:
        raise ValueError(f"config 'sweep' must be one of {sorted(SWEEPS)}, got {kind!r}")
    spec = _from_config(SweepSpec, {k: v for k, v in doc.items() if k != "sweep"}, "config")
    run_sweep, unread = SWEEPS[kind]
    for key in [*doc, *(f"budget.{k}" for k in doc.get("budget", ()))]:
        if key in unread:  # a key the sweep ignores would stand in the manifest as if it were used
            raise ValueError(f"config key {key!r} is not read by the {kind!r} sweep")
    points = run_sweep(spec)

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, f"{kind}.csv")
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    write_sweep_csv(csv_path, points)
    write_manifest(manifest_path, doc, [os.path.basename(csv_path)])
    print(f"wrote {csv_path} ({len(points)} points) and {manifest_path}")
    return EXIT_OK


def _cmd_capacity(args) -> int:
    with _built_from_flags():
        report = capacity(args.bandwidth, args.spacing, args.window, args.k, args.error)
    print(f"channels: {report.m_opt}")
    print(f"symbols: {report.m_max}")
    print(f"raw: {report.raw_bps:.6g} bps")
    print(f"effective: {report.effective_bps:.6g} bps")
    print(f"confusion probability: {report.p_e:.6g}")
    print(f"entropy discount: {report.entropy_term:.6g} bits")
    return EXIT_OK


def _cmd_stats(args) -> int:
    seq = read_pts1(args.input)
    print(f"events: {len(seq)}")
    print(f"window: {seq.window:g} s")
    print(f"mean rate: {len(seq) / seq.window:.6g} counts/s")  # a window is at least 1 ps
    if args.mandel_window is not None:
        q = mandel_q(seq, args.mandel_window)
        print(f"mandel_q({args.mandel_window:g} s windows): {q:.6g}")
    if args.g2_max_lag is not None:
        if args.g2_bin is None:
            raise _UsageError("--g2-max-lag requires --g2-bin")
        try:
            curve = g2(seq, args.g2_max_lag, args.g2_bin)
        except ValueError as exc:  # g2 names max_lag and bin_width; say which flags they are
            flags = f"--g2-max-lag {args.g2_max_lag:g}, --g2-bin {args.g2_bin:g}"
            raise ValueError(f"{flags}: {exc}") from None
        print(f"g2: {curve.lags.size} bins, min {curve.values.min():.4f}, "
              f"max {curve.values.max():.4f}, mean {curve.values.mean():.4f}")
        if args.out:
            write_csv(args.out, ("lag_s", "g2", "pairs"), zip(curve.lags, curve.values, curve.pair_counts))
            print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcfc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"mcfc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="sample a photon stream to a PTS1 file")
    p.add_argument("--rate", type=float, required=True, help="mean detected counts/s")
    p.add_argument("--tone", action="append", metavar="FREQ[,DEPTH[,PHASE]]",
                   help="modulation tone; repeatable")
    p.add_argument("--duration", type=float, required=True, help="window length, s")
    # a string default goes through the type: a bad MCFC_SEED is a usage error of --seed
    p.add_argument("--seed", type=_seed, default=os.environ.get("MCFC_SEED", "0"))
    p.add_argument("--out", required=True)
    _budget_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("spectrum", help="scan a PTS1 file over a band")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--low", type=float, required=True, help="band low edge, Hz")
    p.add_argument("--high", type=float, required=True, help="band high edge, Hz")
    p.add_argument("--resolution", type=float, required=True, help="grid step, Hz")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("encode", help="write one clean PTS1 window per symbol")
    _window_flags(p, "letters", 160_000.0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("text")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode PTS1 windows to symbols")
    p.add_argument("--plan", default="letters")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("transmit-text", help="end-to-end text transmission")
    _window_flags(p, "letters", 80_000.0)
    _budget_flags(p)
    p.add_argument("text")
    p.set_defaults(func=_cmd_transmit_text)

    p = sub.add_parser("transmit-image", help="end-to-end image transmission")
    p.add_argument("--in", dest="input", required=True, help="P6 pixmap")
    p.add_argument("--out", required=True, help="received P6 pixmap")
    _window_flags(p, "rgb", 80_000.0)
    _budget_flags(p)
    p.set_defaults(func=_cmd_transmit_image)

    p = sub.add_parser("sweep", help="run a Monte-Carlo sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("capacity", help="channel counting and throughput")
    p.add_argument("--bandwidth", type=float, required=True)
    p.add_argument("--spacing", type=float, required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--k", type=int, required=True, help="tones per symbol")
    p.add_argument("--error", type=float, default=0.0, help="residual symbol error")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("stats", help="photon-statistics diagnostics")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mandel-window", type=float, default=None)
    p.add_argument("--g2-max-lag", type=float, default=None)
    p.add_argument("--g2-bin", type=float, default=None)
    p.add_argument("--out", default=None, help="optional g2 CSV path")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help/--version, 1 for usage
        return int(exc.code or 0)

    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # OSError: any file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
