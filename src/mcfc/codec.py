"""Mapping between symbols and sets of modulation frequencies.

A frequency plan divides the usable modulation band into named sub-bands,
each holding a ladder of equally spaced channels, and carries an explicit
bijection between symbols and tone sets (one active channel per band).
The decoder picks, per band, the channel with the strongest phasor-sum
magnitude and maps the recovered frequency set back through the bijection.

Two ready-made plans cover the common cases:

* :func:`rgb_image_plan` — three bands (one per color component) of 11
  channels each, so a pixel quantized to 11 intensity levels per component
  is one symbol carrying three concurrent tones.
* :func:`letter_plan` — a single band of 26 channels, one per uppercase
  letter, i.e. classic one-tone-per-symbol signalling.

Plans serialize to a JSON document that spells out every symbol's
frequencies, so transmit and receive ends can share them as files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .photon_channel import POSITIVE, PhotonSequence, Tone, atomic_write, check_count, check_range, interval
from .spectral import band_argmax, point_dft_many

#: Color written into a reconstructed image where decoding failed outright.
FAILED_PIXEL = (255, 0, 255)

#: Number of quantization levels per color component in the image plan.
IMAGE_LEVELS = 11

#: Channel spacing of the stock plans, in Hz.
STOCK_SPACING = 1000.0

_KINDS = ("gray-level", "character", "raw-index")


class UnknownSymbolError(ValueError):
    """Raised when asked to encode a symbol outside the plan's alphabet."""


class DecodeError(ValueError):
    """Raised when a window cannot be decoded; carries the recovered frequencies."""

    def __init__(self, message: str, frequencies: tuple[float, ...] = ()):
        super().__init__(message)
        self.frequencies = frequencies


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol:
    """One alphabet element: an intensity-level tuple, a character, or an index."""

    kind: str
    value: tuple[int, ...] | str | int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "gray-level":
            object.__setattr__(self, "value", tuple(int(v) for v in self.value))

    @classmethod
    def gray(cls, *levels: int) -> "Symbol":
        return cls("gray-level", tuple(levels))

    @classmethod
    def character(cls, ch: str) -> "Symbol":
        return cls("character", ch)

    @classmethod
    def index(cls, i: int) -> "Symbol":
        return cls("raw-index", int(i))


# ---------------------------------------------------------------------------
# channel counting
# ---------------------------------------------------------------------------

def optimal_channels(bandwidth: float, spacing: float) -> int:
    """Distinct channels a bandwidth supports at a given spacing (fencepost count)."""
    check_range(POSITIVE, bandwidth=bandwidth, spacing=spacing)
    check_range(POSITIVE, **{"bandwidth / spacing": bandwidth / spacing})  # not inf
    return math.floor(bandwidth / spacing) + 1


def effective_channels(m_opt: int, k: int) -> int:
    """Distinct k-subsets of m_opt channels, exact arbitrary-precision count."""
    check_count(interval(1, math.inf, "[)"), m_opt=m_opt)
    check_count(interval(1, m_opt, "[]"), k=k)
    return math.comb(m_opt, k)


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedBand:
    """A named sub-band with its channel ladder.

    ``channels`` are ordered by symbol index: channel ``i`` is the
    frequency transmitted for index ``i`` in this band.
    """

    name: str
    low: float
    high: float
    channels: tuple[float, ...]

    def __post_init__(self) -> None:
        check_range(POSITIVE, **{f"band {self.name!r} low": self.low})
        check_range(interval(self.low, math.inf), **{f"band {self.name!r} high": self.high})
        if not self.channels:
            raise ValueError(f"band {self.name!r} has no channels")
        edges = interval(self.low, self.high, "[]")
        for f in self.channels:
            check_range(edges, **{f"band {self.name!r} channel": f})
        object.__setattr__(self, "channels", tuple(float(f) for f in self.channels))

    def __len__(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class FrequencyPlan:
    """Bands plus an explicit symbol <-> tone-set bijection.

    ``symbol_map`` assigns every symbol a tuple of channel frequencies, one
    per band in band order.  Construction validates that the map is a
    bijection, that every frequency belongs to the owning band's ladder,
    that ladders are uniformly spaced, and that the plan does not promise
    more channels than its bandwidth supports.
    """

    name: str
    spacing: float
    bands: tuple[NamedBand, ...]
    symbol_map: Mapping[Symbol, tuple[float, ...]] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.bands:
            raise ValueError("plan needs at least one band")
        check_range(POSITIVE, spacing=self.spacing)
        object.__setattr__(self, "bands", tuple(self.bands))
        object.__setattr__(self, "symbol_map", dict(self.symbol_map))

        names = [band.name for band in self.bands]
        for b, name in enumerate(names):  # reports key their band counts by name
            if name in names[:b]:
                raise ValueError(f"band {b} repeats band {names.index(name)}'s name {name!r}; "
                                 "band names must be unique across the plan")
        all_channels = [f for band in self.bands for f in band.channels]
        if len(set(all_channels)) != len(all_channels):
            raise ValueError("channel frequencies must be unique across the plan")
        for band in self.bands:
            ladder = np.sort(np.asarray(band.channels))
            if ladder.size > 1 and not np.allclose(np.diff(ladder), self.spacing, rtol=0, atol=1e-6):
                raise ValueError(f"band {band.name!r}: channels not spaced by {self.spacing} Hz")
        if len(all_channels) > optimal_channels(self.total_bandwidth, self.spacing):
            raise ValueError("more channels than the plan bandwidth supports")

        seen: dict[tuple[float, ...], Symbol] = {}
        for sym, freqs in self.symbol_map.items():
            if len(freqs) != len(self.bands):
                raise ValueError(f"symbol {sym} maps to {len(freqs)} tones, plan has "
                                 f"{len(self.bands)} bands")
            for band, f in zip(self.bands, freqs):
                if f not in band.channels:
                    raise ValueError(f"symbol {sym}: {f} Hz is not a channel of band "
                                     f"{band.name!r}")
            key = tuple(freqs)
            if key in seen:
                raise ValueError(f"symbols {seen[key]} and {sym} share tone set {key}")
            seen[key] = sym
        object.__setattr__(self, "_inverse", seen)

    @property
    def components(self) -> int:
        """Tones transmitted per symbol (= number of bands)."""
        return len(self.bands)

    @property
    def total_bandwidth(self) -> float:
        return float(sum(b.high - b.low for b in self.bands))

    def frequencies_for(self, symbol: Symbol) -> tuple[float, ...]:
        try:
            return self.symbol_map[symbol]
        except KeyError:
            raise UnknownSymbolError(
                f"symbol {symbol} is not in plan {self.name!r}"
            ) from None

    def symbol_for(self, frequencies: Sequence[float]) -> Symbol:
        key = tuple(float(f) for f in frequencies)
        inverse: dict[tuple[float, ...], Symbol] = getattr(self, "_inverse")
        if key not in inverse:
            raise DecodeError(f"frequency set {key} matches no symbol of plan "
                              f"{self.name!r}", key)
        return inverse[key]


# ---------------------------------------------------------------------------
# stock plans
# ---------------------------------------------------------------------------

def rgb_image_plan() -> FrequencyPlan:
    """Three 11-channel bands for image pixels, one band per color component.

    Level 0 of each component sits near the top of its band and deeper
    levels step downward by one channel spacing.  The alphabet is every
    (red, green, blue) level triple.
    """
    def ladder(top: float) -> tuple[float, ...]:
        return tuple(top - i * STOCK_SPACING for i in range(IMAGE_LEVELS))

    bands = (
        NamedBand("red", 60_000.0, 80_000.0, ladder(75_000.0)),
        NamedBand("green", 40_000.0, 60_000.0, ladder(55_000.0)),
        NamedBand("blue", 20_000.0, 40_000.0, ladder(35_000.0)),
    )
    symbol_map = {
        Symbol.gray(r, g, b): (bands[0].channels[r], bands[1].channels[g], bands[2].channels[b])
        for r, g, b in itertools.product(range(IMAGE_LEVELS), repeat=3)
    }
    return FrequencyPlan("rgb-image", STOCK_SPACING, bands, symbol_map)


def letter_plan() -> FrequencyPlan:
    """One 26-channel band mapping A..Z onto an ascending frequency ladder."""
    channels = tuple(50_000.0 + i * STOCK_SPACING for i in range(26))
    band = NamedBand("letters", 50_000.0, 75_000.0, channels)
    symbol_map = {
        Symbol.character(chr(ord("A") + i)): (channels[i],) for i in range(26)
    }
    return FrequencyPlan("letters", STOCK_SPACING, (band,), symbol_map)


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def encode(symbols: Iterable[Symbol], plan: FrequencyPlan) -> list[tuple[Tone, ...]]:
    """Map symbols to tone sets (full depth, zero phase), one set per window."""
    return [tuple(Tone(f) for f in plan.frequencies_for(sym)) for sym in symbols]


def encode_text(plan: FrequencyPlan, text: str) -> list[tuple[Tone, ...]]:
    """Shortcut for character alphabets."""
    return encode((Symbol.character(ch) for ch in text), plan)


def decode(seq: PhotonSequence, plan: FrequencyPlan) -> Symbol:
    """Decode one window: strongest channel per band, then inverse lookup.

    Ties inside a band resolve to the lowest-index channel.  An empty
    window carries no information and raises :class:`DecodeError`.
    """
    if len(seq) == 0:
        raise DecodeError("empty sequence: no events to decode")
    channels = [band.channels for band in plan.bands]
    mags = np.abs(point_dft_many(seq, np.concatenate(channels)))
    picks = band_argmax(mags, [len(c) for c in channels])
    return plan.symbol_for([c[i] for c, i in zip(channels, picks)])


# ---------------------------------------------------------------------------
# image quantization
# ---------------------------------------------------------------------------

def quantize_level(byte_value: int | np.ndarray) -> int | np.ndarray:
    """Quantize an 8-bit component to the plan's level grid (0..10)."""
    scaled = np.round(np.asarray(byte_value, dtype=np.float64) * (IMAGE_LEVELS - 1) / 255.0)
    out = scaled.astype(np.int64)
    return int(out) if out.ndim == 0 else out


def level_to_byte(level: int | np.ndarray) -> int | np.ndarray:
    """Inverse of :func:`quantize_level` onto the 8-bit grid."""
    scaled = np.round(np.asarray(level, dtype=np.float64) * 255.0 / (IMAGE_LEVELS - 1))
    out = scaled.astype(np.uint8)
    return int(out) if out.ndim == 0 else out


def image_to_symbols(pixels: np.ndarray) -> list[Symbol]:
    """Quantize an (h, w, 3) uint8 image to level-triple symbols, row-major."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got shape {arr.shape}")
    levels = quantize_level(arr.reshape(-1, 3))
    return [Symbol.gray(*row) for row in levels.tolist()]


def symbols_to_image(symbols: Sequence[Symbol | None], shape: tuple[int, int]) -> np.ndarray:
    """Rebuild an (h, w, 3) uint8 image from decoded level-triple symbols.

    ``None`` entries mark windows that failed to decode; those pixels
    render as :data:`FAILED_PIXEL`.
    """
    h, w = shape
    if len(symbols) != h * w:
        raise ValueError(f"{len(symbols)} symbols cannot fill a {h}x{w} image")
    failed = np.array([sym is None for sym in symbols], dtype=bool).reshape(h, w, 1)
    levels = np.array([(0, 0, 0) if sym is None else sym.value for sym in symbols]).reshape(h, w, 3)
    return np.where(failed, np.array(FAILED_PIXEL, dtype=np.uint8), level_to_byte(levels))


# ---------------------------------------------------------------------------
# portable pixmap (P6) I/O
# ---------------------------------------------------------------------------

def read_pixmap(path: str | os.PathLike) -> np.ndarray:
    """Read a binary P6 pixmap with maxval 255 into an (h, w, 3) uint8 array."""
    with open(path, "rb") as fh:
        blob = fh.read()

    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(blob):
            if blob[pos:pos + 1].isspace():
                pos += 1
            elif blob[pos:pos + 1] == b"#":
                while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        return blob[start:pos]

    magic = next_token()
    if magic != b"P6":
        raise ValueError(f"not a binary pixmap: magic {magic!r}")
    fields = []
    for _ in range(3):
        token = next_token()
        if not token.isdigit():
            raise ValueError(f"malformed pixmap header near byte {pos}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    need = width * height * 3
    data = blob[pos:pos + need]
    if len(data) < need:
        raise ValueError(f"pixmap payload truncated: need {need} bytes, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3).copy()


def write_pixmap(path: str | os.PathLike, pixels: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as a binary P6 pixmap."""
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got shape {arr.shape}")
    h, w = arr.shape[:2]
    with atomic_write(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


# ---------------------------------------------------------------------------
# JSON files: one key check, one reader and one writer for plans, sweep
# configs and manifests; plan serialization
# ---------------------------------------------------------------------------

#: The JSON kinds a plan file's or a sweep config's keys hold, by the name its messages give them.
_JSON_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a number or null": lambda v: v is None or _JSON_KINDS["a number"](v),
    "an object": lambda v: isinstance(v, dict),
    "an array": lambda v: isinstance(v, list),
    "an array of numbers": lambda v: isinstance(v, list) and all(_JSON_KINDS["a number"](x) for x in v),
    "an array of whole numbers":
        lambda v: _JSON_KINDS["an array of numbers"](v) and all(isinstance(x, int) or x.is_integer() for x in v),
}


def json_key(doc, key: str, kind: str, where: str):
    """``doc[key]``, refused by a ``ValueError`` naming ``where`` and the key when
    ``doc`` is not a JSON object, or the key is missing or not of ``kind``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {json.dumps(doc)[:80]}")
    if key not in doc:
        raise ValueError(f"{where} is missing the key {key!r}")
    if not _JSON_KINDS[kind](doc[key]):
        raise ValueError(f"{where} key {key!r} must be {kind}, got {json.dumps(doc[key])[:80]}")
    return doc[key]


def read_json(path: str | os.PathLike, where: str):
    """The JSON document in the file ``path``; one that does not parse, or is not
    UTF-8, is refused by a ``ValueError`` that begins with ``where``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{where}: {exc}") from None


def write_json(path: str | os.PathLike, doc) -> None:
    """Write ``doc`` as JSON indented by 2, with a final newline, through :func:`atomic_write`."""
    with atomic_write(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _symbol_to_json(sym: Symbol) -> dict:
    value = list(sym.value) if isinstance(sym.value, tuple) else sym.value
    return {"kind": sym.kind, "value": value}


def _symbol_from_json(doc, where: str) -> Symbol:
    kind = json_key(doc, "kind", "a string", where)
    if kind not in _KINDS:
        raise ValueError(f"{where} key 'kind' must be one of {_KINDS}, got {kind!r}")
    if kind == "gray-level":
        return Symbol(kind, tuple(int(v) for v in json_key(doc, "value", "an array of whole numbers", where)))
    return Symbol(kind, json_key(doc, "value", "a string" if kind == "character" else "a number", where))


def save_plan(path: str | os.PathLike, plan: FrequencyPlan) -> None:
    """Write a plan as JSON with the full symbol -> frequencies table."""
    doc = {
        "format": "mcfc-plan-1",
        "name": plan.name,
        "bandwidth_hz": plan.total_bandwidth,
        "spacing_hz": plan.spacing,
        "components": plan.components,
        "bands": [
            {"name": b.name, "low_hz": b.low, "high_hz": b.high, "channels_hz": list(b.channels)}
            for b in plan.bands
        ],
        "symbols": [
            {**_symbol_to_json(sym), "frequencies_hz": list(freqs)}
            for sym, freqs in plan.symbol_map.items()
        ],
    }
    write_json(path, doc)


def load_plan(path: str | os.PathLike) -> FrequencyPlan:
    """The plan saved by :func:`save_plan`; a malformed file is a ``ValueError``
    naming the file and the missing or mistyped key."""
    where = f"plan {os.fspath(path)}"
    doc = read_json(path, where)
    tag = json_key(doc, "format", "a string", where)
    if tag != "mcfc-plan-1":
        raise ValueError(f"{where}: unrecognized plan format tag {tag!r}")
    bands = []
    for i, b in enumerate(json_key(doc, "bands", "an array", where)):
        at = f"{where} band {i}"
        low, high = (float(json_key(b, key, "a number", at)) for key in ("low_hz", "high_hz"))
        channels = tuple(float(f) for f in json_key(b, "channels_hz", "an array of numbers", at))
        bands.append(NamedBand(json_key(b, "name", "a string", at), low, high, channels))
    symbol_map = {}
    for i, s in enumerate(json_key(doc, "symbols", "an array", where)):
        at = f"{where} symbol {i}"
        freqs = json_key(s, "frequencies_hz", "an array of numbers", at)
        sym = _symbol_from_json(s, at)
        if sym in symbol_map:  # a dict would keep the last entry and drop the first's channels unsaid
            raise ValueError(f"{at} key 'value' repeats symbol {list(symbol_map).index(sym)}, {sym.value!r}")
        symbol_map[sym] = tuple(float(f) for f in freqs)
    spacing = float(json_key(doc, "spacing_hz", "a number", where))
    name = json_key(doc, "name", "a string", where)
    try:
        return FrequencyPlan(name, spacing, tuple(bands), symbol_map)
    except ValueError as exc:  # a rule of the plan as a whole: name the file too
        raise ValueError(f"{where}: {exc}") from None
