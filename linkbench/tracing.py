"""Spans and exact counts around the calls into each ``mcfc`` layer.

Tracing happens from outside the package: :class:`Tracer` rebinds a
layer's public functions under the names their callers imported (for
example ``mcfc.harness.transmit`` or ``mcfc.codec.point_dft_many``),
records one span per call (name, start, end, parent) plus the counts its
:class:`Target` names, and restores every binding on exit.  Spans stay in
memory until the run ends.

A span name is ``<layer>.<stage>``; the layers are the package modules.
A layer's self time is the time its spans cover minus the time their
child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

CountFn = Callable[[Counter, tuple, object], None]

#: Bytes per element of the arrays the spectral kernels read and write.
_F8, _C16 = 8, 16


@dataclass(frozen=True)
class Target:
    """One rebinding: ``module.attr`` is wrapped and its calls become ``span`` spans.

    Every span name gets ``<span>.calls``, and ``<span>.failures`` for
    calls that raise; ``count(counts, args, result)`` adds the rest.
    """

    module: str
    attr: str
    span: str
    count: CountFn | None = None


def _source(c: Counter, args: tuple, out) -> None:
    c["photon_channel.source.events_out"] += len(out)


def _loss(c: Counter, args: tuple, out) -> None:
    c["photon_channel.loss.events_dropped"] += len(args[0]) - len(out)


def _noise(c: Counter, args: tuple, out) -> None:
    c["photon_channel.noise.events_added"] += len(out) - len(args[0])


def _detector(c: Counter, args: tuple, out) -> None:
    n_in = len(args[0])
    c["photon_channel.detector.events_in"] += n_in
    c["photon_channel.detector.events_dropped"] += n_in - len(out)


def _batch(c: Counter, args: tuple, out) -> None:
    c["photon_channel.batch.events_out"] += int(out.times.size)


def _pts1_write(c: Counter, args: tuple, out) -> None:
    c["photon_channel.pts1.bytes"] += 24 + 8 * len(args[1])


def _pts1_read(c: Counter, args: tuple, out) -> None:
    c["photon_channel.pts1.bytes"] += 24 + 8 * len(out)


def _phasors(c: Counter, events: int, freqs: int, read: int, written: int) -> None:
    """Phasor terms evaluated, and bytes the kernel must at least read and write."""
    c["spectral.phasor_evals"] += events * freqs
    c["spectral.bytes_computed"] += read + written


def _point_dft_many(c: Counter, args: tuple, out) -> None:
    n, m = len(args[0]), int(out.size)
    _phasors(c, n, m, _F8 * (n + m), _C16 * m)


def _batch_amplitudes(c: Counter, args: tuple, out) -> None:
    batch = args[0]
    n = int(batch.times.size)
    trials, m = out.shape
    _phasors(c, n, m, 2 * _F8 * n + _F8 * m, _F8 * trials * m)


def _periodogram(c: Counter, args: tuple, out) -> None:
    n, m = int(out.count), int(out.frequencies.size)
    _phasors(c, n, m, _F8 * n, (_F8 + _C16) * m)


def _g2(c: Counter, args: tuple, out) -> None:
    c["analysis.g2.pairs"] += int(out.pair_counts.sum())


#: Every layer boundary the benchmark's workloads cross, keyed by the name
#: the calling module imported.
LAYER_TARGETS = (
    # photon_channel: per-sequence stages, batch sampler, PTS1 I/O
    Target("mcfc.harness", "transmit", "photon_channel.transmit"),
    Target("mcfc.cli", "transmit", "photon_channel.transmit"),
    Target("mcfc.photon_channel", "sample_modulated", "photon_channel.source", _source),
    Target("mcfc.photon_channel", "apply_loss", "photon_channel.loss", _loss),
    Target("mcfc.photon_channel", "merge_noise", "photon_channel.noise", _noise),
    Target("mcfc.photon_channel", "apply_detector", "photon_channel.detector", _detector),
    Target("mcfc.harness", "sample_event_batch", "photon_channel.batch", _batch),
    Target("mcfc.cli", "write_pts1", "photon_channel.pts1_write", _pts1_write),
    Target("mcfc.cli", "read_pts1", "photon_channel.pts1_read", _pts1_read),
    # spectral: the three call shapes of the phasor sum
    Target("mcfc.codec", "point_dft_many", "spectral.point_dft_many", _point_dft_many),
    Target("mcfc.harness", "batch_amplitudes", "spectral.batch_amplitudes", _batch_amplitudes),
    Target("mcfc.cli", "periodogram", "spectral.periodogram", _periodogram),
    Target("mcfc.harness", "floor_channels", "spectral.floor_channels"),
    # codec
    Target("mcfc.harness", "decode", "codec.decode"),
    Target("mcfc.harness", "image_to_symbols", "codec.image"),
    Target("mcfc.harness", "symbols_to_image", "codec.image"),
    # analysis
    Target("mcfc.harness", "misdecode_prob", "analysis.error_model"),
    Target("mcfc.harness", "channel_error_rate", "analysis.error_model"),
    Target("mcfc.cli", "g2", "analysis.g2", _g2),
    Target("mcfc.cli", "mandel_q", "analysis.mandel_q"),
    # entry points the workloads call
    Target("mcfc.harness", "run_image_transmission", "harness.run_image_transmission"),
    Target("mcfc.harness", "run_error_vs_components", "harness.run_error_vs_components"),
    Target("mcfc.cli", "main", "cli.main"),
)


class Tracer:
    """Records spans and counts for the calls through its targets while installed."""

    def __init__(self, targets: tuple[Target, ...]):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        name, count = target.span, target.count
        calls, failures = f"{name}.calls", f"{name}.failures"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[failures] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every target for the duration of the block, then restore."""
        saved = []
        try:
            for target in self.targets:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
                setattr(module, target.attr, self._wrap(original, target))
                saved.append((module, target.attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def span_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Busy time per span name, self time per span name, and self time per layer."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer: dict[str, float] = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        busy[name] += end - start
        own[name] += end - start - inner
        layer[name.split(".", 1)[0]] += end - start - inner
    return dict(busy), dict(own), dict(layer)
