"""Decode margin of the image-link operating point, over several seeds.

For every window of the image-link image and every band, the margin is the
phasor magnitude of the channel that was sent minus that of the strongest
other channel, in units of sqrt(events in the window).  A margin below zero
is a decode error.  The windows are drawn the way the harness draws them,
so the margins describe the workload's windows.

Usage, from the root of a checkout::

    python3 linkbench/margin.py --seeds 10 --rate 4.32e6
"""

from __future__ import annotations

import argparse
from pathlib import Path

import bootstrap


def band_margins(seed: int, rate: float):
    import numpy as np
    from mcfc import codec, photon_channel, spectral
    import workloads

    inp = workloads.ImageLink().build(seed, Path("."))
    margins = []
    for i, symbol in enumerate(codec.image_to_symbols(inp.pixels)):
        sent = inp.plan.frequencies_for(symbol)
        config = photon_channel.SourceConfig(
            rate, workloads.IMAGE_WINDOW, tuple(photon_channel.Tone(f) for f in sent)
        )
        seq = photon_channel.transmit(config, workloads.IMAGE_BUDGET,
                                      photon_channel.derive_rng(seed, "image", i))
        for band, f in zip(inp.plan.bands, sent):
            mags = np.abs(spectral.point_dft_many(seq, np.asarray(band.channels)))
            j = band.channels.index(f)
            margins.append((mags[j] - np.delete(mags, j).max()) / np.sqrt(len(seq)))
    return np.asarray(margins)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rate", type=float, default=None, help="default: the workload's rate")
    args = parser.parse_args()
    bootstrap.pin_threads()
    bootstrap.use_source_tree()
    import numpy as np
    import workloads

    rate = args.rate or workloads.IMAGE_RATE
    lowest = []
    for seed in range(args.seeds):
        m = band_margins(seed, rate)
        lowest.append(m.min())
        print(f"seed {seed}: {m.size} band decisions, margin median {np.median(m):.2f}, "
              f"1st percentile {np.percentile(m, 1):.2f}, minimum {m.min():.2f}")
    print(f"rate {rate:g} counts/s: lowest margin over {args.seeds} seeds {min(lowest):.2f}")


if __name__ == "__main__":
    main()
