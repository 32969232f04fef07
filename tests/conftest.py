import math

import numpy as np
import pytest
from hypothesis import settings

from mcfc import spectral
from mcfc.codec import letter_plan, rgb_image_plan

# Property tests draw the same examples on every run (seeded from each test's
# source), so a pass or a failure repeats instead of depending on the draw.
# `pytest --hypothesis-profile=default` restores random exploration.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def rgb_plan():
    return rgb_image_plan()


@pytest.fixture(scope="session")
def letters():
    return letter_plan()


# ---------------------------------------------------------------------------
# the one reference for the phasor kernel
# ---------------------------------------------------------------------------

#: ``fl(2*pi)``, the constant of the reference phase ``P*f*t``.
P = 2.0 * np.pi
U = 2.0 ** -53

#: The constants ``a`` and ``b`` of the bound stated by ``spectral.phasor_sums``
#: and derived in ``spectral._ladder_sums``, from the module's own constants.
BOUND_A = 6 + 2 * spectral._LADDER_ULPS * (spectral.ANCHOR - 1)
BOUND_B = 2 * (2 ** spectral.LATTICE_BITS - 1) + math.sqrt(5) * (2 ** spectral.LATTICE_BITS - 2) + 38

#: The reference's own error per event, in units of ``U``: in each part an
#: ulp of ``cos`` or ``sin``, the rounding of the first-order tail and the
#: share of the sum's one rounding, ``3*U``; ``3*sqrt(2)*U`` in modulus.
_REFERENCE_ULPS = 5


def _two_product(a, b):
    """``(p, e)`` with ``p = fl(a*b)`` and ``p + e = a*b`` exactly (Dekker 1971), elementwise."""
    def halves(x):  # Veltkamp split: x = hi + lo, each of at most 26 bits
        y = x * (2.0 ** 27 + 1.0)
        hi = y - (y - x)
        return hi, x - hi

    (a_hi, a_lo), (b_hi, b_lo) = halves(a), halves(b)
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def exact_sums(times, frequencies):
    """``sum(exp(-i*P*f*t_i))`` over float64 times at each float64 frequency, within
    ``_REFERENCE_ULPS * U`` per event of the exact sum, shape (len(frequencies),).

    The phase ``P*f*t`` is carried unrounded as ``hi + lo`` (two-products of
    ``f*t`` and of ``P`` by its high part), each phasor is
    ``exp(-i*hi) * (1 - i*lo)``, correct to ``lo**2 / 2`` (below ``1e-20`` for
    phases up to ``1e6`` rad), and each part is summed exactly by ``fsum``.
    """
    t = np.asarray(times, dtype=np.float64)
    out = []
    for f in np.asarray(frequencies, dtype=np.float64).reshape(-1):
        ft, ft_lo = _two_product(f, t)
        hi, lo = _two_product(P, ft)
        lo = lo + P * ft_lo
        cos, sin = np.cos(hi), np.sin(hi)
        out.append(complex(math.fsum(cos - lo * sin), -math.fsum(sin + lo * cos)))
    return np.array(out, dtype=np.complex128).reshape(-1)


def _phases(times, frequencies):
    """``phi_i = P*max|f|*|t_i|``, each event's largest phase."""
    top_f = float(np.abs(np.asarray(frequencies, dtype=np.float64)).max(initial=0.0))
    return P * top_f * np.abs(np.asarray(times, dtype=np.float64))


def kernel_bound(times, frequencies, nufft=False):
    """The bound of ``spectral.phasor_sums`` on one trial's values at ``frequencies``,
    plus the reference's own error: ``a*U*sum(phi_i) + b*N*U``, and
    ``N * _NUFFT_EPS`` on the NUFFT path."""
    phi = _phases(times, frequencies)
    bound = BOUND_A * U * math.fsum(phi) + (BOUND_B + _REFERENCE_ULPS) * phi.size * U
    return bound + (phi.size * spectral._NUFFT_EPS if nufft else 0.0)


def rounding_walk(times, frequencies):
    """``U * sqrt(sum(phi_i**2))``, the typical size of the kernel's error."""
    phi = _phases(times, frequencies)
    return U * math.sqrt(math.fsum(phi * phi))
