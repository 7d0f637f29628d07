"""Mixture-Gaussian shrinkage prior on network weights.

Each weight independently follows RHO * N(0, SIGMA1^2) + (1 - RHO) * N(0, SIGMA0^2)
with a narrow spike (SIGMA0) and a wide slab (SIGMA1), fixed constants of the
model family.  Densities are combined in log space; the naive density ratio
overflows already around |w| ~ 0.06 because of the spike's 1/SIGMA0^2 exponent.
"""

from __future__ import annotations

import numpy as np

RHO = 1e-2
SIGMA1 = 1.0
SIGMA0 = 1e-2

_LOG_2PI = float(np.log(2.0 * np.pi))


def _log_components(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # log of each weighted component density, elementwise
    a1 = np.log(RHO) - 0.5 * _LOG_2PI - np.log(SIGMA1) - 0.5 * (w / SIGMA1) ** 2
    a0 = np.log1p(-RHO) - 0.5 * _LOG_2PI - np.log(SIGMA0) - 0.5 * (w / SIGMA0) ** 2
    return a1, a0


def log_prior_grad(w: np.ndarray, scale=None) -> np.ndarray:
    """Elementwise gradient of the log prior density of w.

    Uses component responsibilities r_c = exp(a_c - logsumexp) so the spike
    and slab pulls are blended without forming overflowing ratios:
    d/dw = -w * (r1 / SIGMA1^2 + r0 / SIGMA0^2).
    scale, if given, holds per-element positive factors for parameters that
    are stored as scaled copies of their natural units: the mixture reads
    w / scale and the gradient carries the 1 / scale chain factor.
    """
    w = np.asarray(w, dtype=np.float64)
    inv = 1.0
    if scale is not None:
        s = np.broadcast_to(np.asarray(scale, dtype=np.float64), w.shape)
        if not np.all(s > 0):
            raise ValueError("scale entries must be positive")
        w = w / s
        inv = 1.0 / s
    a1, a0 = _log_components(w)
    lse = np.logaddexp(a1, a0)
    r1 = np.exp(a1 - lse)
    r0 = np.exp(a0 - lse)
    return -w * (r1 / SIGMA1**2 + r0 / SIGMA0**2) * inv
