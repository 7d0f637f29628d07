"""Mixture-Gaussian shrinkage prior on network weights.

Each weight independently follows RHO * N(0, SIGMA1^2) + (1 - RHO) * N(0, SIGMA0^2)
with a narrow spike (SIGMA0) and a wide slab (SIGMA1), fixed constants of the
model family.  The gradient blends the two components' pulls by the spike's
responsibility r0, which in closed form is a logistic function of w^2:

    r0 = 1 / (1 + exp(K w^2 - L0)),  K = (1/SIGMA0^2 - 1/SIGMA1^2) / 2,
                                     L0 = log((1 - RHO) SIGMA1 / (RHO SIGMA0)),

so one exp gives it.  That exp overflows to inf for |w| > ~0.379, where the
spike's share is below e^-709; r0 = 1 / inf = 0 there is the exact slab
limit, so the overflow is harmless and is not reported.
"""

from __future__ import annotations

import numpy as np

from .engine import RESCALE

RHO = 1e-2
SIGMA1 = 1.0
SIGMA0 = 1e-2

# log odds of slab over spike at w: K w^2 - L0
_K = 0.5 * (1.0 / SIGMA0**2 - 1.0 / SIGMA1**2)
_L0 = float(np.log((1.0 - RHO) * SIGMA1 / (RHO * SIGMA0)))


def log_prior_grad(w: np.ndarray, head: tuple[slice, ...] = ()) -> np.ndarray:
    """Elementwise gradient of the log prior density of w.

    d/dw = -w * (1/SIGMA1^2 + r0 * (1/SIGMA0^2 - 1/SIGMA1^2)), with the
    spike responsibility r0 of the module docstring.  It is built in one new
    array, and w is left unchanged.  Where exp (for |w| > ~0.379) or w * w
    (for |w| > ~1e154) overflows to inf, r0 is 0 and the gradient is the
    slab's -w / SIGMA1^2, so those overflows are silenced.  r0 is never
    written as e^l / (1 + e^l), whose inf / inf would be NaN.
    head holds slices of w (sampler.head_slices) of the parameters stored
    at RESCALE times their natural units: there the mixture reads
    w / RESCALE and the gradient carries the 1 / RESCALE chain factor.
    """
    w = np.asarray(w, dtype=np.float64)
    out = np.empty(w.shape)
    with np.errstate(over="ignore"):
        np.multiply(w, w, out=out)
        for sl in head:
            natural = np.divide(w[sl], RESCALE, out=out[sl])
            natural *= natural
        out *= _K
        out -= _L0
        np.exp(out, out=out)
        out += 1.0
        # -(1/SIGMA1^2 + 2K r0), with r0 = 1 / out
        np.divide(-2.0 * _K, out, out=out)
        out -= 1.0 / SIGMA1**2
    out *= w
    for sl in head:
        out[sl] /= RESCALE
        out[sl] /= RESCALE
    return out
