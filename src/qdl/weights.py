"""Smooth compactly supported weights with certified normalizations.

The only concrete family used is the standard mollifier
exp(-1/((t - lo)(hi - t))) on (lo, hi), rescaled to one of three
normalizations:

* radial-normalized:     int_{R^2} w(|x|) dx = 1   (the omega_1 of the 2D
                         delta expansion)
* even-halfline:         w even, supported on (lo,hi) u (-hi,-lo),
                         int_{x>0} w = 1, so the full-line integral is 2
                         (the omega_2; the 1D expansion needs hat w(0) = 2)
* plain:                 unscaled (coordinate bumps for the phi weights)

Normalization integrals are computed by adaptive Gauss-Kronrod quadrature
(scipy, imported by the branches that integrate so that importing this
module does not load it), and make_bump refuses a weight whose reported relative error exceeds
NORMALIZATION_TOL.  A smoothness witness (max |f^(j)| for j <= 3 on a grid)
is computed on demand for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORMALIZATION_TOL = 1e-12  # relative error of a normalization integral


def _raw_bump(t: float, lo: float, hi: float) -> float:
    # the standard mollifier with width-normalized exponent
    # exp(-(hi-lo)^2/((t-lo)(hi-t))); without the normalization a narrow
    # support degenerates into a numerically useless needle
    if t <= lo or t >= hi:
        return 0.0
    u = (t - lo) / (hi - lo)
    return math.exp(-1.0 / (u * (1.0 - u)))


@dataclass(frozen=True)
class BumpWeight:
    lo: float
    hi: float
    kind: str
    scale: float
    norm_error: float

    def __call__(self, t: float) -> float:
        if self.kind == "even-halfline-normalized":
            t = abs(t)
        if t <= self.lo or t >= self.hi:
            return 0.0
        return self.scale * _raw_bump(t, self.lo, self.hi)

    def eval_rows(self, x: np.ndarray) -> np.ndarray:
        """Vectorized __call__ on a 1-D array, without the even extension."""
        u = (x - self.lo) / (self.hi - self.lo)
        inside = (u > 0) & (u < 1)
        out = np.zeros(len(x))
        uu = np.clip(u, 1e-12, 1 - 1e-12)
        out[inside] = np.exp(-1.0 / (uu[inside] * (1 - uu[inside]))) * self.scale
        return out


def make_bump(lo: float, hi: float, kind: str = "plain") -> BumpWeight:
    """Build the mollifier on (lo, hi), scaled per the requested kind."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    if kind in ("radial-normalized", "even-halfline-normalized") and lo <= 0:
        raise ValueError(f"{kind} requires support away from 0 (lo > 0)")
    raw = lambda t: _raw_bump(t, lo, hi)
    if kind == "radial-normalized":
        from scipy.integrate import quad

        # int_{R^2} w(|x|) dx = 2*pi*int r w(r) dr = 1
        val, err = quad(lambda r: r * raw(r), lo, hi, epsabs=0, epsrel=1e-13, limit=200)
        scale = 1.0 / (2 * math.pi * val)
        norm_err = err / val
    elif kind == "even-halfline-normalized":
        from scipy.integrate import quad

        val, err = quad(raw, lo, hi, epsabs=0, epsrel=1e-13, limit=200)
        scale = 1.0 / val
        norm_err = err / val
    elif kind == "plain":
        # peak-normalized so sup = 1 (keeps |phi| <= indicator bounds and the
        # magnitudes of weighted counts near the raw point counts)
        scale, norm_err = math.exp(4.0), 0.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if norm_err > NORMALIZATION_TOL:
        raise ValueError(f"{kind} normalization on ({lo}, {hi}) is only certified to "
                         f"{norm_err:.2g} > {NORMALIZATION_TOL:g}")
    return BumpWeight(lo, hi, kind, scale, norm_err)


def smoothness_witness(bump: BumpWeight, npts: int = 400) -> dict:
    """max |f^(j)| for j <= 3 on a grid, by central differences."""
    lo, hi, scale = bump.lo, bump.hi, bump.scale
    raw = lambda t: _raw_bump(t, lo, hi)
    h = (hi - lo) / (npts * 8)
    out = {}
    for j in range(4):
        m = 0.0
        for i in range(1, npts):
            t = lo + (hi - lo) * i / npts
            if j == 0:
                v = raw(t)
            elif j == 1:
                v = (raw(t + h) - raw(t - h)) / (2 * h)
            elif j == 2:
                v = (raw(t + h) - 2 * raw(t) + raw(t - h)) / h ** 2
            else:
                v = (raw(t + 2 * h) - 2 * raw(t + h) + 2 * raw(t - h) - raw(t - 2 * h)) / (2 * h ** 3)
            m = max(m, abs(v) * scale)
        out[j] = m
    return out
