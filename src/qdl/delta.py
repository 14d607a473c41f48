"""Finite smooth expansions of the delta symbol, and Poisson summation over K.

delta1d: 1{n = 0} = (1/Q) sum_q (w(q/Q) - w(n/(qQ))) [q | n] + O(Q^-A)
         for w even, w(0) = 0, int_{x>0} w = 1 (so hat w(0) = 2).

delta2d: the two dimensional expansion: for |n1|, |n2| < X, 1 << D << sqrt(X),

  1{n = 0} = 1/D^2 sum_{d >= 1} sum_{c primitive} w1(|c|d/D) * d/sqrt(DX)
             * sum_{q >= 1} (w2(dq/sqrt(DX)) - w2(det(c,n)/(q sqrt(DX))))
               [dq | det(c, n)] [d | n]
             - 2/D^2 sum_q w1(|n|/(qD)) [q | n] + O(D^-A).

All sums here are finite because the weights are compactly supported; the
evaluators enumerate exactly the terms the supports allow.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import gcd

from .residues import divisors
from .weights import BumpWeight


def q_sum(m: int, d: int, Q: float, omega: BumpWeight) -> float:
    """sum over q >= 1 of (w(dq/Q) - w(m/(qQ))) [dq | m].

    With d = 1 it is the 1D expansion times Q; with Q = sqrt(DX) and
    m = det(c, n) it is the inner q-sum of the 2D expansion.
    """
    total = 0.0
    if m == 0:
        # [dq | 0] always; only the first weight survives (w(0) = 0)
        for q in range(max(1, math.floor(omega.lo * Q / d)), math.ceil(omega.hi * Q / d) + 1):
            total += omega(d * q / Q)
    elif m % d == 0:
        for q in divisors(m // d):
            total += omega(d * q / Q) - omega(m / (q * Q))
    return total


def delta1d(n: int, Q: float, omega: BumpWeight) -> float:
    """Evaluate the 1D delta expansion at integer n."""
    if Q < 1:
        raise ValueError("Q >= 1 required")
    return q_sum(n, 1, Q, omega) / Q


def primitive_vectors(radius: float) -> list[tuple[int, int]]:
    R = math.ceil(radius)
    return [(c1, c2) for c1 in range(-R, R + 1) for c2 in range(-R, R + 1)
            if gcd(c1, c2) == 1 and c1 * c1 + c2 * c2 <= radius * radius]


def single_sum(n: tuple[int, int], D: float, omega1: BumpWeight) -> float:
    """sum over q | gcd(n) of w1(|n|/(qD)), the 2D expansion's subtracted sum
    before its factor 2/D^2; 0 at n = 0, as w1(0) = 0."""
    if n == (0, 0):
        return 0.0
    nn, total = math.hypot(*n), 0.0
    for q in divisors(gcd(*n)):
        total += omega1(nn / (q * D))
    return total


@lru_cache(maxsize=32)
def _triple_terms(D: float, omega1: BumpWeight) -> tuple[tuple[int, int, int, float], ...]:
    """(d, c1, c2, w1(|c|d/D)) over d >= 1 and primitive c with w1 != 0, d outermost."""
    terms = ((d, c1, c2, omega1(math.hypot(c1, c2) * d / D))
             for d in range(1, math.floor(omega1.hi * D) + 1)  # |c| >= 1 so d <= hi*D
             for c1, c2 in primitive_vectors(omega1.hi * D / d))
    return tuple(t for t in terms if t[3] != 0.0)


def triple_sum(n: tuple[int, int], D: float, X: float,
               omega1: BumpWeight, omega2: BumpWeight) -> float:
    """The 2D expansion's triple sum over (d, c primitive, q) before its factor
    1/D^2.  n is not range-checked: the pre-Poisson check passes |n| > X."""
    n1, n2 = n
    sDX, total = math.sqrt(D * X), 0.0
    for d, c1, c2, w1 in _triple_terms(D, omega1):
        if not (n1 % d or n2 % d):
            total += w1 * d / sDX * q_sum(c1 * n2 - c2 * n1, d, sDX, omega2)
    return total


def delta2d(n: tuple[int, int], D: float, X: float,
            omega1: BumpWeight, omega2: BumpWeight) -> float:
    """Evaluate the 2D delta expansion at the integer vector n."""
    n1, n2 = n
    if not (abs(n1) < X and abs(n2) < X):
        raise ValueError("requires |n1|, |n2| < X")
    if not (1 <= D <= math.sqrt(X) + 1e-9):
        raise ValueError("requires 1 <= D <= sqrt(X)")
    return (triple_sum(n, D, X, omega1, omega2) / (D * D)
            - 2.0 / (D * D) * single_sum(n, D, omega1))


def involution_identity_gap(n: tuple[int, int], D: float, omega1: BumpWeight) -> float:
    """For n != 0: (1/2) sum_{c prim} sum_{d | n} [det(c, n/d) = 0] w1(|c|d/D)
    minus sum_{q | n} w1(|n|/(qD)); exactly 0 by the divisor involution."""
    n1, n2 = n
    if (n1, n2) == (0, 0):
        raise ValueError("identity is about nonzero n")
    first = 0.0
    for d in divisors(gcd(n1, n2)):
        m1, m2 = n1 // d, n2 // d
        gm = gcd(m1, m2)
        # primitive c parallel to n/d: +-(n/d)/gm
        for sgn in (1, -1):
            c1, c2 = sgn * m1 // gm, sgn * m2 // gm
            first += omega1(math.hypot(c1, c2) * d / D)
    first /= 2.0
    return first - single_sum(n, D, omega1)


# ---------------------------------------------------------------------------
# Poisson summation over K
# ---------------------------------------------------------------------------

def poisson_check(X: float, gamma: int, g_table: dict[tuple, complex],
                  tail: float = 1e-12) -> tuple[complex, complex]:
    """Both sides of Poisson summation over O_K for w = coordinate Gaussian.

    g_table maps residue coordinates mod gamma (4-tuples) to complex values.
    Under the unimodular trace pairing the Gaussian is self-dual
    (hat w(y) = exp(-pi |P y|^2) with P the Gram permutation, and |Py| = |y|),
    so both sides are plain lattice sums with superexponentially small tails.
    As w is a tensor product, each side is sum over r mod gamma of
    g(r) prod_i s(r_i), with s the 1D Gaussian summed per residue class.
    """
    import numpy as np

    if gamma == 0:
        raise ValueError("gamma must be a nonzero rational integer")
    gamma = abs(gamma)
    _, g, ghat = _dual(gamma, g_table)

    def theta(scale: float) -> np.ndarray:  # prod_i s(r_i) for exp(-pi (c/scale)^2), r0 slowest
        R = math.ceil(scale * math.sqrt(math.log(1 / tail) / math.pi)) + 1  # term at R < tail
        c = np.arange(-R, R + 1)
        s = np.bincount(c % gamma, np.exp(-math.pi * (c / scale) ** 2), minlength=gamma)
        return np.einsum("a,b,c,d->abcd", s, s, s, s).ravel()

    # rhs = X^4 / sqrt(N) * sum_alpha hat g(alpha) hat w(alpha X / gamma)
    return complex(g @ theta(X)), complex(ghat @ theta(gamma / X) * X ** 4 / gamma ** 2)


def _dual(gamma: int, g_table: dict[tuple, complex]):
    """(res, g, hat g): every r mod gamma > 0 as rows (r0 slowest), g on them,
    and hat g(alpha) = N(gamma)^(-1/2) sum_beta g(beta) e(<alpha beta, 1>/gamma)
    on them, N(gamma) = gamma^4."""
    import numpy as np

    from .cyclotomic import ell_matrices

    res = np.indices((gamma,) * 4).reshape(4, -1).T
    g = np.array([g_table[tuple(r)] for r in res.tolist()], dtype=complex)
    pairing = ell_matrices(res)[:, 0] @ res.T % gamma  # <alpha beta, 1> mod gamma
    return res, g, np.exp(2j * np.pi * pairing / gamma) @ g / gamma ** 2
