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
from math import gcd

from .cyclotomic import CycInt
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
        qlo = max(1, math.floor(omega.lo * Q / d))
        qhi = math.ceil(omega.hi * Q / d)
        for q in range(qlo, qhi + 1):
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
    out = []
    R = math.ceil(radius)
    for c1 in range(-R, R + 1):
        for c2 in range(-R, R + 1):
            if (c1, c2) != (0, 0) and gcd(c1, c2) == 1 and c1 * c1 + c2 * c2 <= radius * radius:
                out.append((c1, c2))
    return out


def delta2d(n: tuple[int, int], D: float, X: float,
            omega1: BumpWeight, omega2: BumpWeight) -> float:
    """Evaluate the 2D delta expansion at the integer vector n."""
    n1, n2 = n
    if not (abs(n1) < X and abs(n2) < X):
        raise ValueError("requires |n1|, |n2| < X")
    if not (1 <= D <= math.sqrt(X) + 1e-9):
        raise ValueError("requires 1 <= D <= sqrt(X)")
    sDX = math.sqrt(D * X)
    total = 0.0
    # ---- triple sum over (d, c primitive, q) -------------------------------
    dmax = math.floor(omega1.hi * D)  # |c| >= 1 so d <= hi*D
    for d in range(1, dmax + 1):
        if n != (0, 0) and (n1 % d or n2 % d):
            continue
        for (c1, c2) in primitive_vectors(omega1.hi * D / d):
            w1 = omega1(math.hypot(c1, c2) * d / D)
            if w1 == 0.0:
                continue
            det = c1 * n2 - c2 * n1
            total += w1 * d / sDX * q_sum(det, d, sDX, omega2)
    total /= D * D
    # ---- subtracted single sum --------------------------------------------
    sub = 0.0
    if n == (0, 0):
        pass  # omega1(0) = 0: no contribution
    else:
        nn = math.hypot(n1, n2)
        for q in divisors(gcd(n1, n2)):
            sub += omega1(nn / (q * D))
    return total - 2.0 / (D * D) * sub


def involution_identity_gap(n: tuple[int, int], D: float, omega1: BumpWeight) -> float:
    """For n != 0: (1/2) sum_{c prim} sum_{d | n} [det(c, n/d) = 0] w1(|c|d/D)
    minus sum_{q | n} w1(|n|/(qD)); exactly 0 by the divisor involution."""
    n1, n2 = n
    if (n1, n2) == (0, 0):
        raise ValueError("identity is about nonzero n")
    g = gcd(n1, n2)
    first = 0.0
    for d in divisors(g):
        m1, m2 = n1 // d, n2 // d
        gm = gcd(m1, m2)
        # primitive c parallel to n/d: +-(n/d)/gm
        for sgn in (1, -1):
            c1, c2 = sgn * m1 // gm, sgn * m2 // gm
            first += omega1(math.hypot(c1, c2) * d / D)
    first /= 2.0
    second = 0.0
    nn = math.hypot(n1, n2)
    for q in divisors(g):
        second += omega1(nn / (q * D))
    return first - second


# ---------------------------------------------------------------------------
# Poisson summation over K
# ---------------------------------------------------------------------------

def _gaussian(coords) -> float:
    return math.exp(-math.pi * sum(c * c for c in coords))


def poisson_check(X: float, gamma: int, g_table: dict[tuple, complex],
                  tail: float = 1e-12) -> tuple[complex, complex]:
    """Both sides of Poisson summation over O_K for w = coordinate Gaussian.

    g_table maps residue coordinates mod gamma (4-tuples) to complex values.
    Under the unimodular trace pairing the Gaussian is self-dual
    (hat w(y) = exp(-pi |P y|^2) with P the Gram permutation, and |Py| = |y|),
    so both sides are plain lattice sums with superexponentially small tails.
    """
    if gamma == 0:
        raise ValueError("gamma must be a nonzero rational integer")
    gamma = abs(gamma)
    sqrtN = gamma ** 2  # N(gamma) = gamma^4 for rational gamma

    # truncation radius: exp(-pi r^2 / X^2) < tail
    R = math.ceil(X * math.sqrt(math.log(1 / tail) / math.pi)) + 1
    lhs = 0.0 + 0.0j
    rng = range(-R, R + 1)
    for c0 in rng:
        for c1 in rng:
            for c2 in rng:
                for c3 in rng:
                    w = _gaussian((c0 / X, c1 / X, c2 / X, c3 / X))
                    if w == 0.0:
                        continue
                    gv = g_table[(c0 % gamma, c1 % gamma, c2 % gamma, c3 % gamma)]
                    if gv:
                        lhs += gv * w

    # hat g_gamma(alpha) = N(gamma)^(-1/2) sum_beta g(beta) psi_gamma(alpha beta);
    # it only depends on alpha mod gamma, so tabulate it once
    import cmath

    roots = [cmath.exp(2j * cmath.pi * r / gamma) for r in range(gamma)]
    residues = [(CycInt(*b), gv) for b, gv in g_table.items() if gv]
    ghat: dict[tuple, complex] = {}
    rng_g = range(gamma)
    for a0 in rng_g:
        for a1 in rng_g:
            for a2 in rng_g:
                for a3 in rng_g:
                    alpha = CycInt(a0, a1, a2, a3)
                    acc = 0.0 + 0.0j
                    for beta, gv in residues:
                        acc += gv * roots[(alpha * beta).c3 % gamma]
                    ghat[(a0, a1, a2, a3)] = acc / sqrtN

    # rhs = X^4 / sqrt(N) * sum_alpha hat g(alpha) hat w(alpha X / gamma)
    R2 = math.ceil(gamma / X * math.sqrt(math.log(1 / tail) / math.pi)) + 1
    rng2 = range(-R2, R2 + 1)
    rhs = 0.0 + 0.0j
    for a0 in rng2:
        for a1 in rng2:
            for a2 in rng2:
                for a3 in rng2:
                    wh = _gaussian((a0 * X / gamma, a1 * X / gamma,
                                    a2 * X / gamma, a3 * X / gamma))
                    if wh == 0.0:
                        continue
                    rhs += ghat[(a0 % gamma, a1 % gamma, a2 % gamma, a3 % gamma)] * wh
    rhs *= X ** 4 / sqrtN
    return lhs, rhs
