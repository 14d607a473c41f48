"""Cubic resolvent data, Galois classification, and good-prime L-coefficients.

For alpha = n0 + n1 z + n2 z^2 + n3 z^3 the attached cubic is
f_alpha(x) = n3 x^3 + n2 x^2 + n1 x + n0.  When f is an S3 cubic, the degree-3
Dedekind zeta of Q[x]/(f) factors as zeta(s) L(s, pi) with pi of level
dividing n3^2 Disc(f), and the good-prime Dirichlet coefficients are
lambda(p) = -1 + #{x mod p : f(x) = 0}.  Prime-power values follow from the
splitting type, equivalently from the root count:

    3 roots (split):      lambda(p^j) = j + 1
    1 root  ((1,2) type): lambda(p^j) = 1 if j even else 0
    0 roots ((3) type):   lambda(p^j) = 1, -1, 0 with period 3

lambda extends multiplicatively; |lambda(n)| <= d(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .cyclotomic import sup_norms
from .residues import IntPoly, divisors, factorize, is_prime, root_counts, sieve_primes

GALOIS_SWEEP_YMAX = 60
HECKE_KMAX = 6  # hecke_check tests the recursion at k = 1 .. HECKE_KMAX - 1


@dataclass(frozen=True)
class CubicFieldDesc:
    f: IntPoly
    disc: int
    galois_type: str  # S3 | A3 | reducible | degenerate
    level_bound: int
    bad_primes: frozenset[int]


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def _has_rational_root(f: IntPoly) -> bool:
    """Rational-root test on the primitive part of a genuine cubic."""
    c = f.content()
    a0, a1, a2, a3 = f.a0 // c, f.a1 // c, f.a2 // c, f.a3 // c
    if a0 == 0:
        return True  # root 0
    for p in divisors(a0):
        for q in divisors(a3):
            if gcd(p, q) != 1:
                continue
            for s in (1, -1):
                # f(s*p/q) = 0 <=> a3 s^3 p^3 + a2 s^2 p^2 q + a1 s p q^2 + a0 q^3 = 0
                if a3 * (s * p) ** 3 + a2 * (s * p) ** 2 * q + a1 * (s * p) * q ** 2 + a0 * q ** 3 == 0:
                    return True
    return False


def classify(f: IntPoly) -> CubicFieldDesc:
    """Galois trichotomy of a cubic: degenerate / reducible / A3 / S3."""
    disc = f.disc()
    if f.a3 == 0:
        typ = "degenerate"
    elif _has_rational_root(f):
        typ = "reducible"
    elif _is_square(disc):  # disc = 0 implies a repeated (hence rational) root
        typ = "A3"
    else:
        typ = "S3"
    bad = frozenset(factorize(abs(f.a3) * abs(disc))) if f.a3 != 0 and disc != 0 else frozenset()
    return CubicFieldDesc(f, disc, typ, f.a3 ** 2 * abs(disc), bad)


def lambda_p(desc: CubicFieldDesc, p: int) -> int:
    """lambda(p) = -1 + #roots of f mod p, at good primes of an S3 cubic."""
    if desc.galois_type != "S3":
        raise ValueError("lambda is defined here only for S3 cubics")
    if p in desc.bad_primes:
        raise ValueError(f"{p} is a bad prime for this cubic")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return int(root_counts([desc.f], [p])[0, 0]) - 1


def _lambda_prime_power(nroots: int, j: int) -> int:
    if nroots == 3:
        return j + 1
    if nroots == 1:
        return 1 if j % 2 == 0 else 0
    return (1, -1, 0)[j % 3]


def lambda_n(desc: CubicFieldDesc, n: int) -> int:
    """Multiplicative extension of lambda to integers coprime to bad primes."""
    if desc.galois_type != "S3":
        raise ValueError("lambda is defined here only for S3 cubics")
    if n < 1:
        raise ValueError("n must be >= 1")
    fac = factorize(n)
    for p in fac:
        if p in desc.bad_primes:
            raise ValueError(f"{n} shares the bad prime {p}")
    out = 1
    for j, nroots in zip(fac.values(), root_counts([desc.f], list(fac))[0].tolist()):
        out *= _lambda_prime_power(nroots, j)
    return out


def _squarefree_kernel(n: int) -> int:
    out = 1
    for p, e in factorize(abs(n)).items():
        if e % 2 == 1:
            out *= p
    return out * (1 if n > 0 else -1)


def fundamental_discriminant(n: int) -> int:
    d = _squarefree_kernel(n)
    return d if d % 4 == 1 else 4 * d


def _kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n > 0."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def hecke_check(desc: CubicFieldDesc, p: int) -> bool:
    """Verify lambda(p) lambda(p^k) = lambda(p^(k+1)) + chi(p) lambda(p^(k-1))
    for 1 <= k < HECKE_KMAX.

    chi is the Kronecker symbol of the fundamental discriminant attached to
    Disc(f) (the central character of the quadratic resolvent field).
    """
    if desc.galois_type != "S3":
        raise ValueError("hecke_check requires an S3 cubic")
    if p in desc.bad_primes:
        raise ValueError(f"{p} is a bad prime")
    nroots = int(root_counts([desc.f], [p])[0, 0])
    chi = _kronecker(fundamental_discriminant(desc.disc), p)
    lam = [_lambda_prime_power(nroots, j) for j in range(HECKE_KMAX + 2)]
    for k in range(1, HECKE_KMAX):
        if lam[1] * lam[k] != lam[k + 1] + chi * lam[k - 1]:
            return False
    return True


def rankin_partial(d1: CubicFieldDesc, d2: CubicFieldDesc, Q: float, B: int,
                   phi) -> float:
    """sum over squarefree q coprime to B and both bad-prime sets of
    lambda_1(q) lambda_2(q) phi(q/Q), for a BumpWeight phi.

    lambda_1(p) lambda_2(p) comes from one root_counts call on the good
    primes (the primes of B and of the bad sets are dropped before counting);
    lambda_1 lambda_2(q) is the product over q's primes, peeled off smallest
    first through a smallest-prime-factor table.  The terms are the integers
    lambda_1 lambda_2 times phi, summed with math.fsum, so the result is
    correctly rounded in any order.
    """
    if d1.galois_type != "S3" or d2.galois_type != "S3":
        raise ValueError("rankin_partial requires S3 cubics")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if not Q > 0:
        raise ValueError(f"Q must be > 0, got {Q}")
    qmax = int(math.ceil(phi.hi * Q)) + 1  # phi(q/Q) = 0 for q >= phi.hi * Q
    bad = d1.bad_primes | d2.bad_primes | set(factorize(B))
    primes = np.array(sieve_primes(qmax), dtype=np.int64)
    good = primes[~np.isin(primes, list(bad))]
    lam = root_counts([d1.f] if d2 is d1 else [d1.f, d2.f], good) - 1
    c = np.zeros(qmax + 1, dtype=np.int64)  # lambda_1 lambda_2 at the good primes, 1 at 1
    c[1] = 1
    c[good] = lam[0] * lam[-1]
    spf = _smallest_prime_factor(primes, qmax)
    q = np.flatnonzero(_squarefree_coprime_mask(primes, qmax, bad))
    lam12, rest = np.ones(q.size, dtype=np.int64), q.copy()
    while rest.size and rest.max() > 1:  # one pass per prime factor: omega(q) passes
        p = spf[rest]
        lam12 *= c[p]
        rest //= p
    return math.fsum(lam12 * phi.eval_rows(q / Q))


def _smallest_prime_factor(primes: np.ndarray, qmax: int) -> np.ndarray:
    """spf[n] = the smallest prime factor of n for 2 <= n <= qmax, and
    spf[1] = 1.  Only the primes <= sqrt(qmax) are written, largest first, so
    the smallest prime dividing n writes spf[n] last."""
    spf = np.arange(qmax + 1, dtype=np.int64)
    for p in primes[primes * primes <= qmax][::-1].tolist():
        spf[p * p::p] = p
    return spf


def _squarefree_coprime_mask(primes: np.ndarray, qmax: int, bad) -> np.ndarray:
    """The q in [0, qmax] that are squarefree, positive and prime to bad."""
    keep = np.ones(qmax + 1, dtype=bool)
    keep[0] = False
    for p in primes[primes * primes <= qmax].tolist():
        keep[p * p::p * p] = False
    for p in bad:
        keep[p::p] = False
    return keep


# ---------------------------------------------------------------------------
# non-S3 sweep
# ---------------------------------------------------------------------------

def galois_count_sweep(Y: float) -> int:
    """#{alpha in O_K : |alpha|_sup < Y, Gal(f_alpha) != S3}, exactly.

    Degenerate (n3 = 0) and square-discriminant candidates are counted by a
    vectorized box scan filtered by |.|_sup < Y; reducible cubics are found
    by enumerating their rational roots -a/b (b | n3, a | n0 force
    |a|, b <= Y) and collecting the rank-3 solution lattices into a set, so
    multiple factorizations never double count.
    """
    if Y > GALOIS_SWEEP_YMAX:
        raise ValueError(f"sweep budget capped at Y <= {GALOIS_SWEEP_YMAX}")
    B = int(math.ceil(Y))
    grid = np.arange(-B, B + 1)
    g0, g1, g2 = (g.ravel() for g in np.meshgrid(grid, grid, grid, indexing="ij"))

    def box(n3):  # every (n0, n1, n2, n3) with |n0|, |n1|, |n2| <= B
        return np.stack([g0, g1, g2, np.full(g0.size, n3, dtype=np.int64)], axis=1)

    # --- degenerate: n3 = 0 --------------------------------------------------
    degen = int(np.count_nonzero(sup_norms(box(0)) < Y))

    # --- square discriminant among n3 != 0 (A3 plus some reducible) ----------
    sq_set: set[tuple] = set()
    for n3 in range(-B, B + 1):
        if n3 == 0:
            continue
        arr = box(n3)
        arr = arr[sup_norms(arr) < Y]
        d, c, b, a = arr.T  # a is the x^3 coefficient
        disc = (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
                - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)
        nonneg = disc >= 0
        r = np.zeros_like(disc)
        r[nonneg] = np.sqrt(disc[nonneg].astype(np.float64)).astype(np.int64)
        issq = np.zeros_like(nonneg)
        for adj in (-1, 0, 1, 2):
            issq |= nonneg & ((r + adj) ** 2 == disc)
        for row in arr[issq]:
            sq_set.add(tuple(int(x) for x in row))

    # --- reducible (n3 != 0): factor as (b x + a)(m x^2 + w x + u) -----------
    # A cubic with rational root -a/b (lowest terms, b >= 1) factors over Z by
    # Gauss; coordinates are n3 = b m, n2 = a m + b w, n1 = a w + b u, n0 = a u,
    # so enumerating (a, b, m, w, u) with the box bounds |n_i| <= B catches
    # every reducible cubic at least once and the set dedupes repeats.
    cand: set[tuple] = set()
    for b in range(1, B + 1):
        for a in range(-B, B + 1):
            if gcd(a, b) != 1:
                continue
            for m in range(-(B // b), B // b + 1):
                if m == 0:
                    continue
                wlo = int(math.floor((-B - a * m) / b))
                whi = int(math.ceil((B - a * m) / b))
                for w in range(wlo, whi + 1):
                    n2 = a * m + b * w
                    if abs(n2) > B:
                        continue
                    if a == 0:
                        ulo, uhi = -B, B
                    else:
                        ulo, uhi = -(B // abs(a)), B // abs(a)
                    for u in range(ulo, uhi + 1):
                        n1 = a * w + b * u
                        n0 = a * u
                        if abs(n1) > B or abs(n0) > B:
                            continue
                        if abs(b * m) <= B:
                            cand.add((n0, n1, n2, b * m))
    arr = np.array(list(cand), dtype=np.int64).reshape(-1, 4)
    red_set = {tuple(int(x) for x in row) for row in arr[sup_norms(arr) < Y]}

    a3_reducible = sum(1 for t in sq_set if t in red_set)
    # A3 = square disc, irreducible, n3 != 0 (disc = 0 is always reducible)
    a3 = len(sq_set) - a3_reducible
    return degen + len(red_set) + a3
