"""Local densities, the singular series, and the constants of the main term.

The zero-frequency densities live here:

* sigma_p          -- limit of p^-6k #{pairs mod p^k: ell(b1 b2) = 0 (p^k),
                      b_i = b_i' (p^m_p)}; its product over p (times M^2) is
                      the value at 0 of the Moebius-differenced Dirichlet
                      series of N1~.
* sigma_p_cd       -- the (c, d)-twisted density with the det congruence,
                      truncated with a certified tail.
* tau_p            -- the character-sum form (1/(v1,v2,p^inf)) sum_k S_p(v;k);
                      equals sigma_p(c, d) at v = c*d, which the acceptance
                      suite checks with both sides computed independently.
* s_hat            -- brute-force Fourier transform of S(v; q) over v mod q;
                      at w = 0 it collapses to (q/M^2) N1*(qM).
* kappa, c_constants -- the archimedean area constant and the Laurent /
                      partial-sum constants of sum rho(q) q^(-s-1).

scipy's quad is imported inside the four functions that integrate, so
importing this module does not load scipy.

Tail bounds use the difference estimates with empirically frozen constants
from qdl.constants; every estimate carries its truncation level and a
rigorous-given-the-constant tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import mpmath as mp
import numpy as np

from . import InvariantError
from . import constants as C
from .counts import count_pairs, sp_vk
from .cyclotomic import Vec2Int
from .expsums import CongruenceData, n1_tilde
from .residues import divisors, factorize, is_prime, rho_prime_power, sieve_primes, vp
from .weights import BumpWeight


@dataclass(frozen=True)
class LocalDensityEstimate:
    prime: int
    value: float
    truncation_k: int
    tail_bound: float
    kind: str


# ---------------------------------------------------------------------------
# Moebius coefficients and sigma_p
# ---------------------------------------------------------------------------

def _mu(n: int) -> int:
    if n == 1:
        return 1
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return (-1) ** len(f)


def n1_star(q: int, cong: CongruenceData, ell_modulus: str = "reduced") -> float:
    """N1*(q) = sum over b | q/M of mu(b) N1~(q/b); requires M | q.

    The reduced ell-modulus convention is the one under which the S-hat
    zero-frequency identity is exact.
    """
    if q % cong.M != 0:
        raise ValueError("n1_star requires M | q")
    total = 0.0
    for b in divisors(q // cong.M):
        m = _mu(b)
        if m:
            total += m * n1_tilde(q // b, cong, ell_modulus)
    return total


def sigma_p(p: int, cong: CongruenceData, target_tail: float = 1e-6,
            cap_to_budget: bool = False) -> LocalDensityEstimate:
    """Zero-frequency local density at p, truncated with a certified tail.

    The truncations are N1~(p^k) in the full-modulus convention; successive
    differences obey |N1~(p^(k+1)) - N1~(p^k)| <= C p^(4 m_p - 2k - 2), so the
    tail after level k is C p^(4 m_p - 2k - 2) / (1 - p^-2).

    At primes dividing M the count uses the generic character-sum path whose
    cost grows like p^(2k); with cap_to_budget the truncation stops at the
    budget and the (larger) achieved tail is certified instead of raising.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = vp(cong.M, p)
    Cd = C.PROP63_DIFF_C

    def tail(k: int) -> float:
        return Cd * p ** (4 * m - 2 * k - 2) / (1 - p ** -2)

    # budget: closed-form path (p coprime to M) is cheap; the generic path
    # enumerates p^(2k) character sums
    kmax = 13 if m == 0 else max(1, int(math.log(65536, p) / 2))
    k = max(1, m)
    while tail(k) > target_tail and k < kmax:
        k += 1
    if tail(k) > target_tail and not cap_to_budget:
        raise ValueError("count budget exceeded before the tail target was met")
    val = n1_tilde(p ** k, cong, "full")
    return LocalDensityEstimate(p, val, k, tail(k), "sigma_p")


def sigma_p_product(cong: CongruenceData, prime_cutoff: int = 300,
                    target_tail: float = 1e-6) -> tuple[float, float]:
    """prod_{p <= cutoff} sigma_p with a combined relative error estimate.

    The tail over p > cutoff uses sigma_p = 1 + O(1/p^2) (quantitatively
    |sigma_p - 1| <= 6/p^2 on every prime computed, which the per-prime
    estimates confirm); the reported error adds the truncation tails.
    """
    prod = 1.0
    err = 0.0
    for p in sieve_primes(prime_cutoff):
        est = sigma_p(p, cong, target_tail=target_tail, cap_to_budget=True)
        prod *= est.value
        err += est.tail_bound / max(est.value, 1e-12)
    # prime tail: sum_{p > P} 6/p^2 <= 6/(P log P) roughly; integrate crudely
    P = prime_cutoff
    err += 8.0 / (P * math.log(P))
    return prod, err * prod


def tau_p(v: Vec2Int, p: int, target_tail: float = 1e-6,
          cong: CongruenceData | None = None) -> LocalDensityEstimate:
    """tau_p(v) = (v1, v2, p^inf)^-1 sum_{k >= 0} S_p(v; k), truncated.

    Tail from |S_p(v;k)| <= C (k+1) (v1^4+v2^4, p^k) p^(-3k).
    """
    if v == (0, 0):
        raise ValueError("tau_p requires v != 0")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cong = cong or CongruenceData.trivial()
    ell_v = vp(v[0] ** 4 + v[1] ** 4, p)
    Ct = C.SP_VK_TAIL_C

    def tail(K: int) -> float:
        return sum(Ct * (k + 1) * p ** (min(ell_v, k) - 3 * k) for k in range(K + 1, K + 60))

    K = 1
    while tail(K) > target_tail:
        K += 1
        if p ** K > 10 ** 7:
            raise ValueError("truncation level exceeds the enumeration budget")
    b1, b2 = cong.beta1p.lift(), cong.beta2p.lift()
    total = sum(sp_vk(tuple(v), p, k, cong.M, b1, b2) for k in range(K + 1))
    pref = p ** vp(gcd(v[0], v[1]), p)
    val = total / pref
    return LocalDensityEstimate(p, val, K, tail(K) / pref, "tau_p")


def sigma_p_cd(p: int, c: Vec2Int, d: int, cong: CongruenceData,
               target_tail: float = 1e-6) -> LocalDensityEstimate:
    """sigma_p(c, d): truncated limit of p^-7k counts with the det condition.

    Truncation value at level k:
        p^-7k #{(b1, b2) in V_{p^k}: p^k | det(c, ell(b1 b2)),
                p^min(v_p(d),k) | ell(b1 b2)}
    with the tail from the (h+k+1) p^(4m-2h-3k-3+ell) difference shape.
    """
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = vp(cong.M, p)
    h = vp(d, p)
    ell = vp(c[0] ** 4 + c[1] ** 4, p)
    Cd = C.SIGMA_CD_TAIL_C

    def tail(K: int) -> float:
        return sum(Cd * (h + k + 1) * p ** (4 * m - 2 * h - 3 * k - 3 + min(ell, h + k + 1))
                   for k in range(K, K + 60))

    K = max(1, m)
    while tail(K) > target_tail:
        K += 1
        if p ** (K + 2 * h) > 10 ** 8:
            raise ValueError("truncation level exceeds the count budget")

    a = min(h, K)

    def rows(pp, e):
        if (pp, e) != (p, K):
            raise InvariantError(f"count_pairs asked for rows at {pp}^{e}, not {p}^{K}")
        return [[p ** a * c[0], p ** a * c[1]]]

    cnt = count_pairs(p ** K, cong.M, cong.beta1p.lift(), cong.beta2p.lift(), rows)
    val = cnt / p ** (7 * K)
    return LocalDensityEstimate(p, val, K, tail(K), "sigma_p_cd")


# ---------------------------------------------------------------------------
# S(v; q) and its Fourier transform
# ---------------------------------------------------------------------------

def s_vq(v: tuple[int, int], q: int, cong: CongruenceData) -> complex:
    """S(v; q) = prod over p | qM of S_p(v; v_p(q))."""
    primes = set(factorize(q)) | set(factorize(cong.M)) if max(q, cong.M) > 1 else set()
    b1, b2 = cong.beta1p.lift(), cong.beta2p.lift()
    out = 1.0 + 0.0j
    for p in sorted(primes):
        k = vp(q, p)
        out *= sp_vk((v[0] % max(p ** k, 1), v[1] % max(p ** k, 1)), p, k, cong.M, b1, b2)
    return out


def s_hat(w: Vec2Int, q: int, cong: CongruenceData) -> complex:
    """S-hat(w; q) = sum over v mod q of S(v; q) e_q(-<v, w>), brute force."""
    for p, k in factorize(q).items():
        if p ** k > 27:
            raise ValueError("s_hat budget: prime powers of q must be <= 27")
    b1, b2 = cong.beta1p.lift(), cong.beta2p.lift()
    primes = sorted(set(factorize(q)) | (set(factorize(cong.M)) if cong.M > 1 else set()))
    tables = {}
    for p in primes:
        k = vp(q, p)
        pk = p ** k
        tab = {}
        for v1 in range(pk):
            for v2 in range(pk):
                tab[(v1, v2)] = sp_vk((v1, v2), p, k, cong.M, b1, b2)
        tables[p] = (pk, tab)
    total = 0.0 + 0.0j
    for v1 in range(q):
        for v2 in range(q):
            s = 1.0 + 0.0j
            for p, (pk, tab) in tables.items():
                s *= tab[(v1 % pk, v2 % pk)]
            total += s * np.exp(-2j * np.pi * ((v1 * w[0] + v2 * w[1]) % q) / q)
    return total


# ---------------------------------------------------------------------------
# kappa and the Laurent constants
# ---------------------------------------------------------------------------

def kappa() -> float:
    """Area of {x1^4 + x2^4 <= 1}, by adaptive quadrature (abs err <= 1e-9)."""
    from scipy.integrate import quad

    val, err = quad(lambda t: (1 - t ** 4) ** 0.25, 0.0, 1.0, epsabs=1e-12, limit=200)
    return 4 * val


def kappa_polar() -> float:
    """Same area by an independent quadrature in polar coordinates."""
    from scipy.integrate import quad

    val, err = quad(lambda th: 0.5 * (math.cos(th) ** 4 + math.sin(th) ** 4) ** -0.5,
                    0.0, 2 * math.pi, epsabs=1e-12, limit=400)
    return val


def kappa_montecarlo(samples: int = 10 ** 7, seed: int = 1) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 10 ** 6
    done = 0
    while done < samples:
        nn = min(chunk, samples - done)
        x = rng.uniform(-1, 1, nn)
        y = rng.uniform(-1, 1, nn)
        hits += int(np.count_nonzero(x ** 4 + y ** 4 <= 1.0))
        done += nn
    phat = hits / samples
    return 4 * phat, 4 * math.sqrt(phat * (1 - phat) / samples)


# chi(a) at a = 1, 3, 5, 7 for the nontrivial characters mod 8: chi_-4, chi_8, chi_-8
_CHI_MOD8 = np.array([[1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])


@lru_cache(maxsize=None)
def _l_values_at_1() -> tuple[tuple[float, float], ...]:
    """(L(1, chi), L'(1, chi)) for the rows chi of _CHI_MOD8.

    L(1, chi) = -(1/8) sum_a chi(a) psi(a/8) (psi = digamma).  L'(1, chi) is the
    central difference of L(s, chi) = 8^-s sum_a chi(a) zeta(s, a/8) at 1 +- 1e-12
    in 60 digits: error O(1e-24), and the cancelling Hurwitz poles cost 24 digits.
    """
    with mp.workdps(60):
        h = mp.mpf(10) ** -12
        t = [mp.mpf(a) / 8 for a in (1, 3, 5, 7)]
        psi = [mp.digamma(ta) for ta in t]
        dz = [(mp.power(8, -1 - h) * mp.zeta(1 + h, ta) - mp.power(8, h - 1) * mp.zeta(1 - h, ta))
              / (2 * h) for ta in t]
        return tuple((float(-mp.fdot(row, psi) / 8), float(mp.fdot(row, dz)))
                     for row in _CHI_MOD8.tolist())


def _log_local_factors(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log G_p(1) and (log G_p)'(1) for an array of primes, where

        G_p(s) = (1 - p^-s) F_p(s) prod_chi (1 - chi(p) p^-s),
        F_p(s) = sum_k rho(p^k) x^k = (1 + x + p^2 x^2 + p^4 x^3 + P_p(x)) / (1 - p^6 x^4),

    x = p^(-1-s), P_p(x) = x at p = 2, 4 (p - 1) x / (1 - p x) at p = 1 (mod 8),
    else 0: the series of rho_prime_power's recursion summed in closed form.
    """
    pf, lp = p.astype(float), np.log(p)
    x = pf ** -2.0                                  # at s = 1; dx/ds = -x log p
    two = (p == 2).astype(float)
    split = np.where(p % 8 == 1, 4 * (pf - 1), 0.0)
    # numerator - 1 and 1 - denominator, apart from the 1 for log1p
    num = x + pf ** 2 * x ** 2 + pf ** 4 * x ** 3 + two * x + split * x / (1 - pf * x)
    dnum = 1 + 2 * pf ** 2 * x + 3 * pf ** 4 * x ** 2 + two + split / (1 - pf * x) ** 2
    den, dden = pf ** 6 * x ** 4, 4 * pf ** 6 * x ** 3
    # the trivial character (the zeta factor) and the three of _CHI_MOD8
    chi = np.vstack([np.ones(len(p)), np.where(p % 2, _CHI_MOD8[:, p % 8 // 2], 0)])
    log_g = np.log1p(num) - np.log1p(-den) + np.log1p(-chi / pf).sum(axis=0)
    dlog_g = -x * lp * (dnum / (1 + num) + dden / (1 - den)) + (chi * lp / (pf - chi)).sum(0)
    return log_g, dlog_g


def c_constants(method: str = "euler-product", budget: int | None = None) -> dict:
    """Laurent data of sum_q rho(q) q^(-s-1) at s = 1.

    euler-product: sum_q rho(q) q^(-s-1) = prod_p F_p(s) = zeta(s) prod_chi
    L(s, chi) prod_p G_p(s) (_log_local_factors), so over the primes p <= P

        c_-1 = prod_chi L(1, chi) exp(sum_p log G_p(1)),
        c_0 = c_-1 S,  S = gamma + sum_chi L'/L(1, chi) + sum_p (log G_p)'(1).

    Tail: |log G_p(1)| <= C1 / p^2, |(log G_p)'(1)| <= C2 log p / p^2, with C1 and C2
    the frozen C.LOG_G_TAIL_C and C.DLOG_G_TAIL_C.  Partial summation with
    theta(x) < 1.01624 x (Rosser-Schoenfeld 1962) gives
    sum_{p>P} log p / p^2 = -theta(P)/P^2 + 2 int_P^inf theta(t) t^-3 dt <= 2.03248 / P,
    so sum_{p>P} 1/p^2 <= 2.03248 / (P log P).  The omitted sums R1, R2 thus obey
    |R1| <= t1 = 2.03248 C1 / (P log P) and |R2| <= t2 = 2.03248 C2 / P, whence

        |c_-1(inf) - c_-1| = c_-1 |e^R1 - 1| <= c_-1 (e^t1 - 1),
        |c_0(inf) - c_0| = c_-1 |(e^R1 - 1) S + e^R1 R2| <= c_-1 ((e^t1 - 1) |S| + e^t1 t2).

    partial-sum-fit: regresses sum_{q <= Q} rho(q)/q^2 against log Q; the
    intercept is the partial-sum c_0 (which for this series coincides with
    the Laurent constant; both are computed and reported).
    """
    if method == "euler-product":
        P = budget or 200_000
        if P < 2:
            raise ValueError("the prime cutoff must be at least 2")
        log_g, dlog_g = _log_local_factors(np.array(sieve_primes(P)))
        lvals = _l_values_at_1()
        c_minus1 = math.prod(l1 for l1, _ in lvals) * math.exp(math.fsum(log_g))
        S = np.euler_gamma + math.fsum(d1 / l1 for l1, d1 in lvals) + math.fsum(dlog_g)
        t1, t2 = 2.03248 * C.LOG_G_TAIL_C / (P * math.log(P)), 2.03248 * C.DLOG_G_TAIL_C / P
        return {
            "method": method,
            "c_minus1": c_minus1,
            "c_minus1_error": c_minus1 * math.expm1(t1),
            "c_0": c_minus1 * S,
            "c_0_error": c_minus1 * (math.expm1(t1) * abs(S) + math.exp(t1) * t2),
            "prime_cutoff": P,
        }
    if method == "partial-sum-fit":
        Q = budget or 400_000
        A, qs = _rho_partial_sums(Q)
        # fit A(Q_i) = c_-1 log Q_i + c_0 on a log grid of checkpoints
        xs = np.log(qs)
        ys = A
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        err = float(np.max(np.abs(resid)))
        return {
            "method": method,
            "c_minus1": float(slope),
            "c_minus1_error": float(3 * err / (xs[-1] - xs[0])),
            "c_0": float(intercept),
            "c_0_error": 3 * err,
            "Q": Q,
        }
    raise ValueError(f"unknown method {method!r}")


def _rho_partial_sums(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """A(Q_i) = sum_{q <= Q_i} rho(q)/q^2 on a geometric grid of checkpoints."""
    spf = np.zeros(Q + 1, dtype=np.int64)
    for p in range(2, int(math.isqrt(Q)) + 1):
        if spf[p] == 0:
            idx = np.arange(p * p, Q + 1, p)
            idx = idx[spf[idx] == 0]
            spf[idx] = p
    checkpoints = sorted(set(int(round(Q ** (i / 40))) for i in range(20, 41)) - {0, 1})
    out_q, out_a = [], []
    acc = 0.0
    ci = 0
    for q in range(1, Q + 1):
        acc += _rho_from_spf(q, spf) / q ** 2
        while ci < len(checkpoints) and q == checkpoints[ci]:
            out_q.append(q)
            out_a.append(acc)
            ci += 1
    return np.array(out_a), np.array(out_q, dtype=float)


def _rho_from_spf(q: int, spf: np.ndarray) -> int:
    out = 1
    while q > 1:
        p = spf[q] if spf[q] else q
        k = 0
        while q % p == 0:
            q //= p
            k += 1
        out *= rho_prime_power(int(p), k)
    return out


# ---------------------------------------------------------------------------
# the archimedean kernel identity
# ---------------------------------------------------------------------------

def omega_mellin_at_1(omega: BumpWeight) -> float:
    """int_{x>0} omega(x) dx (the Mellin transform at 1)."""
    from scipy.integrate import quad

    val, _ = quad(omega, omega.lo, omega.hi, epsabs=1e-13, limit=200)
    return val


def radial_delta_line_integral(omega: BumpWeight, w: tuple[float, float],
                               eps_rel: float = 1e-3) -> float:
    """int_{R^2} omega(|v|) delta(<v, w>) dv by mollified-delta quadrature.

    Two Gaussian widths and Richardson extrapolation; the exact value is
    2 * (int_0^inf omega) / |w|.
    """
    from scipy.integrate import quad

    nw = math.hypot(*w)
    if nw == 0:
        raise ValueError("w must be nonzero")
    u = (w[0] / nw, w[1] / nw)
    uperp = (-u[1], u[0])

    def lhs(eps):
        # integrate over the strip |<v,w>| <= 6 eps |w| in rotated coordinates
        def inner(t):
            # v = s*u + t*uperp; <v, w> = s |w|
            val, _ = quad(lambda s: omega(math.hypot(s, t))
                          * math.exp(-0.5 * (s * nw / eps) ** 2) / (math.sqrt(2 * math.pi) * eps),
                          -6 * eps / nw, 6 * eps / nw, epsabs=1e-13, limit=100)
            return val
        val, _ = quad(inner, -omega.hi, omega.hi, epsabs=1e-12, limit=200)
        return val

    e1 = eps_rel
    v1, v2 = lhs(e1), lhs(e1 / 2)
    return (4 * v2 - v1) / 3  # O(eps^2) Richardson


def lemma94_check(omega: BumpWeight, w_grid: list[tuple[float, float]] | None = None
                  ) -> list[tuple[tuple[float, float], float, float]]:
    """Verify int omega(|v|) delta(<v,w>) dv = 2 omega~(1) / |w| on a grid of w.

    Returns (w, lhs, rhs) triples; lhs by mollified-delta 2D quadrature, rhs
    from the halfline integral.
    """
    if w_grid is None:
        w_grid = [(1.0, 0.0), (3.0, 4.0), (0.6, 0.8), (-2.0, 5.0), (1.0, 1.0)]
    m1 = omega_mellin_at_1(omega)
    out = []
    for w in w_grid:
        lhs = radial_delta_line_integral(omega, w)
        rhs = 2 * m1 / math.hypot(*w)
        out.append((w, lhs, rhs))
    return out
