"""Local densities, the singular series, and the constants of the main term.

The zero-frequency densities live here:

* sigma_p          -- limit of p^-6k #{pairs mod p^k: ell(b1 b2) = 0 (p^k),
                      b_i = b_i' (p^m_p)}, in closed form at p not dividing M
                      and when b1' or b2' is a unit at p; its product over p
                      (times M^2) is the value at 0 of the Moebius-differenced
                      Dirichlet series of N1~.
* sigma_p_cd       -- the (c, d)-twisted density with the det congruence,
                      truncated with a certified tail.
* tau_p            -- the character-sum form (1/(v1,v2,p^inf)) sum_k S_p(v;k);
                      equals sigma_p(c, d) at v = c*d, which the acceptance
                      suite checks with both sides computed independently.
* s_hat            -- brute-force Fourier transform of S(v; q) over v mod q;
                      at w = 0 it collapses to (q/M^2) N1*(qM).
* kappa, c_constants -- the archimedean area constant and the Laurent /
                      partial-sum constants of sum rho(q) q^(-s-1).

scipy's quad is imported inside the four functions that integrate, and
mpmath inside the three that evaluate L-values, so importing this module
loads neither.

Tail bounds use the difference estimates with empirically frozen constants
from qdl.constants; every estimate carries its truncation level and a
rigorous-given-the-constant tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import constants as C
from .counts import pair_sum, sp_vk
from .cyclotomic import Vec2Int, ell, norm
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


def n1_star(q: int, cong: CongruenceData) -> float:
    """N1*(q) = sum over b | q/M of mu(b) N1~(q/b); requires M | q.

    N1~ is taken in the reduced ell-modulus convention, the one under which
    the S-hat zero-frequency identity is exact.
    """
    if q % cong.M != 0:
        raise ValueError("n1_star requires M | q")
    total = 0.0
    for b in divisors(q // cong.M):
        m = _mu(b)
        if m:
            total += m * n1_tilde(q // b, cong, "reduced")
    return total


def _sigma_p_coprime(p: np.ndarray) -> np.ndarray:
    """sigma_p at primes p not dividing M, for an array of primes: 4/3 at p = 2,
    1 + p^-2 + 4/(p+1)^2 at p = 1 (mod 8), 1 + p^-2 at the other odd p.

    There N1~(p^e) = _kernel_size_total(p, e) / p^(4e), whatever beta' is, and with x = p^-2

        N1~(p^e) = 1 + sum_{j <= e} x^j ((1 - x) + (1 - 1/p)^2 R(j)),

    R(j) the number of pairs (t, u) with 1 <= t <= j and u^4 = -1 (mod p^t): 4j at
    p = 1 (mod 8), 1 at p = 2, else 0.  The limit e -> oo is the closed form above.
    """
    pf = p.astype(float)
    split = np.where(p % 8 == 1, 4 / (pf + 1) ** 2, 0.0)
    return np.where(p == 2, 4 / 3, 1 + pf ** -2 + split)


def sigma_p(p: int, cong: CongruenceData, target_tail: float = 1e-6,
            cap_to_budget: bool = False) -> LocalDensityEstimate:
    """Zero-frequency local density at p.

    At p not dividing M: the closed form _sigma_p_coprime, with truncation_k 0
    and tail_bound 0.

    At p | M with m = v_p(M), when p does not divide N(beta1') or N(beta2'):
    exactly [ell(beta1' beta2') = 0 (p^m)] p^(-6m), truncation_k m, tail_bound
    0.  Proof, with beta1' the unit: for k >= m each of the p^(4(k-m)) beta1
    mod p^k is a unit, so beta2 -> beta1 beta2 maps beta2' + p^m O bijectively
    onto beta1' beta2' + p^m O mod p^k.  As ell: O -> Z^2 is onto, that coset
    holds p^(2(k-m)) gamma with ell(gamma) = 0 (p^k) if ell(beta1' beta2') = 0
    (p^m), else none; so N1~(p^k) = p^(6(k-m)) / p^(6k) or 0 for every k >= m.

    At the other p | M: the truncation N1~(p^k) in the full-modulus
    convention, with |N1~(p^(k+1)) - N1~(p^k)| <= C p^(4 m_p - 2k - 2) (C the
    frozen C.PROP63_DIFF_C), so the tail after level k is that over 1 - p^-2.
    Its count makes about p^k orbit solves; with cap_to_budget the truncation
    stops at the budget and the (larger) achieved tail is certified instead of
    raising.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = vp(cong.M, p)
    if m == 0:
        return LocalDensityEstimate(p, float(_sigma_p_coprime(np.array([p]))[0]), 0, 0.0,
                                    "sigma_p")
    b1, b2 = cong.beta1p.lift(), cong.beta2p.lift()
    if norm(b1) % p or norm(b2) % p:
        hit = all(x % p ** m == 0 for x in ell(b1 * b2))
        return LocalDensityEstimate(p, hit / p ** (6 * m), m, 0.0, "sigma_p")

    def tail(k: int) -> float:
        return C.PROP63_DIFF_C * p ** (4 * m - 2 * k - 2) / (1 - p ** -2)

    # budget: p^(2k) <= 2^16; the printed sigma_p at non-unit classes depends on it
    kmax = max(1, int(math.log(65536, p) / 2))
    k = m
    while tail(k) > target_tail and k < kmax:
        k += 1
    if tail(k) > target_tail and not cap_to_budget:
        raise ValueError("count budget exceeded before the tail target was met")
    val = n1_tilde(p ** k, cong, "full")
    return LocalDensityEstimate(p, val, k, tail(k), "sigma_p")


def sigma_p_product(cong: CongruenceData) -> tuple[float, float]:
    """prod_p sigma_p and its error.

    The closed form at p not dividing M over p <= P = 2e5, in one numpy pass,
    times sigma_p(p, cong, cap_to_budget=True) at p | M (t_p = 0 where exact).
    Each omitted factor obeys 1 < sigma_p < 1 + 5/p^2, and sum_{p > P} 1/p^2
    <= 2.03248 / (P log P) (Rosser-Schoenfeld, as in c_constants), so the
    omitted product lies in [1, e^T] with T = 5 * 2.03248 / (P log P).  With
    |sigma_p - v_p| <= t_p at p | M the error is at most
    c (e^T prod (v_p + t_p) - prod v_p), c the product of the closed forms.
    """
    P = 200_000
    p = np.array(sieve_primes(P))
    lo = hi = math.exp(math.fsum(np.log(_sigma_p_coprime(p[cong.M % p != 0]))))
    for q in factorize(cong.M):
        est = sigma_p(q, cong, cap_to_budget=True)
        lo, hi = lo * est.value, hi * (est.value + est.tail_bound)
    return lo, hi * math.exp(5 * 2.03248 / (P * math.log(P))) - lo


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

    cnt = pair_sum(p ** K, cong.M, cong.beta1p.lift(), cong.beta2p.lift(), [[d * c[0], d * c[1]]])
    val = cnt / p ** (7 * K)
    return LocalDensityEstimate(p, val, K, tail(K), "sigma_p_cd")


# ---------------------------------------------------------------------------
# S(v; q) and its Fourier transform
# ---------------------------------------------------------------------------

def s_vq(v: tuple[int, int], q: int, cong: CongruenceData) -> complex:
    """S(v; q) = prod over p | qM of S_p(v; v_p(q))."""
    b1, b2 = cong.beta1p.lift(), cong.beta2p.lift()
    out = 1.0 + 0.0j
    for p in sorted(set(factorize(q)) | set(factorize(cong.M))):
        k = vp(q, p)
        out *= sp_vk((v[0] % p ** k, v[1] % p ** k), p, k, cong.M, b1, b2)
    return out


def s_hat(w: Vec2Int, q: int, cong: CongruenceData) -> complex:
    """S-hat(w; q) = sum over v mod q of S(v; q) e_q(-<v, w>), brute force."""
    for p, k in factorize(q).items():
        if p ** k > 27:
            raise ValueError("s_hat budget: prime powers of q must be <= 27")
    total = 0.0 + 0.0j
    for v1 in range(q):
        for v2 in range(q):
            phase = np.exp(-2j * np.pi * ((v1 * w[0] + v2 * w[1]) % q) / q)
            total += s_vq((v1, v2), q, cong) * phase
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


def _l_values(s) -> list:
    """L(s, chi) = 8^-s sum_a chi(a) zeta(s, a/8) (Hurwitz) for the rows chi of
    _CHI_MOD8, as mpf at the working precision."""
    import mpmath as mp

    z = [mp.zeta(s, mp.mpf(a) / 8) for a in (1, 3, 5, 7)]
    return [mp.power(8, -s) * mp.fdot(row, z) for row in _CHI_MOD8.tolist()]


@lru_cache(maxsize=None)
def _l_values_at_1() -> tuple[tuple[float, float], ...]:
    """(L(1, chi), L'(1, chi)) for the rows chi of _CHI_MOD8.

    L(1, chi) = -(1/8) sum_a chi(a) psi(a/8) (psi = digamma).  L'(1, chi) is the
    central difference of _l_values at 1 +- 1e-12 in 60 digits: error O(1e-24),
    and the cancelling Hurwitz poles cost 24 digits.
    """
    import mpmath as mp

    with mp.workdps(60):
        h = mp.mpf(10) ** -12
        psi = [mp.digamma(mp.mpf(a) / 8) for a in (1, 3, 5, 7)]
        dl = [(hi - lo) / (2 * h) for hi, lo in zip(_l_values(1 + h), _l_values(1 - h))]
        return tuple((float(-mp.fdot(row, psi) / 8), float(d))
                     for row, d in zip(_CHI_MOD8.tolist(), dl))


def _log_local_factors(p: np.ndarray, s: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """log G_p(s) and (log G_p)'(s) for an array of primes and real s > 1/2, where

        G_p(s) = (1 - p^-s) F_p(s) prod_chi (1 - chi(p) p^-s),
        F_p(s) = sum_k rho(p^k) x^k = (1 + x + p^2 x^2 + p^4 x^3 + P_p(x)) / (1 - p^6 x^4),

    x = p^(-1-s), P_p(x) = x at p = 2, 4 (p - 1) x / (1 - p x) at p = 1 (mod 8),
    else 0: the series of rho_prime_power's recursion summed in closed form.
    """
    pf, lp = p.astype(float), np.log(p)
    x, ps = pf ** (-1.0 - s), pf ** s             # dx/ds = -x log p
    two = (p == 2).astype(float)
    split = np.where(p % 8 == 1, 4 * (pf - 1), 0.0)
    # numerator - 1 and 1 - denominator, apart from the 1 for log1p
    num = x + pf ** 2 * x ** 2 + pf ** 4 * x ** 3 + two * x + split * x / (1 - pf * x)
    dnum = 1 + 2 * pf ** 2 * x + 3 * pf ** 4 * x ** 2 + two + split / (1 - pf * x) ** 2
    den, dden = pf ** 6 * x ** 4, 4 * pf ** 6 * x ** 3
    # the trivial character (the zeta factor) and the three of _CHI_MOD8
    chi = np.vstack([np.ones(len(p)), np.where(p % 2, _CHI_MOD8[:, p % 8 // 2], 0)])
    log_g = np.log1p(num) - np.log1p(-den) + np.log1p(-chi / ps).sum(axis=0)
    dlog_g = -x * lp * (dnum / (1 + num) + dden / (1 - den)) + (chi * lp / (ps - chi)).sum(0)
    return log_g, dlog_g


def _log_h_factors(p: np.ndarray, s: float) -> np.ndarray:
    """log H_p(s) for an array of primes and real s > 1/2, where

        H_p(s) = G_p(s) (1 - p^(1-3s)) (1 - p^(2-4s)) = 1 + O(p^-2s),

    the Euler factor of D(s) / (zeta(s) prod_chi L(s, chi) zeta(3s-1) zeta(4s-2)).
    """
    pf = p.astype(float)
    return (_log_local_factors(p, s)[0] + np.log1p(-pf ** (1 - 3 * s))
            + np.log1p(-pf ** (2 - 4 * s)))


@lru_cache(maxsize=None)
def _pole_coefficients(P: int = 100_000) -> tuple[float, float]:
    """(a, b): the residue terms a Q^(-1/4) + b Q^(-1/3) of A(Q) = sum_{q <= Q} rho(q)/q^2.

    D(s) = sum_q rho(q) q^(-1-s) = zeta(s) prod_chi L(s, chi) zeta(3s-1) zeta(4s-2) H(s),
    with H = prod_p H_p (_log_h_factors) absolutely convergent for Re s > 1/2, so
    Perron's formula puts the poles of zeta(4s-2) at s = 3/4 and of zeta(3s-1) at
    s = 2/3 into A(Q) with

        a = -zeta(3/4) zeta(5/4) prod_chi L(3/4, chi) H(3/4),
        b = -zeta(2/3)^2 prod_chi L(2/3, chi) H(2/3).

    The p^-2s coefficient of H_p is -2 - sum_chi chi(p) at odd p, so H(s) is taken as
    prod_{p <= P} H_p (1 - p^-2s)^-2 prod_chi (1 - chi(p) p^-2s)^-1 divided by
    zeta(2s)^2 prod_chi L(2s, chi), whose Euler factors these are; the omitted
    factors are 1 + O(p^(-1-s)).
    """
    import mpmath as mp

    p = np.array(sieve_primes(P))
    pf = p.astype(float)
    chi = np.where(p % 2, _CHI_MOD8[:, p % 8 // 2], 0)
    out = []
    with mp.workdps(30):
        for s, zetas in ((mp.mpf(3) / 4, mp.zeta(mp.mpf(3) / 4) * mp.zeta(mp.mpf(5) / 4)),
                         (mp.mpf(2) / 3, mp.zeta(mp.mpf(2) / 3) ** 2)):
            y2 = pf ** (-2 * float(s))
            log_h = (_log_h_factors(p, float(s)) - 2 * np.log1p(-y2)
                     - np.log1p(-chi * y2).sum(axis=0))
            h = mp.exp(math.fsum(log_h)) / (mp.zeta(2 * s) ** 2 * mp.fprod(_l_values(2 * s)))
            out.append(float(-zetas * mp.fprod(_l_values(s)) * h))
    return out[0], out[1]


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

    partial-sum-fit: Perron's formula on D(s) = sum_q rho(q) q^(-1-s) =
    zeta(s) prod_chi L(s, chi) zeta(3s-1) zeta(4s-2) H(s) (_pole_coefficients) gives

        A(Q) = sum_{q <= Q} rho(q)/q^2 = c_-1 log Q + c_0 + a Q^(-1/4) + b Q^(-1/3)
               + O(Q^(-1/2+eps)),

    a = 1.923559 and b = -0.313996 from the residues at s = 3/4 and 2/3, with H's
    Euler product cut at p <= 10^5 (cutting at 10^6 moves them by 1.1e-6 and
    1.4e-5).  The fit regresses A(Q_i) - a Q_i^(-1/4) - b Q_i^(-1/3) on log Q_i
    at the checkpoints Q_i = Q^(i/40), i = 20..40; its intercept is the Laurent
    c_0, as for sum 1/n = log N + gamma.  Each error is 3 x the maximum residual
    of that fit (over the log Q range, for c_-1): an empirical spread, not a
    certified bound like the euler-product's.
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
        a, b = _pole_coefficients()
        # fit A(Q_i) - a Q_i^(-1/4) - b Q_i^(-1/3) = c_-1 log Q_i + c_0 on a log grid
        xs = np.log(qs)
        ys = A - a * qs ** -0.25 - b * qs ** (-1 / 3)
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
    """A(Q_i) = sum_{q <= Q_i} rho(q)/q^2 on a geometric grid of checkpoints.

    rho by a multiplicative sieve: multiples of p^k trade rho(p^(k-1)) for
    rho(p^k).  rho(q) and q^2 are exact floats and np.cumsum adds in q order.
    """
    rho_q = np.ones(Q + 1, dtype=np.int64)
    for p in sieve_primes(Q):
        pk, k, prev = p, 1, 1
        while pk <= Q:
            cur = rho_prime_power(p, k)
            if cur != prev:
                rho_q[pk::pk] = rho_q[pk::pk] // prev * cur
            pk, k, prev = pk * p, k + 1, cur
    q = np.arange(1, Q + 1, dtype=float)
    A = np.cumsum(rho_q[1:] / q ** 2)
    checkpoints = sorted(set(int(round(Q ** (i / 40))) for i in range(20, 41)) - {0, 1})
    return A[np.array(checkpoints) - 1], np.array(checkpoints, dtype=float)


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
