"""Local densities, the singular series, and the constants of the main term.

The zero-frequency densities live here:

* sigma_p          -- limit of p^-6k #{pairs mod p^k: ell(b1 b2) = 0 (p^k),
                      b_i = b_i' (p^m_p)}, in closed form at p not dividing M;
                      its product over p (times M^2) is the value at 0 of the
                      Moebius-differenced Dirichlet series of N1~.
* sigma_p_cd       -- the (c, d)-twisted density with the det congruence.
* tau_p            -- the character-sum form (1/(v1,v2,p^inf)) sum_k S_p(v;k);
                      equals sigma_p(c, d) at v = c*d, which the acceptance
                      suite checks with both sides computed independently.
* s_hat            -- brute-force Fourier transform of S(v; q) over v mod q;
                      at w = 0 it collapses to (q/M^2) N1*(qM).
* kappa, c_constants -- the archimedean area constant and the Laurent /
                      partial-sum constants of sum rho(q) q^(-s-1).

Each of the three local densities is an exact rational, converted to float
once: a finite count up to a proved level k0, plus the rest of the series
summed exactly as a geometric series (_geometric_limit has the shared
integral and each density's docstring its k0 and ratio), so every tail_bound
is 0.  The Euler-product tail of c_constants rests on frozen constants from
qdl.constants.

scipy's quad is imported inside the four functions that integrate, and
mpmath inside the three that evaluate L-values, so importing this module
loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from . import constants as C
from .counts import pair_sum, sp_vk
from .cyclotomic import CycInt, Vec2Int, ell, norm
from .expsums import CongruenceData, n1_tilde
from .residues import divisors, factorize, is_prime, rho_prime_power, sieve_primes, vp
from .weights import BumpWeight

# the largest p^k at which a local density counts: a count mod p^k makes up to
# about p^k (1 + 2/p) orbit solves
LOCAL_COUNT_BUDGET = 10 ** 6


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

    There N1~(p^e) = counts.pair_sum(p^e, 1, 0, 0, []) / p^(6e), whatever beta' is, and with
    x = p^-2

        N1~(p^e) = 1 + sum_{j <= e} x^j ((1 - x) + (1 - 1/p)^2 R(j)),

    R(j) the number of pairs (t, u) with 1 <= t <= j and u^4 = -1 (mod p^t): 4j at
    p = 1 (mod 8), 1 at p = 2, else 0.  The limit e -> oo is the closed form above.
    """
    pf = p.astype(float)
    split = np.where(p % 8 == 1, 4 / (pf + 1) ** 2, 0.0)
    return np.where(p == 2, 4 / 3, 1 + pf ** -2 + split)


def _geometric_limit(p: int, k0: int, r: Fraction, count) -> Fraction:
    """lim a_k of the exact counts a_k = count(k), given a_k = L - C r^k at every
    k >= k0: a_k0 when r = 0, else a_k0 + (a_(k0+1) - a_k0) / (1 - r).  A count
    past p^k = LOCAL_COUNT_BUDGET raises ValueError.

    sigma_p, tau_p and sigma_p(c, d) are limits of such counts.  Their
    increments share one integral, and the level k0 and ratio r of each are read
    off it.  Let m = v_p(M), b_i = beta_i' mod p^m, B_i = b_i + p^m O_p, and
    psi(x) = e(<x, 1>) on K_p, trivial exactly on O_p as <., .> is unimodular.
    With Haar measure of mass 1 on O_p and lam = x + y zeta, (x, y) primitive
    mod p^j, put

        E_j(lam) = int over B1 x B2 of psi(lam beta1 beta2 / p^j).

    Integrating beta2 over b2 + p^m O_p gives p^(-4m) times the integral over
    beta1 in B1 with lam beta1 in p^(j-m) O_p of psi(lam b2 beta1 / p^j).  That
    factors over the primes P | p of O_p = prod O_P (ramification e, degree f,
    w = v_P(lam), c_i = v_P(b_i) read mod p^m, i.e. capped at e m):

        (i)  w < e (j - 2m):  [c1, c2 >= e m] p^(-e f (j - m) + f w),
        (ii) w >= e (j - 2m): [c1, c2 >= e (j - m) - w] p^(-e f m) psi_P(lam b1 b2 / p^j).

    Proof: the P-part of beta1 runs over b1 + P^(em) met with P^A, A = e(j-m) - w.
    That is the coset b1 + P^(em) when A <= em and c1 >= A, the ideal P^A when
    A > em and c1 >= em, and empty otherwise; beta -> psi_P(lam b2 beta / p^j)
    integrates over x + P^h to p^(-f h) psi_P(lam b2 x / p^j) when
    w + v_P(b2) + h >= e j, and to 0 otherwise.

    A primitive lam lies in at most one P: two primes (p, zeta - s), s^4 = -1,
    would give p | y and then p | x.  At p = 3, 5, 7 (mod 8) it lies in none
    (f = 2, and 1, zeta are independent mod P).  At p = 2 there is one P, with
    e = 4 and w <= 1, as x^4 + y^4 = 2 (mod 16) for odd x, y.  At p = 1 (mod 8),
    e = f = 1 and w = v_p(x^4 + y^4) at that P.
    """
    top = k0 + (r != 0)
    if p ** top > LOCAL_COUNT_BUDGET:
        raise ValueError(f"the local density counts mod {p}^{top}, past the enumeration "
                         f"budget {LOCAL_COUNT_BUDGET}")
    a0 = count(k0)
    return a0 if r == 0 else a0 + (count(k0 + 1) - a0) / (1 - r)


def _sigma_p_local(p: int, m: int, b1: CycInt, b2: CycInt) -> tuple[Fraction, int]:
    """(sigma_p, k0) at v_p(M) = m, b_i = beta_i' with coordinates in [0, M)
    (only b_i mod p^m counts): the counts a_k = N1~(p^k) ("full") are
    L - C r^k from k0 on, unless the closed form at m = 0 is reached at
    p = 1 (mod 8), where they carry a k p^(-2k) term (_sigma_p_coprime).

    m = 0: the closed form of _sigma_p_coprime, k0 = 0.

    A unit b_i: a_k = [ell(b1 b2) = 0 (p^m)] p^(-6m) for every k >= m, so k0 = m.
    Proof, with b1 the unit: for k >= m each of the p^(4(k-m)) beta1 mod p^k is a
    unit, so beta2 -> beta1 beta2 maps b2 + p^m O bijectively onto
    b1 b2 + p^m O mod p^k.  As ell: O -> Z^2 is onto, that coset holds
    p^(2(k-m)) gamma with ell(gamma) = 0 (p^k) if ell(b1 b2) = 0 (p^m), else none.

    Both b_i = 0 (mod p): beta_i = p gamma_i maps b_i/p + p^(m-1) O onto B_i
    with Jacobian p^-4 each, and ell(beta1 beta2) = p^2 ell(gamma1 gamma2), so
    a_k = p^-4 a_(k-2) at (p^(m-1), b/p) for k >= m + 1: sigma_p is p^-4 times
    that one, from k0 two levels up.

    Otherwise both b_i are non-units, not both 0 mod p.  Detecting
    ell = 0 (p^k) by the characters lam mod p^k, a_k is the sum over j <= k of
    the E_j (_geometric_limit) over the primitive lam mod p^j.  Take j > 2m.
    A factor (i) vanishes unless b1 = b2 = 0 (p^m) at its P.  At p = 2 and
    p = 3, 5, 7 (mod 8) every factor of every lam is (i), and b1 = b2 = 0 at
    every P would make both 0 mod p: the increments vanish, r = 0.  At
    p = 1 (mod 8) a lam contributes only if it lies in a P0 with w >= j - 2m and
    b1 = b2 = 0 (p^m) at the other three P; one b_i is then a P0-unit (else both
    are 0 mod p), so (ii) needs w >= j - m.  Those lam have lam_P0 = p^(j-m) z,
    and for each z mod p^m the (x, y) with y a unit, phi(p^j) of them; the sum of
    psi_P0 over z is p^m [v_P0(b1 b2) >= m].  The increment at j is a constant
    times phi(p^j) p^(-3j), so r = p^-2.  Both ways k0 = 2m.
    """
    if m == 0:
        x = Fraction(1, p * p)
        return (Fraction(4, 3) if p == 2 else 1 + x + Fraction(4, (p + 1) ** 2) * (p % 8 == 1)), 0
    if norm(b1) % p or norm(b2) % p:
        return Fraction(all(x % p ** m == 0 for x in ell(b1 * b2)), p ** (6 * m)), m
    if b1.scalar_divisible(p) and b2.scalar_divisible(p):
        val, k0 = _sigma_p_local(p, m - 1, *(CycInt(*(x // p for x in b.coords()))
                                             for b in (b1, b2)))
        return val / p ** 4, k0 + 2
    r = Fraction(1, p * p) if p % 8 == 1 else Fraction(0)
    return _geometric_limit(p, 2 * m, r, lambda k: Fraction(
        pair_sum(p ** k, p ** m, b1, b2, []), p ** (6 * k))), 2 * m


def sigma_p(p: int, cong: CongruenceData) -> LocalDensityEstimate:
    """Zero-frequency local density at p: lim N1~(p^k) in the full-modulus
    convention, exactly, with tail_bound 0.

    At p not dividing M: the closed form _sigma_p_coprime, truncation_k 0.
    At p | M: the exact rational of _sigma_p_local, with truncation_k its k0.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = vp(cong.M, p)
    if m == 0:
        return LocalDensityEstimate(p, float(_sigma_p_coprime(np.array([p]))[0]), 0, 0.0,
                                    "sigma_p")
    val, k0 = _sigma_p_local(p, m, cong.beta1p.lift(), cong.beta2p.lift())
    return LocalDensityEstimate(p, float(val), k0, 0.0, "sigma_p")


def sigma_p_product(cong: CongruenceData) -> tuple[float, float]:
    """prod_p sigma_p and its error.

    The closed form at p not dividing M over p <= P = 2e5, in one numpy pass,
    times the exact sigma_p at p | M.  Each omitted factor obeys
    1 < sigma_p < 1 + 5/p^2, and sum_{p > P} 1/p^2 <= 2.03248 / (P log P)
    (Rosser-Schoenfeld, as in c_constants), so the omitted product lies in
    [1, e^T] with T = 5 * 2.03248 / (P log P), and the error is at most
    v (e^T - 1), v the product over p <= P.
    """
    P = 200_000
    p = np.array(sieve_primes(P))
    val = math.exp(math.fsum(np.log(_sigma_p_coprime(p[cong.M % p != 0]))))
    for q in factorize(cong.M):
        val *= sigma_p(q, cong).value
    return val, val * math.exp(5 * 2.03248 / (P * math.log(P))) - val


def _tail_level(p: int, m: int, g: int, w: Vec2Int) -> int:
    """k0 = max(g, 2m) + v_p(w1^4 + w2^4) for w primitive: from k0 on the
    partial sums of S_p(p^g w; k) are L - C p^(-3k) (proof at tau_p)."""
    return max(g, 2 * m) + vp(w[0] ** 4 + w[1] ** 4, p)


def tau_p(v: Vec2Int, p: int, cong: CongruenceData | None = None) -> LocalDensityEstimate:
    """tau_p(v) = (v1, v2, p^inf)^-1 sum_{k >= 0} S_p(v; k), exactly, with
    tail_bound 0 and truncation_k k0 = _tail_level.

    S_p(v; k) (counts.sp_vk, exact) is the sum of E_k(lam) (_geometric_limit)
    over the primitive lam mod p^k with lam.v = 0 (p^k).  Write v = p^g v',
    v' primitive, l' = v_p(v1'^4 + v2'^4), and let k > k0 = max(g, 2m) + l'.
    Such lam are u (-v2' + v1' zeta) (mod p^(k-g)), u a unit, phi(p^(k-g)) p^(2g)
    of them; as k - g > l', each has v_p(N(lam)) = l' and the valuations of
    -v2' + v1' zeta at every P, so w <= l' < k - 2m <= e (k - 2m) and every
    factor is (i).  So E_k(lam) = [b1 = b2 = 0 (p^m)] p^(-4k + l') and

        S_p(v; k) = [b1 = b2 = 0 (p^m)] (1 - 1/p) p^(-3k + g + l'),

    a geometric series of ratio p^-3 from k0 + 1 on.
    """
    if v == (0, 0):
        raise ValueError("tau_p requires v != 0")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cong = cong or CongruenceData.trivial()
    g = vp(gcd(v[0], v[1]), p)
    k0 = _tail_level(p, vp(cong.M, p), g, (v[0] // p ** g, v[1] // p ** g))
    b1, b2 = cong.beta1p.lift(), cong.beta2p.lift()
    term = lru_cache(maxsize=None)(lambda k: sp_vk(tuple(v), p, k, cong.M, b1, b2))
    val = _geometric_limit(p, k0, Fraction(1, p ** 3),
                           lambda K: sum(map(term, range(K + 1))) / p ** g)
    return LocalDensityEstimate(p, float(val), k0, 0.0, "tau_p")


def sigma_p_cd(p: int, c: Vec2Int, d: int, cong: CongruenceData) -> LocalDensityEstimate:
    """sigma_p(c, d) = lim a_K, exactly, with tail_bound 0 and truncation_k
    k0 = _tail_level, where

        a_K = p^-7K #{(b1, b2) in V_{p^K}: ell(b1 b2) in Z_p d c + p^K Z_p^2}.

    With h = v_p(d) and K >= max(h, m), the characters lam mod p^K of that
    target are the lam with lam.dc = 0 (p^K), p^(K+h) of them, so
    a_K = p^-h sum_{j <= K} (sum of E_j over the primitive lam mod p^j with
    lam.dc = 0 (p^j)) = p^-h sum_{j <= K} S_p(dc; j): from k0 on,
    a_K = L - C p^(-3K) (tau_p, with g = h and v' = (d/p^h) c).  The count is
    pair_sum's, independent of tau_p's sp_vk, so sigma_p(c, d) = tau_p(cd)
    (Lemma 9.3) compares two computations of one rational.
    """
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k0 = _tail_level(p, vp(cong.M, p), vp(d, p), c)
    b1, b2 = cong.beta1p.lift(), cong.beta2p.lift()
    val = _geometric_limit(p, k0, Fraction(1, p ** 3), lambda K: Fraction(
        pair_sum(p ** K, cong.M, b1, b2, [[d * c[0], d * c[1]]]), p ** (7 * K)))
    return LocalDensityEstimate(p, float(val), k0, 0.0, "sigma_p_cd")


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
