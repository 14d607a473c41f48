"""Complete exponential sums S1, S2 over (O_K/q)^2 and their zero frequencies.

Both sums are defined by congruence-constrained character sums

    S1(a1, a2; q)       = q^-3 * sum over beta1, beta2 mod q with
                          ell(beta1 beta2) = 0 (q/(q,M)), beta_i = beta_i' ((q,M))
                          of e(<a1 beta1 + a2 beta2, 1>/q)
    S2(a1, a2, c; d, q) = (dq)^-3 * sum over beta1, beta2 mod dq with
                          ell = 0 (d), det(c, ell) = 0 (dq/(q,M)),
                          beta_i = beta_i' ((dq,M)), same phase mod dq

The brute evaluators enumerate residue pairs literally (vectorized, with the
phase accumulated as integer counts per rational phase class, so the only
floating-point step is one evaluation of a count vector against roots of
unity).  The fast evaluators detect the ell/det congruences with additive
characters, execute the beta2 sum, and reduce each remaining term to an exact
character sum over a beta1 coset computed by integer linear algebra mod q.
Fast S1 first factors over the prime powers of q (CRT), and at primes not
dividing M sums every multiplier's coset sum in closed form, one Ramanujan sum
per unit-scalar orbit of multipliers.

The zero-frequency normalizations use the full-modulus convention

    N1~(q) = q^-6 #{beta pairs: ell(beta1 beta2) = 0 (q), beta_i = beta_i' ((q,M))}

(the one whose p^k values match N1~(p^m) = p^-6m * [ell compatibility]); the
Moebius-differenced coefficients in the singular-series module use the
reduced-modulus variant, which is the one entering the S-hat identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from . import InvariantError
from .counts import count_pairs, coset_phase_counts, orbit_rows, phase_sum
from .cyclotomic import (CycInt, CycRes, Vec2Int, conj_star, ell, ell_matrices, ell_matrix,
                         mult_matrix, norm)
from .residues import IntPoly, divisors, factorize, is_prime, root_counts, vp

# enumeration budgets; configuration constants, not hard limits of the method
S1_BRUTE_QMAX = 9
S1_FAST_QMAX = 10_000
# the p-not-dividing-M rows of S1 hold residues mod q^2, and their int64
# mat-vec sums four products of two such residues, under 4 q^4 <= 4e16; a
# row's term p^(4s+v) c_m(X) is at most p^(4s) m^2, level s < e has at most
# 2m rows, so the terms add up to at most 2 q^4/(p-1) and the sum with the
# lambda = 0 term q^4 stays under 3 q^4 <= 3e16 < 2^63 at every q <= S1_FAST_QMAX
S2_BRUTE_DQMAX = 6
S2_FAST_DQMAX = 200


class BudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class CongruenceData:
    """Congruence datum (M, beta1', beta2') for the finite weight Phi^f."""

    M: int
    beta1p: CycRes
    beta2p: CycRes
    strict: bool = False

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.beta1p.q != self.M or self.beta2p.q != self.M:
            raise ValueError("beta' residues must live mod M")
        if self.strict and not self.compatible():
            raise ValueError("ell(beta1' * beta2') != 0 mod M")

    def reduced(self, g: int) -> tuple[CycInt, CycInt]:
        """beta1', beta2' with coordinates reduced into [0, g)."""
        return tuple(CycInt(*(x % g for x in b.coords)) for b in (self.beta1p, self.beta2p))

    def compatible(self) -> bool:
        return all(x % self.M == 0 for x in ell(self.beta1p.lift() * self.beta2p.lift()))

    @staticmethod
    def trivial() -> "CongruenceData":
        return CongruenceData(1, CycRes((0, 0, 0, 0), 1), CycRes((0, 0, 0, 0), 1))


@dataclass(frozen=True)
class ExpSumValue:
    """S1 normalized by q^-3, or S2 by (dq)^-3."""

    value: complex


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _residue_block(q: int, g: int, b_coords: tuple[int, int, int, int]) -> np.ndarray:
    """All beta mod q with beta = b (mod g), as an (N, 4) int array."""
    step = q // g
    axes = [np.arange(step) * g + (b_coords[i] % g) for i in range(4)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    return grid % q


def _pair_phase_counts(q: int, adm1: np.ndarray, adm2: np.ndarray,
                       idx1: np.ndarray, idx2: np.ndarray,
                       a1: CycInt, a2: CycInt) -> dict[int, int]:
    """Integer counts of e(r/q) phases over an admissible index-pair list."""
    u = adm1 @ np.array(ell_matrix(a1)[0], dtype=np.int64) % q
    w = adm2 @ np.array(ell_matrix(a2)[0], dtype=np.int64) % q
    tot = (u[idx1] + w[idx2]) % q
    binc = np.bincount(tot, minlength=q)
    return {int(r): int(c) for r, c in enumerate(binc) if c}


def _admissible_pairs(adm1: np.ndarray, adm2: np.ndarray, keep) -> tuple:
    """Index pairs (i, j) with keep(l1, l2) true for ell(adm1[i] * adm2[j])."""
    idx1_all, idx2_all = [], []
    for i, A in enumerate(ell_matrices(adm1)):
        ok = np.nonzero(keep(*(A @ adm2.T)))[0]
        idx1_all.append(np.full(len(ok), i, dtype=np.int64))
        idx2_all.append(ok)
    return np.concatenate(idx1_all), np.concatenate(idx2_all)


@lru_cache(maxsize=16)
def _admissible_pairs_s1(q: int, g: int, b1c, b2c) -> tuple:
    qp = q // g
    adm1 = _residue_block(q, g, b1c)
    adm2 = _residue_block(q, g, b2c)
    return (adm1, adm2,
            *_admissible_pairs(adm1, adm2, lambda l1, l2: (l1 % qp == 0) & (l2 % qp == 0)))


def s1_brute(a1: CycInt, a2: CycInt, q: int, cong: CongruenceData) -> ExpSumValue:
    """S1 by direct enumeration of residue pairs (the oracle)."""
    if q < 1:
        raise ValueError(f"S1 needs q >= 1, got q = {q}")
    if q > S1_BRUTE_QMAX:
        raise BudgetExceeded(f"brute-force S1 capped at q <= {S1_BRUTE_QMAX}")
    g = gcd(q, cong.M)
    adm1, adm2, idx1, idx2 = _admissible_pairs_s1(
        q, g, tuple(c % g for c in cong.beta1p.coords),
        tuple(c % g for c in cong.beta2p.coords))
    counts = _pair_phase_counts(q, adm1, adm2, idx1, idx2, a1, a2)
    return ExpSumValue(phase_sum(counts.items(), q) / q ** 3)


def s2_brute(a1: CycInt, a2: CycInt, c: Vec2Int, d: int, q: int,
             cong: CongruenceData) -> ExpSumValue:
    """S2 by direct enumeration of residue pairs mod dq (the oracle)."""
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
    if d < 1 or q < 1:
        raise ValueError(f"S2 needs d, q >= 1, got d = {d}, q = {q}")
    if d * q > S2_BRUTE_DQMAX:
        raise BudgetExceeded(f"brute-force S2 capped at dq <= {S2_BRUTE_DQMAX}")
    n = d * q
    g = gcd(n, cong.M)
    Q0 = n // gcd(q, cong.M)
    adm1 = _residue_block(n, g, tuple(cong.beta1p.coords))
    adm2 = _residue_block(n, g, tuple(cong.beta2p.coords))
    idx1, idx2 = _admissible_pairs(
        adm1, adm2, lambda l1, l2: ((l1 % d == 0) & (l2 % d == 0)
                                    & ((c[0] * l2 - c[1] * l1) % Q0 == 0)))
    counts = _pair_phase_counts(n, adm1, adm2, idx1, idx2, a1, a2)
    return ExpSumValue(phase_sum(counts.items(), n) / (d ** 3 * q ** 3))


# ---------------------------------------------------------------------------
# fast evaluators
# ---------------------------------------------------------------------------

def _s1_cosets(a1: CycInt, a2: CycInt, q: int, cong: CongruenceData) -> complex:
    """S1(a1, a2; q) as one beta1-coset character sum per multiplier, at any q.

    Detecting ell(beta1 beta2) = 0 (q') with characters and summing beta2
    leaves, for each (x, y) mod q' = q/(q,M),

        q'^2/q^3 * psi_q(a2 b2') * sum over {beta = b1' (g),
             g(x + y z) beta = -a2 (q')} of e(<(a1 + g(x+yz) b2') beta, 1>/q).

    s1_fast runs it on the prime powers dividing M; the tests run it at
    composite q as the oracle of the factored path.
    """
    g = gcd(q, cong.M)
    qp = q // g
    lams = (CycInt(g * x, g * y, 0, 0) for x in range(qp) for y in range(qp))
    b1, b2 = cong.reduced(g)
    counts = coset_phase_counts(q, g, lams, -a2, b1, b2, a1, shift=(a2 * b2).c3)
    return phase_sum(counts.items(), q) * qp ** 2 / q ** 3


class _S1Orbits(NamedTuple):
    """The (a1, a2)-free part of S1 at p^e, p not dividing M, one entry per
    row of counts.orbit_rows(p, e), as _s1_prime_power_coprime defines it."""

    star: np.ndarray   # (N, 4) lambda'* mod q^2, lambda' after the shift
    div: np.ndarray    # (N,) p^(2s+v)
    mod: np.ndarray    # (N,) p^(e+s+v): m | X iff it divides T
    k: np.ndarray      # (N,) p^(4s+v) m/p
    vmod: np.ndarray | None  # (N,) p^(s+v), the modulus of the v-gates; None when every v = 0
    ends: tuple


@lru_cache(maxsize=16)
def _s1_orbit_table(p: int, e: int) -> _S1Orbits:
    """s, v and lambda'* of each orbit row at p^e."""
    q = p ** e
    rows = orbit_rows(p, e)
    s, m = rows.s, rows.m
    xp, yp = rows.rep.T
    nrm = xp ** 4 + yp ** 4  # below 2^63, as x', y' <= q + 1
    xp = xp + m * (nrm % (m * p) == 0)  # the shift where v > e - s
    nrm = xp ** 4 + yp ** 4
    v = sum(nrm % p ** t == 0 for t in range(1, e + 2))  # vp(nrm) capped at e + 1
    if np.any(v > e - s):
        raise InvariantError(f"v > e - s after the shift mod {p}^{e}")
    star = np.stack([xp ** 3, -xp ** 2 * yp, xp * yp ** 2, -yp ** 3], axis=1) % (q * q)
    ppow = np.array([p ** t for t in range(4 * e)], dtype=np.int64)
    return _S1Orbits(star, ppow[2 * s + v], ppow[e + s + v], ppow[4 * s + v] * m // p,
                     ppow[s + v] if v.any() else None, rows.ends)


def _s1_orbit_terms(a1: CycInt, a2: CycInt, p: int, e: int) -> np.ndarray:
    """Each orbit's sum of coset sums, p^(4s+v) c_m(X), on the rows with
    p^s | a1, a2 (the first rows; the others sum to 0)."""
    tab = _s1_orbit_table(p, e)
    q = p ** e
    qq = q * q
    sa = vp(gcd(q, *a1.coords(), *a2.coords()), p)  # the gate p^s | a1, a2 is s <= sa
    n = tab.ends[sa]
    w = (a1 * a2).coords()
    T = tab.star[:n] @ np.array([w[3] % qq, w[2] % qq, w[1] % qq, w[0] % qq]) % qq
    k = tab.k[:n]
    if tab.vmod is not None:  # the gates p^v | a_i' lambda'*, that is p^(s+v) | a_i lambda'*
        gates = [[t % q for t in row] for row in mult_matrix(a1) + mult_matrix(a2)]
        shut = (tab.star[:n] @ np.array(gates).T % tab.vmod[:n, None]).any(axis=1)
        T[shut] = 0
        k = np.where(shut, 0, k)
    if (T % tab.div[:n]).any():
        raise InvariantError(f"p^v does not divide <a1' a2' lambda'*, 1> mod {p}^{e}")
    mod = tab.mod[:n]
    return k * (p * (T % mod == 0) - (T % (mod // p) == 0))


def _s1_prime_power_coprime(a1: CycInt, a2: CycInt, p: int, e: int) -> int:
    """p^e S1(a1, a2; p^e) for p not dividing M, an exact integer.

    The coset sum of lambda = x + y*zeta (mod q = p^e) is the sum of
    e(<a1 beta, 1>/q) over {beta mod q : lambda beta = -a2 (q)}, and
    q S1 is the sum of the coset sums over every lambda.  Let
    s = min(vp(x), vp(y)), lambda' = lambda/p^s = x' + y' zeta, m = p^(e-s),
    v = vp(x'^4 + y'^4), a_i' = a_i/p^s, u = (x'^4 + y'^4)/p^v and
    lambda'* = (x'^3, -x'^2 y', x' y'^2, -y'^3) = conj_star(lambda').  Then
    the sum is

        p^(4s+v) [p^s | a1, a2] [p^v | a1' lambda'*, a2' lambda'*]
            * e(p^s (-u^-1 <a1' a2' lambda'*, 1>/p^v mod m) / q).

    Proof.
    * beta mod q is beta mod m plus m*gamma with gamma mod p^s free.  The
      gamma sum is p^(4s) [p^s | a1], as <., 1> is unimodular (GRAM), and
      lambda beta = -a2 (q) needs p^s | a2 and leaves lambda' beta = -a2' (m).
    * lambda' is primitive, so it lies in at most one prime above p: two of
      the primes (p, zeta - r), r^4 = -1, would give p | y', then p | x'.
      So (lambda') + (m) = P^min(v, e-s) for that prime P of degree one.
    * If v > e - s, x' -> x' + m changes nothing mod m and makes
      v = e - s, since (x' + m)^4 + y'^4 = x'^4 + y'^4 + 4 x'^3 m
      (mod p m) at odd p.  At p = 2 a primitive non-unit has x', y' odd
      and v = 1 <= e - s.
    * Now v <= e - s and lambda' lambda'* = p^v u, u a unit mod p.  Then
      lambda' maps O/m onto (P^v)/(m), of index p^v, and its kernel is
      (m/p^v) lambda'* O: that lies in the kernel and also has p^v
      elements.  A solution exists iff p^v | a2' lambda'*, and then
      beta0 = -u^-1 a2' lambda'*/p^v is one.  The character is trivial on
      the kernel iff p^v | a1' lambda'* (unimodularity again), and its
      value at beta0 is the phase above.
    * lambda = 0 is the level s = e: q^4 [a1 = a2 = 0 (q)].  A unit,
      s = v = 0, has the phase -<a1 a2 lambda*, 1>/(x^4 + y^4) mod q.
    * At odd p not 1 (mod 8), -1 is not a fourth power mod p, so
      p | x'^4 + y'^4 only when p | x', y'.  Every primitive lambda' is a
      unit there, and no v-gate runs.

    Orbits.  For a unit t, substituting gamma = t beta gives the coset sum
    of t lambda at (a1, a2) as that of lambda at (t^-1 a1, a2).  In the
    closed form, s, v, the count and both gates are unchanged by
    lambda -> t lambda, and (t lambda')* = t^3 lambda'*, u -> t^4 u, so the
    phase numerator r = -u^-1 X, X = <a1' a2' lambda'*, 1>/p^v, moves to
    t^-1 r mod m.  So the phi(m) members of an orbit of level s (one row of
    counts.orbit_rows) total p^(4s+v) times the Ramanujan sum
    c_m(r) = c_m(X) = m [m | X] - (m/p) [m/p | X], as c_m is unchanged by a
    unit scaling of r.  With T = <a1 a2 lambda'*, 1> mod q^2 = p^(2s+v) X,
    m | X iff p^(e+s+v) | T (s + v <= e keeps it inside q^2).  So

        q S1 = q^4 [a1 = a2 = 0 (q)] + sum over open rows of p^(4s+v) c_m(X),

    and the table of rows depends on (p, e) only.  coset_phase_counts over
    an orbit's members stays the oracle of each row's term.
    """
    q = p ** e
    zero = a1.scalar_divisible(q) and a2.scalar_divisible(q)
    return q ** 4 * zero + int(_s1_orbit_terms(a1, a2, p, e).sum())


def s1_fast(a1: CycInt, a2: CycInt, q: int, cong: CongruenceData) -> ExpSumValue:
    """S1 as a product over the prime powers p^e || q (CRT).

    With u = (q/p^e)^-1 mod p^e, 1/q = sum of u/p^e mod 1, and both the ell
    congruence and beta = beta' (q, M) split over the prime powers, so

        S1(a1, a2; q) = prod over p^e || q of S1(u a1, u a2; p^e),

    each factor with the congruence datum at gcd(p^e, M).  A factor at p not
    dividing M sums a closed form over every multiplier lambda = x + y*zeta:
    with lambda = p^s lambda', lambda' primitive and v = vp(N(lambda')), its
    coset sum is p^(4s+v) e(r/p^e) when p^s | a1, a2 and p^v | a_i/p^s times
    lambda'*, and 0 otherwise.  The unit multiples t lambda move r to t^-1 r,
    so each orbit sums to p^(4s+v) times a Ramanujan sum, and p^e times the
    factor is an exact integer (proof in _s1_prime_power_coprime).  A factor
    at p | M takes the coset sums of _s1_cosets.
    """
    if q < 1:
        raise ValueError(f"S1 needs q >= 1, got q = {q}")
    if q > S1_FAST_QMAX:
        raise BudgetExceeded(f"fast S1 capped at q <= {S1_FAST_QMAX}")
    val = complex(1)
    for p, e in factorize(q).items():
        pe = p ** e
        u = pow(q // pe, -1, pe)
        if cong.M % p:
            val *= _s1_prime_power_coprime(u * a1, u * a2, p, e) / pe
        else:
            val *= _s1_cosets(u * a1, u * a2, pe, cong)
    return ExpSumValue(val)


def s2_fast(a1: CycInt, a2: CycInt, c: Vec2Int, d: int, q: int,
            cong: CongruenceData) -> ExpSumValue:
    """S2 via the x, y, z parametrization (gamma_c multiplier) and exact
    beta1-coset character sums mod dq."""
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
    if d < 1 or q < 1:
        raise ValueError(f"S2 needs d, q >= 1, got d = {d}, q = {q}")
    n = d * q
    if n > S2_FAST_DQMAX:
        raise BudgetExceeded(f"fast S2 capped at dq <= {S2_FAST_DQMAX}")
    g2 = gcd(n, cong.M)
    gq = gcd(q, cong.M)
    Q0 = n // gq
    npr = n // g2
    cyc_c = CycInt(-c[1], c[0], 0, 0)  # c1*zeta - c2; det(c, ell(a)) = <a, c1 z - c2>
    gammas = (gq * x0 * cyc_c + q * CycInt(x1, y1, 0, 0)
              for x0 in range(Q0) for x1 in range(d) for y1 in range(d))
    b1, b2 = cong.reduced(g2)
    counts = coset_phase_counts(n, g2, gammas, -a2, b1, b2, a1, shift=(a2 * b2).c3)
    val = (phase_sum(counts.items(), n)
           * npr ** 4 / (d ** 3 * q ** 3 * d * d * Q0))
    return ExpSumValue(val)


# ---------------------------------------------------------------------------
# zero frequencies
# ---------------------------------------------------------------------------

def n1_tilde(q: int, cong: CongruenceData, ell_modulus: str = "full") -> float:
    """N1~(q): normalized count of pairs at the zero frequency.

    ell_modulus selects the congruence ell(beta1 beta2) = 0 mod q ("full",
    the convention of the zero-frequency bounds) or mod q/(q,M) ("reduced",
    the convention entering the Moebius coefficients N1*).
    """
    if ell_modulus not in ("full", "reduced"):
        raise ValueError("ell_modulus must be 'full' or 'reduced'")
    if q < 1:
        raise ValueError(f"N1~ needs q >= 1, got q = {q}")

    def rows(p, e):
        if ell_modulus == "full":
            return []
        m = min(e, vp(cong.M, p))
        s = p ** (e - m)
        return [[s, 0], [0, s]]

    cnt = count_pairs(q, cong.M, cong.beta1p.lift(), cong.beta2p.lift(), rows)
    return cnt / q ** 6


def n2_tilde(c: Vec2Int, d: int, q: int, cong: CongruenceData) -> float:
    """N2~(c, d; q) = (d^3 q^4)^-1 S2(0,0; d,q), computed as an exact count."""
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
    if d < 1 or q < 1:
        raise ValueError(f"N2~ needs d, q >= 1, got d = {d}, q = {q}")
    n = d * q
    mq = cong.M

    def rows(p, e):
        h = min(vp(d, p), e)
        v0 = vp(d, p) + vp(q, p) - min(vp(q, p), vp(mq, p))
        v0 = min(v0, e)
        return [[p ** h * c[0], p ** h * c[1]],
                [p ** v0, 0], [0, p ** v0]]

    cnt = count_pairs(n, cong.M, cong.beta1p.lift(), cong.beta2p.lift(), rows)
    return cnt / (d ** 6 * q ** 7)


def a_alpha(alpha: CycInt, p: int) -> int:
    """Main term of the prime-modulus S1 evaluation: -1 plus the number of
    roots of f_alpha on P^1(F_p), i.e. -1 + [p | <alpha,1>] + #{x mod p :
    f_alpha(x) = 0 (p)}, the point at infinity being a root exactly when p
    divides the leading coefficient <alpha,1>."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    nroots = int(root_counts([IntPoly(*alpha.coords())], [p])[0, 0])
    return -1 + (1 if alpha.c3 % p == 0 else 0) + nroots


def s2_bound_rhs(a1: CycInt, a2: CycInt, c: Vec2Int, d: int, q: int,
                 cong: CongruenceData) -> float:
    """Right side of the S2 upper bound (the M-dependent display), with the
    implicit constant set to 1 and the o(1) exponent set to 0.

    Only used for ratio monitoring; the (x, y, z) sum is enumerated literally.
    """
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
    n = d * q
    if n > 60:
        raise BudgetExceeded("s2_bound_rhs enumeration capped at dq <= 60")
    M = cong.M
    alpha = a1 * a2
    Nalpha = norm(alpha)
    gq = gcd(q, M)
    cyc_c = CycInt(c[1], -c[0], 0, 0)  # c2 - c1*zeta as in gamma_c
    # the (x, y, z, r) sum does not depend on the divisor tuple; do it once
    divs_n = divisors(n)
    inner = 0.0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                gam = gq * x * cyc_c + q * CycInt(y, z, 0, 0)
                yv = 0 if gam.is_zero() else (alpha * conj_star(gam)).c3
                for r in divs_n:
                    if (M * yv) % (n // r) == 0:
                        inner += 1.0 / r

    total = 0.0
    divs_d = divisors(d)
    divs_q = divisors(q)
    for gp in divs_d:
        for hp in divs_d:
            if d % (gp * hp) != 0:
                continue
            for gpp in divs_q:
                for hpp in divs_q:
                    if q % (gpp * hpp) != 0:
                        continue
                    gg, hh = gp * gpp, hp * hpp
                    if not (M * alpha).scalar_divisible(gg):
                        continue
                    t = M ** 2 * Nalpha
                    if t % gg ** 8 != 0 or (t // gg ** 8) % (hh * hh) != 0:
                        continue
                    total += gg ** 4 * hh / n ** 2 * inner
    return total
