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
dividing M sums the unit multipliers in closed form.

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

import numpy as np

from .counts import ZERO, count_pairs, coset_phase_counts, phase_sum
from .cyclotomic import CycInt, CycRes, Vec2Int, conj_star, ell, ell_matrices, ell_matrix, norm
from .residues import IntPoly, divisors, factorize, is_prime, root_counts, vp

# enumeration budgets; configuration constants, not hard limits of the method
S1_BRUTE_QMAX = 9
S1_FAST_QMAX = 10_000
S2_BRUTE_DQMAX = 6
S2_FAST_DQMAX = 200
# _s1_prime_power_coprime walks its q x q grid of (x, y) in blocks of whole x
# rows, about this many entries each, so its int64 temporaries stay O(block)
_S1_BLOCK = 2 ** 16


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


def _s1_prime_power_coprime(a1: CycInt, a2: CycInt, p: int, e: int) -> complex:
    """S1(a1, a2; p^e) for p not dividing M, vectorized over (x, y) mod p^e.

    lambda = x + y*zeta is a unit mod p^e exactly when p does not divide its
    norm x^4 + y^4; then the beta1 solution is unique and the phase is
    -<a1 a2 lambda*, 1> / (x^4 + y^4) mod p^e, a closed form in the
    coordinates of a1*a2.  Only the non-units need the generic character-sum
    solver.
    """
    q = p ** e
    w = [c % q for c in (a1 * a2).coords()]
    inv = np.zeros(q, dtype=np.int64)
    units = np.flatnonzero(np.arange(q) % p)
    inv[units] = [pow(int(t), -1, q) for t in units]
    ys = np.arange(q, dtype=np.int64)
    y2 = ys * ys % q
    counts = np.zeros(q, dtype=np.int64)
    rows = max(1, _S1_BLOCK // q)
    for x0 in range(0, q, rows):
        xs = np.arange(x0, min(x0 + rows, q), dtype=np.int64)[:, None]
        x2 = xs * xs % q
        nval = (x2 * x2 % q + y2 * y2 % q) % q
        unit = nval % p != 0
        # T = x^3 w3 - x^2 y w2 + x y^2 w1 - y^3 w0 (coordinates of a1*a2)
        T = (x2 * xs % q * w[3] - x2 * ys % q * w[2]
             + xs * y2 % q * w[1] - y2 * ys % q * w[0]) % q
        counts += np.bincount((-T[unit] * inv[nval[unit]]) % q, minlength=q)
        # non-unit lambdas via the generic path, merged exactly per phase class
        xn, yn = np.nonzero(~unit)
        lams = (CycInt(x, y, 0, 0) for x, y in zip((xn + x0).tolist(), yn.tolist()))
        for r, c in coset_phase_counts(q, 1, lams, -a2, ZERO, ZERO, a1).items():
            counts[r] += c
    return phase_sum(((k, c) for k, c in enumerate(counts.tolist()) if c), q) / q


def s1_fast(a1: CycInt, a2: CycInt, q: int, cong: CongruenceData) -> ExpSumValue:
    """S1 as a product over the prime powers p^e || q (CRT).

    With u = (q/p^e)^-1 mod p^e, 1/q = sum of u/p^e mod 1, and both the ell
    congruence and beta = beta' (q, M) split over the prime powers, so

        S1(a1, a2; q) = prod over p^e || q of S1(u a1, u a2; p^e),

    each factor with the congruence datum at gcd(p^e, M).  A factor at p not
    dividing M is evaluated in closed form on the unit multipliers; one at
    p | M by the coset sums of _s1_cosets.
    """
    if q > S1_FAST_QMAX:
        raise BudgetExceeded(f"fast S1 capped at q <= {S1_FAST_QMAX}")
    val = complex(1)
    for p, e in factorize(q).items():
        pe = p ** e
        u = pow(q // pe, -1, pe)
        if cong.M % p:
            val *= _s1_prime_power_coprime(u * a1, u * a2, p, e)
        else:
            val *= _s1_cosets(u * a1, u * a2, pe, cong)
    return ExpSumValue(val)


def s2_fast(a1: CycInt, a2: CycInt, c: Vec2Int, d: int, q: int,
            cong: CongruenceData) -> ExpSumValue:
    """S2 via the x, y, z parametrization (gamma_c multiplier) and exact
    beta1-coset character sums mod dq."""
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
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
