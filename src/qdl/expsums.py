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
unity).  The fast evaluators and the zero frequencies are each one
counts.pair_sum call: a product over the prime powers of the modulus (CRT)
of character sums over beta1 cosets, in closed form at primes not dividing M.

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

from .counts import S1_FAST_QMAX, coset_phase_counts, pair_sum, phase_sum
from .cyclotomic import CycInt, CycRes, Vec2Int, conj_star, ell_matrices, ell_matrix, norm
from .residues import IntPoly, divisors, is_prime, root_counts

# enumeration budgets; configuration constants, not hard limits of the method
S1_BRUTE_QMAX = 9
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

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.beta1p.q != self.M or self.beta2p.q != self.M:
            raise ValueError("beta' residues must live mod M")

    def reduced(self, g: int) -> tuple[CycInt, CycInt]:
        """beta1', beta2' with coordinates reduced into [0, g)."""
        return tuple(CycInt(*(x % g for x in b.coords)) for b in (self.beta1p, self.beta2p))

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
    """Index pairs (i, j) with keep(l1, l2) true for ell(adm1[i] * adm2[j]),
    in (i, j) order, every pair tested literally, a block of rows i at a time."""
    A = ell_matrices(adm1)
    step = max(1, 2 ** 18 // len(adm2))  # (block, N2) entries per pass
    idx1_all, idx2_all = [], []
    for start in range(0, len(adm1), step):
        ell_ij = A[start:start + step] @ adm2.T  # (block, 2, N2)
        i, j = np.nonzero(keep(ell_ij[:, 0], ell_ij[:, 1]))
        idx1_all.append(i + start)
        idx2_all.append(j)
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

    No caller in the package: the tests' oracle of s1_fast, unfactored at
    composite q.
    """
    g = gcd(q, cong.M)
    qp = q // g
    lams = (CycInt(g * x, g * y, 0, 0) for x in range(qp) for y in range(qp))
    b1, b2 = cong.reduced(g)
    counts = coset_phase_counts(q, g, lams, -a2, b1, b2, a1, shift=(a2 * b2).c3)
    return phase_sum(counts.items(), q) * qp ** 2 / q ** 3


def s1_fast(a1: CycInt, a2: CycInt, q: int, cong: CongruenceData) -> ExpSumValue:
    """S1 as q^-3 times counts.pair_sum with L = q'Z^2, q' = q/(q, M)."""
    if q < 1:
        raise ValueError(f"S1 needs q >= 1, got q = {q}")
    if q > S1_FAST_QMAX:
        raise BudgetExceeded(f"fast S1 capped at q <= {S1_FAST_QMAX}")
    qp = q // gcd(q, cong.M)
    return ExpSumValue(complex(pair_sum(q, cong.M, cong.beta1p.lift(), cong.beta2p.lift(),
                                        [[qp, 0], [0, qp]], a1, a2)) / q ** 3)


def s2_fast(a1: CycInt, a2: CycInt, c: Vec2Int, d: int, q: int,
            cong: CongruenceData) -> ExpSumValue:
    """S2 as (dq)^-3 times counts.pair_sum with L spanned by d*c and Q0*I,
    Q0 = dq/(q, M): the ell with d | ell and det(c, ell) = 0 (Q0), as c is
    primitive."""
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
    if d < 1 or q < 1:
        raise ValueError(f"S2 needs d, q >= 1, got d = {d}, q = {q}")
    n = d * q
    if n > S2_FAST_DQMAX:
        raise BudgetExceeded(f"fast S2 capped at dq <= {S2_FAST_DQMAX}")
    Q0 = n // gcd(q, cong.M)
    return ExpSumValue(complex(pair_sum(n, cong.M, cong.beta1p.lift(), cong.beta2p.lift(),
                                        [[d * c[0], d * c[1]], [Q0, 0], [0, Q0]], a1, a2)) / n ** 3)


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
    qp = q // gcd(q, cong.M)
    rows = [] if ell_modulus == "full" else [[qp, 0], [0, qp]]
    return pair_sum(q, cong.M, cong.beta1p.lift(), cong.beta2p.lift(), rows) / q ** 6


def n2_tilde(c: Vec2Int, d: int, q: int, cong: CongruenceData) -> float:
    """N2~(c, d; q) = (d^3 q^4)^-1 S2(0,0; d,q), computed as an exact count."""
    if gcd(c[0], c[1]) != 1:
        raise ValueError("c must be primitive")
    if d < 1 or q < 1:
        raise ValueError(f"N2~ needs d, q >= 1, got d = {d}, q = {q}")
    Q0 = d * q // gcd(q, cong.M)
    cnt = pair_sum(d * q, cong.M, cong.beta1p.lift(), cong.beta2p.lift(),
                   [[d * c[0], d * c[1]], [Q0, 0], [0, Q0]])
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
