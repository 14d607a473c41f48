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
dividing M evaluates every multiplier's coset sum in closed form.

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
from .counts import _vp_table, count_pairs, coset_phase_counts, phase_sum
from .cyclotomic import (CycInt, CycRes, Vec2Int, conj_star, ell, ell_matrices, ell_matrix,
                         mult_matrix, norm)
from .residues import IntPoly, divisors, factorize, is_prime, root_counts, vp

# enumeration budgets; configuration constants, not hard limits of the method
S1_BRUTE_QMAX = 9
S1_FAST_QMAX = 10_000
# the p-not-dividing-M tables of S1 hold residues mod q^2 and their int64
# products are of two such residues, so the largest sum of them, four
# products, stays under 4 q^4 <= 4e16 < 2^63 at every q <= S1_FAST_QMAX
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


class _S1Table(NamedTuple):
    """The (a1, a2)-free part of S1 at p^e, p not dividing M, for the block of
    multipliers lambda = x + y*zeta with x0 <= x < x1, 0 <= y < p^e.

    Rows are sorted by the level s; row i is lambda with (x - x0, y) =
    divmod(order[i], p^e).  The first ends[t] rows have s <= t, and the
    first vends[t] entries of vrows are the rows among them with v > 0.
    """

    order: np.ndarray  # (N,) the row's flat index in the block
    lam: np.ndarray    # (N, 4) lambda'* mod q^2 (lambda' after the shift)
    c: np.ndarray      # (N,) p^s * (-u^-1 mod m)
    div: np.ndarray    # (N,) p^(2s+v)
    kq: np.ndarray     # (N,) q * (index of the count p^(4s+v) in pk)
    pk: np.ndarray     # (K,) the counts p^(4s+v) that occur
    ends: tuple
    vrows: np.ndarray  # rows with v > 0, ascending
    vmod: np.ndarray   # p^(s+v) on vrows, the modulus of their gates
    vends: tuple


@lru_cache(maxsize=8)
def _unit_inverses(p: int, e: int) -> np.ndarray:
    """t^-1 mod p^e at every unit t in [0, p^e), and 0 at the non-units (u = 0
    only at lambda = 0, where m = 1)."""
    q = p ** e
    inv = np.zeros(q, dtype=np.int64)
    units = np.flatnonzero(np.arange(q) % p)
    inv[units] = [pow(int(t), -1, q) for t in units]
    return inv


@lru_cache(maxsize=8)
def _s1_coprime_table(p: int, e: int, x0: int, x1: int) -> _S1Table:
    """s, v, lambda'*, -u^-1 and the count exponent 4s + v of every multiplier
    in one block, as _s1_prime_power_coprime defines them."""
    q = p ** e
    ppow = np.array([p ** j for j in range(4 * e + 1)], dtype=np.int64)
    x, y = np.divmod(np.arange(x0 * q, x1 * q, dtype=np.int64), q)
    vt = _vp_table(p, e)  # vp capped at e, vp(0) = e
    s = np.minimum(vt[x], vt[y])
    m = ppow[e - s]
    mm = m * m
    xp, yp = x // ppow[s], y // ppow[s]

    def norm_mod_mm():  # x'^4 + y'^4 mod m^2, from residues < m^2
        return ((xp * xp % mm) ** 2 % mm + (yp * yp % mm) ** 2 % mm) % mm

    nv = norm_mod_mm()
    xp = xp + m * ((m > 1) & (nv % (m * p) == 0))  # the shift where v > e - s
    nv = norm_mod_mm()
    low = nv % m
    if np.any((m > 1) & (low == 0) & (nv % (m * p) == 0)):
        raise InvariantError(f"v != e - s after the shift mod {p}^{e}")
    v = np.where(low == 0, e - s, vt[low])  # 0 < low < m: vp(low) < e - s
    inv = _unit_inverses(p, e)[nv // ppow[v] % m]  # u^-1 mod q, so mod m
    lam = np.stack([xp ** 3, -xp ** 2 * yp, xp * yp ** 2, -yp ** 3], axis=1) % (q * q)
    order = np.concatenate([np.flatnonzero(s == t) for t in range(e + 1)])
    c = (-inv % m * ppow[s])[order]
    s, v = s[order], v[order]
    k = 4 * s + v
    seen = np.bincount(k) > 0
    kidx = (np.cumsum(seen) - 1)[k]
    vrows = np.flatnonzero(v)

    def ends(levels):  # rows with level <= t, for t = 0..e
        return tuple(np.cumsum(np.bincount(levels, minlength=e + 1)).tolist())

    return _S1Table(order, lam[order], c, ppow[2 * s + v], kidx * q, ppow[np.flatnonzero(seen)],
                    ends(s), vrows, ppow[s[vrows] + v[vrows]], ends(s[vrows]))


def _s1_coprime_terms(tab: _S1Table, a1: CycInt, a2: CycInt, p: int, e: int) -> np.ndarray:
    """Bins of the first n rows of tab, the rows with p^s | a1, a2 (the others
    have coset sum 0).  Row i's coset sum is tab.pk[k] * e(r/q), q = p^e,
    when its bin is q*k + r, and 0 when its bin is q*len(tab.pk)."""
    q = p ** e
    qq = q * q
    sa = vp(gcd(q, *a1.coords(), *a2.coords()), p)  # the gate p^s | a1, a2 is s <= sa
    n, nv = tab.ends[sa], tab.vends[sa]
    w = (a1 * a2).coords()
    T = tab.lam[:n] @ np.array([w[3] % qq, w[2] % qq, w[1] % qq, w[0] % qq]) % qq
    if nv:  # the gates p^v | a_i' lambda'*, that is p^(s+v) | a_i lambda'*
        vr = tab.vrows[:nv]
        gates = [[t % q for t in row] for row in mult_matrix(a1) + mult_matrix(a2)]
        shut = vr[(tab.lam[vr] @ np.array(gates).T % tab.vmod[:nv, None]).any(axis=1)]
        T[shut] = 0
    t, rest = np.divmod(T, tab.div[:n])
    if np.count_nonzero(rest):
        raise InvariantError(f"p^v does not divide <a1' a2' lambda'*, 1> mod {p}^{e}")
    bins = tab.kq[:n] + tab.c[:n] * t % q
    if nv:
        bins[shut] = q * len(tab.pk)
    return bins


def _s1_prime_power_coprime(a1: CycInt, a2: CycInt, p: int, e: int) -> complex:
    """S1(a1, a2; p^e) for p not dividing M: every multiplier in closed form.

    The coset sum of lambda = x + y*zeta (mod q = p^e) is the sum of
    e(<a1 beta, 1>/q) over {beta mod q : lambda beta = -a2 (q)}.  Let
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

    The table of s, v, lambda'*, -u^-1 and 4s + v depends on (q, block)
    only; a call adds the gates, one mat-vec over lambda'* and one bincount
    per block of about _S1_BLOCK multipliers.  The integer counts per phase
    class are those of coset_phase_counts, which stays the oracle.
    """
    q = p ** e
    counts = _s1_coprime_counts(a1, a2, p, e).tolist()
    return phase_sum(((k, c) for k, c in enumerate(counts) if c), q) / q


def _s1_coprime_counts(a1: CycInt, a2: CycInt, p: int, e: int) -> np.ndarray:
    """The integer count of each phase class r mod p^e in the sum of all
    coset sums, block by block."""
    q = p ** e
    counts = 0
    step = max(1, _S1_BLOCK // q)
    for x0 in range(0, q, step):
        tab = _s1_coprime_table(p, e, x0, min(x0 + step, q))
        hist = np.bincount(_s1_coprime_terms(tab, a1, a2, p, e), minlength=(len(tab.pk) + 1) * q)
        counts = counts + tab.pk @ hist[:-q].reshape(-1, q)
    return counts


def s1_fast(a1: CycInt, a2: CycInt, q: int, cong: CongruenceData) -> ExpSumValue:
    """S1 as a product over the prime powers p^e || q (CRT).

    With u = (q/p^e)^-1 mod p^e, 1/q = sum of u/p^e mod 1, and both the ell
    congruence and beta = beta' (q, M) split over the prime powers, so

        S1(a1, a2; q) = prod over p^e || q of S1(u a1, u a2; p^e),

    each factor with the congruence datum at gcd(p^e, M).  A factor at p not
    dividing M sums a closed form over every multiplier lambda = x + y*zeta:
    with lambda = p^s lambda', lambda' primitive and v = vp(N(lambda')), its
    coset sum is p^(4s+v) e(r/p^e) when p^s | a1, a2 and p^v | a_i/p^s times
    lambda'*, and 0 otherwise (proof in _s1_prime_power_coprime).  A factor
    at p | M takes the coset sums of _s1_cosets.
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
