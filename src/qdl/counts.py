"""Shared counting engine for residue-pair sums over O_K = Z[zeta_8].

Everything the exponential sums and local densities need is one sum,
``pair_sum``: over the pairs (beta1, beta2) in (O_K/n)^2 with
beta_i = beta_i' (mod gcd(n, M)) and ell(beta1*beta2) in a subgroup L of
(Z/n)^2, of e(<a1 beta1 + a2 beta2, 1>/n).  S1, S2, N1~, N2~ (qdl.expsums)
and the count behind sigma_p(c, d) (qdl.singular) are each one call.  It is
a product over p^e || n (CRT).  The ell-condition is detected by the
characters lam in the dual D of L mod p^e, and summing beta2 leaves one
beta1-coset sum per lam:

    sum over beta mod p^e with beta = b0 (g) and lam*beta = c (p^e/g)
        of e(<mu*beta, 1>/p^e),

g = p^m, lam = x + y*zeta.  Every such sum is one closed form, the law of
``_coset_law``: beta = b0 + g*gamma makes it the g = 1 sum at level e - m,
and that sum is a count p^E with two divisibility gates and one phase.  The
a-free part of the law is one table row per multiplier (``_law_rows``),
cached for the rows of ``orbit_rows``:

* ``orbit_rows``: one lam per unit-scalar orbit of the nonzero lam mod p^e.
  D is a Z-module, so a union of orbits.  A homogeneous family (a = 0: the
  counts and S_p(v; k)) and S1 at p not dividing M sum each orbit at once,
  a Ramanujan sum times one row's law (``_orbit_total``,
  ``_s1_orbit_terms``); at p | M with a != 0 every member of D is one row,
  and the local sum adds the exact integer counts per phase class.
* ``beta_coset_char_sum`` (a 4-row Smith-form solve) and
  ``coset_phase_counts`` evaluate a coset sum without the law.  No caller in
  the engine: the oracles of the law, and of expsums._s1_cosets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from . import InvariantError
from .cyclotomic import ZETA, CycInt, ell_matrix, mult_matrices, mult_matrix
from .linalg import char_sum_over_solutions, solve_mod
from .residues import _fourth_root_count, _pow_mod, factorize, vp

ZERO = CycInt(0)
# the largest p^e at which the local sum at p not dividing M, a != 0, is taken
# in closed form (its int64 bound is at _s1_orbit_terms); fast S1 caps q with it
S1_FAST_QMAX = 10_000


def phase_sum(terms, n: int):
    """sum of c * e(r/n) over (r, c) pairs, added in the order given."""
    return sum(c * np.exp(2j * np.pi * r / n) for r, c in terms)


def exact_phase_sum(counts: dict[int, int], p: int, e: int) -> int:
    """sum of c * x^r over counts {r: c}, x a primitive p^e-th root of unity,
    when that sum is an integer.

    Reduces the polynomial modulo Phi_{p^e}(x) = sum_{j<p} x^(j p^(e-1)) in
    integers: x^((p-1) p^(e-1) + s) = -sum_{j<p-1} x^(j p^(e-1) + s).  The
    remainder has degree < phi(p^e), and 1, x, ..., x^(phi(p^e)-1) are
    linearly independent, so the sum is an integer exactly when the remainder
    is a constant.  Raises InvariantError otherwise.  No caller in the
    package: the tests' oracle of the orbit sums.
    """
    step = p ** (e - 1)
    top = (p - 1) * step
    rem: dict[int, int] = {}
    for r, c in counts.items():
        r %= p * step
        if r < top:
            rem[r] = rem.get(r, 0) + c
        else:
            for t in range(r - top, top, step):
                rem[t] = rem.get(t, 0) - c
    if any(c for r, c in rem.items() if r):
        raise InvariantError(f"phase sum mod {p}^{e} is not an integer")
    return rem.get(0, 0)


def beta_coset_char_sum(n: int, g: int, lam: CycInt, rhs: CycInt,
                        b0: CycInt, mu: CycInt) -> tuple[int, int]:
    """(count, r) with sum = count * e(r/n) over the beta-coset, (0, 0) if empty.

    The coset is {beta mod n : beta = b0 (mod g), lam*beta = rhs (mod n/g)}
    with g | n; the summand is e(<mu*beta, 1>/n).  With beta = b0 + g*gamma,
    gamma ranges over the solutions mod n/g of g*lam*gamma = rhs - lam*b0 and
    the summand is e(<mu*b0, 1>/n) * e(<mu*gamma, 1>/(n/g)).
    """
    m = n // g
    b = b0.coords()
    rows = mult_matrix(lam)
    c = [t - sum(x * y for x, y in zip(row, b)) for row, t in zip(rows, rhs.coords())]
    sol = solve_mod([[g * x for x in row] for row in rows], c, m)
    mu_row = ell_matrix(mu)[0]
    cnt, r = char_sum_over_solutions(sol, mu_row)
    if not cnt:
        return 0, 0
    return cnt, (sum(x * y for x, y in zip(mu_row, b)) + g * r) % n


def coset_phase_counts(n: int, g: int, lams, rhs: CycInt, b1: CycInt, b2: CycInt,
                       a1: CycInt = ZERO, shift: int = 0) -> dict[int, int]:
    """Integer counts {r: c} per phase class r mod n of

        sum over lam in lams of e(shift/n) * sum over {beta = b1 (g),
            lam*beta = rhs (n/g)} of e(<(a1 + lam*b2) beta, 1>/n),

    with classes in the order first met."""
    counts: dict[int, int] = {}
    for lam in lams:
        cnt, r = beta_coset_char_sum(n, g, lam, rhs, b1, a1 + lam * b2)
        if cnt:
            r = (r + shift) % n
            counts[r] = counts.get(r, 0) + cnt
    return counts


class OrbitRows(NamedTuple):
    """One multiplier per unit-scalar orbit of the nonzero lam = x + y zeta
    mod p^e.  Level s < e holds the points of P^1(Z/m), m = p^(e-s):
    (x', y') = (1, y') for y' mod m, then (p x', 1) for x' mod m/p, with
    lam = p^s (x' + y' zeta).  The units mod m act freely on the primitive
    (x', y') mod m and these points meet every orbit once, so the orbit of a
    level-s row has phi(m) members.  The rows are in order of s."""

    rep: np.ndarray  # (N, 2) (x', y')
    lam: np.ndarray  # (N, 2) (x, y) = p^s (x', y') mod p^e
    s: np.ndarray    # (N,)
    m: np.ndarray    # (N,) p^(e-s)


@lru_cache(maxsize=16)
def orbit_rows(p: int, e: int) -> OrbitRows:
    """The orbit rows mod p^e, about p^e (1 + 2/p) of them."""
    sizes = [p ** k + p ** (k - 1) for k in range(e, 0, -1)]  # level s has k = e - s
    if sum(sizes) > 3 * 10 ** 7:
        raise ValueError(f"{sum(sizes)} orbit rows mod {p}^{e} exceed the enumeration budget")
    offsets = np.cumsum([0] + sizes[:-1])
    s = np.repeat(np.arange(e, dtype=np.int64), sizes)
    m = p ** (e - s)
    j = np.arange(len(s), dtype=np.int64) - offsets[s]  # the row's index in its level
    rep = np.stack([np.where(j < m, 1, p * (j - m)), np.where(j < m, j, 1)], axis=1)
    return OrbitRows(rep, rep * (p ** e // m)[:, None] % p ** e, s, m)  # lam = 0 is no row


def _line_rows(p: int, k: int, v) -> np.ndarray:
    """The level-0 reps of orbit_rows(p, k) on the line lam.v = 0 (p^k), in
    table order, without building the table: (1, y) with y v2 = -v1 (p^k),
    then (p x, 1) with x (p v1) = -v2 (p^k), x mod p^(k-1)."""
    def solve(a, b, top):  # the x in [0, top) with a x = b (p^k), ascending
        d = gcd(a, p ** k)
        return np.arange(b // d * pow(a // d, -1, p ** k // d) % (p ** k // d),
                         top if b % d == 0 else 0, p ** k // d)

    y, x = solve(v[1], -v[0], p ** k), solve(p * v[0], -v[1], p ** (k - 1))
    return np.concatenate([np.c_[np.ones_like(y), y], np.c_[p * x, np.ones_like(x)]])


class _Law(NamedTuple):
    """The a-free part of the law at (p, e, m), one entry per multiplier
    lam = p^s lam' (mod p^e), as _coset_law defines it.  Where S = s + m
    >= e - m, the gamma-multiplier p^m lam is 0 mod q' = p^(e-m) (flat)."""

    rep: np.ndarray    # (N, 2) lam'
    ms: np.ndarray     # (N,) p^(e-s), the orbit's modulus
    ek: np.ndarray     # (N,) E + e - s - 1, E = 4S + v (4(e - m) if flat) the log_p of a count
    star: np.ndarray   # (N, 4) -u^-1 lam''* mod q'^2, 0 if flat
    gmod: np.ndarray   # (N,) p^min(S, e - m), the gate p^S | A1, A2
    vmod: np.ndarray | None  # (N,) p^(S+v), q' if flat; None when every v = 0
    div: np.ndarray    # (N,) p^(2S+v), 1 if flat


def _law_rows(p: int, e: int, m: int, rep: np.ndarray, s: np.ndarray) -> _Law:
    """The law's table at (p, e, m) for the multipliers lam = p^s rep, rep
    primitive mod p^(e-s) (rep = (0, 0) at s = e, lam = 0): the level S,
    v and -u^-1 of the gamma-multiplier p^m lam = p^S lam'' mod q', lam'' =
    rep mod p^(e-m-S), after the shift.  Norms in int64 while
    x'^4 + y'^4 < 2^63 (q' <= 23170), else in Python ints: exact at every
    size."""
    q = p ** (e - m)
    S = s + m
    flat = S >= e - m
    M = p ** np.where(flat, 0, e - m - S)  # lam'' = lam' mod M is all p^S lam'' keeps
    x, y = (rep % M[:, None]).astype(np.int64 if 32 * q ** 4 < 2 ** 63 else object).T
    x = x + M * ((x ** 4 + y ** 4) % (M * p) == 0) * ~flat  # the shift where v > e - m - S
    N = x ** 4 + y ** 4
    v = sum((N % p ** t == 0).astype(np.int64) for t in range(1, e - m + 2)) * ~flat
    if np.any(p ** v > M):
        raise InvariantError(f"v > e - m - S after the shift mod {p}^{e}")
    ut = M - _pow_mod((N // p ** v % M).astype(np.int64), M - M // p - 1, M)  # -u^-1 mod M
    star = ut[:, None] * (np.stack([x ** 3, -x ** 2 * y, x * y ** 2, -y ** 3], 1) % q ** 2) % q ** 2
    ek = np.where(flat, 4 * (e - m), 4 * S + v) + e - s - 1
    return _Law(rep, p ** (e - s), ek, star.astype(np.int64),
                p ** np.minimum(S, e - m), p ** np.where(flat, e - m, S + v) if v.any() else None,
                p ** np.where(flat, 0, 2 * S + v))


@lru_cache(maxsize=16)
def _law_table(p: int, e: int) -> tuple[_Law, np.ndarray, np.ndarray]:
    """S1's table: _law_rows at m = 0 for every row of orbit_rows(p, e), with
    each row's p^ek and ms p^(2s+v), which divides T iff ms divides r."""
    law = _law_rows(p, e, 0, orbit_rows(p, e).rep, orbit_rows(p, e).s)
    return law, p ** law.ek, law.ms * law.div


def _coset_law(law: _Law, p: int, q: int, A1, A2) -> tuple[np.ndarray, np.ndarray]:
    """(open, T): the coset sum at a row of law is p^E e(p^S r/q') where it is
    open, else 0, q' = p^(e-m), r = T/p^(2S+v).  (A1, A2) is one CycInt pair
    for every row, or (N, 4) int arrays mod q', one pair per row.  For one
    pair the gate p^S | A1, A2 keeps the first rows (rows in order of s), T
    covers those, and open is None when no v-gate runs.

    The law.  With q' = p^e', lambda = x + y*zeta (mod q'), the g = 1 coset sum
    is the sum of e(<A1 gamma, 1>/q') over {gamma mod q' : lambda gamma = -A2 (q')}.
    Let S = min(vp(x), vp(y)), lambda' = lambda/p^S = x' + y' zeta,
    m' = p^(e'-S), v = vp(x'^4 + y'^4), A_i' = A_i/p^S, u = (x'^4 + y'^4)/p^v
    and lambda'* = (x'^3, -x'^2 y', x' y'^2, -y'^3) = conj_star(lambda').  Then
    the sum is

        p^(4S+v) [p^S | A1, A2] [p^v | A1' lambda'*, A2' lambda'*]
            * e(p^S (-u^-1 <A1' A2' lambda'*, 1>/p^v mod m') / q').

    Proof.
    * gamma mod q' is gamma mod m' plus m' delta with delta mod p^S free.  The
      delta sum is p^(4S) [p^S | A1], as <., 1> is unimodular (GRAM), and
      lambda gamma = -A2 (q') needs p^S | A2 and leaves lambda' gamma = -A2' (m').
      Only lambda' mod m' enters, so lambda'' = lambda' mod m' serves for it.
    * lambda' is primitive, so it lies in at most one prime above p: two of
      the primes (p, zeta - r), r^4 = -1, would give p | y', then p | x'.
      So (lambda') + (m') = P^min(v, e'-S) for that prime P of degree one.
    * If v > e' - S, x' -> x' + m' changes nothing mod m' and makes
      v = e' - S, since (x' + m')^4 + y'^4 = x'^4 + y'^4 + 4 x'^3 m'
      (mod p m') at odd p.  At p = 2 a primitive non-unit has x', y' odd
      and v = 1 <= e' - S.
    * Now v <= e' - S and lambda' lambda'* = p^v u, u a unit mod p.  Then
      lambda' maps O/m' onto (P^v)/(m'), of index p^v, and its kernel is
      (m'/p^v) lambda'* O: that lies in the kernel and also has p^v
      elements.  A solution exists iff p^v | A2' lambda'*, and then
      gamma0 = -u^-1 A2' lambda'*/p^v is one.  The character is trivial on
      the kernel iff p^v | A1' lambda'* (unimodularity again), and its
      value at gamma0 is the phase above.
    * lambda = 0 (mod q') is flat: q'^4 [A1 = A2 = 0 (q')], phase 0.
    * At odd p not 1 (mod 8), -1 is not a fourth power mod p, so
      p | x'^4 + y'^4 only when p | x', y'.  Every primitive lambda' is a
      unit there, and no v-gate runs.

    The table holds -u^-1 lambda''* mod q'^2 as star: the gates do not see a
    unit, and with T = <A1 A2 star, 1> mod q'^2 = p^(2S+v) X, X mod m' is the
    phase numerator (2S + v + e' - S <= 2e' keeps it inside q'^2), r = X.

    The substitution.  With g = p^m and beta = b0 + g gamma, the coset
    {beta mod p^e : beta = b0 (g), lam beta = c (p^e/g)} with character mu is
    {gamma mod p^(e-m) : (g lam) gamma = c - lam b0} with character mu at
    modulus p^(e-m), times e(<mu b0, 1>/p^e): the law at e' = e - m, with
    multiplier g lam (so S = s + m), A1 = mu and A2 = lam b0 - c.  The
    beta-sum is p^E e(R/p^e), R = <mu b0, 1> + g p^S r.

    Prop. 6.1.  At an odd prime p not dividing N(alpha), alpha = a1 a2,
    S1(a1, a2; p) = a_alpha(p) + (nu(p) - 1)/p, nu(p) the number of fourth
    roots of -1 mod p.  Here e = 1, g = 1, D is every lam, and S1 is 1/p
    times the sum of the p + 1 orbit terms p^v c_p(X).  The nu(p) rows with
    v = 1 lie in the prime P0 above p; lambda'* and alpha are units at P0, so
    p^v | a_i lambda'* fails and their gates are shut.  Each v = 0 row adds
    c_p(X) = p [p | <alpha lambda'*, 1>] - 1, and
    <alpha lambda'*, 1> = F(x', -y') for the binary cubic
    F(X, Y) = a3 X^3 + a2 X^2 Y + a1 X Y^2 + a0 Y^3 of alpha: the rows are
    P^1(F_p), (x', y') -> [x' : -y'], so the v = 0 rows with p | F(x', -y')
    are the a_alpha(p) + 1 roots of f_alpha on P^1(F_p), none of them at a
    v = 1 row (there <alpha lambda'*, 1> = Tr(alpha lambda'*/(4 zeta^3)) is
    the one nonzero P0-component mod p).  So p S1 = p (a_alpha + 1)
    - (p + 1 - nu).
    """
    qq = q * q
    sv = None if law.vmod is None else law.star % law.vmod[:, None]  # the v-gates: under 4 q'^2
    if isinstance(A1, CycInt):
        n = law.gmod.searchsorted(p ** vp(gcd(q, *A1.coords(), *A2.coords()), p), "right")
        ok, star = None, law.star[:n]
        if sv is not None:
            mats = np.array([[c % q for c in row] for row in mult_matrix(A1) + mult_matrix(A2)])
            ok = ~(sv[:n] @ mats.T % law.vmod[:n, None]).any(axis=1)
        W = np.array([c % qq for c in (A1 * A2).coords()[::-1]])
    else:
        ok = ~((A1 % law.gmod[:, None]).any(axis=1) | (A2 % law.gmod[:, None]).any(axis=1))
        for A in (A1, A2) if sv is not None else ():  # the coordinates of A lam''*
            ok &= ~((mult_matrices(A) @ sv[:, :, None])[:, :, 0] % law.vmod[:, None]).any(axis=1)
        star, W = law.star, (mult_matrices(A2) @ A1[:, :, None])[:, ::-1, 0] % qq * ok[:, None]
    if 4 * qq * qq >= 2 ** 63 and W.any():
        raise ValueError(f"the coset phases mod {q} exceed the int64 bound")
    T = (star @ W if W.ndim == 1 else (star * W).sum(axis=1)) % qq
    div = law.div[:len(T)]
    if (T % div if ok is None else T % div * ok).any():
        raise InvariantError(f"p^v does not divide <A1' A2' lambda'*, 1> mod {q}")
    return ok, T


def _ramanujan(p: int, r: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """c_ms(r)/(ms/p) = p [ms | r] - [ms/p | r] per row; with r and ms
    scaled alike, the same."""
    return p * (r % ms == 0) - (r % (ms // p) == 0)


def _s1_orbit_terms(a1: CycInt, a2: CycInt, p: int, e: int) -> np.ndarray:
    """Each orbit's sum of coset sums at g = 1, p^(4s+v) c_m(X), on the rows
    of orbit_rows(p, e) with p^s | a1, a2 (the first rows; the others sum
    to 0).

    For a unit t, substituting gamma = t beta gives the coset sum of t lambda
    at (a1, a2) as that of lambda at (t^-1 a1, a2).  In the law (_coset_law),
    s, v, the count and both gates are unchanged by lambda -> t lambda, and
    (t lambda')* = t^3 lambda'*, u -> t^4 u, so the phase numerator moves to
    t^-1 r mod m.  So the phi(m) members of an orbit of level s total
    p^(4s+v) times the Ramanujan sum c_m(r) = m [m | r] - (m/p) [m/p | r].
    D is a Z-module, so 0 and a union of orbits, and the coset sums over D
    total q^4 [a1 = a2 = 0 (q)] plus the terms of its rows.  A term is at
    most p^(4s) m^2 and level s < e has at most 2m rows, so the terms add up
    to at most 2 q^4/(p-1) < 2^63 at every q <= S1_FAST_QMAX."""
    law, k, mod = _law_table(p, e)
    ok, T = _coset_law(law, p, p ** e, a1, a2)
    terms = k[:len(T)] * _ramanujan(p, T, mod[:len(T)])
    return terms if ok is None else terms * ok


def _orbit_total(p: int, e: int, m: int, rep: np.ndarray, lam: np.ndarray, s: np.ndarray,
                 b1: CycInt, b2: CycInt) -> int:
    """Sum over every lam in the orbits of the rows lam = p^s rep of

        sum over {beta = b1 (p^m), lam*beta = 0 (p^(e-m))} of e(<lam*b2*beta, 1>/p^e),

    an exact integer: the law (_coset_law) with A1 = lam b2, A2 = lam b1 and
    R = <lam b1 b2, 1> + p^(m+S) r.

    Proof.  For a unit t, t*lam cuts out the same coset as lam, and its
    character is the t-th power of lam's.  If lam's sum is c*e(R/p^e), every
    beta of the coset has the phase R, so t*lam's sum is c*e(t*R/p^e); if it
    is 0, the character is nontrivial on the coset's homogeneous subgroup, a
    p-group, and so is its t-th power.  With lam = p^s lam', p^s | R and
    R/p^s = <lam' b1 b2, 1> + p^(2m) r (mod ms), ms = p^(e-s).  The orbit's
    phi(ms) members t*lam, t in (Z/ms)*, then sum to p^E times c_ms(R/p^s).
    """
    q, law = p ** (e - m), _law_rows(p, e, m, rep, s)
    ok, T = _coset_law(law, p, q, *((ZERO, ZERO) if b1.is_zero() and b2.is_zero()
                                    else (lam @ _times_lam(b) % q for b in (b2, b1))))
    c = _ramanujan(p, law.rep @ _times_lam(b1 * b2)[:, 3] + p ** (2 * m) * (T // law.div), law.ms)
    c = c if ok is None else c * ok
    return sum(p ** int(k) * int(c[law.ek == k].sum()) for k in np.unique(law.ek[c != 0]))


def _times_lam(b: CycInt) -> np.ndarray:
    """(2, 4): (x, y) @ it is the coordinates of (x + y zeta) b."""
    return np.array([b.coords(), (ZETA * b).coords()], dtype=np.int64)


def pair_sum(n: int, M: int, beta1p: CycInt, beta2p: CycInt, rows,
             a1: CycInt = ZERO, a2: CycInt = ZERO):
    """The sum over (beta1, beta2) mod n with beta_i = beta_i' (gcd(n, M)) and
    ell(beta1*beta2) in L of e(<a1 beta1 + a2 beta2, 1>/n), L the subgroup of
    (Z/n)^2 spanned by the integer rows.

    With u = (n/p^e)^-1 mod p^e, 1/n = sum of u/p^e mod 1, and beta mod n,
    the congruence mod gcd(n, M) and L all split over the prime powers
    p^e || n (CRT), so the sum is the product of the local sums at p^e with
    (u a1, u a2).  A local sum is an exact int at a = 0 (mod p^e)
    (_local_count) and at p not dividing M (_s1_orbit_terms), complex
    otherwise (_local_sum).
    """
    if n < 1:
        raise ValueError(f"pair_sum needs n >= 1, got n = {n}")
    total = 1
    for p, e in factorize(n).items():
        pe = p ** e
        g = gcd(pe, M)
        b1, b2 = ((CycInt(*(c % g for c in b.coords())) for b in (beta1p, beta2p)) if g > 1
                  else (ZERO, ZERO))
        t = tuple((x % pe, y % pe) for x, y in rows)
        if a1.scalar_divisible(pe) and a2.scalar_divisible(pe):
            total *= _local_count(p, e, g, b1, b2, t)
        else:
            u = pow(n // pe, -1, pe)
            total *= _local_sum(p, e, g, b1, b2, t, u * a1, u * a2)
    return total


@lru_cache(maxsize=256)
def _dual(p: int, e: int, rows: tuple):
    """(member, |D|) for the dual D = {lam : t.lam = 0 (p^e) for every row t}
    of L mod p^e: the rows of orbit_rows(p, e) inside D, a union of orbits as
    D is a Z-module, as an index: slice(None) when L = 0 and D is everything,
    found without the table."""
    pe = p ** e
    t = np.array(rows, dtype=np.int64).reshape(-1, 2)
    if not t.any():
        return slice(None), pe * pe
    tab = orbit_rows(p, e)
    member = np.flatnonzero(~(tab.lam @ t.T % pe).any(axis=1))
    return member, 1 + int((tab.m[member] - tab.m[member] // p).sum())


@lru_cache(maxsize=4096)
def _local_count(p: int, e: int, g: int, b1: CycInt, b2: CycInt, rows: tuple) -> int:
    """The local sum at a = 0, an exact int; b1, b2 reduced mod g, rows mod p^e.

    T(lam) = sum over beta1, beta2 = beta' (g) of psi(lam*beta1*beta2); summing
    beta2 leaves (p^e/g)^4 times the character sum over {beta1 = b1 (g),
    lam*beta1 = 0 (p^e/g)} with phase <lam*b2*beta1, 1>, and the count is
    1/|D| times the sum of T over D.  lam = 0 adds (p^e/g)^4 to the character
    sums, and the orbits inside D add _orbit_total.  At g = 1 with D everything
    (A = 0, every row) a row's term p^(4s+v) phi(p^k), k = e - s, depends on
    (s, v) only, and at level s the rows with v >= t are the (1, y) with y mod
    p^t a fourth root of -1, nu(p^t) p^(k-t) of them (t <= k), so the rows
    are summed by counting them, at any p^e.
    """
    pe, m = p ** e, vp(g, p)
    member, size = _dual(p, e, rows)
    if isinstance(member, slice) and g == 1:
        return pe * pe * (pe ** 4 + sum(p ** (4 * (e - k)) * (p ** k - p ** (k - 1)) * (
            p ** k + p ** (k - 1) + (p ** k - p ** (k - 1)) * sum(
                _fourth_root_count(p, t) for t in range(1, k + 1))) for k in range(1, e + 1)))
    rep, lam, s, _ = (c[member] for c in orbit_rows(p, e))
    total = ((pe // g) ** 4 + _orbit_total(p, e, m, rep, lam, s, b1, b2)) * (pe // g) ** 4
    if total % size:
        raise InvariantError(f"pair count {total}/{size} mod {p}^{e} is not an integer")
    return total // size


def _local_sum(p: int, e: int, g: int, b1: CycInt, b2: CycInt, rows: tuple,
               a1: CycInt, a2: CycInt):
    """The local sum at a != 0 (mod p^e).  Detecting ell in L by the
    characters lam of D and summing beta2 leaves

        (p^e/g)^4/|D| * e(<a2 b2, 1>/p^e) * sum over lam in D of
            sum over {beta = b1 (g), lam*beta = -a2 (p^e/g)} of
            e(<(a1 + lam*b2) beta, 1>/p^e).

    At g = 1 every orbit sums at once (_s1_orbit_terms), and the result is an
    exact int.  At g > 1 each lam in D, lam = 0 first and then each row's
    members t*lam in order of t, is one row of the law (_coset_law) with
    A1 = a1 + lam b2 and A2 = a2 + lam b1, and the sum is taken over the
    exact integer counts per phase class, in the order first met.
    """
    pe = p ** e
    if g == 1 and pe > S1_FAST_QMAX:
        raise ValueError(f"the closed form mod {p}^{e} is capped at p^e <= {S1_FAST_QMAX}")
    member, size = _dual(p, e, rows)
    if g == 1:
        terms = _s1_orbit_terms(a1, a2, p, e)  # the first rows: the others are shut
        return pe ** 4 // size * int(terms[member if isinstance(member, slice)
                                           else member[member < len(terms)]].sum())
    tab, m, q = orbit_rows(p, e), vp(g, p), pe // g
    # lam = 0 first, as a row whose one unit t < 2 is 1, then the rows of D
    rep, lam = (np.vstack([[0, 0], c[member]]) for c in (tab.rep, tab.lam))
    s, ms = np.append(e, tab.s[member]), np.append(2, tab.m[member])
    counts: dict[int, int] = {}
    for i in range(0, len(s), 2 ** 20 // pe + 1):  # blocks of at most about 2^20 members
        j, t = np.nonzero(np.arange(pe) < ms[i:i + 2 ** 20 // pe + 1, None])
        j, t = j[t % p > 0] + i, t[t % p > 0]
        law, tlam = _law_rows(p, e, m, t[:, None] * rep[j] % ms[j, None], s[j]), t[:, None] * lam[j]
        ok, T = _coset_law(law, p, q, *((tlam @ _times_lam(b) + a.coords()) % q
                                         for a, b in ((a1, b2), (a2, b1))))
        R = ((a2 * b2).c3 + (a1 * b1).c3 + tlam @ _times_lam(b1 * b2)[:, 3]
             + p ** np.minimum(2 * m + s[j], e) * (T // law.div)) % pe
        for cls, k in zip(R[ok].tolist(), (law.ek - e + s[j] + 1)[ok].tolist()):
            counts[cls] = counts.get(cls, 0) + p ** k
    return phase_sum(counts.items(), pe) * q ** 4 / size


# ---------------------------------------------------------------------------
# S_p(v; k): the local character sums behind tau_p and S-hat
# ---------------------------------------------------------------------------

def sp_vk(v: tuple[int, int], p: int, k: int, M: int,
          beta1p: CycInt, beta2p: CycInt) -> Fraction:
    """S_p(v; k) from its defining triple character sum, as an exact rational.

    After executing the w-sum and the beta2-sum, S_p(v;k) equals a prefactor
    times the sum over primitive a (mod p^k) with a.v = 0 (p^k) of character
    sums over beta1-cosets, an integer summed orbit by orbit (_orbit_total)
    over the level-0 rows on that line (_line_rows).
    """
    m = vp(M, p)
    if k == 0:
        return Fraction(1, p ** (8 * m))
    eta0 = min(m, k)
    b1, b2 = (CycInt(*(c % p ** eta0 for c in b.coords())) for b in (beta1p, beta2p))
    # prefactor p^(k + 4(k - eta0) - 9k - 8*max(0, m - k))
    pref_exp = k + 4 * (k - eta0) - 9 * k - 8 * max(0, m - k)
    rep = _line_rows(p, k, (v[0] % p ** k, v[1] % p ** k))
    zeros = np.zeros(len(rep), dtype=np.int64)  # every row at level 0, lam = rep
    return _orbit_total(p, k, eta0, rep, rep, zeros, b1, b2) * Fraction(p) ** pref_exp
