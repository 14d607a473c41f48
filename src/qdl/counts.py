"""Shared counting engine for residue-pair sums over O_K = Z[zeta_8].

Everything the exponential sums and local densities need is one sum,
``pair_sum``: over the pairs (beta1, beta2) in (O_K/n)^2 with
beta_i = beta_i' (mod gcd(n, M)) and ell(beta1*beta2) in a subgroup L of
(Z/n)^2, of e(<a1 beta1 + a2 beta2, 1>/n).  S1, S2, N1~, N2~ (qdl.expsums)
and the count behind sigma_p(c, d) (qdl.singular) are each one call.  It is
a product over p^e || n (CRT).  The ell-condition is detected by the
characters lam in the dual D of L mod p^e, and summing beta2 leaves one
beta1-coset sum per lam:

* ``beta_coset_char_sum``: the exact value of
      sum over beta in O_K/n with beta = b0 (g) and lam*beta = rhs (n/g)
      of e(<mu*beta, 1>/n)
  returned as (count, r) with value count * e(r/n).  Writing
  beta = b0 + g*gamma turns the coset into the solutions gamma mod n/g of
  g*lam*gamma = rhs - lam*b0 (mod n/g), a 4-row Smith-form solve, and the
  character is tested on their homogeneous subgroup.
* ``coset_phase_counts``: that sum over a family of lam, accumulated as
  exact integer counts per phase class r mod n; the local sum at p | M with
  a != 0 runs it over D.
* ``orbit_rows``: one lam per unit-scalar orbit of the nonzero lam mod p^e.
  D is a Z-module, so a union of orbits.  A homogeneous coset family (a = 0)
  sums to one ``beta_coset_char_sum`` per orbit times a Ramanujan sum
  (``_orbit_sum``), as does S_p(v; k), and at p not dividing M every
  orbit's coset sums have a closed form (``_s1_orbit_terms``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from . import InvariantError
from .cyclotomic import CycInt, ell_matrix, mult_matrix
from .linalg import char_sum_over_solutions, solve_mod
from .residues import factorize, vp

ZERO = CycInt(0)
# the largest p^e at which the local sum at p not dividing M, a != 0, is taken
# in closed form (its int64 bound is at _s1_orbit_table); fast S1 caps q with it
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
    level-s row has phi(m) members.  The first ends[t] rows have s <= t."""

    rep: np.ndarray  # (N, 2) (x', y')
    lam: np.ndarray  # (N, 2) (x, y) = p^s (x', y') mod p^e
    s: np.ndarray    # (N,)
    m: np.ndarray    # (N,) p^(e-s)
    ends: tuple


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
    return OrbitRows(rep, rep * (p ** e // m)[:, None] % p ** e, s, m,
                     tuple(np.cumsum(sizes + [0]).tolist()))  # lam = 0 is no row


def _orbit_sum(p: int, e: int, g: int, b1: CycInt, b2: CycInt, idx: np.ndarray) -> int:
    """Sum over every lam in the orbits of the rows idx of orbit_rows(p, e) of

        sum over {beta = b1 (g), lam*beta = 0 (p^e/g)} of e(<lam*b2*beta, 1>/p^e),

    an exact integer.

    Proof.  For a unit t, t*lam cuts out the same coset as lam, and its
    character is the t-th power of lam's.  If lam's sum is c*e(r/p^e), every
    beta of the coset has the phase r, so t*lam's sum is c*e(t*r/p^e); if it
    is 0, the character is nontrivial on the coset's homogeneous subgroup, a
    p-group, and so is its t-th power.  A unit t = 1 (mod m) fixes
    lam = p^s lam', so t*r = r (mod p^e) for all of them and p^s | r, with
    r' = r/p^s.  The orbit's phi(m) members t*lam, t in (Z/m)*, then sum to
    c times the Ramanujan sum

        c_m(r') = sum over t in (Z/m)* of e(t*r'/m)
                = m [m | r'] - (m/p) [m/p | r'].
    """
    pe = p ** e
    tab = orbit_rows(p, e)
    total = 0
    for (x, y), s, m in zip(tab.lam[idx].tolist(), tab.s[idx].tolist(), tab.m[idx].tolist()):
        lam = CycInt(x, y, 0, 0)
        cnt, r = beta_coset_char_sum(pe, g, lam, ZERO, b1, lam * b2)
        if r % p ** s:
            raise InvariantError(f"p^{s} does not divide the phase {r} of an orbit mod {p}^{e}")
        r //= p ** s
        total += cnt * (m * (r % m == 0) - m // p * (r % (m // p) == 0))
    return total


class _S1Orbits(NamedTuple):
    """The a-free part of the closed form at p^e, one entry per row of
    orbit_rows(p, e), as _s1_orbit_terms defines it."""

    star: np.ndarray   # (N, 4) lambda'* mod q^2, lambda' after the shift
    div: np.ndarray    # (N,) p^(2s+v)
    mod: np.ndarray    # (N,) p^(e+s+v): m | X iff it divides T
    k: np.ndarray      # (N,) p^(4s+v) m/p
    vmod: np.ndarray | None  # (N,) p^(s+v), the modulus of the v-gates; None when every v = 0
    ends: tuple


@lru_cache(maxsize=16)
def _s1_orbit_table(p: int, e: int) -> _S1Orbits:
    """s, v and lambda'* of each orbit row at p^e.

    The rows hold residues mod q^2, and the int64 mat-vec for T sums four
    products of two such residues, under 4 q^4 <= 4e16; a row's term
    p^(4s+v) c_m(X) is at most p^(4s) m^2, level s < e has at most 2m rows,
    so the terms add up to at most 2 q^4/(p-1) < 2^63 at every
    q <= S1_FAST_QMAX."""
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
    """Each orbit's sum of coset sums at g = 1, p^(4s+v) c_m(X), on the rows
    with p^s | a1, a2 (the first rows; the others sum to 0).

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

    Orbits.  For a unit t, substituting gamma = t beta gives the coset sum
    of t lambda at (a1, a2) as that of lambda at (t^-1 a1, a2).  In the
    closed form, s, v, the count and both gates are unchanged by
    lambda -> t lambda, and (t lambda')* = t^3 lambda'*, u -> t^4 u, so the
    phase numerator r = -u^-1 X, X = <a1' a2' lambda'*, 1>/p^v, moves to
    t^-1 r mod m.  So the phi(m) members of an orbit of level s (one row of
    orbit_rows) total p^(4s+v) times the Ramanujan sum
    c_m(r) = c_m(X) = m [m | X] - (m/p) [m/p | X], as c_m is unchanged by a
    unit scaling of r.  With T = <a1 a2 lambda'*, 1> mod q^2 = p^(2s+v) X,
    m | X iff p^(e+s+v) | T (s + v <= e keeps it inside q^2).  So the coset
    sums over D total

        q^4 [a1 = a2 = 0 (q)] + sum over open rows in D of p^(4s+v) c_m(X).

    D is a Z-module, so 0 and a union of orbits, and each orbit's term does
    not depend on which other orbits are summed.  The table of rows depends
    on (p, e) only.  coset_phase_counts over an orbit's members stays the
    oracle of each row's term.
    """
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
    D is a Z-module, or None when L = 0 and D is everything."""
    pe = p ** e
    t = np.array(rows, dtype=np.int64).reshape(-1, 2)
    if not t.any():
        return None, pe * pe
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
    sums, and the orbits inside D add _orbit_sum.  At g = 1 with D everything
    the sum is _kernel_size_total.
    """
    pe = p ** e
    member, size = _dual(p, e, rows)
    if member is None:
        if g == 1:
            return pe * pe * _kernel_size_total(p, e)
        member = np.arange(len(orbit_rows(p, e).s))
    total = ((pe // g) ** 4 + _orbit_sum(p, e, g, b1, b2, member)) * (pe // g) ** 4
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

    At g = 1 every coset sum has a closed form, summed one orbit at a time
    (_s1_orbit_terms), and the result is an exact int; at g > 1 each lam in
    D takes one beta_coset_char_sum.
    """
    pe = p ** e
    if g == 1 and pe > S1_FAST_QMAX:
        raise ValueError(f"the closed form mod {p}^{e} is capped at p^e <= {S1_FAST_QMAX}")
    member, size = _dual(p, e, rows)
    if g == 1:
        terms = _s1_orbit_terms(a1, a2, p, e)
        if member is not None:
            terms = terms[member[member < len(terms)]]
        return pe ** 4 // size * int(terms.sum())
    tab = orbit_rows(p, e)
    idx = slice(None) if member is None else member
    lams = [ZERO] + [CycInt(t * x % pe, t * y % pe)
                     for (x, y), m in zip(tab.lam[idx].tolist(), tab.m[idx].tolist())
                     for t in range(1, m) if t % p]
    counts = coset_phase_counts(pe, g, lams, -a2, b1, b2, a1, shift=(a2 * b2).c3)
    return phase_sum(counts.items(), pe) * (pe // g) ** 4 / size


def _kernel_size_total(p: int, e: int) -> int:
    """Exact sum over all (x, y) mod p^e of #ker(mult by x + y*zeta).

    Splits (x, y) = p^s (x', y') with (x', y') primitive and uses
    B_j(t) = #{primitive pairs mod p^j with p^t | x^4 + y^4}
           = phi(p^j) * r_p(t) * p^(j - t)   for t >= 1,
    where r_p(t) counts fourth roots of -1 mod p^t.
    """
    from .residues import _fourth_root_count

    total = p ** (4 * e)  # the pair (0, 0)
    for s in range(e):
        j = e - s
        phi = p ** j - p ** (j - 1)
        sub = p ** (2 * j) - p ** (2 * (j - 1))  # primitive pairs mod p^j
        for t in range(1, j + 1):
            bt = phi * _fourth_root_count(p, t) * p ** (j - t)
            sub += (p ** t - p ** (t - 1)) * bt
        total += p ** (4 * s) * sub
    return total


# ---------------------------------------------------------------------------
# S_p(v; k): the local character sums behind tau_p and S-hat
# ---------------------------------------------------------------------------

def sp_vk(v: tuple[int, int], p: int, k: int, M: int,
          beta1p: CycInt, beta2p: CycInt) -> Fraction:
    """S_p(v; k) from its defining triple character sum, as an exact rational.

    After executing the w-sum and the beta2-sum, S_p(v;k) equals a prefactor
    times the sum over primitive a (mod p^k) with a.v = 0 (p^k) of character
    sums over beta1-cosets, an integer summed orbit by orbit (_orbit_sum) over
    the level-0 rows of orbit_rows(p, k).
    """
    m = vp(M, p)
    if k == 0:
        return Fraction(1, p ** (8 * m))
    pk = p ** k
    eta0 = min(m, k)
    geta = p ** eta0
    b1 = CycInt(*(c % geta for c in beta1p.coords()))
    b2 = CycInt(*(c % geta for c in beta2p.coords()))
    # prefactor p^(k + 4(k - eta0) - 9k - 8*max(0, m - k))
    pref_exp = k + 4 * (k - eta0) - 9 * k - 8 * max(0, m - k)
    tab = orbit_rows(p, k)
    idx = np.flatnonzero(tab.lam[:tab.ends[0]] @ np.array([v[0] % pk, v[1] % pk]) % pk == 0)
    return _orbit_sum(p, k, geta, b1, b2, idx) * Fraction(p) ** pref_exp
