"""Shared counting engine for residue-pair sums over O_K = Z[zeta_8].

Everything the exponential sums and local densities need reduces to one
primitive over a modulus n, summed over a family of multipliers lam:

* ``beta_coset_char_sum``: the exact value of
      sum over beta in O_K/n with beta = b0 (g) and lam*beta = rhs (n/g)
      of e(<mu*beta, 1>/n)
  returned as (count, r) with value count * e(r/n).  Writing
  beta = b0 + g*gamma turns the coset into the solutions gamma mod n/g of
  g*lam*gamma = rhs - lam*b0 (mod n/g), a 4-row Smith-form solve, and the
  character is tested on their homogeneous subgroup.
* ``coset_phase_counts``: that sum over a family of lam, accumulated as
  exact integer counts per phase class r mod n, for S1 at p | M and S2
  (qdl.expsums).
* ``orbit_rows``: one lam per unit-scalar orbit of the nonzero lam mod p^e.
  A homogeneous coset family closed under unit scalars sums to one
  ``beta_coset_char_sum`` per orbit times a Ramanujan sum (``_orbit_sum``):
  the pair counts and S_p(v; k) run on it, and S1 at p not dividing M
  (qdl.expsums) builds its closed form on the same rows.

``count_pairs`` counts the pairs (beta1, beta2) in (O_K/n)^2 with
beta_i = beta_i' (mod gcd(n, M)) and ell(beta1*beta2) in a prescribed
subgroup L of (Z/n)^2.  The two ell-coordinates are detected by additive
characters, which collapses the pair count to a sum of coset sums over the
dual subgroup of L, a union of orbits.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from . import InvariantError
from .cyclotomic import CycInt, ell_matrix, mult_matrix
from .linalg import char_sum_over_solutions, solve_mod
from .residues import factorize, vp

ZERO = CycInt(0)


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


def count_pairs(n: int, M: int, beta1p: CycInt, beta2p: CycInt,
                local_rows) -> int:
    """#{(beta1, beta2) mod n : beta_i = beta_i' (gcd(n, M)),
    ell(beta1*beta2) in L (mod n)} with L given per prime power.

    local_rows(p, e) must return generator rows of the local subgroup
    L_p <= (Z/p^e)^2 (the rows p^e * I are implicit).
    """
    if n < 1:
        raise ValueError(f"count_pairs needs n >= 1, got n = {n}")
    total = 1
    for p, e in factorize(n).items():
        g = gcd(p ** e, M)
        total *= _count_pairs_local_cached(p, e, g, tuple(c % g for c in beta1p.coords()),
                                           tuple(c % g for c in beta2p.coords()),
                                           tuple(tuple(r) for r in local_rows(p, e)))
    return total


@lru_cache(maxsize=4096)
def _count_pairs_local_cached(p: int, e: int, g: int, b1c, b2c, rows) -> int:
    """The local pair count, with the beta' coordinates already reduced mod g.

    T(lam) = sum over beta1, beta2 = beta' (g) of psi(lam*beta1*beta2); summing
    beta2 leaves (p^e/g)^4 times the character sum over {beta1 = b1 (g),
    lam*beta1 = 0 (p^e/g)} with phase <lam*b2*beta1, 1>, and the count is
    |L|/p^(2e) * sum of T over the dual D = {lam : t.lam = 0 (p^e) for every
    row t of L}.  D is a Z-module, so a union of orbits, and lam = 0 adds
    (p^e/g)^4 to the character sums.  At g = 1 with D everything the sum is
    _kernel_size_total.
    """
    pe = p ** e
    t = np.array(rows, dtype=np.int64).reshape(-1, 2) % pe  # so that lam . t stays in int64
    if g == 1 and not t.any():
        return pe * pe * _kernel_size_total(p, e)
    tab = orbit_rows(p, e)
    member = np.flatnonzero(~(tab.lam @ t.T % pe).any(axis=1))
    dual = 1 + int((tab.m[member] - tab.m[member] // p).sum())
    csum = (pe // g) ** 4 + _orbit_sum(p, e, g, CycInt(*b1c), CycInt(*b2c), member)
    total = csum * (pe // g) ** 4 * (pe * pe // dual)
    if total % (pe * pe):
        raise InvariantError(f"pair count {total}/{pe * pe} mod {p}^{e} is not an integer")
    return total // (pe * pe)


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
          beta1p: CycInt, beta2p: CycInt) -> float:
    """S_p(v; k) from its defining triple character sum, exactly.

    After executing the w-sum and the beta2-sum, S_p(v;k) equals a prefactor
    times the sum over primitive a (mod p^k) with a.v = 0 (p^k) of character
    sums over beta1-cosets, an integer summed orbit by orbit (_orbit_sum) over
    the level-0 rows of orbit_rows(p, k).
    """
    m = vp(M, p)
    if k == 0:
        return p ** (-8.0 * m)
    pk = p ** k
    eta0 = min(m, k)
    geta = p ** eta0
    b1 = CycInt(*(c % geta for c in beta1p.coords()))
    b2 = CycInt(*(c % geta for c in beta2p.coords()))
    # prefactor p^(k + 4(k - eta0) - 9k - 8*max(0, m - k))
    pref_exp = k + 4 * (k - eta0) - 9 * k - 8 * max(0, m - k)
    tab = orbit_rows(p, k)
    idx = np.flatnonzero(tab.lam[:tab.ends[0]] @ np.array([v[0] % pk, v[1] % pk]) % pk == 0)
    return _orbit_sum(p, k, geta, b1, b2, idx) * float(p) ** pref_exp
