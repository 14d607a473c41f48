"""Shared counting engine for residue-pair sums over O_K = Z[zeta_8].

Everything the exponential sums and local densities need reduces to two
primitives over a modulus n:

* ``beta_coset_char_sum``: the exact value of
      sum over beta in O_K/n with beta = b0 (g) and lam*beta = c0 (n/g)
      of e(<mu*beta, 1>/n)
  returned as (count, r) with value count * e(r/n), computed by solving the
  linear congruence system (Smith form) and testing the character on the
  homogeneous solution subgroup.

* ``count_pairs``: the exact number of pairs (beta1, beta2) in (O_K/n)^2
  with beta_i = beta_i' (mod gcd(n, M)) and ell(beta1*beta2) in a prescribed
  subgroup L of (Z/n)^2.  The two ell-coordinates are detected by additive
  characters, which collapses the pair count to a sum of multiplication-kernel
  sizes over the dual subgroup of L.  At primes coprime to M the kernel sizes
  have the closed form p^(4s) * gcd(x'^4 + y'^4, p^(e-s)) (unique degree-one
  prime above p on x + y*zeta), which is evaluated vectorized; at the finitely
  many primes dividing M the generic character-sum path is used.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from . import InvariantError
from .cyclotomic import CycInt, mult_matrix
from .linalg import char_sum_over_solutions, solve_mod
from .residues import factorize, vp

# counts stay well inside float53 exactness only for small totals; rounding
# slack is checked against this margin when a complex phase sum must land
# on an integer.
_ROUND_TOL = 0.2


def phase_sum(terms, n: int):
    """sum of c * e(r/n) over (r, c) pairs, added in the order given."""
    return sum(c * np.exp(2j * np.pi * r / n) for r, c in terms)


def phase_row(mu: CycInt) -> list[int]:
    """Row of the linear functional beta -> <mu*beta, 1> on coordinates."""
    m = mult_matrix(mu)
    return m[3]


def beta_coset_char_sum(n: int, g: int, cond_mod: int, lam: CycInt, rhs: CycInt,
                        b0: CycInt, mu: CycInt) -> tuple[int, int]:
    """(count, r) with sum = count * e(r/n) over the beta-coset.

    The coset is {beta mod n : beta = b0 (mod g), lam*beta = rhs (mod cond_mod)}
    with g | n and cond_mod | n; the summand is e(<mu*beta, 1>/n).
    """
    rows: list[list[int]] = []
    b: list[int] = []
    sc = n // g
    # beta = b0 (mod g)  <=>  (n/g) * beta = (n/g) * b0 (mod n)
    for i in range(4):
        row = [0, 0, 0, 0]
        row[i] = sc
        rows.append(row)
        b.append(sc * b0.coords()[i])
    sc2 = n // cond_mod
    ml = mult_matrix(lam)
    for i in range(4):
        rows.append([sc2 * ml[i][j] for j in range(4)])
        b.append(sc2 * rhs.coords()[i])
    sol = solve_mod(rows, b, n)
    return char_sum_over_solutions(sol, [x % n for x in phase_row(mu)])


@lru_cache(maxsize=None)
def _vp_table(p: int, e: int) -> np.ndarray:
    """vp(x) capped at e, for x in [0, p^e)."""
    pe = p ** e
    v = np.zeros(pe, dtype=np.int64)
    x = np.arange(pe, dtype=np.int64)
    step = p
    for _ in range(e):
        v[(x % step) == 0] += 1
        step *= p
    v[0] = e
    return v


def _kernel_sizes_vectorized(p: int, e: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """p-exponents of #ker of multiplication by x + y*zeta on O_K/p^e.

    Uses N((x' + y'*zeta, p^j)) = (x'^4 + y'^4, p^j) for primitive (x', y').
    Requires p^e < 2^31 so modular squares stay inside int64.
    """
    pe = p ** e
    vt = _vp_table(p, e)
    s = np.minimum(vt[xs % pe], vt[ys % pe])
    exps = 4 * s.astype(np.int64)
    rem = e - s
    ppow = np.array([p ** int(t) for t in range(e + 1)], dtype=np.int64)
    xp = xs // ppow[s]
    yp = ys // ppow[s]
    mod = ppow[rem]
    # fourth powers taken modularly so int64 never overflows (needs p^e < 2^31)
    x2 = (xp % mod) ** 2 % mod
    y2 = (yp % mod) ** 2 % mod
    w4 = (x2 * x2 % mod + y2 * y2 % mod) % mod
    # t' = vp(w4) capped at rem
    t = np.zeros(len(xs), dtype=np.int64)
    active = mod > 1
    val = w4.copy()
    for _ in range(e):
        hit = active & (t < rem) & (val % p == 0) & (val != 0)
        if not hit.any():
            break
        t[hit] += 1
        val[hit] //= p
    zero = active & (w4 == 0)
    t[zero] = rem[zero]
    exps += np.minimum(t, rem)
    return exps


def _dual_subgroup(n: int, rows: list[list[int]]):
    """Solutions w of t.w = 0 (mod n) for every generator row t of L."""
    A = rows or [[0, 0]]
    sol = solve_mod(A, [0] * len(A), n)
    if sol is None:
        raise InvariantError("a homogeneous system mod n has no solution")
    return sol


def count_pairs(n: int, M: int, beta1p: CycInt, beta2p: CycInt,
                local_rows) -> int:
    """#{(beta1, beta2) mod n : beta_i = beta_i' (gcd(n, M)),
    ell(beta1*beta2) in L (mod n)} with L given per prime power.

    local_rows(p, e) must return generator rows of the local subgroup
    L_p <= (Z/p^e)^2 (the rows p^e * I are implicit).
    """
    total = 1
    for p, e in factorize(n).items():
        g = gcd(p ** e, M)
        total *= _count_pairs_local_cached(p, e, g, tuple(c % g for c in beta1p.coords()),
                                           tuple(c % g for c in beta2p.coords()),
                                           tuple(tuple(r) for r in local_rows(p, e)))
    return total


@lru_cache(maxsize=4096)
def _count_pairs_local_cached(p: int, e: int, g: int, b1c, b2c, rows) -> int:
    """The local pair count, with the beta' coordinates already reduced mod g."""
    pe = p ** e
    dual = _dual_subgroup(pe, [list(r) for r in rows])
    size_L = (pe * pe) // dual.count
    if g == 1:
        return _count_local_coprime(p, e, dual, size_L)
    # generic path: complex accumulation of exact phase counts
    b1, b2 = CycInt(*b1c), CycInt(*b2c)
    acc: dict[int, int] = {}
    for w in dual.iter_all():
        lam = CycInt(w[0], w[1], 0, 0)
        cnt, r = _tsum(pe, g, lam, b1, b2)
        if cnt:
            acc[r] = acc.get(r, 0) + cnt
    val = phase_sum(acc.items(), pe)
    total = val.real * size_L / (pe * pe)
    rounded = round(total)
    if not (abs(total - rounded) < _ROUND_TOL
            and abs(val.imag) * size_L / (pe * pe) < _ROUND_TOL):
        raise InvariantError(f"pair count {val * size_L / (pe * pe)} mod {p}^{e} "
                             "is not an integer")
    return int(rounded)


def _tsum(n: int, g: int, lam: CycInt, b1: CycInt, b2: CycInt) -> tuple[int, int]:
    """T_n(lam) = sum over beta1, beta2 = beta' (g) of psi_n(lam*beta1*beta2).

    Summing beta2 first leaves (n/g)^4 times a character sum over the beta1
    coset {beta1 = b1 (g), lam*beta1 = 0 (n/g)} with phase <lam*b2*beta1, 1>.
    """
    npr = n // g
    cnt, r = beta_coset_char_sum(n, g, npr, lam, CycInt(0), b1, lam * b2)
    return cnt * npr ** 4, r


def _count_local_coprime(p: int, e: int, dual, size_L: int) -> int:
    pe = p ** e
    if dual.count == pe * pe:
        ksum = _kernel_size_total(p, e)
    else:
        if dual.count > 3 * 10 ** 7:
            raise ValueError("dual subgroup too large for enumeration budget")
        xs, ys = _subgroup_elements(dual)
        exps = _kernel_sizes_vectorized(p, e, xs, ys)
        hist = np.bincount(exps, minlength=4 * e + 1)
        ksum = sum(int(c) * p ** j for j, c in enumerate(hist))
    return size_L * pe * pe * ksum


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


def _subgroup_elements(sol) -> tuple[np.ndarray, np.ndarray]:
    n = sol.n
    xs = np.array([sol.x0[0]], dtype=np.int64)
    ys = np.array([sol.x0[1]], dtype=np.int64)
    for gen, order in zip(sol.gens, sol.gen_orders):
        if order <= 1:
            continue
        mult = np.arange(order, dtype=np.int64)
        xs = (xs[:, None] + mult[None, :] * gen[0]) % n
        ys = (ys[:, None] + mult[None, :] * gen[1]) % n
        xs = xs.ravel()
        ys = ys.ravel()
    return xs, ys


# ---------------------------------------------------------------------------
# S_p(v; k): the local character sums behind tau_p and S-hat
# ---------------------------------------------------------------------------

def sp_vk(v: tuple[int, int], p: int, k: int, M: int,
          beta1p: CycInt, beta2p: CycInt) -> complex:
    """S_p(v; k) from its defining triple character sum, exactly.

    After executing the w-sum and the beta2-sum, S_p(v;k) equals a prefactor
    times the sum over primitive a (mod p^k) with a.v = 0 (p^k) of character
    sums over beta1-cosets; each inner sum is evaluated exactly.
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
    sol = solve_mod([[v[0] % pk, v[1] % pk]], [0], pk)
    terms = []
    for a in sol.iter_all():
        a1, a2 = a
        if a1 % p == 0 and a2 % p == 0:
            continue
        lam = CycInt(a1, a2, 0, 0)
        cnt, r = beta_coset_char_sum(pk, geta, pk // geta, lam, CycInt(0), b1, lam * b2)
        if cnt:
            terms.append((r, cnt))
    return phase_sum(terms, pk) * float(p) ** pref_exp
