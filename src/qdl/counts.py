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
  exact integer counts per phase class r mod n.  S1, S2 (qdl.expsums), the
  generic pair count and S_p(v; k) all call it.

``count_pairs`` counts the pairs (beta1, beta2) in (O_K/n)^2 with
beta_i = beta_i' (mod gcd(n, M)) and ell(beta1*beta2) in a prescribed
subgroup L of (Z/n)^2.  The two ell-coordinates are detected by additive
characters, which collapses the pair count to a sum of multiplication-kernel
sizes over the dual subgroup of L.  At primes coprime to M the kernel sizes
have the closed form p^(4s) * gcd(x'^4 + y'^4, p^(e-s)) (unique degree-one
prime above p on x + y*zeta), which is evaluated vectorized; at the finitely
many primes dividing M the phase counts are reduced exactly modulo the
cyclotomic polynomial (``exact_phase_sum``).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

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
    is a constant.  Raises InvariantError otherwise.
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
    """The local pair count, with the beta' coordinates already reduced mod g.

    Generic path: T(lam) = sum over beta1, beta2 = beta' (g) of
    psi(lam*beta1*beta2); summing beta2 leaves (p^e/g)^4 times the character
    sum over {beta1 = b1 (g), lam*beta1 = 0 (p^e/g)} with phase
    <lam*b2*beta1, 1>, and the count is |L|/p^(2e) * sum of T over the dual.
    """
    pe = p ** e
    dual = _dual_subgroup(pe, [list(r) for r in rows])
    size_L = (pe * pe) // dual.count
    if g == 1:
        return _count_local_coprime(p, e, dual, size_L)
    lams = (CycInt(x, y, 0, 0) for x, y in dual.elements().tolist())
    counts = coset_phase_counts(pe, g, lams, ZERO, CycInt(*b1c), CycInt(*b2c))
    total = exact_phase_sum(counts, p, e) * (pe // g) ** 4 * size_L
    if total % (pe * pe):
        raise InvariantError(f"pair count {total}/{pe * pe} mod {p}^{e} is not an integer")
    return total // (pe * pe)


def _count_local_coprime(p: int, e: int, dual, size_L: int) -> int:
    pe = p ** e
    if dual.count == pe * pe:
        ksum = _kernel_size_total(p, e)
    else:
        if dual.count > 3 * 10 ** 7:
            raise ValueError("dual subgroup too large for enumeration budget")
        xs, ys = dual.elements().T
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


# ---------------------------------------------------------------------------
# S_p(v; k): the local character sums behind tau_p and S-hat
# ---------------------------------------------------------------------------

def sp_vk(v: tuple[int, int], p: int, k: int, M: int,
          beta1p: CycInt, beta2p: CycInt) -> float:
    """S_p(v; k) from its defining triple character sum, exactly.

    After executing the w-sum and the beta2-sum, S_p(v;k) equals a prefactor
    times the sum over primitive a (mod p^k) with a.v = 0 (p^k) of character
    sums over beta1-cosets.  That sum is rational (the defining sum is) and a
    sum of roots of unity, so an integer, which exact_phase_sum returns.
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
    lams = (CycInt(a1, a2, 0, 0) for a1, a2 in sol.elements().tolist()
            if a1 % p or a2 % p)
    counts = coset_phase_counts(pk, geta, lams, ZERO, b1, b2)
    return exact_phase_sum(counts, p, k) * float(p) ** pref_exp
