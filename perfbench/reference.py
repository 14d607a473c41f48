"""Reference computations made apart from qdl, used to check its results.

Nothing here calls into qdl's arithmetic.  The only program objects these
functions touch are the weight objects the workloads hand to the program
(ArchWeight / BumpWeight), evaluated through their public call methods so
that a check compares the program's sum with an independent enumeration of
the same weighted set.

Run ``python3 perfbench/reference.py`` to recompute and print the limits of
the Laurent constants c_{-1} and c_0 that the euler-product workload checks
against.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Z[zeta_8] on coordinates: a = a0 + a1 z + a2 z^2 + a3 z^3 with z^4 = -1
# ---------------------------------------------------------------------------


def mult_matrices(a: np.ndarray) -> np.ndarray:
    """(n, 4, 4) stack with mult_matrices(a)[i] @ b = coords(a[i] * b)."""
    out = np.zeros((a.shape[0], 4, 4), dtype=a.dtype)
    for i in range(4):
        for j in range(4):
            if i + j < 4:
                out[:, i + j, j] += a[:, i]
            else:
                out[:, i + j - 4, j] -= a[:, i]
    return out


def residues_mod(p: int) -> np.ndarray:
    """All beta in O_K / p as a (p^4, 4) integer array."""
    ax = np.arange(p, dtype=np.int64)
    return np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)


class S1Literal:
    """S1(a1, a2; p) with M = 1 by literal enumeration of residue pairs mod p.

    The admissible pairs {(beta1, beta2) : ell(beta1 beta2) = 0 (p)} do not
    depend on (a1, a2), so they are enumerated once; each evaluation is then
    a phase histogram over that list.
    """

    def __init__(self, p: int):
        self.p = p
        self.betas = residues_mod(p)
        mats = mult_matrices(self.betas)
        i1, i2 = [], []
        # ell(b1 b2) = (coefficient of z^3, coefficient of z^2) of b1 * b2
        for start in range(0, len(self.betas), 256):
            rows = mats[start:start + 256]
            c3 = (rows[:, 3, :] @ self.betas.T) % p
            c2 = (rows[:, 2, :] @ self.betas.T) % p
            a, b = np.nonzero((c3 == 0) & (c2 == 0))
            i1.append(a + start)
            i2.append(b)
        self.i1 = np.concatenate(i1)
        self.i2 = np.concatenate(i2)

    def __call__(self, a1: tuple, a2: tuple) -> complex:
        p = self.p
        # <a beta, 1> is the z^3 coefficient of a * beta
        u = self.betas @ mult_matrices(np.array([a1], dtype=np.int64))[0, 3] % p
        w = self.betas @ mult_matrices(np.array([a2], dtype=np.int64))[0, 3] % p
        counts = np.bincount((u[self.i1] + w[self.i2]) % p, minlength=p)
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        return complex(counts @ roots) / p ** 3


# ---------------------------------------------------------------------------
# the smooth lattice count and sigma_infinity
# ---------------------------------------------------------------------------


def box_points(phi, X: float, M: int, beta: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Integer points of X * supp(phi) congruent to beta mod M, with weights."""
    axes = []
    for (lo, hi), b in zip(phi.boxes, beta):
        first = math.ceil(lo * X)
        first += (b - first) % M
        axes.append(np.arange(first, math.floor(hi * X) + 1, M, dtype=np.int64))
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    w = phi.eval_rows(pts / X)
    keep = w > 0
    return pts[keep], w[keep]


def lattice_count(phi1, phi2, X1: float, X2: float, M: int,
                  beta1: tuple, beta2: tuple) -> float:
    """sum of phi1(a1/X1) phi2(a2/X2) over a1, a2 with ell(a1 a2) = 0 and
    a_i = beta_i (mod M), by enumerating both support boxes."""
    p1, w1 = box_points(phi1, X1, M, beta1)
    p2, w2 = box_points(phi2, X2, M, beta2)
    mats = mult_matrices(p1)
    c3 = mats[:, 3, :] @ p2.T
    c2 = mats[:, 2, :] @ p2.T
    i, j = np.nonzero((c3 == 0) & (c2 == 0))
    return float(np.sum(w1[i] * w2[j]))


def sigma_infinity(outer, inner, samples: int, seed: int,
                   nodes: int = 20) -> tuple[float, float]:
    """int outer(x1) inner(x2) delta(ell(x1 x2)) dx1 dx2 as (value, stderr).

    Monte Carlo over the outer box.  For each sample the inner integral runs
    over the kernel plane of x2 -> ell(x1 x2), with coarea factor
    1/(s1 s2) from the singular values.  The plane meets the inner box only
    within its half-diagonal of the projected box centre, so a Gauss-Legendre
    product rule on that square covers the whole support; samples are
    batched through one stacked SVD.
    """
    rng = np.random.default_rng(seed)
    los = np.array([lo for lo, _ in outer.boxes])
    his = np.array([hi for _, hi in outer.boxes])
    vol = float(np.prod(his - los))
    x = rng.uniform(los, his, size=(samples, 4))
    w = outer.eval_rows(x)
    centre = np.array([(lo + hi) / 2 for lo, hi in inner.boxes])
    half = 0.5 * math.sqrt(sum((hi - lo) ** 2 for lo, hi in inner.boxes))
    t, tw = np.polynomial.legendre.leggauss(nodes)
    u, v = (g.ravel() for g in np.meshgrid(t * half, t * half, indexing="ij"))
    wgt = np.outer(tw * half, tw * half).ravel()
    vals = np.zeros(samples)
    live = np.nonzero(w > 0)[0]
    for start in range(0, len(live), 128):
        idx = live[start:start + 128]
        _, s, vt = np.linalg.svd(mult_matrices(x[idx])[:, [3, 2], :])
        e1, e2 = vt[:, 2, :], vt[:, 3, :]
        cu = (e1 @ centre)[:, None] + u[None, :]
        cv = (e2 @ centre)[:, None] + v[None, :]
        pts = cu[:, :, None] * e1[:, None, :] + cv[:, :, None] * e2[:, None, :]
        f = inner.eval_rows(pts.reshape(-1, 4)).reshape(len(idx), -1)
        vals[idx] = w[idx] / (s[:, 0] * s[:, 1]) * (f @ wgt)
    return float(vals.mean()) * vol, float(vals.std(ddof=1)) / math.sqrt(samples) * vol


# ---------------------------------------------------------------------------
# cubic root counts and the Rankin-Selberg partial sum
# ---------------------------------------------------------------------------


def primes_upto(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.nonzero(sieve)[0]


def cubic_disc(a0: int, a1: int, a2: int, a3: int) -> int:
    return (18 * a3 * a2 * a1 * a0 - 4 * a2 ** 3 * a0 + a2 ** 2 * a1 ** 2
            - 4 * a3 * a1 ** 3 - 27 * a3 ** 2 * a0 ** 2)


def root_counts(coeffs: tuple, primes: np.ndarray) -> np.ndarray:
    """#{x mod p : f(x) = 0 (p)} for every p in primes, in one vector pass."""
    a0, a1, a2, a3 = coeffs
    sizes = primes.astype(np.int64)
    ps = np.repeat(sizes, sizes)
    xs = np.arange(len(ps), dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    val = (((a3 * xs + a2) % ps * xs + a1) % ps * xs + a0) % ps
    return np.bincount(np.repeat(np.arange(len(primes)), sizes), weights=(val == 0),
                       minlength=len(primes)).astype(np.int64)


def rankin_sum(f1: tuple, f2: tuple, Q: float, phi) -> float:
    """sum over squarefree q coprime to both bad-prime sets of
    lambda_1(q) lambda_2(q) phi(q/Q), lambda(p) = -1 + #roots of f mod p."""
    qmax = int(math.ceil(2.0 * Q)) + 1
    primes = primes_upto(qmax)
    keep = np.ones(qmax + 1, dtype=bool)
    for p in primes[primes <= math.isqrt(qmax)]:
        keep[p * p::p * p] = False
    keep[0] = False
    lam = []
    for f in (f1, f2):
        bad = abs(f[3] * cubic_disc(*f))
        good = bad % primes != 0
        lam_p = root_counts(f, primes) - 1
        vec = np.ones(qmax + 1, dtype=np.int64)
        for p, lp in zip(primes[good], lam_p[good]):
            vec[p::p] *= lp
        for p in primes[~good]:
            keep[p::p] = False
        lam.append(vec)
    total = 0.0
    for q in range(1, qmax + 1):
        w = phi(q / Q)
        if w and keep[q]:
            total += int(lam[0][q] * lam[1][q]) * w
    return total


# ---------------------------------------------------------------------------
# the Laurent constants of sum_q rho(q) q^(-s-1) at s = 1
# ---------------------------------------------------------------------------


def _chars(p: np.ndarray) -> list[np.ndarray]:
    """chi_-4(p), chi_8(p), chi_-8(p) for odd p (0 at p = 2)."""
    r = p % 8
    odd = p % 2 == 1
    chi_m4 = np.where(odd, np.where(p % 4 == 1, 1.0, -1.0), 0.0)
    chi_8 = np.where(odd, np.where((r == 1) | (r == 7), 1.0, -1.0), 0.0)
    chi_m8 = np.where(odd, np.where((r == 1) | (r == 3), 1.0, -1.0), 0.0)
    return [chi_m4, chi_8, chi_m8]


def _log_local_factor_and_derivative(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log G_p(1) and (d/ds) log G_p(s) at s = 1, where

        G_p(s) = (1 - p^-s) F_p(s) prod_chi (1 - chi(p) p^-s)

    and F_p(s) = sum_k rho(p^k) p^(-k(1+s)) in its rational closed form in
    x = p^(-1-s):  (1 + x + p^2 x^2 + p^4 x^3 + P_p(x)) / (1 - p^6 x^4),
    P_p(x) = x at p = 2, 4 (1 - 1/p) p x / (1 - p x) at p = 1 (8), else 0.
    """
    pf = p.astype(np.float64)
    lp = np.log(pf)
    x = 1.0 / (pf * pf)                    # x at s = 1
    dx = -x * lp                           # dx/ds
    c = np.where(p == 2, 1.0, 0.0)
    split = (p % 8 == 1)
    k = np.where(split, 4.0 * (1.0 - 1.0 / pf) * pf, 0.0)
    # numerator N = 1 + x + p^2 x^2 + p^4 x^3 + c x + k x / (1 - p x)
    num = 1.0 + x + pf ** 2 * x ** 2 + pf ** 4 * x ** 3 + c * x + k * x / (1.0 - pf * x)
    dnum = (1.0 + 2 * pf ** 2 * x + 3 * pf ** 4 * x ** 2 + c
            + k / (1.0 - pf * x) ** 2)
    den = 1.0 - pf ** 6 * x ** 4
    dden = -4.0 * pf ** 6 * x ** 3
    log_g = np.log(num) - np.log(den) + np.log1p(-1.0 / pf)
    dlog_g = (dnum / num - dden / den) * dx + lp / (pf - 1.0)
    for chi in _chars(p):
        log_g += np.log1p(-chi / pf)
        dlog_g += chi * lp / (pf - chi)
    return log_g, dlog_g


def laurent_limits(pmax: int = 10 ** 7) -> dict:
    """c_{-1} and c_0 of sum_q rho(q) q^(-s-1) = c_{-1}/(s-1) + c_0 + O(s-1).

    (s-1) F(s) = (s-1) zeta(s) L(s, chi_-4) L(s, chi_8) L(s, chi_-8) prod_p G_p(s),
    so c_{-1} = L L L prod G_p(1) and
    c_0 = c_{-1} (gamma + sum_chi L'/L(1, chi) + sum_p (log G_p)'(1)).
    The L-values and their derivatives at 1 come from mpmath's Stieltjes
    constants: L(s, chi) = 8^-s sum_a chi(a) zeta(s, a/8), and the pole
    terms cancel because sum_a chi(a) = 0.
    """
    import mpmath as mp

    primes = primes_upto(pmax)
    log_g, dlog_g = _log_local_factor_and_derivative(primes)
    with mp.workdps(30):
        L, dlog_L = [], []
        for chi_of in ({1: 1, 3: -1, 5: 1, 7: -1}, {1: 1, 3: -1, 5: -1, 7: 1},
                       {1: 1, 3: 1, 5: -1, 7: -1}):
            g0 = mp.fsum(c * mp.stieltjes(0, mp.mpf(a) / 8) for a, c in chi_of.items())
            g1 = mp.fsum(c * mp.stieltjes(1, mp.mpf(a) / 8) for a, c in chi_of.items())
            val = g0 / 8
            deriv = -mp.log(8) * g0 / 8 - g1 / 8
            L.append(val)
            dlog_L.append(deriv / val)
        c_minus1 = float(L[0] * L[1] * L[2]) * math.exp(math.fsum(log_g))
        c_0 = c_minus1 * (float(mp.euler) + float(mp.fsum(dlog_L)) + math.fsum(dlog_g))
    return {"c_minus1": c_minus1, "c_0": c_0, "prime_cutoff": int(pmax),
            "L_at_1": [float(v) for v in L]}


if __name__ == "__main__":
    import json

    print(json.dumps(laurent_limits(), sort_keys=True))
