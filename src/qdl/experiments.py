"""Desk-scale experiments: the divisor-sum asymptotic, the lattice-count
theorem over O_K, the level-of-distribution sum, and the pre-Poisson
decomposition identity.

Weight design for the smooth-count experiment.  The archimedean weight must
be C_c^infty with support avoiding the norm-zero locus.  Two families live
here:

* coordinate-box tensor weights (ArchWeight), centered either at 1 or at a
  generic point paired with its "dual" center (the two centers multiply into
  the rank-2 module, so the constraint manifold passes through both boxes);
* rotated families of generic dual pairs.  Rotating the first complex
  embedding by a fixed angle preserves every |sigma_v|, hence admissibility,
  but moves the support to an arithmetically independent patch.  Summing a
  family of such tensor pairs is still a single admissible joint weight, and
  it is what makes the desk-scale density comparison statistically
  meaningful: one small box holds only a handful of lattice points, and
  supports that contain the degenerate loci (rational alphas and their unit
  translates, where the kernel lattices are exceptionally skewed) overshoot
  the asymptotic prediction by an order of magnitude at these scales.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from . import InvariantError
from .cyclotomic import (CycInt, CycRes, conj_star, ell_matrices, ell_matrix, embed,
                         embed_abs, mult_matrices, unembed)
from .delta import primitive_vectors, q_sum
from .expsums import CongruenceData
from .residues import divisors, rho, sieve_primes
from .singular import sigma_p_product
from .weights import BumpWeight, make_bump

DIVISOR_SUM_NMAX = 10 ** 10


@dataclass
class ExperimentConfig:
    X1: float = 12.0
    X2: float = 12.0
    D: float = 3.0
    M: int = 1
    beta1p: tuple[int, int, int, int] = (0, 0, 0, 0)
    beta2p: tuple[int, int, int, int] = (0, 0, 0, 0)
    mc_samples: int = 30_000
    seed: int = 1

    def congruence(self) -> CongruenceData:
        return CongruenceData(self.M, CycRes(self.beta1p, self.M),
                              CycRes(self.beta2p, self.M))

    def validate_delta(self):
        X = self.X1 * self.X2
        if not (1 <= self.D <= math.sqrt(X)):
            raise ValueError("delta expansion needs 1 <= D <= sqrt(X1*X2)")


@dataclass
class FitReport:
    grid: list[tuple[float, float, float, float]]  # (scale, lhs, main, residual)
    slope: float
    slope_ci: tuple[float, float]


def fit_loglog(xs: list[float], ys: list[float]) -> tuple[float, tuple[float, float]]:
    """OLS slope of log|y| vs log x with a 95% confidence interval."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.abs(np.asarray(ys, dtype=float)), 1e-300))
    n = len(lx)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    if n > 2:
        s2 = float(resid @ resid) / (n - 2)
        se = math.sqrt(s2 / float(((lx - lx.mean()) ** 2).sum()))
    else:
        se = 0.0
    # two-sided 95% t-quantiles for small n
    tq = {1: 12.7, 2: 4.30, 3: 3.18, 4: 2.78, 5: 2.57, 6: 2.45, 7: 2.36, 8: 2.31}
    t = tq.get(max(n - 2, 1), 2.0)
    return float(slope), (float(slope - t * se), float(slope + t * se))


# ---------------------------------------------------------------------------
# divisor sums
# ---------------------------------------------------------------------------

def _divisor_counts(values: np.ndarray, prime_limit: int) -> np.ndarray:
    """d(v) for an array of positive integers, by vectorized trial division."""
    vals = values.astype(np.int64).copy()
    d = np.ones(len(vals), dtype=np.int64)
    for p in sieve_primes(prime_limit):
        mask = vals % p == 0
        if not mask.any():
            continue
        e = np.zeros(len(vals), dtype=np.int64)
        while mask.any():
            e[mask] += 1
            vals[mask] //= p
            mask = vals % p == 0
        d *= e + 1
    d[vals > 1] *= 2  # a single prime factor above the limit
    return d


def divisor_sum(N: int) -> int:
    """Exact sum of d(m^4 + n^4) over integer pairs with 0 < m^4 + n^4 <= N."""
    if N < 1:
        return 0
    if N > DIVISOR_SUM_NMAX:
        raise ValueError("runtime budget: N <= 1e10")
    B = int(N ** 0.25)
    while (B + 1) ** 4 <= N:
        B += 1
    vals, mult = [], []
    for m in range(0, B + 1):
        m4 = m ** 4
        for n in range(m, B + 1):
            v = m4 + n ** 4
            if v == 0 or v > N:
                if v > N:
                    break
                continue
            if m == 0:        # (0, +-n), (+-n, 0)
                mult.append(4)
            elif m == n:      # (+-m, +-m)
                mult.append(4)
            else:             # 8 signed/ordered arrangements
                mult.append(8)
            vals.append(v)
    if not vals:
        return 0
    arr = np.array(vals, dtype=np.int64)
    d = _divisor_counts(arr, isqrt(int(arr.max())) + 1)
    return int(np.dot(d, np.array(mult, dtype=np.int64)))


def divisor_sum_sieve_oracle(N: int) -> int:
    """Independent oracle: a full divisor-count sieve up to N (N <= ~10^7)."""
    if N > 10 ** 7:
        raise ValueError("oracle sieve capped at 1e7")
    dcount = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        dcount[d::d] += 1
    B = int(N ** 0.25) + 1
    total = 0
    for m in range(-B, B + 1):
        for n in range(-B, B + 1):
            v = m ** 4 + n ** 4
            if 0 < v <= N:
                total += int(dcount[v])
    return total


def theorem1_main_term(N: float, kappa: float, c_minus1: float, c_0: float) -> float:
    return kappa * math.sqrt(N) * (c_minus1 * math.log(N) + 2 * (c_0 - c_minus1))


def theorem1_report(n_grid: list[int], kappa: float, c_minus1: float,
                    c_0: float) -> FitReport:
    """Residuals of the divisor-sum asymptotic over a grid of N, with the
    fitted log-log slope of |residual| (power saving check: slope < 1/2)."""
    rows = []
    for N in n_grid:
        lhs = divisor_sum(N)
        main = theorem1_main_term(N, kappa, c_minus1, c_0)
        rows.append((float(N), float(lhs), main, lhs - main))
    slope, ci = fit_loglog([r[0] for r in rows], [r[3] for r in rows])
    return FitReport(rows, slope, ci)


# ---------------------------------------------------------------------------
# level of distribution
# ---------------------------------------------------------------------------

def _count_in_progression(lo: float, hi: float, a: int, q: int) -> int:
    """#{m in Z: lo <= m <= hi, m = a (mod q)}."""
    if hi < lo:
        return 0
    first = math.ceil((lo - a) / q)
    last = math.floor((hi - a) / q)
    return max(0, last - first + 1)


def level_of_distribution(Q: int, X: float, q0: int = 1, a0: int = 0,
                          region: tuple[float, float, float, float] = (0.1, 0.9, 0.1, 0.9)
                          ) -> dict:
    """Signed and absolute congruence-count discrepancies up to level Q.

    region is an axis-aligned rectangle (x_lo, x_hi, y_lo, y_hi) inside
    [0, 1]^2 with 0 outside; S_q counts lattice points of X*region on the
    solution lines of m^4 + n^4 = 0 (mod q).
    """
    x0, x1, y0, y1 = region
    if not (0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1) or (x0 == 0 and y0 == 0):
        raise ValueError("region must be a rectangle in [0,1]^2 avoiding 0")
    vol = (x1 - x0) * (y1 - y0)
    signed = 0.0
    absolute = 0.0
    per_q = []
    for q in range(1, Q + 1):
        if q0 > 1 and q % q0 != a0 % q0:
            continue
        pows = [pow(x, 4, q) for x in range(q)]
        need = [(q - t) % q for t in pows]
        cnt_n = [ _count_in_progression(y0 * X, y1 * X, b, q) for b in range(q)]
        w = {}
        for b in range(q):
            w[pows[b]] = w.get(pows[b], 0) + cnt_n[b]
        S_q = 0
        for a in range(q):
            ca = _count_in_progression(x0 * X, x1 * X, a, q)
            if ca:
                S_q += ca * w.get(need[a], 0)
        main = rho(q) / q ** 2 * X * X * vol
        signed += S_q - main
        absolute += abs(S_q - main)
        per_q.append((q, S_q, main))
    return {"signed_sum": signed, "absolute_sum": absolute,
            "Q": Q, "X": X, "q0": q0, "a0": a0, "region": region,
            "num_moduli": len(per_q)}


# ---------------------------------------------------------------------------
# smooth weights on K_infty^2 and the smooth-count experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchWeight:
    """Tensor product of 4 coordinate bumps; vectorized evaluation."""

    bumps: tuple[BumpWeight, BumpWeight, BumpWeight, BumpWeight]

    @staticmethod
    def centered(radius: float = 0.35) -> "ArchWeight":
        return ArchWeight.generic(radius, (1.0, 0.0, 0.0, 0.0))

    # default support center: a generic point with every archimedean
    # embedding of modulus ~1 and every coordinate away from 0, so the
    # support dodges the rank-2 module (c2 = c3 = 0) and its unit images,
    # whose neighbourhoods carry outsized lattice counts at small scale
    GENERIC_CENTER = (1.0, 0.5, -0.6, 0.3)

    @staticmethod
    def generic(radius: float = 0.25,
                center: tuple[float, float, float, float] | None = None) -> "ArchWeight":
        c = center or ArchWeight.GENERIC_CENTER
        return ArchWeight(tuple(make_bump(ci - radius, ci + radius, "plain") for ci in c))

    @staticmethod
    def rotated_generic_pairs(count: int, radius: float = 0.3
                              ) -> list[tuple["ArchWeight", "ArchWeight"]]:
        """Family of dual generic pairs spread over the torus of rotations at
        the two complex places and the unit-scaling direction.

        Rotating place 1 alone only sweeps a pi/4 arc before the unit action
        repeats the point set, so the family also rotates place 2 and slides
        along the (s, 1/s) scaling; a golden-ratio lattice keeps the patches
        spread out (nearby patches share lattice points and add no
        statistical independence).
        """
        pairs = []
        base = ArchWeight.GENERIC_CENTER
        for j in range(count):
            t1 = ((j * 0.6180339887498949) % 1.0) * (math.pi / 4)
            t2 = ((j * 0.7548776662466927) % 1.0) * (2 * math.pi)
            s1, s3 = embed(base)
            x0 = unembed(s1 * complex(math.cos(t1), math.sin(t1)),
                         s3 * complex(math.cos(t2), math.sin(t2)))
            y0 = _dual_center(x0)
            for cen in (x0, y0):
                m1, m2 = embed(cen)
                if min(abs(m1), abs(m2)) - (1 + math.sqrt(2)) * radius < 0.02:
                    raise ValueError("support touches the norm-zero locus; "
                                     "shrink the radius")
            pairs.append((ArchWeight.generic(radius, x0),
                          ArchWeight.generic(radius, y0)))
        return pairs

    @property
    def boxes(self) -> list[tuple[float, float]]:
        return [(b.lo, b.hi) for b in self.bumps]

    def __call__(self, c0, c1, c2, c3):
        return (self.bumps[0](c0) * self.bumps[1](c1)
                * self.bumps[2](c2) * self.bumps[3](c3))

    def eval_rows(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, 4) array."""
        out = np.ones(len(pts))
        for i, b in enumerate(self.bumps):
            out *= b.eval_rows(pts[:, i])
        return out


@dataclass(frozen=True)
class AnnularWeight:
    """w(|sigma_1(x)|) * w(|sigma_2(x)|) with w a bump on [lo, hi].

    This is the support shape of the smooth-count theorem itself
    (1/Omega << |x|_v << Omega at both archimedean places), so it is smooth
    with compact support away from the norm-zero locus, and it is large:
    thousands of lattice points contribute at desk scale, which is what makes
    the density comparison statistically meaningful.
    """

    bump: BumpWeight

    @staticmethod
    def standard(lo: float = 0.8, hi: float = 1.25) -> "AnnularWeight":
        return AnnularWeight(make_bump(lo, hi, "plain"))

    @property
    def boxes(self) -> list[tuple[float, float]]:
        h = self.bump.hi
        return [(-h, h)] * 4

    def __call__(self, c0, c1, c2, c3):
        a1, a3 = embed_abs((c0, c1, c2, c3))
        return self.bump(a1) * self.bump(a3)

    def eval_rows(self, pts: np.ndarray) -> np.ndarray:
        a1, a3 = embed_abs(pts)
        return self.bump.eval_rows(a1) * self.bump.eval_rows(a3)


def _dual_center(x0):
    """Center y0 with x0 * y0 real and |y0| ~ 1 (proportional to the product
    of the three nontrivial conjugates of x0)."""
    a = CycInt(*x0)
    star = conj_star(a)
    Nval = float((a * star).c0)
    return tuple(float(c) / Nval ** 0.75 for c in star.coords())


def _box_axes(X: float, phi, beta: tuple[int, int, int, int], M: int) -> list[np.ndarray]:
    """Per coordinate, the integers of X * phi's box congruent to beta mod M."""
    axes = []
    for (lo, hi), b in zip(phi.boxes, beta):
        first = math.ceil(lo * X)
        first += (b - first) % M
        axes.append(np.arange(first, math.floor(hi * X) + 1, M, dtype=np.int64))
    return axes


def _alpha1_candidates(X: float, phi, cong: CongruenceData,
                       slot: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer alphas in the scaled support box with the slot's M-congruence
    and a nonzero weight, as an (n, 4) int64 array and their weights."""
    beta = (cong.beta1p if slot == 1 else cong.beta2p).coords
    axes = _box_axes(X, phi, beta, cong.M)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    w = phi.eval_rows(pts / X)
    keep = w > 0
    return pts[keep], w[keep]


# column pairs (i, j) of the 2x4 matrix A of x -> ell(alpha1 x); the scan
# solves for coordinates i, j of alpha2 and runs the other two over the box
_MINORS = tuple(itertools.combinations(range(4), 2))
# (alpha1, free point) candidates held in memory at once by the scan
_SCAN_CHUNK = 1 << 16


def _kernel_points(alphas: np.ndarray, axes: list[np.ndarray],
                   M: int) -> tuple[np.ndarray, np.ndarray]:
    """All alpha2 on the grid axes[0] x ... x axes[3] (each axis an arithmetic
    progression of step M) with ell(alpha1 alpha2) = 0, for every nonzero row
    alpha1 of alphas, as (row index of alpha1, (n, 4) int64 alpha2).

    ell(alpha1 x) = A x for the 2x4 matrix A = ell_matrix(alpha1).  For each
    alpha1 the 2x2 minor of A on columns (i, j) with the largest |det| is
    nonzero; the other two coordinates run over their axes and Cramer's rule
    with an exact divisibility test gives x_i and x_j, which are kept when
    they lie on their own axes.  Work is batched over alpha1, about
    _SCAN_CHUNK candidates at a time, in exact int64 arithmetic (the caller
    checks the bound that keeps it exact).
    """
    A = ell_matrices(alphas)
    minors = np.stack([A[:, 0, i] * A[:, 1, j] - A[:, 0, j] * A[:, 1, i]
                       for i, j in _MINORS], axis=1)
    pick = np.abs(minors).argmax(axis=1)
    det = minors[np.arange(len(A)), pick]
    live = alphas.any(axis=1)
    bad = np.nonzero((det == 0) & live)[0]
    if len(bad):
        raise InvariantError(f"x -> ell(alpha1 x) has rank < 2 at alpha1 = {alphas[bad[0]]}")
    found_rows = [np.zeros(0, dtype=np.int64)]
    found_pts = [np.zeros((0, 4), dtype=np.int64)]
    if any(len(ax) == 0 for ax in axes):
        return found_rows[0], found_pts[0]
    for m, (i, j) in enumerate(_MINORS):
        k, l = (c for c in range(4) if c not in (i, j))
        xk, xl = (g.ravel() for g in np.meshgrid(axes[k], axes[l], indexing="ij"))
        rows = np.nonzero((pick == m) & live)[0]
        step = max(1, _SCAN_CHUNK // len(xk))
        for s in range(0, len(rows), step):
            r = rows[s:s + step]
            a = A[r][:, :, :, None]
            d = det[r][:, None]
            # solve A[:, (i, j)] (x_i, x_j) = (u, v) := -(A_k x_k + A_l x_l)
            u = -(a[:, 0, k] * xk + a[:, 0, l] * xl)
            v = -(a[:, 1, k] * xk + a[:, 1, l] * xl)
            num_i = u * a[:, 1, j] - v * a[:, 0, j]
            num_j = a[:, 0, i] * v - a[:, 1, i] * u
            ri, ci = np.nonzero((num_i % d == 0) & (num_j % d == 0))
            x_i = num_i[ri, ci] // d[ri, 0]
            x_j = num_j[ri, ci] // d[ri, 0]
            on = _on_axis(x_i, axes[i], M) & _on_axis(x_j, axes[j], M)
            pts = np.empty((int(on.sum()), 4), dtype=np.int64)
            pts[:, i], pts[:, j] = x_i[on], x_j[on]
            pts[:, k], pts[:, l] = xk[ci[on]], xl[ci[on]]
            found_rows.append(r[ri[on]])
            found_pts.append(pts)
    return np.concatenate(found_rows), np.concatenate(found_pts)


def _on_axis(x: np.ndarray, axis: np.ndarray, M: int) -> np.ndarray:
    return (x >= axis[0]) & (x <= axis[-1]) & ((x - axis[0]) % M == 0)


def _theorem2_scan(cfg: ExperimentConfig, phi1: ArchWeight,
                   phi2: ArchWeight) -> tuple[float, int]:
    """(theorem2_lhs, number of pairs (alpha1, alpha2) with nonzero weight)."""
    if cfg.X1 ** 4 * cfg.X2 ** 2 > 10 ** 9:
        raise ValueError("enumeration budget exceeded")
    # _kernel_points' integers are at most 4 B1^2 B2 in absolute value (its
    # Cramer numerators), B_i the largest |coordinate| in X_i * phi_i's box
    B1, B2 = (math.ceil(X * max(max(abs(lo), abs(hi)) for lo, hi in phi.boxes))
              for X, phi in ((cfg.X1, phi1), (cfg.X2, phi2)))
    if 4 * B1 * B1 * B2 >= 2 ** 63:
        raise ValueError(f"lattice scan leaves int64: 4 B1^2 B2 = {4 * B1 * B1 * B2}")
    cong = cfg.congruence()
    pts1, w1 = _alpha1_candidates(cfg.X1, phi1, cong, 1)
    rows, pts2 = _kernel_points(pts1, _box_axes(cfg.X2, phi2, cong.beta2p.coords, cong.M),
                                cong.M)
    w2 = phi2.eval_rows(pts2 / cfg.X2)
    lhs, points = float(w1[rows] @ w2), int(np.count_nonzero(w2))
    zero = ~pts1.any(axis=1)
    if zero.any():  # ell(0 alpha2) = 0: alpha1 = 0 pairs with all of phi2's grid
        w2_grid = _alpha1_candidates(cfg.X2, phi2, cong, 2)[1]
        lhs += float(w1[zero].sum()) * float(w2_grid.sum())
        points += len(w2_grid)
    return lhs, points


def theorem2_lhs(cfg: ExperimentConfig, phi1: ArchWeight, phi2: ArchWeight) -> float:
    """sum over alpha1, alpha2 in O_K with ell(alpha1 alpha2) = 0 and the
    M-congruences of phi1(alpha1/X1) phi2(alpha2/X2).

    alpha1 runs over phi1's box, and alpha2 over the rank-2 integer kernel of
    beta -> ell(alpha1 beta) inside phi2's box, found by one exact batched scan
    (_kernel_points).  The kernel at alpha1 = 0 is all of O_K, so that term is
    phi1(0) times the sum of phi2 over its congruence grid.
    """
    return _theorem2_scan(cfg, phi1, phi2)[0]


def theorem2_lhs_oracle(cfg: ExperimentConfig, phi1: ArchWeight, phi2: ArchWeight) -> float:
    """Tiny-scale oracle over both coordinate boxes: for each alpha1, ell(alpha1
    alpha2) of every alpha2 in phi2's box, by one exact matrix product."""
    cong = cfg.congruence()
    pts1, w1s = _alpha1_candidates(cfg.X1, phi1, cong, 1)
    pts2, w2s = _alpha1_candidates(cfg.X2, phi2, cong, 2)
    total = 0.0
    for a1, w1 in zip(pts1.tolist(), w1s):
        ells = pts2 @ np.array(ell_matrix(CycInt(*a1)), dtype=np.int64).T
        total += w1 * float(w2s[~ells.any(axis=1)].sum())
    return total


# midpoint nodes per axis of sigma_infinity's inner integral, and the samples
# whose inner integrals are evaluated at once (16 * 32^2 = 2^14 phi2 values)
_INNER_NODES = 32
_INNER_CHUNK = 16


def _inner_integrals(phi2: ArchWeight, x1: np.ndarray) -> np.ndarray:
    """int phi2(x2) delta(ell(x1 x2)) dx2 for every row x1 of an (n, 4) stack.

    Substituting y = x1 x2 (|det| of multiplication by x1 is |N(x1)|) and
    ell(y) = (y3, y2) leaves |N(x1)|^-1 int int phi2(x1^-1 (u + v z)) du dv.
    The (u, v) box is the image of phi2's box under rows 0 and 1 of
    mult_matrix(x1); the integrand is C^infty with compact support inside it,
    so the midpoint rule there converges spectrally.
    """
    mats = mult_matrices(x1)
    inv = np.linalg.inv(mats)
    lo, hi = np.array(phi2.boxes).T
    a, b = mats[:, :2, :] * lo, mats[:, :2, :] * hi
    ulo = np.minimum(a, b).sum(axis=2)
    width = np.maximum(a, b).sum(axis=2) - ulo
    # midpoint nodes in u and v; x2 = x1^-1 (u + v z) takes columns 0 and 1
    # of the inverse
    uv = ulo[:, :, None] + width[:, :, None] * ((np.arange(_INNER_NODES) + 0.5) / _INNER_NODES)
    x2 = (uv[:, 0, :, None, None] * inv[:, None, None, :, 0]
          + uv[:, 1, None, :, None] * inv[:, None, None, :, 1])
    f = phi2.eval_rows(x2.reshape(-1, 4)).reshape(len(x1), -1).sum(axis=1)
    return f * width.prod(axis=1) / _INNER_NODES ** 2 / np.abs(np.linalg.det(mats))


def sigma_infinity(phi1: ArchWeight, phi2: ArchWeight, mc_samples: int = 30_000,
                   seed: int = 1) -> tuple[float, float]:
    """sigma_inf = int phi1(x1) phi2(x2) delta(ell(x1 x2)) dx1 dx2.

    Monte Carlo over the phi1 box, with the inner integrals of the samples
    from _inner_integrals, _INNER_CHUNK samples at a time.
    Returns (value, standard error).
    """
    rng = np.random.default_rng(seed)
    boxes = phi1.boxes
    vol = float(np.prod([hi - lo for lo, hi in boxes]))
    samples = rng.uniform(
        [lo for lo, _ in boxes], [hi for _, hi in boxes], size=(mc_samples, 4))
    w1 = phi1.eval_rows(samples)
    live = np.nonzero(w1 > 0)[0]
    vals = np.zeros(mc_samples)
    for s in range(0, len(live), _INNER_CHUNK):
        idx = live[s:s + _INNER_CHUNK]
        vals[idx] = w1[idx] * _inner_integrals(phi2, samples[idx])
    mean = float(vals.mean()) * vol
    stderr = float(vals.std(ddof=1)) / math.sqrt(mc_samples) * vol
    return mean, stderr


def thm2_check(cfg: ExperimentConfig, pair_count: int = 12,
               radius: float = 0.3) -> dict:
    """Full smooth-count comparison over a rotated family of generic pairs.

    The joint weight is the sum of the tensor pairs; lhs, sigma_inf and the
    error budget are all additive over the family.  "pairs" breaks the sums
    down by pair: lhs, rhs, sigma_inf with its Monte Carlo standard error,
    and the number of lattice pairs (alpha1, alpha2) with nonzero weight.
    """
    pairs = ArchWeight.rotated_generic_pairs(pair_count, radius)
    prod, prod_err = sigma_p_product(cfg.congruence())
    scale = cfg.X1 ** 2 * cfg.X2 ** 2
    lhs = 0.0
    s_tot, var_tot = 0.0, 0.0
    rows = []
    per_pair_samples = max(2000, cfg.mc_samples // pair_count)
    for j, (p1, p2) in enumerate(pairs):
        lhs_j, points = _theorem2_scan(cfg, p1, p2)
        s, se = sigma_infinity(p1, p2, per_pair_samples, cfg.seed + j)
        lhs += lhs_j
        s_tot += s
        var_tot += se * se
        rows.append({"lhs": lhs_j, "rhs": scale * s * prod, "sigma_inf": s,
                     "sigma_inf_se": se, "points": points})
    rhs = scale * s_tot * prod
    budget = scale * (3 * math.sqrt(var_tot) * prod + s_tot * prod_err)
    return {
        "X1": cfg.X1, "X2": cfg.X2, "M": cfg.M,
        "pair_count": pair_count, "radius": radius,
        "lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs), "budget": budget,
        "sigma_inf_sum": s_tot, "sigma_p_product": prod,
        "pairs": rows, "pass": abs(lhs - rhs) <= budget,
    }


# ---------------------------------------------------------------------------
# pre-Poisson decomposition
# ---------------------------------------------------------------------------

def prop5_decomposition_check(cfg: ExperimentConfig, phi1: ArchWeight, phi2: ArchWeight,
                              omega1: BumpWeight, omega2: BumpWeight) -> dict:
    """Sigma (direct) against -2 Sigma_1 + Sigma_2 in their pre-Poisson forms.

    Sigma_1 = D^-2 sum_q sum_pairs [q | ell] w1(|ell|/(qD)) phi-weights,
    Sigma_2 = D^-2 sum_{d, c prim} w1(|c|d/D) d/sqrt(DX) sum_q
              (w2(dq/sqrt(DX)) - w2(det(c,ell)/(q sqrt(DX))))
              [dq | det(c, ell)] [d | ell] phi-weights.
    """
    cfg.validate_delta()
    cong = cfg.congruence()
    X = cfg.X1 * cfg.X2
    D = cfg.D
    sDX = math.sqrt(D * X)
    # aggregate pair weights by their ell value: the decomposition terms only
    # depend on ell(alpha1 alpha2)
    by_ell: dict[tuple[int, int], float] = {}
    pts1, w1s = _alpha1_candidates(cfg.X1, phi1, cong, 1)
    arr2, w2s = _alpha1_candidates(cfg.X2, phi2, cong, 2)
    for A, w1 in zip(ell_matrices(pts1), w1s):
        ells = arr2 @ A.T  # rows: (ell1, ell2) of a1*a2
        for (l1, l2), w2 in zip(ells, w2s):
            key = (int(l1), int(l2))
            by_ell[key] = by_ell.get(key, 0.0) + w1 * w2

    direct = by_ell.get((0, 0), 0.0)
    sig1 = 0.0
    sig2 = 0.0
    prim = primitive_vectors(omega1.hi * D)
    for (n1, n2), w in by_ell.items():
        if (n1, n2) != (0, 0):
            g = gcd(abs(n1), abs(n2))
            nn = math.hypot(n1, n2)
            for q in divisors(g):
                sig1 += w * omega1(nn / (q * D))
        for (c1v, c2v) in prim:
            nc = math.hypot(c1v, c2v)
            det = c1v * n2 - c2v * n1
            for d in range(1, int(omega1.hi * D / nc) + 1):
                wd = omega1(nc * d / D)
                if wd == 0.0:
                    continue
                if (n1 % d) or (n2 % d):
                    continue
                sig2 += w * wd * d / sDX * q_sum(det, d, sDX, omega2)
    sig1 /= D * D
    sig2 /= D * D
    decomposed = -2 * sig1 + sig2
    return {"direct": direct, "sigma1": sig1, "sigma2": sig2,
            "decomposed": decomposed, "diff": abs(direct - decomposed)}
