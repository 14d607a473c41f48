import math

import numpy as np
import pytest

from qdl import constants as C
from qdl import experiments
from qdl.cyclotomic import CycInt, ell, ell_matrices, ell_matrix
from qdl.experiments import (AnnularWeight, ArchWeight, ExperimentConfig, _alpha1_candidates,
                             _box_axes, _inner_integrals, _kernel_points, _theorem2_scan,
                             divisor_sum, divisor_sum_sieve_oracle, fit_loglog,
                             level_of_distribution, prop5_decomposition_check,
                             sigma_infinity, theorem1_main_term, theorem1_report,
                             theorem2_lhs, theorem2_lhs_oracle, thm2_check)
from qdl.linalg import integer_kernel
from qdl.weights import make_bump

PHI = ArchWeight.centered(0.35)


def _pair_count(cfg, phi1, phi2):
    """#{(alpha1, alpha2) with nonzero weight, ell(alpha1 alpha2) = 0}, by
    testing every alpha2 of phi2's box against each alpha1."""
    cong = cfg.congruence()
    pts1, _ = _alpha1_candidates(cfg.X1, phi1, cong, 1)
    pts2, _ = _alpha1_candidates(cfg.X2, phi2, cong, 2)
    return sum(int((~(pts2 @ np.array(ell_matrix(CycInt(*a)), dtype=np.int64).T)
                    .any(axis=1)).sum()) for a in pts1.tolist())


def _assert_scan_matches_oracle(cfg, phi1, phi2, min_points=1):
    lhs, points = _theorem2_scan(cfg, phi1, phi2)
    assert lhs == theorem2_lhs(cfg, phi1, phi2)
    assert abs(lhs - theorem2_lhs_oracle(cfg, phi1, phi2)) < 1e-10
    assert points == _pair_count(cfg, phi1, phi2) >= min_points


def test_divisor_sum_small_values():
    assert divisor_sum(1) == 4    # (+-1, 0), (0, +-1)
    assert divisor_sum(2) == 12   # adds (+-1, +-1) with d(2) = 2
    assert divisor_sum(0) == 0


def test_divisor_sum_dual_oracle():
    for N in (10 ** 2, 10 ** 3, 10 ** 4):
        assert divisor_sum(N) == divisor_sum_sieve_oracle(N)


def test_divisor_sum_budget():
    with pytest.raises(ValueError):
        divisor_sum(10 ** 11)


def test_fit_loglog():
    xs = [10.0, 100.0, 1000.0]
    ys = [2 * x ** 0.5 for x in xs]
    slope, ci = fit_loglog(xs, ys)
    assert abs(slope - 0.5) < 1e-9
    assert ci[0] <= slope <= ci[1]


def test_theorem1_main_term_positive():
    for N in (10.0, 1e4, 1e8):
        assert theorem1_main_term(N, 3.7081, 0.9, 1.0) > 0


def test_level_of_distribution_q1_term():
    # the q = 1 term is the lattice-count error of the region, O(X)
    X = 200.0
    out = level_of_distribution(1, X)
    assert abs(out["signed_sum"]) <= 4 * X
    with pytest.raises(ValueError):
        level_of_distribution(10, 100.0, region=(0.0, 1.0, 0.0, 1.0))


def test_level_of_distribution_cancellation():
    out = level_of_distribution(120, 120.0)
    assert abs(out["signed_sum"]) < out["absolute_sum"]
    assert out["num_moduli"] == 120


def test_arch_weight_eval_consistency():
    pts = np.random.default_rng(0).uniform(0.4, 1.6, size=(40, 4))
    v1 = PHI.eval_rows(pts)
    v2 = np.array([PHI(*p) for p in pts])
    assert np.allclose(v1, v2, atol=1e-14)
    ann = AnnularWeight.standard()
    v1 = ann.eval_rows(pts)
    v2 = np.array([ann(*p) for p in pts])
    assert np.allclose(v1, v2, atol=1e-14)


def test_theorem2_lhs_oracle_equivalence():
    cfg = ExperimentConfig(X1=4, X2=4)
    a = theorem2_lhs(cfg, PHI, PHI)
    b = theorem2_lhs_oracle(cfg, PHI, PHI)
    assert abs(a - b) < 1e-10
    # annular weights too
    ann = AnnularWeight.standard()
    a = theorem2_lhs(cfg, ann, ann)
    b = theorem2_lhs_oracle(cfg, ann, ann)
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("M, beta1p, beta2p, X1, X2, weights, min_points", [
    (1, (0, 0, 0, 0), (0, 0, 0, 0), 14, 9, "pair", 500),
    (1, (0, 0, 0, 0), (0, 0, 0, 0), 9, 14, "pair", 500),
    (1, (0, 0, 0, 0), (0, 0, 0, 0), 6, 4, "annulus", 1000),
    (2, (1, 0, 0, 0), (1, 0, 0, 0), 16, 8, "pair", 5),
    (2, (1, 1, 0, 0), (1, 1, 1, 1), 8, 6, "annulus", 50),
    (2, (1, 0, 1, 1), (0, 1, 1, 1), 7, 9, "annulus", 50),
    (3, (1, 2, 0, 1), (1, 1, 0, 2), 9, 7, "annulus", 8),
    (3, (2, 1, 1, 0), (1, 0, 1, 1), 8, 10, "annulus", 8),
])
def test_theorem2_scan_matches_oracle_with_congruences(M, beta1p, beta2p, X1, X2,
                                                        weights, min_points):
    # l(beta1' beta2') = 0 mod M, so the congruence classes meet the kernel
    assert all(x % M == 0 for x in ell(CycInt(*beta1p) * CycInt(*beta2p)))
    cfg = ExperimentConfig(X1=X1, X2=X2, M=M, beta1p=beta1p, beta2p=beta2p)
    if weights == "pair":
        phi1, phi2 = ArchWeight.rotated_generic_pairs(1)[0]
    else:
        phi1 = phi2 = AnnularWeight.standard()
    _assert_scan_matches_oracle(cfg, phi1, phi2, min_points)


def test_theorem2_scan_degenerate_minor_and_zero_alpha():
    # near zeta^2 the alpha1 = c2 z^2 + c3 z^3 have c0 = c1 = 0, so the minor
    # of ell_matrix(alpha1) on columns (2, 3), -c1 c3 - c0^2, vanishes there
    near_z2 = ArchWeight.generic(0.3, (0.0, 0.0, 1.0, 0.0))
    cfg = ExperimentConfig(X1=9, X2=7)
    pts, _ = _alpha1_candidates(cfg.X1, near_z2, cfg.congruence(), 1)
    assert (~pts[:, :2].any(axis=1)).sum() >= 10
    _assert_scan_matches_oracle(cfg, near_z2, near_z2, min_points=30)
    # the annulus box holds alpha1 = 0, where the annular weight vanishes
    ann = AnnularWeight.standard()
    box = _box_axes(5.0, ann, (0, 0, 0, 0), 1)
    assert all(0 in ax for ax in box)
    _assert_scan_matches_oracle(ExperimentConfig(X1=5, X2=4), ann, ann, min_points=100)
    _assert_scan_matches_oracle(ExperimentConfig(X1=5, X2=8), ann, near_z2)


def test_theorem2_scan_counts_zero_alpha1():
    # a weight with phi1(0) > 0: alpha1 = 0 pairs with every alpha2 on phi2's grid
    at_zero = ArchWeight.generic(0.3, (0, 0, 0, 0))
    for cfg in (ExperimentConfig(X1=4, X2=4),
                ExperimentConfig(X1=4, X2=5, M=2, beta2p=(1, 0, 1, 0))):
        pts, _ = _alpha1_candidates(cfg.X1, at_zero, cfg.congruence(), 1)
        assert (~pts.any(axis=1)).sum() == 1
        _assert_scan_matches_oracle(cfg, at_zero, at_zero, min_points=1)
        _assert_scan_matches_oracle(cfg, at_zero, PHI, min_points=1)
    lhs = theorem2_lhs(ExperimentConfig(X1=4, X2=4), at_zero, at_zero)
    assert abs(lhs - 1.001804) < 1e-6, lhs


def test_theorem2_scan_chunking(monkeypatch):
    # batches smaller than one free grid, and batches that split every minor
    # group, give the same points as one batch
    from qdl import experiments

    phi1, phi2 = ArchWeight.rotated_generic_pairs(1)[0]
    cfg = ExperimentConfig(X1=12, X2=10)
    whole = _theorem2_scan(cfg, phi1, phi2)
    for chunk in (1, 97):
        monkeypatch.setattr(experiments, "_SCAN_CHUNK", chunk)
        lhs, points = _theorem2_scan(cfg, phi1, phi2)
        assert points == whole[1] > 100
        assert abs(lhs - whole[0]) <= 1e-12 * whole[0]


def test_kernel_points_match_integer_kernel_basis():
    """For seeded alpha1 and boxes, the scan finds exactly the points
    s b1 + t b2 of integer_kernel's basis that lie on the box's grid."""
    rng = np.random.default_rng(5)
    for trial in range(40):
        M = int(rng.integers(1, 4))
        alphas = rng.integers(-7, 8, size=(6, 4))
        alphas[0] = 0                      # skipped by the scan
        alphas[1] = (0, 0, 3, -2)          # vanishing (2, 3)-column minor
        lo = rng.integers(-9, 3, size=4)
        hi = lo + rng.integers(3, 12, size=4)
        beta = rng.integers(0, M, size=4)
        axes = [np.arange(a + (b - a) % M, h + 1, M, dtype=np.int64)
                for a, h, b in zip(lo, hi, beta)]
        rows, pts = _kernel_points(alphas, axes, M)
        for r, a1 in enumerate(alphas.tolist()):
            got = sorted(map(tuple, pts[rows == r].tolist()))
            if not any(a1):
                assert got == []
                continue
            basis = np.array(integer_kernel(ell_matrix(CycInt(*a1))), dtype=np.int64).T
            assert basis.shape == (4, 2)
            # |s|, |t| <= sum_k |pinv(basis)[., k]| max|x_k| on the box
            reach = int(np.abs(np.linalg.pinv(basis)).sum(axis=1).max()
                        * max(np.abs(lo).max(), np.abs(hi).max())) + 1
            st = np.arange(-reach, reach + 1)
            S, T = np.meshgrid(st, st, indexing="ij")
            cand = (basis @ np.stack([S.ravel(), T.ravel()])).T
            on = np.ones(len(cand), dtype=bool)
            for c, ax in enumerate(axes):
                on &= np.isin(cand[:, c], ax)
            want = sorted(map(tuple, cand[on].tolist()))
            assert got == want, (trial, a1, M)


def test_theorem2_scan_int64_headroom():
    # a weight box with coordinates up to 1e7 would overflow the scan's int64
    huge = ArchWeight(tuple(make_bump(1e7 - 1, 1e7 + 1, "plain") for _ in range(4)))
    with pytest.raises(ValueError, match="int64"):
        theorem2_lhs(ExperimentConfig(X1=1, X2=1), huge, huge)


def test_theorem2_lhs_swap_symmetry():
    c1 = ExperimentConfig(X1=6, X2=3)
    c2 = ExperimentConfig(X1=3, X2=6)
    assert abs(theorem2_lhs(c1, PHI, PHI) - theorem2_lhs(c2, PHI, PHI)) < 1e-10


def test_theorem2_lhs_incompatible_congruence_vanishes():
    cfg = ExperimentConfig(X1=6, X2=6, M=2, beta1p=(1, 0, 0, 0), beta2p=(0, 0, 1, 0))
    # l(beta1' beta2') = (0, 1) mod 2 is incompatible with l = 0
    assert theorem2_lhs(cfg, PHI, PHI) == 0.0


def test_theorem2_budget():
    with pytest.raises(ValueError):
        theorem2_lhs(ExperimentConfig(X1=100, X2=100), PHI, PHI)


def test_sigma_infinity_positive_and_stable():
    s1, e1 = sigma_infinity(PHI, PHI, 4000, 1)
    s2, e2 = sigma_infinity(PHI, PHI, 4000, 2)
    assert s1 > 0 and s2 > 0
    assert abs(s1 - s2) < 4 * (e1 + e2)
    # swap invariance of the density (same weights)
    s3, e3 = sigma_infinity(PHI, PHI, 4000, 3)
    assert abs(s1 - s3) < 4 * (e1 + e3)


def _sigma_samples(count=6, per_pair=8):
    """(phi2, x1 samples with phi1(x1) > 0) for the first count rotated pairs."""
    rng = np.random.default_rng(7)
    out = []
    for phi1, phi2 in ArchWeight.rotated_generic_pairs(count, 0.3):
        lo, hi = np.array(phi1.boxes).T
        x1 = rng.uniform(lo, hi, size=(4 * per_pair, 4))
        out.append((phi2, x1[phi1.eval_rows(x1) > 0][:per_pair]))
    return out


def _inner_integrals_svd(phi2, x1, nodes=96):
    """The inner integral by the kernel-plane route: an orthonormal basis
    (e1, e2) of ker ell(x1 .) from the SVD, the coarea factor 1/(s1 s2), and
    a Gauss-Legendre product rule on the rectangle of (e1.x, e2.x) over
    phi2's box, which holds every point where the plane meets the box."""
    lo, hi = np.array(phi2.boxes).T
    t, wt = np.polynomial.legendre.leggauss(nodes)
    out = []
    for A in ell_matrices(x1):
        _, s, vt = np.linalg.svd(A)
        e = vt[2:]
        elo = np.minimum(e * lo, e * hi).sum(axis=1)
        ehi = np.maximum(e * lo, e * hi).sum(axis=1)
        mid, half = (elo + ehi) / 2, (ehi - elo) / 2
        a, b = (g.ravel() for g in np.meshgrid(mid[0] + half[0] * t, mid[1] + half[1] * t,
                                               indexing="ij"))
        f = phi2.eval_rows(a[:, None] * e[0] + b[:, None] * e[1])
        out.append(float(f @ np.outer(wt, wt).ravel()) * half[0] * half[1] / (s[0] * s[1]))
    return np.array(out)


def test_sigma_infinity_inner_integral_matches_svd_route():
    for phi2, x1 in _sigma_samples():
        assert len(x1) == 8
        new = _inner_integrals(phi2, x1)
        old = _inner_integrals_svd(phi2, x1)
        assert np.abs(new - old).max() <= 1e-5 * old.max(), np.abs(new - old).max() / old.max()


def test_sigma_infinity_inner_integral_node_doubling(monkeypatch):
    batches = _sigma_samples()
    at32 = [_inner_integrals(phi2, x1) for phi2, x1 in batches]
    monkeypatch.setattr(experiments, "_INNER_NODES", 64)
    for (phi2, x1), coarse in zip(batches, at32):
        fine = _inner_integrals(phi2, x1)
        assert np.abs(fine - coarse).max() <= 1e-5 * fine.max()


def test_sigma_infinity_chunking_is_exact(monkeypatch):
    phi1, phi2 = ArchWeight.rotated_generic_pairs(2, 0.3)[1]
    want = sigma_infinity(phi1, phi2, 250, 5)
    assert want[1] > 0
    for chunk in (1, 97):
        monkeypatch.setattr(experiments, "_INNER_CHUNK", chunk)
        assert sigma_infinity(phi1, phi2, 250, 5) == want, chunk


def test_prop5_support_vanishing():
    # pairs with l(alpha1 alpha2) outside every omega window contribute 0 to
    # Sigma_1; the identity still balances through Sigma_2's q-window
    w1 = make_bump(*C.OMEGA1_SUPPORT, "radial-normalized")
    w2 = make_bump(*C.OMEGA2_SUPPORT, "even-halfline-normalized")
    cfg = ExperimentConfig(X1=5, X2=5, D=3.0)
    rep = prop5_decomposition_check(cfg, PHI, PHI, w1, w2)
    assert rep["diff"] <= 5e-2 * max(abs(rep["direct"]), 1e-9)


def test_prop5_validates_delta_domain():
    w1 = make_bump(*C.OMEGA1_SUPPORT, "radial-normalized")
    w2 = make_bump(*C.OMEGA2_SUPPORT, "even-halfline-normalized")
    with pytest.raises(ValueError):
        prop5_decomposition_check(ExperimentConfig(X1=4, X2=4, D=30.0),
                                  PHI, PHI, w1, w2)


@pytest.mark.slow
def test_sigma_infinity_vs_mollified_delta():
    """Independent estimate of sigma_inf: 8-dimensional Monte Carlo with a
    mollified 2D delta kernel, Richardson-free, loose agreement."""
    rng = np.random.default_rng(42)
    N = 2_000_000
    los = np.array([b[0] for b in PHI.boxes])
    his = np.array([b[1] for b in PHI.boxes])
    x1 = rng.uniform(los, his, size=(N, 4))
    x2 = rng.uniform(los, his, size=(N, 4))
    vol = float(np.prod(his - los)) ** 2
    w = PHI.eval_rows(x1) * PHI.eval_rows(x2)
    a, b = x1, x2
    prod3 = a[:, 0] * b[:, 3] + a[:, 1] * b[:, 2] + a[:, 2] * b[:, 1] + a[:, 3] * b[:, 0]
    prod2 = a[:, 0] * b[:, 2] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 0] - a[:, 3] * b[:, 3]
    eps = 0.02
    ker = np.exp(-(prod3 ** 2 + prod2 ** 2) / (2 * eps * eps)) / (2 * np.pi * eps * eps)
    est = float((w * ker).mean()) * vol
    se = float((w * ker).std()) / math.sqrt(N) * vol
    s, serr = sigma_infinity(PHI, PHI, 30000, 1)
    assert abs(est - s) < 4 * (se + serr) + 0.05 * s, (est, s)


def test_thm2_check_shape():
    cfg = ExperimentConfig(X1=8, X2=8, mc_samples=8000)
    rep = thm2_check(cfg, pair_count=3)
    for key in ("lhs", "rhs", "diff", "budget", "pass", "pairs"):
        assert key in rep
    assert rep["rhs"] > 0
    rows = rep["pairs"]
    assert len(rows) == 3
    assert math.isclose(sum(r["lhs"] for r in rows), rep["lhs"], rel_tol=1e-12)
    assert math.isclose(sum(r["rhs"] for r in rows), rep["rhs"], rel_tol=1e-12)
    assert math.isclose(sum(r["sigma_inf"] for r in rows), rep["sigma_inf_sum"],
                        rel_tol=1e-12)
    pairs = ArchWeight.rotated_generic_pairs(3, 0.3)
    for r, (p1, p2) in zip(rows, pairs):
        assert r["sigma_inf_se"] > 0
        assert r["lhs"] == theorem2_lhs(cfg, p1, p2)
        assert r["points"] == _pair_count(cfg, p1, p2)
