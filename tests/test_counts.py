import itertools

import numpy as np
import pytest

from qdl import InvariantError
from qdl.counts import beta_coset_char_sum, count_pairs, exact_phase_sum, phase_sum, sp_vk
from qdl.cyclotomic import CycInt, ell_matrix, mult_matrix
from qdl.residues import divisors


def sp_vk_brute(v, p, k, M, b1, b2):
    """Literal triple character sum from the defining display."""
    pk = p ** k
    m = 0
    MM = M
    while MM % p == 0:
        m += 1
        MM //= p
    if k == 0:
        return p ** (-8.0 * m)
    eta = min(m, k)
    g = p ** eta
    total = 0j
    reps = list(itertools.product(range(pk // g), repeat=4))
    res1 = [CycInt(*[g * a + (b1.coords()[i] % g) for i, a in enumerate(t)]) for t in reps]
    res2 = [CycInt(*[g * a + (b2.coords()[i] % g) for i, a in enumerate(t)]) for t in reps]
    for B1 in res1:
        for B2 in res2:
            pr = B1 * B2
            ell = (pr.c3, pr.c2)
            for w in range(pk):
                u1 = (ell[0] - v[0] * w) % pk
                u2 = (ell[1] - v[1] * w) % pk
                # primitive-pair character sum over a (Ramanujan-type)
                s = pk * pk if (u1 == 0 and u2 == 0) else 0
                if u1 % p ** (k - 1) == 0 and u2 % p ** (k - 1) == 0:
                    s -= p ** (2 * (k - 1))
                total += s
    return total / p ** (9 * k + 8 * max(0, m - k))


@pytest.mark.parametrize("v,p,k", [((1, 0), 2, 1), ((1, 1), 2, 1), ((0, 1), 3, 1),
                                   ((1, 2), 3, 1), ((2, 2), 2, 2), ((1, 0), 2, 2)])
def test_sp_vk_matches_brute_m1(v, p, k):
    want = sp_vk_brute(v, p, k, 1, CycInt(0), CycInt(0))
    got = sp_vk(v, p, k, 1, CycInt(0), CycInt(0))
    assert abs(want - got) < 1e-9


@pytest.mark.parametrize("v,p,k", [((1, 0), 2, 1), ((1, 1), 2, 2), ((3, 1), 2, 2)])
def test_sp_vk_matches_brute_m2(v, p, k):
    b = CycInt(1, 0, 0, 0)
    want = sp_vk_brute(v, p, k, 2, b, b)
    got = sp_vk(v, p, k, 2, b, b)
    assert abs(want - got) < 1e-9


def test_sp_vk_tail_bound_shape():
    # |S_p(v;k)| <= C (k+1) (v1^4+v2^4, p^k) p^(-3k) on a sweep
    import math

    worst = 0.0
    for p in (2, 3, 5):
        for v in ((1, 0), (1, 1), (2, 1), (p, p)):
            for k in (1, 2, 3):
                val = abs(sp_vk(v, p, k, 1, CycInt(0), CycInt(0)))
                bound = (k + 1) * math.gcd(v[0] ** 4 + v[1] ** 4, p ** k) / p ** (3 * k)
                worst = max(worst, val / bound)
    assert worst <= 8.0, worst


def test_count_pairs_exhaustive():
    """count_pairs against literal pair enumeration for composite moduli and
    both the full and a twisted target subgroup."""
    for (n, M, b1, b2) in ((6, 1, (0,) * 4, (0,) * 4),
                           (4, 2, (1, 0, 0, 0), (1, 0, 0, 0)),
                           (12, 2, (1, 0, 0, 0), (1, 0, 0, 0))):
        import math

        B1, B2 = CycInt(*b1), CycInt(*b2)

        def rows_zero(p, e):
            return []

        got = count_pairs(n, M, B1, B2, rows_zero)
        g = math.gcd(n, M)

        def coset(b):
            # every beta mod n with beta = b (mod g), one coordinate per row
            axes = [np.arange(b_i % g, n, g) for b_i in b]
            return np.stack(np.meshgrid(*axes, indexing="ij")).reshape(4, -1)

        # z^2 and z^3 coordinates of beta1 * beta2 in Z[z]/(z^4 + 1), every pair
        x, y = coset(b1), coset(b2)
        c2 = (np.outer(x[0], y[2]) + np.outer(x[1], y[1]) + np.outer(x[2], y[0])
              - np.outer(x[3], y[3]))
        c3 = (np.outer(x[0], y[3]) + np.outer(x[1], y[2]) + np.outer(x[2], y[1])
              + np.outer(x[3], y[0]))
        count = int(np.count_nonzero((c3 % n == 0) & (c2 % n == 0)))
        assert got == count, (n, M, got, count)


def test_count_pairs_sublattice_target():
    # target subgroup L = Z*(1,1) + nZ^2: l(b1 b2) = w*(1,1) mod n
    n = 5
    count = 0
    for c1 in itertools.product(range(n), repeat=4):
        A = CycInt(*c1)
        for c2 in itertools.product(range(n), repeat=4):
            pr = A * CycInt(*c2)
            if (pr.c3 - pr.c2) % n == 0:
                count += 1
    got = count_pairs(n, 1, CycInt(0), CycInt(0), lambda p, e: [[1, 1]])
    assert got == count


def _coset_phase_histogram(n, g, lam, rhs, b0, mu):
    """{r: #beta} over the literal coset {beta mod n : beta = b0 (g),
    lam*beta = rhs (n/g)}, r = <mu*beta, 1> mod n."""
    axes = [np.arange(0, n, g) + (b % g) for b in b0.coords()]
    beta = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    image = beta @ np.array(mult_matrix(lam)).T - np.array(rhs.coords())
    inside = beta[np.all(image % (n // g) == 0, axis=1)]
    r = inside @ np.array(ell_matrix(mu)[0]) % n
    return {int(k): int(c) for k, c in enumerate(np.bincount(r, minlength=n)) if c}


def test_beta_coset_char_sum_matches_enumeration():
    rng = np.random.default_rng(11)
    seen = {"one class": 0, "cancelled": 0, "empty": 0}
    for n in (4, 6, 8, 9, 12, 16, 18, 21, 25, 27):
        for g in divisors(n):
            for _ in range(3):
                lam, b0, mu, t = (CycInt(*(int(x) for x in rng.integers(-9, 10, 4)))
                                  for _ in range(4))
                if rng.random() < 0.5:
                    lam = lam * int(rng.choice(divisors(n)))
                # rhs = lam * (a coset element) + a perturbation, so that both
                # solvable and unsolvable systems occur
                beta_s = b0 + t * g
                rhs = lam * beta_s + (t if rng.random() < 0.3 else CycInt(n // g))
                if rhs.is_zero() or b0.is_zero() or mu.is_zero():
                    continue
                cnt, r = beta_coset_char_sum(n, g, lam, rhs, b0, mu)
                hist = _coset_phase_histogram(n, g, lam, rhs, b0, mu)
                if cnt:
                    assert hist == {r: cnt}, (n, g, lam, rhs, b0, mu)
                    seen["one class"] += 1
                else:
                    assert r == 0
                    assert abs(phase_sum(hist.items(), n)) < 1e-9, (n, g, lam, rhs, b0, mu)
                    seen["cancelled" if hist else "empty"] += 1
    assert min(seen.values()) > 5, seen


def test_exact_phase_sum():
    rng = np.random.default_rng(3)
    for p, e in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 2), (7, 1)):
        pe, step = p ** e, p ** (e - 1)
        assert exact_phase_sum({0: 7}, p, e) == 7
        assert exact_phase_sum({r: 1 for r in range(pe)}, p, e) == 0
        # a constant plus multiples of the vanishing sums x^s * Phi_{p^e}(x)
        counts = {0: -4}
        for _ in range(5):
            s, c = int(rng.integers(0, pe)), int(rng.integers(-9, 10))
            for j in range(p):
                r = (s + j * step) % pe
                counts[r] = counts.get(r, 0) + c
        assert exact_phase_sum(counts, p, e) == -4
        assert abs(phase_sum(counts.items(), pe) + 4) < 1e-9
    for p, e in ((3, 1), (2, 2), (5, 2)):
        with pytest.raises(InvariantError):
            exact_phase_sum({1: 1}, p, e)
