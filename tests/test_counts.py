import itertools
import math

import numpy as np
import pytest

import qdl.counts
import qdl.linalg
from qdl import InvariantError
from qdl.counts import (S1_FAST_QMAX, ZERO, _coset_law, _law_rows, _line_rows,
                        _orbit_total, beta_coset_char_sum, exact_phase_sum, orbit_rows, pair_sum,
                        phase_sum, sp_vk)
from qdl.cyclotomic import CycInt, CycRes, Vec2Int, ell_matrix, mult_matrix
from qdl.expsums import CongruenceData, s1_fast, s2_fast
from qdl.residues import divisors, factorize
from qdl.singular import sigma_p, sigma_p_cd, tau_p


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


@pytest.mark.parametrize("v,p,k,M,b", [
    pytest.param((1, 0), 2, 1, 2, (1, 0), id="v0-2-1"),
    pytest.param((1, 1), 2, 2, 2, (1, 0), id="v1-2-2"),
    pytest.param((3, 1), 2, 2, 2, (1, 0), id="v2-2-2"),
    pytest.param((1, 1), 2, 2, 2, (1, 1), id="v1-2-2-1+zeta"),
    pytest.param((3, 1), 2, 2, 2, (1, 1), id="v2-2-2-1+zeta"),
    pytest.param((2, 1), 2, 2, 4, (1, 1), id="M4-1+zeta"),
    pytest.param((1, 2), 3, 1, 3, (1, 1), id="M3-1+zeta")])
def test_sp_vk_matches_brute_m2(v, p, k, M, b):
    """beta1' = beta2' = b at M = 2, 3, 4; b = 1 + zeta is a non-unit at 2,
    and at M = 3, 4 ell(b^2) = (0, 1) is not 0 mod M, where the orbits'
    phases do not all vanish."""
    b = CycInt(*b)
    want = sp_vk_brute(v, p, k, M, b, b)
    got = sp_vk(v, p, k, M, b, b)
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
    """pair_sum against literal pair enumeration for composite moduli, with
    the full target subgroup L = 0 and the twisted L = Z(1, 3), at unit and
    non-unit beta'.  A non-unit class is compatible (ell(b1' b2') = 0 mod
    gcd(n, M), a nonzero count) or not (count 0, which a wrong orbit weight
    misses).  Where n has prime factors both dividing M and not, the
    character sum at nonzero (a1, a2) too: the CRT twist, the closed form at
    p not dividing M and the coset sums over D at p | M, with a drawn at
    random and from 3O and 4O, which are 0 at one factor of 12 only."""
    rng = np.random.default_rng(29)
    units = ((6, 1, (0,) * 4, (0,) * 4), (4, 2, (1, 0, 0, 0), (1, 0, 0, 0)),
             (12, 2, (1, 0, 0, 0), (1, 0, 0, 0)))
    compatible = ((12, 2, (0, 0, 0, 0), (1, 1, 0, 0)), (8, 2, (1, 1, 1, 1), (1, 0, 0, 1)),
                  (12, 3, (1, 1, 2, 0), (2, 1, 1, 0)), (8, 4, (0, 2, 1, 1), (3, 3, 3, 1)),
                  (12, 4, (2, 0, 0, 0), (1, 1, 2, 0)), (12, 6, (0, 3, 3, 0), (4, 4, 0, 4)),
                  (12, 8, (2, 3, 1, 2), (1, 3, 1, 2)))
    incompatible = ((8, 2, (1, 0, 1, 0), (1, 0, 0, 1)), (9, 3, (1, 2, 2, 0), (2, 0, 0, 1)),
                    (8, 4, (2, 0, 0, 2), (0, 1, 3, 3)), (12, 6, (0, 0, 1, 5), (3, 3, 0, 0)),
                    (12, 8, (1, 1, 1, 3), (2, 1, 3, 1)))
    for (n, M, b1, b2) in units + compatible + incompatible:
        B1, B2 = CycInt(*b1), CycInt(*b2)
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
        # ell = (c3, c2) in L: 0 for the full target, w (1, 3) for the twisted one
        mixed = g > 1 and any(M % p for p in factorize(n))
        for rows, inside in (([], (c3 % n == 0) & (c2 % n == 0)), ([[1, 3]], (c2 - 3 * c3) % n == 0)):
            count = int(np.count_nonzero(inside))
            got = pair_sum(n, M, B1, B2, rows)
            assert got == count, (n, M, b1, b2, rows, got, count)
            if not rows:  # ell(beta1 beta2) = ell(b1' b2') (mod g)
                assert (count > 0) == ((n, M, b1, b2) not in incompatible), (n, M, b1, b2)
            for f in (1, 3, 4) if mixed else ():
                a1, a2 = (f * CycInt(*(int(t) for t in rng.integers(-6, 7, 4))) for _ in range(2))
                # <a1 beta1 + a2 beta2, 1> mod n over the pairs inside L
                r = (np.add.outer(np.array(ell_matrix(a1)[0]) @ x, np.array(ell_matrix(a2)[0]) @ y)
                     % n)[inside]
                want = np.exp(2j * np.pi * r / n).sum()
                got = pair_sum(n, M, B1, B2, rows, a1, a2)
                assert abs(got - want) < 1e-9, (n, M, b1, b2, rows, a1, a2, got, want)


def test_count_pairs_rejects_n_below_1_and_over_budget():
    for n in (0, -6):
        with pytest.raises(ValueError, match="pair_sum needs n >= 1"):
            pair_sum(n, 1, CycInt(0), CycInt(0), [])
    # 2^25 needs about 10^8 orbit rows: an error before any allocation
    with pytest.raises(ValueError, match="exceed the enumeration budget"):
        pair_sum(2 ** 25, 2, CycInt(1), CycInt(1), [])
    # the closed form at p not dividing M keeps int64 residues mod p^(2e) only
    # up to p^e = S1_FAST_QMAX; the count at a = 0 builds no such table
    p = 10_007
    assert p > S1_FAST_QMAX and factorize(p) == {p: 1}
    with pytest.raises(ValueError, match="capped at p\\^e <= "):
        pair_sum(p, 1, ZERO, ZERO, [], CycInt(1), CycInt(1))
    assert pair_sum(p, 1, ZERO, ZERO, []) > 0


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
    got = pair_sum(n, 1, CycInt(0), CycInt(0), [[1, 1]])
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


def _fourth_roots(p, e):
    """The y mod p^e with y^4 = -1 (mod p^e)."""
    return [y for y in range(p ** e) if (y ** 4 + 1) % p ** e == 0]


def test_coset_law_matches_beta_coset_char_sum():
    """The law after beta = b0 + g gamma against the Smith-form oracle, exact
    on (count, r), at every m from 0 to e: lam = p^s lam' at every level s
    (s = e is lam = 0), at p = 1 (mod 8) also lam' = 1 + y zeta with y near a
    fourth root of -1 (v up to e - s), right sides c = 0 and c != 0, and mu
    in g lam O, which opens the v-gates."""
    rng = np.random.default_rng(53)
    seen = {"open": 0, "shut": 0, "flat open": 0, "v >= 2 open": 0, "homogeneous open": 0}
    for p, top in ((2, 5), (3, 3), (5, 3), (17, 3), (41, 2)):
        roots = {e: _fourth_roots(p, e) for e in range(1, top + 1)}
        for e in range(1, top + 1):
            n = p ** e
            for m in range(e + 1):
                g = p ** m
                for draw in range(60):
                    near = roots[e] and draw % 3 != 2  # near a fourth root of -1 mod p^e
                    s = 0 if near and draw % 2 else int(rng.integers(0, e + 1))
                    ms = p ** (e - s)
                    if s == e:
                        rep = (0, 0)
                    elif near:
                        j = int(rng.integers(1, e - s + 1))
                        rep = (1, (roots[e][draw % len(roots[e])] + p ** j * int(rng.integers(0, p))) % ms)
                    else:
                        x, y = (int(t) for t in rng.integers(0, ms, 2))
                        rep = (x, y) if (x % p or y % p) else (1, y)
                    lam = CycInt(p ** s * rep[0] % n, p ** s * rep[1] % n)
                    b0, mu, t = (CycInt(*(int(c) for c in rng.integers(-9, 10, 4))) for _ in range(3))
                    homogeneous = draw % 2 == 0
                    if draw % 4 == 1:  # mu in g lam O opens the gates of A1 = mu
                        mu = g * lam * mu
                    if homogeneous:
                        rhs = ZERO
                    else:  # lam times a coset element, sometimes perturbed
                        rhs = lam * (b0 + g * t) + (t if rng.random() < 0.3 else ZERO)
                    want = beta_coset_char_sum(n, g, lam, rhs, b0, mu)
                    law = _law_rows(p, e, m, np.array([rep]), np.array([s]))
                    q = n // g
                    ok, T = _coset_law(law, p, q, np.array([mu.coords()]) % q,
                                       np.array([(lam * b0 - rhs).coords()]) % q)
                    r = T // law.div
                    E = int(law.ek[0]) - e + s + 1  # log_p of the count
                    if ok[0]:
                        got = (p ** E, ((mu * b0).c3 + g * p ** (s + m) * int(r[0])) % n)
                    else:
                        got = (0, 0)
                    assert got == want, (p, e, m, rep, s, b0, mu, rhs)
                    flat = s + m >= e - m
                    seen["open" if ok[0] else "shut"] += 1
                    seen["flat open"] += bool(ok[0] and flat)
                    seen["homogeneous open"] += bool(ok[0] and homogeneous and not flat)
                    seen["v >= 2 open"] += bool(ok[0] and not flat and E - 4 * (s + m) >= 2)
    assert min(seen.values()) >= 10, seen


def test_line_rows_match_the_filtered_table():
    """sp_vk's rows on the line lam.v = 0 (p^k), built without the table, are
    the level-0 rows of orbit_rows(p, k) on that line, in table order."""
    for p in (2, 3, 5, 17):
        k = 1
        while p ** k <= 10 ** 4:
            pk = p ** k
            tab = orbit_rows(p, k)
            level0 = tab.rep[tab.s == 0]
            vs = {(1, 0), (0, 1), (1, 1), (p, 1), (1, p), (p, p), (2, 3), (pk, 1), (p ** (k - 1), p),
                  (0, 0), (pk, pk), (7, p * p), (-3, 5)}
            for v in vs:
                want = level0[(level0 @ np.array([v[0] % pk, v[1] % pk])) % pk == 0]
                assert np.array_equal(_line_rows(p, k, (v[0] % pk, v[1] % pk)), want), (p, k, v)
            k += 1


def test_full_dual_count_is_its_row_sum():
    """At g = 1 with D everything, the count by the number of rows with each
    v equals the law's orbit sums over every row of orbit_rows(p, e)."""
    for p in (2, 3, 5, 7, 17, 41):
        e = 1
        while p ** e <= 2 * 10 ** 4:
            pe = p ** e
            rows = orbit_rows(p, e)
            rows_sum = pe ** 4 + _orbit_total(p, e, 0, rows.rep, rows.lam, rows.s, ZERO, ZERO)
            assert pair_sum(pe, 1, ZERO, ZERO, []) == pe * pe * rows_sum, (p, e)
            e += 1


def test_engine_makes_no_smith_form_solve(monkeypatch):
    """With the Smith-form solver patched to raise, pair_sum, sp_vk and the
    local densities still run over the classes mod 2, 3, 4 and 9, and S1, S2
    over a grid at M = 2, 3."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Smith-form solve on the engine's path")

    for mod, name in ((qdl.linalg, "solve_mod"), (qdl.linalg, "smith_normal_form"),
                      (qdl.counts, "solve_mod"), (qdl.counts, "beta_coset_char_sum")):
        monkeypatch.setattr(mod, name, refuse)
    rng = np.random.default_rng(59)
    for M in (2, 3, 4, 9):
        p = factorize(M).popitem()[0]
        for b in itertools.product(range(M), repeat=4):
            if rng.random() > 40 / M ** 4:  # every class mod 2, about 40 of the others
                continue
            b1, b2 = CycInt(*b), CycInt(*(int(x) for x in rng.integers(0, M, 4)))
            cong = CongruenceData(M, CycRes(b1.coords(), M), CycRes(b2.coords(), M))
            pair_sum(p ** 3, M, b1, b2, [])
            pair_sum(p ** 2, M, b1, b2, [[1, 3]], CycInt(1, 2), CycInt(0, 1, 1))
            sp_vk((1, p), p, 2, M, b1, b2)
            sigma_p(p, cong)
            tau_p(Vec2Int(1, 2), p, cong)
            sigma_p_cd(p, Vec2Int(2, 1), p, cong)
    for M, b in ((2, (1, 1, 0, 0)), (3, (1, 2, 0, 1))):
        cong = CongruenceData(M, CycRes(b, M), CycRes((1, 0, 0, 0), M))
        for q in range(1, 13):
            a1, a2 = (CycInt(*(int(x) for x in rng.integers(-6, 7, 4))) for _ in range(2))
            s1_fast(a1, a2, q, cong)
        for d, q in ((1, 4), (2, 3), (3, 2), (2, 6), (4, 3)):
            a1, a2 = (CycInt(*(int(x) for x in rng.integers(-6, 7, 4))) for _ in range(2))
            s2_fast(a1, a2, Vec2Int(1, 2), d, q, cong)
