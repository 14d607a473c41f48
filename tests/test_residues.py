import math

import numpy as np
import pytest

from qdl.cyclotomic import CycInt
from qdl.residues import (IntPoly, divisors, factorize, ideal_norm, is_prime,
                          norm_gcd_check, rho, rho_exhaustive, rho_prime_power, root_counts,
                          roots_mod_p, sieve_primes, vp)


def test_intpoly_basics():
    f = IntPoly(-1, -1, 0, 1)  # x^3 - x - 1
    assert f.degree == 3
    assert f(2) == 5
    assert f.disc() == -23
    assert IntPoly(-1, -3, 0, 1).disc() == 81
    assert IntPoly(3, 2, 1, 0).degree == 2


def test_roots_mod_p_large_prime():
    f = IntPoly(-1, -1, 0, 1)
    # root_counts against a direct scan (three roots at 2969)
    ps = [2969, 3001, 4999, 10007]
    want = [sum(f(x) % p == 0 for x in range(p)) for p in ps]
    assert root_counts([f], ps)[0].tolist() == want


def _distinct_linear_factors(f, p):
    """#roots of f mod p as sympy counts them: its distinct linear factors."""
    from sympy import Poly, symbols

    g = Poly([f.a3, f.a2, f.a1, f.a0], symbols("x"), modulus=p)
    return sum(h.degree() == 1 for h, _ in g.factor_list()[1])


def test_root_counts_matches_roots_mod_p():
    """The batched Frobenius count against the scan oracle at every prime
    <= 2000 (2, 3 and the primes dividing a3 disc among them), and against
    sympy's factorisation at primes past the scan's reach."""
    from qdl.dedekind import classify

    fixed = [(-1, -1, 0, 1), (3, -7, 2, -5), (2, 0, 0, -3),  # S3, a3 = -5, -3
             (1, -3, 0, 1), (-1, -2, 1, 1),                   # A3
             (0, -1, 0, 1), (1, 2, 1, 2),                     # reducible
             (3, 2, 1, 0), (-4, 0, 1, 0),                     # a3 = 0
             (1, 3, 3, 1), (1, -3, 0, 4), (0, 0, -1, 1)]      # disc = 0
    rng = np.random.default_rng(19)
    drawn = [tuple(int(x) for x in rng.integers(-9, 10, 4)) for _ in range(8)]
    cubics = [IntPoly(*c) for c in fixed + drawn]
    kinds = {classify(f).galois_type for f in cubics}
    assert kinds == {"S3", "A3", "reducible", "degenerate"}
    assert any(f.a3 < -1 for f in cubics) and any(f.disc() == 0 for f in cubics)
    small = sieve_primes(2000)
    large = [3001, 7919, 104729, 1299709, 2 ** 31 - 1]
    ps = np.array(small + large)

    def oracle(f):
        return ([len(roots_mod_p(f, p)) for p in small]
                + [_distinct_linear_factors(f, p) for p in large])

    # one call on every cubic: rows with different slow-prime sets share one ladder
    batched = root_counts(cubics, ps)
    assert batched.dtype == np.int64 and batched.shape == (len(cubics), ps.size)
    for f, row in zip(cubics, batched):
        want = oracle(f)
        got = root_counts([f], ps)
        assert got.shape == (1, ps.size)
        assert got[0].tolist() == want, f
        assert row.tolist() == want, f
    assert root_counts(cubics, []).shape == (len(cubics), 0)
    # coefficients past int64 are reduced as Python ints
    huge = IntPoly(2 ** 64 + 3, -1, 0, 1)
    assert root_counts([huge, cubics[0]], ps)[0].tolist() == oracle(huge)
    assert root_counts(cubics[:1], []).shape == (1, 0)
    # f = 0 mod p: every residue is a root, on both sides of the old scan limit
    assert root_counts([IntPoly(0, 0, 0, 0)], [2999, 3001]).tolist() == [[2999, 3001]]
    assert root_counts([IntPoly(3001, 0, 0, 3001)], [3001]).tolist() == [[3001]]


def test_root_counts_closed_forms_match_scan():
    """Every pair with p = 2, p | a3 or p | disc is counted in closed form;
    check each such pair of the cubics with coefficients in [-3, 3] (f = 0
    included) at p <= 199 against the scan."""
    import itertools

    cubics = [IntPoly(*c) for c in itertools.product(range(-3, 4), repeat=4)]
    ps = sieve_primes(199)
    table = root_counts(cubics, ps)
    pairs = 0
    for f, row in zip(cubics, table.tolist()):
        disc = f.disc()
        for p, got in zip(ps, row):
            if p == 2 or f.a3 % p == 0 or disc % p == 0:
                assert got == len(roots_mod_p(f, p)), (f, p)
                pairs += 1
    assert pairs == 23_722


def test_root_counts_blocks_are_exact(monkeypatch):
    """Walking the ladder in blocks of 7 pairs gives the one-block table."""
    from qdl import residues

    rng = np.random.default_rng(23)
    cubics = [IntPoly(*(int(x) for x in rng.integers(-50, 51, 4))) for _ in range(6)]
    ps = sieve_primes(500) + [2 ** 31 - 1]
    whole = root_counts(cubics, ps)
    monkeypatch.setattr(residues, "_ROOT_COUNTS_BLOCK", 7)
    assert np.array_equal(root_counts(cubics, ps), whole)


def test_root_counts_rejects_primes_past_int64_safety():
    with pytest.raises(ValueError):
        root_counts([IntPoly(-1, -1, 0, 1)], [5, 2 ** 31 + 11])


@pytest.mark.slow
def test_lemma_root_count_bound_full_grid():
    """Count bound with explicit constant over all cubics with coefficients in
    [-6, 6], p in {2,3,5,7}, k <= 4 (skipping f with p | all coefficients)."""
    import itertools

    coeff_grid = np.array(list(itertools.product(range(-6, 7), repeat=4)), dtype=np.int64)
    a, b, c, d = (coeff_grid[:, 3], coeff_grid[:, 2], coeff_grid[:, 1], coeff_grid[:, 0])
    disc = (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
            - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)
    cubic = a != 0
    worst = 0.0
    for p in (2, 3, 5, 7):
        content_ok = ~np.all(coeff_grid % p == 0, axis=1)
        for k in (1, 2, 3, 4):
            q = p ** k
            xs = np.arange(q, dtype=np.int64)
            pows = np.stack([np.ones(q, dtype=np.int64), xs % q,
                             xs ** 2 % q, xs ** 3 % q])
            vals = coeff_grid @ pows % q  # (ncubics, q)
            counts = (vals == 0).sum(axis=1)
            gcd_disc = np.gcd(np.abs(disc), q)
            bound = (k + 1) ** (k - 1) * gcd_disc.astype(float) ** (2 / 3)
            sel = cubic & content_ok
            ratio = counts[sel] / np.maximum(bound[sel], 1e-12)
            worst = max(worst, float(ratio.max()))
    # explicit constant: the bound holds with C = 4 on this grid
    assert worst <= 4.0, worst


def test_rho_examples_and_multiplicativity():
    assert rho(2) == 2
    assert rho(3) == 1
    assert rho(17) == 65
    with pytest.raises(ValueError):
        rho(0)
    for q in range(1, 101):
        assert rho(q) == rho_exhaustive(q), q
    for q1 in (3, 4, 5, 7, 9, 16, 25, 49):
        for q2 in (2, 3, 11, 13, 17):
            if math.gcd(q1, q2) == 1:
                assert rho(q1 * q2) == rho(q1) * rho(q2)


def _sieve_primes_loop(limit):
    """The pure-Python Eratosthenes loop sieve_primes replaced, as its oracle."""
    if limit < 2:
        return []
    is_comp = bytearray(limit + 1)
    primes = []
    for n in range(2, limit + 1):
        if not is_comp[n]:
            primes.append(n)
            for m in range(n * n, limit + 1, n):
                is_comp[m] = 1
    return primes


def test_sieve_primes_matches_loop_oracle():
    for limit in list(range(-1, 301)) + [10 ** 5]:
        got = sieve_primes(limit)
        assert got == _sieve_primes_loop(limit), limit
        assert all(type(p) is int for p in got)


@pytest.mark.slow
def test_rho_prime_power_recursion_vs_exhaustive():
    for p in sieve_primes(100):
        k = 1
        while p ** k <= 10 ** 4:
            q = p ** k
            x = np.arange(q, dtype=np.int64)
            pw = (x ** 2 % q) ** 2 % q
            cnt = np.bincount(pw, minlength=q)
            exhaustive = int((cnt * cnt[(q - np.arange(q)) % q]).sum())
            assert rho_prime_power(p, k) == exhaustive, (p, k)
            k += 1
    # large primes at k = 1
    for p in sieve_primes(10 ** 4):
        if p > 100:
            assert rho_prime_power(p, 1) == rho_exhaustive(p)


def test_ideal_norm_examples():
    assert ideal_norm([CycInt(2)]) == 16
    assert ideal_norm([CycInt(1, 1), CycInt(2)]) == 2
    # x + zeta with p not dividing x^4 + 1 generates the unit ideal with p^k
    assert ideal_norm([CycInt(1, 1, 0, 0), CycInt(3 ** 2)]) == 1
    with pytest.raises(ValueError):
        ideal_norm([CycInt(0, 0, 2, 0) * CycInt(0)])  # zero generator, rank 0


def test_norm_gcd_check_examples_and_sweep():
    assert norm_gcd_check(1, 1, 2, 1) == (2, 2)
    assert norm_gcd_check(1, 0, 3, 2) == (1, 1)
    assert norm_gcd_check(2, 1, 17, 1) == (17, 17)
    with pytest.raises(ValueError):
        norm_gcd_check(3, 6, 3, 1)
    # the general-y identity, verified rather than assumed
    for p in (2, 3, 5, 17):
        for k in (1, 2, 3):
            for x in range(0, 3 * p, max(1, p // 2)):
                for y in (1, 2, 3, 5):
                    if math.gcd(math.gcd(x, y), p) > 1:
                        continue
                    lhs, rhs = norm_gcd_check(x, y, p, k)
                    assert lhs == rhs, (x, y, p, k, lhs, rhs)


def test_lemma_norm_sum_bound():
    """sum over x mod p^k of N((x + zeta, p^k)) = gcd(x^4 + 1, p^k), exactly.

    Write gcd(x^4 + 1, p^k) = sum_{j <= min(v_p(x^4 + 1), k)} phi(p^j), with
    phi(1) = 1, and swap the sums: the total is
    sum_{j=0}^{k} phi(p^j) #{x mod p^k : p^j | x^4 + 1}.
    * p odd: x^4 = -1 (mod p) needs an element of order 8 in F_p^*, so it has
      r = 4 roots when p = 1 (mod 8) and r = 0 otherwise; each is simple
      (4x^3 is a unit) and lifts uniquely mod p^j (Hensel), so the count at
      j >= 1 is r p^(k-j), and the total is p^k + r k (p^k - p^(k-1)).
    * p = 2: x^4 + 1 is odd for even x and 2 (mod 16) for odd x, so
      v_2(x^4 + 1) <= 1 and the total is 2^k + 2^(k-1).
    So the sum is at most (1 + 4k) p^k, and not at most 4 p^k: at p = 17,
    k = 1 it is 17 + 4 * 16 = 81 > 68.
    """
    for p in (2, 3, 5, 7, 17):
        for k in (1, 2, 3):
            q = p ** k
            total = sum(math.gcd(x ** 4 + 1, q) for x in range(q))
            if p == 2:
                exact = q + q // 2
            else:
                r = 4 if p % 8 == 1 else 0
                exact = q + r * k * (q - q // p)
            assert total == exact, (p, k, total, exact)
            assert total <= (1 + 4 * k) * q
            # spot-check the gcd shortcut against the lattice-index route
            for x in range(0, q, max(1, q // 5)):
                assert ideal_norm([CycInt(x, 1), CycInt(q)]) == math.gcd(x ** 4 + 1, q)


def test_divisors_and_vp():
    for n in list(range(1, 200)) + [-12, 360, 2 ** 10 * 3 ** 4]:
        assert divisors(n) == [d for d in range(1, abs(n) + 1) if n % d == 0]
        for p in (2, 3, 5, 7):
            assert n % p ** vp(n, p) == 0
            assert n % p ** (vp(n, p) + 1) != 0
    with pytest.raises(ValueError):
        vp(0, 3)


def test_is_prime_and_factorize():
    assert is_prime(2) and is_prime(97) and is_prime(10007)
    assert not is_prime(1) and not is_prime(91)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
