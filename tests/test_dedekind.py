import itertools
import math

import numpy as np
import pytest

from qdl.cyclotomic import CycInt, sup_norm
from qdl.dedekind import (classify, fundamental_discriminant, galois_count_sweep,
                          hecke_check, lambda_n, lambda_p, rankin_partial)
from qdl.residues import IntPoly, factorize, is_prime, roots_mod_p, sieve_primes
from qdl.weights import make_bump

D1 = classify(IntPoly(-1, -1, 0, 1))   # x^3 - x - 1, disc -23
D2 = classify(IntPoly(-1, 1, 0, 1))    # x^3 + x - 1, disc -31


def test_classify_examples():
    assert D1.galois_type == "S3" and D1.disc == -23
    a3 = classify(IntPoly(-1, -3, 0, 1))
    assert a3.galois_type == "A3" and a3.disc == 81
    assert classify(IntPoly(0, -1, 0, 1)).galois_type == "reducible"
    assert classify(IntPoly(3, 2, 1, 0)).galois_type == "degenerate"
    # disc = 0 (repeated root) classifies as reducible
    assert classify(IntPoly(1, 3, 3, 1)).galois_type == "reducible"  # (x+1)^3
    assert D1.level_bound == 23
    assert D1.bad_primes == frozenset({23})


def test_lambda_p_values():
    # exhaustive root scans decide: x^3 - x - 1 has one root mod 5 and 7,
    # none mod 3, three mod 59
    assert lambda_p(D1, 5) == 0
    assert lambda_p(D1, 7) == 0
    assert lambda_p(D1, 3) == -1
    assert lambda_p(D1, 59) == 2
    assert all(lambda_p(D1, p) in (-1, 0, 2)
               for p in sieve_primes(200) if p not in D1.bad_primes)
    with pytest.raises(ValueError):
        lambda_p(D1, 23)
    assert is_prime(2 ** 31 + 11)
    with pytest.raises(ValueError):
        lambda_p(D1, 2 ** 31 + 11)  # root_counts' cap
    with pytest.raises(ValueError):
        lambda_p(classify(IntPoly(-1, -3, 0, 1)), 5)  # not S3


def test_lambda_n_multiplicative_and_bounded():
    assert lambda_n(D1, 1) == 1
    assert lambda_n(D1, 59 ** 2) == 3  # split p: j + 1

    def dtau(n):
        out = 1
        for _, e in factorize(n).items():
            out *= e + 1
        return out

    for n in range(1, 3000):
        if n % 23 == 0:
            continue
        ln = lambda_n(D1, n)
        assert abs(ln) <= dtau(n), n
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            prod *= lambda_n(D1, p ** e)
        assert ln == prod, n


def test_lambda_euler_product_expansion():
    # lambda(p^j) agrees with the coefficient of the local factor
    # (1 - x) / prod over prime factors of f mod p of (1 - x^deg)
    for p in (3, 5, 7, 59, 61):
        if p in D1.bad_primes:
            continue
        nroots = len(roots_mod_p(D1.f, p))
        # local zeta_k factors by splitting type
        if nroots == 3:
            degs = [1, 1, 1]
        elif nroots == 1:
            degs = [1, 2]
        else:
            degs = [3]
        # power series of (1-x) / prod (1 - x^d) up to x^6
        N = 7
        series = np.zeros(N)
        series[0] = 1.0
        for d in degs:
            new = np.zeros(N)
            for i in range(0, N, d):
                new[i] = 1.0
            series = np.convolve(series, new)[:N]
        series = series - np.concatenate([[0], series[:-1]])  # multiply by 1 - x
        for j in range(6):
            assert lambda_n(D1, p ** j) == round(series[j]), (p, j)


def test_fundamental_discriminant():
    assert fundamental_discriminant(-23) == -23
    assert fundamental_discriminant(8) == 8
    assert fundamental_discriminant(12) == 12  # 12 -> kernel 3 -> 3 mod 4 -> 12
    assert fundamental_discriminant(81) == 1


def test_hecke_sweep():
    rng = np.random.default_rng(11)
    done = 0
    while done < 50:
        f = IntPoly(int(rng.integers(-6, 7)), int(rng.integers(-6, 7)),
                    int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
        desc = classify(f)
        if desc.galois_type != "S3":
            continue
        for p in sieve_primes(100):
            if p in desc.bad_primes:
                continue
            assert hecke_check(desc, p), (f, p)
        done += 1


def test_rankin_partial():
    phi = make_bump(1.0, 2.0, "plain")
    assert rankin_partial(D1, D2, 0.2, 1, phi) == 0.0  # below first admissible q
    v = rankin_partial(D1, D2, 50.0, 1, phi)
    assert isinstance(v, float)
    # diagonal partial sums are positive and grow
    v1 = rankin_partial(D1, D1, 100.0, 1, phi)
    v2 = rankin_partial(D1, D1, 400.0, 1, phi)
    assert 0 < v1 < v2
    with pytest.raises(ValueError):
        rankin_partial(D1, classify(IntPoly(-1, -3, 0, 1)), 10.0, 1, phi)
    for Q, B in ((50.0, 0), (50.0, -6), (0.0, 1), (-3.0, 1)):
        with pytest.raises(ValueError):
            rankin_partial(D1, D2, Q, B, phi)


def _scan_root_count(f, p):
    """#roots of f mod p, evaluating f at every residue in one numpy pass
    (exact for p < 2^31): roots_mod_p's scan, fast enough for p ~ 2e4."""
    x = np.arange(p, dtype=np.int64)
    v = np.full(p, f.a3 % p, dtype=np.int64)
    for c in (f.a2, f.a1, f.a0):
        v = (v * x + c % p) % p
    return int(np.count_nonzero(v == 0))


def _rankin_loop_oracle(d1, d2, Q, B, phi, lam_cache):
    """The per-prime root-scan sieve and Python q-loop that rankin_partial
    replaced, kept as its oracle."""
    qmax = int(math.ceil(phi.hi * Q)) + 1

    def lam(desc):
        if (desc, qmax) not in lam_cache:
            v = np.ones(qmax + 1, dtype=np.int64)
            for p in sieve_primes(qmax):
                if p not in desc.bad_primes:
                    v[p::p] *= -1 + _scan_root_count(desc.f, p)
            lam_cache[desc, qmax] = v
        return lam_cache[desc, qmax]

    lam1, lam2 = lam(d1), lam(d2)
    bad = set(d1.bad_primes) | set(d2.bad_primes) | set(factorize(B))
    sf = np.ones(qmax + 1, dtype=bool)
    for p in sieve_primes(math.isqrt(qmax)):
        sf[p * p::p * p] = False
    for p in bad:
        sf[p::p] = False
    total = 0.0
    for q in range(1, qmax + 1):
        w = phi(q / Q)
        if w and sf[q]:
            total += lam1[q] * lam2[q] * w
    return total


def test_rankin_partial_matches_loop_oracle():
    """Weights reaching past 2 included: every q < phi.hi * Q counts."""
    d3 = classify(IntPoly(5, 4, -9, 9))   # disc -70263, bad primes 3, 37, 211
    d4 = classify(IntPoly(3, -7, 2, -5))  # a3 < 0, bad primes 5, 1811
    assert d3.galois_type == d4.galois_type == "S3"
    cache = {}
    for support in ((1.0, 2.0), (1.0, 3.0), (2.5, 4.0)):
        phi = make_bump(*support, "plain")
        for d1, d2 in ((D1, D2), (D1, D1), (d3, d4)):
            for Q in (0.2, 50.0, 500.0, 5000.0):
                for B in (1, 6):
                    got = rankin_partial(d1, d2, Q, B, phi)
                    want = _rankin_loop_oracle(d1, d2, Q, B, phi, cache)
                    assert abs(got - want) <= 1e-12 * abs(want), (support, d1.f, d2.f, Q, B,
                                                                   got, want)


def test_rankin_partial_counts_roots_at_no_bad_prime(monkeypatch):
    """The primes of B and of both bad sets leave the prime list before the
    root count, so root_counts never sees one."""
    from qdl import dedekind

    seen = []
    root_counts = dedekind.root_counts

    def recording(fs, primes):
        seen.extend(int(p) for p in primes)
        return root_counts(fs, primes)

    monkeypatch.setattr(dedekind, "root_counts", recording)
    phi = make_bump(1.0, 2.0, "plain")
    d3 = classify(IntPoly(5, 4, -9, 9))   # bad primes 3, 37, 211
    for d1, d2, B in ((D1, D2, 1), (D1, D1, 6), (d3, D2, 1), (d3, d3, 10)):
        seen.clear()
        rankin_partial(d1, d2, 500.0, B, phi)
        bad = d1.bad_primes | d2.bad_primes | set(factorize(B))
        assert seen and not bad & set(seen), (d1.f, d2.f, B, bad & set(seen))


def test_smallest_prime_factor_table():
    from qdl.dedekind import _smallest_prime_factor

    for qmax in (1, 2, 3, 48, 49, 1000):
        spf = _smallest_prime_factor(np.array(sieve_primes(qmax), dtype=np.int64), qmax)
        assert spf[1:].tolist() == [1] + [min(factorize(n)) for n in range(2, qmax + 1)], qmax


def brute_nonS3(Y: float) -> int:
    B = int(math.ceil(Y))
    total = 0
    for n in itertools.product(range(-B, B + 1), repeat=4):
        if sup_norm(CycInt(*n)) < Y and classify(IntPoly(*n)).galois_type != "S3":
            total += 1
    return total


def test_galois_sweep_matches_bruteforce():
    for Y in (2.0, 4.0):
        assert galois_count_sweep(Y) == brute_nonS3(Y), Y
    with pytest.raises(ValueError):
        galois_count_sweep(100.0)


def test_galois_sweep_box_containment():
    # total count is at most the box count ~ (2Y+1)^4
    Y = 6.0
    c = galois_count_sweep(Y)
    assert 0 < c < (2 * Y + 1) ** 4
