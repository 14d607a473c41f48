import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qdl import constants as C
from qdl.counts import _kernel_size_total, pair_sum
from qdl.cyclotomic import CycInt, CycRes, Vec2Int, ell, norm
from qdl.expsums import CongruenceData, n1_tilde
from qdl.residues import factorize, rho, rho_prime_power, sieve_primes, vp
from qdl.singular import (_l_values_at_1, _log_h_factors, _log_local_factors,
                          _pole_coefficients, _rho_partial_sums, _sigma_p_coprime,
                          c_constants, kappa,
                          kappa_montecarlo, kappa_polar,
                          lemma94_check, n1_star, omega_mellin_at_1,
                          radial_delta_line_integral, s_hat, s_vq, sigma_p,
                          sigma_p_cd, sigma_p_product, tau_p)
from qdl.weights import make_bump

TRIV = CongruenceData.trivial()
CONG2 = CongruenceData(2, CycRes((1, 0, 0, 0), 2), CycRes((1, 0, 0, 0), 2))


def test_n1_star_examples():
    assert n1_star(1, TRIV) == n1_tilde(1, TRIV)  # q = M: single term
    v = n1_star(3, TRIV)
    assert abs(v - (n1_tilde(3, TRIV) - n1_tilde(1, TRIV))) < 1e-15
    with pytest.raises(ValueError):
        n1_star(3, CONG2)


def test_n1_star_decay():
    # |N1*(q)| q^2 <= C M^4 q^0.1 over q <= 200
    worst = 0.0
    for q in range(1, 201):
        worst = max(worst, abs(n1_star(q, TRIV)) * q ** 2 / q ** 0.1)
    assert worst <= 8.0, worst


def test_sigma_p_values_and_tails():
    for p in (3, 5, 7, 11):
        est = sigma_p(p, TRIV, target_tail=1e-7)
        assert est.tail_bound <= 1e-7
        # sigma_p = 1 + O(1/p): deviation shrinks
        assert abs(est.value - 1) < 6.0 / p, (p, est.value)
    # stabilization: refining k changes the value by less than the tail
    e1 = sigma_p(3, TRIV, target_tail=1e-5)
    e2 = sigma_p(3, TRIV, target_tail=1e-8)
    assert abs(e1.value - e2.value) <= e1.tail_bound
    # p = 2, M = 2, compatible beta': finite positive value
    est = sigma_p(2, CONG2, target_tail=1e-3, cap_to_budget=True)
    assert est.value > 0


def test_sigma_p_budget_error():
    # both beta' divisible by 1 + zeta: no closed form, so the truncation runs
    zero2 = CongruenceData(2, CycRes((0, 0, 0, 0), 2), CycRes((0, 0, 0, 0), 2))
    with pytest.raises(ValueError):
        sigma_p(2, zero2, target_tail=1e-12)
    # a unit beta' needs no count at any tail target
    est = sigma_p(2, CONG2, target_tail=1e-12)
    assert (est.value, est.truncation_k, est.tail_bound) == (1 / 64, 1, 0.0)


def _unit_class_pairs(M, p, per_kind=3, seed=0):
    """Seeded (beta1', beta2') mod M with a unit at p among them, per_kind with
    ell(beta1' beta2') = 0 mod p^m and per_kind without."""
    rng = np.random.default_rng(seed)
    pm = p ** vp(M, p)
    found = {True: [], False: []}
    while min(map(len, found.values())) < per_kind:
        b1, b2 = (CycInt(*map(int, rng.integers(0, M, 4))) for _ in range(2))
        if norm(b1) % p or norm(b2) % p:
            kind = all(x % pm == 0 for x in ell(b1 * b2))
            if len(found[kind]) < per_kind:
                found[kind].append((b1, b2))
    return found[True] + found[False]


@pytest.mark.parametrize("M", [2, 3, 4, 6])
def test_sigma_p_unit_class_is_exact(M):
    """When either beta' is a unit at p | M, the count N1~(p^k) is the same
    Fraction at k = m ... m + 3, and sigma_p returns it with no tail."""
    for p in factorize(M):
        m = vp(M, p)
        for b1, b2 in _unit_class_pairs(M, p):
            cong = CongruenceData(M, CycRes(b1, M), CycRes(b2, M))
            est = sigma_p(p, cong)
            want = Fraction(all(x % p ** m == 0 for x in ell(b1 * b2)), p ** (6 * m))
            assert (est.value, est.truncation_k, est.tail_bound) == (float(want), m, 0.0)
            for k in range(m, m + 4):
                got = Fraction(pair_sum(p ** k, M, b1, b2, []), p ** (6 * k))
                assert got == want, (M, p, k, b1, b2)


def test_tau_p_examples():
    # k = 0 term is 1 at M = 1 (constant p^-8m); tau converges
    from qdl.counts import sp_vk

    assert sp_vk((1, 0), 3, 0, 1, CycInt(0), CycInt(0)) == 1.0
    with pytest.raises(ValueError):
        tau_p(Vec2Int(0, 0), 3)
    # gcd prefactor: v = (2,2) at p = 2 divides out one power of 2
    t1 = tau_p(Vec2Int(2, 2), 2, target_tail=1e-6)
    assert t1.value > 0


def test_lemma_9_3_sigma_cd_equals_tau():
    for p in (2, 3, 5):
        for c in (Vec2Int(1, 0), Vec2Int(1, 1)):
            for d in (1, 2):
                s = sigma_p_cd(p, c, d, TRIV, target_tail=1e-5)
                t = tau_p(Vec2Int(c[0] * d, c[1] * d), p, target_tail=1e-5)
                assert abs(s.value - t.value) <= s.tail_bound + t.tail_bound + 1e-12, \
                    (p, tuple(c), d, s, t)


def test_sigma_p_cd_validation():
    with pytest.raises(ValueError):
        sigma_p_cd(5, Vec2Int(2, 4), 1, TRIV)
    # M > 1 with incompatible beta' gives zero density
    incompat = CongruenceData(2, CycRes((1, 0, 0, 0), 2), CycRes((0, 0, 1, 0), 2))
    est = sigma_p_cd(2, Vec2Int(1, 0), 1, incompat, target_tail=1e-2)
    assert est.value == 0.0


def test_s_hat_identity_m1():
    for q in range(1, 9):
        lhs = s_hat(Vec2Int(0, 0), q, TRIV)
        rhs = q * n1_star(q, TRIV)
        assert abs(lhs - rhs) < 1e-9, q


def test_s_hat_identity_m2():
    for q in (2, 4, 6):
        lhs = s_hat(Vec2Int(0, 0), q, CONG2)
        rhs = q / 4 * n1_star(2 * q, CONG2)
        assert abs(lhs - rhs) < 1e-9, q


def test_s_hat_budget_and_trivial():
    assert abs(s_vq((0, 0), 1, TRIV) - 1) < 1e-12
    with pytest.raises(ValueError):
        s_hat(Vec2Int(0, 0), 32, TRIV)


def test_s_hat_nonzero_decay():
    # |S-hat(w; q)| <= C (w1^4 + w2^4, q) / q^1.9 over a small sweep at M = 1
    worst = 0.0
    for q in (2, 3, 4, 5, 6, 8, 9):
        for w in ((1, 0), (1, 1), (2, 1)):
            val = abs(s_hat(Vec2Int(*w), q, TRIV))
            bound = math.gcd(w[0] ** 4 + w[1] ** 4, q) / q ** 1.9
            worst = max(worst, val / bound)
    assert worst <= 8.0, worst


def test_kappa_three_ways():
    ref = float(mp.gamma(mp.mpf(1) / 4) ** 2 / (2 * mp.sqrt(mp.pi)))
    k1, k2 = kappa(), kappa_polar()
    assert abs(k1 - ref) < 1e-9
    assert abs(k2 - ref) < 1e-9
    assert math.pi / math.sqrt(2) - 1 < k1 < 4
    mc, se = kappa_montecarlo(10 ** 6, seed=5)
    assert abs(mc - k1) < 3 * se + 1e-9


def test_l_function_closed_forms():
    # the three closed forms against the cached L(1, chi)
    with mp.workdps(25):
        for (l1, _), closed in zip(_l_values_at_1(),
                                   (mp.pi / 4, mp.log(1 + mp.sqrt(2)) / mp.sqrt(2),
                                    mp.pi / (2 * mp.sqrt(2)))):
            assert abs(l1 - closed) < mp.mpf(10) ** -15


@pytest.mark.slow
def test_c_constants_cross_validation():
    ep = c_constants("euler-product", 50_000)
    ps = c_constants("partial-sum-fit", 200_000)
    assert ep["c_minus1"] > 0
    # the two c_-1 estimates agree within combined error bars
    tol = ep["c_minus1_error"] + ps["c_minus1_error"]
    assert abs(ep["c_minus1"] - ps["c_minus1"]) <= tol, (ep, ps)
    # Laurent-vs-partial-sum c_0: these coincide for this series (same
    # constant as in sum 1/n = log N + gamma); verified within error bars
    assert abs(ep["c_0"] - ps["c_0"]) <= ep["c_0_error"] + ps["c_0_error"], (ep, ps)
    # the euler-product c_-1 against the series-summed oracle product
    with mp.workdps(30):
        assert abs(ep["c_minus1"] - _series_product(50_000, 1)) < 1e-4


def test_local_factor_sanity_p3():
    # sum_k rho(3^k)/3^(2k) from rho() agrees with the closed rational form,
    # which is exactly 3/2; the terms decay like 3^(-k/2), so 200 of them
    direct = sum(rho_prime_power(3, k) / 3 ** (2 * k) for k in range(200))
    assert _closed_F(3, Fraction(1, 9)) == Fraction(3, 2)
    assert abs(float(_closed_F(3, Fraction(1, 9))) - direct) < 1e-12


# ---------------------------------------------------------------------------
# the series-summed Euler product: the oracle of the closed form in c_constants
# ---------------------------------------------------------------------------

def _chis(n):
    """chi_-4(n), chi_8(n), chi_-8(n)."""
    if n % 2 == 0:
        return (0, 0, 0)
    return (1 if n % 4 == 1 else -1, 1 if n % 8 in (1, 7) else -1, 1 if n % 8 in (1, 3) else -1)


def _series_F(p, s):
    """F_p(s) = sum_k rho(p^k) p^(-k(1+s)), summed to convergence."""
    x = mp.power(p, -(1 + s))
    total, term, k = mp.mpf(1), mp.mpf(1), 1
    while abs(term) > mp.mpf(10) ** (-mp.mp.dps - 2):
        term = rho_prime_power(p, k) * x ** k
        total += term
        k += 1
    return total


def _closed_F(p, x):
    """F_p as the rational function of x = p^(-1-s); exact on Fractions."""
    extra = x if p == 2 else 4 * (p - 1) * x / (1 - p * x) if p % 8 == 1 else 0
    return (1 + x + p ** 2 * x ** 2 + p ** 4 * x ** 3 + extra) / (1 - p ** 6 * x ** 4)


def _series_G(p, s):
    """G_p(s) = (1 - p^-s) F_p(s) prod_chi (1 - chi(p) p^-s)."""
    g = (1 - mp.power(p, -s)) * _series_F(p, s)
    for c in _chis(p):
        g *= 1 - c * mp.power(p, -s)
    return g


def _series_product(P, s):
    """(s - 1) zeta(s) prod_chi L(s, chi) prod_{p <= P} G_p(s); at s = 1 the
    L-values are the closed forms, elsewhere Hurwitz sums."""
    if s == 1:
        val = mp.pi / 4 * mp.log(1 + mp.sqrt(2)) / mp.sqrt(2) * mp.pi / (2 * mp.sqrt(2))
    else:
        val = (s - 1) * mp.zeta(s) * _series_l(s)
    for p in sieve_primes(P):
        val *= _series_G(p, s)
    return val


def _series_l(s):
    """prod_chi L(s, chi) by Hurwitz sums, s != 1."""
    return mp.fprod(mp.power(8, -s) * mp.fsum(_chis(a)[i] * mp.zeta(s, mp.mpf(a) / 8)
                                              for a in (1, 3, 5, 7)) for i in range(3))


def _series_H(p, s, accelerate=False):
    """H_p(s) = G_p(s) (1 - p^(1-3s)) (1 - p^(2-4s)); accelerated, divided by
    (1 - p^-2s)^2 prod_chi (1 - chi(p) p^-2s)."""
    h = _series_G(p, s) * (1 - mp.power(p, 1 - 3 * s)) * (1 - mp.power(p, 2 - 4 * s))
    if accelerate:
        y2 = mp.power(p, -2 * s)
        h /= (1 - y2) ** 2 * mp.fprod(1 - c * y2 for c in _chis(p))
    return h


def test_local_factor_closed_form_matches_series():
    with mp.workdps(30):
        for p in sieve_primes(400):
            for s in (mp.mpf("0.9"), mp.mpf(1), mp.mpf("1.3")):
                closed = _closed_F(p, mp.power(p, -1 - s))
                assert abs(closed / _series_F(p, s) - 1) < mp.mpf(10) ** -25, (p, s)


def test_log_local_factors_match_series():
    # float64 evaluation of terms of size O(1/p): absolute error ~ 1e-16
    primes = sieve_primes(400)
    log_g, dlog_g = _log_local_factors(np.array(primes))
    with mp.workdps(30):
        for p, lg, dlg in zip(primes, log_g, dlog_g):
            assert abs(lg - mp.log(_series_G(p, mp.mpf(1)))) < 1e-15, p
            assert abs(dlg - mp.diff(lambda s: mp.log(_series_G(p, s)), 1)) < 1e-14, p


def test_c_constants_match_series_oracle():
    ep = c_constants("euler-product", 100)
    with mp.workdps(30):
        h = mp.mpf(10) ** -5
        c0 = (_series_product(100, 1 + h) - _series_product(100, 1 - h)) / (2 * h)
        c_minus1 = _series_product(100, 1)
    assert abs(ep["c_minus1"] - c_minus1) < 1e-14 * c_minus1
    assert abs(ep["c_0"] - c0) < 1e-8


def test_l_values_match_stieltjes_route():
    # zeta(s, a) = 1/(s-1) + gamma_0(a) - gamma_1(a) (s-1) + ..., and the poles
    # cancel in L(s, chi) = 8^-s sum_a chi(a) zeta(s, a/8)
    with mp.workdps(30):
        for i, (l1, d1) in enumerate(_l_values_at_1()):
            g0, g1 = (mp.fsum(_chis(a)[i] * mp.stieltjes(n, mp.mpf(a) / 8) for a in (1, 3, 5, 7))
                      for n in (0, 1))
            assert abs(l1 - g0 / 8) < 1e-15
            assert abs(d1 - (-mp.log(8) * g0 - g1) / 8) < 1e-15


def test_log_local_factor_tail_constants():
    from qdl import constants as C

    p = np.array(sieve_primes(10 ** 6))
    pf = p.astype(float)
    log_g, dlog_g = _log_local_factors(p)
    assert np.all(np.abs(log_g) * pf ** 2 <= C.LOG_G_TAIL_C)
    assert np.all(np.abs(dlog_g) * pf ** 2 <= C.DLOG_G_TAIL_C * np.log(pf))


def test_c_constants_errors_cover_the_tail():
    deep = c_constants("euler-product", 2 * 10 ** 6)
    for P in (50, 100, 409, 1000, 10 ** 5):
        r = c_constants("euler-product", P)
        assert abs(r["c_minus1"] - deep["c_minus1"]) <= r["c_minus1_error"], (P, r)
        assert abs(r["c_0"] - deep["c_0"]) <= r["c_0_error"], (P, r)


def test_c_constants_return_python_floats():
    for method, budget, cutoff in (("euler-product", 1000, "prime_cutoff"),
                                   ("partial-sum-fit", 20_000, "Q")):
        r = c_constants(method, budget)
        assert type(r.pop(cutoff)) is int and r.pop("method") == method
        assert all(type(v) is float for v in r.values()), r


def test_h_factors_match_series():
    # prod_{p <= 100} H_p at the two secondary poles: closed form vs series-summed F_p
    primes = sieve_primes(100)
    with mp.workdps(30):
        for s in (mp.mpf(3) / 4, mp.mpf(2) / 3):
            closed = math.exp(math.fsum(_log_h_factors(np.array(primes), float(s))))
            series = mp.fprod(_series_H(p, s) for p in primes)
            assert abs(closed / series - 1) < 1e-12, s


def test_pole_coefficients_match_mpmath():
    # a = -zeta(3/4) zeta(5/4) prod L(3/4) H(3/4), b = -zeta(2/3)^2 prod L(2/3) H(2/3),
    # H(s) = prod_{p <= 100} (accelerated H_p) / (zeta(2s)^2 prod L(2s))
    primes = sieve_primes(100)
    a, b = _pole_coefficients(100)
    with mp.workdps(30):
        def h(s):
            return (mp.fprod(_series_H(p, s, True) for p in primes)
                    / (mp.zeta(2 * s) ** 2 * _series_l(2 * s)))
        s, t = mp.mpf(3) / 4, mp.mpf(2) / 3
        a_ref = -mp.zeta(s) * mp.zeta(mp.mpf(5) / 4) * _series_l(s) * h(s)
        b_ref = -mp.zeta(t) ** 2 * _series_l(t) * h(t)
        assert abs(a / a_ref - 1) < 1e-12 and abs(b / b_ref - 1) < 1e-12, (a, a_ref, b, b_ref)


@pytest.mark.slow
def test_partial_sum_fit_covers_the_limits():
    # the corrected fit lies within its own reported errors of the Laurent constants
    deep = c_constants("euler-product", 2 * 10 ** 6)
    for Q in (2 * 10 ** 4, 2 * 10 ** 5, 4 * 10 ** 5):
        r = c_constants("partial-sum-fit", Q)
        assert abs(r["c_minus1"] - deep["c_minus1"]) <= r["c_minus1_error"], (Q, r)
        assert abs(r["c_0"] - deep["c_0"]) <= r["c_0_error"], (Q, r)


def _sigma_p_limit_and_tail(p, e):
    """(sigma_p, sigma_p - N1~(p^e)) as Fractions, from the closed form and the
    geometric series it sums (see singular._sigma_p_coprime), x = p^-2."""
    x = Fraction(1, p * p)
    if p == 2:
        sigma, rest = Fraction(4, 3), x ** (e + 1) / (1 - x)
    elif p % 8 == 1:
        sigma = 1 + x + Fraction(4, (p + 1) ** 2)
        rest = 4 * x ** (e + 1) * ((e + 1) - e * x) / (1 - x) ** 2
    else:
        sigma, rest = 1 + x, 0
    return sigma, x ** (e + 1) + (1 - Fraction(1, p)) ** 2 * rest


def test_sigma_p_closed_form_matches_kernel_limit():
    # N1~(p^e) = _kernel_size_total(p, e) / p^(4e) exactly equals sigma_p less a
    # tail that is O(e p^-2e), so sigma_p is its limit
    for p in sieve_primes(300):
        sigma, _ = _sigma_p_limit_and_tail(p, 1)
        value = float(_sigma_p_coprime(np.array([p]))[0])
        assert abs(value - sigma) <= 1e-15 * sigma, p
        est = sigma_p(p, CONG2 if p > 2 else TRIV)
        assert (est.value, est.truncation_k, est.tail_bound) == (value, 0, 0.0), p
        for e in range(1, 9):
            sigma, tail = _sigma_p_limit_and_tail(p, e)
            assert Fraction(_kernel_size_total(p, e), p ** (4 * e)) == sigma - tail, (p, e)
            assert 0 <= tail <= Fraction(e + 2, p ** (2 * e)), (p, e)
    # the count sigma_p used to truncate is that same ratio
    for p, k in ((2, 5), (3, 3), (17, 2)):
        assert n1_tilde(p ** k, TRIV, "full") == float(
            Fraction(_kernel_size_total(p, k), p ** (4 * k)))


def _sigma_p_product_by_truncation(cong, P=300, target_tail=1e-6):
    """The per-prime route: N1~(p^k) at every p <= P, k set by the tail
    C p^(4m - 2k - 2) / (1 - p^-2), and 8/(P log P) for the primes above P."""
    prod, err = 1.0, 0.0
    for p in sieve_primes(P):
        m = vp(cong.M, p)

        def tail(k):
            return C.PROP63_DIFF_C * p ** (4 * m - 2 * k - 2) / (1 - p ** -2)

        kmax = 13 if m == 0 else max(1, int(math.log(65536, p) / 2))
        k = max(1, m)
        while tail(k) > target_tail and k < kmax:
            k += 1
        val = n1_tilde(p ** k, cong, "full")
        prod *= val
        err += tail(k) / max(val, 1e-12)
    return prod, (err + 8.0 / (P * math.log(P))) * prod


@pytest.mark.parametrize("cong", [TRIV, CONG2], ids=["M1", "M2"])
def test_sigma_p_product_matches_truncated_route(cong):
    new, new_err = sigma_p_product(cong)
    old, old_err = _sigma_p_product_by_truncation(cong)
    assert abs(new - old) <= old_err, (new, old, old_err)
    assert 0 < new_err < old_err
    if cong.M == 1:
        # the error covers the product over p <= 1e6, five times the cutoff
        deep = math.exp(math.fsum(np.log(_sigma_p_coprime(np.array(sieve_primes(10 ** 6))))))
        assert abs(new - deep) <= new_err and new_err <= 5e-6 * new, (new, deep, new_err)


def test_rho_partial_sums_match_direct_sum():
    A, qs = _rho_partial_sums(3000)
    acc, direct = 0.0, {}
    for q in range(1, 3001):
        acc += rho(q) / q ** 2
        direct[q] = acc
    assert qs[-1] == 3000 and len(qs) == len(set(qs.tolist()))
    assert A.tolist() == [direct[int(q)] for q in qs]


def test_lemma94():
    om = make_bump(1.0, 2.0, "plain")
    res = lemma94_check(om, [(1.0, 0.0), (3.0, 4.0), (1.0, 1.0)])
    for (w, lhs, rhs) in res:
        assert abs(lhs - rhs) < 1e-6, (w, lhs, rhs)
    # w = (3,4): rhs = 2 omega~(1) / 5
    m1 = omega_mellin_at_1(om)
    assert abs(res[1][2] - 2 * m1 / 5) < 1e-12
    # rotation invariance
    a = radial_delta_line_integral(om, (2.0, 0.0))
    b = radial_delta_line_integral(om, (2 * math.cos(0.7), 2 * math.sin(0.7)))
    assert abs(a - b) < 1e-9
