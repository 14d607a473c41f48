import itertools
import math

import numpy as np
import pytest

from qdl.counts import (ZERO, _s1_orbit_terms, coset_phase_counts, exact_phase_sum, orbit_rows,
                        pair_sum)
from qdl.cyclotomic import CycInt, CycRes, Vec2Int, norm
from qdl.expsums import (BudgetExceeded, CongruenceData, S1_BRUTE_QMAX,
                         S2_BRUTE_DQMAX, _s1_cosets, a_alpha, n1_tilde, n2_tilde,
                         s1_brute, s1_fast, s2_bound_rhs, s2_brute, s2_fast)
from qdl.residues import IntPoly, _fourth_root_count, factorize, is_prime, root_counts

TRIV = CongruenceData.trivial()
CONG2 = CongruenceData(2, CycRes((1, 0, 0, 0), 2), CycRes((1, 0, 0, 0), 2))
CONG3 = CongruenceData(3, CycRes((1, 0, 0, 0), 3), CycRes((1, 1, 0, 0), 3))


def rand_cyc(rng, lo=-6, hi=7):
    return CycInt(*[int(x) for x in rng.integers(lo, hi, 4)])


def test_congruence_data_validation():
    with pytest.raises(ValueError):
        CongruenceData(0, CycRes((0, 0, 0, 0), 1), CycRes((0, 0, 0, 0), 1))
    with pytest.raises(ValueError):
        CongruenceData(2, CycRes((0, 0, 0, 0), 3), CycRes((0, 0, 0, 0), 2))


def test_s1_trivial_modulus():
    for f in (s1_brute, s1_fast):
        assert abs(f(CycInt(0), CycInt(0), 1, TRIV).value - 1) < 1e-12


def test_s1_rejects_q_below_1():
    for f in (s1_brute, s1_fast):
        for q in (0, -3):
            with pytest.raises(ValueError, match="S1 needs q >= 1"):
                f(CycInt(1), CycInt(1), q, TRIV)


def test_zero_frequencies_reject_moduli_below_1():
    for q in (0, -4):
        with pytest.raises(ValueError, match="N1~ needs q >= 1"):
            n1_tilde(q, TRIV)
    for d, q in ((0, 3), (2, -1)):
        with pytest.raises(ValueError, match="N2~ needs d, q >= 1"):
            n2_tilde(Vec2Int(1, 1), d, q, CONG2)


def test_s1_budgets():
    with pytest.raises(BudgetExceeded):
        s1_brute(CycInt(1), CycInt(1), S1_BRUTE_QMAX + 1, TRIV)
    with pytest.raises(BudgetExceeded):
        s2_brute(CycInt(1), CycInt(1), Vec2Int(1, 0), 1, S2_BRUTE_DQMAX + 1, TRIV)


def test_s1_fast_equals_brute_sample():
    rng = np.random.default_rng(0)
    for q in range(2, 9):
        for cong in (TRIV, CONG2, CONG3):
            for _ in range(4):
                a1, a2 = rand_cyc(rng), rand_cyc(rng)
                vb = s1_brute(a1, a2, q, cong).value
                vf = s1_fast(a1, a2, q, cong).value
                assert abs(vb - vf) <= 1e-8, (q, cong.M, a1, a2)


def test_s1_symmetry():
    rng = np.random.default_rng(5)
    for q in (3, 4, 5, 7, 8):
        a1, a2 = rand_cyc(rng), rand_cyc(rng)
        v1 = s1_fast(a1, a2, q, TRIV).value
        v2 = s1_fast(a2, a1, q, TRIV).value
        assert abs(v1 - v2) < 1e-10


def test_s1_scaling_invariance():
    # S1(t a1, t a2; q) = S1(a1, a2; q) for t coprime to q (beta substitution)
    rng = np.random.default_rng(6)
    for q, t in ((5, 2), (7, 3), (8, 3), (9, 2)):
        a1, a2 = rand_cyc(rng), rand_cyc(rng)
        v1 = s1_fast(a1, a2, q, TRIV).value
        v2 = s1_fast(t * a1, t * a2, q, TRIV).value
        assert abs(v1 - v2) < 1e-10


def test_s1_plain_multiplicativity_sample():
    """S1 at coprime moduli: plain multiplicativity (the CRT twist is trivial,
    since the twist by a unit u acts as S1(u a1, u a2) = S1(a1, a2))."""
    rng = np.random.default_rng(1)
    for (q1, q2) in ((2, 3), (3, 4), (2, 5), (4, 5), (3, 8), (5, 8)):
        for _ in range(3):
            a1, a2 = rand_cyc(rng), rand_cyc(rng)
            v = s1_fast(a1, a2, q1 * q2, TRIV).value
            v12 = s1_fast(a1, a2, q1, TRIV).value * s1_fast(a1, a2, q2, TRIV).value
            assert abs(v - v12) < 1e-9, (q1, q2)


def test_s1_fast_matches_unfactored_coset_sum():
    """s1_fast factors S1 over the prime powers of q, each factor twisted by
    u = (q/p^e)^-1 mod p^e; the coset sum run at the composite q itself is
    its oracle.  At M = 3 and M = 4 the twist at the factor dividing M is not
    1, and the prime powers exercise the unit test p | x^4 + y^4 mod p^e."""
    rng = np.random.default_rng(13)
    composite = [q1 * q2 for q1 in range(2, 25) for q2 in range(q1 + 1, 25)
                 if q1 * q2 <= 48 and math.gcd(q1, q2) == 1]
    one = (1, 0, 0, 0)
    congs = [TRIV] + [CongruenceData(M, CycRes(one, M), CycRes(one, M)) for M in (2, 3, 4, 6)]
    for q in composite + [4, 8, 9, 16, 25, 27, 49]:
        for cong in congs:
            a1, a2 = rand_cyc(rng), rand_cyc(rng)
            want = _s1_cosets(a1, a2, q, cong)
            got = s1_fast(a1, a2, q, cong).value
            assert abs(got - want) <= 1e-8, (q, cong.M, a1, a2, got, want)


def test_s1_closed_form_matches_coset_oracle():
    """The orbit table at p^e, p not dividing M.  The rows of level s are a
    complete set of representatives of P^1(Z/m), m = p^(e-s): every lambda
    mod q at level s is p^s t lambda' for exactly one row lambda' and unit t
    mod m.  Every orbit with s > 0 or v > 0 sums, through the Smith-form
    coset sums of its phi(m) members, to the row's integer term.  a1, a2 are
    drawn from p*O or from ideals (lambda0) of non-unit lambda0, where the
    gates p^s | a_i and p^v | a_i' lambda'* open; random a_i keep nearly all
    shut."""
    rng = np.random.default_rng(41)
    opened = checked = 0
    for p, e in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                 (7, 1), (7, 2), (17, 1), (41, 1)):
        q = p ** e
        rows = orbit_rows(p, e)
        ends = np.cumsum([p ** k + p ** (k - 1) for k in range(e, 0, -1)]).tolist()  # s has k = e - s
        orbits, covered, oracle = [], set(), []
        for i, (x, y) in enumerate(rows.rep.tolist()):
            s = sum(i >= end for end in ends)  # the row's level
            m = p ** (e - s)
            assert (rows.s[i], rows.m[i], *rows.lam[i]) == (s, m, p ** s * x % q, p ** s * y % q)
            assert x % p or y % p, (q, s, x, y)  # lambda' is primitive
            orbit = {(p ** s * t * x % q, p ** s * t * y % q) for t in range(m) if t % p}
            assert len(orbit) == m - m // p and not orbit & covered, (q, s, x, y)
            covered |= orbit
            orbits.append(orbit)
            if s or (x ** 4 + y ** 4) % p == 0:
                oracle.append(i)
        assert covered == set(itertools.product(range(q), repeat=2)) - {(0, 0)}
        nonunit = [CycInt(x, y) for x, y in itertools.product(range(q), repeat=2)
                   if (x ** 4 + y ** 4) % p == 0]
        for draw in range(12):
            gens = ([CycInt(p)] * 2 if draw % 4 == 0
                    else [nonunit[rng.choice(len(nonunit))] for _ in range(2)])
            a1, a2 = (g * rand_cyc(rng) for g in gens)
            terms = _s1_orbit_terms(a1, a2, p, e).tolist()
            for i in oracle:
                lams = (CycInt(x, y) for x, y in orbits[i])
                want = exact_phase_sum(coset_phase_counts(q, 1, lams, -a2, ZERO, ZERO, a1), p, e)
                assert (terms[i] if i < len(terms) else 0) == want, (q, i, a1, a2)
                opened += want != 0
                checked += 1
    assert opened > 400, (opened, checked)  # 475 of the 1,080 orbits checked


@pytest.mark.parametrize("q,M", [pytest.param(q, 1, id=str(q)) for q in (8, 16, 27, 25, 49)]
                         + [pytest.param(289, 1, id="289", marks=pytest.mark.slow)]
                         + [pytest.param(q, M, id=f"{q}-M{M}")
                            for q, M in ((8, 2), (8, 4), (8, 8), (16, 2), (16, 4), (16, 8),
                                         (9, 9), (27, 9))])
def test_s1_fast_matches_coset_sum_at_level_s(q, M):
    """a_i in p^s O, s = 1..e, open the gate p^s | a1, a2 of the level-s rows,
    which random a_i keep shut: s1_fast against the unfactored coset sum (at
    q = 289 each oracle call makes q^2 Smith-form solves).  At p | M the
    factor sums one coset per element of the dual, each orbit row expanded by
    the units mod m, here with beta1' = 1 + zeta a non-unit at 2."""
    rng = np.random.default_rng([47, q] if M == 1 else [47, q, M])
    cong = TRIV if M == 1 else CongruenceData(M, CycRes((1, 1, 0, 0), M), CycRes((1, 0, 0, 0), M))
    (p, e), = factorize(q).items()
    for s in range(1, e + 1):
        for _ in range(3 if q < 100 else 1):
            a1, a2 = p ** s * rand_cyc(rng), p ** s * rand_cyc(rng)
            want = _s1_cosets(a1, a2, q, cong)
            got = s1_fast(a1, a2, q, cong).value
            assert abs(got - want) <= 1e-8 * max(1, abs(want)), (q, M, s, a1, a2, got, want)


def test_s1_fast_matches_coset_sum_at_p_1_mod_8():
    """At p = 1 (mod 8) primitive non-unit multipliers (v >= 1) exist.  s1_fast
    against the unfactored coset sum at q = 17, 41, 51, 68 with random a_i and
    with a_i in the prime (x + zeta), x^4 = -1 (mod p), where the v-gates
    open; at M = 2, 3 the factor 2^2 or 3 takes the coset path."""
    rng = np.random.default_rng(43)
    one = (1, 0, 0, 0)
    congs = [TRIV] + [CongruenceData(M, CycRes(one, M), CycRes(one, M)) for M in (2, 3)]
    for q, x in ((17, 2), (41, 3), (51, 2), (68, 2)):
        prime = CycInt(x, 1)
        for cong in congs:
            for g in (CycInt(1), prime):
                a1, a2 = g * rand_cyc(rng), g * rand_cyc(rng)
                want = _s1_cosets(a1, a2, q, cong)
                got = s1_fast(a1, a2, q, cong).value
                assert abs(got - want) <= 1e-8, (q, cong.M, a1, a2, got, want)


def test_prop61_identity_at_good_primes():
    """S1(a1, a2; p) = a_alpha(p) + (nu(p) - 1)/p at p not dividing N(alpha),
    alpha = a1 a2, nu(p) = #{x mod p : x^4 = -1}: exactly on the integer
    numerator p S1 of the p-not-dividing-M factor, and to 1e-12 on s1_fast's
    value.  Every alpha mod p at a1 = 1 for p = 3, 5, 7, 11, 13; 60 seeded pairs
    per prime 11 <= p <= 97 (17, 41, 73, 89 and 97 are 1 mod 8) and at p = 101.
    a_alpha(p) = -1 + [p | <alpha, 1>] + #{roots mod p} takes its root counts
    from one root_counts call per prime, and is checked against a_alpha on the
    seeded pairs up to p = 97."""
    rng = np.random.default_rng(61)
    cases = [(p, CycInt(1), CycInt(*c)) for p in (3, 5, 7)
             for c in itertools.product(range(p), repeat=4)]
    for p in [*filter(is_prime, range(11, 98)), 101]:
        drawn = 0
        while drawn < 60:
            a1, a2 = rand_cyc(rng, -10, 11), rand_cyc(rng, -10, 11)
            if norm(a1 * a2) % p:
                cases.append((p, a1, a2))
                drawn += 1
    cases += [(p, CycInt(1), CycInt(*c)) for p in (11, 13)
              for c in itertools.product(range(p), repeat=4)]
    roots = {p: iter(root_counts([IntPoly(*(a1 * a2).coords()) for q, a1, a2 in cases if q == p],
                                 [p])[:, 0].tolist())
             for p in {p for p, _, _ in cases}}
    checked = 0
    for p, a1, a2 in cases:
        alpha = a1 * a2
        a = -1 + (alpha.c3 % p == 0) + next(roots[p])
        if norm(alpha) % p == 0:
            continue
        if 11 <= p <= 97 and a1 != CycInt(1):
            assert a == a_alpha(alpha, p), (p, alpha)
        want = p * a + _fourth_root_count(p, 1) - 1
        assert pair_sum(p, 1, ZERO, ZERO, [], a1, a2) == p ** 2 * want, (p, a1, a2)
        assert abs(s1_fast(a1, a2, p, TRIV).value - want / p) <= 1e-12, (p, a1, a2)
        checked += 1
    assert checked == sum((p * p - 1) ** 2 for p in (3, 5, 7, 11, 13)) + 22 * 60


def test_a_alpha_examples():
    assert a_alpha(CycInt(1, 0, 0, 1), 7) == 2
    assert a_alpha(CycInt(0, 0, 0, 1), 5) == 0
    # degree < 3 stays well defined: <alpha, 1> = 0, so the point at infinity
    # is a root of f_alpha on P^1(F_5), next to x = 3, 4
    assert a_alpha(CycInt(2, 3, 1, 0), 5) == -1 + 1 + len(
        [x for x in range(5) if (x * x + 3 * x + 2) % 5 == 0]) == 2


def test_prop61_shape_at_prime():
    # p | S1 - a_alpha stays bounded for good p (sample; constant frozen in
    # the acceptance suite)
    rng = np.random.default_rng(7)
    from qdl.cyclotomic import norm

    for p in (3, 5, 7):
        for _ in range(6):
            a1, a2 = rand_cyc(rng), rand_cyc(rng)
            al = a1 * a2
            if norm(al) % p == 0:
                continue
            s1 = s1_brute(a1, a2, p, TRIV).value
            assert p * abs(s1 - a_alpha(al, p)) < 96.0


def test_n1_tilde_exhaustive_small():
    for q, cong in ((2, TRIV), (3, TRIV), (4, TRIV), (2, CONG2), (4, CONG2)):
        g = math.gcd(q, cong.M)
        b1 = tuple(c % g for c in cong.beta1p.coords)
        b2 = tuple(c % g for c in cong.beta2p.coords)
        count = 0
        for c1 in itertools.product(range(q), repeat=4):
            if any((x - b) % g for x, b in zip(c1, b1)):
                continue
            B1 = CycInt(*c1)
            for c2 in itertools.product(range(q), repeat=4):
                if any((x - b) % g for x, b in zip(c2, b2)):
                    continue
                pr = B1 * CycInt(*c2)
                if pr.c3 % q == 0 and pr.c2 % q == 0:
                    count += 1
        assert n1_tilde(q, cong, "full") == count / q ** 6, (q, cong.M)


def test_n1_tilde_conventions_and_zero_freq_relation():
    # at q = p coprime to M both conventions coincide and match S1(0,0;q)
    for q in (2, 3, 5, 7):
        s = s1_brute(CycInt(0), CycInt(0), q, TRIV).value
        assert abs(s - n1_tilde(q, TRIV) * q ** 3) < 1e-9
        assert n1_tilde(q, TRIV, "full") == n1_tilde(q, TRIV, "reduced")
    # M = q = p^m: N1~(p^m) = p^-6m * [compatibility] in the full convention
    assert n1_tilde(2, CONG2, "full") == 2 ** -6  # compatible beta'
    incompat = CongruenceData(2, CycRes((1, 0, 0, 0), 2), CycRes((0, 0, 1, 0), 2))
    assert n1_tilde(2, incompat, "full") == 0.0
    assert n1_tilde(2, incompat, "reduced") == 2 ** -6


def test_n1_tilde_multiplicative():
    for cong in (TRIV, CONG2):
        for (q1, q2) in ((2, 3), (4, 3), (2, 9), (8, 5)):
            assert abs(n1_tilde(q1 * q2, cong) - n1_tilde(q1, cong) * n1_tilde(q2, cong)) < 1e-15


def test_s2_trivial_and_equivalence():
    assert abs(s2_brute(CycInt(0), CycInt(0), Vec2Int(1, 0), 1, 1, TRIV).value - 1) < 1e-12
    assert abs(s2_fast(CycInt(0), CycInt(0), Vec2Int(1, 0), 1, 1, TRIV).value - 1) < 1e-12
    rng = np.random.default_rng(2)
    for (d, q) in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 6), (6, 1), (2, 2)):
        if d * q > 6:
            continue
        for c in (Vec2Int(1, 0), Vec2Int(1, 2)):
            for cong in (TRIV, CONG2):
                a1, a2 = rand_cyc(rng, -4, 5), rand_cyc(rng, -4, 5)
                vb = s2_brute(a1, a2, c, d, q, cong).value
                vf = s2_fast(a1, a2, c, d, q, cong).value
                assert abs(vb - vf) * (d * q) ** 3 < 1e-8, (d, q, c, cong.M)


def test_s2_rejects_imprimitive_c():
    with pytest.raises(ValueError):
        s2_brute(CycInt(0), CycInt(0), Vec2Int(2, 4), 1, 2, TRIV)
    with pytest.raises(ValueError):
        s2_fast(CycInt(0), CycInt(0), Vec2Int(0, 0), 1, 2, TRIV)


def test_n2_tilde_vs_s2_and_multiplicativity():
    for (d, q) in ((1, 2), (2, 1), (2, 3), (1, 6)):
        for c in (Vec2Int(1, 0), Vec2Int(1, 2)):
            s = s2_brute(CycInt(0), CycInt(0), c, d, q, TRIV).value
            n2 = n2_tilde(c, d, q, TRIV)
            assert abs(s / (d ** 3 * q ** 4) - n2) < 1e-12  # N2~ = S2 / (d^3 q^4)
    # multiplicative in (d, q) across coprime prime-power blocks
    c = Vec2Int(1, 1)
    for cong in (TRIV, CONG2):
        v = n2_tilde(c, 2 * 3, 2 * 5, cong)
        v_blocks = (n2_tilde(c, 2, 2, cong) * n2_tilde(c, 3, 5, cong))
        assert abs(v - v_blocks) < 1e-15, (v, v_blocks)


def test_s2_bound_rhs():
    assert s2_bound_rhs(CycInt(1), CycInt(1, 1), Vec2Int(1, 0), 1, 1, TRIV) >= 1.0
    rng = np.random.default_rng(3)
    # the bound dominates |S2| on a small sweep
    for (d, q) in ((1, 2), (2, 1), (1, 3)):
        for _ in range(2):
            a1, a2 = rand_cyc(rng, -3, 4), rand_cyc(rng, -3, 4)
            from qdl.cyclotomic import norm

            if norm(a1 * a2) == 0:
                continue
            c = Vec2Int(1, 0)
            s2 = abs(s2_brute(a1, a2, c, d, q, TRIV).value)
            bound = s2_bound_rhs(a1, a2, c, d, q, TRIV)
            assert s2 <= 8 * bound + 1e-9, (d, q, s2, bound)
