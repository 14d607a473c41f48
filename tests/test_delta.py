import cmath
import itertools
import math
import random

import pytest
from scipy.integrate import quad

from qdl import constants as C
from qdl.delta import (delta1d, delta2d, involution_identity_gap, poisson_check,
                       primitive_vectors, q_sum)
from qdl.residues import divisors
from qdl.weights import NORMALIZATION_TOL, BumpWeight, make_bump, smoothness_witness


@pytest.fixture(scope="module")
def w1():
    return make_bump(*C.OMEGA1_SUPPORT, "radial-normalized")


@pytest.fixture(scope="module")
def w2():
    return make_bump(*C.OMEGA2_SUPPORT, "even-halfline-normalized")


def test_make_bump_normalizations(w1, w2):
    # radial: int_{R^2} w1(|x|) dx = 1
    v, _ = quad(lambda r: 2 * math.pi * r * w1(r), w1.lo, w1.hi, epsabs=1e-13, limit=300)
    assert abs(v - 1) < 1e-10
    # even halfline: int_{x>0} w2 = 1, so hat w2(0) = int_R w2 = 2
    v2, _ = quad(w2, w2.lo, w2.hi, epsabs=1e-13, limit=300)
    assert abs(v2 - 1) < 1e-10
    assert w2(-0.7) == w2(0.7) != 0.0
    assert w2(0.0) == 0.0
    assert w1(w1.lo) == 0.0 and w1(w1.hi) == 0.0


def test_make_bump_validation():
    with pytest.raises(ValueError):
        make_bump(2.0, 1.0)
    with pytest.raises(ValueError):
        make_bump(-1.0, 1.0, "radial-normalized")
    with pytest.raises(ValueError):
        make_bump(0.5, 1.0, "no-such-kind")


def test_smoothness_witness(w1):
    witness = smoothness_witness(w1)
    assert set(witness) == {0, 1, 2, 3}
    assert all(v < 1e6 for v in witness.values())


@pytest.mark.parametrize("support, kind", [(C.OMEGA1_SUPPORT, "radial-normalized"),
                                           (C.OMEGA2_SUPPORT, "even-halfline-normalized")])
def test_normalization_certified(support, kind):
    """The reported relative quadrature error of both delta-method weights
    meets NORMALIZATION_TOL, and an independent quadrature of the normalized
    integral agrees with 1 to that tolerance (plus its own error)."""
    w = make_bump(*support, kind)
    assert w.norm_error <= NORMALIZATION_TOL
    if kind == "radial-normalized":
        v, err = quad(lambda r: 2 * math.pi * r * w(r), w.lo, w.hi, epsabs=0, epsrel=1e-13,
                      limit=400, points=[1.0])
    else:
        v, err = quad(w, w.lo, w.hi, epsabs=0, epsrel=1e-13, limit=400, points=[1.0])
    assert abs(v - 1) <= NORMALIZATION_TOL + err


def test_delta1d_identity(w2):
    assert abs(delta1d(0, 200.0, w2) - 1) < 1e-6
    assert abs(delta1d(7, 200.0, w2)) < 1e-6
    # the nonzero branch cancels exactly by the divisor involution q <-> n/q
    assert delta1d(7, 200.0, w2) == 0.0
    assert delta1d(40000, 200.0, w2) < 1e-12  # Q^2-scale stress input
    with pytest.raises(ValueError):
        delta1d(1, 0.5, w2)


def test_delta2d_identity(w1, w2):
    assert abs(delta2d((0, 0), 10.0, 100.0, w1, w2) - 1) < 1e-3
    assert abs(delta2d((3, 5), 10.0, 100.0, w1, w2)) < 1e-3
    with pytest.raises(ValueError):
        delta2d((200, 0), 10.0, 100.0, w1, w2)
    with pytest.raises(ValueError):
        delta2d((1, 1), 30.0, 100.0, w1, w2)


def _delta2d_loop(n, D, X, omega1, omega2):
    """The 2D expansion with both sums written out in place: d, then primitive
    c, then the q-sum; the subtracted sum over q | gcd(n)."""
    n1, n2 = n
    sDX = math.sqrt(D * X)
    total = 0.0
    for d in range(1, math.floor(omega1.hi * D) + 1):
        if n != (0, 0) and (n1 % d or n2 % d):
            continue
        for (c1, c2) in primitive_vectors(omega1.hi * D / d):
            w1 = omega1(math.hypot(c1, c2) * d / D)
            if w1 == 0.0:
                continue
            total += w1 * d / sDX * q_sum(c1 * n2 - c2 * n1, d, sDX, omega2)
    total /= D * D
    sub = 0.0
    if n != (0, 0):
        nn = math.hypot(n1, n2)
        for q in divisors(math.gcd(n1, n2)):
            sub += omega1(nn / (q * D))
    return total - 2.0 / (D * D) * sub


def test_delta2d_matches_loop_oracle(w1, w2):
    """Bit-identical to the written-out loop: the shared sums add the same
    terms in the same order."""
    rng = random.Random(12)
    for X, D in ((100.0, 10.0), (36.0, 3.0), (400.0, 20.0), (25.0, 5.0), (64.0, 8.0)):
        pts = [(0, 0)] + [(rng.randint(-int(X) + 1, int(X) - 1),
                           rng.randint(-int(X) + 1, int(X) - 1)) for _ in range(9)]
        for n in pts:
            assert delta2d(n, D, X, w1, w2) == _delta2d_loop(n, D, X, w1, w2), (n, D, X)


def test_delta2d_error_decreases_in_D(w1, w2):
    rng = random.Random(7)
    errs = []
    for D in (5.0, 10.0, 20.0):
        X = D * D
        worst = abs(delta2d((0, 0), D, X, w1, w2) - 1)
        for _ in range(15):
            n = (rng.randint(-int(X) + 1, int(X) - 1), rng.randint(-int(X) + 1, int(X) - 1))
            if n == (0, 0):
                continue
            worst = max(worst, abs(delta2d(n, D, X, w1, w2)))
        errs.append(worst)
    assert errs[0] >= errs[1] >= errs[2]


def test_involution_identity(w1):
    rng = random.Random(1)
    for _ in range(100):
        n = (rng.randint(-60, 60), rng.randint(-60, 60))
        if n == (0, 0):
            continue
        assert abs(involution_identity_gap(n, 10.0, w1)) < 1e-12


def test_poisson_theta_identity():
    lhs, rhs = poisson_check(1.0, 1, {(0, 0, 0, 0): 1.0})
    assert abs(lhs - rhs) < 1e-9
    assert abs(lhs - rhs) / abs(lhs) < 1e-9


def test_poisson_residue_indicator():
    g = {t: (1.0 if t == (1, 0, 1, 1) else 0.0)
         for t in itertools.product(range(2), repeat=4)}
    lhs, rhs = poisson_check(1.3, 2, g)
    assert abs(lhs - rhs) < 1e-8


def test_poisson_character_table():
    g = {t: cmath.exp(2j * cmath.pi * ((t[0] + 2 * t[3]) % 3) / 3)
         for t in itertools.product(range(3), repeat=4)}
    lhs, rhs = poisson_check(0.8, 3, g)
    assert abs(lhs - rhs) < 1e-8


def test_poisson_lhs_closed_forms():
    """lhs against Jacobi theta values from mpmath, which shares no code with
    poisson_check: theta_3(e^-pi)^4 = (pi^(1/4)/Gamma(3/4))^4 at gamma = 1,
    and at gamma = 2 the class (1, 0, 1, 1) sums three odd coordinates and one
    even one, theta_2(q)^3 theta_3(q) with q = e^(-4 pi/X^2), X^2 = 1.69."""
    import mpmath

    lhs, _ = poisson_check(1.0, 1, {(0, 0, 0, 0): 1.0})
    assert lhs == pytest.approx((math.pi ** 0.25 / math.gamma(0.75)) ** 4, rel=1e-11)
    g = {t: (1.0 if t == (1, 0, 1, 1) else 0.0)
         for t in itertools.product(range(2), repeat=4)}
    lhs, _ = poisson_check(1.3, 2, g)
    q = mpmath.exp(-4 * mpmath.pi / 1.69)
    assert lhs == pytest.approx(float(mpmath.jtheta(2, 0, q) ** 3 * mpmath.jtheta(3, 0, q)),
                                rel=1e-11)


def test_poisson_dual_pairs_with_one():
    """hat g for g = 1{beta = 1 + 2 zeta} mod 3, a table the coordinate
    reversal does not fix, is e(<alpha (1 + 2 zeta), 1>/3)/9 =
    e((alpha_3 + 2 alpha_2)/3)/9.  Both sides of poisson_check are blind to a
    unit twist of the pairing (hat w is invariant under it), so hat g itself
    is pinned."""
    from qdl.delta import _dual

    table = {t: (1.0 if t == (1, 2, 0, 0) else 0.0) for t in itertools.product(range(3), repeat=4)}
    res, _, ghat = _dual(3, table)
    got = dict(zip(map(tuple, res.tolist()), ghat))
    third = cmath.exp(2j * cmath.pi / 3)
    assert got[(0, 0, 0, 1)] == pytest.approx(third / 9, abs=1e-15)
    assert got[(0, 0, 1, 0)] == pytest.approx(third ** 2 / 9, abs=1e-15)
    assert got[(0, 1, 0, 0)] == pytest.approx(1 / 9, abs=1e-15)
    for a, v in got.items():
        assert v == pytest.approx(third ** (a[3] + 2 * a[2]) / 9, abs=1e-15), a


def test_poisson_rejects_zero_gamma():
    with pytest.raises(ValueError):
        poisson_check(1.0, 0, {})
