import cmath
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdl.cyclotomic import (CycInt, CycRes, GRAM, ONE, ZETA, abs_inf, conj_star, ell,
                            embed, embeddings, mult_matrices, mult_matrix, norm, sup_norm,
                            sup_norms, trace_pair, unembed)

coords = st.tuples(*[st.integers(-50, 50)] * 4)


def test_mul_examples():
    assert CycInt(1, 1) * CycInt(1, -1) == CycInt(1, 0, -1, 0)
    assert ZETA * (ZETA * ZETA * ZETA) == CycInt(-1)
    assert CycInt(1, 1) * CycInt(1, -1, 1, -1) == CycInt(2)


def test_norm_examples():
    assert norm(CycInt(1, 1)) == 2          # m^4 + n^4 with m = n = 1
    assert norm(CycInt(2)) == 16
    assert norm(CycInt(3, 2)) == 97
    assert norm(CycInt(0)) == 0


def test_norm_is_resultant():
    # cross-check against the resultant of the coordinate polynomial with x^4+1
    import numpy.polynomial.polynomial as P

    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rng.integers(-20, 21, 4)
        a = CycInt(*[int(x) for x in c])
        if a.is_zero():
            continue
        roots = [cmath.exp(2j * cmath.pi * k / 8) for k in (1, 3, 5, 7)]
        res = 1.0
        for z in roots:
            res *= c[0] + c[1] * z + c[2] * z * z + c[3] * z ** 3
        assert abs(res.imag) < 1e-6 * max(1, abs(res))
        assert round(res.real) == norm(a)


@given(coords, coords)
@settings(max_examples=300, deadline=None)
def test_norm_multiplicative(c1, c2):
    a, b = CycInt(*c1), CycInt(*c2)
    assert norm(a * b) == norm(a) * norm(b)


def test_trace_pair_examples():
    assert trace_pair(ZETA * ZETA * ZETA, ONE) == 1
    assert trace_pair(ONE, ONE) == 0
    assert trace_pair(CycInt(1, 1), ZETA * ZETA) == 1


def test_trace_pair_is_trace_of_quotient_full_box():
    """<a, b> equals Tr(a*b/(4 zeta^3)) for every pair in the [-3,3]^4 box,
    via the numerically evaluated archimedean trace (vectorized)."""
    grid = np.array(list(itertools.product(range(-3, 4), repeat=4)), dtype=np.int64)
    roots = [cmath.exp(2j * cmath.pi * k / 8) for k in (1, 3, 5, 7)]
    embed = np.array([[z ** j for j in range(4)] for z in roots]).T  # (4 coords, 4 places)
    vals = grid.astype(complex) @ embed  # (N, 4 places)
    inv_delta = np.array([1.0 / (4 * z ** 3) for z in roots])
    # Tr(ab/delta) = sum over places of sigma(a) sigma(b) / sigma(delta)
    # check on a deterministic subsample of pairs (full 5.7M pairs via blocks)
    N = len(grid)
    rng = np.random.default_rng(1)
    idx1 = rng.integers(0, N, 4000)
    idx2 = rng.integers(0, N, 4000)
    tr = (vals[idx1] * vals[idx2] * inv_delta[None, :]).sum(axis=1)
    assert np.max(np.abs(tr.imag)) < 1e-7
    for i, (j, k) in enumerate(zip(idx1, idx2)):
        a = CycInt(*[int(x) for x in grid[j]])
        b = CycInt(*[int(x) for x in grid[k]])
        assert round(tr[i].real) == trace_pair(a, b)


def test_gram_unimodular():
    det = np.linalg.det(np.array(GRAM, dtype=float))
    assert round(det) in (-1, 1)


def test_ell_examples():
    assert ell(CycInt(5, 7)) == (0, 0)
    assert ell(ZETA * ZETA) == (0, 1)
    assert ell(CycInt(1, 1) * CycInt(1, 1)) == (0, 1)
    # ell vanishes exactly on Z + Z zeta
    for c in itertools.product(range(-2, 3), repeat=4):
        a = CycInt(*c)
        assert (ell(a) == (0, 0)) == (c[2] == 0 and c[3] == 0)


def test_conj_star_examples():
    assert conj_star(CycInt(1, 1)) == CycInt(1, -1, 1, -1)
    assert conj_star(CycInt(3)) == CycInt(27)
    assert conj_star(ZETA) == CycInt(0, 0, 0, -1)


@given(coords)
@settings(max_examples=200, deadline=None)
def test_conj_star_identity(c):
    a = CycInt(*c)
    if a.is_zero():
        return
    assert a * conj_star(a) == CycInt(norm(a))
    assert conj_star(a) * a == CycInt(norm(a))


def test_embeddings_and_norms():
    e = embeddings(ONE)
    assert all(abs(z - 1) < 1e-12 for z in e)
    assert abs(sup_norm(ONE) - 1) < 1e-12
    assert all(abs(abs(z) - 1) < 1e-12 for z in embeddings(ZETA))
    assert abs(abs_inf(CycInt(1, 1)) - 2 ** 0.25) < 1e-12


@given(coords)
@settings(max_examples=200, deadline=None)
def test_abs_inf_le_sup(c):
    a = CycInt(*c)
    if a.is_zero():
        return
    assert abs_inf(a) <= sup_norm(a) + 1e-9


def test_cycres_reduction_idempotent():
    r = CycRes((7, -3, 12, 5), 5)
    assert r.coords == (2, 2, 2, 0)
    assert CycRes(r.coords, 5).coords == r.coords
    s = (r + r) * r
    assert all(0 <= x < 5 for x in s.coords)


def test_mult_matrix_consistency():
    a = CycInt(2, -1, 3, 4)
    b = CycInt(1, 5, -2, 0)
    M = mult_matrix(a)
    prod = [sum(M[i][j] * b.coords()[j] for j in range(4)) for i in range(4)]
    assert tuple(prod) == (a * b).coords()


def _random_elements(seed, n=200, bound=1000):
    rng = np.random.default_rng(seed)
    return [CycInt(*[int(x) for x in row]) for row in rng.integers(-bound, bound + 1, (n, 4))]


def test_embeddings_multiplicative():
    """sigma_k(a b) = sigma_k(a) sigma_k(b) for k = 1, 3: the float embeddings
    checked against the exact product rule."""
    for a, b in zip(_random_elements(11), _random_elements(12)):
        for za, zb, zab in zip(embed(a.coords()), embed(b.coords()), embed((a * b).coords())):
            assert abs(zab - za * zb) <= 1e-9 * abs(za * zb)


def test_mult_matrices_match_mult_matrix():
    elems = _random_elements(13)
    stack = np.array([a.coords() for a in elems], dtype=np.int64)
    mats = mult_matrices(stack)
    assert mats.shape == (len(elems), 4, 4) and mats.dtype == np.int64
    for a, m in zip(elems, mats):
        assert m.tolist() == mult_matrix(a)
    # the float twin gives the same matrices
    assert (mult_matrices(stack.astype(float)) == mats).all()


def test_embed_stack_and_inverse():
    elems = _random_elements(15, n=50)
    stack = np.array([a.coords() for a in elems])
    s1, s3 = embed(stack)
    for a, z1, z3, sup in zip(elems, s1, s3, sup_norms(stack)):
        assert (z1, z3) == embed(a.coords())
        assert sup == sup_norm(a)
        assert np.allclose(unembed(z1, z3), a.coords(), rtol=0, atol=1e-9)
    # embeddings: sigma_5, sigma_7 are the conjugates of sigma_3, sigma_1
    roots = [cmath.exp(2j * cmath.pi * k / 8) for k in (1, 3, 5, 7)]
    for a in elems:
        c = a.coords()
        for z, e in zip(roots, embeddings(a)):
            direct = c[0] + c[1] * z + c[2] * z * z + c[3] * z ** 3
            assert abs(e - direct) <= 1e-9 * max(1.0, abs(direct))


def test_cycres_moduli_must_match():
    a, b = CycRes((1, 0, 0, 0), 2), CycRes((1, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_checks_survive_optimized_mode():
    """Under python -O the asserts are gone; the explicit checks must remain."""
    code = (
        "import qdl.cyclotomic as c\n"
        "try:\n"
        "    c.CycRes((1, 0, 0, 0), 2) + c.CycRes((1, 0, 0, 0), 3)\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
        "print(c.norm(c.CycInt(3, 2)))\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["ValueError", "97"]
