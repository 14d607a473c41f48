import itertools
import random

from hypothesis import given, settings, strategies as st

import pytest

from qdl.linalg import (char_sum_over_solutions, integer_kernel, lattice_index,
                        smith_normal_form, solve_mod)


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def test_snf_shape_and_relation():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, S, V = smith_normal_form(A)
    assert matmul(matmul(U, A), V) == S
    for i in range(3):
        for j in range(3):
            if i != j:
                assert S[i][j] == 0


@given(st.integers(2, 16),
       st.lists(st.integers(-9, 9), min_size=8, max_size=8),
       st.lists(st.integers(-9, 9), min_size=2, max_size=2))
@settings(max_examples=120, deadline=None)
def test_solve_mod_matches_enumeration(n, entries, rhs):
    A = [entries[:4], entries[4:]]
    sol = solve_mod(A, rhs, n)
    brute = [x for x in itertools.product(range(n), repeat=4)
             if all(sum(A[i][j] * x[j] for j in range(4)) % n == rhs[i] % n
                    for i in range(2))]
    if sol is None:
        assert not brute
    else:
        elems = [tuple(v) for v in sol.elements().tolist()]
        assert len(elems) == sol.count
        assert sorted(elems) == sorted(brute)


def test_char_sum_matches_direct():
    import cmath

    rng = random.Random(9)
    for _ in range(40):
        n = rng.choice([3, 4, 5, 6, 8, 9])
        A = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
        b = [rng.randint(-5, 5) for _ in range(2)]
        mu = [rng.randint(0, n - 1) for _ in range(4)]
        sol = solve_mod(A, b, n)
        cnt, r = char_sum_over_solutions(sol, mu)
        direct = sum(cmath.exp(2j * cmath.pi * (sum(m * xi for m, xi in zip(mu, x)) % n) / n)
                     for x in itertools.product(range(n), repeat=4)
                     if all(sum(A[i][j] * x[j] for j in range(4)) % n == b[i] % n
                            for i in range(2)))
        want = cnt * cmath.exp(2j * cmath.pi * r / n) if cnt else 0
        assert abs(direct - want) < 1e-7


def test_lattice_index():
    # index of 2Z^2 + Z(1,1) in Z^2 is 2
    assert lattice_index([[2, 0], [0, 2], [1, 1]], 2) == 2
    assert lattice_index([[1, 0, 0], [0, 3, 0], [0, 0, 5]], 3) == 15
    assert lattice_index([[2, 4], [6, 8]], 2) == 8  # |det|
    with pytest.raises(ValueError):
        lattice_index([[1, 2], [2, 4]], 2)
    with pytest.raises(ValueError):
        lattice_index([[1, 0, 0], [0, 1, 0]], 3)


def test_lattice_index_matches_enumeration():
    """Square generator sets give |det| (ValueError when singular); generator
    sets containing n*I give n^3 / |L mod n|, with L mod n enumerated as the
    subgroup of (Z/n)^3 the rows generate."""
    rng = random.Random(5)
    for _ in range(200):
        A = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        det = (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
               - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
               + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))
        if det == 0:
            with pytest.raises(ValueError):
                lattice_index(A, 3)
        else:
            assert lattice_index(A, 3) == abs(det)
        n = rng.choice([2, 4, 6, 9])
        rows = A[:rng.randint(0, 3)] + [[n if i == j else 0 for j in range(3)] for i in range(3)]
        span = {(0, 0, 0)}
        frontier = list(span)
        while frontier:
            x = frontier.pop()
            for r in rows:
                y = tuple((a + b) % n for a, b in zip(x, r))
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        assert lattice_index(rows, 3) == n ** 3 // len(span)


def test_integer_kernel():
    A = [[1, 2, 3, 4]]
    ker = integer_kernel(A)
    assert len(ker) == 3
    for v in ker:
        assert sum(a * b for a, b in zip(A[0], v)) == 0
    # rank-2 map has rank-2 kernel
    ker2 = integer_kernel([[1, 0, 2, 0], [0, 1, 0, 2]])
    assert len(ker2) == 2
    # kernel is saturated: the gcd of each basis vector stays primitive-friendly
    for v in ker2:
        assert any(x != 0 for x in v)
