"""Exact integer linear algebra: Smith/Hermite normal forms and linear systems mod n.

Everything here works on small dense integer matrices (at most 8x4 in
practice) with arbitrary-precision Python ints, so there is no overflow to
worry about.  These primitives back the lattice computations used all over
the package: ideal norms, kernels of multiplication maps, counting and
summing additive characters over solution sets of linear congruences.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A: list[list[int]], modulus: int | None = None
                      ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, S, V) with S = U*A*V diagonal, U and V unimodular.

    With a modulus, every entry of S, U, V is kept as a balanced residue mod
    the modulus, so the relation S = U*A*V and the unimodularity of the
    transforms hold mod the modulus only; entries stay bounded and the naive
    algorithm cannot suffer coefficient explosion.  That is exactly what the
    mod-n solver needs.  The diagonal of S is nonnegative.  Divisibility of
    successive diagonal entries is NOT enforced.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [row[:] for row in A]
    U = _identity(m)
    V = _identity(n)

    if modulus is not None:
        half = modulus // 2

        def red(x):
            x %= modulus
            return x - modulus if x > half else x

        S = [[red(x) for x in row] for row in S]
    else:
        def red(x):
            return x

    def row_op(i, j, q):  # row_i -= q * row_j
        S[i] = [red(a - q * b) for a, b in zip(S[i], S[j])]
        U[i] = [red(a - q * b) for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in S:
            row[i] = red(row[i] - q * row[j])
        for row in V:
            row[i] = red(row[i] - q * row[j])

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        while True:
            # re-select the smallest nonzero pivot every sweep; together with
            # the balanced reduction this keeps entries tame
            piv = None
            for i in range(t, m):
                for j in range(t, n):
                    if S[i][j] != 0 and (piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            if piv != (t, t):
                swap_rows(t, piv[0])
                swap_cols(t, piv[1])
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    row_op(i, t, q)
                    if S[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_op(j, t, q)
                    if S[t][j] != 0:
                        dirty = True
            if not dirty and all(S[i][t] == 0 for i in range(t + 1, m)):
                break
        if t < min(m, n) and S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, S, V


def hnf_column_style(vectors: list[list[int]]) -> list[list[int]]:
    """Column Hermite form of the lattice spanned by the given row vectors.

    Returns a list of nonzero rows forming a triangular basis (row-style HNF,
    pivots positive).  Input rows may be linearly dependent.
    """
    rows = [v[:] for v in vectors if any(v)]
    if not rows:
        return []
    ncols = len(vectors[0])
    basis: list[list[int]] = []
    for col in range(ncols):
        # reduce all rows against current column
        while True:
            cand = [r for r in rows if r[col] != 0]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            a = cand[0]
            for b in cand[1:]:
                q = b[col] // a[col]
                for k in range(ncols):
                    b[k] -= q * a[k]
            rows = [r for r in rows if any(r)]
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is not None:
            rows.remove(pivot)
            if pivot[col] < 0:
                pivot = [-x for x in pivot]
            basis.append(pivot)
    # triangular reduction of off-pivot entries (keeps things small; optional)
    return basis


def lattice_index(vectors: list[list[int]], dim: int) -> int:
    """Index [Z^dim : L] of the lattice L spanned by the given row vectors.

    Raises ValueError if the span has rank < dim.
    """
    basis = hnf_column_style(vectors)
    if len(basis) < dim:
        raise ValueError("generator set spans a rank-deficient lattice")
    det = 1
    used = set()
    for row in basis:
        col = next(i for i, x in enumerate(row) if x != 0)
        if col in used:
            raise ValueError("unexpected HNF shape")
        used.add(col)
        det *= abs(row[col])
    return det


@dataclass
class SolutionSet:
    """Solutions x in (Z/n)^k of A x = b (mod n).

    x0 is one solution; gens generate the homogeneous solution subgroup, with
    gen_orders[i] the number of distinct multiples of gens[i] (the subgroup is
    the direct sum of the cyclic groups generated by the gens, in the SNF
    coordinates, so iterating multiples of each gen enumerates every solution
    exactly once).  count is the total number of solutions.
    """

    n: int
    x0: list[int]
    gens: list[list[int]]
    gen_orders: list[int]
    count: int

    def iter_all(self):
        """Yield every solution (as a list mod n). Use only for small counts."""
        from itertools import product

        ranges = [range(o) for o in self.gen_orders]
        for multi in product(*ranges):
            x = list(self.x0)
            for c, g in zip(multi, self.gens):
                if c:
                    x = [(a + c * b) % self.n for a, b in zip(x, g)]
            yield x


def solve_mod(A: list[list[int]], b: list[int], n: int) -> SolutionSet | None:
    """Solve A x = b over Z/n.  Returns None if inconsistent."""
    if n == 1:
        k = len(A[0]) if A else 0
        return SolutionSet(1, [0] * k, [], [], 1)
    m = len(A)
    k = len(A[0]) if m else 0
    U, S, V = smith_normal_form(A, modulus=n)
    # c = U b
    c = [sum(U[i][j] * b[j] for j in range(m)) % n for i in range(m)]
    y0 = [0] * k
    gens_y: list[tuple[int, int]] = []  # (coordinate, step), order n//step... see below
    count = 1
    for i in range(k):
        s = S[i][i] if i < m else 0
        ci = c[i] if i < m else 0
        g = gcd(s, n)
        if i >= m:
            # unconstrained coordinate
            gens_y.append((i, 1))
            count *= n
            continue
        if ci % g != 0:
            return None
        if g == n:
            # s*y = ci (mod n) with s divisible by n: y free
            gens_y.append((i, 1))
            count *= n
            continue
        s_red, c_red, n_red = s // g, (ci // g) % (n // g), n // g
        y0[i] = (c_red * pow(s_red, -1, n_red)) % n_red
        if g > 1:
            gens_y.append((i, n // g))
            count *= g
    for i in range(k, m):
        if c[i] % n != 0:
            return None
    # map back: x = V y
    x0 = [sum(V[r][j] * y0[j] for j in range(k)) % n for r in range(k)]
    gens = []
    orders = []
    for (coord, step) in gens_y:
        gens.append([(V[r][coord] * step) % n for r in range(k)])
        orders.append(n // step)
    return SolutionSet(n, x0, gens, orders, count)


def integer_kernel(A: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {x in Z^k : A x = 0}, via exact SNF."""
    m = len(A)
    k = len(A[0]) if m else 0
    U, S, V = smith_normal_form(A)
    basis = []
    for j in range(k):
        s = S[j][j] if j < m else 0
        if s == 0:
            basis.append([V[r][j] for r in range(k)])
    return basis


def char_sum_over_solutions(sol: SolutionSet | None, mu: list[int]) -> tuple[int, int]:
    """Sum of e(<mu, x>/n) over all solutions x, as (count, r).

    The value of the sum is count * e(r/n), or 0 when count == 0.  mu is the
    coefficient row of the linear phase functional.  The sum over a coset of a
    subgroup is |subgroup| * phase(x0) when the character is trivial on the
    subgroup and 0 otherwise.
    """
    if sol is None:
        return 0, 0
    n = sol.n
    for g, order in zip(sol.gens, sol.gen_orders):
        if order <= 1:
            continue
        if sum(m * x for m, x in zip(mu, g)) % n != 0:
            return 0, 0
    r = sum(m * x for m, x in zip(mu, sol.x0)) % n
    return sol.count, r
