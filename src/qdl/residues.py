"""Cubic root counts mod p, the congruence density rho(q), ideal norms.

rho(q) counts solutions of x1^4 + x2^4 = 0 (mod q).  It is multiplicative and
satisfies, at prime powers, the recursion

    rho(p^k) = phi(p^k) * r_p(k) + p^6 * rho(p^(k-4))      (k >= 4)
    rho(p^k) = phi(p^k) * r_p(k) + p^(2k-2)                (1 <= k <= 3)

where r_p(k) = #{u mod p^k : u^4 = -1} is the primitive root count (4 for
p = 1 mod 8, 0 for other odd p; for p = 2 it is 1 at k = 1 and 0 above).
The primitive part comes from pairs of units x = u*y; the imprimitive part
pulls p out of both variables.  The recursion is cross-checked against
exhaustive counts in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .cyclotomic import CycInt, mult_matrix
from .linalg import lattice_index

# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def sieve_primes(limit: int) -> list[int]:
    """The primes p <= limit, ascending, as Python ints."""
    if limit < 2:
        return []
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for n in range(2, isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n::n] = False
    return np.flatnonzero(sieve).tolist()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization (values in this package stay modest)."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += inc[i]
        i = (i + 1) % 8
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of |n| (n != 0), in increasing order."""
    out = [1]
    for p, e in factorize(abs(n)).items():
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)


def vp(n: int, p: int) -> int:
    """The exponent of the prime p in n != 0."""
    if n == 0:
        raise ValueError("vp(0) is infinite")
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


# ---------------------------------------------------------------------------
# cubic (or lower) integer polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPoly:
    """f(x) = a3 x^3 + a2 x^2 + a1 x + a0 with integer coefficients."""

    a0: int
    a1: int
    a2: int
    a3: int

    @property
    def degree(self) -> int:
        for d, c in ((3, self.a3), (2, self.a2), (1, self.a1)):
            if c != 0:
                return d
        return 0

    def __call__(self, x: int) -> int:
        return ((self.a3 * x + self.a2) * x + self.a1) * x + self.a0

    def disc(self) -> int:
        """18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2 for a x^3 + b x^2 + c x + d."""
        a, b, c, d = self.a3, self.a2, self.a1, self.a0
        return (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
                - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)

    def content(self) -> int:
        return gcd(gcd(abs(self.a0), abs(self.a1)), gcd(abs(self.a2), abs(self.a3)))


def roots_mod_p(f: IntPoly, p: int) -> list[int]:
    """Roots of f mod p, by scanning every residue: O(p).  The oracle that
    root_counts is tested against."""
    cs = [f.a0 % p, f.a1 % p, f.a2 % p, f.a3 % p]
    return [x for x in range(p) if (((cs[3] * x + cs[2]) * x + cs[1]) * x + cs[0]) % p == 0]


ROOT_COUNTS_PMAX = 2 ** 31  # residues < 2^31 keep every int64 product exact
# the ladder walks this many (cubic, prime) pairs at a time, so its (3, 3, m)
# temporaries stay in cache however large the table
_ROOT_COUNTS_BLOCK = 10_000
# row d sums the products r_i r_j (flattened i, j < 3) with i + j = d: a square's x^d coefficient
_SQUARE = np.array([[int(i + j == d) for i in range(3) for j in range(3)] for d in range(5)])


def root_counts(fs, primes) -> np.ndarray:
    """#roots of f mod p for each cubic f in fs and each p in an array of
    primes below 2^31, as a (len(fs), len(primes)) int64 array.

    At p not dividing 2 a3 disc(f), f is a separable cubic mod p: by
    Stickelberger it has one root when disc is a non-residue (Euler's
    criterion), and otherwise three roots when x^p = x mod (f, p), none when
    not.  x^p is raised by one square-and-multiply ladder on degree-<= 2
    residues r = (r0, r1, r2), batched over blocks of such (cubic, prime)
    pairs: with the monic f / a3 = x^3 + b2 x^2 + b1 x + b0, the rows

        x^3 = C3 = -(b0, b1, b2),  x^4 = C4 = (b0 b2, b1 b2 - b0, b2^2 - b1)

    fold a square's x^3 and x^4 terms back to degree 2.  a3^-1 (Fermat) and
    Euler's criterion on disc share one _pow_mod call.

    The other pairs are counted in closed form:

    - p = 2: the roots are among 0 and 1, so the count is
      [f(0) even] + [f(1) even].
    - p odd, p | disc, p not dividing a3: f has a repeated root.  A cubic has
      at most one repeated root, so Frobenius fixes it, and f = a3 (x - u)^2
      (x - v) with u, v in F_p.  Then b2 = -(2u + v) and b1 = u^2 + 2uv give
      a2^2 - 3 a1 a3 = a3^2 (b2^2 - 3 b1) = a3^2 (u - v)^2, and the count is
      1 + [a2^2 != 3 a1 a3]: two roots, or one triple root.
    - p odd, p | a3, p not dividing a2: f is the quadratic a2 x^2 + a1 x + a0
      with discriminant D = a1^2 - 4 a0 a2, so it has 1 + (D/p) roots, the
      Legendre symbol read off D^((p - 1)/2) (Euler's criterion).
    - p | a3 and p | a2: f = a1 x + a0 has one root when p does not divide
      a1; otherwise it is the constant a0, with p roots when p | a0 (f = 0
      mod p) and none when not.
    """
    ps = np.asarray(primes)
    if ps.size and ps.max() >= ROOT_COUNTS_PMAX:
        raise ValueError(f"root_counts needs primes below 2^31, got {int(ps.max())}")
    ps = ps.astype(np.int64)
    fs = list(fs)
    out = np.zeros((len(fs), ps.size), dtype=np.int64)
    # res[i] = (a0, a1, a2, a3, disc) of fs[i] mod each p
    res = _mod_array([c for f in fs for c in (f.a0, f.a1, f.a2, f.a3, f.disc())],
                     ps).reshape(len(fs), 5, ps.size)
    fast = (ps != 2) & (res[:, 3] != 0) & (res[:, 4] != 0)
    si, sj = np.nonzero(~fast)
    out[si, sj] = [_degenerate_count(*a, p)
                   for a, p in zip(res[si, :4, sj].tolist(), ps[sj].tolist())]
    fi, fj = np.nonzero(fast)
    for k in range(0, fi.size, _ROOT_COUNTS_BLOCK):
        i, j = fi[k:k + _ROOT_COUNTS_BLOCK], fj[k:k + _ROOT_COUNTS_BLOCK]
        out[i, j] = _separable_counts(res[i, :, j].T, ps[j])
    return out


def _degenerate_count(a0: int, a1: int, a2: int, a3: int, p: int) -> int:
    """#roots mod p of a3 x^3 + a2 x^2 + a1 x + a0, for residues a_i and a
    prime p with p = 2, p | a3 or p | disc; the closed forms are proved in
    root_counts."""
    if p == 2:
        return (a0 == 0) + ((a0 + a1 + a2 + a3) % 2 == 0)
    if a3:
        return 1 + ((a2 * a2 - 3 * a1 * a3) % p != 0)
    if a2:
        euler = pow(a1 * a1 - 4 * a0 * a2, (p - 1) // 2, p)
        return 1 + (euler == 1) - (euler == p - 1)
    if a1:
        return 1
    return p if a0 == 0 else 0


def _separable_counts(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """#roots mod p of a cubic with p not dividing 2 a3 disc, for residues
    a = (a0, a1, a2, a3, disc), a column per pair: one root, or three or none
    as the ladder in root_counts finds x^p = x or not."""
    pw = _pow_mod(np.concatenate([a[3], a[4]]), np.concatenate([p - 2, (p - 1) // 2]),
                  np.concatenate([p, p]))
    inv, residue = pw[:p.size], pw[p.size:] == 1
    out = np.ones(p.size, dtype=np.int64)  # disc a non-residue: exactly one root
    # the ladder runs only where disc is a residue: three roots or none
    p = p[residue]
    if not p.size:
        return out
    b = a[:3, residue] * inv[residue] % p  # the monic f / a3 = x^3 + b2 x^2 + b1 x + b0
    b0, b1, b2 = b
    C = np.stack([-b % p, np.stack([b0 * b2, b1 * b2 - b0, b2 * b2 - b1]) % p])  # (2, 3, m)
    bits = (p >> np.arange(int(p.max()).bit_length())[:, None]) & 1 == 1
    r = np.zeros((3, p.size), dtype=np.int64)
    r[0] = 1
    for bit in bits[::-1]:
        s = _SQUARE @ (r[:, None] * r[None, :] % p).reshape(9, -1)  # x^0 .. x^4, each < 3p
        r = (s[:3] + (s[3:, None] % p * C % p).sum(axis=0)) % p
        t = r[2] * C[0] % p  # times x: (0, r0, r1) + r2 C3
        t[1:] += r[:2]
        r = np.where(bit, t % p, r)
    out[residue] = np.where((r[0] == 0) & (r[1] == 1) & (r[2] == 0), 3, 0)
    return out


def _mod_array(ns: list[int], ps: np.ndarray) -> np.ndarray:
    """n mod p for each Python int n (of any size) in ns and each p in an int64
    array, as a (len(ns), len(ps)) int64 array."""
    if all(abs(n) < 2 ** 63 for n in ns):
        return np.array(ns, dtype=np.int64)[:, None] % ps
    return (np.array(ns, dtype=object)[:, None] % ps.astype(object)).astype(np.int64)


def _pow_mod(base: np.ndarray, e: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """base^e mod p elementwise, for residues base < p < 2^31 and e >= 0."""
    acc = np.ones_like(ps)
    for k in range(int(e.max(initial=0)).bit_length()):
        acc = np.where((e >> k) & 1 == 1, acc * base % ps, acc)
        base = base * base % ps
    return acc


# ---------------------------------------------------------------------------
# rho(q)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fourth_root_count(p: int, k: int) -> int:
    """#{u mod p^k : u^4 = -1 (mod p^k)} for k >= 1."""
    if p == 2:
        return 1 if k == 1 else 0
    if p % 8 != 1:
        return 0
    return 4  # four simple roots mod p, each lifting uniquely


@lru_cache(maxsize=None)
def rho_prime_power(p: int, k: int) -> int:
    if k == 0:
        return 1
    phi = p ** k - p ** (k - 1)
    prim = phi * _fourth_root_count(p, k)
    if k >= 4:
        imprim = p ** 6 * rho_prime_power(p, k - 4)
    else:
        imprim = p ** (2 * (k - 1))
    return prim + imprim


def rho(q: int) -> int:
    """#{x1, x2 in Z/qZ : q | x1^4 + x2^4}, multiplicative over prime powers."""
    if q <= 0:
        raise ValueError("rho requires q >= 1")
    out = 1
    for p, k in factorize(q).items():
        out *= rho_prime_power(p, k)
    return out


def rho_exhaustive(q: int) -> int:
    """Quadratic-time oracle used in tests."""
    pows = [pow(x, 4, q) for x in range(q)]
    from collections import Counter

    cnt = Counter(pows)
    return sum(c * cnt.get((q - v) % q, 0) for v, c in cnt.items())


# ---------------------------------------------------------------------------
# ideal norms via integer normal forms
# ---------------------------------------------------------------------------

def ideal_norm(gens: list[CycInt]) -> int:
    """Index [O_K : I] for the ideal I generated by gens.

    The ideal is the Z-lattice spanned by g * z^j over generators g and
    j = 0..3; the index is the product of its Smith diagonal.
    Raises ValueError when the generators span a rank-deficient lattice.
    """
    rows: list[list[int]] = []
    for g in gens:
        rows.extend(list(col) for col in zip(*mult_matrix(g)))  # g * z^j
    return lattice_index(rows, 4)


def norm_gcd_check(x: int, y: int, p: int, k: int) -> tuple[int, int]:
    """Both sides of the local norm identity N((x + y*zeta, p^k)) = (x^4 + y^4, p^k).

    Precondition p does not divide gcd(x, y); the equality is verified by the
    caller (it is a consequence of unique prime above p with residue degree 1).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if gcd(gcd(abs(x), abs(y)), p) == p:
        raise ValueError("requires p coprime to gcd(x, y)")
    lhs = ideal_norm([CycInt(x, y, 0, 0), CycInt(p ** k)])
    rhs = gcd(x ** 4 + y ** 4, p ** k)
    return lhs, rhs
