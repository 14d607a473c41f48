"""Root counting mod prime powers, the congruence density rho(q), ideal norms.

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

HENSEL_DEPTH_MAX = 64
POLY_ROOTS_EXHAUSTIVE_MAX = 10 ** 4


class HenselDepthExceeded(RuntimeError):
    pass


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

    def deriv(self) -> "IntPoly":
        return IntPoly(self.a1, 2 * self.a2, 3 * self.a3, 0)

    def disc(self) -> int:
        """18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2 for a x^3 + b x^2 + c x + d."""
        a, b, c, d = self.a3, self.a2, self.a1, self.a0
        return (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
                - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)

    def content(self) -> int:
        return gcd(gcd(abs(self.a0), abs(self.a1)), gcd(abs(self.a2), abs(self.a3)))


def roots_mod_p(f: IntPoly, p: int) -> list[int]:
    """Roots of f mod p.  Scans for small p, uses gcd with x^p - x for large p."""
    cs = [f.a0 % p, f.a1 % p, f.a2 % p, f.a3 % p]
    if p <= 3000:
        return [x for x in range(p) if (((cs[3] * x + cs[2]) * x + cs[1]) * x + cs[0]) % p == 0]
    return _roots_mod_p_large(cs, p)


ROOT_COUNTS_PMAX = 2 ** 31  # residues < 2^31 keep every int64 product exact


def root_counts(f: IntPoly, primes) -> np.ndarray:
    """#roots of f mod p for every p in an array of primes, as int64.

    At p not dividing 2 a3 disc(f), f is a separable cubic mod p: by
    Stickelberger it has one root when disc is a non-residue (Euler's
    criterion), and otherwise three roots when x^p = x mod (f, p), none when
    not.  x^p is raised by square-and-multiply on degree-<= 2 residues,
    batched over all such primes and reduced by the monic f / a3.  The
    finitely many primes dividing 2 a3 disc(f) (all of them when a3 = 0 or
    disc = 0) go to roots_mod_p.
    """
    ps = np.asarray(primes)
    if ps.size and ps.max() >= ROOT_COUNTS_PMAX:
        raise ValueError(f"root_counts needs primes below 2^31, got {int(ps.max())}")
    ps = ps.astype(np.int64)
    out = np.zeros(ps.size, dtype=np.int64)
    disc = f.disc()
    fast = _mod_array(2 * f.a3 * disc, ps) != 0  # all False when a3 = 0 or disc = 0
    for i in np.flatnonzero(~fast):
        out[i] = len(roots_mod_p(f, int(ps[i])))
    p = ps[fast]
    if not p.size:
        return out
    inv = _pow_mod(_mod_array(f.a3, p), p - 2, p)
    b0, b1, b2 = (_mod_array(a, p) * inv % p for a in (f.a0, f.a1, f.a2))

    def times_x(r0, r1, r2):
        # x (r0 + r1 x + r2 x^2) with x^3 = -(b2 x^2 + b1 x + b0)
        return -r2 * b0 % p, (r0 - r2 * b1 % p) % p, (r1 - r2 * b2 % p) % p

    def square(r0, r1, r2):
        s4 = r2 * r2 % p
        s3 = 2 * (r1 * r2 % p) % p
        s2 = (r1 * r1 % p + 2 * (r0 * r2 % p)) % p
        s1 = 2 * (r0 * r1 % p) % p
        s0 = r0 * r0 % p
        # x^4 = x * x^3, then x^3, each folded down by the monic relation
        s3, s2, s1 = (s3 - s4 * b2 % p) % p, (s2 - s4 * b1 % p) % p, (s1 - s4 * b0 % p) % p
        return (s0 - s3 * b0 % p) % p, (s1 - s3 * b1 % p) % p, (s2 - s3 * b2 % p) % p

    r = (np.ones_like(p), np.zeros_like(p), np.zeros_like(p))
    for k in range(int(p.max()).bit_length() - 1, -1, -1):
        r = square(*r)
        bit = (p >> k) & 1 == 1
        r = tuple(np.where(bit, t, s) for t, s in zip(times_x(*r), r))
    split = (r[0] == 0) & (r[1] == 1) & (r[2] == 0)
    residue = _pow_mod(_mod_array(disc, p), (p - 1) // 2, p) == 1
    out[fast] = np.where(residue, np.where(split, 3, 0), 1)
    return out


def _mod_array(n: int, ps: np.ndarray) -> np.ndarray:
    """n mod p for each p in an int64 array, for a Python int n of any size."""
    if abs(n) < 2 ** 63:
        return np.int64(n) % ps
    return (n % ps.astype(object)).astype(np.int64)


def _pow_mod(base: np.ndarray, e: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """base^e mod p elementwise, for residues base < p < 2^31 and e >= 0."""
    acc = np.ones_like(ps)
    for k in range(int(e.max()).bit_length()):
        acc = np.where((e >> k) & 1 == 1, acc * base % ps, acc)
        base = base * base % ps
    return acc


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod_poly, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_rem(res, mod_poly, p)


def _poly_rem(a, b, p):
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            c = c * inv % p
            for j, bj in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * bj) % p
    return _poly_trim(a[:db])


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _roots_mod_p_large(cs: list[int], p: int) -> list[int]:
    f = _poly_trim(cs[:])
    if not f:
        raise ValueError("zero polynomial mod p")
    # g = gcd(x^p - x, f): its degree is the number of distinct roots
    xp = [0, 1]
    e = p
    acc = [1]
    base = xp
    while e:
        if e & 1:
            acc = _poly_mulmod(acc, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    # acc = x^p mod f; subtract x
    while len(acc) < 2:
        acc.append(0)
    acc[1] = (acc[1] - 1) % p
    g = _poly_gcd(f, acc, p)
    deg = len(g) - 1
    if deg <= 0:
        return []
    # g splits into linear factors; find them (deg <= 3 here)
    return sorted(_split_linear(g, p))


def _split_linear(g: list[int], p: int) -> list[int]:
    """Equal-degree splitting of a product of distinct linear factors mod p."""
    import random

    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-g[0] * pow(g[1], -1, p)) % p]
    rng = random.Random(0xC0FFEE ^ p ^ deg)
    while True:
        a = rng.randrange(p)
        # h = (x + a)^((p-1)/2) - 1 mod g
        base = _poly_rem([a, 1], g, p)
        acc = [1]
        e = (p - 1) // 2
        while e:
            if e & 1:
                acc = _poly_mulmod(acc, base, g, p)
            base = _poly_mulmod(base, base, g, p)
            e >>= 1
        acc = acc[:]
        if not acc:
            acc = [0]
        acc[0] = (acc[0] - 1) % p
        h = _poly_gcd(g, _poly_trim(acc), p)
        if 0 < len(h) - 1 < deg:
            lead = pow(h[-1], -1, p)
            h = [c * lead % p for c in h]
            other = _poly_quot(g, h, p)
            return _split_linear(h, p) + _split_linear(other, p)


def _poly_quot(a, b, p):
    a = a[:]
    q = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] % p
        if c:
            c = c * inv % p
            q[i - (len(b) - 1)] = c
            for j, bj in enumerate(b):
                a[i - (len(b) - 1) + j] = (a[i - (len(b) - 1) + j] - c * bj) % p
    return _poly_trim(q)


def poly_roots_count(f: IntPoly, p: int, k: int) -> int:
    """#{x mod p^k : f(x) = 0 mod p^k}; exhaustive when p^k is small,
    Hensel recursion otherwise."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError("exponent must be >= 0")
    if k == 0:
        return 1
    q = p ** k
    if q <= POLY_ROOTS_EXHAUSTIVE_MAX:
        return sum(1 for x in range(q) if f(x) % q == 0)
    return _roots_count_hensel([f.a0, f.a1, f.a2, f.a3], p, k, 0)


def _roots_count_hensel(cs: list[int], p: int, k: int, depth: int) -> int:
    if depth > HENSEL_DEPTH_MAX:
        raise HenselDepthExceeded("singular Hensel tower exceeded depth cap")
    if k <= 0:
        return 1
    if all(c % p == 0 for c in cs):
        # f = p * g: f(x) = 0 mod p^k <=> g(x) = 0 mod p^(k-1); careful with
        # higher content.  Pull out one factor of p at a time.
        sub = _roots_count_hensel([c // p for c in cs], p, k - 1, depth + 1)
        # roots mod p^(k-1) lift to p roots mod p^k
        return sub * p
    fpoly = IntPoly(*(cs + [0] * (4 - len(cs)))[:4])
    deriv = fpoly.deriv()
    total = 0
    for r in roots_mod_p(fpoly, p):
        if deriv(r) % p != 0:
            total += 1  # unique Hensel lift all the way up
        else:
            # substitute x = r + p*y, divide by the content power of p
            shifted = _shift_scale(cs, r, p)
            v = 0
            while v < k and all(c % p == 0 for c in shifted):
                shifted = [c // p for c in shifted]
                v += 1
            if v >= k:
                total += p ** (k - 1)
                continue
            sub = _roots_count_hensel(shifted, p, k - v, depth + 1)
            total += p ** (v - 1) * sub
    return total


def _shift_scale(cs: list[int], r: int, p: int) -> list[int]:
    """Coefficients of f(r + p*y) as a polynomial in y."""
    out = [0, 0, 0, 0]
    # f(r + t) via Taylor shift, then t -> p*y
    a0, a1, a2, a3 = (cs + [0, 0, 0, 0])[:4]
    b0 = ((a3 * r + a2) * r + a1) * r + a0
    b1 = (3 * a3 * r + 2 * a2) * r + a1
    b2 = 3 * a3 * r + a2
    b3 = a3
    out[0] = b0
    out[1] = b1 * p
    out[2] = b2 * p * p
    out[3] = b3 * p ** 3
    return out


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
