"""Exact arithmetic in Z[zeta_8] and its archimedean embeddings.

An element is stored as four integer coordinates (c0, c1, c2, c3) in the
basis 1, z, z^2, z^3 with z^4 = -1.  Python integers are arbitrary precision,
so there is no overflow mode to select; all ring operations are exact.

This module is the package's one arithmetic core: the multiplication rule
(``_negacyclic``), the Galois conjugations z -> z^k (``_sigma``) and the two
archimedean embeddings sigma_1, sigma_3 (``embed``) are written down here
and nowhere else; every other module calls them.

The trace pairing <a, b> = Tr(a*b / (4*z^3)) equals the z^3-coordinate of
a*b and is unimodular on the coordinate lattice (its Gram matrix is the
antidiagonal permutation), which is what makes O_K self-dual and additive
characters mod q well behaved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import InvariantError


class Vec2Int(NamedTuple):
    v1: int
    v2: int


def _negacyclic(c0, c1, c2, c3):
    """Rows of the matrix of multiplication by c0 + c1 z + c2 z^2 + c3 z^3.

    z^4 = -1 makes it negacyclic: column j is column j - 1 shifted down one
    place, with the coordinate that wraps round negated.  The coordinates may
    be Python numbers or equal-length numpy arrays.
    """
    return ((c0, -c3, -c2, -c1),
            (c1, c0, -c3, -c2),
            (c2, c1, c0, -c3),
            (c3, c2, c1, c0))


@dataclass(frozen=True)
class CycInt:
    c0: int = 0
    c1: int = 0
    c2: int = 0
    c3: int = 0

    def coords(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    def __add__(self, other: "CycInt") -> "CycInt":
        return CycInt(self.c0 + other.c0, self.c1 + other.c1,
                      self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "CycInt") -> "CycInt":
        return CycInt(self.c0 - other.c0, self.c1 - other.c1,
                      self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "CycInt":
        return CycInt(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, other) -> "CycInt":
        if isinstance(other, int):
            return CycInt(self.c0 * other, self.c1 * other,
                          self.c2 * other, self.c3 * other)
        # coords(a*b) = M(b) a: each coordinate sums a_i b_j over i ascending
        a0, a1, a2, a3 = self.c0, self.c1, self.c2, self.c3
        return CycInt(*[r0 * a0 + r1 * a1 + r2 * a2 + r3 * a3
                        for r0, r1, r2, r3 in _negacyclic(*other.coords())])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coords())

    def scalar_divisible(self, m: int) -> bool:
        return all(x % m == 0 for x in self.coords())

    def __repr__(self) -> str:
        return f"CycInt({self.c0}, {self.c1}, {self.c2}, {self.c3})"


ZETA = CycInt(0, 1, 0, 0)
ONE = CycInt(1, 0, 0, 0)


def mult_matrix(a: CycInt) -> list[list[int]]:
    """Matrix of multiplication by a on coordinates: column j is a * z^j."""
    return [list(row) for row in _negacyclic(*a.coords())]


def mult_matrices(coords: np.ndarray) -> np.ndarray:
    """mult_matrix of every row of an (n, 4) int or float stack, as (n, 4, 4)."""
    c = np.asarray(coords)
    return np.stack([np.stack(row, axis=-1) for row in _negacyclic(*c.T)], axis=-2)


def norm(a: CycInt) -> int:
    """Field norm: product of the four complex embeddings, exactly.

    Computed as a * conj_star(a) which lands in Z; equivalently the resultant
    of the coordinate polynomial with x^4 + 1.
    """
    if a.is_zero():
        return 0
    prod = a * conj_star(a)
    if prod.c1 or prod.c2 or prod.c3:
        raise InvariantError(f"norm of {a} left the rationals: {prod}")
    return prod.c0


def _sigma(a: CycInt, k: int) -> CycInt:
    """Galois conjugate z -> z^k for odd k (exact coordinate permutation)."""
    out = [0, 0, 0, 0]
    for i, coef in enumerate(a.coords()):
        e = (i * k) % 8
        if e < 4:
            out[e] += coef
        else:
            out[e - 4] -= coef
    return CycInt(*out)


def conj_star(a: CycInt) -> CycInt:
    """a* = N(a)/a, the product of the three nontrivial conjugates."""
    if a.is_zero():
        raise ValueError("conj_star of zero")
    return _sigma(a, 3) * _sigma(a, 5) * _sigma(a, 7)


def trace_pair(a: CycInt, b: CycInt) -> int:
    """<a, b> = Tr(a*b/delta_K) = z^3-coordinate of a*b."""
    return (a * b).c3


# Gram matrix of the trace pairing in the power basis: G[i][j] = <z^i, z^j>
GRAM = [[1 if i + j == 3 else 0 for j in range(4)] for i in range(4)]


def ell(a: CycInt) -> Vec2Int:
    """ell(n0 + n1 z + n2 z^2 + n3 z^3) = (n3, n2) = (<a,1>, <a,z>)."""
    return Vec2Int(a.c3, a.c2)


def ell_matrix(a: CycInt) -> list[list[int]]:
    """2x4 integer matrix of beta -> ell(a * beta): rows 3, 2 of mult_matrix(a)."""
    m = mult_matrix(a)
    return [m[3], m[2]]


def ell_matrices(coords: np.ndarray) -> np.ndarray:
    """ell_matrix of every row of an (n, 4) int or float stack, as (n, 2, 4)."""
    return mult_matrices(coords)[:, [3, 2], :]


# sigma_k sends z to exp(2 pi i k / 8); sigma_5 and sigma_7 are the complex
# conjugates of sigma_3 and sigma_1, so two embeddings carry all the data
_W = math.sqrt(0.5)


def embed(coords) -> tuple:
    """(sigma_1, sigma_3) of a 4-sequence of coordinates, or of every row of
    an (n, 4) stack.  Python complex numbers for one element, complex arrays
    for a stack."""
    c = np.asarray(coords, dtype=float)
    c0, c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    u, v = _W * (c1 - c3), _W * (c1 + c3)
    s1, s3 = (c0 + u) + 1j * (c2 + v), (c0 - u) + 1j * (v - c2)
    if c.ndim == 1:
        return complex(s1), complex(s3)
    return s1, s3


def unembed(s1: complex, s3: complex) -> tuple[float, float, float, float]:
    """Real coordinates with the given sigma_1 and sigma_3 (inverse of embed)."""
    c0 = (s1.real + s3.real) / 2
    c2 = (s1.imag - s3.imag) / 2
    u = (s1.real - s3.real) / 2   # = w (c1 - c3)
    v = (s1.imag + s3.imag) / 2   # = w (c1 + c3)
    c1 = (u + v) / (2 * _W)
    c3 = (v - u) / (2 * _W)
    return (c0, c1, c2, c3)


# sigma_1(z) and sigma_3(z)
_Z1, _Z3 = complex(_W, _W), complex(-_W, _W)


def inverse_columns(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns 0 and 1 of mult_matrix(x)^-1, which are x^-1 and z x^-1, and
    |det mult_matrix(x)| = N(x) = |sigma_1(x)|^2 |sigma_3(x)|^2, for every row
    x of an (n, 4) float stack, as an (n, 4, 2) and an (n,) array.

    sigma_k(x^-1) = 1 / sigma_k(x), so both columns are unembed of quotients
    of the two embeddings; no matrix is formed or inverted.  A row of norm 0
    has no inverse and raises ValueError.
    """
    s1, s3 = embed(coords)
    n1, n3 = s1.real ** 2 + s1.imag ** 2, s3.real ** 2 + s3.imag ** 2
    norms = n1 * n3
    if not norms.all():
        i = int(norms.argmin())  # the first zero: no norm is negative
        raise ValueError(f"row {i} of the stack, {np.asarray(coords)[i].tolist()}, "
                         "has norm 0 and no inverse")
    i1, i3 = s1.conj() / n1, s3.conj() / n3
    cols = [np.stack(unembed(z1 * i1, z3 * i3), axis=-1) for z1, z3 in ((1, 1), (_Z1, _Z3))]
    return np.stack(cols, axis=-1), norms


def embeddings(a: CycInt) -> tuple[complex, complex, complex, complex]:
    """sigma_k(a) for k = 1, 3, 5, 7."""
    s1, s3 = embed(a.coords())
    return (s1, s3, s3.conjugate(), s1.conjugate())


def embed_abs(coords) -> tuple:
    """(|sigma_1|, |sigma_3|), as embed takes and returns them.  A stack uses
    np.hypot, which agrees bit for bit with abs() of one complex number
    (np.abs of a complex array does not)."""
    s1, s3 = embed(coords)
    if isinstance(s1, complex):
        return abs(s1), abs(s3)
    return np.hypot(s1.real, s1.imag), np.hypot(s3.real, s3.imag)


def sup_norms(coords) -> np.ndarray:
    """|alpha|_sup for every row of an (n, 4) coordinate stack."""
    return np.maximum(*embed_abs(coords))


def sup_norm(a: CycInt) -> float:
    """|a|_sup = max over archimedean embeddings of |sigma_v(a)|."""
    return max(embed_abs(a.coords()))


def abs_inf(a: CycInt) -> float:
    """|a|_inf = |N(a)|^(1/4)."""
    return abs(norm(a)) ** 0.25


@dataclass(frozen=True)
class CycRes:
    """Residue class in O_K / q O_K, coordinates reduced into [0, q)."""

    coords: tuple[int, int, int, int]
    q: int

    def __init__(self, value: CycInt | tuple[int, int, int, int], q: int):
        if q <= 0:
            raise ValueError("modulus must be positive")
        raw = value.coords() if isinstance(value, CycInt) else tuple(value)
        object.__setattr__(self, "coords", tuple(x % q for x in raw))
        object.__setattr__(self, "q", q)

    def lift(self) -> CycInt:
        return CycInt(*self.coords)

    def _check_modulus(self, other: "CycRes"):
        if self.q != other.q:
            raise ValueError(f"residues mod {self.q} and mod {other.q} do not combine")

    def __add__(self, other: "CycRes") -> "CycRes":
        self._check_modulus(other)
        return CycRes(tuple(a + b for a, b in zip(self.coords, other.coords)), self.q)

    def __mul__(self, other: "CycRes") -> "CycRes":
        self._check_modulus(other)
        return CycRes(self.lift() * other.lift(), self.q)
