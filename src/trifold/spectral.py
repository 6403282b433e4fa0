"""Exact linear algebra for the 8x8 substitution count matrices.

The count matrices are integral, so products, powers, matrix-vector
steps and ranks stay in Python ints: `Mat` keeps int entries as ints,
and `Mat.rank` uses fraction-free (Bareiss) elimination.  A `Fraction`
appears only where a division really happens: the inverse of the fixed
conjugating matrix C (whose columns are eigenvectors of M+), the exact
division by its common denominator when M is brought to triangular
form, and the 4^(kn) scaling of the tile-density vectors.  No float and
no numeric eigensolver is involved; the expected eigenvalues are known
integers and every check is an equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import NotTriangular

DIM = 8


def _exact(x):
    """An int stays an int; anything else becomes a `Fraction`."""
    return x if type(x) is int else Fraction(x)


def _divide(x, d: int):
    """x / d exactly: an int when d divides x, a `Fraction` otherwise."""
    q, r = divmod(x, d)
    return q if r == 0 else Fraction(x) / d


def _integral_row(row) -> list[int]:
    """The row scaled by the lcm of its denominators (same span)."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


class Mat:
    """Dense 8x8 (or compatible) matrix over exact rationals: int
    entries stay ints, any other entry is held as a `Fraction`."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(map(_exact, row)) for row in rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return "Mat(" + ", ".join(str(list(map(str, r))) for r in self.rows) + ")"

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int = DIM) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __mul__(self, other: "Mat") -> "Mat":
        cols = list(zip(*other.rows))
        return Mat([[sum(map(mul, row, col)) for col in cols]
                    for row in self.rows])

    def vec(self, v) -> tuple:
        return tuple(sum(map(mul, row, v)) for row in self.rows)

    def minus_scalar_diag(self, lam) -> "Mat":
        return Mat([[x - lam if i == j else x for j, x in enumerate(row)]
                    for i, row in enumerate(self.rows)])

    def power(self, e: int) -> "Mat":
        if e < 0:
            raise ValueError(f"negative matrix power {e}")
        out = Mat.identity(self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def rank(self) -> int:
        """Rank by fraction-free (Bareiss) elimination.  Each row is
        first scaled to integers; every later division is exact."""
        m = [_integral_row(row) for row in self.rows]
        n_rows, n_cols = len(m), len(m[0])
        rank, prev = 0, 1
        for col in range(n_cols):
            pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            top = m[rank]
            pv = top[col]
            for r in range(rank + 1, n_rows):
                a = m[r][col]
                m[r] = [0] * col + [(pv * x - a * y) // prev
                                    for x, y in zip(m[r][col:], top[col:])]
            prev = pv
            rank += 1
        return rank

    def inverse(self) -> "Mat":
        n = self.n
        m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            pv = m[col][col]
            m[col] = [x / pv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    factor = m[r][col]
                    m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
        return Mat([row[n:] for row in m])

    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for row in self.rows:
            if any(x.denominator != 1 for x in row):
                raise ValueError("matrix is not integral")
            out.append(tuple(int(x) for x in row))
        return tuple(out)


M_PLUS = Mat([
    [0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 1, 3, 0, 0, 0, 0],
    [0, 2, 2, 0, 0, 0, 0, 0],
    [3, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 3],
    [0, 0, 0, 0, 0, 2, 2, 0],
    [0, 0, 0, 0, 3, 1, 0, 0],
])

M_MINUS = Mat([
    [0, 0, 1, 3, 0, 0, 0, 0],
    [0, 2, 2, 0, 0, 0, 0, 0],
    [3, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 3],
    [0, 0, 0, 0, 0, 2, 2, 0],
    [0, 0, 0, 0, 3, 1, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
])

#: Columns are eigenvectors of M+ (PF vector, then the 2 / -2 / 1 / 0 blocks).
C_MATRIX = Mat([
    [1, -2, 0, 0, 0, 0, -1, 0],
    [1, 0, -2, 0, 1, 0, 3, 0],
    [1, 9, 1, 0, -2, 0, -3, 0],
    [1, -3, 1, 0, 1, 0, 1, 0],
    [1, 2, 0, 0, 0, 0, 0, -1],
    [1, 0, 0, -2, 0, 1, 0, 3],
    [1, -9, 0, 1, 0, -2, 0, -3],
    [1, 3, 0, 1, 0, 1, 0, 1],
])

ONES = (1,) * 8
U_PLUS = (0, 1, -2, 1, 0, 0, 0, 0)
U_MINUS = (1, -2, 1, 0, 0, 0, 0, 0)
U_PLUS_LOWER = (0, 0, 0, 0, 0, 1, -2, 1)
U_MINUS_LOWER = (0, 0, 0, 0, 1, -2, 1, 0)
KERNEL_UPPER = (1, -3, 3, -1, 0, 0, 0, 0)
KERNEL_LOWER = (0, 0, 0, 0, 1, -3, 3, -1)


@lru_cache(maxsize=1)
def c_inverse() -> Mat:
    inv = C_MATRIX.inverse()
    if C_MATRIX * inv != Mat.identity():
        raise NotTriangular("C * C^-1 is not the identity")
    return inv


@lru_cache(maxsize=1)
def c_inverse_scaled() -> tuple[int, Mat]:
    """(D, D C^-1) for the common denominator D of C^-1's entries, so
    that D C^-1 is an integer matrix."""
    inv = c_inverse()
    d = lcm(*(x.denominator for row in inv.rows for x in row))
    return d, Mat([[int(x * d) for x in row] for row in inv.rows])


def rule_matrix(rule: str) -> Mat:
    if rule == "+":
        return M_PLUS
    if rule == "-":
        return M_MINUS
    raise ValueError(f"unknown rule {rule!r}")


def word_matrix(word: str) -> Mat:
    """M_F = M_{a_1} ... M_{a_k} for the word a_1 ... a_k."""
    if not word:
        raise ValueError("empty word")
    out = rule_matrix(word[0])
    for c in word[1:]:
        out = out * rule_matrix(c)
    return out


def expected_diagonal(k: int) -> tuple[int, ...]:
    return (4 ** k, 2 ** k, (-2) ** k, (-2) ** k, 1, 1, 0, 0)


def triangularize(m: Mat) -> tuple[Mat, tuple]:
    """C^-1 M C, which must come out lower triangular; returns it with
    its diagonal.  A nonzero entry above the diagonal raises.  With D
    the common denominator of C^-1 it is computed as (D C^-1)(M C),
    in integers when M is integral, and divided exactly by D."""
    d, scaled_inv = c_inverse_scaled()
    scaled = scaled_inv * (m * C_MATRIX)
    for i, row in enumerate(scaled.rows):
        for j in range(i + 1, DIM):
            if row[j]:
                raise NotTriangular(
                    f"entry ({i},{j}) = {_divide(row[j], d)} above diagonal")
    t = Mat([[_divide(x, d) for x in row] for row in scaled.rows])
    return t, tuple(t.rows[i][i] for i in range(DIM))


@dataclass
class EigenReport:
    word: str
    k: int
    eigenvalues: tuple[int, ...]
    pf_ok: bool
    unit_vectors: tuple[tuple[int, ...], tuple[int, ...]]
    unit_ok: bool
    kernel_ok: bool
    eigenspace_dims: dict[int, int]
    diagonalizable: bool

    def lines(self) -> list[str]:
        out = [f"word: {self.word}",
               f"k: {self.k}",
               "eigenvalues: " + " ".join(str(e) for e in self.eigenvalues),
               f"pf_eigenvector: {'ok' if self.pf_ok else 'FAILED'}",
               f"unit_eigenvectors: {'ok' if self.unit_ok else 'FAILED'}",
               f"kernel_vectors: {'ok' if self.kernel_ok else 'FAILED'}"]
        for lam in sorted(self.eigenspace_dims, reverse=True):
            out.append(f"eigenspace_dim[{lam}]: {self.eigenspace_dims[lam]}")
        out.append(f"diagonalizable: {'true' if self.diagonalizable else 'false'}")
        return out


def eigen_report(word: str) -> EigenReport:
    """Verify the eigensystem of M_F exactly and report eigenspace data."""
    m = word_matrix(word)
    k = len(word)
    _, diag = triangularize(m)
    eigenvalues = expected_diagonal(k)
    if tuple(diag) != eigenvalues:
        raise NotTriangular(f"diagonal {tuple(diag)} differs from {eigenvalues}")

    pf_ok = m.vec(ONES) == tuple(x * 4 ** k for x in ONES)

    if word[0] == "+":
        units = (U_PLUS, U_PLUS_LOWER)
    else:
        units = (U_MINUS, U_MINUS_LOWER)
    unit_ok = all(m.vec(u) == u for u in units)

    zero = (0,) * DIM
    kernel_ok = m.vec(KERNEL_UPPER) == zero and m.vec(KERNEL_LOWER) == zero

    dims = {}
    for lam in sorted(set(eigenvalues), reverse=True):
        dims[lam] = DIM - m.minus_scalar_diag(lam).rank()
    diagonalizable = sum(dims.values()) == DIM

    return EigenReport(word, k, eigenvalues, pf_ok, units, unit_ok,
                       kernel_ok, dims, diagonalizable)


def density_vectors(word: str, steps: int, seed: int):
    """The exact class-density vectors M_F^n e_seed / 4^(kn) for
    n = 1..steps, in order; seed is 1..8.  M_F is built once and the
    seed column is stepped as an integer vector, M_F^n e = M_F (M_F^(n-1) e).
    Arguments are checked here, at call time, not on first iteration."""
    if not 1 <= seed <= DIM:
        raise ValueError("seed index must be 1..8")
    if steps < 0:
        raise ValueError(f"negative step count {steps}")
    return _density_steps(word_matrix(word), 4 ** len(word), steps, seed)


def _density_steps(m: Mat, growth: int, steps: int, seed: int):
    v = tuple(int(j == seed - 1) for j in range(DIM))
    scale = 1
    for _ in range(steps):
        v = m.vec(v)
        scale *= growth
        yield tuple(Fraction(x, scale) for x in v)


def density_limit(word: str, n: int, seed: int) -> tuple[Fraction, ...]:
    """Exact class-density vector M_F^n e_seed / 4^(kn); seed is 1..8."""
    vec = tuple(Fraction(int(j == seed - 1)) for j in range(DIM))  # n = 0
    for vec in density_vectors(word, n, seed):
        pass
    return vec
