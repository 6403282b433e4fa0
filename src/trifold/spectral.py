"""Exact linear algebra for the 8x8 substitution count matrices.

Everything here is rational arithmetic: matrix products, the fixed
conjugating matrix C whose columns are eigenvectors of M+, exact rank,
eigenspace dimensions, and the normalized tile-density vectors.  No
numeric eigensolver is involved; the expected eigenvalues are known
integers and every check is an equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotTriangular

DIM = 8


class Mat:
    """Dense 8x8 (or compatible) matrix over exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)

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
        return Mat([[sum(a * b for a, b in zip(row, col)) for col in cols]
                    for row in self.rows])

    def vec(self, v) -> tuple[Fraction, ...]:
        return tuple(sum(a * Fraction(b) for a, b in zip(row, v))
                     for row in self.rows)

    def minus_scalar_diag(self, lam) -> "Mat":
        lam = Fraction(lam)
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

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def rank(self) -> int:
        m = [list(row) for row in self.rows]
        n_rows, n_cols = len(m), len(m[0])
        rank = 0
        for col in range(n_cols):
            pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            pv = m[rank][col]
            for r in range(rank + 1, n_rows):
                if m[r][col]:
                    factor = m[r][col] / pv
                    for c in range(col, n_cols):
                        m[r][c] -= factor * m[rank][c]
            rank += 1
        return rank

    def inverse(self) -> "Mat":
        n = self.n
        m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
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


def triangularize(m: Mat) -> tuple[Mat, tuple[Fraction, ...]]:
    """C^-1 M C, which must come out lower triangular; returns it with
    its diagonal.  A nonzero entry above the diagonal raises."""
    t = c_inverse() * m * C_MATRIX
    for i, row in enumerate(t.rows):
        for j in range(i + 1, DIM):
            if row[j]:
                raise NotTriangular(f"entry ({i},{j}) = {row[j]} above diagonal")
    return t, tuple(t.rows[i][i] for i in range(DIM))


def _scaled_vec(v) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in v)


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

    @property
    def two_k_dimension(self) -> int | None:
        """Dimension of the 2^k eigenspace (the interesting one when k
        is even; always 2 or 3 in practice)."""
        return self.eigenspace_dims.get(2 ** self.k)

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

    pf_ok = m.vec(ONES) == _scaled_vec(x * 4 ** k for x in ONES)

    if word[0] == "+":
        units = (U_PLUS, U_PLUS_LOWER)
    else:
        units = (U_MINUS, U_MINUS_LOWER)
    unit_ok = all(m.vec(u) == _scaled_vec(u) for u in units)

    zero = _scaled_vec([0] * 8)
    kernel_ok = m.vec(KERNEL_UPPER) == zero and m.vec(KERNEL_LOWER) == zero

    dims = {}
    for lam in sorted(set(eigenvalues), reverse=True):
        dims[lam] = DIM - m.minus_scalar_diag(lam).rank()
    diagonalizable = sum(dims.values()) == DIM

    return EigenReport(word, k, eigenvalues, pf_ok, units, unit_ok,
                       kernel_ok, dims, diagonalizable)


def density_limit(word: str, n: int, seed: int) -> tuple[Fraction, ...]:
    """Exact class-density vector M_F^n e_seed / 4^(kn); seed is 1..8."""
    if not 1 <= seed <= DIM:
        raise ValueError("seed index must be 1..8")
    m = word_matrix(word).power(n)
    col = m.column(seed - 1)
    scale = Fraction(1, 4 ** (len(word) * n))
    return tuple(x * scale for x in col)
