"""Dense exact linear algebra over the rationals.

Matrices are immutable tuples of ``fractions.Fraction`` entries, all
operations are pure functions, and every echelon computation pivots on the
first nonzero entry scanning down a column with pivots normalized to 1, so
results are bit-identical across runs.  Zero-row and zero-column matrices
are legal everywhere.

Elimination and products run on integers inside, with one ``Fraction`` per
output entry.  Each row (or column) is scaled to integers by the lcm of its
denominators.  ``rref`` is fraction-free Gauss-Jordan elimination (Bareiss
1968, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22): with pivot p in the pivot row and p_prev the
pivot of the step before (1 at the first step), every other row, above and
below, becomes (p r - f r_pivot) / p_prev, f being its entry in the pivot
column.  The division is exact by Sylvester's identity, since every entry is
then a minor of the scaled matrix.  After the last step all pivots equal the
last p, and dividing each pivot row by it once gives the reduced form; the
reduced row echelon form is unique, so this is the same matrix a Fraction
elimination gives.  ``rank`` counts the pivots without that division.  A
product entry is one integer dot product over the row scale times the
column scale.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence, Union

from .errors import DimensionError, FormatError, InconsistentSystemError

Scalar = Union[int, str, Fraction]

def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational; a
    bool is not an int here."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = re.fullmatch(r"(-?[0-9]+)(?:/(-?[0-9]+))?", value)
        try:
            denominator = int(match[2] or 1) if match else 0
            numerator = int(match[1]) if match else 0
        except ValueError:  # more digits than int() converts from a string
            raise FormatError(
                f"rational literal of {len(value)} characters is over the integer digit limit"
            ) from None
        if denominator == 0:
            raise FormatError(f"bad rational literal {value!r}")
        return Fraction(numerator, denominator)
    raise FormatError(f"cannot interpret {value!r} as a rational number")


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers n and the scale d, the lcm of the denominators, with
    values[j] = n[j] / d."""
    scale = lcm(*(v.denominator for v in values))
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


class RatMatrix:
    """An immutable rows-by-cols grid of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[tuple[Fraction, ...], ...]):
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[Scalar]], cols: int | None = None) -> "RatMatrix":
        rows = len(entries)
        if rows == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, ())
        width = len(entries[0]) if cols is None else cols
        data = []
        for i, row in enumerate(entries):
            if len(row) != width:
                raise DimensionError(f"ragged matrix: row {i} has {len(row)} entries, expected {width}")
            data.append(tuple(as_fraction(v) for v in row))
        return cls(rows, width, tuple(data))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        row = (_ZERO,) * cols
        return cls(rows, cols, tuple(row for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def column(cls, values: Sequence[Scalar]) -> "RatMatrix":
        return cls(len(values), 1, tuple((as_fraction(v),) for v in values))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def column_matrix(self, j: int) -> "RatMatrix":
        return RatMatrix(self.rows, 1, tuple((r[j],) for r in self.data))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot compose {self.shape} with {other.shape}")
        if other.rows == 0:
            return RatMatrix.zeros(self.rows, other.cols)
        cols = [_integer_row(c) for c in zip(*other.data)]
        data = []
        for row in self.data:
            nums, row_scale = _integer_row(row)
            if not any(nums):
                data.append((_ZERO,) * other.cols)
                continue
            out = []
            for col_nums, col_scale in cols:
                dot = sum(map(mul, nums, col_nums))
                out.append(Fraction(dot, row_scale * col_scale) if dot else _ZERO)
            data.append(tuple(out))
        return RatMatrix(self.rows, other.cols, tuple(data))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        data = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data))
        return RatMatrix(self.rows, self.cols, data)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(tuple(-v for v in r) for r in self.data))

    def scale(self, s: Scalar) -> "RatMatrix":
        f = as_fraction(s)
        return RatMatrix(self.rows, self.cols, tuple(tuple(f * v for v in r) for r in self.data))

    def transpose(self) -> "RatMatrix":
        if self.rows == 0:
            return RatMatrix(self.cols, 0, ((),) * self.cols)
        return RatMatrix(self.cols, self.rows, tuple(zip(*self.data)))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for r in self.data for v in r)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionError(f"trace of non-square {self.shape}")
        return sum((self.data[i][i] for i in range(self.rows)), _ZERO)

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


def hstack(mats: Sequence[RatMatrix], rows: int | None = None) -> RatMatrix:
    """Concatenate matrices left to right; ``rows`` disambiguates the empty stack."""
    if not mats:
        if rows is None:
            raise DimensionError("hstack of no matrices needs an explicit row count")
        return RatMatrix.zeros(rows, 0)
    n = mats[0].rows
    for m in mats:
        if m.rows != n:
            raise DimensionError(f"hstack row mismatch: {m.rows} vs {n}")
    data = tuple(tuple(v for m in mats for v in m.data[i]) for i in range(n))
    return RatMatrix(n, sum(m.cols for m in mats), data)


def vstack(mats: Sequence[RatMatrix], cols: int | None = None) -> RatMatrix:
    if not mats:
        if cols is None:
            raise DimensionError("vstack of no matrices needs an explicit column count")
        return RatMatrix.zeros(0, cols)
    c = mats[0].cols
    for m in mats:
        if m.cols != c:
            raise DimensionError(f"vstack column mismatch: {m.cols} vs {c}")
    data = tuple(r for m in mats for r in m.data)
    return RatMatrix(sum(m.rows for m in mats), c, data)


def _integer_echelon(m: RatMatrix) -> tuple[list[list[int]], tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination of ``m`` (see the module
    docstring): the integer rows, whose pivot entries all equal the last
    pivot and whose rows past the rank are zero, and the pivot columns."""
    grid = [_integer_row(r)[0] for r in m.data]
    pivots: list[int] = []
    prev = 1
    pr = 0
    for pc in range(m.cols):
        target = next((r for r in range(pr, m.rows) if grid[r][pc]), None)
        if target is None:
            continue
        grid[pr], grid[target] = grid[target], grid[pr]
        pivot_row = grid[pr]
        p = pivot_row[pc]
        for r, row in enumerate(grid):
            if r == pr:
                continue
            f = row[pc]
            if f:
                grid[r] = [(p * a - f * b) // prev for a, b in zip(row, pivot_row)]
            elif p != prev:
                grid[r] = [p * a // prev for a in row]
        prev = p
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return grid, tuple(pivots)


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot column indices."""
    grid, pivots = _integer_echelon(m)
    last = grid[len(pivots) - 1][pivots[-1]] if pivots else 1
    data = tuple(tuple(Fraction(a, last) if a else _ZERO for a in row) for row in grid)
    return RatMatrix(m.rows, m.cols, data), pivots


def rank(m: RatMatrix) -> int:
    return len(_integer_echelon(m)[1])


def kernel_basis(m: RatMatrix) -> list[RatMatrix]:
    """Canonical right-null-space basis: one column per free column of the
    reduced echelon form, free columns taken in ascending index order."""
    return kernel_from_echelon(*rref(m))


def kernel_from_echelon(reduced: RatMatrix, pivots: tuple[int, ...]) -> list[RatMatrix]:
    """``kernel_basis`` of a matrix, read off its ``rref`` output."""
    pivot_set = set(pivots)
    basis = []
    for free in range(reduced.cols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * reduced.cols
        vec[free] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced.data[r][free]
        basis.append(RatMatrix.column(vec))
    return basis


def column_space_echelon(m: RatMatrix) -> RatMatrix:
    """Canonical ordered basis of the column space, as the columns of one
    matrix: the nonzero rows of the row echelon form of the transpose."""
    reduced, pivots = rref(m.transpose())
    cols = [RatMatrix.column(reduced.row(i)) for i in range(len(pivots))]
    return hstack(cols, rows=m.rows)


def solve_exact(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The canonical solution of ``a @ x = b`` (free coordinates set to 0)."""
    if a.rows != b.rows:
        raise DimensionError(f"solve: {a.shape} against rhs {b.shape}")
    reduced, pivots = rref(hstack([a, b]))
    for i in range(len(pivots)):
        if pivots[i] >= a.cols:
            raise InconsistentSystemError("linear system has no exact solution")
    sol = [[_ZERO] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        sol[pc] = list(reduced.data[r][a.cols:])
    return RatMatrix(a.cols, b.cols, tuple(tuple(r) for r in sol))


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise DimensionError(f"inverse of non-square {m.shape}")
    inv = solve_exact(m, RatMatrix.identity(m.rows))
    if not (m @ inv == RatMatrix.identity(m.rows)):
        raise InconsistentSystemError("matrix is singular")
    return inv
