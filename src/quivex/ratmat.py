"""Exact linear algebra over the rationals.

A matrix is stored in one form: integer rows ``nums`` over one positive
denominator ``den``, in lowest terms (gcd(den, every entry) = 1, so a zero
matrix has den 1).  The form is canonical, so ``==`` and ``hash`` compare
it; ``data``, ``row`` and ``m[i, j]`` build ``Fraction``s when read.
Matrices are immutable, operations are pure, and every result is
bit-identical across runs.  Zero-row and zero-column matrices are legal
everywhere.

Every operation works on the integers: a product entry is one integer dot
product over den1 * den2; sums and stacks work over the lcm of the
denominators.  Elimination has one kernel, ``_echelon``, the forward pass:
sparse rows kept primitive, updated only where the pivot column hits them.
``pivot_columns`` and ``rank`` read its pivots alone.  ``_back_substitute``
reduces its rows above the pivots; ``rref`` puts the reduced rows over one
denominator, and ``kernel_vectors`` and ``kernel_rows`` scatter them into
kernel vectors, one matrix per vector or all of them as the rows of one.  So
``rref``, ``kernel_basis`` and ``homext.Complex3`` share one forward pass
and one back-substitution, and each caller stops at the depth it reads: a
stability verdict stops at the forward pass (``_echelon_rows``).  The pivot
columns and the reduced form are those of any exact elimination.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Sequence, Union

from .errors import DimensionError, FormatError, InconsistentSystemError, InternalCheckError

Scalar = Union[int, str, Fraction]
IntRows = tuple[tuple[int, ...], ...]
# (pivot column, primitive row {column: nonzero int}) pairs in pivot order
Echelon = list[tuple[int, dict[int, int]]]

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


def _scaled(nums: IntRows, k: int) -> IntRows:
    return nums if k == 1 else tuple(tuple([a * k for a in r]) for r in nums)


@dataclass(init=False, repr=False, unsafe_hash=True, slots=True)
class RatMatrix:
    """An immutable grid of exact rationals: integer rows ``nums`` over the
    positive ``den``, in lowest terms; ``==`` and ``hash`` compare the fields."""

    rows: int
    cols: int
    nums: IntRows
    den: int

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[Scalar]]):
        if len(data) != rows:
            raise DimensionError(f"matrix has {len(data)} rows, expected {rows}")
        for i, row in enumerate(data):
            if len(row) != cols:
                raise DimensionError(f"ragged matrix: row {i} has {len(row)} entries, expected {cols}")
        values = [[as_fraction(v) for v in r] for r in data]
        # over the lcm of lowest-terms denominators the entries share no factor with it
        den = lcm(*(v.denominator for r in values for v in r))
        self.rows, self.cols, self.den = rows, cols, den
        self.nums = tuple(tuple(v.numerator * (den // v.denominator) for v in r) for r in values)

    @classmethod
    def from_integers(cls, rows: int, cols: int, nums: IntRows, den: int = 1) -> "RatMatrix":
        """The matrix nums / den (den nonzero), brought to lowest terms."""
        g = 1 if den == 1 else gcd(den, *chain.from_iterable(nums)) * (1 if den > 0 else -1)
        if g != 1 and cols:
            flat = iter([a // g for a in chain.from_iterable(nums)])
            nums = tuple(zip(*[flat] * cols))  # consecutive runs of cols entries
        m = cls.__new__(cls)
        m.rows, m.cols, m.nums, m.den = rows, cols, nums, den // g
        return m

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[Scalar]], cols: int | None = None) -> "RatMatrix":
        width = cols if cols is not None else len(entries[0]) if entries else 0
        return cls(len(entries), width, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls.from_integers(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_integers(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def column(cls, values: Sequence[Scalar]) -> "RatMatrix":
        return cls(len(values), 1, [(v,) for v in values])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(self.row, range(self.rows)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.nums[i][j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums[i])

    def column_matrix(self, j: int) -> "RatMatrix":
        return RatMatrix.from_integers(self.rows, 1, tuple([(r[j],) for r in self.nums]), self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot compose {self.shape} with {other.shape}")
        if other.rows == 0:
            return RatMatrix.zeros(self.rows, other.cols)
        cols = list(zip(*other.nums))
        zero = (0,) * other.cols
        nums = tuple(tuple(sum(map(mul, r, c)) for c in cols) if any(r) else zero for r in self.nums)
        return RatMatrix.from_integers(self.rows, other.cols, nums, self.den * other.den)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        den = lcm(self.den, other.den)
        pairs = zip(_scaled(self.nums, den // self.den), _scaled(other.nums, den // other.den))
        nums = tuple(tuple(map(add, r1, r2)) for r1, r2 in pairs)
        return RatMatrix.from_integers(self.rows, self.cols, nums, den)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def scale(self, s: Scalar) -> "RatMatrix":
        f = as_fraction(s)
        nums = _scaled(self.nums, f.numerator)
        return RatMatrix.from_integers(self.rows, self.cols, nums, self.den * f.denominator)

    def transpose(self) -> "RatMatrix":
        nums = tuple(zip(*self.nums)) if self.rows else ((),) * self.cols
        return RatMatrix.from_integers(self.cols, self.rows, nums, self.den)

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionError(f"trace of non-square {self.shape}")
        return Fraction(sum(self.nums[i][i] for i in range(self.rows)), self.den)

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
    den = lcm(*(m.den for m in mats))
    scales = [(m.nums, den // m.den) for m in mats]
    nums = tuple(tuple([a * k for rows, k in scales for a in rows[i]]) for i in range(n))
    return RatMatrix.from_integers(n, sum(m.cols for m in mats), nums, den)


def vstack(mats: Sequence[RatMatrix], cols: int | None = None) -> RatMatrix:
    if not mats:
        if cols is None:
            raise DimensionError("vstack of no matrices needs an explicit column count")
        return RatMatrix.zeros(0, cols)
    c = mats[0].cols
    for m in mats:
        if m.cols != c:
            raise DimensionError(f"vstack column mismatch: {m.cols} vs {c}")
    den = lcm(*(m.den for m in mats))
    nums = tuple(chain.from_iterable(_scaled(m.nums, den // m.den) for m in mats))
    return RatMatrix.from_integers(sum(m.rows for m in mats), c, nums, den)


def _echelon(m: RatMatrix) -> Echelon:
    """Row echelon form of ``m``: (pivot column, row) pairs in pivot order,
    each row a primitive ``{column: nonzero int}``.

    Columns are taken left to right.  A live row's first nonzero column is
    never left of the current one, so the live rows wait in buckets by that
    column, and the current column's bucket holds exactly the rows with a
    nonzero entry there.  The shortest of them is the pivot row; every other
    one, with f its entry and p the pivot, becomes (p/g) r - (f/g) pivot,
    g = gcd(p, f) taken with the sign of p, is divided by its content and
    goes to the bucket of its new first column, or is dropped if zero.  No
    other row is touched, and nothing above the pivot is reduced.

    A live row past k pivots lies in the span of k + 1 rows of ``m`` and
    vanishes on the k pivot columns, which fixes it up to scale: it is a
    multiple of the vector of (k+1)-minors of those rows on the pivot
    columns and one more.  So a primitive row has entries within the
    Hadamard bound, as in Bareiss's fraction-free elimination, with no
    division across rows.  The pivot columns are where the rank of the
    leading columns rises, so they are those of any elimination, whichever
    row is the pivot.  A zero matrix and a one-row one return before any
    bucket is scanned."""
    if m.is_zero:
        return []
    buckets: list[list[dict[int, int]]] = [[] for _ in range(m.cols)]
    for r in m.nums:
        g = gcd(*r)
        if g > 1:
            r = [a // g for a in r]
        if g:
            row = dict(compress(enumerate(r), r))
            if m.rows == 1:
                return [(next(iter(row)), row)]
            buckets[next(iter(row))].append(row)
    echelon = []
    last = m.cols - 1
    for pc, hits in enumerate(buckets):
        if not hits:
            continue
        if len(hits) == 1 or pc == last:
            echelon.append((pc, hits[0]))  # in the last column the other rows can only cancel
            continue
        pivot = min(hits, key=len)
        p = pivot[pc]
        for row in hits:
            if row is pivot:
                continue
            f = row[pc]
            g = gcd(p, f) if p > 0 else -gcd(p, f)
            a, b = p // g, f // g
            new = row if a == 1 else {j: a * x for j, x in row.items()}
            for j, y in pivot.items():
                x = new.get(j, 0) - b * y
                if x:
                    new[j] = x
                else:
                    del new[j]
            if new:
                g = gcd(*new.values())
                if g != 1:
                    new = {j: x // g for j, x in new.items()}
                buckets[min(new)].append(new)
        echelon.append((pc, pivot))
    return echelon


def _back_substitute(echelon: Echelon, cols: int) -> dict[int, dict[int, int]]:
    """The reduced echelon rows of a matrix with ``cols`` columns, from its
    ``_echelon`` rows: ``{pivot column: primitive row}``, each row zero at
    every other pivot column.  A pivot right of the last free column has a
    unit row, which is left out.

    The rows are reduced last to first.  Right of the last free column every
    column is a pivot one, so a row just drops its entries there.  A row r
    with entries f_c at other later pivot columns c loses them all at once:
    with N_c the reduced row of pivot p_c and L the lcm of those p_c, it
    becomes L r - sum (L f_c / p_c) N_c, divided by its content.  The RREF
    is unique, so these are the rows of any exact elimination, up to scale."""
    last_free = cols - 1
    for pc, _ in reversed(echelon):  # the pivots rise, so the last ones end the run
        if pc != last_free:
            break
        last_free -= 1
    reduced: dict[int, dict[int, int]] = {}
    for pc, row in reversed(echelon):
        if pc > last_free:
            continue
        hits = row.keys() & reduced.keys()
        if hits or max(row) > last_free:
            scale = lcm(*[reduced[c][c] for c in hits])
            new = {j: scale * x for j, x in row.items() if j <= last_free}
            for c in hits:
                b = scale // reduced[c][c] * row[c]
                for j, y in reduced[c].items():
                    x = new.get(j, 0) - b * y
                    if x:
                        new[j] = x
                    else:
                        del new[j]
            g = gcd(*new.values())
            row = new if g == 1 else {j: x // g for j, x in new.items()}
        reduced[pc] = row
    return reduced


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot column indices: the
    ``_back_substitute`` rows, each over the lcm of the pivots, scaled by
    that lcm over its own (signed) pivot."""
    echelon = _echelon(m)
    if not echelon:
        return m, ()
    pivots = tuple([pc for pc, _ in echelon])
    if m.rows == 1:
        return RatMatrix.from_integers(1, m.cols, m.nums, m.nums[0][pivots[0]]), pivots
    reduced = _back_substitute(echelon, m.cols)
    den = lcm(*[row[pc] for pc, row in reduced.items()])
    cols = range(m.cols)
    nums = []
    for pc in pivots:
        row = reduced.get(pc)
        if row is None:
            nums.append((0,) * pc + (den,) + (0,) * (m.cols - pc - 1))
            continue
        entries = map(row.get, cols, repeat(0))
        s = den // row[pc]
        nums.append(tuple(entries if s == 1 else map(mul, entries, repeat(s))))
    nums += [(0,) * m.cols] * (m.rows - len(pivots))
    return RatMatrix.from_integers(m.rows, m.cols, tuple(nums), den), pivots


def pivot_columns(m: RatMatrix) -> tuple[int, ...]:
    """The pivot columns of ``rref(m)``, by elimination below the pivots only."""
    return tuple([pc for pc, _ in _echelon(m)])


def rank(m: RatMatrix) -> int:
    return len(pivot_columns(m))


def free_columns(echelon: Echelon, cols: int) -> list[int]:
    """The columns, in ascending order, that are not pivot columns of ``echelon``."""
    pivots = {pc for pc, _ in echelon}
    return [j for j in range(cols) if j not in pivots]


def kernel_basis(m: RatMatrix) -> list[RatMatrix]:
    """Canonical right-null-space basis: one column per free column of the
    reduced echelon form, free columns taken in ascending index order."""
    echelon = _echelon(m)
    return kernel_vectors(echelon, m.cols, free_columns(echelon, m.cols))


def kernel_rows(m: RatMatrix) -> RatMatrix:
    """The ``kernel_basis(m)`` vectors as the rows of one matrix, over the
    lcm of every pivot that reaches one of them."""
    echelon = _echelon(m)
    hits = _kernel_hits(echelon, m.cols, free_columns(echelon, m.cols))
    den = lcm(*[p for hit in hits.values() for _, p, _ in hit])
    nums = []
    for f, hit in hits.items():
        vec = [0] * m.cols
        vec[f] = den
        for pc, p, x in hit:
            vec[pc] = -x * (den // p)
        nums.append(tuple(vec))
    return RatMatrix.from_integers(len(nums), m.cols, tuple(nums), den)


def kernel_vectors(echelon: Echelon, cols: int, free: Sequence[int]) -> list[RatMatrix]:
    """The ``kernel_basis`` vectors at the free columns ``free`` of a matrix
    with ``cols`` columns and ``_echelon`` rows ``echelon``, each over the
    lcm of the pivots that reach it."""
    basis = []
    for f, hit in _kernel_hits(echelon, cols, free).items():
        den = lcm(*[p for _, p, _ in hit])
        vec = [(0,)] * cols
        vec[f] = (den,)
        for pc, p, x in hit:
            vec[pc] = (-x * (den // p),)
        basis.append(RatMatrix.from_integers(cols, 1, tuple(vec), den))
    return basis


def _kernel_hits(echelon: Echelon, cols: int, free: Sequence[int]) -> dict[int, list[tuple[int, int, int]]]:
    """For each free column f, the (pivot column c, R_c[c], R_c[f]) of the
    reduced rows R_c nonzero at f.  The kernel vector of f is 1 at f, 0 at
    every other free column and -R_c[f] / R_c[c] at each c, so building the
    vectors costs the nonzeros of the reduced rows."""
    hits: dict[int, list[tuple[int, int, int]]] = {f: [] for f in free}
    if hits:
        for pc, row in _back_substitute(echelon, cols).items():
            p = row[pc]
            for j, x in row.items():
                hit = hits.get(j)
                if hit is not None:
                    hit.append((pc, p, x))
    return hits


def _row_basis(m: RatMatrix) -> RatMatrix:
    """Canonical ordered basis of the row space, as the rows of one matrix:
    the nonzero rows of ``rref(m)``."""
    reduced, pivots = rref(m)
    return RatMatrix.from_integers(len(pivots), m.cols, reduced.nums[: len(pivots)], reduced.den)


def _echelon_rows(m: RatMatrix) -> RatMatrix:
    """A basis of the row space: the ``_echelon`` rows, as one den-1 matrix."""
    cols = range(m.cols)
    nums = tuple([tuple(map(row.get, cols, repeat(0))) for _, row in _echelon(m)])
    return RatMatrix.from_integers(len(nums), m.cols, nums)


def column_space_echelon(m: RatMatrix) -> RatMatrix:
    """Canonical ordered basis of the column space, as the columns of one
    matrix: the transposed ``_row_basis`` of the transpose."""
    return _row_basis(m.transpose()).transpose()


def solve_exact(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The canonical solution of ``a @ x = b`` (free coordinates set to 0)."""
    if a.rows != b.rows:
        raise DimensionError(f"solve: {a.shape} against rhs {b.shape}")
    reduced, pivots = rref(hstack([a, b]))
    if any(pc >= a.cols for pc in pivots):
        raise InconsistentSystemError("linear system has no exact solution")
    sol = [(0,) * b.cols] * a.cols
    for r, pc in enumerate(pivots):
        sol[pc] = reduced.nums[r][a.cols :]
    return RatMatrix.from_integers(a.cols, b.cols, tuple(sol), reduced.den)


def inverse(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise DimensionError(f"inverse of non-square {m.shape}")
    identity = RatMatrix.identity(m.rows)
    try:
        inv = solve_exact(m, identity)
    except InconsistentSystemError:
        # m @ X = I has an exact solution exactly when m is invertible
        raise InconsistentSystemError("matrix is singular") from None
    if not (m @ inv == identity):
        raise InternalCheckError("inverse: m @ m^-1 is not the identity")
    return inv
