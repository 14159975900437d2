"""The three-term complex computing Hom and Ext^1 between framed
representations x1 and x2, materialized as two explicit block matrices.

The ends are the graded maps xi = (xi_i: V1_i -> V2_i).  For every arrow
a: s -> t of the doubled quiver, with B1, I1, J1 the maps of x1 and B2, I2,
J2 those of x2,

* alpha(xi) = (xi_t B1_a - B2_a xi_s per arrow; xi_i I1_i; -J2_i xi_i),
* beta(C, D, E)_i = sum over arrows a into i of
  eps(a) (B2_a C_bar(a) + C_a B1_bar(a)), plus I2_i E_i + D_i J1_i.

One ``BlockLayout`` serves both terms: a fixed sequence of named blocks,
each vectorized row-major, so entry (r, c) of a block with n columns sits at
its offset plus r*n + c.  The ends hold one xi_i block per vertex in vertex
order.  Block order in the middle term is canonical: arrow blocks in
doubled-quiver declared order, then the W1->V2 blocks by vertex order, then
the V1->W2 blocks.  The middle layout is what cocycle files and the
reduce/extend machinery decode against.

Row-major vectorization makes every term one-sided, and each one adds
integers into a zero grid over one denominator, the lcm of those of the
maps, with no Kronecker product and no identity matrix.  For X with n
columns, X -> M X is (M kron 1_n): each nonzero entry of M runs down a
stride-n diagonal.  For X with n rows, X -> X M is (1_n kron M^T): one copy
of M^T per row of X, down the block diagonal.  The terms xi B1_a, xi I1,
C_a B1_bar(a) and D J1 are right placements; B2_a xi, J2 xi, B2_a C_bar(a)
and I2 E are left ones, signed as above.  Blocks add rather than being
placed: on a loop arrow (s = t) the two alpha blocks land on the same
entries, and in beta a loop and its reverse each write into the other's
columns.

Each matrix is assembled on first use and goes through the forward pass of
elimination at most once.  The dimensions come from the two ranks, the
pivot counts of those passes, by rank-nullity: hom = ends - rank alpha,
cohom = ends - rank beta, ext1 = middle - rank beta - rank alpha.  Only
kernel vectors back-substitute the stored rows: ``hom_basis`` (the kernel
of alpha), ``kernel_beta`` and ``ext1_reps``.  On a flat pair the columns of
alpha lie in Ker beta, whose vectors are fixed by their entries at the free
columns of beta, their coordinates on ``kernel_beta``.  So cocycles are
independent modulo the coboundaries where the rows of [alpha | cocycles] at
those columns have pivots past alpha.  ``ext1_reps`` reads the same rule
off the last nonzero coordinates of the coboundaries: it eliminates the
rows of alpha at those columns, transposed, never alpha itself, and builds
only the kernel vectors it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

from .errors import DimensionError, QuiverMismatchError
from .quiver import DimVector, DoubledQuiver, chi as chi_formula
from .ratmat import Echelon, RatMatrix, _echelon, free_columns, kernel_vectors, pivot_columns
from .rep import FramedRep, is_flat


class BlockLayout:
    """Packing and unpacking of named blocks to flat column vectors, one
    (kind, key, rows, cols) shape per block, each row-major at its offset."""

    def __init__(self, shapes: Iterable[tuple[str, str, int, int]]):
        self.shapes = tuple(shapes)
        self.offsets: dict[tuple[str, str], int] = {}
        pos = 0
        for kind, key, r, c in self.shapes:
            self.offsets[kind, key] = pos
            pos += r * c
        self.dim = pos

    @classmethod
    def middle(
        cls, dq: DoubledQuiver, v1: DimVector, w1: DimVector, v2: DimVector, w2: DimVector
    ) -> "BlockLayout":
        """The middle layout of the complex from (v1, w1) to (v2, w2); it
        depends on the dimensions alone."""
        shapes = [("arrow", a.name, v2[a.target], v1[a.source]) for a in dq.arrows]
        shapes += [("I", i, v2[i], w1[i]) for i in dq.vertices]
        shapes += [("J", i, w2[i], v1[i]) for i in dq.vertices]
        return cls(shapes)

    @classmethod
    def ends(cls, dq: DoubledQuiver, v1: DimVector, v2: DimVector) -> "BlockLayout":
        """The layout of the graded maps xi_i: V1_i -> V2_i, kind "xi"."""
        return cls(("xi", i, v2[i], v1[i]) for i in dq.vertices)

    def pack(self, **blocks_by_kind: Mapping[str, RatMatrix]) -> RatMatrix:
        """The vector holding the given blocks; absent blocks are zero."""
        for kind, blocks in blocks_by_kind.items():
            for key, block in blocks.items():
                if not isinstance(block, RatMatrix):
                    raise DimensionError(f"{kind} block {key!r} is not a RatMatrix")
                if (kind, key) not in self.offsets:
                    raise DimensionError(f"no {kind} block {key!r} in this layout")
        den = lcm(*(m.den for blocks in blocks_by_kind.values() for m in blocks.values()))
        values = []
        for kind, key, r, c in self.shapes:
            block = blocks_by_kind.get(kind, {}).get(key)
            if block is None:
                values.extend([(0,)] * (r * c))
                continue
            if block.shape != (r, c):
                raise DimensionError(
                    f"{kind} block {key!r} has shape {block.shape}, "
                    f"expected {(r, c)}"
                )
            values.extend((a * (den // block.den),) for row in block.nums for a in row)
        return RatMatrix.from_integers(self.dim, 1, tuple(values), den)

    def unpack(self, vec: RatMatrix) -> dict[str, dict[str, RatMatrix]]:
        """Every block of ``vec``, keyed by kind and then by key."""
        if not isinstance(vec, RatMatrix):
            raise DimensionError("block vector is not a RatMatrix")
        if vec.shape != (self.dim, 1):
            raise DimensionError(f"block vector has shape {vec.shape}, expected ({self.dim}, 1)")
        flat = [row[0] for row in vec.nums]
        blocks: dict[str, dict[str, RatMatrix]] = {}
        for kind, key, r, c in self.shapes:
            pos = self.offsets[kind, key]
            nums = tuple(
                tuple(flat[pos + k * c : pos + (k + 1) * c])
                for k in range(r)
            )
            block = RatMatrix.from_integers(r, c, nums, vec.den)
            blocks.setdefault(kind, {})[key] = block
        return blocks

    def descriptor(self) -> list[list]:
        return [list(shape) for shape in self.shapes]


def _add_left(grid: list[list[int]], row0: int, col0: int, scale: int, m: RatMatrix, n: int) -> None:
    """Add scale * (m kron 1_n), the matrix of X -> scale * m X for X with n
    columns, into ``grid`` at (row0, col0); m.den divides scale."""
    for i, m_row in enumerate(m.nums):
        for j, a in enumerate(m_row):
            if a:
                a = a * scale // m.den
                r, c = row0 + i * n, col0 + j * n
                for k in range(n):
                    grid[r + k][c + k] += a


def _add_right(grid: list[list[int]], row0: int, col0: int, scale: int, n: int, m: RatMatrix) -> None:
    """Add scale * (1_n kron m^T), the matrix of X -> scale * X m for X with n
    rows, into ``grid`` at (row0, col0); m.den divides scale."""
    p, q = m.rows, m.cols
    for j, m_row in enumerate(m.nums):
        for l, a in enumerate(m_row):
            if a:
                a = a * scale // m.den
                for k in range(n):
                    grid[row0 + k * q + l][col0 + k * p + j] += a


class Complex3:
    """alpha and beta of the complex for a pair of framed representations.

    The cohomological readings (Hom, Ext^1, dual Hom) are valid only when
    both inputs are flat; the matrix ranks themselves are computed
    unconditionally.  ``ext1_reps`` and ``independent_mod_coboundaries``
    assume a flat pair unchecked.  Each matrix is assembled on first use.
    """

    def __init__(self, x1: FramedRep, x2: FramedRep):
        if x1.dq != x2.dq:
            raise QuiverMismatchError("complex over two different quivers")
        self.x1 = x1
        self.x2 = x2
        dq = x1.dq
        self.middle = BlockLayout.middle(dq, x1.dim_v, x1.dim_w, x2.dim_v, x2.dim_w)
        self.ends = BlockLayout.ends(dq, x1.dim_v, x2.dim_v)
        self.den = lcm(*(m.den for x in (x1, x2) for f in (x.B, x.I, x.J) for m in f.values()))

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.ends.dim, self.middle.dim, self.ends.dim)

    @cached_property
    def alpha(self) -> RatMatrix:
        x1, x2, dq, den = self.x1, self.x2, self.x1.dq, self.den
        v1, v2 = x1.dim_v, x2.dim_v
        rows, cols = self.middle.offsets, self.ends.offsets
        grid = [[0] * self.ends.dim for _ in range(self.middle.dim)]
        for a in dq.arrows:
            r0 = rows["arrow", a.name]
            _add_right(grid, r0, cols["xi", a.target], den, v2[a.target], x1.B[a.name])
            _add_left(grid, r0, cols["xi", a.source], -den, x2.B[a.name], v1[a.source])
        for i in dq.vertices:
            _add_right(grid, rows["I", i], cols["xi", i], den, v2[i], x1.I[i])
            _add_left(grid, rows["J", i], cols["xi", i], -den, x2.J[i], v1[i])
        return RatMatrix.from_integers(self.middle.dim, self.ends.dim, tuple(map(tuple, grid)), den)

    @cached_property
    def beta(self) -> RatMatrix:
        x1, x2, dq, den = self.x1, self.x2, self.x1.dq, self.den
        v1, v2 = x1.dim_v, x2.dim_v
        rows, cols = self.ends.offsets, self.middle.offsets
        grid = [[0] * self.middle.dim for _ in range(self.ends.dim)]
        for i in dq.vertices:
            r0 = rows["xi", i]
            for a in dq.arrows_into(i):
                scale, bar = dq.eps(a.name) * den, dq.bar(a.name)
                _add_left(grid, r0, cols["arrow", bar], scale, x2.B[a.name], v1[i])
                _add_right(grid, r0, cols["arrow", a.name], scale, v2[i], x1.B[bar])
            _add_left(grid, r0, cols["J", i], den, x2.I[i], v1[i])
            _add_right(grid, r0, cols["I", i], den, v2[i], x1.J[i])
        return RatMatrix.from_integers(self.ends.dim, self.middle.dim, tuple(map(tuple, grid)), den)

    @cached_property
    def _alpha_echelon(self) -> Echelon:
        return _echelon(self.alpha)

    @cached_property
    def _beta_echelon(self) -> Echelon:
        return _echelon(self.beta)

    @property
    def rank_alpha(self) -> int:
        return len(self._alpha_echelon)

    @property
    def rank_beta(self) -> int:
        return len(self._beta_echelon)

    @cached_property
    def kernel_alpha(self) -> list[RatMatrix]:
        echelon, cols = self._alpha_echelon, self.ends.dim
        return kernel_vectors(echelon, cols, free_columns(echelon, cols))

    @cached_property
    def kernel_beta(self) -> list[RatMatrix]:
        echelon, cols = self._beta_echelon, self.middle.dim
        return kernel_vectors(echelon, cols, free_columns(echelon, cols))

    def hom_dim(self) -> int:
        return self.ends.dim - self.rank_alpha

    def ext1_dim(self) -> int:
        return self.middle.dim - self.rank_beta - self.rank_alpha

    def cohom_dim(self) -> int:
        return self.ends.dim - self.rank_beta

    def hom_basis(self) -> list[dict[str, RatMatrix]]:
        return [self.ends.unpack(v)["xi"] for v in self.kernel_alpha]

    def independent_mod_coboundaries(self, cocycles: list[RatMatrix]) -> list[int]:
        """The indices of the cocycles outside the span of the coboundaries
        and of the cocycles before them, read on the free columns of beta."""
        if not isinstance(cocycles, (list, tuple)):
            raise DimensionError("cocycles are not a list")
        for k, vec in enumerate(cocycles):
            if not isinstance(vec, RatMatrix):
                raise DimensionError(f"cocycle {k} is not a RatMatrix")
            if vec.shape != (self.middle.dim, 1):
                raise DimensionError(f"cocycle {k} has shape {vec.shape}, expected ({self.middle.dim}, 1)")
        free = free_columns(self._beta_echelon, self.middle.dim)
        n, mats = self.alpha.cols, (self.alpha, *cocycles)
        # each column stands over its matrix's den, a scaling that keeps the pivots
        nums = tuple(tuple([a for m in mats for a in m.nums[r]]) for r in free)
        pivots = pivot_columns(RatMatrix.from_integers(len(free), n + len(cocycles), nums))
        return [j - n for j in pivots if j >= n]

    def ext1_reps(self) -> list[RatMatrix]:
        """Deterministic cocycle representatives: the ``kernel_beta`` vectors
        independent modulo the coboundaries and the ones before them, the
        rule of ``independent_mod_coboundaries``.

        Vector k of ``kernel_beta`` has coordinates e_k on that basis, and a
        coboundary has as coordinates its entries at the free columns of
        beta.  Vector k is dropped exactly when e_k lies in the span of the
        coboundaries and of e_1, ..., e_(k-1), that is, when some coboundary
        has its last nonzero coordinate at k.  The last nonzero coordinates
        that occur in a span are the pivot columns of a spanning set written
        as rows, coordinates taken last to first.  So one elimination of the
        rows of alpha at the free columns, transposed, the last free column
        first (alpha.cols x free), selects the vectors, and only those are
        built."""
        free = free_columns(self._beta_echelon, self.middle.dim)
        last_first, n = free[::-1], self.alpha.cols
        # over den 1 rather than alpha's, a scaling that keeps the pivots
        nums = tuple(zip(*[self.alpha.nums[f] for f in last_first])) if free else ((),) * n
        pivots = pivot_columns(RatMatrix.from_integers(n, len(free), nums))
        dropped = {last_first[p] for p in pivots}
        return kernel_vectors(self._beta_echelon, self.middle.dim, [f for f in free if f not in dropped])

    def euler(self) -> EulerCheck:
        """ext1 - hom - cohom against the signed dimension count; the two
        always agree by rank-nullity, so a mismatch flags an internal bug."""
        x1, x2 = self.x1, self.x2
        computed = self.ext1_dim() - self.hom_dim() - self.cohom_dim()
        formula = chi_formula(x1.dq.base, x1.dim_v, x1.dim_w, x2.dim_v, x2.dim_w)
        return EulerCheck(computed, formula)


def build_complex(x1: FramedRep, x2: FramedRep) -> Complex3:
    """The complex from x1 to x2; ask it every Hom/Ext question on the pair."""
    return Complex3(x1, x2)


@dataclass(frozen=True)
class EulerCheck:
    computed: int
    formula: int

    @property
    def equal(self) -> bool:
        return self.computed == self.formula


def hom_ext_report(x1: FramedRep, x2: FramedRep) -> dict:
    """Everything the hom-ext CLI emits, including the duality cross-checks."""
    c12 = build_complex(x1, x2)
    c21 = build_complex(x2, x1)
    euler = c12.euler()
    return {
        "hom": c12.hom_dim(),
        "ext1": c12.ext1_dim(),
        "cohom": c12.cohom_dim(),
        "chi": euler.formula,
        "complex_dims": list(c12.dims),
        "duality_ok": c12.cohom_dim() == c21.hom_dim() and c21.cohom_dim() == c12.hom_dim(),
        "euler_ok": euler.equal,
        "ext1_symmetric": c12.ext1_dim() == c21.ext1_dim(),
        "flat": [is_flat(x1), is_flat(x2)],
    }
