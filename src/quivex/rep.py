"""Framed representations (B, I, J) of a doubled quiver.

Shape convention: a point of M(v, w) has one block B_a per doubled arrow,
mapping the source fiber to the target fiber on column vectors, so of shape
v_target x v_source; one block I_i : W_i -> V_i of shape v_i x w_i; and one
block J_i : V_i -> W_i of shape w_i x v_i.  ``block_shapes`` is the one
statement of this rule, and every constructor of a point reads it.
``evaluate_path`` therefore multiplies matrices right to left along a path.
Representations are immutable and every operation is a pure function.

Per-vertex maps act on a point by one side rule: a map into vertex j (B_a
with target j, and I_j) takes j's map on the left, and a map out of j (B_a
with source j, and J_j) takes it on the right; a loop takes both.  ``act``
is the one statement of this rule.  ``conjugate`` reads it with g and g^-1,
and so do ``hecke``'s reduction, extension and inclusion check with the
inclusion at one vertex.

``FramedRep.blocks`` holds a point's blocks as one table, keyed as
``block_shapes`` keys their shapes; equality, ``direct_sum``,
``formats.rep_to_json`` and the common denominator of ``homext.Complex3``
loop over it.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from math import lcm
from operator import mul

from .errors import (
    BadPathError,
    DimensionError,
    DomainError,
    InconsistentSystemError,
    NotFlatError,
    QuiverMismatchError,
)
from .quiver import DimVector, DoubledQuiver, Quiver, cb_extend_dim, cb_transform, check_vertices, double
from .ratmat import RatMatrix, hstack, inverse, vstack


@dataclass(frozen=True)
class GradedEndo:
    """One square matrix per vertex, the size of the V-fiber there."""

    blocks: Mapping[str, RatMatrix]

    @property
    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.blocks.values())


def block_shapes(dq: DoubledQuiver, dim_v: DimVector, dim_w: DimVector) -> dict[str, dict[str, tuple[int, int]]]:
    """The (rows, cols) of every block of a point of M(v, w): family "B" by
    doubled arrow in arrow order, "I" and "J" by vertex in vertex order."""
    return {
        "B": {a.name: (dim_v[a.target], dim_v[a.source]) for a in dq.arrows},
        "I": {i: (dim_v[i], dim_w[i]) for i in dq.vertices},
        "J": {i: (dim_w[i], dim_v[i]) for i in dq.vertices},
    }


def _block(given: Mapping[str, RatMatrix], family: str, key: str, shape: tuple[int, int]) -> RatMatrix:
    """The given block at its table shape, or zeros of that shape if absent."""
    if key not in given:
        return RatMatrix.zeros(*shape)
    m = given[key]
    if not isinstance(m, RatMatrix):
        raise DimensionError(f"{family}[{key!r}] is not a RatMatrix")
    if m.shape != shape:
        raise DimensionError(f"{family}[{key!r}] has shape {m.shape}, expected {shape}")
    return m


class FramedRep:
    """Matrices B per doubled arrow, I and J per vertex, over exact rationals.

    Every block is present with its ``block_shapes`` shape, including
    zero-dimensional ones; omitted blocks are materialized as zeros, and a
    family given as None has none.  A family that is not a mapping or has
    unknown keys is refused first, then blocks in arrow order, then I_i and
    J_i vertex by vertex.  ``blocks`` is the table {"B": B, "I": I, "J": J}
    of the same dicts.
    """

    def __init__(
        self,
        dq: DoubledQuiver,
        dim_v: DimVector,
        dim_w: DimVector,
        B: Mapping[str, RatMatrix] | None = None,
        I: Mapping[str, RatMatrix] | None = None,
        J: Mapping[str, RatMatrix] | None = None,
    ):
        if not isinstance(dq, (DoubledQuiver, Quiver)):
            raise DomainError(f"expected a DoubledQuiver or Quiver, got {type(dq).__name__}")
        check_vertices(dq.vertices, dim_v, dim_w)
        self.dq = dq
        self.dim_v = dim_v
        self.dim_w = dim_w
        shapes = block_shapes(dq, dim_v, dim_w)
        given = {"B": B, "I": I, "J": J}
        for family, blocks in given.items():
            if blocks is None:
                given[family] = blocks = {}
            elif not isinstance(blocks, Mapping):
                raise DimensionError(f"{family} blocks are not a mapping")
            for key in blocks:
                if key not in shapes[family]:
                    noun = "arrow" if family == "B" else "vertex"
                    raise DimensionError(f"{family} block for unknown {noun} {key!r}")
        self.B: dict[str, RatMatrix] = {a: _block(given["B"], "B", a, shape) for a, shape in shapes["B"].items()}
        self.I: dict[str, RatMatrix] = {}
        self.J: dict[str, RatMatrix] = {}
        for i in dq.vertices:
            self.I[i] = _block(given["I"], "I", i, shapes["I"][i])
            self.J[i] = _block(given["J"], "J", i, shapes["J"][i])
        self.blocks = {"B": self.B, "I": self.I, "J": self.J}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FramedRep)
            and self.dq == other.dq
            and self.dim_v == other.dim_v
            and self.dim_w == other.dim_w
            and self.blocks == other.blocks
        )

    def __repr__(self) -> str:
        return f"FramedRep(dimV={self.dim_v.values}, dimW={self.dim_w.values})"


def _moment_grid(x: FramedRep, i: str) -> tuple[list[list[int]], int]:
    """The moment map at vertex i: the integer products of its terms with no
    zero factor, summed into one grid over the lcm of their denominators."""
    dq = x.dq
    n = x.dim_v[i]
    terms = [(dq.eps(a.name), x.B[a.name], x.B[dq.bar(a.name)]) for a in dq.arrows_into(i)]
    terms.append((1, x.I[i], x.J[i]))
    terms = [(e, l, r) for e, l, r in terms if not (l.is_zero or r.is_zero)]
    den = lcm(*(l.den * r.den for _, l, r in terms))
    grid = [[0] * n for _ in range(n)]
    for e, l, r in terms:
        k = e * (den // (l.den * r.den))
        cols = list(zip(*r.nums))
        for row, l_row in zip(grid, l.nums):
            if any(l_row):
                for j, c in enumerate(cols):
                    row[j] += k * sum(map(mul, l_row, c))
    return grid, den


def moment_map(x: FramedRep) -> GradedEndo:
    """Per-vertex sum of eps(h) B_h B_hbar over arrows into the vertex, plus
    I J: each vertex's ``_moment_grid`` as one matrix in lowest terms."""
    blocks = {}
    for i in x.dq.vertices:
        grid, den = _moment_grid(x, i)
        blocks[i] = RatMatrix.from_integers(len(grid), len(grid), tuple(map(tuple, grid)), den)
    return GradedEndo(blocks)


def is_flat(x: FramedRep) -> bool:
    """Whether each vertex's ``_moment_grid`` is zero, checked up to the first
    nonzero one; no matrix is built."""
    return not any(any(map(any, _moment_grid(x, i)[0])) for i in x.dq.vertices)


def ensure_flat(x: FramedRep) -> None:
    if not is_flat(x):
        raise NotFlatError("representation does not satisfy the moment-map equations")


def simple_rep(dq: DoubledQuiver, i: str) -> FramedRep:
    """The one-dimensional representation at vertex i with all maps zero."""
    return FramedRep(dq, DimVector.unit(dq, i), DimVector.zero(dq))


def direct_sum(x: FramedRep, y: FramedRep) -> FramedRep:
    """Componentwise direct sum on both V and W, all blocks block-diagonal."""
    for z in (x, y):
        if not isinstance(z, FramedRep):
            raise DomainError(f"expected a FramedRep, got {type(z).__name__}")
    if x.dq != y.dq:
        raise QuiverMismatchError("direct sum of representations over different quivers")

    def diag(a: RatMatrix, b: RatMatrix) -> RatMatrix:
        top = hstack([a, RatMatrix.zeros(a.rows, b.cols)])
        bottom = hstack([RatMatrix.zeros(b.rows, a.cols), b])
        return vstack([top, bottom])

    blocks = {f: {k: diag(m, y.blocks[f][k]) for k, m in xf.items()} for f, xf in x.blocks.items()}
    return FramedRep(x.dq, x.dim_v + y.dim_v, x.dim_w + y.dim_w, **blocks)


def evaluate_path(x: FramedRep, path: Sequence[str], start: str | None = None) -> RatMatrix:
    """Ordered product of arrow matrices along a path given in traversal
    order; the empty path at ``start`` evaluates to the identity there."""
    if not path:
        if start is None:
            raise BadPathError("empty path needs a start vertex")
        return RatMatrix.identity(x.dim_v[start])
    arrows = [x.dq.arrow(name) for name in path]
    if start is not None and arrows[0].source != start:
        raise BadPathError(f"path starts at {arrows[0].source!r}, not {start!r}")
    for left, right in zip(arrows, arrows[1:]):
        if left.target != right.source:
            raise BadPathError(f"arrows {left.name!r} and {right.name!r} do not compose")
    product = x.B[arrows[0].name]
    for a in arrows[1:]:
        product = x.B[a.name] @ product
    return product


def act(
    x: FramedRep,
    after: Mapping[str, Callable[[RatMatrix], RatMatrix]],
    before: Mapping[str, Callable[[RatMatrix], RatMatrix]],
) -> tuple[dict[str, RatMatrix], dict[str, RatMatrix], dict[str, RatMatrix]]:
    """The blocks (B, I, J) of x with every map into vertex j passed through
    ``after[j]`` and every map out of j through ``before[j]``: B_a goes into
    its target and out of its source, I_j into j, J_j out of j.  On a loop
    ``after`` goes first.  A vertex missing from a mapping leaves its maps
    alone."""

    def keep(m: RatMatrix) -> RatMatrix:
        return m

    B = {a.name: before.get(a.source, keep)(after.get(a.target, keep)(x.B[a.name])) for a in x.dq.arrows}
    I = {j: after.get(j, keep)(x.I[j]) for j in x.dq.vertices}
    J = {j: before.get(j, keep)(x.J[j]) for j in x.dq.vertices}
    return B, I, J


def conjugate(x: FramedRep, g: Mapping[str, RatMatrix]) -> FramedRep:
    """Base change by an invertible graded map: B -> g B g^-1, I -> g I, J -> J g^-1."""
    if not isinstance(g, Mapping):
        raise DimensionError("base change is not a mapping")
    if set(g) != set(x.dq.vertices):
        raise QuiverMismatchError(
            f"base change keyed to {list(g)} where the vertices {list(x.dq.vertices)} are expected"
        )
    g = {i: _block(g, "g", i, (x.dim_v[i], x.dim_v[i])) for i in x.dq.vertices}
    after = {i: lambda m, gi=gi: gi @ m for i, gi in g.items()}
    before = {}
    for i, gi in g.items():
        try:
            gi_inv = inverse(gi)
        except InconsistentSystemError:
            raise InconsistentSystemError(f"g[{i!r}] is singular") from None
        before[i] = lambda m, gi_inv=gi_inv: m @ gi_inv
    return FramedRep(x.dq, x.dim_v, x.dim_w, *act(x, after, before))


def transpose(x: FramedRep) -> FramedRep:
    """The transposed point: B[bar(a)] -> B[a]^T, I -> J^T, J -> I^T.

    An involution whose moment map is the transpose of x's, so flatness is
    kept; it swaps the two sign-definite stability conditions.
    """
    dq = x.dq
    B = {dq.bar(a.name): x.B[a.name].transpose() for a in dq.arrows}
    I = {i: x.J[i].transpose() for i in dq.vertices}
    J = {i: x.I[i].transpose() for i in dq.vertices}
    return FramedRep(dq, x.dim_v, x.dim_w, B, I, J)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    """Entries in {-3..3}, to bound rational growth downstream, each drawn as
    CPython's ``rng.randrange(-3, 4)`` draws it, without its argument
    handling: three random bits, redrawn while they read 7 or more, minus 3."""
    bits = rng.getrandbits
    nums = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            r = bits(3)
            while r >= 7:
                r = bits(3)
            row.append(r - 3)
        nums.append(tuple(row))
    return RatMatrix.from_integers(rows, cols, tuple(nums))


def sample_flat(
    dq: DoubledQuiver,
    dim_v: DimVector,
    dim_w: DimVector,
    seed: int,
    half: str = "forward",
) -> FramedRep:
    """A seed-deterministic flat representation.

    With ``half="forward"`` the reversed-arrow matrices and all J vanish
    (random B on the base arrows, random I), so every moment-map term dies;
    ``half="reverse"`` is the mirror image with random reversed arrows and J.
    """
    if half not in ("forward", "reverse"):
        raise DomainError(f"unknown half {half!r}")
    check_vertices(dq.vertices, dim_v, dim_w)
    rng = random.Random(seed)
    shapes = block_shapes(dq, dim_v, dim_w)
    B = {
        a: _random_matrix(rng, *shape)
        for a, shape in shapes["B"].items()
        if (dq.eps(a) < 0) == (half == "reverse")
    }
    framing = "I" if half == "forward" else "J"
    live = {framing: {i: _random_matrix(rng, *shape) for i, shape in shapes[framing].items()}}
    return FramedRep(dq, dim_v, dim_w, B, **live)


def cb_apply(x: FramedRep) -> FramedRep:
    """Rewrite the framing as arrow matrices of the one-vertex-extended quiver.

    The new vertex is the one ``cb_transform`` adds, the last vertex of the
    result.  Column k of I_i becomes the matrix of the k-th new arrow into i,
    row k of J_i the matrix of its reversal; the new vertex carries a
    one-dimensional fiber and the result is unframed.  Flat inputs map to flat
    outputs, including at the new vertex, because the framing traces cancel.
    """
    q2, inf = cb_transform(x.dq.base, x.dim_w)
    dq2 = double(q2)
    dim_v2 = cb_extend_dim(x.dim_v, q2, inf)
    B: dict[str, RatMatrix] = {}
    for a in x.dq.arrows:
        B[a.name] = x.B[a.name]
    new = iter(q2.arrows[len(x.dq.base.arrows) :])  # cb_transform's arrows, by vertex i, then k
    for i in x.dq.vertices:
        for k in range(x.dim_w[i]):
            name = next(new).name
            B[name] = x.I[i].column_matrix(k)
            B[dq2.bar(name)] = RatMatrix.from_integers(1, x.dim_v[i], (x.J[i].nums[k],), x.J[i].den)
    return FramedRep(dq2, dim_v2, DimVector.zero(q2), B)
