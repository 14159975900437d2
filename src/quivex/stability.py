"""Sign-definite stability for framed representations.

One increasing fixed point, ``_invariant_rows``, decides both signs: the
smallest graded row space holding the rows of J and closed under
R_j -> R_j B_a for every arrow a: i -> j.  It annihilates the largest
invariant subspace inside Ker J, so for an all-positive parameter a flat
point is stable exactly when every block has full rank.  On the transposed
point it is the transpose of the smallest invariant subspace over Im I,
which decides an all-negative parameter; only that side transposes.  Each
block is a basis of its span, the forward-pass rows of one elimination, so
the verdict reads ranks only and makes no back-substitution; the witness
subspace, in canonical echelon form, is built on first read.
Mixed-sign parameters would require quantifying over invariant subspaces of
every dimension vector and are rejected as unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import QuiverMismatchError, UnsupportedZetaError
from .quiver import DimVector, ZetaParam
from .ratmat import RatMatrix, _echelon_rows, _row_basis, kernel_rows, vstack
from .rep import FramedRep, ensure_flat, transpose
from . import homext


@dataclass(frozen=True)
class GradedSubspace:
    """An echelon column basis of a subspace of the V-fiber at each vertex."""

    blocks: dict[str, RatMatrix]

    def dims(self) -> dict[str, int]:
        return {v: m.cols for v, m in self.blocks.items()}

    def total(self) -> int:
        return sum(m.cols for m in self.blocks.values())

    def is_zero(self) -> bool:
        return self.total() == 0

    def equals_ambient(self, dim_v: DimVector) -> bool:
        return all(m.cols == dim_v[v] for v, m in self.blocks.items())


def _invariant_rows(x: FramedRep) -> dict[str, RatMatrix]:
    """The fixed point at each vertex as the ``_echelon`` rows of the stacked
    pieces: a basis of its span, not reduced.  Passes run over the vertices
    in order and recompute the stale ones: at first every vertex with an
    arrow out, later a vertex only when an arrow target grew after its last
    recomputation, so a loop arrow keeps a grown vertex stale.  A span only
    grows, so its row count tells whether it grew; the spans are the
    smallest closed ones, so they do not depend on the order of the updates."""
    dq = x.dq
    rows = {i: _echelon_rows(x.J[i]) for i in dq.vertices}
    stale = {a.source for a in dq.arrows}
    while stale:
        for i in dq.vertices:
            if i not in stale:
                continue
            stale.discard(i)
            pieces = [rows[i]] + [rows[a.target] @ x.B[a.name] for a in dq.arrows_out_of(i)]
            new = _echelon_rows(vstack(pieces, cols=x.dim_v[i]))
            if new.rows != rows[i].rows:
                stale.update(a.source for a in dq.arrows_into(i))
            rows[i] = new
    return rows


def _annihilator(rows: dict[str, RatMatrix]) -> GradedSubspace:
    """The common kernel of each row block, in canonical echelon form; the
    kernel basis of a block depends on its span alone."""
    return GradedSubspace({i: _row_basis(kernel_rows(r)).transpose() for i, r in rows.items()})


def _transposed(rows: dict[str, RatMatrix]) -> GradedSubspace:
    """The span of each row block, as the columns of its canonical basis."""
    return GradedSubspace({i: _row_basis(r).transpose() for i, r in rows.items()})


def max_invariant_in_kerJ(x: FramedRep) -> GradedSubspace:
    """Largest graded subspace inside Ker J preserved by every arrow matrix:
    (Ker J)^perp = rows of J, (S meet B_a^-1 S')^perp = S^perp + S'^perp B_a."""
    return _annihilator(_invariant_rows(x))


def min_invariant_over_imI(x: FramedRep) -> GradedSubspace:
    """Smallest graded subspace containing every Im I and preserved by B: on
    ``transpose(x)``, J is I^T and each arrow carries a reversed one's B^T."""
    return _transposed(_invariant_rows(transpose(x)))


class StabilityResult:
    """A stability verdict.  ``stable`` reads only the ranks of the fixed
    point; the witness is built on first read of ``witness`` and cached."""

    def __init__(self, stable: bool, rows: dict[str, RatMatrix], positive: bool):
        self.stable = stable
        self._rows = rows
        self._positive = positive

    @cached_property
    def witness(self) -> GradedSubspace | None:
        """None when stable; otherwise a subspace violating the strict
        inequality: the largest invariant one inside Ker J for a positive
        parameter, the smallest one over Im I for a negative one."""
        if self.stable:
            return None
        return _annihilator(self._rows) if self._positive else _transposed(self._rows)

    @property
    def verdict(self) -> str:
        return "stable" if self.stable else "unstable"


def is_stable(x: FramedRep, zeta: ZetaParam) -> StabilityResult:
    """Stability verdict for a sign-definite parameter, with a witness
    subspace violating the strict inequality when unstable.

    Under sign-definiteness stability and semistability coincide, so a
    single extremal subspace decides the verdict: the ranks of
    ``_invariant_rows`` on x (positive) or on its transpose (negative).
    """
    if zeta.vertices != x.dq.vertices:
        raise QuiverMismatchError("stability parameter keyed to a different quiver")
    ensure_flat(x)
    sign = zeta.sign_class
    if sign == "mixed":
        raise UnsupportedZetaError(
            "mixed-sign stability parameters are not supported; "
            "use an all-positive or all-negative zeta"
        )
    positive = sign == "positive"
    rows = _invariant_rows(x if positive else transpose(x))
    return StabilityResult(all(r.rows == r.cols for r in rows.values()), rows, positive)


def stabilizer_trivial(x: FramedRep) -> bool:
    """True when the framed self-Hom space vanishes, which is what kills the
    group stabilizer of the point."""
    ensure_flat(x)
    return homext.build_complex(x, x).hom_dim() == 0
