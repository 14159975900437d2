"""Sign-definite stability for framed representations.

For an all-negative parameter, a flat point is stable exactly when the
smallest invariant graded subspace over Im I is everything; one increasing
fixed point computes it.  For an all-positive parameter, exactly when the
largest invariant graded subspace inside Ker J vanishes.  That subspace is
the annihilator of the smallest invariant subspace over Im J^T of the
transposed point, so the same fixed point decides both signs.  Its
dimensions alone give the verdict; the witness subspace is built on first
read.  Mixed-sign parameters would require quantifying over invariant
subspaces of every dimension vector and are rejected as unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import UnsupportedZetaError
from .quiver import DimVector, ZetaParam
from .ratmat import RatMatrix, column_space_echelon, hstack, kernel_basis
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


def max_invariant_in_kerJ(x: FramedRep) -> GradedSubspace:
    """Largest graded subspace inside Ker J preserved by every arrow matrix.

    It is the annihilator of ``min_invariant_over_imI(transpose(x))``:
    (Ker J)^perp = Im J^T, and (S meet B_a^-1 S')^perp = S^perp + B_a^T S'^perp.
    """
    return _annihilator(min_invariant_over_imI(transpose(x)))


def _annihilator(t: GradedSubspace) -> GradedSubspace:
    """The orthogonal complement at each vertex, in canonical echelon form."""
    return GradedSubspace(
        {
            i: column_space_echelon(hstack(kernel_basis(m.transpose()), rows=m.rows))
            for i, m in t.blocks.items()
        }
    )


def min_invariant_over_imI(x: FramedRep) -> GradedSubspace:
    """Smallest graded subspace containing every Im I and preserved by B;
    increasing fixed-point iteration.

    Passes run over the vertices in order and recompute the stale ones. At
    first every vertex with an arrow in is stale; a vertex becomes stale again
    only when an in-neighbour grows after its last recomputation, so a loop
    arrow i -> i keeps a grown i stale.  Each basis is the canonical echelon
    form of its span, so the fixed point does not depend on the order of the
    updates.
    """
    dq = x.dq
    basis = {i: column_space_echelon(x.I[i]) for i in dq.vertices}
    stale = {a.target for a in dq.arrows}
    while stale:
        for i in dq.vertices:
            if i not in stale:
                continue
            stale.discard(i)
            pieces = [basis[i]] + [x.B[a.name] @ basis[a.source] for a in dq.arrows_into(i)]
            new = column_space_echelon(hstack(pieces, rows=x.dim_v[i]))
            if new.cols != basis[i].cols:
                stale.update(a.target for a in dq.arrows_out_of(i))
            basis[i] = new
    return GradedSubspace(basis)


class StabilityResult:
    """A stability verdict.  ``stable`` reads only the dimensions of the fixed
    point; the witness is built on first read of ``witness`` and cached."""

    def __init__(self, stable: bool, fixed_point: GradedSubspace, positive: bool):
        self.stable = stable
        self._fixed_point = fixed_point
        self._positive = positive

    @cached_property
    def witness(self) -> GradedSubspace | None:
        """None when stable; otherwise a subspace violating the strict
        inequality: the largest invariant one inside Ker J for a positive
        parameter, the smallest one over Im I for a negative one."""
        if self.stable:
            return None
        return _annihilator(self._fixed_point) if self._positive else self._fixed_point

    @property
    def verdict(self) -> str:
        return "stable" if self.stable else "unstable"


def is_stable(x: FramedRep, zeta: ZetaParam) -> StabilityResult:
    """Stability verdict for a sign-definite parameter, with a witness
    subspace violating the strict inequality when unstable.

    Under sign-definiteness stability and semistability coincide, so a
    single extremal subspace decides the verdict.
    """
    ensure_flat(x)
    sign = zeta.sign_class
    if sign == "mixed":
        raise UnsupportedZetaError(
            "mixed-sign stability parameters are not supported; "
            "use an all-positive or all-negative zeta"
        )
    positive = sign == "positive"
    t = min_invariant_over_imI(transpose(x) if positive else x)
    return StabilityResult(t.equals_ambient(x.dim_v), t, positive)


def stabilizer_trivial(x: FramedRep) -> bool:
    """True when the framed self-Hom space vanishes, which is what kills the
    group stabilizer of the point."""
    ensure_flat(x)
    return homext.build_complex(x, x).hom_dim() == 0
