"""Reduction and extension of framed representations by one simple module at
a time: the string datum epsilon_i, the canonical kernel of the projection
onto copies of the simple at a vertex, the reverse construction from
extension classes, and the seeded sampler that builds flat points by such
extensions.

Extension classes live in the middle term of the complex built against the
simple module at the vertex, packed in that complex's block layout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DependentClassesError, DimensionError, DomainError, InternalCheckError, QuiverMismatchError
from .quiver import DimVector, DoubledQuiver, ZetaParam, check_vertices, chi as chi_formula, d_of
from .ratmat import RatMatrix, column_space_echelon, hstack, kernel_basis, rank, vstack
from .rep import FramedRep, act, ensure_flat, is_flat, simple_rep
from .stability import is_stable
from . import homext


def _require_loop_free(x: FramedRep, what: str) -> None:
    if x.dq.base.has_edge_loops:
        raise DomainError(f"{what} assumes a quiver without edge loops")


def _against_simple(x: FramedRep, i: str, what: str) -> homext.Complex3:
    """The complex with the simple at vertex i first and x second, once x
    has passed the checks every operation of this module shares."""
    _require_loop_free(x, what)
    ensure_flat(x)
    return homext.build_complex(simple_rep(x.dq, i), x)


def epsilon_i(x: FramedRep, i: str) -> int:
    """Dimension of the Hom space to the simple module at vertex i, computed
    two ways (kernel against the simple, cokernel with the simple first) and
    cross-checked; disagreement would be a duality bug."""
    c = _against_simple(x, i, "epsilon_i")
    via_kernel = homext.build_complex(x, c.x1).hom_dim()
    via_cokernel = c.cohom_dim()
    if via_kernel != via_cokernel:
        raise InternalCheckError(
            f"epsilon_i duality mismatch at {i!r}: {via_kernel} vs {via_cokernel}"
        )
    return via_kernel


@dataclass(frozen=True)
class ReductionResult:
    reduced: FramedRep
    r: int
    inclusion: dict[str, RatMatrix]


def _check_d_identity(q, v_big: DimVector, v_small: DimVector, w: DimVector, i: str, r: int) -> None:
    chi_small = chi_formula(q, DimVector.unit(q, i), DimVector.zero(q), v_small, w)
    gap = d_of(q, v_big, w) - d_of(q, v_small, w)
    expected = 2 * r * (chi_small - r)
    if gap != expected:
        raise InternalCheckError(f"dimension identity failed at {i!r}: {gap} vs {expected}")


def _pivot_rows(basis: RatMatrix) -> list[int]:
    """The row of each column's leading 1 in an echelon column basis, such as
    ``column_space_echelon`` returns: on these rows the basis is the identity."""
    # the first nonzero row of each column; the columns are a basis, so none is zero
    return [next(row for row, a in enumerate(col) if a) for col in zip(*basis.nums)]


def _corestrict(image: RatMatrix, pivots: list[int], m: RatMatrix, what: str) -> RatMatrix:
    """The matrix n with image @ n == m, for m mapping into the span of the
    echelon basis image: the rows of m at the pivot rows."""
    rows = RatMatrix.from_integers(len(pivots), m.cols, tuple(m.nums[r] for r in pivots), m.den)
    if image @ rows != m:
        raise InternalCheckError(f"{what} does not map into the image of beta")
    return rows


def reduce_i(x: FramedRep, i: str) -> ReductionResult:
    """Strip every copy of the simple at vertex i off the top of x.

    The new fiber at i is the image of beta in the complex with the simple
    first (echelon basis, so the construction is a function), eliminated
    once: maps out of i are restricted along it, and maps into i keep its
    pivot rows, checked to factor through it.  The result is flat, has no
    Hom to the simple at i, keeps the quotient-invariant fingerprint, and
    satisfies the exact dimension identity, which is checked.
    """
    _require_loop_free(x, "reduce_i")
    verdict = is_stable(x, ZetaParam.constant(x.dq, 1))  # refuses a non-flat x first
    simple = simple_rep(x.dq, i)  # refuses an unknown vertex before an unstable x
    if not verdict.stable:
        raise DomainError("reduce_i needs a stable input")
    c = homext.build_complex(simple, x)
    if c.hom_dim() != 0:
        raise InternalCheckError("stable point admits the simple as a submodule")
    image = column_space_echelon(c.beta)
    r = x.dim_v[i] - image.cols
    inclusion = {
        j: RatMatrix.identity(x.dim_v[j]) if j != i else image for j in x.dq.vertices
    }
    if r == 0:
        return ReductionResult(x, 0, inclusion)
    pivots = _pivot_rows(image)
    dim_small = x.dim_v.replace(i, image.cols)
    B, I, J = act(x, {}, {i: lambda m: m @ image})
    for a in x.dq.arrows_into(i):
        B[a.name] = _corestrict(image, pivots, B[a.name], f"arrow {a.name!r}")
    I[i] = _corestrict(image, pivots, I[i], f"I at {i!r}")
    reduced = FramedRep(x.dq, dim_small, x.dim_w, B, I, J)
    if not is_flat(reduced):
        raise InternalCheckError("reduction of a flat representation came out non-flat")
    if epsilon_i(reduced, i) != 0:
        raise InternalCheckError("reduction left Homs to the simple behind")
    _check_d_identity(x.dq.base, x.dim_v, dim_small, x.dim_w, i, r)
    return ReductionResult(reduced, r, inclusion)


def ext_space_i(x: FramedRep, i: str) -> list[RatMatrix]:
    """Cocycle representatives of the middle cohomology of the complex with
    the simple at vertex i first, as packed middle vectors.

    The space is well defined for any flat input; recovering stable points
    by extension additionally wants epsilon_i(x) = 0, which callers on the
    induction path check themselves.
    """
    return _against_simple(x, i, "ext_space_i").ext1_reps()


def extend_i(x: FramedRep, i: str, classes: list[RatMatrix]) -> FramedRep:
    """Enlarge the fiber at vertex i by one coordinate per extension class.

    Arrows leaving i gain the class's arrow columns, J_i gains its framing
    column, and arrows entering i and I_i gain zero rows, so the quotient by
    the old representation is a sum of simples with zero maps.  The cocycle
    condition is exactly flatness of the result and is verified; classes
    must be independent modulo the coboundaries.
    """
    return _extend(_against_simple(x, i, "extend_i"), i, classes)


def _extend(c: homext.Complex3, i: str, classes: list[RatMatrix]) -> FramedRep:
    """``extend_i`` of c.x2 on c, its complex against the simple at i."""
    x = c.x2
    if not isinstance(classes, (list, tuple)):
        raise DimensionError("extension classes are not a list")
    r = len(classes)
    if r == 0:
        return x
    for vec in classes:
        if not isinstance(vec, RatMatrix):
            raise DimensionError("extension class is not a RatMatrix")
        if vec.shape != (c.middle.dim, 1):
            raise DomainError(
                f"extension class has shape {vec.shape}, expected ({c.middle.dim}, 1)"
            )
        if not (c.beta @ vec).is_zero:
            raise DomainError("extension class is not a cocycle")
    if len(c.independent_mod_coboundaries(classes)) != r:
        raise DependentClassesError("extension classes are dependent modulo the coboundaries")
    decoded = [c.middle.unpack(vec) for vec in classes]
    dim_big = x.dim_v.replace(i, x.dim_v[i] + r)
    B, I, J = act(x, {i: lambda m: vstack([m, RatMatrix.zeros(r, m.cols)])}, {})
    for a in x.dq.arrows_out_of(i):
        B[a.name] = hstack([B[a.name]] + [blocks["arrow"][a.name] for blocks in decoded])
    J[i] = hstack([J[i]] + [blocks["J"][i] for blocks in decoded])
    out = FramedRep(x.dq, dim_big, x.dim_w, B, I, J)
    if not is_flat(out):
        raise InternalCheckError("cocycle extension came out non-flat")
    _check_d_identity(x.dq.base, dim_big, x.dim_v, x.dim_w, i, r)
    return out


def sample_flat_crystal(
    dq: DoubledQuiver,
    dim_v: DimVector,
    dim_w: DimVector,
    seed: int,
) -> FramedRep | None:
    """A flat point built by extension steps from the empty representation.

    Grows one fiber dimension at a time, at seeded vertices, by picking an
    extension class against the simple module there; this produces points
    with nonzero J.  Each step reads the classes off one complex and extends
    on that same complex.  Returns None when some step has no extensions
    left (the caller should fall back to ``rep.sample_flat``).

    Both dimension vectors must list dq's vertices, in order; that is checked
    first.  The first step extends the empty point by the simple S_i at the
    first vertex i of the order; against V = 0 both ends of its complex are
    zero and its middle term is Hom(C, W_i), so that step has an extension
    class exactly when w_i > 0.  When w_i = 0 the walk returns None before
    building anything, after the same draws, as it would on trying the step.
    """
    check_vertices(dq.vertices, dim_v, dim_w)
    rng = random.Random(seed)
    order = [v for v in dq.vertices for _ in range(dim_v[v])]
    rng.shuffle(order)
    if order and dim_w[order[0]] == 0:
        return None
    x = FramedRep(dq, DimVector.zero(dq), dim_w)
    for vertex in order:
        c = homext.build_complex(simple_rep(dq, vertex), x)
        reps = c.ext1_reps()
        if not reps:
            return None
        coeffs = [rng.randint(-2, 2) for _ in reps]
        if all(k == 0 for k in coeffs):
            coeffs[rng.randrange(len(coeffs))] = 1
        cls = reps[0].scale(coeffs[0])
        for k, r in zip(coeffs[1:], reps[1:]):
            cls = cls + r.scale(k)
        # extend_i's checks; x is flat, being empty or a checked extension
        _require_loop_free(x, "extend_i")
        x = _extend(c, vertex, [cls])
    return x


def class_layout(x: FramedRep, i: str) -> homext.BlockLayout:
    """The middle layout of the complex with the simple at vertex i first
    and x second: the layout extension classes of x at i are packed in."""
    unit = DimVector.unit(x.dq, i)
    return homext.BlockLayout.middle(x.dq, unit, DimVector.zero(x.dq), x.dim_v, x.dim_w)


def _includes(x: FramedRep, i: str, small: FramedRep, inclusion: dict[str, RatMatrix]) -> bool:
    """Whether the inclusion, the identity away from i, maps small into x:
    one product per block that touches i, equality for every other block."""
    inc = inclusion.get(i)
    if not isinstance(inc, RatMatrix) or inc.shape != (x.dim_v[i], small.dim_v[i]):
        return False
    if any(inclusion.get(j) != RatMatrix.identity(x.dim_v[j]) for j in x.dq.vertices if j != i):
        return False
    return act(x, {}, {i: lambda m: m @ inc}) == act(small, {i: lambda m: inc @ m}, {})


def recovery_classes(x: FramedRep, i: str, reduction: ReductionResult) -> list[RatMatrix]:
    """The tautological extension classes that rebuild x from its reduction.

    Completing the echelon inclusion at i by the standard basis vectors away
    from its pivot rows gives a complement of the reduced fiber; reading the
    arrow and framing columns of x on that complement yields one cocycle per
    stripped copy of the simple, and extending the reduction by them returns
    a representation isomorphic to x.

    The reduction must be one of x at i: its reduced point has x's quiver
    and W, and x's V lowered by r at i, and its inclusion maps it into x.
    An unknown vertex or another reduction raises DomainError.
    """
    if not isinstance(reduction, ReductionResult):
        raise DomainError("reduction is not a ReductionResult")
    r, small = reduction.r, reduction.reduced
    lowered = x.dim_v[i] - r  # refuses an unknown vertex
    if lowered < 0 or small.dq != x.dq or small.dim_w != x.dim_w or small.dim_v != x.dim_v.replace(i, lowered):
        raise DomainError(
            f"reduction is not one of x at {i!r}: its reduced point must have x's quiver and W, "
            f"and x's V lowered by r = {r} at {i!r}"
        )
    if not _includes(x, i, small, reduction.inclusion):
        raise DomainError(
            f"reduction is not one of x at {i!r}: its inclusion is not the identity away from {i!r} "
            "or does not intertwine the reduced point with x"
        )
    if r == 0:
        return []
    pivot_rows = set(_pivot_rows(reduction.inclusion[i]))
    complement = [row for row in range(x.dim_v[i]) if row not in pivot_rows]
    if len(complement) != r:
        raise InternalCheckError(f"complement at {i!r} has {len(complement)} rows, not {r}")
    layout = class_layout(small, i)
    classes = []
    for row in complement:
        C = {a.name: x.B[a.name].column_matrix(row) for a in x.dq.arrows_out_of(i)}
        E = {i: x.J[i].column_matrix(row)}
        classes.append(layout.pack(arrow=C, J=E))
    return classes


_PROBE_SEED = 0x51E57A
_PROBE_ATTEMPTS = 64


def are_isomorphic(x: FramedRep, y: FramedRep) -> bool:
    """Whether some invertible graded map intertwines all arrow and framing
    matrices.

    Solves the exact intertwiner system, then probes the affine solution
    space for an invertible member: the particular solution, then seeded
    combinations of the kernel basis with coefficients drawn from [-d, d],
    d = sum dim V.  The product of the determinants of the blocks xi_i has
    degree at most d in the coefficients, so by Schwartz-Zippel an attempt
    misses an invertible member, if there is one, with probability below 1/2,
    and all attempts miss with probability below 2^-64.  A True answer is
    sound.  For zeta>0-stable x every solution is invertible, so the probe
    never runs: Ker xi is B-invariant and lies in Ker J.
    """
    if x.dq != y.dq:
        raise QuiverMismatchError("isomorphism test across different quivers")
    if x.dim_v != y.dim_v or x.dim_w != y.dim_w:
        return False
    c = homext.build_complex(x, y)
    target = c.middle.pack(I={i: y.I[i] for i in x.dq.vertices},
                           J={i: -x.J[i] for i in x.dq.vertices})
    # one elimination: the kernel of [alpha | -target] ends in a vector with
    # last coordinate 1 exactly when the system is solvable; cut to alpha's
    # columns, that one is the canonical solution and the others span Ker alpha
    n = c.alpha.cols
    basis = kernel_basis(hstack([c.alpha, -target]))
    if not basis or basis[-1].nums[n][0] != basis[-1].den:
        return False
    *kernel, particular = [RatMatrix.from_integers(n, 1, v.nums[:n], v.den) for v in basis]

    def invertible(vec: RatMatrix) -> bool:
        blocks = c.ends.unpack(vec)["xi"]
        return all(rank(m) == m.rows for m in blocks.values())

    if invertible(particular):
        return True
    rng, d = random.Random(_PROBE_SEED), x.dim_v.total()
    for _ in range(_PROBE_ATTEMPTS if kernel else 0):
        candidate = particular
        for k in kernel:
            candidate = candidate + k.scale(rng.randint(-d, d))
        if invertible(candidate):
            return True
    return False
