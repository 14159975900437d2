"""Workload ``oracle``: the Kac-Moody weight-multiplicity oracle alone.

It is integer and Fraction recursion with no matrices, so it is the workload
on which changes to ``homext``, ``ratmat``, ``stability`` and ``invariants``
should predict no change, and the only one where Peterson roots and
Freudenthal multiplicities do most of the work.

Expected values come from standard facts, not from the code under test
(Kac, *Infinite-dimensional Lie algebras*, Ch. 5-7):

* the zero-weight multiplicity of the adjoint module of a simple Lie algebra
  is its rank, and the sum over all its weights is its dimension;
* the positive roots of an untwisted affine simply-laced type are exactly the
  positive vectors b with (b, b) = 2 (real, multiplicity 1) and the multiples
  of delta, (b, b) = 0, whose multiplicity is the rank of the finite type.

The inputs are fixed setups, so the seed changes nothing here.
"""

from __future__ import annotations

import itertools
import math

COUNT_SETUPS = ("A8", "D6", "D8", "E6", "E7")
BOX_SETUPS = ("D4", "D5", "E6")
AFFINE_CUTOFF = 4


def lie_dimension(label: str) -> int:
    family, n = label[0], int(label[1:])
    if family == "A":
        return n * (n + 2)
    if family == "D":
        return n * (2 * n - 1)
    return {6: 78, 7: 133, 8: 248}[n]


def _vectors(n: int, budget: int):
    """Nonnegative integer vectors of length n with entry sum at most budget."""
    if n == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in _vectors(n - 1, budget - head):
            yield (head,) + tail


def affine_roots(gcm, cutoff: int) -> dict[tuple[int, ...], int]:
    """Positive roots up to height ``cutoff`` of an affine simply-laced type,
    with multiplicities, from the norm alone."""
    n = len(gcm)
    out = {}
    for beta in _vectors(n, cutoff):
        if not any(beta):
            continue
        norm = sum(beta[i] * gcm[i][j] * beta[j] for i in range(n) for j in range(n))
        if norm == 2:
            out[beta] = 1
        elif norm == 0:
            out[beta] = n - 1
    return out


def setup(qx, seed: int, tracer) -> dict:
    counts = {label: qx.ade_minimal_resolution_setup(label) for label in COUNT_SETUPS}
    boxes = {label: qx.ade_minimal_resolution_setup(label) for label in BOX_SETUPS}
    affine = {}
    for name, label in (("triangle", "A2"), ("affine_D4", "D4")):
        q, _, w = qx.ade_minimal_resolution_setup(label)
        rewritten, _ = qx.cb_transform(q, w)
        affine[name] = qx.cartan_matrix(rewritten)
    return {"counts": counts, "boxes": boxes, "affine": affine}


def _box_sum(qx, tracer, q, v, w) -> int:
    with tracer.span("kacmoody.roots"):
        roots = qx.roots_for_quiver(q, 2 * v.total())
    tracer.count("kacmoody.roots", len(roots.positive_roots))
    drops = list(itertools.product(*(range(2 * m + 1) for m in v.values)))
    tracer.count("kacmoody.drops", len(drops))
    with tracer.span("kacmoody.freudenthal"):
        session = qx.MultiplicitySession(roots, w.values)
        return sum(session.multiplicity(drop) for drop in drops)


def _roots(qx, tracer, gcm, cutoff: int) -> dict:
    with tracer.span("kacmoody.roots"):
        data = qx.root_multiplicities(gcm, cutoff)
    tracer.count("kacmoody.roots", len(data.positive_roots))
    return dict(data.positive_roots)


def run_pass(qx, inputs: dict, op, tracer) -> None:
    for label, (q, v, w) in inputs["counts"].items():
        name = f"count.{label}"
        tracer.count("kacmoody.drops")
        count = op(name, tracer.call, "kacmoody.count", qx.predicted_component_count, q, v, w)
        if count is not None:
            op.reject(name, count == len(q.vertices), f"{count} components, rank {len(q.vertices)}")
    for label, (q, v, w) in inputs["boxes"].items():
        name = f"box.{label}"
        total = op(name, _box_sum, qx, tracer, q, v, w)
        if total is not None:
            expected = lie_dimension(label)
            op.reject(name, total == expected, f"adjoint box sum {total} != dim {expected}")
    for affine, gcm in inputs["affine"].items():
        name = f"roots.{affine}"
        roots = op(name, _roots, qx, tracer, gcm, AFFINE_CUTOFF)
        if roots is not None:
            expected = affine_roots(gcm, AFFINE_CUTOFF)
            op.reject(name, roots == expected, f"roots {roots} != {expected}")


def probes(qx, inputs: dict) -> list:
    """Known defects (non-integral Peterson pivots on affine types, recursion
    depth in Freudenthal) as (name, thunk, expected value)."""
    a1 = qx.ade_minimal_resolution_setup("A1")[0]
    sl2_v = qx.DimVector.of(a1, {"1": 1500})
    sl2_w = qx.DimVector.of(a1, {"1": 3000})
    affine_d4 = inputs["affine"]["affine_D4"]
    triangle = inputs["affine"]["triangle"]
    return [
        (
            "affine_D4.cutoff12",
            lambda: dict(qx.root_multiplicities(affine_d4, 12).positive_roots),
            affine_roots(affine_d4, 12),
        ),
        (
            "triangle.cutoff6",
            lambda: dict(qx.root_multiplicities(triangle, 6).positive_roots),
            affine_roots(triangle, 6),
        ),
        (
            "sl2.w3000.v1500",
            lambda: qx.predicted_component_count(a1, sl2_v, sl2_w),
            1,
        ),
    ]


def sizes(inputs: dict) -> dict:
    return {
        "count_setups": {
            label: {"v": list(v.values), "w": list(w.values)}
            for label, (_, v, w) in inputs["counts"].items()
        },
        "box_drops": {
            label: math.prod(2 * m + 1 for m in v.values)
            for label, (_, v, _) in inputs["boxes"].items()
        },
        "affine_cutoff": AFFINE_CUTOFF,
        "affine_rank": {name: len(gcm) for name, gcm in inputs["affine"].items()},
    }
