"""Coordinates on the affine quotient: traces of oriented cycles and framed
path entries, plus the explicit relations of the rank-one and chain setups.

One walker enumerates each walk once, sharing prefix products.  A cycle is
emitted once per rotation class, as its lexicographically least rotation;
a reversed cycle is a different word in the doubled quiver.  Labels are
plain tuples, ordered deterministically, so two fingerprints can be
compared entry by entry.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, WrongSetupError
from .quiver import ade_minimal_resolution_setup
from .ratmat import RatMatrix, rank
from .rep import FramedRep, evaluate_path

CycleLabel = tuple[str, ...]
PathLabel = tuple[str, tuple[str, ...], str, int, int]
FingerprintEntry = tuple[tuple, Fraction]


def _least_rotation(word: tuple[str, ...]) -> tuple[str, ...]:
    return min(tuple(word[k:] + word[:k]) for k in range(len(word)))


def _walks(x: FramedRep, origin: str, max_length: int, wanted: Callable) -> list[tuple]:
    """(word, end, product) for every walk from origin of length at most
    max_length that ``wanted(word, end)`` accepts; the product is the path
    matrix in traversal order, the identity for the empty walk."""
    if max_length < 0:
        raise DomainError(f"walk length bound must be nonnegative, got {max_length}")
    out: list[tuple] = []
    word: list[str] = []
    products = [RatMatrix.identity(x.dim_v[origin])]  # products[k]: the first k arrows

    def visit(here: str) -> None:
        label = tuple(word)
        if wanted(label, here):
            for name in word[len(products) - 1 :]:
                products.append(x.B[name] if len(products) == 1 else x.B[name] @ products[-1])
            out.append((label, here, products[-1]))
        if len(word) < max_length:
            for a in x.dq.arrows_out_of(here):
                word.append(a.name)
                visit(a.target)
                word.pop()
                del products[len(word) + 1 :]

    visit(origin)
    return out


def cycle_traces(x: FramedRep, max_length: int) -> list[tuple[CycleLabel, Fraction]]:
    """Traces of the closed walks of length 1..max_length, one per rotation
    class, sorted by (length, word)."""

    def least_closed(word: tuple[str, ...], end: str) -> bool:
        return bool(word) and end == x.dq.arrow(word[0]).source and word == _least_rotation(word)

    out = [
        (word, product.trace())
        for v in x.dq.vertices
        for word, _, product in _walks(x, v, max_length, least_closed)
    ]
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def path_invariants(x: FramedRep, max_length: int) -> list[tuple[PathLabel, Fraction]]:
    """Entries of J_end (path product) I_origin for every walk between framed
    vertices (both ends with positive W), the empty walk included."""
    index = {v: k for k, v in enumerate(x.dq.vertices)}
    walks = [
        (origin, word, end, product)
        for origin in x.dq.vertices
        if x.dim_w[origin] > 0
        for word, end, product in _walks(x, origin, max_length, lambda _, end: x.dim_w[end] > 0)
    ]
    walks.sort(key=lambda t: (len(t[1]), index[t[0]], index[t[2]], t[1]))
    out = []
    for origin, word, end, product in walks:
        value = x.J[end] @ product @ x.I[origin]
        for r in range(value.rows):
            for c in range(value.cols):
                out.append(((origin, word, end, r, c), value[r, c]))
    return out


def default_degree_bound(x: FramedRep) -> int:
    return 2 * x.dim_v.total()


def pi_fingerprint(x: FramedRep, max_length: int | None = None) -> list[FingerprintEntry]:
    """Cycle traces followed by framed path entries up to the degree bound.

    Two representations with equal fingerprints have the same affine-quotient
    image as far as degree-bounded invariants can see; no claim is made that
    the default bound separates all orbits.
    """
    bound = default_degree_bound(x) if max_length is None else max_length
    entries: list[FingerprintEntry] = []
    for word, value in cycle_traces(x, bound):
        entries.append((("cycle",) + word, value))
    for label, value in path_invariants(x, bound):
        entries.append((("path",) + label, value))
    return entries


def fingerprint_is_zero(entries: list[FingerprintEntry]) -> bool:
    return all(value == 0 for _, value in entries)


@dataclass(frozen=True)
class A1Relations:
    A: RatMatrix
    squares_to_zero: bool
    rank_ok: bool


def a1_relations(x: FramedRep) -> A1Relations:
    """The endomorphism A = J I of the framing on a one-vertex quiver, with
    the quotient-variety membership checks: A^2 = 0 whenever the input is
    flat, and rank A bounded by the fiber dimension."""
    base = x.dq.base
    if len(base.vertices) != 1 or base.arrows:
        raise WrongSetupError("a1_relations needs the one-vertex quiver with no arrows")
    v = base.vertices[0]
    A = x.J[v] @ x.I[v]
    return A1Relations(A, (A @ A).is_zero, rank(A) <= x.dim_v[v])


@dataclass(frozen=True)
class AnXYZ:
    x: Fraction
    y: Fraction
    z: Fraction
    relation_ok: bool


def an_xyz(x: FramedRep) -> AnXYZ:
    """The three generating scalars of the chain setup and the exact check
    x*y = z^(n+1).

    y is the full reversed-chain composite with its sign normalized so the
    stated relation holds on the nose for flat points; without the sign flip
    the moment-map relations force x*(raw y) = -z^(n+1).
    """
    n = len(x.dq.base.vertices)
    if n < 2:
        raise WrongSetupError("an_xyz needs a chain with at least two vertices")
    expected_q, expected_v, expected_w = ade_minimal_resolution_setup(f"A{n}")
    if x.dq.base != expected_q or x.dim_v != expected_v or x.dim_w != expected_w:
        raise WrongSetupError("an_xyz needs the chain minimal-resolution setup")
    forward = [f"{k}->{k + 1}" for k in range(1, n)]
    backward = [x.dq.bar(a) for a in reversed(forward)]
    first, last = "1", str(n)
    xv = (x.J[last] @ evaluate_path(x, forward, start=first) @ x.I[first])[0, 0]
    yv = -(x.J[first] @ evaluate_path(x, backward, start=last) @ x.I[last])[0, 0]
    zv = (x.J[first] @ x.I[first])[0, 0]
    return AnXYZ(xv, yv, zv, xv * yv == zv ** (n + 1))
