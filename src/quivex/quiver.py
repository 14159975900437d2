"""Quiver combinatorics: doubling, Cartan data, dimension counts, stability
parameters, the one-extra-vertex framing transform, and ADE setups.

All types here are immutable values and all operations are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence, Union

from .errors import DomainError, FormatError, InternalCheckError, QuiverMismatchError, UnknownExampleError
from .ratmat import Scalar, as_fraction

REVERSED_SUFFIX = "*"


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


def _as_arrow(a: object) -> Arrow:
    """``a`` itself, or the Arrow of a (name, source, target) triple."""
    triple = isinstance(a, (tuple, list)) and len(a) == 3
    arrow = a if isinstance(a, Arrow) else Arrow(*a) if triple else None
    if arrow is None or not isinstance(arrow.name, str):
        raise DomainError(f"arrow {a!r} is not an Arrow or a (name, source, target) triple with a string name")
    return arrow


class Quiver:
    """A finite directed multigraph; parallel arrows and loops are allowed."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow | tuple[str, str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise DomainError("duplicate vertex names")
        self.arrows: tuple[Arrow, ...] = tuple(map(_as_arrow, arrows))
        vset = set(self.vertices)
        names = set()
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise DomainError(f"arrow {a.name!r} has undeclared endpoint")
            if a.name in names:
                raise DomainError(f"duplicate arrow name {a.name!r}")
            if a.name.endswith(REVERSED_SUFFIX):
                raise DomainError(
                    f"arrow name {a.name!r} ends with the reversal suffix {REVERSED_SUFFIX!r}"
                )
            names.add(a.name)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    def index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise DomainError(f"unknown vertex {vertex!r}") from None

    @property
    def has_edge_loops(self) -> bool:
        return any(a.source == a.target for a in self.arrows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows))

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class DoubledQuiver:
    """A quiver together with a reversed copy of each arrow.

    Arrows are ordered as the base arrows followed by their reversals, the
    reversal of ``h`` is named ``h + "*"``, and the sign ``eps`` is +1 on
    base arrows and -1 on reversed ones.
    """

    def __init__(self, base: Quiver):
        self.base = base
        rev = tuple(Arrow(a.name + REVERSED_SUFFIX, a.target, a.source) for a in base.arrows)
        self.arrows: tuple[Arrow, ...] = base.arrows + rev

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.base.vertices

    def index(self, vertex: str) -> int:
        return self.base.index(vertex)

    @cached_property
    def _by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise DomainError(f"unknown arrow {name!r}") from None

    def eps(self, name: str) -> int:
        self.arrow(name)
        return -1 if name.endswith(REVERSED_SUFFIX) else 1

    def bar(self, name: str) -> str:
        self.arrow(name)
        if name.endswith(REVERSED_SUFFIX):
            return name[: -len(REVERSED_SUFFIX)]
        return name + REVERSED_SUFFIX

    @cached_property
    def _incidence(self) -> dict[str, tuple[tuple[Arrow, ...], tuple[Arrow, ...]]]:
        """Per vertex, the arrows into it and the arrows out of it, in arrow order."""
        into: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        out_of: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            into[a.target].append(a)
            out_of[a.source].append(a)
        return {v: (tuple(into[v]), tuple(out_of[v])) for v in self.vertices}

    def arrows_into(self, vertex: str) -> tuple[Arrow, ...]:
        return self._incidence[vertex][0]

    def arrows_out_of(self, vertex: str) -> tuple[Arrow, ...]:
        return self._incidence[vertex][1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DoubledQuiver) and self.base == other.base

    def __hash__(self) -> int:
        return hash(("doubled", self.base))

    def __repr__(self) -> str:
        return f"DoubledQuiver({self.base!r})"


def double(q: Quiver) -> DoubledQuiver:
    return DoubledQuiver(q)


VertexSpace = Union[Quiver, DoubledQuiver]


def check_vertices(vertices: tuple[str, ...], *keyed) -> None:
    """Raise QuiverMismatchError unless every keyed value (a dimension
    vector or stability parameter) lists exactly ``vertices``, in order."""
    for k in keyed:
        if k.vertices != vertices:
            raise QuiverMismatchError(
                f"mismatched vertex sets: {list(k.vertices)} where {list(vertices)} is expected"
            )


@dataclass(frozen=True)
class DimVector:
    """A nonnegative integer for every vertex, in quiver vertex order."""

    vertices: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.values):
            raise DomainError("dimension vector does not match the vertex list")
        for v, n in zip(self.vertices, self.values):
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise DomainError(f"dimension at vertex {v!r} must be a nonnegative integer")

    @classmethod
    def of(cls, space: VertexSpace, entries: Mapping[str, int] | Sequence[int]) -> "DimVector":
        vertices = space.vertices
        if isinstance(entries, Mapping):
            unknown = set(entries) - set(vertices)
            if unknown:
                raise FormatError(f"dimension vector keys not in the quiver: {sorted(unknown)}")
            values = tuple(entries.get(v, 0) for v in vertices)
        else:
            if len(entries) != len(vertices):
                raise FormatError("dimension list length does not match the vertex count")
            values = tuple(entries)
        return cls(vertices, values)

    @classmethod
    def zero(cls, space: VertexSpace) -> "DimVector":
        vertices = space.vertices
        return cls(vertices, (0,) * len(vertices))

    @classmethod
    def unit(cls, space: VertexSpace, vertex: str) -> "DimVector":
        vertices = space.vertices
        if vertex not in vertices:
            raise DomainError(f"unknown vertex {vertex!r}")
        return cls(vertices, tuple(1 if v == vertex else 0 for v in vertices))

    def __getitem__(self, vertex: str) -> int:
        try:
            return self.values[self.vertices.index(vertex)]
        except ValueError:
            raise DomainError(f"unknown vertex {vertex!r}") from None

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.vertices, self.values))

    def total(self) -> int:
        return sum(self.values)

    def __add__(self, other: "DimVector") -> "DimVector":
        check_vertices(self.vertices, other)
        return DimVector(self.vertices, tuple(a + b for a, b in zip(self.values, other.values)))

    def replace(self, vertex: str, value: int) -> "DimVector":
        if vertex not in self.vertices:
            raise DomainError(f"unknown vertex {vertex!r}")
        return DimVector(
            self.vertices,
            tuple(value if v == vertex else n for v, n in zip(self.vertices, self.values)),
        )


@dataclass(frozen=True)
class ZetaParam:
    """A rational stability parameter per vertex."""

    vertices: tuple[str, ...]
    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, space: VertexSpace, entries: Mapping[str, Scalar]) -> "ZetaParam":
        vertices = space.vertices
        unknown = set(entries) - set(vertices)
        if unknown:
            raise FormatError(f"zeta keys not in the quiver: {sorted(unknown)}")
        return cls(vertices, tuple(as_fraction(entries.get(v, 0)) for v in vertices))

    @classmethod
    def constant(cls, space: VertexSpace, value: Scalar) -> "ZetaParam":
        vertices = space.vertices
        return cls(vertices, (as_fraction(value),) * len(vertices))

    def __getitem__(self, vertex: str) -> Fraction:
        try:
            return self.values[self.vertices.index(vertex)]
        except ValueError:
            raise DomainError(f"unknown vertex {vertex!r}") from None

    @property
    def sign_class(self) -> str:
        """The empty parameter, on the quiver with no vertices, is vacuously
        of both signs and counts as positive."""
        if all(v > 0 for v in self.values):
            return "positive"
        if all(v < 0 for v in self.values):
            return "negative"
        return "mixed"


def zeta_pair(z: ZetaParam, v: DimVector) -> Fraction:
    """The pairing sum(zeta_i * v_i)."""
    check_vertices(z.vertices, v)
    return sum((zv * n for zv, n in zip(z.values, v.values)), Fraction(0))


def cartan_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """a_ij = 2*delta_ij minus the number of doubled arrows from i to j."""
    n = len(q.vertices)
    counts = [[0] * n for _ in range(n)]
    for a in q.arrows:
        s, t = q.index(a.source), q.index(a.target)
        counts[s][t] += 1
        counts[t][s] += 1
    return tuple(
        tuple((2 if i == j else 0) - counts[i][j] for j in range(n)) for i in range(n)
    )


def dim_bigM(q: Quiver, v: DimVector, w: DimVector) -> int:
    """Ambient dimension of the doubled-arrow plus framing space."""
    check_vertices(q.vertices, v, w)
    arrows_part = sum(2 * v[a.source] * v[a.target] for a in q.arrows)
    framing_part = 2 * sum(w[i] * v[i] for i in q.vertices)
    return arrows_part + framing_part


def d_of(q: Quiver, v: DimVector, w: DimVector) -> int:
    """Expected moduli dimension; may be negative (empty stable locus)."""
    return dim_bigM(q, v, w) - 2 * sum(n * n for n in v.values)


def chi(q: Quiver, v1: DimVector, w1: DimVector, v2: DimVector, w2: DimVector) -> int:
    """Middle minus both ends of the three-term complex for the two dimension
    pairs; with (v1, w1) a unit vertex this is w_i - sum_j a_ij v_j."""
    check_vertices(q.vertices, v1, w1, v2, w2)
    middle = sum(v1[a.source] * v2[a.target] + v1[a.target] * v2[a.source] for a in q.arrows)
    middle += sum(w1[i] * v2[i] + v1[i] * w2[i] for i in q.vertices)
    ends = 2 * sum(v1[i] * v2[i] for i in q.vertices)
    return middle - ends


def cb_transform(q: Quiver, w: DimVector) -> tuple[Quiver, str]:
    """Adjoin one vertex and w_i parallel arrows from it into each vertex i.

    The new vertex comes last and its arrows are named ``<name>-><i>#<k>``.
    Its name is the first of ``inf``, ``inf2``, ``inf3``, ... that is not a
    vertex of ``q`` and whose arrow names are not arrows of ``q``; it is
    returned with the quiver.  A dimension vector V for ``q`` extends to the
    new quiver as V plus a one-dimensional space at the new vertex (see
    ``cb_extend_dim``).
    """
    check_vertices(q.vertices, w)
    taken = {a.name for a in q.arrows}
    for n in itertools.count(1):
        infinity = "inf" if n == 1 else f"inf{n}"
        new = [Arrow(f"{infinity}->{i}#{k}", infinity, i) for i in q.vertices for k in range(w[i])]
        if infinity not in q.vertices and taken.isdisjoint(a.name for a in new):
            return Quiver(q.vertices + (infinity,), q.arrows + tuple(new)), infinity


def cb_extend_dim(v: DimVector, transformed: Quiver, infinity: str) -> DimVector:
    """V over the rewritten quiver's other vertices, with a one-dimensional
    space at ``infinity``."""
    check_vertices(tuple(u for u in transformed.vertices if u != infinity), v)
    entries = v.as_dict()
    entries[infinity] = 1
    return DimVector.of(transformed, entries)


_ADE_FAMILIES = ("A", "D", "E")


def _parse_ade_label(label: str) -> tuple[str, int]:
    text = label.strip().upper()
    if len(text) < 2 or text[0] not in _ADE_FAMILIES:
        raise UnknownExampleError(f"unknown ADE label {label!r}")
    try:
        n = int(text[1:])
    except ValueError:
        raise UnknownExampleError(f"unknown ADE label {label!r}") from None
    if text[0] == "A" and n >= 1:
        return "A", n
    if text[0] == "D" and n >= 4:
        return "D", n
    if text[0] == "E" and n in (6, 7, 8):
        return "E", n
    raise UnknownExampleError(f"label {label!r} is outside the ADE families")


@lru_cache(maxsize=32)
def ade_minimal_resolution_setup(label: str) -> tuple[Quiver, DimVector, DimVector]:
    """Finite ADE quiver with the dimension data of the minimal resolution of
    the corresponding Kleinian singularity.

    Orientation is fixed once and for all: chains run left to right and fork
    arrows point into the branch vertex.  V carries the finite part of the
    primitive imaginary root of the affine diagram; W marks the neighbours of
    the removed affine vertex with multiplicity one.

    Results are memoised by label, so repeated calls return the same shared
    immutable values; a refused label raises on every call.
    """
    family, n = _parse_ade_label(label)
    names = tuple(str(k) for k in range(1, n + 1))
    if family == "A":
        edges = [(str(k), str(k + 1)) for k in range(1, n)]
        marks = [1] * n
        if n == 1:
            w = {"1": 2}
        else:
            w = {"1": 1, str(n): 1}
    elif family == "D":
        edges = [(str(k), str(k + 1)) for k in range(1, n - 2)]
        edges += [(str(n - 1), str(n - 2)), (str(n), str(n - 2))]
        marks = [1] + [2] * (n - 3) + [1, 1]
        w = {"2": 1}
    else:
        chain = ["1", "3", "4", "5", "6", "7", "8"][: n - 1]
        edges = list(zip(chain, chain[1:])) + [("2", "4")]
        marks = {
            6: [1, 2, 2, 3, 2, 1],
            7: [2, 2, 3, 4, 3, 2, 1],
            8: [2, 3, 4, 6, 5, 4, 3, 2],
        }[n]
        w = {"2": 1} if n == 6 else ({"1": 1} if n == 7 else {"8": 1})
    q = Quiver(names, [Arrow(f"{s}->{t}", s, t) for s, t in edges])
    dim_v = DimVector(names, tuple(marks))
    dim_w = DimVector.of(q, w)
    gcm = cartan_matrix(q)
    for i, vertex in enumerate(names):
        if sum(gcm[i][j] * dim_v.values[j] for j in range(n)) != dim_w.values[i]:
            raise InternalCheckError(f"ADE setup {label}: Cartan check failed at {vertex}")
    return q, dim_v, dim_w
