"""Coordinates on the affine quotient: traces of oriented cycles and framed
path entries, plus the explicit relations of the rank-one and chain setups.

One walker enumerates the walks that give an entry, sharing prefix products.
It searches depth first on an explicit stack, so no bound meets the
interpreter's recursion limit.  Each stack entry holds its walk's word as a
tuple and the walk's product times the seed, so a visit costs one matmul and
a returned walk reuses the entry's word; the arrows out of each vertex are
read once per call and taken in name order.  A cycle is emitted once per
rotation class, as its least rotation: the walker keeps the prenecklace
period p, takes no arrow named below ``word[n - p]`` and emits a closed walk
when p divides n (the FKM necklace test; Ruskey, Savage and Wang 1992,
"Generating necklaces", J. Algorithms 13).  A reversed cycle is a different
word in the doubled quiver.  A branch is cut when its breadth-first distance
to the origin (cycles) or to the nearest framed vertex (paths) exceeds the
arrows left.  A zero prefix product is kept as None and gives an exact 0 with no
further matmul.  Path products start from I_origin, so each path entry is
J_end times one.  Labels are plain tuples, each built once, so two
fingerprints can be compared entry by entry.  Their order needs no sort over
walks: a depth-first walk that takes arrows in name order meets the words of
one length in increasing order, so the walker buckets each walk by its
length and first arrow (cycles) or by its length, origin and end (paths),
and only the bucket keys are sorted.  Before any matmul, the entries
plus letters a call returns are counted exactly from the powers of the
doubled quiver's adjacency matrix; past WALK_BUDGET the call raises a
DomainError naming the count and the largest bound under the budget.
``pi_fingerprint`` counts both kinds before it walks either, and its refusal
names the smaller of their largest bounds.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, WrongSetupError
from .quiver import ade_minimal_resolution_setup
from .ratmat import RatMatrix, rank
from .rep import FramedRep, evaluate_path

CycleLabel = tuple[str, ...]
PathLabel = tuple[str, tuple[str, ...], str, int, int]
FingerprintEntry = tuple[tuple, Fraction]

# Most entries plus letters (word lengths) one cycle_traces or path_invariants
# call may hold.  The E6 setup passes up to bound 21; at its default 22 its
# cycles hold 5,600,266 and its paths 12,575,136.
WALK_BUDGET = 4_000_000

_ZERO = Fraction(0)  # the value of every entry whose walk product is zero


def _distances(x: FramedRep, targets: list[str]) -> dict[str, int]:
    """Fewest arrows from each vertex to a target; absent if none is reached."""
    dist, queue = dict.fromkeys(targets, 0), list(targets)
    for v in queue:
        for a in x.dq.arrows_into(v):
            if a.source not in dist:
                dist[a.source] = dist[v] + 1
                queue.append(a.source)
    return dist


def _refusal(x: FramedRep, max_length: int, necklaces: bool) -> tuple[int, str] | None:
    """None when the entries plus letters of the call's kind up to max_length
    number at most WALK_BUDGET; otherwise the largest bound under the budget
    and the refusal message.  With A the doubled quiver's adjacency matrix
    and w the framing, length n has w^T A^n w path entries and
    sum_{d | n} p(d) / d cycle classes, where p(d) = tr A^d -
    sum_{e | d, e < d} p(e) counts the closed walks of least period d."""
    if not isinstance(max_length, int) or isinstance(max_length, bool):
        raise DomainError(f"walk length bound must be an integer, got {max_length!r}")
    if max_length < 0:
        raise DomainError(f"walk length bound must be nonnegative, got {max_length}")
    w = [x.dim_w[v] for v in x.dq.vertices]
    into = [[x.dq.index(a.source) for a in x.dq.arrows_into(v)] for v in x.dq.vertices]
    rows = [[int(i == j) for j in range(len(w))] for i in range(len(w))] if necklaces else [w]
    primitive, size = [], 0  # primitive[d]: the closed walks of least period d > 0
    for n in range(max_length + 1):  # rows: the rows of A^n, or w^T A^n
        if necklaces:
            divisors = {d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}
            trace = sum(row[i] for i, row in enumerate(rows))
            primitive.append(trace - sum(primitive[d] for d in divisors - {n}))
            count = sum(primitive[d] // d for d in divisors)
        else:
            count = sum(a * b for a, b in zip(rows[0], w))
        size += (1 + n) * count
        if size > WALK_BUDGET:
            kind = "cycle traces" if necklaces else "path entries"
            return n - 1, (
                f"{kind} up to length {max_length} hold {size} entries and letters by length "
                f"{n}, over the budget of {WALK_BUDGET}; the largest bound under it is {n - 1}"
            )
        rows = [[sum(map(row.__getitem__, sources)) for sources in into] for row in rows]
        if not any(map(any, rows)):  # no walk is longer than n
            return None
    return None


def _check_bound(x: FramedRep, max_length: int, necklaces: bool) -> None:
    """Raise the refusal of one kind, if it has one."""
    refusal = _refusal(x, max_length, necklaces)
    if refusal:
        raise DomainError(refusal[1])


def _walks(x: FramedRep, starts: list[tuple], max_length: int, necklaces: bool) -> dict[tuple, list[tuple]]:
    """(word, product) for every walk of length at most max_length from an
    (origin, seed, dist) start that ends at distance 0, with ``necklaces``
    only the nonempty closed necklaces.  The walks are bucketed by (length,
    first arrow) with ``necklaces`` and by (length, origin, end) without,
    each bucket in increasing word order.  The product is the path matrix
    times seed, or None when it is zero."""
    B = x.B
    # (name, target) per arrow out of each vertex, pushed in decreasing name
    # order so the least name is popped first: the walk is then a preorder
    # in name order, which meets the words of one length in increasing order
    out_of = {
        v: sorted(((a.name, a.target) for a in x.dq.arrows_out_of(v)), reverse=True) for v in x.dq.vertices
    }
    buckets: dict[tuple, list[tuple]] = defaultdict(list)
    for origin, seed, dist in starts:
        # entries (word, here, product, period): the walk `word` ends at `here`
        stack: list[tuple] = [((), origin, None if seed.is_zero else seed, 1)]
        while stack:
            word, here, product, period = stack.pop()
            n = len(word)
            if dist[here] == 0 and (not necklaces or (n and n % period == 0)):
                buckets[(n, word[0]) if necklaces else (n, origin, here)].append((word, product))
            if n == max_length:
                continue
            least = word[n - period] if necklaces and n else ""  # "" sorts below every name
            left = max_length - n
            for name, target in out_of[here]:
                if name >= least and dist.get(target, max_length) < left:
                    step = None if product is None else B[name] @ product
                    if step is not None and step.is_zero:
                        step = None
                    stack.append((word + (name,), target, step, period if name == least else n + 1))
    return buckets


def cycle_traces(x: FramedRep, max_length: int) -> list[tuple[CycleLabel, Fraction]]:
    """Traces of the closed walks of length 1..max_length, one per rotation
    class, in (length, word) order."""
    _check_bound(x, max_length, necklaces=True)
    return [(label[1:], value) for label, value in _cycle_traces(x, max_length)]


def _cycle_traces(x: FramedRep, max_length: int) -> list[FingerprintEntry]:
    """The cycle traces, each label led by "cycle"."""
    starts = [(v, RatMatrix.identity(x.dim_v[v]), _distances(x, [v])) for v in x.dq.vertices]
    buckets = _walks(x, starts, max_length, necklaces=True)
    return [
        (("cycle",) + word, _ZERO if product is None else product.trace())
        for key in sorted(buckets)
        for word, product in buckets[key]
    ]


def path_invariants(x: FramedRep, max_length: int) -> list[tuple[PathLabel, Fraction]]:
    """Entries of J_end (path product) I_origin for every walk between framed
    vertices (both ends with positive W), the empty walk included, in
    (length, origin index, end index, word, row, column) order."""
    _check_bound(x, max_length, necklaces=False)
    return [(label[1:], value) for label, value in _path_invariants(x, max_length)]


def _path_invariants(x: FramedRep, max_length: int) -> list[FingerprintEntry]:
    """The path entries, each label led by "path"."""
    index = {v: k for k, v in enumerate(x.dq.vertices)}
    dim_w = x.dim_w.as_dict()
    framed = [v for v in x.dq.vertices if dim_w[v] > 0]
    dist = _distances(x, framed)
    buckets = _walks(x, [(v, x.I[v], dist) for v in framed], max_length, necklaces=False)
    out = []
    for key in sorted(buckets, key=lambda k: (k[0], index[k[1]], index[k[2]])):
        _, origin, end = key
        zeros, J = ((_ZERO,) * dim_w[origin],) * dim_w[end], x.J[end]
        for word, product in buckets[key]:
            for r, row in enumerate(zeros if product is None else (J @ product).data):
                for c, value in enumerate(row):
                    out.append((("path", origin, word, end, r, c), value))
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
    # both kinds are counted before either is walked; the refusal names the
    # smaller largest bound, the paths' on a tie
    refusals = [r for r in (_refusal(x, bound, False), _refusal(x, bound, True)) if r]
    if refusals:
        raise DomainError(min(refusals, key=lambda r: r[0])[1])
    return _cycle_traces(x, bound) + _path_invariants(x, bound)


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
