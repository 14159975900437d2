"""Named example bundles: the quiver, dimension data and distinguished
representations of the worked rank-one, chain, star and crystal setups.

Bundles are deterministic constructions (no randomness); the chain sampler
that produces flat points with every invariant nonzero lives alongside them
because the acceptance checks for the chain relation need it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FormatError, UnknownExampleError, WrongSetupError
from .quiver import DimVector, DoubledQuiver, ade_minimal_resolution_setup, double
from .ratmat import RatMatrix
from .rep import FramedRep


@dataclass(frozen=True)
class ExampleBundle:
    name: str
    dq: DoubledQuiver
    dim_v: DimVector
    dim_w: DimVector
    reps: dict[str, FramedRep] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)


def a1_bundle(n: int, k: int) -> ExampleBundle:
    """One framed vertex: fiber dimension k against framing dimension n.

    The ``stable`` member has injective J with I J = 0; the ``unstable``
    member (present when 0 < k) kills a J column.
    """
    if n < 0 or k < 0:
        raise UnknownExampleError("a1 needs nonnegative n and k")
    q, _, _ = ade_minimal_resolution_setup("A1")
    dq = double(q)
    dim_v = DimVector.of(q, {"1": k})
    dim_w = DimVector.of(q, {"1": n})
    reps: dict[str, FramedRep] = {}
    if k <= n:
        j_stable = RatMatrix.from_rows(
            [[1 if r == c else 0 for c in range(k)] for r in range(n)], cols=k
        )
        i_stable = RatMatrix.from_rows(
            [[1 if c >= k else 0 for c in range(n)] for _ in range(k)], cols=n
        )
        reps["stable"] = FramedRep(dq, dim_v, dim_w, I={"1": i_stable}, J={"1": j_stable})
    if k > 0:
        j_bad = RatMatrix.from_rows(
            [[1 if (r == c and c < k - 1) else 0 for c in range(k)] for r in range(n)], cols=k
        )
        reps["unstable"] = FramedRep(dq, dim_v, dim_w, J={"1": j_bad})
    return ExampleBundle(
        "a1",
        dq,
        dim_v,
        dim_w,
        reps,
        {"stable": "J injective, I J = 0", "unstable": "J has a kernel line"},
    )


def an_bundle(n: int) -> ExampleBundle:
    """The chain of n one-dimensional fibers framed at both ends, with the
    n distinguished zero-fingerprint points: at ``broken_i`` all maps point
    away from vertex i and are normalized to 1."""
    if n < 2:
        raise UnknownExampleError("an needs n >= 2")
    q, dim_v, dim_w = ade_minimal_resolution_setup(f"A{n}")
    dq = double(q)
    one = RatMatrix.from_rows([[1]])
    reps = {}
    for i in range(1, n + 1):
        B = {}
        for j in range(1, i):
            B[dq.bar(f"{j}->{j + 1}")] = one
        for j in range(i, n):
            B[f"{j}->{j + 1}"] = one
        reps[f"broken_{i}"] = FramedRep(
            dq, dim_v, dim_w, B, J={"1": one, str(n): one}
        )
    return ExampleBundle("an", dq, dim_v, dim_w, reps)


def an_chain_sample(bundle: ExampleBundle, seed: int) -> FramedRep:
    """A seed-deterministic flat point of the chain setup of ``bundle``, an
    ``an`` bundle (any other is a ``WrongSetupError``), generically with all
    three generating invariants nonzero.

    Solves the scalar moment-map relations in closed form: every edge
    product equals the framing product at the left end, with the sign flip
    at the right end.
    """
    if bundle.name != "an":
        raise WrongSetupError(f"an_chain_sample needs an 'an' bundle, got {bundle.name!r}")
    dq, dim_v, dim_w = bundle.dq, bundle.dim_v, bundle.dim_w
    n = len(dq.vertices)
    rng = random.Random(seed)

    def nonzero() -> Fraction:
        value = 0
        while value == 0:
            value = rng.randint(-3, 3)
        return Fraction(value)

    def block(f: Fraction) -> RatMatrix:
        return RatMatrix.from_integers(1, 1, ((f.numerator,),), f.denominator)

    c = Fraction(rng.randint(-2, 2))  # common edge product; 0 gives a degenerate chain
    B = {}
    for j in range(1, n):
        forward = nonzero()
        B[f"{j}->{j + 1}"] = block(forward)
        B[dq.bar(f"{j}->{j + 1}")] = block(c / forward)
    j1 = nonzero()
    jn = nonzero()
    I = {"1": block(c / j1), str(n): block(-c / jn)}
    J = {"1": block(j1), str(n): block(jn)}
    return FramedRep(dq, dim_v, dim_w, B, I, J)


def d4_bundle() -> ExampleBundle:
    """The star setup: three one-dimensional leaves feeding a two-dimensional
    center framed by a line.

    ``core`` is the rigid all-ones point with the center squeezed to one
    dimension; ``point`` extends it by one extension class at the center and
    is a stable point of the full setup.
    """
    q, dim_v, dim_w = ade_minimal_resolution_setup("D4")
    dq = double(q)
    one = RatMatrix.from_rows([[1]])
    core_dims = DimVector.of(q, {"1": 1, "2": 1, "3": 1, "4": 1})
    core = FramedRep(
        dq,
        core_dims,
        dim_w,
        B={"1->2": one, "3->2": one, "4->2": one},
        J={"2": one},
    )
    into_center = RatMatrix.from_rows([[1], [0]])
    point = FramedRep(
        dq,
        dim_v,
        dim_w,
        B={
            "1->2": into_center,
            "3->2": into_center,
            "4->2": into_center,
            "1->2*": RatMatrix.from_rows([[0, 1]]),
            "3->2*": RatMatrix.from_rows([[0, -1]]),
        },
        J={"2": RatMatrix.from_rows([[1, 0]])},
    )
    return ExampleBundle(
        "d4",
        dq,
        dim_v,
        dim_w,
        {"core": core, "point": point},
        {"core": "center squeezed to one dimension", "point": "extension of core at the center"},
    )


def a2crystal_bundle() -> ExampleBundle:
    """The two-vertex setup of the blowup story: fibers (1, 2) framed by
    (1, 2), nonzero maps being the chain-reversing arrow and both J's.

    ``generic`` has that arrow nonzero, ``special`` sets it to zero; both are
    stable, and the Hom space to the simple at vertex 1 jumps from 0 to 1
    between them.
    """
    q, _, _ = ade_minimal_resolution_setup("A2")
    dq = double(q)
    dim_v = DimVector.of(q, {"1": 1, "2": 2})
    dim_w = DimVector.of(q, {"1": 1, "2": 2})
    one = RatMatrix.from_rows([[1]])
    generic = FramedRep(
        dq,
        dim_v,
        dim_w,
        B={"1->2*": RatMatrix.from_rows([[1, 0]])},
        J={"1": one, "2": RatMatrix.from_rows([[0, 1], [0, 0]])},
    )
    special = FramedRep(
        dq,
        dim_v,
        dim_w,
        J={"1": one, "2": RatMatrix.identity(2)},
    )
    return ExampleBundle(
        "a2crystal",
        dq,
        dim_v,
        dim_w,
        {"generic": generic, "special": special},
        {"generic": "reversing arrow nonzero", "special": "reversing arrow zero"},
    )


# name -> (factory, its parameters with their defaults)
BUNDLES = {
    "a1": (a1_bundle, {"n": 2, "k": 1}),
    "an": (an_bundle, {"n": 2}),
    "d4": (d4_bundle, {}),
    "a2crystal": (a2crystal_bundle, {}),
}

EXAMPLE_NAMES = tuple(BUNDLES)


def get_bundle(name: str, **params) -> ExampleBundle:
    """The named bundle; a parameter it does not take, or one that is not an
    ``int`` (a bool is not an int here), is a ``FormatError``."""
    try:
        factory, defaults = BUNDLES[name.lower()]
    except KeyError:
        raise UnknownExampleError(f"unknown example {name!r}") from None
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise FormatError(
            f"example {name!r} does not take {', '.join(unknown)}; "
            f"it takes: {', '.join(defaults) or 'none'}"
        )
    for key, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise FormatError(f"example {name!r} parameter {key} must be an integer, got {value!r}")
    return factory(**{**defaults, **params})
