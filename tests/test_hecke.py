import hashlib
import json
import random
from itertools import chain, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivex import formats, hecke, homext
from quivex.acceptance import DEFAULT_SEED, build_corpus
from quivex.bundles import a2crystal_bundle, d4_bundle
from quivex.errors import DependentClassesError, DimensionError, DomainError, InternalCheckError, QuiverMismatchError
from quivex.hecke import (
    are_isomorphic,
    epsilon_i,
    ext_space_i,
    extend_i,
    recovery_classes,
    reduce_i,
    sample_flat_crystal,
)
from quivex.invariants import pi_fingerprint
from quivex.quiver import Arrow, DimVector, Quiver, ZetaParam, ade_minimal_resolution_setup, chi, d_of, double
from quivex.ratmat import RatMatrix
from quivex.rep import FramedRep, conjugate, is_flat, sample_flat, simple_rep
from quivex.stability import is_stable
from test_homext import ladder_pools

A2 = ade_minimal_resolution_setup("A2")[0]
DQ2 = double(A2)
POS = ZetaParam.constant(A2, 1)


@pytest.fixture(scope="module")
def crystal():
    return a2crystal_bundle()


def test_epsilon_simple_itself():
    s = simple_rep(DQ2, "1")
    assert epsilon_i(s, "1") == 1
    assert epsilon_i(s, "2") == 0


def test_epsilon_on_crystal_points(crystal):
    generic = crystal.reps["generic"]
    special = crystal.reps["special"]
    assert epsilon_i(generic, "1") == 0
    assert epsilon_i(special, "1") == 1  # the jump at the special point
    assert epsilon_i(generic, "2") == 2
    assert epsilon_i(special, "2") == 2


def test_epsilon_rejects_loops():
    dq = double(Quiver(["1"], [Arrow("l", "1", "1")]))
    with pytest.raises(DomainError):
        epsilon_i(simple_rep(dq, "1"), "1")


def test_crystal_sampler_meets_the_loop_check():
    # a step extends like extend_i, so the first step that has a class fails
    q = Quiver(["1"], [Arrow("l", "1", "1")])
    one = DimVector.of(q, {"1": 1})
    with pytest.raises(DomainError, match="^extend_i assumes a quiver without edge loops$"):
        sample_flat_crystal(double(q), one, one, 0)
    assert sample_flat_crystal(double(q), one, DimVector.zero(q), 0) is None


def test_reduce_noop_when_no_homs(crystal):
    generic = crystal.reps["generic"]
    red = reduce_i(generic, "1")
    assert red.r == 0
    assert red.reduced is generic


def test_reduce_lands_at_expected_dims(crystal):
    for name in ("generic", "special"):
        red = reduce_i(crystal.reps[name], "2")
        assert red.r == 2
        assert red.reduced.dim_v.as_dict() == {"1": 1, "2": 0}
        assert is_flat(red.reduced)
        assert is_stable(red.reduced, POS).stable
        assert epsilon_i(red.reduced, "2") == 0


def test_reduce_preserves_fingerprint(crystal):
    x = crystal.reps["generic"]
    red = reduce_i(x, "2")
    assert pi_fingerprint(x, 6) == pi_fingerprint(red.reduced, 6)


def test_reduce_inclusion_intertwines(crystal):
    x = crystal.reps["generic"]
    red = reduce_i(x, "2")
    inc = red.inclusion
    for a in DQ2.arrows:
        assert x.B[a.name] @ inc[a.source] == inc[a.target] @ red.reduced.B[a.name]
    for i in DQ2.vertices:
        assert inc[i] @ red.reduced.I[i] == x.I[i]
        assert x.J[i] @ inc[i] == red.reduced.J[i]


def test_ext_space_dimensions(crystal):
    assert len(ext_space_i(crystal.reps["generic"], "1")) == 1
    assert len(ext_space_i(crystal.reps["special"], "1")) == 2


def test_round_trip_is_isomorphic(crystal):
    for name in ("generic", "special"):
        x = crystal.reps[name]
        red = reduce_i(x, "2")
        classes = recovery_classes(x, "2", red)
        assert len(classes) == red.r
        rebuilt = extend_i(red.reduced, "2", classes)
        assert is_flat(rebuilt)
        assert is_stable(rebuilt, POS).stable
        assert are_isomorphic(rebuilt, x)


def test_dimension_identity_on_round_trip(crystal):
    x = crystal.reps["generic"]
    red = reduce_i(x, "2")
    small = red.reduced
    gap = d_of(A2, x.dim_v, x.dim_w) - d_of(A2, small.dim_v, small.dim_w)
    chi_small = chi(A2, DimVector.unit(A2, "2"), DimVector.zero(A2), small.dim_v, small.dim_w)
    assert gap == 2 * red.r * (chi_small - red.r) == 4


def test_recovery_refuses_an_unknown_vertex(crystal):
    # refused before the r = 0 return as well as past it
    x = crystal.reps["generic"]
    for vertex in ("1", "2"):
        with pytest.raises(DomainError, match="^unknown vertex '9'$"):
            recovery_classes(x, "9", reduce_i(x, vertex))


def test_recovery_refuses_a_reduction_of_another_point(crystal):
    # lowered at 2 instead of 1, then with x's V but no W, then over A3
    x = crystal.reps["generic"]
    unframed = FramedRep(DQ2, x.dim_v, DimVector.zero(A2))
    a3_simple = simple_rep(double(ade_minimal_resolution_setup("A3")[0]), "1")
    reductions = [
        reduce_i(x, "2"),
        hecke.ReductionResult(unframed, 0, {}),
        hecke.ReductionResult(a3_simple, 0, {}),
    ]
    for reduction in reductions:
        with pytest.raises(DomainError, match="^reduction is not one of x at '1'"):
            recovery_classes(x, "1", reduction)
    with pytest.raises(DomainError, match="^reduction is not a ReductionResult$"):
        recovery_classes(x, "2", 5)


def test_recovery_refuses_a_reduction_that_does_not_include_into_x(crystal):
    # special's reduction at 1 has generic's dimensions, but its inclusion
    # does not intertwine it with generic (epsilon_1(generic) = 0); then a
    # reduction of generic whose inclusion is not the identity away from 2
    generic, special = crystal.reps["generic"], crystal.reps["special"]
    own = reduce_i(generic, "2")
    reductions = [
        ("1", reduce_i(special, "1")),
        ("2", hecke.ReductionResult(own.reduced, own.r, {**own.inclusion, "1": RatMatrix.from_rows([[2]])})),
    ]
    for vertex, reduction in reductions:
        with pytest.raises(DomainError, match=f"^reduction is not one of x at '{vertex}': its inclusion"):
            recovery_classes(generic, vertex, reduction)


def test_extend_with_no_classes_is_identity(crystal):
    x = crystal.reps["generic"]
    assert extend_i(x, "1", []) is x


def test_extend_rejects_dependent_classes(crystal):
    x = crystal.reps["generic"]
    red = reduce_i(x, "2")
    classes = recovery_classes(x, "2", red)
    with pytest.raises(DependentClassesError):
        extend_i(red.reduced, "2", [classes[0], classes[0].scale(2)])


def test_extend_checks_independence_modulo_coboundaries(crystal):
    # one class at vertex 1 and one coboundary, the image of alpha
    x = crystal.reps["generic"]
    c = homext.build_complex(simple_rep(DQ2, "1"), x)
    (rep,) = c.ext1_reps()
    (coboundary,) = [c.alpha.column_matrix(j) for j in range(c.alpha.cols)]
    assert not coboundary.is_zero
    for classes in ([coboundary], [rep, rep], [rep, rep + coboundary]):
        with pytest.raises(DependentClassesError):
            extend_i(x, "1", classes)
    shifted = extend_i(x, "1", [rep + coboundary])
    assert is_flat(shifted)
    assert are_isomorphic(shifted, extend_i(x, "1", [rep]))


def test_round_trips_read_no_fraction(monkeypatch):
    """reduce, recover, extend and compare at every vertex of every member of
    the d4 and a2crystal bundles (12 round trips) on the stored integers."""
    members = [*d4_bundle().reps.values(), *a2crystal_bundle().reps.values()]

    def refuse(*args):
        raise AssertionError("an entry was read as a Fraction")

    monkeypatch.setattr(RatMatrix, "row", refuse)
    monkeypatch.setattr(RatMatrix, "__getitem__", refuse)
    trips = 0
    for x in members:
        for i in x.dq.vertices:
            red = reduce_i(x, i)
            rebuilt = extend_i(red.reduced, i, recovery_classes(x, i, red))
            assert are_isomorphic(rebuilt, x)
            trips += 1
    assert trips == 12


def test_extend_rejects_non_cocycles():
    # a middle vector violating the cocycle equation cannot extend flatly
    q, v, w = ade_minimal_resolution_setup("A2")
    x = FramedRep(DQ2, DimVector.of(q, {"1": 1, "2": 1}), w,
                  B={"1->2": RatMatrix.from_rows([[1]])},
                  I={"1": RatMatrix.from_rows([[2]])})
    assert is_flat(x)
    from quivex.homext import build_complex

    c = build_complex(simple_rep(DQ2, "2"), x)
    bad = None
    for k in range(c.middle.dim):
        candidate = RatMatrix.column([1 if t == k else 0 for t in range(c.middle.dim)])
        if not (c.beta @ candidate).is_zero:
            bad = candidate
            break
    assert bad is not None
    with pytest.raises(DomainError, match="cocycle"):
        extend_i(x, "2", [bad])


def test_extend_rejects_a_class_of_the_wrong_shape(crystal):
    x = crystal.reps["generic"]
    (rep,) = ext_space_i(x, "1")
    wrong = RatMatrix.column([0] * (rep.rows + 1))
    message = rf"^extension class has shape \({rep.rows + 1}, 1\), expected \({rep.rows}, 1\)$"
    with pytest.raises(DomainError, match=message):
        extend_i(x, "1", [wrong])


def test_extend_refuses_a_class_that_is_not_a_ratmatrix(crystal):
    with pytest.raises(DimensionError, match="^extension class is not a RatMatrix$"):
        extend_i(crystal.reps["generic"], "1", [[1, 2, 3]])
    with pytest.raises(DimensionError, match="^extension classes are not a list$"):
        extend_i(crystal.reps["generic"], "1", RatMatrix.column([0] * 3))


def test_reduce_requires_stability():
    zero = FramedRep(DQ2, DimVector.of(A2, {"1": 1, "2": 0}), DimVector.zero(A2))
    with pytest.raises(DomainError):
        reduce_i(zero, "1")


def test_are_isomorphic_basics(crystal):
    x = crystal.reps["generic"]
    assert are_isomorphic(x, x)
    g = {"1": RatMatrix.from_rows([[5]]), "2": RatMatrix.from_rows([[1, 3], [0, 2]])}
    assert are_isomorphic(x, conjugate(x, g))
    assert not are_isomorphic(simple_rep(DQ2, "1"), simple_rep(DQ2, "2"))
    assert not are_isomorphic(x, crystal.reps["special"])


def test_are_isomorphic_probes_from_minus_to_plus_dim_v(monkeypatch):
    """Neither pair is stable, so the particular solution is singular and the
    probe decides: every invertible map of the unframed A1 point V = (2)
    intertwines it with itself, while from B = 0 to B_a = [1] every
    intertwiner vanishes at vertex 1.  Each coefficient is drawn from
    [-d, d], d = sum dim V = 2."""
    bounds = []

    class Recorded(random.Random):
        def randint(self, a, b):
            bounds.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(random, "Random", Recorded)
    a1 = ade_minimal_resolution_setup("A1")[0]
    x = FramedRep(double(a1), DimVector.of(a1, {"1": 2}), DimVector.zero(a1))
    assert are_isomorphic(x, x)
    assert bounds and set(bounds) == {(-2, 2)}
    v = DimVector.of(A2, {"1": 1, "2": 1})
    y = FramedRep(DQ2, v, DimVector.zero(A2))
    z = FramedRep(DQ2, v, DimVector.zero(A2), B={"1->2": RatMatrix.from_rows([[1]])})
    bounds.clear()
    assert not are_isomorphic(y, z)
    assert len(bounds) == 64 and set(bounds) == {(-2, 2)}


def test_are_isomorphic_eliminates_alpha_once(eliminations):
    # the particular solution and the kernel come from one elimination
    x = d4_bundle().reps["point"]
    c = homext.build_complex(x, x)
    rows, cols = c.middle.dim, c.alpha.cols
    assert are_isomorphic(x, x)
    assert [s for s in eliminations if s[0] == rows and s[1] >= cols] == [(rows, cols + 1)]


def test_d4_point_reduces_to_core():
    bundle = d4_bundle()
    point = bundle.reps["point"]
    core = bundle.reps["core"]
    q = point.dq.base
    assert is_flat(point) and is_stable(point, ZetaParam.constant(q, 1)).stable
    assert epsilon_i(point, "2") == 1
    red = reduce_i(point, "2")
    assert red.reduced.dim_v.as_dict() == core.dim_v.as_dict()
    assert are_isomorphic(red.reduced, core)
    rebuilt = extend_i(red.reduced, "2", recovery_classes(point, "2", red))
    assert are_isomorphic(rebuilt, point)


def test_reduce_eliminates_the_image_once(eliminations):
    # maps into vertex 2 keep the image's pivot rows instead of solving
    # [image | m] each; the flatness and epsilon post-checks stay
    reduce_i(d4_bundle().reps["point"], "2")
    assert len(eliminations) == 14


def test_reduce_checks_maps_into_the_vertex_factor_through_the_image(monkeypatch):
    # on the d4 point beta's image at 2 is e_1; e_2 misses every arrow into 2
    monkeypatch.setattr(hecke, "column_space_echelon", lambda m: RatMatrix.from_rows([[0], [1]]))
    with pytest.raises(InternalCheckError, match="^arrow '1->2' does not map into the image of beta$"):
        reduce_i(d4_bundle().reps["point"], "2")


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=15)
def test_crystal_walk_round_trips(seed):
    v = DimVector.of(A2, {"1": 1, "2": 2})
    w = DimVector.of(A2, {"1": 1, "2": 2})
    x = sample_flat_crystal(DQ2, v, w, seed)
    if x is None or not is_stable(x, POS).stable:
        return
    for i in DQ2.vertices:
        if epsilon_i(x, i) == 0:
            continue
        red = reduce_i(x, i)
        rebuilt = extend_i(red.reduced, i, recovery_classes(x, i, red))
        assert are_isomorphic(rebuilt, x)


def test_isomorphism_across_quivers_is_refused():
    x = simple_rep(DQ2, "1")
    y = simple_rep(double(ade_minimal_resolution_setup("A3")[0]), "1")
    with pytest.raises(QuiverMismatchError, match="across different quivers"):
        are_isomorphic(x, y)


# ------------------------------------------- pinned outputs and work


def ladder_points():
    """The samples of the ladder benchmark's four pools, built as it builds
    them: forward, reverse, then the first of 40 crystal attempts that
    succeeds, or a forward sample at the next seed."""
    points = []
    for dq, v, w, base in ladder_pools().values():
        seeds = count(base)
        points += [sample_flat(dq, v, w, next(seeds)), sample_flat(dq, v, w, next(seeds), half="reverse")]
        for _ in range(40):
            crystal = sample_flat_crystal(dq, v, w, next(seeds))
            if crystal is not None:
                break
        points.append(crystal if crystal is not None else sample_flat(dq, v, w, next(seeds)))
    return points


def _hash_matrix(h, m):
    h.update(f"{m.shape} {m.nums} {m.den}\n".encode())


def _hash_rep(h, x):
    h.update(json.dumps(formats.rep_to_json(x), sort_keys=True).encode() + b"\n")


def test_round_trip_outputs_pinned():
    """sha256 over reduce, recovery_classes and extend_i at every vertex with
    epsilon_i > 0 of every zeta>0-stable point of the acceptance corpus and
    of the ladder benchmark's pools: the reduced point, the inclusion, the
    classes and the extended point; the digest was taken before the four
    block rules of the gauge action became ``rep.act``."""
    h = hashlib.sha256()
    trips = 0
    for x in [*chain.from_iterable(build_corpus(DEFAULT_SEED).pools.values()), *ladder_points()]:
        if x.dq.base.has_edge_loops or not is_stable(x, ZetaParam.constant(x.dq, 1)).stable:
            continue
        for i in x.dq.vertices:
            if epsilon_i(x, i) == 0:
                continue
            red = reduce_i(x, i)
            classes = recovery_classes(x, i, red)
            _hash_rep(h, red.reduced)
            for j in x.dq.vertices:
                _hash_matrix(h, red.inclusion[j])
            for vec in classes:
                _hash_matrix(h, vec)
            _hash_rep(h, extend_i(red.reduced, i, classes))
            trips += 1
    assert trips == 17
    assert h.hexdigest() == "aaff7c1e24eb7253b155c6123024802824166081d3b67f1289423924909d3c62"


def test_conjugate_outputs_pinned():
    """sha256 over ``conjugate`` of every acceptance corpus point by a seeded
    unipotent base change; the digest was taken before ``conjugate`` read
    ``rep.act``."""
    h = hashlib.sha256()
    rng = random.Random(DEFAULT_SEED)
    for x in chain.from_iterable(build_corpus(DEFAULT_SEED).pools.values()):
        g = {}
        for i in x.dq.vertices:
            n = x.dim_v[i]
            g[i] = RatMatrix.from_rows(
                [[int(r == c) if c <= r else rng.randint(-2, 2) for c in range(n)] for r in range(n)], cols=n
            )
        _hash_rep(h, conjugate(x, g))
    assert h.hexdigest() == "2a5737a2f0410b4e6c999b564983bcf8c10ab7d21dd1ca2a6de862c026e4d377"


@pytest.fixture
def work(monkeypatch, eliminations):
    """``work(call)`` runs call and returns the eliminations, complexes and
    matrix products it took, with its result."""
    builds, products = [], []
    init, matmul = homext.Complex3.__init__, RatMatrix.__matmul__

    def counting_init(self, x1, x2):
        builds.append(None)
        init(self, x1, x2)

    def counting_matmul(self, other):
        products.append(None)
        return matmul(self, other)

    monkeypatch.setattr(homext.Complex3, "__init__", counting_init)
    monkeypatch.setattr(RatMatrix, "__matmul__", counting_matmul)

    def run(call):
        for tally in (eliminations, builds, products):
            tally.clear()
        result = call()
        return (len(eliminations), len(builds), len(products)), result

    return run


@pytest.mark.parametrize(
    "bundle, name, pins",
    [
        (d4_bundle, "point", {"reduce": (14, 3, 18), "recovery": (0, 0, 8), "extend": (2, 1, 1)}),
        (a2crystal_bundle, "generic", {"reduce": (9, 3, 7), "recovery": (0, 0, 4), "extend": (2, 1, 2)}),
        (a2crystal_bundle, "special", {"reduce": (8, 3, 6), "recovery": (0, 0, 4), "extend": (2, 1, 2)}),
    ],
    ids=["d4-point", "a2crystal-generic", "a2crystal-special"],
)
def test_round_trip_work_pinned(work, bundle, name, pins):
    """(eliminations, complexes, matrix products) of reduce_i,
    recovery_classes and extend_i at vertex 2, each taken before the four
    block rules of the gauge action became ``rep.act``: a shorter statement
    must not buy its brevity with more work."""
    x = bundle().reps[name]
    reduce_work, red = work(lambda: reduce_i(x, "2"))
    recovery_work, classes = work(lambda: recovery_classes(x, "2", red))
    extend_work, _ = work(lambda: extend_i(red.reduced, "2", classes))
    assert {"reduce": reduce_work, "recovery": recovery_work, "extend": extend_work} == pins
