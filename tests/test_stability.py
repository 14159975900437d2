import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivex import acceptance, stability
from quivex.bundles import a1_bundle, a2crystal_bundle, an_bundle, d4_bundle
from quivex.errors import NotFlatError, QuiverMismatchError, UnsupportedZetaError
from quivex.hecke import sample_flat_crystal
from quivex.quiver import Arrow, DimVector, Quiver, ZetaParam, ade_minimal_resolution_setup, cb_transform, double
from quivex.ratmat import RatMatrix, column_space_echelon, hstack, kernel_basis, rank, vstack
from quivex.rep import (
    FramedRep,
    conjugate,
    is_flat,
    sample_flat,
    simple_rep,
    transpose,
)
from quivex.stability import (
    GradedSubspace,
    is_stable,
    max_invariant_in_kerJ,
    min_invariant_over_imI,
    stabilizer_trivial,
)

A1 = ade_minimal_resolution_setup("A1")[0]
A2 = ade_minimal_resolution_setup("A2")[0]
DQ1 = double(A1)
DQ2 = double(A2)
POS1 = ZetaParam.constant(A1, 1)
NEG1 = ZetaParam.constant(A1, -1)
POS2 = ZetaParam.constant(A2, 1)
D4, _, D4_W = ade_minimal_resolution_setup("D4")
AFFINE_D4 = cb_transform(D4, D4_W)[0]  # the framing rewrite: a fourth leg at the centre
E6 = ade_minimal_resolution_setup("E6")[0]


def test_a1_positive_zeta_iff_J_injective():
    bundle = a1_bundle(3, 1)
    assert is_stable(bundle.reps["stable"], POS1).stable
    verdict = is_stable(bundle.reps["unstable"], POS1)
    assert not verdict.stable
    assert verdict.witness is not None and verdict.witness.total() > 0


def test_a1_negative_zeta_iff_I_surjective():
    k, n = 1, 3
    v, w = DimVector.of(A1, {"1": k}), DimVector.of(A1, {"1": n})
    surj = FramedRep(
        DQ1, v, w,
        I={"1": RatMatrix.from_rows([[1, 0, 0]])},
        J={"1": RatMatrix.from_rows([[0], [1], [2]])},
    )
    assert is_flat(surj)
    assert is_stable(surj, NEG1).stable
    zero_I = FramedRep(DQ1, v, w, J={"1": RatMatrix.from_rows([[1], [0], [0]])})
    verdict = is_stable(zero_I, NEG1)
    assert not verdict.stable
    assert verdict.witness.dims() == {"1": 0}


def test_max_invariant_extremes():
    v = DimVector.of(A2, {"1": 2, "2": 1})
    x = FramedRep(DQ2, v, DimVector.zero(A2))
    s = max_invariant_in_kerJ(x)
    assert s.dims() == {"1": 2, "2": 1}
    bundle = a1_bundle(3, 2)
    assert max_invariant_in_kerJ(bundle.reps["stable"]).is_zero()


def test_min_invariant_extremes():
    k, n = 2, 3
    v, w = DimVector.of(A1, {"1": k}), DimVector.of(A1, {"1": n})
    surj = FramedRep(DQ1, v, w, I={"1": RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]])})
    assert not is_flat(surj) or True  # min_invariant does not need flatness
    t = min_invariant_over_imI(surj)
    assert t.dims() == {"1": k}
    zero = FramedRep(DQ1, v, w)
    assert min_invariant_over_imI(zero).is_zero()


def test_max_invariant_output_properties():
    # the computed subspace sits inside ker J and is preserved by every arrow
    x = a2crystal_bundle().reps["generic"]
    bad = FramedRep(x.dq, x.dim_v, x.dim_w, B=x.B, I=x.I)  # J dropped: bigger kernel
    s = max_invariant_in_kerJ(bad)
    for i in x.dq.vertices:
        block = s.blocks[i]
        assert (bad.J[i] @ block).is_zero
    for a in x.dq.arrows:
        image = bad.B[a.name] @ s.blocks[a.source]
        stacked_rank = rank_of_union(s.blocks[a.target], image)
        assert stacked_rank == s.blocks[a.target].cols


def rank_of_union(basis, extra):
    return rank(hstack([basis, extra]))


def test_broken_chain_unstable_when_vertex_dies():
    # killing both maps out of a vertex leaves an invariant line in ker J
    bundle = an_bundle(3)
    x = bundle.reps["broken_2"]
    crippled_B = dict(x.B)
    crippled_B["2->3"] = RatMatrix.zeros(1, 1)
    crippled_B["1->2*"] = RatMatrix.zeros(1, 1)
    y = FramedRep(x.dq, x.dim_v, x.dim_w, crippled_B, x.I, x.J)
    assert is_flat(y)
    verdict = is_stable(y, ZetaParam.constant(x.dq, 1))
    assert not verdict.stable
    assert verdict.witness.dims()["2"] == 1


def test_mixed_zeta_rejected():
    x = simple_rep(DQ2, "1")
    with pytest.raises(UnsupportedZetaError):
        is_stable(x, ZetaParam.of(A2, {"1": 1, "2": -1}))


@pytest.mark.parametrize("other", [A1, D4], ids=["A1", "D4"])
def test_zeta_of_another_quiver_rejected(other):
    # checked before flatness, so a non-flat point gets the same error
    one = RatMatrix.from_rows([[1]])
    v = DimVector.of(A2, {"1": 1, "2": 1})
    bad = FramedRep(DQ2, v, DimVector.zero(A2), B={"1->2": one, "1->2*": one})
    for x in (simple_rep(DQ2, "1"), bad):
        for sign in (1, -1):
            with pytest.raises(QuiverMismatchError):
                is_stable(x, ZetaParam.constant(other, sign))


def test_nonflat_rejected():
    one = RatMatrix.from_rows([[1]])
    v = DimVector.of(A2, {"1": 1, "2": 1})
    bad = FramedRep(DQ2, v, DimVector.zero(A2), B={"1->2": one, "1->2*": one})
    with pytest.raises(NotFlatError):
        is_stable(bad, POS2)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_verdict_invariant_under_conjugation(seed):
    v = DimVector.of(A2, {"1": 1, "2": 2})
    w = DimVector.of(A2, {"1": 1, "2": 2})
    x = sample_flat_crystal(DQ2, v, w, seed)
    if x is None:
        return
    g = {"1": RatMatrix.from_rows([[3]]), "2": RatMatrix.from_rows([[1, 2], [0, 1]])}
    assert is_stable(x, POS2).stable == is_stable(conjugate(x, g), POS2).stable


def test_stable_implies_trivial_stabilizer():
    for name, x in a2crystal_bundle().reps.items():
        assert is_stable(x, POS2).stable
        assert stabilizer_trivial(x)


def test_stabilizer_not_trivial_on_degenerate_points():
    zero = FramedRep(DQ2, DimVector.of(A2, {"1": 1, "2": 1}), DimVector.zero(A2))
    assert not stabilizer_trivial(zero)
    assert not stabilizer_trivial(simple_rep(DQ2, "1"))


# ------------------------------- reference: decreasing fixed point inside Ker J


def _reference_max_invariant_in_kerJ(x: FramedRep) -> GradedSubspace:
    """Intersect Ker J with the arrow preimages until a pass changes nothing."""
    dq = x.dq

    def annihilator_rows(m):
        return hstack(kernel_basis(m.transpose()), rows=m.rows).transpose()

    basis = {
        i: column_space_echelon(hstack(kernel_basis(x.J[i]), rows=x.dim_v[i]))
        for i in dq.vertices
    }
    while True:
        ann = {i: annihilator_rows(basis[i]) for i in dq.vertices}
        new_basis = {}
        changed = False
        for i in dq.vertices:
            m = basis[i]
            constraints = [ann[a.target] @ x.B[a.name] for a in dq.arrows_out_of(i)]
            if constraints:
                stacked = vstack(constraints, cols=x.dim_v[i])
                inner = hstack(kernel_basis(stacked @ m), rows=m.cols)
                new = column_space_echelon(m @ inner)
            else:
                new = m
            if new.cols != m.cols:
                changed = True
            new_basis[i] = new
        basis = new_basis
        if not changed:
            return GradedSubspace(basis)


def _reference_min_invariant_over_imI(x: FramedRep) -> GradedSubspace:
    """Recompute every vertex from the previous pass until none grows."""
    dq = x.dq
    basis = {i: column_space_echelon(x.I[i]) for i in dq.vertices}
    while True:
        new_basis = {}
        for i in dq.vertices:
            pieces = [basis[i]] + [x.B[a.name] @ basis[a.source] for a in dq.arrows_into(i)]
            new_basis[i] = column_space_echelon(hstack(pieces, rows=x.dim_v[i]))
        if all(new_basis[i].cols == basis[i].cols for i in dq.vertices):
            return GradedSubspace(new_basis)
        basis = new_basis


def _reference_verdict(x: FramedRep, sign: int) -> tuple:
    if sign > 0:
        s = _reference_max_invariant_in_kerJ(x)
        return (True, None) if s.is_zero() else (False, s.blocks)
    t = _reference_min_invariant_over_imI(x)
    return (True, None) if t.equals_ambient(x.dim_v) else (False, t.blocks)


JORDAN = Quiver(["1"], [Arrow("t", "1", "1")])
KRONECKER = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
A3 = ade_minimal_resolution_setup("A3")[0]


def _seeded_rep(q: Quiver, seed: int, zero_share: float) -> FramedRep:
    """Random fibers of dimension 0..3 and blocks whose entries are 0 with
    probability ``zero_share`` (1 gives zero matrices); not flat in general."""
    rng = random.Random(seed)
    dq = double(q)
    v = DimVector.of(q, {i: rng.randint(0, 3) for i in q.vertices})
    w = DimVector.of(q, {i: rng.randint(0, 2) for i in q.vertices})

    def block(rows, cols):
        entries = [
            [0 if rng.random() < zero_share else Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        return RatMatrix.from_rows(entries, cols=cols)

    B = {a.name: block(v[a.target], v[a.source]) for a in dq.arrows}
    I = {i: block(v[i], w[i]) for i in dq.vertices}
    J = {i: block(w[i], v[i]) for i in dq.vertices}
    return FramedRep(dq, v, w, B, I, J)


def _seeded_flat(q: Quiver, seed: int) -> list[FramedRep]:
    rng = random.Random(seed)
    dq = double(q)
    v = DimVector.of(q, {i: rng.randint(0, 3) for i in q.vertices})
    w = DimVector.of(q, {i: rng.randint(0, 2) for i in q.vertices})
    return [sample_flat(dq, v, w, seed, half=half) for half in ("forward", "reverse")]


@pytest.fixture(scope="module")
def corpus():
    return acceptance.build_corpus(acceptance.DEFAULT_SEED).all_samples()


QUIVERS = {"Jordan": JORDAN, "Kronecker": KRONECKER, "A3": A3, "D4": D4, "affine-D4": AFFINE_D4, "E6": E6}
ZERO_SHARE = {"dense": 0.0, "sparse": 0.7, "zero": 1.0}


def _a1_samples() -> list[FramedRep]:
    q = ade_minimal_resolution_setup("A1")[0]
    dq = double(q)
    out = []
    for n in range(7):
        for k in range(n + 1):
            rng = random.Random(101 * n + k)
            v, w = DimVector.of(q, {"1": k}), DimVector.of(q, {"1": n})
            out.extend(acceptance._a1_flat_sample(dq, v, w, rng)[0] for _ in range(3))
    return out


def _check_against_reference(x: FramedRep) -> None:
    assert max_invariant_in_kerJ(x).blocks == _reference_max_invariant_in_kerJ(x).blocks
    assert min_invariant_over_imI(x).blocks == _reference_min_invariant_over_imI(x).blocks
    if not is_flat(x):
        return
    for sign in (1, -1):
        verdict = is_stable(x, ZetaParam.constant(x.dq, sign))
        witness = None if verdict.witness is None else verdict.witness.blocks
        assert (verdict.stable, witness) == _reference_verdict(x, sign)


def test_max_invariant_matches_decreasing_reference_on_corpus(corpus):
    assert len(corpus) == 45
    for x in corpus:
        _check_against_reference(x)


@pytest.mark.parametrize("kind", [*ZERO_SHARE, "flat"])
@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_max_invariant_matches_decreasing_reference_on_seeded_reps(name, kind):
    q = QUIVERS[name]
    if kind == "flat":
        reps = [y for seed in range(6) for y in _seeded_flat(q, seed)]
    else:
        reps = [_seeded_rep(q, seed, ZERO_SHARE[kind]) for seed in range(12)]
    for x in reps:
        _check_against_reference(x)


def test_max_invariant_matches_decreasing_reference_on_a1_samples():
    samples = _a1_samples()
    assert {is_stable(x, POS1).stable for x in samples} == {True, False}
    for x in samples:
        _check_against_reference(x)


def test_witness_is_built_on_first_read_and_equals_reference(monkeypatch):
    """``stable`` builds no witness; the first read of ``witness`` builds it
    (one annihilator on the positive side, none on the negative side) and a
    second read returns the same object."""
    built = []
    annihilator = stability._annihilator
    monkeypatch.setattr(stability, "_annihilator", lambda t: built.append(t) or annihilator(t))
    seeded = [_seeded_rep(QUIVERS[name], seed, share) for name in sorted(QUIVERS) for share in ZERO_SHARE.values() for seed in range(12)]
    points = _a1_samples() + [x for x in seeded if is_flat(x)]
    unstable = {1: 0, -1: 0}
    for x in points:
        for sign in (1, -1):
            built.clear()
            verdict = is_stable(x, ZetaParam.constant(x.dq, sign))
            assert not built
            witness = verdict.witness
            assert verdict.witness is witness
            assert len(built) == int(sign > 0 and not verdict.stable)
            blocks = None if witness is None else witness.blocks
            assert (verdict.stable, blocks) == _reference_verdict(x, sign)
            unstable[sign] += not verdict.stable
    assert len(points) > 100 and min(unstable.values()) > 10


def test_transpose_swaps_the_signs(corpus):
    for x in corpus + [y for b in (a1_bundle(3, 2), an_bundle(4), d4_bundle()) for y in b.reps.values()]:
        pos, neg = ZetaParam.constant(x.dq, 1), ZetaParam.constant(x.dq, -1)
        assert is_stable(x, pos).stable == is_stable(transpose(x), neg).stable
        assert is_stable(x, neg).stable == is_stable(transpose(x), pos).stable


def test_kerJ_side_eliminates_less_than_reference(eliminations):
    """Ker J by the row-space fixed point on the point itself: one
    elimination per vertex per pass plus the annihilator, against three per
    vertex per pass for the reference; the verdict skips the annihilator."""
    x = d4_bundle().reps["point"]
    expected = _reference_max_invariant_in_kerJ(x)
    reference_calls = len(eliminations)
    eliminations.clear()
    assert max_invariant_in_kerJ(x) == expected
    subspace_calls = len(eliminations)
    eliminations.clear()
    assert is_stable(x, ZetaParam.constant(x.dq, 1)).stable
    assert reference_calls == 44
    assert subspace_calls < reference_calls
    assert len(eliminations) < subspace_calls


def test_fixed_point_recomputes_only_stale_vertices(eliminations):
    """A pass recomputes a vertex only after an in-neighbour grew since its
    last recomputation, so a point without arrows is decided by its one
    initial elimination."""

    def positive_verdict_calls(x):
        eliminations.clear()
        assert is_stable(x, ZetaParam.constant(x.dq, 1)).stable
        return len(eliminations)

    assert positive_verdict_calls(a1_bundle(3, 1).reps["stable"]) == 1
    assert positive_verdict_calls(d4_bundle().reps["point"]) == 10


def test_verdicts_make_no_back_substitution(back_substitutions):
    """A verdict reads the ranks of the forward-pass rows alone.  Reading the
    witness reduces: the kernel rows of a positive one always, the blocks
    of a negative one where a block has two rows or more."""
    seeded = [y for q in QUIVERS.values() for seed in range(6) for y in _seeded_flat(q, seed)]
    points = _a1_samples() + seeded + [d4_bundle().reps["point"]]
    unstable = {1: 0, -1: 0}
    for x in points:
        for sign in (1, -1):
            back_substitutions.clear()
            verdict = is_stable(x, ZetaParam.constant(x.dq, sign))
            assert back_substitutions == []
            if verdict.stable:
                continue
            unstable[sign] += 1
            dims = verdict.witness.dims().values()
            if sign > 0 or max(dims) >= 2:
                assert len(back_substitutions) >= 1
    assert min(unstable.values()) > 10


def test_only_the_negative_verdict_transposes_the_point(monkeypatch):
    """Counted calls: a positive verdict runs the fixed point on the point
    itself, a negative one on one transposed copy; neither witness
    transposes the point again."""
    transposes = []
    real = stability.transpose
    monkeypatch.setattr(stability, "transpose", lambda x: transposes.append(x) or real(x))
    for x in [y for b in (a1_bundle(3, 2), an_bundle(3), d4_bundle()) for y in b.reps.values()]:
        for sign, expected in ((1, []), (-1, [x])):
            transposes.clear()
            verdict = is_stable(x, ZetaParam.constant(x.dq, sign))
            verdict.witness
            assert transposes == expected
