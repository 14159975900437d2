import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivex.bundles import a2crystal_bundle, an_bundle
from quivex.errors import BadPathError, DimensionError, DomainError, InconsistentSystemError, QuiverMismatchError
from quivex.formats import rep_from_json, rep_to_json
from quivex.hecke import sample_flat_crystal
from quivex.quiver import (
    Arrow,
    DimVector,
    Quiver,
    ade_minimal_resolution_setup,
    cb_extend_dim,
    cb_transform,
    dim_bigM,
    double,
)
from quivex.ratmat import RatMatrix, inverse, rank
from quivex.rep import (
    FramedRep,
    GradedEndo,
    act,
    block_shapes,
    cb_apply,
    conjugate,
    direct_sum,
    evaluate_path,
    is_flat,
    moment_map,
    sample_flat,
    simple_rep,
    transpose,
    _random_matrix,
)
from quivex.stability import is_stable

A1 = ade_minimal_resolution_setup("A1")[0]
A2 = ade_minimal_resolution_setup("A2")[0]
DQ1 = double(A1)
DQ2 = double(A2)


def a1_rep(k, n, I=None, J=None):
    return FramedRep(
        DQ1,
        DimVector.of(A1, {"1": k}),
        DimVector.of(A1, {"1": n}),
        I={"1": I} if I is not None else None,
        J={"1": J} if J is not None else None,
    )


def random_rep(dq, v, w, seed):
    """Fully random representation; generally not flat."""
    rng = random.Random(seed)

    def m(rows, cols):
        return RatMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols
        )

    B = {a.name: m(v[a.target], v[a.source]) for a in dq.arrows}
    I = {i: m(v[i], w[i]) for i in dq.vertices}
    J = {i: m(w[i], v[i]) for i in dq.vertices}
    return FramedRep(dq, v, w, B, I, J)


def test_moment_a1_orthogonal_framing():
    x = a1_rep(1, 2, I=RatMatrix.from_rows([[1, 0]]), J=RatMatrix.from_rows([[0], [1]]))
    assert moment_map(x).blocks["1"].is_zero
    assert is_flat(x)


def test_moment_a2_signs():
    one = RatMatrix.from_rows([[1]])
    v = DimVector.of(A2, {"1": 1, "2": 1})
    x = FramedRep(DQ2, v, DimVector.zero(A2), B={"1->2": one, "1->2*": one})
    mu = moment_map(x)
    assert mu.blocks["1"] == RatMatrix.from_rows([[-1]])
    assert mu.blocks["2"] == RatMatrix.from_rows([[1]])
    assert not is_flat(x)


def test_zero_rep_flat():
    x = FramedRep(DQ2, DimVector.of(A2, {"1": 2, "2": 1}), DimVector.zero(A2))
    assert is_flat(x)


def test_simple_rep():
    s = simple_rep(DQ2, "1")
    assert s.dim_v.as_dict() == {"1": 1, "2": 0}
    assert s.dim_w.total() == 0
    assert is_flat(s)
    assert moment_map(s).blocks["1"] == RatMatrix.zeros(1, 1)


def test_direct_sum_dims_and_flatness():
    x = sample_flat(DQ2, DimVector.of(A2, {"1": 1, "2": 2}), DimVector.of(A2, {"1": 1}), 5)
    y = sample_flat(DQ2, DimVector.of(A2, {"1": 2, "2": 1}), DimVector.of(A2, {"2": 2}), 6, half="reverse")
    s = direct_sum(x, y)
    assert s.dim_v.as_dict() == {"1": 3, "2": 3}
    assert s.dim_w.as_dict() == {"1": 1, "2": 2}
    assert is_flat(s)
    mu_x = moment_map(x).blocks["1"]
    mu_s = moment_map(s).blocks["1"]
    assert all(mu_s[i, j] == mu_x[i, j] for i in range(mu_x.rows) for j in range(mu_x.cols))


def test_direct_sum_quiver_mismatch():
    x = simple_rep(DQ1, "1")
    y = simple_rep(DQ2, "1")
    with pytest.raises(QuiverMismatchError):
        direct_sum(x, y)


def test_evaluate_path():
    bundle = an_bundle(3)
    x = bundle.reps["broken_1"]
    assert evaluate_path(x, [], start="2") == RatMatrix.identity(1)
    assert evaluate_path(x, ["1->2"]) == x.B["1->2"]
    chain = evaluate_path(x, ["1->2", "2->3"], start="1")
    assert chain == x.B["2->3"] @ x.B["1->2"]
    with pytest.raises(BadPathError):
        evaluate_path(x, ["1->2", "1->2"])
    with pytest.raises(BadPathError):
        evaluate_path(x, [], start=None)


def test_shape_validation():
    with pytest.raises(DimensionError):
        FramedRep(
            DQ1,
            DimVector.of(A1, {"1": 1}),
            DimVector.of(A1, {"1": 2}),
            I={"1": RatMatrix.identity(2)},
        )
    with pytest.raises(DimensionError):
        FramedRep(DQ2, DimVector.zero(A2), DimVector.zero(A2), B={"nope": RatMatrix.zeros(0, 0)})


def test_given_blocks_build_no_zero_matrix(monkeypatch):
    x = random_rep(DQ2, DimVector.of(A2, {"1": 2, "2": 1}), DimVector.of(A2, {"1": 1, "2": 1}), 7)
    built = []
    zeros = RatMatrix.zeros

    def counted(rows, cols):
        built.append((rows, cols))
        return zeros(rows, cols)

    monkeypatch.setattr(RatMatrix, "zeros", counted)
    y = FramedRep(DQ2, x.dim_v, x.dim_w, x.B, x.I, x.J)
    assert built == []
    assert y == x
    FramedRep(DQ2, x.dim_v, x.dim_w, x.B, x.I)
    assert built == [(1, 2), (1, 1)]


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_sample_flat_is_flat(seed):
    v = DimVector.of(A2, {"1": 2, "2": 2})
    w = DimVector.of(A2, {"1": 1, "2": 1})
    assert is_flat(sample_flat(DQ2, v, w, seed))
    assert is_flat(sample_flat(DQ2, v, w, seed, half="reverse"))


def test_sample_flat_seed_repeatable():
    v = DimVector.of(A2, {"1": 2, "2": 1})
    w = DimVector.of(A2, {"1": 1})
    assert sample_flat(DQ2, v, w, 42) == sample_flat(DQ2, v, w, 42)
    assert sample_flat(DQ2, v, w, 42) != sample_flat(DQ2, v, w, 43)


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (1, 1), (6, 6), (7, 2)])
def test_random_matrix_draws_as_randrange_does(rows, cols):
    # the generator must also end where randrange leaves it: callers draw on from it
    for seed in range(200):
        rng, drawn = random.Random(seed), random.Random(seed)
        reference = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        assert _random_matrix(drawn, rows, cols) == RatMatrix.from_rows(reference, cols=cols)
        assert drawn.getstate() == rng.getstate()


def test_sample_flat_unknown_half():
    v = DimVector.of(A2, {"1": 1, "2": 1})
    with pytest.raises(DomainError, match="unknown half 'x'"):
        sample_flat(DQ2, v, v, 0, half="x")


def test_sample_flat_crystal_flat_with_nonzero_J():
    v = DimVector.of(A2, {"1": 1, "2": 2})
    w = DimVector.of(A2, {"1": 1, "2": 2})
    x = sample_flat_crystal(DQ2, v, w, 7)
    assert x is not None
    assert is_flat(x)
    assert any(not x.J[i].is_zero for i in DQ2.vertices)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_trace_identity_on_arbitrary_reps(seed):
    # the arrow terms of the moment map cancel in pairs under the total trace
    v = DimVector.of(A2, {"1": 2, "2": 2})
    w = DimVector.of(A2, {"1": 1, "2": 2})
    x = random_rep(DQ2, v, w, seed)
    framing_trace = sum((x.I[i] @ x.J[i]).trace() for i in DQ2.vertices)
    assert sum(m.trace() for m in moment_map(x).blocks.values()) == framing_trace


def test_conjugate_preserves_flatness_and_moment():
    v = DimVector.of(A2, {"1": 1, "2": 2})
    w = DimVector.of(A2, {"1": 1, "2": 2})
    x = sample_flat_crystal(DQ2, v, w, 11)
    g = {"1": RatMatrix.from_rows([[2]]), "2": RatMatrix.from_rows([[1, 1], [0, 1]])}
    assert all(rank(m) == m.rows for m in g.values())
    y = conjugate(x, g)
    assert is_flat(y)
    assert y.dim_v == x.dim_v


@pytest.mark.parametrize(
    "g",
    [{"1": RatMatrix.identity(1)}, {"1": RatMatrix.identity(1), "2": RatMatrix.identity(2), "3": RatMatrix.identity(1)}],
    ids=["missing-vertex", "extra-key"],
)
def test_conjugate_keyed_to_other_vertices_rejected(g):
    x = FramedRep(DQ2, DimVector.of(A2, {"1": 1, "2": 2}), DimVector.zero(A2))
    with pytest.raises(QuiverMismatchError, match="^base change keyed to"):
        conjugate(x, g)


def test_dimension_vectors_over_another_quiver_rejected():
    v = DimVector.of(A1, [1])
    message = r"^mismatched vertex sets: \['1'\] where \['1', '2'\] is expected$"
    with pytest.raises(QuiverMismatchError, match=message):
        FramedRep(DQ2, v, v)


def test_conjugate_by_a_singular_block_names_it():
    x = FramedRep(DQ2, DimVector.of(A2, {"1": 1, "2": 2}), DimVector.zero(A2))
    g = {"1": RatMatrix.from_rows([[1]]), "2": RatMatrix.from_rows([[1, 2], [2, 4]])}
    with pytest.raises(InconsistentSystemError, match=r"^g\['2'\] is singular$"):
        conjugate(x, g)


JORDAN = Quiver(["1"], [Arrow("t", "1", "1")])


@given(st.integers(0, 10**6), st.sampled_from([A2, JORDAN]), st.data())
@settings(deadline=None, max_examples=30)
def test_transpose_involution_and_moment(seed, q, data):
    # zero fibers included: every block shape (0, n), (n, 0) must survive
    v = DimVector.of(q, {i: data.draw(st.integers(0, 3)) for i in q.vertices})
    w = DimVector.of(q, {i: data.draw(st.integers(0, 2)) for i in q.vertices})
    x = random_rep(double(q), v, w, seed)
    t = transpose(x)
    assert (t.dim_v, t.dim_w) == (x.dim_v, x.dim_w)
    assert transpose(t) == x
    mu, mu_t = moment_map(x).blocks, moment_map(t).blocks
    assert all(mu_t[i] == mu[i].transpose() for i in x.dq.vertices)


KRONECKER = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
D4 = ade_minimal_resolution_setup("D4")[0]


def written_out_action(x, g, h):
    """The blocks g_t B_a h_s, g_i I_i and J_i h_i, with the identity at a
    vertex that g or h leaves out."""
    g = {i: g.get(i, RatMatrix.identity(x.dim_v[i])) for i in x.dq.vertices}
    h = {i: h.get(i, RatMatrix.identity(x.dim_v[i])) for i in x.dq.vertices}
    B = {a.name: g[a.target] @ x.B[a.name] @ h[a.source] for a in x.dq.arrows}
    I = {i: g[i] @ x.I[i] for i in x.dq.vertices}
    J = {i: x.J[i] @ h[i] for i in x.dq.vertices}
    return B, I, J


def random_square(rng, n, unipotent=False):
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if unipotent:
        rows = [[int(r == c) if c <= r else a for c, a in enumerate(row)] for r, row in enumerate(rows)]
    return RatMatrix.from_rows(rows, cols=n)


@pytest.mark.parametrize("q", [A2, D4, KRONECKER, JORDAN], ids=["A2", "D4", "Kronecker", "Jordan"])
@given(seed=st.integers(0, 10**6), data=st.data())
@settings(deadline=None, max_examples=15)
def test_act_is_the_written_out_action(q, seed, data):
    # a loop of the Jordan quiver takes both sides; on D4 and Kronecker a
    # vertex is the target of several arrows
    v = DimVector.of(q, {i: data.draw(st.integers(0, 3)) for i in q.vertices})
    w = DimVector.of(q, {i: data.draw(st.integers(0, 2)) for i in q.vertices})
    x = random_rep(double(q), v, w, seed)
    rng = random.Random(seed)
    g = {i: random_square(rng, v[i]) for i in q.vertices if data.draw(st.booleans())}
    h = {i: random_square(rng, v[i]) for i in q.vertices if data.draw(st.booleans())}
    after = {i: lambda m, gi=gi: gi @ m for i, gi in g.items()}
    before = {i: lambda m, hi=hi: m @ hi for i, hi in h.items()}
    assert act(x, after, before) == written_out_action(x, g, h)
    assert act(x, {}, {}) == (x.B, x.I, x.J)
    gauge = {i: random_square(rng, v[i], unipotent=True) for i in q.vertices}
    gauge_inv = {i: inverse(m) for i, m in gauge.items()}
    assert conjugate(x, gauge) == FramedRep(x.dq, v, w, *written_out_action(x, gauge, gauge_inv))
    assert conjugate(conjugate(x, gauge), gauge_inv) == x


def reference_moment_map(x: FramedRep) -> GradedEndo:
    """The term-by-term sum: zeros, then one product, sign and ``+`` per term."""
    blocks = {}
    for i in x.dq.vertices:
        n = x.dim_v[i]
        acc = RatMatrix.zeros(n, n)
        for a in x.dq.arrows_into(i):
            term = x.B[a.name] @ x.B[x.dq.bar(a.name)]
            acc = acc + (term if x.dq.eps(a.name) == 1 else -term)
        blocks[i] = acc + x.I[i] @ x.J[i]
    return GradedEndo(blocks)


def mixed_rep(dq, v, w, rng, zero_share):
    """Random blocks with entries over denominators 1..6, each entry 0 with
    probability ``zero_share``; generally not flat."""

    def m(rows, cols):
        return RatMatrix.from_rows(
            [
                [0 if rng.random() < zero_share else Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(cols)]
                for _ in range(rows)
            ],
            cols=cols,
        )

    B = {a.name: m(v[a.target], v[a.source]) for a in dq.arrows}
    I = {i: m(v[i], w[i]) for i in dq.vertices}
    J = {i: m(w[i], v[i]) for i in dq.vertices}
    return FramedRep(dq, v, w, B, I, J)


@given(st.integers(0, 10**6), st.sampled_from([A2, JORDAN, KRONECKER]), st.sampled_from([0.0, 0.5, 1.0]), st.data())
@settings(deadline=None, max_examples=60)
def test_moment_map_equals_term_by_term_reference(seed, q, zero_share, data):
    # zero fibers included; non-flat points compare their nonzero blocks too
    v = DimVector.of(q, {i: data.draw(st.integers(0, 3)) for i in q.vertices})
    w = DimVector.of(q, {i: data.draw(st.integers(0, 2)) for i in q.vertices})
    x = mixed_rep(double(q), v, w, random.Random(seed), zero_share)
    for y in (x, cb_apply(x), transpose(x)):
        assert moment_map(y).blocks == reference_moment_map(y).blocks


def test_moment_map_equals_reference_on_flat_and_nonflat_examples():
    v, w = DimVector.of(A2, {"1": 1, "2": 2}), DimVector.of(A2, {"1": 1, "2": 2})
    flat = [sample_flat_crystal(DQ2, v, w, seed) for seed in range(6)]
    nonflat = [mixed_rep(DQ2, v, w, random.Random(seed), 0.0) for seed in range(6)]
    assert all(is_flat(x) for x in flat) and not any(is_flat(x) for x in nonflat)
    assert any(not x.J[i].is_zero for x in flat for i in DQ2.vertices)
    for x in flat + nonflat + [cb_apply(y) for y in flat + nonflat]:
        assert moment_map(x).blocks == reference_moment_map(x).blocks


def test_transpose_swaps_framing_and_reverses_arrows():
    x = sample_flat_crystal(DQ2, DimVector.of(A2, {"1": 1, "2": 2}), DimVector.of(A2, {"1": 1, "2": 2}), 11)
    t = transpose(x)
    assert is_flat(t)
    assert t.B["1->2*"] == x.B["1->2"].transpose()
    assert t.B["1->2"] == x.B["1->2*"].transpose()
    assert all(t.I[i] == x.J[i].transpose() and t.J[i] == x.I[i].transpose() for i in DQ2.vertices)


def test_cb_apply_zero_rep():
    x = FramedRep(DQ2, DimVector.of(A2, {"1": 1, "2": 1}), DimVector.of(A2, {"1": 1}))
    y = cb_apply(x)
    assert y.dim_v["inf"] == 1
    assert y.dim_w.total() == 0
    assert all(m.is_zero for m in y.B.values())


def test_cb_apply_a1_unpacks_columns():
    x = a1_rep(1, 2, I=RatMatrix.from_rows([[1, 0]]), J=RatMatrix.from_rows([[0], [1]]))
    y = cb_apply(x)
    assert len(y.dq.base.arrows) == 2
    assert y.B["inf->1#0"] == RatMatrix.from_rows([[1]])
    assert y.B["inf->1#1"] == RatMatrix.from_rows([[0]])
    assert y.B["inf->1#0*"] == RatMatrix.from_rows([[0]])
    assert y.B["inf->1#1*"] == RatMatrix.from_rows([[1]])
    assert is_flat(y)


def test_cb_apply_of_a_framed_affine_point_is_flat():
    # the rewrite of a point on a rewritten quiver adds a second new vertex
    at1, _ = cb_transform(A1, DimVector.of(A1, {"1": 2}))
    v = DimVector.of(at1, {"1": 1, "inf": 2})
    w = DimVector.of(at1, {"1": 1, "inf": 1})
    for half in ("forward", "reverse"):
        x = sample_flat(double(at1), v, w, 5, half=half)
        y = cb_apply(x)
        assert y.dq.vertices == ("1", "inf", "inf2")
        assert y.dim_v.as_dict() == {"1": 1, "inf": 2, "inf2": 1}
        assert is_flat(y)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_cb_apply_flatness_transfer(seed):
    v = DimVector.of(A2, {"1": 1, "2": 2})
    w = DimVector.of(A2, {"1": 2, "2": 1})
    x = sample_flat(DQ2, v, w, seed, half="reverse")
    assert is_flat(cb_apply(x))


ONE = DimVector.of(A1, [1])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: FramedRep(DQ1, ONE, ONE, I={"9": RatMatrix.zeros(1, 1)}),
            DimensionError,
            "I block for unknown vertex '9'",
        ),
        (
            lambda: FramedRep(DQ1, ONE, ONE, J={"9": RatMatrix.zeros(1, 1)}),
            DimensionError,
            "J block for unknown vertex '9'",
        ),
        (
            lambda: FramedRep(DQ2, DimVector.of(A2, [1, 1]), DimVector.zero(A2), B={"1->2": RatMatrix.zeros(2, 1)}),
            DimensionError,
            r"B\['1->2'\] has shape \(2, 1\), expected \(1, 1\)",
        ),
        (
            lambda: FramedRep(DQ1, ONE, DimVector.of(A1, [2]), J={"1": RatMatrix.zeros(1, 1)}),
            DimensionError,
            r"J\['1'\] has shape \(1, 1\), expected \(2, 1\)",
        ),
        (
            lambda: evaluate_path(simple_rep(DQ2, "1"), ["1->2"], start="2"),
            BadPathError,
            "path starts at '1', not '2'",
        ),
        (
            lambda: FramedRep(DQ2, DimVector.of(A2, [1, 1]), DimVector.zero(A2), B={"1->2": [[1]]}),
            DimensionError,
            r"^B\['1->2'\] is not a RatMatrix$",
        ),
        (
            lambda: FramedRep(*ade_minimal_resolution_setup("A2"), I={"1": 5}),
            DimensionError,
            r"^I\['1'\] is not a RatMatrix$",
        ),
        (
            lambda: FramedRep(*ade_minimal_resolution_setup("A2"), J={"1": None}),
            DimensionError,
            r"^J\['1'\] is not a RatMatrix$",
        ),
        (
            lambda: conjugate(
                a2crystal_bundle().reps["generic"], {"1": [[1]], "2": RatMatrix.identity(2)}
            ),
            DimensionError,
            r"^g\['1'\] is not a RatMatrix$",
        ),
        (
            lambda: conjugate(
                a2crystal_bundle().reps["generic"], {"1": RatMatrix.identity(1), "2": RatMatrix.identity(3)}
            ),
            DimensionError,
            r"^g\['2'\] has shape \(3, 3\), expected \(2, 2\)$",
        ),
        (
            # refused before the inverse of g['1'] would find it singular
            lambda: conjugate(
                a2crystal_bundle().reps["generic"], {"1": RatMatrix.zeros(1, 1), "2": RatMatrix.zeros(2, 3)}
            ),
            DimensionError,
            r"^g\['2'\] has shape \(2, 3\), expected \(2, 2\)$",
        ),
        (
            lambda: FramedRep(*ade_minimal_resolution_setup("A2"), B=5),
            DimensionError,
            "^B blocks are not a mapping$",
        ),
        (
            lambda: FramedRep(*ade_minimal_resolution_setup("A2"), B=[]),
            DimensionError,
            "^B blocks are not a mapping$",
        ),
        (
            lambda: FramedRep(*ade_minimal_resolution_setup("A2"), B=0),
            DimensionError,
            "^B blocks are not a mapping$",
        ),
        (
            lambda: FramedRep(*ade_minimal_resolution_setup("A2"), I=[["1"]]),
            DimensionError,
            "^I blocks are not a mapping$",
        ),
        (
            lambda: FramedRep(*ade_minimal_resolution_setup("A2"), J="1"),
            DimensionError,
            "^J blocks are not a mapping$",
        ),
        (
            lambda: conjugate(a2crystal_bundle().reps["generic"], 5),
            DimensionError,
            "^base change is not a mapping$",
        ),
        (
            lambda: conjugate(a2crystal_bundle().reps["generic"], ["1", "2"]),
            DimensionError,
            "^base change is not a mapping$",
        ),
        (
            lambda: is_stable(a2crystal_bundle().reps["generic"], "pos"),
            DomainError,
            "^expected a DimVector or ZetaParam, got str$",
        ),
        (
            lambda: FramedRep(a2crystal_bundle().reps["generic"].dq, [1, 1], DimVector.of(A2, [1, 1])),
            DomainError,
            "^expected a DimVector or ZetaParam, got list$",
        ),
        (
            lambda: FramedRep("A2", DimVector.of(A2, [1, 1]), DimVector.of(A2, [1, 1])),
            DomainError,
            "^expected a DoubledQuiver or Quiver, got str$",
        ),
        (
            lambda: direct_sum(a2crystal_bundle().reps["generic"], 5),
            DomainError,
            "^expected a FramedRep, got int$",
        ),
        (
            lambda: direct_sum(None, a2crystal_bundle().reps["generic"]),
            DomainError,
            "^expected a FramedRep, got NoneType$",
        ),
    ],
    ids=[
        "I-unknown-vertex", "J-unknown-vertex", "B-shape", "J-shape", "path-start",
        "B-not-a-matrix", "I-not-a-matrix", "J-not-a-matrix", "g-not-a-matrix",
        "g-wrong-size", "g-not-square", "B-int", "B-empty-list", "B-zero", "I-list",
        "J-str", "g-int", "g-list", "zeta-str", "dim-v-list", "dq-str", "sum-int", "sum-none",
    ],
)
def test_refused_inputs_raise_their_error_class(call, error, message):
    with pytest.raises(error, match=message) as excinfo:
        call()
    assert excinfo.type is error


V11 = DimVector.of(A2, [1, 1])


@pytest.mark.parametrize(
    "blocks, message",
    [
        (
            {"I": {"2": RatMatrix.zeros(1, 2)}, "J": {"1": RatMatrix.zeros(2, 1)}},
            "J['1'] has shape (2, 1), expected (1, 1)",
        ),
        (
            {"B": {"1->2": RatMatrix.zeros(2, 1), "9": RatMatrix.zeros(1, 1)}},
            "B block for unknown arrow '9'",
        ),
    ],
    ids=["J1-before-I2", "unknown-before-shape"],
)
def test_refusal_order_pinned(blocks, message):
    """Of several bad blocks, the first refused is the one commit 31ba23e
    refused (messages recorded there): unknown keys before shapes, arrows
    before framing, and I_i, J_i vertex by vertex."""
    with pytest.raises(DimensionError) as excinfo:
        FramedRep(DQ2, V11, V11, **blocks)
    assert str(excinfo.value) == message


def _cb_rewrite(label):
    q, v, w = ade_minimal_resolution_setup(label)
    q2, inf = cb_transform(q, w)
    return q2, cb_extend_dim(v, q2, inf), DimVector.zero(q2)


def test_block_shapes_agree_with_dim_bigM_and_every_constructor():
    setups = [ade_minimal_resolution_setup(label) for label in ("A1", "A2", "A3", "A5", "D4", "D5", "E6", "E7", "E8")]
    setups += [_cb_rewrite("D4"), _cb_rewrite("E6")]
    setups.append((JORDAN, DimVector.of(JORDAN, [2]), DimVector.of(JORDAN, [1])))
    for q, v, w in setups:
        dq = double(q)
        shapes = block_shapes(dq, v, w)
        assert list(shapes["B"]) == [a.name for a in dq.arrows]
        assert list(shapes["I"]) == list(shapes["J"]) == list(dq.vertices)
        assert sum(r * c for family in shapes.values() for r, c in family.values()) == dim_bigM(q, v, w)
        halves = [sample_flat(dq, v, w, 7, half=half) for half in ("forward", "reverse")]
        points = [FramedRep(dq, v, w), *halves, *(rep_from_json(rep_to_json(y)) for y in halves)]
        cases = [(x, shapes) for x in points] + [(direct_sum(*halves), block_shapes(dq, v + v, w + w))]
        for x, expected in cases:
            assert x.blocks["B"] is x.B and x.blocks["I"] is x.I and x.blocks["J"] is x.J
            assert {f: {k: m.shape for k, m in x.blocks[f].items()} for f in x.blocks} == expected
