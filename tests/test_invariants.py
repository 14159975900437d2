import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivex import invariants
from quivex.bundles import a1_bundle, a2crystal_bundle, an_bundle, an_chain_sample, d4_bundle
from quivex.errors import DomainError, WrongSetupError
from quivex.hecke import sample_flat_crystal
from quivex.invariants import (
    a1_relations,
    an_xyz,
    cycle_traces,
    default_degree_bound,
    fingerprint_is_zero,
    path_invariants,
    pi_fingerprint,
)
from quivex.quiver import (
    Arrow,
    DimVector,
    DoubledQuiver,
    Quiver,
    ade_minimal_resolution_setup,
    cb_extend_dim,
    cb_transform,
    double,
)
from quivex.ratmat import RatMatrix
from quivex.rep import (
    FramedRep,
    conjugate,
    evaluate_path,
    is_flat,
    sample_flat,
    simple_rep,
)

A1 = ade_minimal_resolution_setup("A1")[0]
A2 = ade_minimal_resolution_setup("A2")[0]
D4 = ade_minimal_resolution_setup("D4")[0]
DQ1 = double(A1)
DQ2 = double(A2)
KRONECKER = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
JORDAN = Quiver(["1"], [Arrow("l", "1", "1")])


def _cycle_labels(q: Quiver, max_length: int) -> list[tuple[str, ...]]:
    x = FramedRep(double(q), DimVector.of(q, {v: 1 for v in q.vertices}), DimVector.zero(q))
    return [word for word, _ in cycle_traces(x, max_length)]


def test_cycle_enumeration_a2():
    cycles = _cycle_labels(A2, 2)
    assert cycles == [("1->2", "1->2*")]
    cycles4 = _cycle_labels(A2, 4)
    assert ("1->2", "1->2*", "1->2", "1->2*") in cycles4
    assert len(cycles4) == 2


def test_cycle_enumeration_jordan_counts_reversals_separately():
    cycles = _cycle_labels(JORDAN, 2)
    # two loops of length one, three rotation classes of length two
    assert ("l",) in cycles and ("l*",) in cycles
    assert ("l", "l") in cycles and ("l*", "l*") in cycles and ("l", "l*") in cycles


# ------------------------------------------- reference: enumerate, then evaluate


def _reference_fingerprint(x: FramedRep, bound: int) -> list:
    """The two-phase enumeration the walker replaced: list every label with
    its own DFS, then evaluate each word from scratch with evaluate_path."""
    dq = x.dq

    def walks(origin, keep):
        found = []

        def walk(here, word):
            if keep(word, here):
                found.append((tuple(word), here))
            if len(word) == bound:
                return
            for a in dq.arrows_out_of(here):
                walk(a.target, word + [a.name])

        walk(origin, [])
        return found

    cycles = {
        min(word[k:] + word[:k] for k in range(len(word)))
        for v in dq.vertices
        for word, _ in walks(v, lambda word, here, v=v: word and here == v)
    }
    entries = []
    for word in sorted(cycles, key=lambda w: (len(w), w)):
        start = dq.arrow(word[0]).source
        entries.append((("cycle",) + word, evaluate_path(x, word, start=start).trace()))
    index = {v: k for k, v in enumerate(dq.vertices)}
    framed = [v for v in dq.vertices if x.dim_w[v] > 0]
    paths = [
        (origin, word, end)
        for origin in framed
        for word, end in walks(origin, lambda word, here: x.dim_w[here] > 0)
    ]
    paths.sort(key=lambda t: (len(t[1]), index[t[0]], index[t[2]], t[1]))
    for origin, word, end in paths:
        value = x.J[end] @ evaluate_path(x, word, start=origin) @ x.I[origin]
        for r in range(value.rows):
            for c in range(value.cols):
                entries.append((("path", origin, word, end, r, c), value[r, c]))
    return entries


def _dense(q: Quiver, v: dict, w: dict, seed: int) -> FramedRep:
    """Random rationals in every block; not flat, so no value is forced to 0."""
    rng = random.Random(seed)
    dv, dw = DimVector.of(q, v), DimVector.of(q, w)
    dq = double(q)

    def block(rows, cols):
        entries = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        return RatMatrix.from_rows(entries, cols=cols)

    B = {a.name: block(dv[a.target], dv[a.source]) for a in dq.arrows}
    I = {i: block(dv[i], dw[i]) for i in dq.vertices}
    J = {i: block(dw[i], dv[i]) for i in dq.vertices}
    return FramedRep(dq, dv, dw, B, I, J)


def _flat(label: str, kind: str, seed: int) -> FramedRep:
    q, v, w = ade_minimal_resolution_setup(label)
    if kind != "crystal":
        return sample_flat(double(q), v, w, seed, half=kind)
    x = None
    while x is None:
        x = sample_flat_crystal(double(q), v, w, seed)
        seed += 1
    return x


REFERENCE_SAMPLES = {
    **{
        f"{label}-{kind}": (lambda label=label, kind=kind: _flat(label, kind, 11))
        for label in ("A2", "A3", "D4")
        for kind in ("forward", "reverse", "crystal")
    },
    "A2-crystal-conjugated": lambda: conjugate(
        _flat("A2", "crystal", 5),
        {"1": RatMatrix.from_rows([[2]]), "2": RatMatrix.from_rows([[1]])},
    ),
    "Kronecker-dense": lambda: _dense(KRONECKER, {"1": 2, "2": 1}, {"1": 1, "2": 1}, 3),
    "Kronecker-forward": lambda: sample_flat(
        double(KRONECKER), DimVector.of(KRONECKER, {"1": 1, "2": 2}), DimVector.of(KRONECKER, {"1": 1}), 4
    ),
    "Jordan-dense": lambda: _dense(JORDAN, {"1": 2}, {"1": 1}, 5),
    "Jordan-forward": lambda: sample_flat(
        double(JORDAN), DimVector.of(JORDAN, {"1": 3}), DimVector.of(JORDAN, {"1": 1}), 6
    ),
    "Jordan-unframed": lambda: _dense(JORDAN, {"1": 2}, {}, 7),
    # Away from the zero fiber: chain points with x, y and z all nonzero, the
    # rank-one stable point, and a dense star whose one zero block makes
    # prefixes zero partway along a walk while sibling branches stay nonzero.
    **{
        f"A{n}-chain-{seed}": (lambda n=n, seed=seed: an_chain_sample(an_bundle(n), seed))
        for n in (3, 4)
        for seed in (0, 1)
    },
    "a1-stable": lambda: a1_bundle(2, 1).reps["stable"],
    "D4-dense-one-zero-block": lambda: _with_zero_block(
        _dense(D4, {"1": 1, "2": 2, "3": 1, "4": 1}, {"1": 1, "2": 1}, 8), "3->2*"
    ),
}


def _with_zero_block(x: FramedRep, arrow: str) -> FramedRep:
    B = {**x.B, arrow: RatMatrix.zeros(*x.B[arrow].shape)}
    return FramedRep(x.dq, x.dim_v, x.dim_w, B, x.I, x.J)


@pytest.mark.parametrize("name", sorted(REFERENCE_SAMPLES))
def test_fingerprint_matches_two_phase_reference(name):
    x = REFERENCE_SAMPLES[name]()
    for bound in range(9):
        assert pi_fingerprint(x, bound) == _reference_fingerprint(x, bound)


def _affine_d4_forward() -> FramedRep:
    """A forward sample of the framing rewrite of the D4 setup at 2 delta."""
    q, v, w = ade_minimal_resolution_setup("D4")
    affine, infinity = cb_transform(q, w)
    delta = cb_extend_dim(v, affine, infinity)
    return sample_flat(double(affine), delta + delta, DimVector.zero(affine), 1, half="forward")


LADDER_D4 = ({"1": 2, "2": 4, "3": 2, "4": 2}, {"1": 1, "2": 2, "3": 1, "4": 1})

# (point, bounds): larger points than REFERENCE_SAMPLES, each at bounds its
# reference enumeration stays cheap at; None is the default degree bound
REFERENCE_POINTS = {
    "affine-D4-2delta-forward": (_affine_d4_forward, range(9)),
    **{
        f"c2-A{n}-{rep}": (lambda n=n, rep=rep: an_bundle(n).reps[rep], [None])
        for n in (2, 3, 4, 5, 6)
        for rep in an_bundle(n).reps
    },
    "D4-ladder-forward": (
        lambda: sample_flat(double(D4), *(DimVector.of(D4, d) for d in LADDER_D4), 2, half="forward"),
        range(9),
    ),
    "D4-ladder-dense": (lambda: _dense(D4, *LADDER_D4, 9), range(9)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_POINTS))
def test_fingerprint_matches_the_reference_on_larger_points(name):
    make, bounds = REFERENCE_POINTS[name]
    x = make()
    for bound in bounds:
        reference = _reference_fingerprint(x, default_degree_bound(x) if bound is None else bound)
        assert pi_fingerprint(x, bound) == reference


@pytest.mark.parametrize("name", sorted(REFERENCE_POINTS))
def test_entries_come_out_in_label_order(name):
    """Cycle traces in (length, word) order; path entries in (length, origin
    index, end index, word) order, a walk's entries in row-major order."""
    make, bounds = REFERENCE_POINTS[name]
    x = make()
    index = {v: k for k, v in enumerate(x.dq.vertices)}
    for bound in bounds:
        bound = default_degree_bound(x) if bound is None else bound
        cycles = cycle_traces(x, bound)
        assert cycles == sorted(cycles, key=lambda t: (len(t[0]), t[0]))
        paths = path_invariants(x, bound)
        assert paths == sorted(paths, key=lambda t: (len(t[0][1]), index[t[0][0]], index[t[0][2]], t[0][1]))


# Declared in decreasing name order, with vertex "9" before "10" although
# "10" < "9" as strings, so no vertex's arrows or the vertices themselves
# are declared in the order the labels sort by.
REVERSED_NAMES = Quiver(
    ["9", "10"],
    [Arrow("9->10", "9", "10"), Arrow("10->9", "10", "9"), Arrow("10->10", "10", "10")],
)


def test_reversed_names_quiver_declares_nothing_in_name_order():
    names = [a.name for a in REVERSED_NAMES.arrows]
    assert names == sorted(names, reverse=True)
    assert list(REVERSED_NAMES.vertices) != sorted(REVERSED_NAMES.vertices)
    dq = double(REVERSED_NAMES)
    for v in dq.vertices:
        out_of = [a.name for a in dq.arrows_out_of(v)]
        assert out_of != sorted(out_of)


@pytest.mark.parametrize(
    "q, dim_v", [(REVERSED_NAMES, {"9": 2, "10": 1}), (JORDAN, {"1": 2})], ids=["reversed-names", "Jordan"]
)
def test_fingerprint_order_does_not_follow_the_declared_order(q, dim_v):
    x = _dense(q, dim_v, dict.fromkeys(q.vertices, 1), 10)
    for bound in range(9):
        assert pi_fingerprint(x, bound) == _reference_fingerprint(x, bound)


def test_new_reference_samples_are_away_from_the_zero_fiber():
    for name in ("A3-chain-0", "A3-chain-1", "A4-chain-0", "A4-chain-1"):
        res = an_xyz(REFERENCE_SAMPLES[name]())
        assert res.x != 0 and res.y != 0 and res.z != 0
    for name in ("a1-stable", "D4-dense-one-zero-block"):
        assert not fingerprint_is_zero(pi_fingerprint(REFERENCE_SAMPLES[name](), 4))


def test_walker_shares_prefix_products(monkeypatch):
    """The walker computes one matmul per visited walk whose prefix product
    is nonzero, against L - 1 per word of length L for the reference."""
    calls = []
    matmul = RatMatrix.__matmul__

    def counted(self, other):
        calls.append(None)
        return matmul(self, other)

    monkeypatch.setattr(RatMatrix, "__matmul__", counted)
    x = d4_bundle().reps["point"]
    bound = default_degree_bound(x)
    expected = _reference_fingerprint(x, bound)
    reference_calls = len(calls)
    calls.clear()
    assert pi_fingerprint(x, bound) == expected
    assert reference_calls == 4350
    assert len(calls) == 12


def test_walker_visits_only_walks_that_can_end_within_the_bound(monkeypatch):
    """The walker reads dist[here] once per visit, to test whether the walk
    ends there.  Filtering after visiting took 2182 cycle visits and 727 path
    visits on this point at bound 10, 1210 and 484 of them extending; the
    walker's 333 cycle visits are 274 that extend and 59 of length 10.  No
    path visit can be cut here: every vertex is one arrow from the framed
    centre, so the 727 path visits are the 484 that extend and the 243 closed
    walks of length 10 at the centre, one entry each."""
    visits = []
    distances = invariants._distances

    class Counted(dict):
        def __getitem__(self, vertex):
            visits.append(vertex)
            return dict.__getitem__(self, vertex)

    monkeypatch.setattr(invariants, "_distances", lambda x, targets: Counted(distances(x, targets)))
    x = d4_bundle().reps["point"]
    assert len(cycle_traces(x, 10)) == 95
    cycle_visits = len(visits)
    visits.clear()
    full_length = sum(len(label[1]) == 10 for label, _ in path_invariants(x, 10))
    path_visits = len(visits)
    extending_paths = path_visits - full_length
    assert (cycle_visits, path_visits, extending_paths) == (333, 727, 484)
    assert cycle_visits < 2182 and extending_paths < 727


def test_walker_reads_the_adjacency_once_per_call(monkeypatch):
    calls = []
    arrows_out_of = DoubledQuiver.arrows_out_of

    def counted(self, vertex):
        calls.append(vertex)
        return arrows_out_of(self, vertex)

    monkeypatch.setattr(DoubledQuiver, "arrows_out_of", counted)
    x = d4_bundle().reps["point"]
    pi_fingerprint(x, 10)
    assert calls == list(x.dq.vertices) * 2


def test_walker_multiplies_only_nonzero_prefixes(monkeypatch):
    """J = 0 and the reversed arrows vanish on a forward sample, so most
    prefixes become zero; none of them is multiplied again."""
    x = REFERENCE_SAMPLES["D4-forward"]()
    right_operands = []
    matmul = RatMatrix.__matmul__

    def recorded(self, other):
        right_operands.append(other)
        return matmul(self, other)

    monkeypatch.setattr(RatMatrix, "__matmul__", recorded)
    entries = pi_fingerprint(x, 6)
    assert right_operands and not any(m.is_zero for m in right_operands)
    monkeypatch.undo()
    assert entries == _reference_fingerprint(x, 6)


def test_walk_budget_stops_the_e6_default_bound_before_any_matmul(monkeypatch):
    monkeypatch.setattr(RatMatrix, "__matmul__", lambda self, other: pytest.fail("matmul before the budget"))
    q, v, w = ade_minimal_resolution_setup("E6")
    x = FramedRep(double(q), v, w)
    assert default_degree_bound(x) == 22
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"^path entries up to length 22 hold 12575136 .* largest bound under it is 21$"):
        pi_fingerprint(x)
    with pytest.raises(DomainError, match=r"^cycle traces up to length 22 hold 5600266 .* largest bound under it is 21$"):
        cycle_traces(x, 22)
    assert time.perf_counter() - start < 1


def test_walk_budget_counts_path_visits_exactly(monkeypatch):
    """The d4 point's paths up to length 10 are 364 entries, the closed walks
    at its framed centre, with 3282 letters: 3646 in all."""
    monkeypatch.setattr(invariants, "WALK_BUDGET", 3645)
    x = d4_bundle().reps["point"]
    with pytest.raises(DomainError, match=r"hold 3646 entries and letters by length 10,.* largest bound under it is 9$"):
        path_invariants(x, 10)
    monkeypatch.setattr(invariants, "WALK_BUDGET", 3646)
    assert len(path_invariants(x, 10)) == 364


def _zero_point(q: Quiver, v: DimVector, w: DimVector) -> FramedRep:
    return FramedRep(double(q), v, w)


def _affine_d4_zero_point() -> FramedRep:
    q, v, w = ade_minimal_resolution_setup("D4")
    affine, infinity = cb_transform(q, w)
    return _zero_point(affine, cb_extend_dim(v, affine, infinity), DimVector.of(affine, {infinity: 1}))


COUNTED_POINTS = {
    **{f"sample-{name}": make for name, make in REFERENCE_SAMPLES.items()},
    **{f"zero-{label}": (lambda label=label: _zero_point(*ade_minimal_resolution_setup(label))) for label in ("A3", "D4", "E6")},
    "zero-affine-D4": _affine_d4_zero_point,
    **{
        f"bundle-{bundle.name}-{rep}": (lambda bundle=bundle, rep=rep: bundle.reps[rep])
        for bundle in (a1_bundle(2, 1), an_bundle(3), d4_bundle(), a2crystal_bundle())
        for rep in bundle.reps
    },
}


def _assert_counted_exactly(monkeypatch, x: FramedRep, bound: int) -> None:
    """The budget admits the walker's entries plus letters and refuses one less."""
    sizes = {
        True: sum(1 + len(word) for word, _ in cycle_traces(x, bound)),
        False: sum(1 + len(label[1]) for label, _ in path_invariants(x, bound)),
    }
    for necklaces, size in sizes.items():
        with monkeypatch.context() as patch:
            patch.setattr(invariants, "WALK_BUDGET", size)
            invariants._check_bound(x, bound, necklaces)
            patch.setattr(invariants, "WALK_BUDGET", size - 1)
            with pytest.raises(DomainError, match=f" hold {size} entries and letters "):
                invariants._check_bound(x, bound, necklaces)


@pytest.mark.parametrize("name", sorted(COUNTED_POINTS))
def test_walk_budget_counts_what_the_walker_returns(monkeypatch, name):
    x = COUNTED_POINTS[name]()
    for bound in range(11):
        _assert_counted_exactly(monkeypatch, x, bound)


def test_walk_budget_counts_the_e6_cycles_at_12_exactly(monkeypatch):
    _assert_counted_exactly(monkeypatch, COUNTED_POINTS["zero-E6"](), 12)


def test_walk_budget_admits_e6_up_to_bound_21():
    x = COUNTED_POINTS["zero-E6"]()
    for necklaces in (True, False):
        invariants._check_bound(x, 20, necklaces)
        invariants._check_bound(x, 21, necklaces)


A2_ONE_ARROW = FramedRep(
    DQ2,
    DimVector.of(A2, {"1": 1, "2": 1}),
    DimVector.of(A2, {"1": 1}),
    B={"1->2": RatMatrix.from_rows([[1]])},
    J={"1": RatMatrix.from_rows([[1]])},
)


@pytest.mark.parametrize("bound", [100_000, 10**7])
def test_walk_budget_bounds_the_letters_of_long_walks(monkeypatch, bound):
    """The walk count of this point grows linearly, its letters quadratically:
    a fingerprint at bound 100000 used to pass the budget and exhaust memory."""
    monkeypatch.setattr(RatMatrix, "__matmul__", lambda self, other: pytest.fail("matmul before the budget"))
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"hold 4004001 entries and letters by length 4000,.* is 3999$"):
        pi_fingerprint(A2_ONE_ARROW, bound)
    with pytest.raises(DomainError, match=r"hold 4004000 entries and letters by length 4000,.* is 3999$"):
        cycle_traces(A2_ONE_ARROW, bound)
    assert time.perf_counter() - start < 1


def test_fingerprint_checks_the_paths_before_walking_cycles(monkeypatch):
    """At bound 24 the d4 point's cycles pass the budget and its paths do not."""
    x = d4_bundle().reps["point"]
    invariants._check_bound(x, 24, necklaces=True)
    monkeypatch.setattr(RatMatrix, "__matmul__", lambda self, other: pytest.fail("cycles walked first"))
    with pytest.raises(DomainError, match=r"^path entries up to length 24 "):
        pi_fingerprint(x, 24)


def test_fingerprint_names_the_smaller_largest_bound(monkeypatch):
    """On the D6 setup framed only at vertex 1 the paths pass up to bound 23
    and the cycles only up to 21, so the refusal names the cycles' 21, at
    which both kinds pass."""
    q, v, _ = ade_minimal_resolution_setup("D6")
    x = FramedRep(double(q), v, DimVector.of(q, {"1": 1}))
    monkeypatch.setattr(RatMatrix, "__matmul__", lambda self, other: pytest.fail("walked before both counts"))
    with pytest.raises(DomainError, match=r"^cycle traces up to length 1000 hold 4028542 .* largest bound under it is 21$"):
        pi_fingerprint(x, 1000)
    with pytest.raises(DomainError, match=r"^path entries up to length 1000 .* largest bound under it is 23$"):
        path_invariants(x, 1000)
    for necklaces in (True, False):
        invariants._check_bound(x, 21, necklaces)


def test_fingerprint_counts_each_kind_once(monkeypatch):
    counted = []
    refusal = invariants._refusal
    monkeypatch.setattr(
        invariants, "_refusal", lambda x, bound, necklaces: counted.append(necklaces) or refusal(x, bound, necklaces)
    )
    x = d4_bundle().reps["point"]
    assert pi_fingerprint(x, 6) == _reference_fingerprint(x, 6)
    assert counted == [False, True]


def test_docs_quote_the_walk_budget():
    root = Path(__file__).resolve().parent.parent
    for doc in ("README.md", "docs/formats.md"):
        text = (root / doc).read_text()
        assert f"{invariants.WALK_BUDGET:,}" in text, doc
        assert "10^15" not in text and "1000000000000000" not in text, doc


def test_negative_bound_rejected():
    x = d4_bundle().reps["point"]
    with pytest.raises(DomainError, match="nonnegative"):
        pi_fingerprint(x, -1)


@pytest.mark.parametrize("bound", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("call", [pi_fingerprint, cycle_traces, path_invariants], ids=lambda f: f.__name__)
def test_bound_that_is_not_an_integer_rejected(call, bound):
    x = d4_bundle().reps["point"]
    with pytest.raises(DomainError, match=f"^walk length bound must be an integer, got {bound!r}$") as excinfo:
        call(x, bound)
    assert excinfo.type is DomainError


def test_traces_zero_on_zero_B():
    x = FramedRep(DQ2, DimVector.of(A2, {"1": 1, "2": 2}), DimVector.zero(A2))
    assert all(value == 0 for _, value in cycle_traces(x, 4))


def test_two_cycle_trace_is_edge_product():
    B = {"1->2": RatMatrix.from_rows([[2]]), "1->2*": RatMatrix.from_rows([["1/3"]])}
    x = FramedRep(DQ2, DimVector.of(A2, {"1": 1, "2": 1}), DimVector.zero(A2), B=B)
    ((word, value),) = cycle_traces(x, 2)
    assert value == Fraction(2, 3)


def test_path_invariants_a1_empty_path_is_framing_product():
    x = FramedRep(
        DQ1,
        DimVector.of(A1, {"1": 1}),
        DimVector.of(A1, {"1": 2}),
        I={"1": RatMatrix.from_rows([[1, 0]])},
        J={"1": RatMatrix.from_rows([[0], [1]])},
    )
    entries = dict(path_invariants(x, 0))
    A = x.J["1"] @ x.I["1"]
    for r in range(2):
        for c in range(2):
            assert entries[("1", (), "1", r, c)] == A[r, c]


def test_chain_path_gives_x_scalar():
    n = 4
    x = an_chain_sample(an_bundle(n), 9)
    entries = dict(path_invariants(x, n - 1))
    word = tuple(f"{k}->{k + 1}" for k in range(1, n))
    assert entries[("1", word, str(n), 0, 0)] == an_xyz(x).x


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=20)
def test_fingerprint_conjugation_invariance(seed):
    v = DimVector.of(A2, {"1": 1, "2": 2})
    w = DimVector.of(A2, {"1": 1, "2": 2})
    x = sample_flat_crystal(DQ2, v, w, seed)
    if x is None:
        return
    g = {"1": RatMatrix.from_rows([[2]]), "2": RatMatrix.from_rows([[1, 1], [1, 2]])}
    assert pi_fingerprint(x, 4) == pi_fingerprint(conjugate(x, g), 4)


def test_a1_relations():
    x = FramedRep(
        DQ1,
        DimVector.of(A1, {"1": 1}),
        DimVector.of(A1, {"1": 2}),
        I={"1": RatMatrix.from_rows([[1, 0]])},
        J={"1": RatMatrix.from_rows([[0], [1]])},
    )
    rel = a1_relations(x)
    assert rel.A == RatMatrix.from_rows([[0, 0], [1, 0]])
    assert rel.squares_to_zero and rel.rank_ok


def test_a1_relations_zero_rep():
    x = FramedRep(DQ1, DimVector.of(A1, {"1": 1}), DimVector.of(A1, {"1": 2}))
    rel = a1_relations(x)
    assert rel.A.is_zero and rel.squares_to_zero and rel.rank_ok


def test_a1_relations_wrong_quiver():
    with pytest.raises(WrongSetupError):
        a1_relations(simple_rep(DQ2, "1"))


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_a1_square_zero_on_flat_samples(seed):
    import random

    from quivex.ratmat import hstack, kernel_basis

    rng = random.Random(seed)
    n, k = 4, 2
    J = RatMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)], cols=k)
    K = hstack(kernel_basis(J.transpose()), rows=n)
    I = RatMatrix.from_rows(
        [[rng.randint(-3, 3) for _ in range(K.cols)] for _ in range(k)], cols=K.cols
    ) @ K.transpose()
    x = FramedRep(DQ1, DimVector.of(A1, {"1": k}), DimVector.of(A1, {"1": n}), I={"1": I}, J={"1": J})
    assert is_flat(x)
    assert a1_relations(x).squares_to_zero


def test_an_xyz_broken_chain_zero():
    for name, x in an_bundle(3).reps.items():
        res = an_xyz(x)
        assert (res.x, res.y, res.z) == (0, 0, 0)
        assert res.relation_ok


def test_an_xyz_zero_rep():
    q, v, w = ade_minimal_resolution_setup("A3")
    x = FramedRep(double(q), v, w)
    assert an_xyz(x).relation_ok


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=40)
def test_an_xyz_relation_exact_on_samples(seed):
    x = an_chain_sample(an_bundle(3), seed)
    assert is_flat(x)
    res = an_xyz(x)
    assert res.x * res.y == res.z ** 4


@pytest.mark.parametrize(
    "q, v, w",
    [
        (ade_minimal_resolution_setup("A3")[0], [2, 1, 1], [1, 0, 1]),
        (ade_minimal_resolution_setup("A3")[0], [1, 1, 1], [1, 1, 1]),
        (Quiver(["1", "2", "3"], [Arrow("1->2", "1", "2"), Arrow("3->2", "3", "2")]), [1, 1, 1], [1, 0, 1]),
    ],
    ids=["wrong-v", "wrong-w", "reversed-arrow"],
)
def test_an_xyz_wrong_setup(q, v, w):
    x = FramedRep(double(q), DimVector.of(q, v), DimVector.of(q, w))
    with pytest.raises(WrongSetupError, match="^an_xyz needs the chain minimal-resolution setup$"):
        an_xyz(x)


def test_an_xyz_one_vertex_quiver():
    with pytest.raises(WrongSetupError, match="at least two vertices"):
        an_xyz(FramedRep(DQ1, DimVector.of(A1, [1]), DimVector.of(A1, [2])))


def test_default_degree_bound():
    x = an_chain_sample(an_bundle(3), 0)
    assert default_degree_bound(x) == 6


def test_broken_chain_fingerprints_zero():
    for name, x in an_bundle(4).reps.items():
        assert fingerprint_is_zero(pi_fingerprint(x))


def test_fingerprint_nonzero_on_rich_chain():
    x = an_chain_sample(an_bundle(3), 1)
    assert not fingerprint_is_zero(pi_fingerprint(x))
