import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivex import formats, homext
from quivex.acceptance import DEFAULT_SEED, build_corpus
from quivex.bundles import a2crystal_bundle, an_bundle, an_chain_sample
from quivex.errors import DimensionError, QuiverMismatchError
from quivex.hecke import class_layout, sample_flat_crystal
from quivex.homext import BlockLayout, build_complex, hom_ext_report
from quivex.quiver import (
    Arrow,
    DimVector,
    DoubledQuiver,
    Quiver,
    ade_minimal_resolution_setup,
    cb_extend_dim,
    cb_transform,
    chi,
    double,
)
from quivex.ratmat import RatMatrix, hstack, pivot_columns, rref, vstack
from quivex.rep import FramedRep, is_flat, sample_flat, simple_rep

A2 = ade_minimal_resolution_setup("A2")[0]
DQ2 = double(A2)


def flat_pair(seed):
    v1 = DimVector.of(A2, {"1": 1, "2": 2})
    w1 = DimVector.of(A2, {"1": 1, "2": 1})
    v2 = DimVector.of(A2, {"1": 2, "2": 1})
    w2 = DimVector.of(A2, {"1": 1, "2": 2})
    x = sample_flat_crystal(DQ2, v1, w1, seed) or sample_flat(DQ2, v1, w1, seed)
    y = sample_flat(DQ2, v2, w2, seed + 1, half="reverse")
    return x, y


def test_simple_self_complex():
    s = simple_rep(DQ2, "1")
    c = build_complex(s, s)
    assert c.dims == (1, 0, 1)
    assert c.alpha.is_zero and c.beta.is_zero
    assert c.hom_dim() == 1
    assert c.ext1_dim() == 0
    assert c.cohom_dim() == 1


def test_simple_to_other_simple():
    s1, s2 = simple_rep(DQ2, "1"), simple_rep(DQ2, "2")
    c = build_complex(s1, s2)
    assert c.dims == (0, 1, 0)
    assert c.hom_dim() == 0
    assert c.ext1_dim() == 1
    assert build_complex(s2, s1).ext1_dim() == 1


def test_crystal_point_against_simple_shape():
    # the displayed V1 -> V2 + W1 -> V1 complex of the blowup story
    x = a2crystal_bundle().reps["generic"]
    c = build_complex(simple_rep(DQ2, "1"), x)
    assert c.dims == (1, 3, 1)
    assert c.ext1_dim() == 1
    special = a2crystal_bundle().reps["special"]
    assert build_complex(simple_rep(DQ2, "1"), special).ext1_dim() == 2


def test_stable_point_euler_split():
    # with no Homs from the simple, ext1 minus cohom is the chi value
    x = a2crystal_bundle().reps["generic"]
    s = simple_rep(DQ2, "1")
    c = build_complex(s, x)
    assert c.hom_dim() == 0
    expected = chi(A2, s.dim_v, s.dim_w, x.dim_v, x.dim_w)
    assert c.ext1_dim() - c.cohom_dim() == expected == 1


def test_quiver_mismatch():
    a3 = ade_minimal_resolution_setup("A3")[0]
    with pytest.raises(QuiverMismatchError):
        build_complex(simple_rep(DQ2, "1"), simple_rep(double(a3), "1"))


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_beta_alpha_zero_on_flat_pairs(seed):
    x, y = flat_pair(seed)
    c = build_complex(x, y)
    assert (c.beta @ c.alpha).is_zero


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_duality_and_symmetry(seed):
    x, y = flat_pair(seed)
    c_xy, c_yx = build_complex(x, y), build_complex(y, x)
    assert c_xy.cohom_dim() == c_yx.hom_dim()
    assert c_yx.cohom_dim() == c_xy.hom_dim()
    assert c_xy.ext1_dim() == c_yx.ext1_dim()


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_euler_identity(seed):
    x, y = flat_pair(seed)
    c = build_complex(x, y)
    check = c.euler()
    assert check.equal
    end1, middle, end2 = c.dims
    assert check.formula == middle - end1 - end2


@pytest.fixture(scope="module")
def chain_points():
    """Eight flat A3 chain samples.  Their moment-map terms eps(a) B_a B_bar(a)
    and I J are not all zero, so beta . alpha = 0 depends on the sign eps."""
    bundle = an_bundle(3)
    return [an_chain_sample(bundle, s) for s in range(8)]


def _beta_alpha_nonzero(points):
    complexes = (build_complex(x, y) for x in points for y in points)
    return sum(not (c.beta @ c.alpha).is_zero for c in complexes)


def test_beta_alpha_zero_on_chain_samples(chain_points):
    assert _beta_alpha_nonzero(chain_points) == 0


def test_beta_alpha_sees_the_sign_of_the_relation(chain_points, monkeypatch):
    # eps enters only beta; with it dropped, 48 of the 64 ordered pairs fail
    monkeypatch.setattr(DoubledQuiver, "eps", lambda dq, name: 1)
    assert _beta_alpha_nonzero(chain_points) == 48


def test_e8_complexes_at_exceptional_scale():
    """A forward and a reverse flat point of the E8 minimal-resolution setup:
    alpha is 240x119, and both orders of the pair are checked exactly."""
    q, v, w = ade_minimal_resolution_setup("E8")
    dq = double(q)
    x = sample_flat(dq, v, w, 1, half="forward")
    y = sample_flat(dq, v, w, 2, half="reverse")
    c_xy, c_yx = build_complex(x, y), build_complex(y, x)
    assert c_xy.alpha.shape == (240, 119)
    for c in (c_xy, c_yx):
        assert (c.beta @ c.alpha).is_zero
        assert c.ext1_dim() - c.hom_dim() - c.cohom_dim() == c.euler().formula
        assert len(pivot_columns(c.alpha)) == c.rank_alpha
    assert c_xy.hom_dim() == c_yx.cohom_dim()
    assert c_yx.hom_dim() == c_xy.cohom_dim()
    assert c_xy.ext1_dim() == c_yx.ext1_dim()


def test_e7_doubled_ext1_reps_at_scale():
    """A forward and a reverse flat point of the E7 setup at twice its
    dimension vectors: alpha is 384x188, and every Ext^1 representative is
    read off and checked in both orders."""
    q, v, w = ade_minimal_resolution_setup("E7")
    dq = double(q)
    x = sample_flat(dq, v + v, w + w, 1, half="forward")
    y = sample_flat(dq, v + v, w + w, 2, half="reverse")
    c_xy, c_yx = build_complex(x, y), build_complex(y, x)
    assert c_xy.alpha.shape == (384, 188)
    for c in (c_xy, c_yx):
        reps = c.ext1_reps()
        assert len(reps) == c.ext1_dim() > 0
        assert (c.beta @ hstack(reps, rows=c.middle.dim)).is_zero
        assert c.independent_mod_coboundaries(reps) == list(range(len(reps)))
    assert c_xy.hom_dim() == c_yx.cohom_dim()
    assert c_yx.hom_dim() == c_xy.cohom_dim()
    assert c_xy.ext1_dim() == c_yx.ext1_dim()


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=20)
def test_hom_basis_intertwines(seed):
    x, y = flat_pair(seed)
    for xi in build_complex(x, y).hom_basis():
        for a in DQ2.arrows:
            lhs = xi[a.target] @ x.B[a.name]
            rhs = y.B[a.name] @ xi[a.source]
            assert lhs == rhs
        for i in DQ2.vertices:
            assert (xi[i] @ x.I[i]).is_zero
            assert (y.J[i] @ xi[i]).is_zero


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=20)
def test_ext1_reps_are_independent_cocycles(seed):
    x, y = flat_pair(seed)
    c = build_complex(x, y)
    reps = c.ext1_reps()
    assert len(reps) == c.ext1_dim()
    for vec in reps:
        assert (c.beta @ vec).is_zero


def test_nonflat_inputs_flagged():
    one_v = DimVector.of(A2, {"1": 1, "2": 1})
    from quivex.ratmat import RatMatrix

    bad = FramedRep(
        DQ2,
        one_v,
        DimVector.zero(A2),
        B={"1->2": RatMatrix.from_rows([[1]]), "1->2*": RatMatrix.from_rows([[1]])},
    )
    report = hom_ext_report(bad, bad)
    assert report["flat"] == [False, False]


def test_report_on_flat_pair():
    x, y = flat_pair(3)
    report = hom_ext_report(x, y)
    assert report["duality_ok"] and report["euler_ok"] and report["ext1_symmetric"]
    assert report["hom"] - report["ext1"] + report["cohom"] == -report["chi"]


# ---------------------------------------------------- reference assembly


def _unit(n, k):
    return RatMatrix.column([1 if t == k else 0 for t in range(n)])


def probe_alpha(c):
    """alpha column by column: the map applied to each unit vector of the
    ends, one matmul per block, independently of the block assembly."""
    x1, x2, dq = c.x1, c.x2, c.x1.dq
    cols = []
    for k in range(c.ends.dim):
        xi = c.ends.unpack(_unit(c.ends.dim, k))["xi"]
        C = {
            a.name: xi[a.target] @ x1.B[a.name] - x2.B[a.name] @ xi[a.source]
            for a in dq.arrows
        }
        D = {i: xi[i] @ x1.I[i] for i in dq.vertices}
        E = {i: -(x2.J[i] @ xi[i]) for i in dq.vertices}
        cols.append(c.middle.pack(arrow=C, I=D, J=E))
    return hstack(cols, rows=c.middle.dim)


def probe_beta(c):
    """beta column by column, applied to each unit vector of the middle."""
    x1, x2, dq = c.x1, c.x2, c.x1.dq
    cols = []
    for k in range(c.middle.dim):
        blocks = c.middle.unpack(_unit(c.middle.dim, k))
        C, D, E = blocks["arrow"], blocks["I"], blocks["J"]
        xi = {}
        for i in dq.vertices:
            acc = RatMatrix.zeros(x2.dim_v[i], x1.dim_v[i])
            for a in dq.arrows_into(i):
                term = x2.B[a.name] @ C[dq.bar(a.name)] + C[a.name] @ x1.B[dq.bar(a.name)]
                acc = acc + (term if dq.eps(a.name) == 1 else -term)
            xi[i] = acc + x2.I[i] @ E[i] + D[i] @ x1.J[i]
        cols.append(c.ends.pack(xi=xi))
    return hstack(cols, rows=c.ends.dim)


D4, D4_V, D4_W = ade_minimal_resolution_setup("D4")
KRONECKER = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
# the edge loop makes the two alpha blocks of an arrow overlap
JORDAN = Quiver(["1"], [Arrow("loop", "1", "1")])

# quiver, (dimV, dimW) of the first and of the second representation
ASSEMBLY_CASES = {
    "A2": (A2, ({"1": 1, "2": 2}, {"1": 1, "2": 1}), ({"1": 2, "2": 1}, {"1": 1, "2": 2})),
    "D4": (D4, (D4_V.as_dict(), D4_W.as_dict()), ({"1": 1, "2": 1, "3": 1}, D4_W.as_dict())),
    "Kronecker": (KRONECKER, ({"1": 2, "2": 1}, {"1": 1}), ({"1": 1, "2": 2}, {"2": 1})),
    "Jordan": (JORDAN, ({"1": 2}, {"1": 1}), ({"1": 3}, {"1": 1})),
}


def dense_point(q, v, w, seed):
    """Nonzero rationals, mostly non-integral, in every block: both halves of
    B and I and J are live, and the point is not flat."""
    rng = random.Random(seed)
    dq, dv, dw = double(q), DimVector.of(q, v), DimVector.of(q, w)

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))

    def block(rows, cols):
        return RatMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)

    B = {a.name: block(dv[a.target], dv[a.source]) for a in dq.arrows}
    I = {i: block(dv[i], dw[i]) for i in dq.vertices}
    J = {i: block(dw[i], dv[i]) for i in dq.vertices}
    return FramedRep(dq, dv, dw, B, I, J)


@pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=8)
def test_assembly_matches_unit_vector_probing(name, seed):
    q, first, second = ASSEMBLY_CASES[name]
    dq = double(q)
    xs, ys = (
        [
            sample_flat(dq, DimVector.of(q, v), DimVector.of(q, w), seed + 2 * n + k, half)
            for k, half in enumerate(("forward", "reverse"))
        ]
        + [dense_point(q, v, w, seed + n)]
        for n, (v, w) in enumerate((first, second))
    )
    for x in xs:
        for y in ys:
            c = build_complex(x, y)
            assert c.alpha == probe_alpha(c)
            assert c.beta == probe_beta(c)


@pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
def test_assembly_builds_no_identity_matrix(monkeypatch, name):
    # swapping the code object also reaches an alias of RatMatrix.identity
    # bound before the patch
    q, (v1, w1), (v2, w2) = ASSEMBLY_CASES[name]
    c = build_complex(dense_point(q, v1, w1, 1), dense_point(q, v2, w2, 2))

    def refuse(cls, n):
        raise AssertionError("an identity matrix was built")

    monkeypatch.setattr(RatMatrix.identity.__func__, "__code__", refuse.__code__)
    alpha, beta = c.alpha, c.beta
    monkeypatch.undo()
    assert (alpha, beta) == (probe_alpha(c), probe_beta(c))


def test_loop_blocks_add():
    # one-dimensional Jordan points with loop values 2 and 3: alpha is 2 - 3
    # on the loop slot, and beta adds 3 and -2 on the reversed loop slot
    dq = double(JORDAN)
    one = DimVector.of(JORDAN, {"1": 1})
    x = FramedRep(dq, one, DimVector.zero(JORDAN), B={"loop": RatMatrix.from_rows([[2]])})
    y = FramedRep(dq, one, DimVector.zero(JORDAN), B={"loop": RatMatrix.from_rows([[3]])})
    c = build_complex(x, y)
    assert c.alpha == RatMatrix.from_rows([[-1], [0]])
    assert c.beta == RatMatrix.from_rows([[0, 1]])


def test_layout_hash_pinned():
    x, y = flat_pair(3)
    c = build_complex(x, y)
    assert c.dims == (4, 13, 4)
    digest = "8a37db8c5c6c4ed2e1747509f399e6fba9f1410b691b3b4732cec72cd561652c"
    assert formats.layout_sha256(c.middle) == digest
    from_simple = build_complex(simple_rep(DQ2, "1"), y).middle
    assert class_layout(y, "1").descriptor() == from_simple.descriptor()


def test_corpus_complexes_pinned():
    """sha256 over the shape and the str of every entry of alpha and beta for
    each ordered pair within each pool of the acceptance corpus (531 pairs);
    the digest was taken when RatMatrix stored Fraction entries."""
    h = hashlib.sha256()
    pairs = 0
    for pool in build_corpus(DEFAULT_SEED).pools.values():
        for x in pool:
            for y in pool:
                c = build_complex(x, y)
                pairs += 1
                for m in (c.alpha, c.beta):
                    h.update(str(m.shape).encode() + b"\n")
                    for row in m.data:
                        for v in row:
                            h.update(str(v).encode() + b"\n")
    assert pairs == 531
    assert h.hexdigest() == "8882c136811562ff5bc0e34e884a1588f1b081f31aa2467b0f034d7a489576c3"


def ladder_pools():
    """The ladder benchmark's four pools, by name: the doubled quiver, v, w
    and the pool's base seed.  The forward and reverse samples take the base
    and the next seed; the crystal attempts start at base + 2."""
    a3 = ade_minimal_resolution_setup("A3")[0]
    affine, infinity = cb_transform(D4, D4_W)
    delta = cb_extend_dim(D4_V, affine, infinity)
    pools = {
        "A3": (a3, DimVector.of(a3, [2, 3, 2]), DimVector.of(a3, [2, 1, 2])),
        "D4": (D4, DimVector.of(D4, [2, 4, 2, 2]), DimVector.of(D4, [1, 2, 1, 1])),
        "E6": ade_minimal_resolution_setup("E6"),
        "affine_D4": (affine, delta + delta, DimVector.zero(affine)),
    }
    return {
        name: (double(q), v, w, DEFAULT_SEED * 1000 + 100 * index)
        for index, (name, (q, v, w)) in enumerate(pools.items())
    }


def ladder_d4_pool():
    """The D4 pool of the ladder benchmark, rebuilt from its seeds."""
    dq, v, w, base = ladder_pools()["D4"]
    forward = sample_flat(dq, v, w, base, half="forward")
    reverse = sample_flat(dq, v, w, base + 1, half="reverse")
    return [forward, reverse, sample_flat_crystal(dq, v, w, base + 2)]


def test_crystal_sampler_pinned():
    """sha256 over the sorted-key JSON of ``formats.rep_to_json`` of every
    crystal attempt on the ladder benchmark's four pools, or "None" for a
    failed one, each pool stopping at its first success or after 40 attempts
    (86 attempts, 2 successes); the digest was taken at e249ee9, when every
    attempt built its first step."""
    h = hashlib.sha256()
    attempts = []
    for dq, v, w, base in ladder_pools().values():
        for k in range(40):
            x = sample_flat_crystal(dq, v, w, base + 2 + k)
            line = "None" if x is None else json.dumps(formats.rep_to_json(x), sort_keys=True)
            h.update(line.encode() + b"\n")
            if x is not None:
                break
        attempts.append(k + 1)
    assert attempts == [5, 1, 40, 40]
    assert h.hexdigest() == "c7b343f9169a10df83d17b5db5cdc2ab81d606b5cfa0925ed5a8ef497ccabca9"


def test_ext1_reps_pinned():
    """sha256 over the count of the ext1_reps vectors and the shape and the
    str of every entry of each, in order, for each ordered pair within each
    pool of the acceptance corpus (531 pairs) and within the ladder's D4 pool
    (9 pairs); the digest was taken when the selection eliminated the image
    of alpha stacked beside the kernel of beta."""
    h = hashlib.sha256()
    pairs = 0
    for pool in [*build_corpus(DEFAULT_SEED).pools.values(), ladder_d4_pool()]:
        for x in pool:
            for y in pool:
                reps = build_complex(x, y).ext1_reps()
                pairs += 1
                h.update(f"{len(reps)}\n".encode())
                for vec in reps:
                    h.update(str(vec.shape).encode() + b"\n")
                    for (v,) in vec.data:
                        h.update(str(v).encode() + b"\n")
    assert pairs == 540
    assert h.hexdigest() == "2b84eb911244f96680b7c74975091374ca505fec27107178b48c6b011ca4c1a5"


# ------------------------------------------------- elimination counts


@pytest.fixture
def counted(monkeypatch, eliminations):
    """A flat pair, sampled first, then a tally of the eliminations and of
    the complexes built from here on."""
    x, y = flat_pair(5)
    eliminations.clear()
    builds = []
    init = homext.Complex3.__init__

    def counting_init(self, x1, x2):
        builds.append(None)
        init(self, x1, x2)

    monkeypatch.setattr(homext.Complex3, "__init__", counting_init)
    return x, y, lambda: {"eliminations": len(eliminations), "build": len(builds)}


def test_each_matrix_eliminated_once(counted):
    x, y, tally = counted
    c = build_complex(x, y)
    assert tally() == {"eliminations": 0, "build": 1}
    c.hom_dim(), c.ext1_dim(), c.cohom_dim()
    c.hom_basis(), c.kernel_beta
    assert tally() == {"eliminations": 2, "build": 1}


def test_dimensions_build_no_kernel(counted):
    # hom, ext1 and cohom are read off the two ranks
    x, y, tally = counted
    c = build_complex(x, y)
    c.hom_dim(), c.ext1_dim(), c.cohom_dim(), c.euler()
    assert "kernel_alpha" not in vars(c) and "kernel_beta" not in vars(c)
    assert tally() == {"eliminations": 2, "build": 1}


def test_report_builds_each_complex_once(counted):
    x, y, tally = counted
    hom_ext_report(x, y)
    assert tally() == {"eliminations": 4, "build": 2}


def test_sampler_builds_one_complex_per_step(counted):
    # each step eliminates beta and two matrices of coordinates on its kernel
    # basis, one in ext1_reps and one in the independence check on extending
    _, _, tally = counted
    v = DimVector.of(A2, {"1": 1, "2": 2})
    assert sample_flat_crystal(DQ2, v, v, 7) is not None
    assert tally() == {"eliminations": 3 * v.total(), "build": v.total()}


def test_sampler_builds_nothing_from_an_unframed_first_vertex(counted):
    # the first step's classes are Hom(C, W_i), and the affine D4 pool has W = 0
    _, _, tally = counted
    dq, v, w, base = ladder_pools()["affine_D4"]
    assert [sample_flat_crystal(dq, v, w, base + 2 + k) for k in range(40)] == [None] * 40
    assert tally() == {"eliminations": 0, "build": 0}


def test_sampler_work_on_the_e6_pool(counted):
    # 32 walks start at a vertex with w_i = 0 and build nothing; 8 take one
    # step (3 eliminations) and find no class at the second (2 eliminations)
    _, _, tally = counted
    dq, v, w, base = ladder_pools()["E6"]
    assert [sample_flat_crystal(dq, v, w, base + 2 + k) for k in range(40)] == [None] * 40
    assert tally() == {"eliminations": 8 * (3 + 2), "build": 8 * 2}


def test_ext1_reps_eliminate_no_alpha(counted):
    x, y, tally = counted
    c = build_complex(x, y)
    c.ext1_reps()
    assert "_alpha_echelon" not in vars(c)
    # beta and the coboundaries' coordinates on the kernel basis
    assert tally() == {"eliminations": 2, "build": 1}


# --------------------------------------- independence modulo coboundaries


def stacked_selection(c, cocycles):
    """The indices the stacked rule selects: the pivot columns past an
    echelon basis of the image of alpha in [that basis | cocycles],
    eliminated at the full middle height."""
    im = [c.alpha.column_matrix(j) for j in rref(c.alpha)[1]]
    pivots = pivot_columns(hstack(im + cocycles, rows=c.middle.dim))
    return [j - len(im) for j in pivots if j >= len(im)]


@given(st.integers(0, 10**6), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=30)
def test_independence_matches_the_stacked_rule(seed, rng):
    x, y = flat_pair(seed)
    c = build_complex(x, y)
    ker = c.kernel_beta
    assert c.ext1_reps() == [ker[k] for k in stacked_selection(c, ker)]
    # integer combinations of cocycles and coboundaries, often dependent
    spanning = ker + [c.alpha.column_matrix(j) for j in range(c.alpha.cols)]
    mixes = []
    for _ in range(rng.randint(0, c.ext1_dim() + 2)):
        vec = RatMatrix.zeros(c.middle.dim, 1)
        for v in spanning:
            vec = vec + v.scale(rng.choice((-1, 0, 0, 0, 1, 2)))
        mixes.append(vec)
    if mixes and rng.random() < 0.3:
        mixes.append(rng.choice(mixes))
    assert c.independent_mod_coboundaries(mixes) == stacked_selection(c, mixes)


A3 = ade_minimal_resolution_setup("A3")[0]


@st.composite
def random_flat_pairs(draw):
    """Two flat points over A2, A3 or D4 with fibers of size up to 2, each
    one-sided (forward or reverse) or built by extensions."""
    q = draw(st.sampled_from([A2, A3, D4]))
    dq = double(q)
    fibers = st.fixed_dictionaries({i: st.integers(0, 2) for i in q.vertices})
    pair = []
    for _ in range(2):
        v, w = DimVector.of(q, draw(fibers)), DimVector.of(q, draw(fibers))
        kind = draw(st.sampled_from(["forward", "reverse", "crystal"]))
        seed = draw(st.integers(0, 10**6))
        x = sample_flat_crystal(dq, v, w, seed) if kind == "crystal" else None
        pair.append(x or sample_flat(dq, v, w, seed, half="reverse" if kind == "reverse" else "forward"))
    return pair


@given(random_flat_pairs())
@settings(deadline=None, max_examples=40)
def test_ext1_reps_select_by_the_independence_rule(pair):
    c = build_complex(*pair)
    reps = c.ext1_reps()
    ker = c.kernel_beta
    assert reps == [ker[k] for k in c.independent_mod_coboundaries(ker)]
    assert len(reps) == c.ext1_dim()


def _line(**maps):
    """The A2 point with V = W = one dimension at vertex 1 and the given
    1x1 I or J there; every such point is flat."""
    u = DimVector.of(A2, {"1": 1, "2": 0})
    return FramedRep(DQ2, u, u, **{k: {"1": RatMatrix.from_rows([[a]])} for k, a in maps.items()})


# pair, the edge it reaches and the Ext^1 representatives
EDGE_PAIRS = {
    "beta_zero_ext1_zero": (
        (_line(I=1), simple_rep(DQ2, "1")),
        lambda c: c.beta.is_zero and not c.alpha.is_zero,
        [],
    ),
    "beta_zero_two_free_columns": (
        (_line(I=1), _line(J=1)),
        lambda c: c.beta.is_zero and c.middle.dim == 2,
        [RatMatrix.column([1, 0])],
    ),
    "no_free_columns": (
        (_line(J=1), simple_rep(DQ2, "1")),
        lambda c: c.rank_beta == c.middle.dim,
        [],
    ),
    "alpha_zero": (
        (_line(J=1), _line(I=1)),
        lambda c: c.alpha.is_zero and not c.beta.is_zero,
        [RatMatrix.column([-1, 1])],
    ),
    "ext1_zero": (
        (_line(I=1), _line(I=1)),
        lambda c: c.ext1_dim() == 0 and not c.alpha.is_zero and not c.beta.is_zero,
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_PAIRS))
def test_ext1_reps_edge_cases(name):
    pair, edge, expected = EDGE_PAIRS[name]
    c = build_complex(*pair)
    assert all(map(is_flat, pair)) and edge(c)
    reps = c.ext1_reps()
    assert reps == expected
    ker = c.kernel_beta
    assert reps == [ker[k] for k in c.independent_mod_coboundaries(ker)]
    assert len(reps) == c.ext1_dim()


# ------------------------------------------------------- block layout


@pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
@given(st.data())
@settings(deadline=None, max_examples=20)
def test_block_layout_round_trip(name, data):
    q = ASSEMBLY_CASES[name][0]
    fibers = st.fixed_dictionaries({i: st.integers(0, 2) for i in q.vertices})
    v1, w1, v2, w2 = (DimVector.of(q, data.draw(fibers)) for _ in range(4))
    dq = double(q)
    for layout in (BlockLayout.middle(dq, v1, w1, v2, w2), BlockLayout.ends(dq, v1, v2)):
        entries = st.lists(st.integers(-3, 3), min_size=layout.dim, max_size=layout.dim)
        vec = RatMatrix.column(data.draw(entries))
        assert layout.pack(**layout.unpack(vec)) == vec


def test_pack_rejects_unknown_blocks():
    layout = build_complex(*flat_pair(3)).middle
    block = RatMatrix.zeros(1, 1)
    with pytest.raises(DimensionError, match="no C block '1->2' in this layout"):
        layout.pack(C={"1->2": block})
    with pytest.raises(DimensionError, match="no I block '3' in this layout"):
        layout.pack(I={"3": block})


def test_pack_refuses_a_block_that_is_not_a_ratmatrix():
    layout = build_complex(*flat_pair(3)).middle
    with pytest.raises(DimensionError, match=r"^J block '1' is not a RatMatrix$"):
        layout.pack(J={"1": [[1]]})
    # refused before the unknown key is looked up
    with pytest.raises(DimensionError, match=r"^I block '3' is not a RatMatrix$"):
        layout.pack(I={"3": None})


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_unpack_checks_the_length(extra):
    c = build_complex(*flat_pair(3))
    for layout in (c.middle, c.ends):
        with pytest.raises(DimensionError):
            layout.unpack(RatMatrix.column([0] * (layout.dim + extra)))


def test_unpack_refuses_a_vector_that_is_not_a_ratmatrix():
    layout = build_complex(*flat_pair(3)).middle
    with pytest.raises(DimensionError, match=r"^block vector is not a RatMatrix$"):
        layout.unpack([[0]] * layout.dim)


def test_pack_refuses_a_wrongly_shaped_block():
    layout = BlockLayout([("I", "1", 2, 1)])
    with pytest.raises(DimensionError, match=r"I block '1' has shape \(1, 1\), expected \(2, 1\)"):
        layout.pack(I={"1": RatMatrix.from_rows([[1]])})


def test_independence_checks_the_shape_of_each_cocycle():
    # a vector outside the middle term, a matrix of two columns or a nested
    # list is not a cocycle: each is refused by its index before any row is
    # read; one matrix is not a list of cocycles
    crystal = a2crystal_bundle()
    c = build_complex(crystal.reps["generic"], crystal.reps["special"])
    assert c.middle.dim == 14
    rep = c.ext1_reps()[0]
    assert c.independent_mod_coboundaries([rep]) == [0]
    cases = [
        ([vstack([rep, RatMatrix.zeros(3, 1)])], r"^cocycle 0 has shape \(17, 1\), expected \(14, 1\)$"),
        ([hstack([rep, rep])], r"^cocycle 0 has shape \(14, 2\), expected \(14, 1\)$"),
        ([rep, hstack([RatMatrix.zeros(14, 1), rep])], r"^cocycle 1 has shape \(14, 2\), expected \(14, 1\)$"),
        ([[1]] * 14, r"^cocycle 0 is not a RatMatrix$"),
        (rep, r"^cocycles are not a list$"),
    ]
    for cocycles, message in cases:
        with pytest.raises(DimensionError, match=message):
            c.independent_mod_coboundaries(cocycles)
