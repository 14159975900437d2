import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivex.errors import DomainError, FormatError, QuiverMismatchError, UnknownExampleError
from quivex.hecke import sample_flat_crystal
from quivex.rep import FramedRep, sample_flat
from quivex.stability import is_stable
from quivex.kacmoody import h_eigenvalue, predicted_component_count, weight_multiplicity
from quivex.quiver import (
    Arrow,
    DimVector,
    Quiver,
    ZetaParam,
    ade_minimal_resolution_setup,
    cartan_matrix,
    cb_extend_dim,
    cb_transform,
    chi,
    d_of,
    dim_bigM,
    double,
    zeta_pair,
)


def a2():
    return ade_minimal_resolution_setup("A2")[0]


def jordan():
    return Quiver(["1"], [Arrow("loop", "1", "1")])


def d4():
    return ade_minimal_resolution_setup("D4")[0]


def test_double_a2():
    dq = double(a2())
    assert [a.name for a in dq.arrows] == ["1->2", "1->2*"]
    assert dq.eps("1->2") == 1 and dq.eps("1->2*") == -1
    assert dq.bar("1->2") == "1->2*" and dq.bar("1->2*") == "1->2"
    assert dq.arrow("1->2*").source == "2"


def test_double_jordan_two_loops():
    dq = double(jordan())
    assert len(dq.arrows) == 2
    assert all(a.source == a.target == "1" for a in dq.arrows)


def test_double_d4_six_arrows():
    assert len(double(d4()).arrows) == 6


def test_cartan_a2():
    assert cartan_matrix(a2()) == ((2, -1), (-1, 2))


def test_cartan_d4():
    gcm = cartan_matrix(d4())
    center = d4().index("2")
    for i in range(4):
        assert gcm[i][i] == 2
        for j in range(4):
            if i != j:
                expected = -1 if center in (i, j) else 0
                assert gcm[i][j] == expected


def test_cartan_jordan():
    assert cartan_matrix(jordan()) == ((0,),)


def test_dim_bigM_a1():
    q = ade_minimal_resolution_setup("A1")[0]
    for k, n in [(1, 2), (3, 5), (0, 4)]:
        v, w = DimVector.of(q, {"1": k}), DimVector.of(q, {"1": n})
        assert dim_bigM(q, v, w) == 2 * k * n
        assert d_of(q, v, w) == 2 * k * (n - k)


def test_dim_bigM_zero_v():
    q = d4()
    assert dim_bigM(q, DimVector.zero(q), DimVector.of(q, {"2": 3})) == 0


def test_dim_chain():
    for n in range(2, 7):
        q, v, w = ade_minimal_resolution_setup(f"A{n}")
        assert dim_bigM(q, v, w) == 2 * (n - 1) + 4
        assert d_of(q, v, w) == 2


def test_d4_setup_dimension():
    q, v, w = ade_minimal_resolution_setup("D4")
    assert dim_bigM(q, v, w) == 16
    assert d_of(q, v, w) == 2


@pytest.mark.parametrize("label", ["A1", "A5", "D4", "D6", "E6", "E7", "E8"])
def test_ade_setups_always_dimension_two(label):
    q, v, w = ade_minimal_resolution_setup(label)
    assert d_of(q, v, w) == 2


def test_ade_values():
    q, v, w = ade_minimal_resolution_setup("A3")
    assert v.values == (1, 1, 1) and w.as_dict() == {"1": 1, "2": 0, "3": 1}
    q, v, w = ade_minimal_resolution_setup("D4")
    assert v.as_dict() == {"1": 1, "2": 2, "3": 1, "4": 1} and w.as_dict()["2"] == 1
    q, v, w = ade_minimal_resolution_setup("A1")
    assert v.values == (1,) and w.values == (2,)


def test_ade_bad_labels():
    for label in ["B2", "D3", "E9", "A0", "X1"]:
        with pytest.raises(UnknownExampleError):
            ade_minimal_resolution_setup(label)


def test_ade_setup_is_shared_and_refusals_are_not_cached():
    first = ade_minimal_resolution_setup("A3")
    again = ade_minimal_resolution_setup("A3")
    assert all(a is b for a, b in zip(first, again))
    for label in ["A0", "E9", "X3"]:
        for _ in range(3):
            with pytest.raises(UnknownExampleError):
                ade_minimal_resolution_setup(label)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ade_minimal_resolution_setup("Ax"), UnknownExampleError),
        (lambda: DimVector.of(Quiver(["1"], []), [1, 2]), FormatError),
        (lambda: DimVector(("1",), ()), DomainError),
        (lambda: a2().index("9"), DomainError),
        (lambda: DimVector.unit(a2(), "9"), DomainError),
        (lambda: DimVector.of(a2(), [1, 0])["9"], DomainError),
        (lambda: ZetaParam.constant(a2(), 1)["9"], DomainError),
        (lambda: double(a2()).arrow("9->1"), DomainError),
    ],
    ids=[
        "ade-label-not-a-number",
        "dim-list-length",
        "dim-values-length",
        "Quiver.index",
        "DimVector.unit",
        "DimVector.__getitem__",
        "ZetaParam.__getitem__",
        "DoubledQuiver.arrow",
    ],
)
def test_refused_names_and_shapes(call, error):
    with pytest.raises(error) as excinfo:
        call()
    assert excinfo.type is error


def test_chi_unit_formula():
    q = a2()
    v = DimVector.of(q, {"1": 1, "2": 2})
    w = DimVector.of(q, {"1": 1, "2": 2})
    assert chi(q, DimVector.unit(q, "1"), DimVector.zero(q), v, w) == 1
    gcm = cartan_matrix(q)
    for idx, i in enumerate(q.vertices):
        expected = w[i] - sum(gcm[idx][j] * v.values[j] for j in range(2))
        assert chi(q, DimVector.unit(q, i), DimVector.zero(q), v, w) == expected


def test_chi_against_zero():
    q = d4()
    v = DimVector.of(q, {"1": 1, "2": 2, "3": 1, "4": 1})
    assert chi(q, v, v, DimVector.zero(q), DimVector.zero(q)) == 0


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(deadline=None)
def test_chi_simple_symmetry(a, b, c, d):
    # the two complexes against a simple have equal Euler characteristic
    q = a2()
    v = DimVector.of(q, {"1": a, "2": b})
    w = DimVector.of(q, {"1": c, "2": d})
    e1 = DimVector.unit(q, "1")
    zero = DimVector.zero(q)
    gcm = cartan_matrix(q)
    h = w["1"] - gcm[0][0] * a - gcm[0][1] * b
    assert chi(q, e1, zero, v, w) + chi(q, v, w, e1, zero) == 2 * h


def test_zeta_pair():
    q = a2()
    ones = ZetaParam.constant(q, 1)
    assert zeta_pair(ones, DimVector.of(q, {"1": 1, "2": 2})) == 3
    assert zeta_pair(ones, DimVector.zero(q)) == 0
    mixed = ZetaParam.of(q, {"1": "1/2", "2": -1})
    assert zeta_pair(mixed, DimVector.of(q, {"1": 2, "2": 1})) == 0
    assert mixed.sign_class == "mixed"
    assert ZetaParam.constant(q, -2).sign_class == "negative"


def test_zeta_rejects_loose_literal():
    with pytest.raises(FormatError, match="bad rational literal ' 3 '"):
        ZetaParam.of(a2(), {"1": " 3 "})


def test_zeta_rejects_bool():
    with pytest.raises(FormatError, match="cannot interpret True"):
        ZetaParam.of(a2(), {"1": True})


def test_cb_transform_a1():
    q = ade_minimal_resolution_setup("A1")[0]
    q2, inf = cb_transform(q, DimVector.of(q, {"1": 2}))
    assert q2.vertices == ("1", "inf")
    assert len(q2.arrows) == 2
    assert all(a.source == inf and a.target == "1" for a in q2.arrows)


def test_cb_transform_names_a_vertex_the_quiver_lacks():
    a1 = ade_minimal_resolution_setup("A1")[0]
    at1, _ = cb_transform(a1, DimVector.of(a1, {"1": 2}))
    q2, inf = cb_transform(at1, DimVector.of(at1, {"1": 1, "inf": 1}))
    assert inf == "inf2" and q2.vertices == ("1", "inf", "inf2")
    assert [a.name for a in q2.arrows[len(at1.arrows):]] == ["inf2->1#0", "inf2->inf#0"]
    q3, inf = cb_transform(q2, DimVector.of(q2, {"inf2": 1}))
    assert inf == "inf3" and q3.vertices == ("1", "inf", "inf2", "inf3")
    assert q3.arrows[-1].name == "inf3->inf2#0"


def test_cb_transform_names_a_vertex_whose_arrow_names_are_free():
    q = Quiver(["1", "x"], [Arrow("inf->1#0", "x", "1")])
    q2, inf = cb_transform(q, DimVector.of(q, {"1": 1}))
    assert inf == "inf2" and q2.vertices == ("1", "x", "inf2")
    assert [a.name for a in q2.arrows] == ["inf->1#0", "inf2->1#0"]


def test_cb_transform_zero_w_isolated_vertex():
    q = a2()
    q2, inf = cb_transform(q, DimVector.zero(q))
    assert inf in q2.vertices
    assert len(q2.arrows) == len(q.arrows)


@pytest.mark.parametrize("bad", [2.5, True, "2", 2.0])
def test_dimvector_of_does_not_coerce(bad):
    with pytest.raises(DomainError):
        DimVector.of(a2(), {"1": bad})
    with pytest.raises(DomainError):
        DimVector.of(a2(), [bad, 0])


def test_dimvector_rejects_bool_values():
    with pytest.raises(DomainError):
        DimVector(("1",), (True,))


def test_cb_transform_chain_is_affine_cycle():
    # both chain ends tied to the new vertex closes the diagram into a cycle
    n = 4
    q, v, w = ade_minimal_resolution_setup(f"A{n}")
    q2, inf = cb_transform(q, w)
    assert len(q2.arrows) == (n - 1) + 2
    degree = {x: 0 for x in q2.vertices}
    for a in q2.arrows:
        degree[a.source] += 1
        degree[a.target] += 1
    assert all(d == 2 for d in degree.values())


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
@settings(deadline=None)
def test_cb_dimension_count(a, b, c, d):
    # framed ambient dimension equals the unframed one after the rewrite
    q = a2()
    v = DimVector.of(q, {"1": a, "2": b})
    w = DimVector.of(q, {"1": c, "2": d})
    q2, inf = cb_transform(q, w)
    v2 = cb_extend_dim(v, q2, inf)
    assert dim_bigM(q, v, w) == dim_bigM(q2, v2, DimVector.zero(q2))


def test_dimvector_materializes_zeros():
    q = d4()
    v = DimVector.of(q, {"2": 5})
    assert v.as_dict() == {"1": 0, "2": 5, "3": 0, "4": 0}
    with pytest.raises(FormatError):
        DimVector.of(q, {"9": 1})
    with pytest.raises(DomainError):
        DimVector.of(q, {"2": -1})


def test_quiver_validation():
    with pytest.raises(DomainError):
        Quiver(["1", "1"], [])
    with pytest.raises(DomainError):
        Quiver(["1"], [Arrow("a", "1", "2")])
    with pytest.raises(DomainError):
        Quiver(["1"], [Arrow("a*", "1", "1")])
    with pytest.raises(DomainError):
        Quiver(["1"], [Arrow("a", "1", "1"), Arrow("a", "1", "1")])
    with pytest.raises(DomainError, match=re.escape("arrow (1, '1', '1') is not an Arrow")):
        Quiver(["1"], [(1, "1", "1")])
    with pytest.raises(DomainError, match=re.escape("arrow ('a', '1') is not an Arrow")):
        Quiver(["1"], [("a", "1")])
    with pytest.raises(DomainError, match="arrow 5 is not an Arrow"):
        Quiver(["1"], [5])


_A2_VECTOR = DimVector(("1", "2"), (1, 0))
_VECTOR_CALLS = {
    "dim_bigM": lambda bad: dim_bigM(a2(), bad, _A2_VECTOR),
    "d_of": lambda bad: d_of(a2(), _A2_VECTOR, bad),
    "chi": lambda bad: chi(a2(), _A2_VECTOR, _A2_VECTOR, bad, _A2_VECTOR),
    "h_eigenvalue": lambda bad: h_eigenvalue(a2(), bad, _A2_VECTOR, "1"),
    "cb_transform": lambda bad: cb_transform(a2(), bad),
    "cb_extend_dim": lambda bad: cb_extend_dim(bad, *cb_transform(a2(), _A2_VECTOR)),
    "DimVector.__add__": lambda bad: _A2_VECTOR + bad,
    "zeta_pair": lambda bad: zeta_pair(ZetaParam.constant(a2(), 1), bad),
    "weight_multiplicity": lambda bad: weight_multiplicity(a2(), _A2_VECTOR, bad),
    "predicted_component_count": lambda bad: predicted_component_count(a2(), bad, _A2_VECTOR),
    "sample_flat_crystal dim_v": lambda bad: sample_flat_crystal(double(a2()), bad, _A2_VECTOR, 0),
    "sample_flat_crystal dim_w": lambda bad: sample_flat_crystal(double(a2()), _A2_VECTOR, bad, 0),
    "sample_flat dim_v": lambda bad: sample_flat(double(a2()), bad, _A2_VECTOR, 0),
    "sample_flat dim_w": lambda bad: sample_flat(double(a2()), _A2_VECTOR, bad, 0),
    "FramedRep dim_v": lambda bad: FramedRep(double(a2()), bad, _A2_VECTOR),
    "FramedRep dim_w": lambda bad: FramedRep(double(a2()), _A2_VECTOR, bad),
    "is_stable zeta": lambda bad: is_stable(
        FramedRep(double(a2()), _A2_VECTOR, _A2_VECTOR),
        ZetaParam(bad.vertices, (Fraction(1),) * len(bad.vertices)),
    ),
}


@pytest.mark.parametrize(
    "bad",
    [DimVector(("2", "1"), (1, 0)), DimVector(("1", "2", "3"), (1, 0, 0)), DimVector(("1",), (1,))],
    ids=["reordered", "A3", "A1"],
)
@pytest.mark.parametrize("call", [*_VECTOR_CALLS, "DimVector.replace"])
def test_vector_over_another_vertex_set_rejected(call, bad):
    # every function keyed to a quiver's vertices rejects a vector in
    # another order or over another quiver, instead of reading it by name
    # or by position; replace rejects a vertex the vector lacks
    if call == "DimVector.replace":
        with pytest.raises(DomainError, match="unknown vertex '9'"):
            bad.replace("9", 5)
    else:
        with pytest.raises(QuiverMismatchError, match="mismatched vertex sets"):
            _VECTOR_CALLS[call](bad)


@pytest.mark.parametrize("bad", [[1, 0], {"1": 1, "2": 0}, None], ids=["list", "dict", "None"])
@pytest.mark.parametrize("call", [name for name in _VECTOR_CALLS if name != "is_stable zeta"])
def test_value_that_is_not_a_vector_rejected(call, bad):
    # the same functions refuse a value of another type, naming its type,
    # instead of failing on a missing attribute
    kind = type(bad).__name__
    with pytest.raises(DomainError, match=f"^expected a DimVector or ZetaParam, got {kind}$") as excinfo:
        _VECTOR_CALLS[call](bad)
    assert excinfo.type is DomainError
