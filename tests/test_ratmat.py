from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivex.errors import DimensionError, FormatError, InconsistentSystemError
from quivex.ratmat import (
    RatMatrix,
    as_fraction,
    column_space_echelon,
    hstack,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve_exact,
    vstack,
)

entries = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return RatMatrix.from_rows(data, cols=cols)


def test_rank_identity():
    assert rank(RatMatrix.identity(2)) == 2


def test_rank_empty():
    assert rank(RatMatrix.zeros(0, 3)) == 0


def test_rank_dependent_rows():
    assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_line():
    (vec,) = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert vec == RatMatrix.column([-1, 1])


def test_kernel_of_identity_empty():
    assert kernel_basis(RatMatrix.identity(3)) == []


def test_kernel_of_zero_is_standard_basis():
    basis = kernel_basis(RatMatrix.zeros(2, 2))
    assert basis == [RatMatrix.column([1, 0]), RatMatrix.column([0, 1])]


def test_compose_identity():
    m = RatMatrix.from_rows([[1, 2], [3, "4/3"]])
    assert RatMatrix.identity(2) @ m == m


def test_rational_product():
    m = RatMatrix.from_rows([["2/3"]]) @ RatMatrix.from_rows([["3/4"]])
    assert m[0, 0] == Fraction(1, 2)


def test_shape_mismatch_errors():
    with pytest.raises(DimensionError):
        RatMatrix.identity(2) @ RatMatrix.identity(3)
    with pytest.raises(DimensionError):
        RatMatrix.identity(2) + RatMatrix.zeros(2, 3)


@given(matrices())
@settings(deadline=None)
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
@settings(deadline=None)
def test_rank_transpose(m):
    assert rank(m) == rank(m.transpose())


@given(matrices())
@settings(deadline=None)
def test_kernel_vectors_annihilated(m):
    for v in kernel_basis(m):
        assert (m @ v).is_zero


@given(matrices())
@settings(deadline=None)
def test_echelon_deterministic(m):
    assert rref(m) == rref(m)


@given(matrices())
@settings(deadline=None)
def test_column_space_echelon_canonical(m):
    canon = column_space_echelon(m)
    assert canon.cols == rank(m)
    # scrambling the generators must not change the canonical basis
    doubled = hstack([m, m.scale(3)])
    assert column_space_echelon(doubled) == canon


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RatMatrix.from_rows([["1_0"]]), "bad rational literal '1_0'"),
        (lambda: RatMatrix.column(["1/0"]), "bad rational literal '1/0'"),
        (lambda: as_fraction(2.5), "cannot interpret 2.5"),
        (lambda: as_fraction(True), "cannot interpret True"),
        (lambda: RatMatrix.from_rows([[True]]), "cannot interpret True"),
    ],
    ids=["from_rows", "column", "float", "bool", "bool_entry"],
)
def test_bad_scalars_raise_format_error(build, message):
    with pytest.raises(FormatError, match=message):
        build()


def test_solve_and_inverse():
    m = RatMatrix.from_rows([[2, 1], [1, 1]])
    rhs = RatMatrix.column([3, 2])
    x = solve_exact(m, rhs)
    assert m @ x == rhs
    assert m @ inverse(m) == RatMatrix.identity(2)


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystemError):
        solve_exact(RatMatrix.from_rows([[1], [1]]), RatMatrix.column([0, 1]))


def test_inverse_singular():
    with pytest.raises(InconsistentSystemError):
        inverse(RatMatrix.from_rows([[1, 2], [2, 4]]))


def test_stack_empty_needs_shape():
    assert hstack([], rows=2) == RatMatrix.zeros(2, 0)
    assert vstack([], cols=3) == RatMatrix.zeros(0, 3)
    with pytest.raises(DimensionError):
        hstack([])
