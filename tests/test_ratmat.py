import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivex import ratmat
from quivex.bundles import get_bundle
from quivex.errors import DimensionError, FormatError, InconsistentSystemError, InternalCheckError
from quivex.homext import build_complex
from quivex.invariants import pi_fingerprint
from quivex.ratmat import (
    RatMatrix,
    as_fraction,
    column_space_echelon,
    hstack,
    inverse,
    kernel_basis,
    pivot_columns,
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


def reference_rref(m):
    """Gauss-Jordan elimination entry by entry in ``Fraction``s, pivoting on
    the first nonzero entry down a column and dividing each pivot row by its
    pivot at once.  Its pivot columns are those of ``rref``, whichever row
    that picks as the pivot, and the reduced form is unique, so the two
    agree."""
    grid = [list(r) for r in m.data]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        target = None
        for r in range(pr, m.rows):
            if grid[r][pc] != 0:
                target = r
                break
        if target is None:
            continue
        grid[pr], grid[target] = grid[target], grid[pr]
        pv = grid[pr][pc]
        if pv != 1:
            grid[pr] = [v / pv for v in grid[pr]]
        for r in range(m.rows):
            if r != pr and grid[r][pc] != 0:
                f = grid[r][pc]
                grid[r] = [a - f * b for a, b in zip(grid[r], grid[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return RatMatrix(m.rows, m.cols, tuple(tuple(r) for r in grid)), tuple(pivots)


def reference_kernel(m):
    """The dense reading of ``rref(m)``: for each free column f, 1 at f and
    minus column f of the reduced rows at their pivot columns."""
    reduced, pivots = rref(m)
    basis = []
    for free in sorted(set(range(m.cols)) - set(pivots)):
        vec = [0] * m.cols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r, free]
        basis.append(RatMatrix.column(vec))
    return basis


def reference_matmul(a, b):
    """The product as a sum of ``Fraction`` products per entry."""
    b_cols = list(zip(*b.data)) if b.data else [()] * b.cols
    if b.rows == 0:
        return RatMatrix.zeros(a.rows, b.cols)
    data = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in b_cols) for row in a.data
    )
    return RatMatrix(a.rows, b.cols, data)


# Denominators that drive entry growth in integer elimination: a large prime
# next to products of small primes.
large_entries = st.builds(
    Fraction,
    st.integers(-(10**12), 10**12),
    st.sampled_from([1, 2, 6, 30, 210, 2310, 30030, 2**31 - 1, 10**9 + 7, 10**9 + 9]),
)


@st.composite
def wide_or_tall(draw, max_rows=10, max_cols=14, entries=entries):
    """A matrix of up to 10x14 whose later rows may be combinations of the
    earlier ones, so that its rank can fall short of both dimensions."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    data = []
    for _ in range(rows):
        if data and draw(st.booleans()):
            picked = draw(st.lists(st.sampled_from(data), min_size=1, max_size=3))
            coefs = draw(st.lists(entries, min_size=len(picked), max_size=len(picked)))
            data.append(
                [sum((c * r[j] for c, r in zip(coefs, picked)), Fraction(0)) for j in range(cols)]
            )
        else:
            data.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return RatMatrix.from_rows(data, cols=cols)


any_matrix = st.one_of(
    matrices(),
    wide_or_tall(),
    wide_or_tall(entries=large_entries),
    wide_or_tall(max_rows=6, max_cols=6, entries=st.sampled_from([0, 0, 0, 1, -1, 2])),
)


@st.composite
def sparse_integer_matrices(draw):
    """An integer matrix of up to 20x30 at 5-25% density, entries up to 10^9
    in size, with some rows combinations of earlier ones and some rows and
    columns zero."""
    rows = draw(st.integers(0, 20))
    cols = draw(st.integers(0, 30))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 4)) if cols else set()
    live = [j for j in range(cols) if j not in zero_cols]
    fewest, most = (max(1, round(d * len(live))) for d in (0.05, 0.25))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**9), 10**9)).filter(bool)
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["sparse", "sparse", "sparse", "dependent", "zero"]))
        row = [0] * cols
        if kind == "dependent" and data:
            picked = draw(st.lists(st.sampled_from(data), min_size=1, max_size=3))
            for r in picked:
                c = draw(st.integers(-5, 5))
                row = [a + c * b for a, b in zip(row, r)]
        elif kind != "zero" and live:
            spots = st.lists(st.sampled_from(live), min_size=fewest, max_size=most, unique=True)
            for j in draw(spots):
                row[j] = draw(entry)
        data.append(row)
    return RatMatrix.from_rows(data, cols=cols)


@given(sparse_integer_matrices())
@settings(deadline=None, max_examples=60)
def test_sparse_integer_matrices_at_size(m):
    reduced, pivots = rref(m)
    assert (reduced, pivots) == reference_rref(m)
    assert pivot_columns(m) == pivots
    assert rank(m) == rank(m.transpose())


@given(sparse_integer_matrices())
@example(RatMatrix.zeros(0, 4))
@example(RatMatrix.zeros(4, 0))
@example(RatMatrix.zeros(3, 5))
@example(RatMatrix.from_rows([[0, 4, 0, -6, 0]]))
@example(RatMatrix.from_rows([[0, 0, 7]]))
@example(RatMatrix.from_rows([[0, 0, 0]]))
@settings(deadline=None, max_examples=60)
def test_kernel_basis_equals_dense_reading(m):
    basis = kernel_basis(m)
    assert basis == reference_kernel(m)
    # any subset of the free columns gives the matching vectors
    echelon = ratmat._echelon(m)
    free = ratmat.free_columns(echelon, m.cols)
    assert ratmat.kernel_vectors(echelon, m.cols, free[1::2]) == basis[1::2]


@given(st.one_of(sparse_integer_matrices(), matrices()))
@example(RatMatrix.zeros(3, 5))
@example(RatMatrix.identity(4))
@example(RatMatrix.zeros(0, 4))
@example(RatMatrix.zeros(4, 0))
@settings(deadline=None, max_examples=60)
def test_kernel_rows_are_the_stacked_kernel_basis(m):
    assert ratmat.kernel_rows(m) == hstack(kernel_basis(m), rows=m.cols).transpose()


def assert_canonical_entries(m):
    for row in m.data:
        for v in row:
            assert type(v) is Fraction
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


@given(any_matrix)
@example(RatMatrix.zeros(0, 3))
@example(RatMatrix.zeros(3, 0))
@example(RatMatrix.from_rows([[0, 0, 0]]))
@example(RatMatrix.from_rows([[0, 0, 5]]))
@example(RatMatrix.from_rows([[-2, 4, 6]]))
@example(RatMatrix.from_rows([["1/2", 0, "-3/4"]]))
@settings(deadline=None, max_examples=150)
def test_rref_equals_fraction_reference(m):
    reduced, pivots = rref(m)
    assert (reduced, pivots) == reference_rref(m)
    assert reduced.shape == m.shape
    assert_canonical_entries(reduced)
    for r, pc in enumerate(pivots):
        assert reduced[r, pc] == 1
    assert rank(m) == len(pivots)


@st.composite
def factor_pairs(draw):
    inner = draw(st.integers(0, 14))
    left_rows = draw(st.integers(0, 10))
    right_cols = draw(st.integers(0, 10))
    pool = draw(st.sampled_from([entries, large_entries, st.sampled_from([0, 0, 1, -1])]))

    def grid(rows, cols):
        return st.lists(st.lists(pool, min_size=cols, max_size=cols), min_size=rows, max_size=rows)

    left = draw(grid(left_rows, inner))
    right = draw(grid(inner, right_cols))
    return RatMatrix.from_rows(left, cols=inner), RatMatrix.from_rows(right, cols=right_cols)


@given(factor_pairs())
@example((RatMatrix.zeros(2, 0), RatMatrix.zeros(0, 3)))
@example((RatMatrix.zeros(0, 2), RatMatrix.zeros(2, 3)))
@example((RatMatrix.zeros(3, 2), RatMatrix.zeros(2, 0)))
@settings(deadline=None, max_examples=150)
def test_matmul_equals_fraction_reference(pair):
    a, b = pair
    product = a @ b
    assert product == reference_matmul(a, b)
    assert product.shape == (a.rows, b.cols)
    assert_canonical_entries(product)


def kernel_digest() -> str:
    """sha256 over the str of every entry and pivot of rref(alpha),
    rref(beta), ext1_reps and hom_basis for each ordered pair of members of
    the d4 and a2crystal bundles, then of the d4 point's fingerprint at
    bound 8."""
    h = hashlib.sha256()

    def put(value):
        h.update(str(value).encode() + b"\n")

    def put_matrix(m):
        put(m.shape)
        for row in m.data:
            for v in row:
                put(v)

    for name in ("d4", "a2crystal"):
        reps = get_bundle(name).reps
        for a in reps:
            for b in reps:
                c = build_complex(reps[a], reps[b])
                for m in (c.alpha, c.beta):
                    reduced, pivots = rref(m)
                    put_matrix(reduced)
                    for p in pivots:
                        put(p)
                for v in c.ext1_reps():
                    put_matrix(v)
                for blocks in c.hom_basis():
                    for key, m in blocks.items():
                        put(key)
                        put_matrix(m)
    for label, value in pi_fingerprint(get_bundle("d4").reps["point"], 8):
        put(label)
        put(value)
    return h.hexdigest()


def test_kernel_outputs_pinned_digest():
    """Any kernel behind rref and @ must reproduce these outputs bit for bit;
    the digest was taken from the entry-by-entry Fraction kernel."""
    assert kernel_digest() == "edcab4340aed40a22d554e9d5417e9feb8d1e3a7a9550818834e893a1d2bc490"


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RatMatrix.from_rows([[1, 2], [3]]), "ragged matrix: row 1 has 1 entries, expected 2"),
        (lambda: RatMatrix.zeros(2, 3).trace(), r"trace of non-square \(2, 3\)"),
    ],
    ids=["ragged-rows", "non-square-trace"],
)
def test_refused_shapes(call, message):
    with pytest.raises(DimensionError, match=f"^{message}$") as excinfo:
        call()
    assert excinfo.type is DimensionError


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
    with pytest.raises(InconsistentSystemError, match="^matrix is singular$"):
        inverse(RatMatrix.from_rows([[1, 2], [2, 4]]))


def test_inverse_product_check_is_an_internal_check(monkeypatch):
    # only a wrong solve can fail the product check, so it reports a bug
    monkeypatch.setattr(ratmat, "solve_exact", lambda a, b: b.scale(2))
    with pytest.raises(InternalCheckError):
        inverse(RatMatrix.identity(2))


def test_stack_empty_needs_shape():
    assert hstack([], rows=2) == RatMatrix.zeros(2, 0)
    assert vstack([], cols=3) == RatMatrix.zeros(0, 3)
    with pytest.raises(DimensionError):
        hstack([])


def assert_stored_form(m):
    """Integer rows over one positive denominator, in lowest terms."""
    assert len(m.nums) == m.rows and all(len(r) == m.cols for r in m.nums)
    assert all(type(a) is int for r in m.nums for a in r) and type(m.den) is int
    assert m.den > 0 and gcd(m.den, *(a for r in m.nums for a in r)) == 1
    assert m.den == 1 or not m.is_zero


@given(any_matrix, st.one_of(entries, large_entries))
@settings(deadline=None, max_examples=100)
def test_every_result_is_in_stored_form(m, s):
    t = m.transpose()
    results = [
        rref(m)[0],
        rref(t)[0],
        m @ t,
        t @ m,
        m + m.scale(s),
        m - m,
        m - m.scale(s),
        -m,
        m.scale(s),
        t,
        hstack([m, m.scale(s)]),
        vstack([m, m.scale(s)]),
        *kernel_basis(m),
        column_space_echelon(m),
        solve_exact(m, m),
        RatMatrix.zeros(*m.shape),
        RatMatrix(m.rows, m.cols, m.data),
    ]
    for r in results:
        assert_stored_form(r)
    for a in results:
        for b in results:
            assert (a == b) == ((a.shape, a.data) == (b.shape, b.data))
            if a == b:
                assert hash(a) == hash(b)


def integral_matrices():
    """Integral matrices of rank short of full, with zero rows and columns."""
    rng = random.Random(20160831)
    out = [RatMatrix.zeros(0, 3), RatMatrix.zeros(3, 0), RatMatrix.zeros(2, 2)]
    for rows, cols in [(3, 5), (6, 4), (8, 8)]:
        grid = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows - 1)]
        grid.append([2 * a - b for a, b in zip(grid[0], grid[-1])])
        out.append(RatMatrix.from_rows(grid))
    return out


def test_integral_elimination_and_products_build_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    mats = integral_matrices()
    monkeypatch.setattr(ratmat, "Fraction", no_fraction)
    for m in mats:
        echelon = ratmat._echelon(m)
        reduced_rows = ratmat._back_substitute(echelon, m.cols)
        assert all(type(a) is int for row in reduced_rows.values() for a in row.values())
        reduced, pivots = rref(m)
        assert rank(m) == len(pivots)
        assert pivot_columns(m) == pivots
        assert len(kernel_basis(m)) == m.cols - len(pivots)
        assert column_space_echelon(m).cols == len(pivots)
        assert m @ solve_exact(m, m) == m
        assert (m @ m.transpose()).shape == (m.rows, m.rows)
        assert (m.transpose() @ m).shape == (m.cols, m.cols)
    monkeypatch.undo()
    for m in mats:
        assert rref(m) == reference_rref(m)
        assert m @ m.transpose() == reference_matmul(m, m.transpose())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hstack([RatMatrix.zeros(1, 1), RatMatrix.zeros(2, 1)]), "hstack row mismatch: 2 vs 1"),
        (lambda: vstack([RatMatrix.zeros(1, 1), RatMatrix.zeros(1, 2)]), "vstack column mismatch: 2 vs 1"),
        (lambda: vstack([]), "vstack of no matrices needs an explicit column count"),
        (lambda: solve_exact(RatMatrix.zeros(2, 2), RatMatrix.zeros(3, 1)), r"solve: \(2, 2\) against rhs \(3, 1\)"),
        (lambda: inverse(RatMatrix.zeros(1, 2)), r"inverse of non-square \(1, 2\)"),
        (lambda: RatMatrix(2, 3, [[1, 2, 3]]), "matrix has 1 rows, expected 2"),
        (lambda: RatMatrix(1, 1, [[1, 2]]), "ragged matrix: row 0 has 2 entries, expected 1"),
        (lambda: RatMatrix(0, 3, [[1, 2, 3]]), "matrix has 1 rows, expected 0"),
    ],
    ids=[
        "hstack-rows",
        "vstack-cols",
        "vstack-empty",
        "solve-rows",
        "inverse-non-square",
        "init-row-count",
        "init-long-row",
        "init-row-of-zero-row-matrix",
    ],
)
def test_refused_shapes_raise_dimension_error(call, message):
    with pytest.raises(DimensionError, match=message) as excinfo:
        call()
    assert excinfo.type is DimensionError
