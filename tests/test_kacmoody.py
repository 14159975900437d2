import hashlib
import itertools
import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest

from quivex import kacmoody
from quivex.errors import CutoffError, DomainError, InternalCheckError, InvalidCartanError
from quivex.kacmoody import (
    MultiplicitySession,
    h_eigenvalue,
    is_finite_type,
    predicted_component_count,
    root_multiplicities,
    roots_for_quiver,
    validate_gcm,
)
from quivex.quiver import (
    Arrow,
    DimVector,
    Quiver,
    ade_minimal_resolution_setup,
    cartan_matrix,
    cb_extend_dim,
    cb_transform,
    d_of,
)


def brute_force_positive_roots(gcm, bound):
    """Independent oracle for simply-laced finite type: nonzero nonnegative
    vectors of squared norm 2 in a coefficient box."""
    n = len(gcm)
    roots = []
    for beta in itertools.product(range(bound + 1), repeat=n):
        if not any(beta):
            continue
        norm = sum(beta[i] * gcm[i][j] * beta[j] for i in range(n) for j in range(n))
        if norm == 2:
            roots.append(beta)
    return sorted(roots)


@pytest.mark.parametrize(
    "label,expected_count",
    [("A2", 3), ("A3", 6), ("D4", 12), ("D5", 20), ("E6", 36)],
)
def test_finite_root_counts_against_brute_force(label, expected_count):
    q = ade_minimal_resolution_setup(label)[0]
    gcm = cartan_matrix(q)
    rs = root_multiplicities(gcm)
    assert rs.finite
    enumerated = sorted(beta for beta, mult in rs.positive_roots)
    assert enumerated == brute_force_positive_roots(gcm, 6)
    assert len(enumerated) == expected_count
    assert all(mult == 1 for _, mult in rs.positive_roots)


FINITE_LABELS = (
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
)


def plus_minus_root_closure(gcm):
    """The positive roots of a finite-type symmetric GCM by closing the
    simple roots under every simple reflection, positive and negative roots
    alike, then keeping the positive ones in (height, coefficients) order."""
    n = len(gcm)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = sum(gcm[i][j] * beta[j] for j in range(n))
            gamma = tuple(beta[j] - (pairing if j == i else 0) for j in range(n))
            if gamma not in seen:
                seen.add(gamma)
                frontier.append(gamma)
    positives = sorted(
        (b for b in seen if all(v >= 0 for v in b) and any(v > 0 for v in b)),
        key=lambda b: (sum(b), b),
    )
    return [(b, 1) for b in positives]


@pytest.mark.parametrize("label", FINITE_LABELS)
def test_raising_closure_matches_plus_minus_closure(label):
    gcm = cartan_matrix(ade_minimal_resolution_setup(label)[0])
    assert list(root_multiplicities(gcm).positive_roots) == plus_minus_root_closure(gcm)


def test_gcm_validation():
    with pytest.raises(InvalidCartanError):
        validate_gcm(((0,),))  # edge-loop diagonal
    with pytest.raises(InvalidCartanError):
        validate_gcm(((2, -1), (0, 2)))  # not symmetric
    with pytest.raises(InvalidCartanError):
        validate_gcm(((2, 1), (1, 2)))  # positive off-diagonal


def test_jordan_quiver_rejected_upstream():
    q = Quiver(["1"], [Arrow("l", "1", "1")])
    with pytest.raises(InvalidCartanError):
        roots_for_quiver(q, 4)


def test_finite_type_detection():
    assert is_finite_type(((2, -1), (-1, 2)))
    assert not is_finite_type(((2, -2), (-2, 2)))


def ldl_is_finite_type(gcm):
    """Positive definiteness by the pivots of exact symmetric elimination in
    Fractions: the reference for the fraction-free minors of
    ``is_finite_type``."""
    n = len(gcm)
    work = [[Fraction(v) for v in row] for row in gcm]
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        for r in range(k + 1, n):
            f = work[r][k] / pivot
            if f == 0:
                continue
            for c in range(k, n):
                work[r][c] -= f * work[k][c]
    return True


@pytest.mark.parametrize("label", FINITE_LABELS)
def test_finite_type_matches_ldl_reference_on_ade_setups(label):
    # the setup, its framing rewrite (affine) and its x2 rewrite (neither)
    gcms = [
        cartan_matrix(ade_minimal_resolution_setup(label)[0]),
        affine_rewrite_gcm(label),
        cartan_matrix(scaled_rewrite(label, 2)[0]),
    ]
    assert [ldl_is_finite_type(gcm) for gcm in gcms] == [True, False, False]
    assert [is_finite_type(gcm) for gcm in gcms] == [True, False, False]


def test_finite_type_matches_ldl_reference_on_random_gcms():
    # symmetric GCMs of rank 1-7, entries in {0, -1, -2, -3} at a random
    # density, so sparse (often disconnected) and dense ones both occur
    rng = random.Random(0)
    verdicts = []
    for _ in range(2400):
        n = rng.randint(1, 7)
        density = rng.random()
        gcm = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    gcm[i][j] = gcm[j][i] = rng.choice((-1, -1, -1, -2, -3))
        gcm = tuple(map(tuple, gcm))
        verdicts.append(ldl_is_finite_type(gcm))
        assert is_finite_type(gcm) == verdicts[-1], gcm
    assert min(verdicts.count(True), verdicts.count(False)) > 500


def test_affine_root_multiplicities_by_peterson():
    # untwisted affine rank-two: real roots and imaginary multiples of delta,
    # every multiplicity equal to one
    gcm = ((2, -2), (-2, 2))
    rs = root_multiplicities(gcm, cutoff=8)
    assert not rs.finite
    table = dict(rs.positive_roots)
    for k in range(1, 5):
        assert table[(k, k)] == 1  # k * delta
    for k in range(0, 4):
        assert table[(k + 1, k)] == 1 and table[(k, k + 1)] == 1  # real roots
    assert (2, 0) not in table and (3, 1) not in table


def compositions(total, parts):
    """Every vector of ``parts`` nonnegative entries summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def affine_rewrite_gcm(label):
    """The Cartan matrix of the framing rewrite of an ADE setup."""
    q, _, w = ade_minimal_resolution_setup(label)
    return cartan_matrix(cb_transform(q, w)[0])


def affine_roots_from_norm(gcm, cutoff):
    """Independent oracle for untwisted affine simply-laced type: positive
    vectors of norm 2 are the real roots (multiplicity 1), those of norm 0
    the multiples of delta (multiplicity the rank of the finite type).  The
    vectors are enumerated by height, not over the whole cube."""
    n = len(gcm)
    roots = {}
    for height in range(1, cutoff + 1):
        for beta in compositions(height, n):
            norm = form(gcm, beta, beta)
            if norm in (0, 2):
                roots[beta] = 1 if norm == 2 else n - 1
    return roots


@pytest.mark.parametrize(
    "label,cutoff,delta_mults",
    [
        ("A2", 6, {(1, 1, 1): 2, (2, 2, 2): 2}),
        ("D4", 8, {(1, 2, 1, 1, 1): 4}),
        ("E6", 12, {(1, 2, 2, 3, 2, 1, 1): 6}),
    ],
)
def test_affine_roots_past_zero_pivots(label, cutoff, delta_mults):
    # (beta, beta) = 2 ht(beta) at twice a real root, e.g. 2(alpha_1 + alpha_2)
    # on the triangle: Peterson's pivot vanishes there and c_beta is the
    # divisor part alone
    gcm = affine_rewrite_gcm(label)
    table = dict(root_multiplicities(gcm, cutoff).positive_roots)
    assert table == affine_roots_from_norm(gcm, cutoff)
    assert {beta: m for beta, m in table.items() if m > 1} == delta_mults


def composition_peterson_roots(gcm, cutoff, box=None):
    """Peterson's recursion over every composition beta of each height and
    every part of beta's box: the reference for the sum over support pairs
    in ``kacmoody._peterson_roots``.  Given a box, it walks only the
    compositions in it; each one reads only its own parts, which are in it."""
    n = len(gcm)
    c = {}
    mult = {}
    for i in range(n):
        alpha = tuple(1 if j == i else 0 for j in range(n))
        if box is None or box[i]:
            c[alpha] = Fraction(1)
            mult[alpha] = 1
    for height in range(2, cutoff + 1):
        for beta in compositions(height, n):
            if box is not None and any(b > m for b, m in zip(beta, box)):
                continue
            numerator = Fraction(0)
            for part in itertools.product(*(range(b + 1) for b in beta)):
                if not any(part) or part == beta:
                    continue
                rest = tuple(b - p for b, p in zip(beta, part))
                if c.get(part) and c.get(rest):
                    numerator += form(gcm, part, rest) * c[part] * c[rest]
            divisor_part = Fraction(0)
            for k in range(2, height + 1):
                if all(b % k == 0 for b in beta):
                    divisor_part += Fraction(mult.get(tuple(b // k for b in beta), 0), k)
            denominator = form(gcm, beta, beta) - 2 * height
            if denominator:
                c_beta = numerator / denominator
            else:
                assert not numerator, beta
                c_beta = divisor_part
            m = c_beta - divisor_part
            assert m.denominator == 1 and m >= 0, beta
            if c_beta:
                c[beta] = c_beta
            if m:
                mult[beta] = int(m)
    return sorted(mult.items(), key=lambda t: (sum(t[0]), t[0]))


def random_non_finite_gcms(count, seed):
    """Seeded symmetric GCMs of rank 2-5 with off-diagonal entries in
    {0, -1, -2}, keeping the ones not of finite type (affine, hyperbolic and
    beyond, connected or not)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randint(2, 5)
        gcm = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                gcm[i][j] = gcm[j][i] = rng.choice((0, -1, -2))
        gcm = tuple(map(tuple, gcm))
        if not ldl_is_finite_type(gcm):
            found.append(gcm)
    return found


@pytest.mark.parametrize(
    "count,seed,digest",
    [
        (40, 0, "1697c3be24cb9b75321a4e328f937d7ec9f4914a358bd29a790cfaee508fe01d"),
        (10, 1, "b0d91c6630bc7e73aaf4c29340b597a8e824b503a6c8909fdb9914aeac50a51f"),
    ],
)
def test_random_non_finite_gcms_pinned(count, seed, digest):
    # the Peterson reference tests below keep testing the same GCMs
    assert hashlib.sha256(repr(random_non_finite_gcms(count, seed)).encode()).hexdigest() == digest


# the top cutoff per rank keeps the reference's box walk to about a second
RANDOM_CUTOFFS = {2: 10, 3: 7, 4: 6, 5: 5}


@pytest.mark.parametrize(
    "gcm,top",
    [
        pytest.param(((2, -2), (-2, 2)), 12, id="rank2-minus2"),
        pytest.param(((2, -3), (-3, 2)), 12, id="rank2-minus3"),
        pytest.param(affine_rewrite_gcm("A2"), 8, id="triangle"),
        pytest.param(affine_rewrite_gcm("D4"), 10, id="affine-D4"),
    ]
    + [
        pytest.param(gcm, RANDOM_CUTOFFS[len(gcm)], id=f"random-{k}")
        for k, gcm in enumerate(random_non_finite_gcms(40, 0))
    ],
)
def test_peterson_roots_match_composition_reference(gcm, top):
    reference = composition_peterson_roots(gcm, top)
    for cutoff in range(1, top + 1):
        expected = [(beta, m) for beta, m in reference if sum(beta) <= cutoff]
        assert list(root_multiplicities(gcm, cutoff).positive_roots) == expected, cutoff


def peterson_coefficient(table, beta):
    """c_beta = sum over k dividing gcd(beta) of mult(beta/k)/k, read from a
    root table."""
    common = gcd(*beta)
    return sum(Fraction(table.get(tuple(b // k for b in beta), 0), k) for k in range(1, common + 1) if common % k == 0)


@pytest.mark.parametrize("cutoff", [7, 8, 15, 16])
@pytest.mark.parametrize("gcm", [((2, -2), (-2, 2)), ((2, -3), (-3, 2))], ids=["rank2-minus2", "rank2-minus3"])
def test_cutoffs_at_key_field_boundaries(gcm, cutoff):
    # without a box a key field holds the cutoff: 7 and 15 fill a field
    # width, 8 and 16 take one bit more
    assert list(root_multiplicities(gcm, cutoff).positive_roots) == composition_peterson_roots(gcm, cutoff)


@pytest.mark.parametrize(
    "gcm,box",
    [
        (((2, -3), (-3, 2)), (15, 15)),
        (((2, -3), (-3, 2)), (15, 16)),
        (((2, -3), (-3, 2)), (16, 0)),
        (((2, -2), (-2, 2)), (0, 0)),
        (affine_rewrite_gcm("A2"), (3, 3, 3)),
        (affine_rewrite_gcm("A2"), (3, 4, 0)),
        (affine_rewrite_gcm("A2"), (7, 3, 0)),
        (affine_rewrite_gcm("A2"), (7, 8, 1)),
        (affine_rewrite_gcm("A2"), (8, 0, 7)),
        (affine_rewrite_gcm("D4"), (1, 2, 0, 2, 1)),
    ],
)
def test_boxes_at_key_field_boundaries(gcm, box):
    # largest entries 2^k - 1 and 2^k on either side of a field width, and
    # zero entries, which leave simple roots out
    roots = kacmoody._root_system(gcm, max(1, sum(box)), box)
    assert list(roots.positive_roots) == composition_peterson_roots(gcm, sum(box), box)


@pytest.mark.parametrize(
    "gcm,cutoff,coefficients",
    [
        (((2, -2), (-2, 2)), 12, {(k, 0): Fraction(1, k) for k in range(1, 13)} | {(2, 2): Fraction(3, 2)}),
        (affine_rewrite_gcm("A2"), 9, {(3, 3, 3): Fraction(8, 3), (0, 0, 2): Fraction(1, 2)}),
    ],
    ids=["rank2-minus2", "triangle"],
)
def test_scaled_coefficients_with_denominators(gcm, cutoff, coefficients):
    # c_{k alpha_i} = 1/k, c_{2 delta} = 3/2 on the first and c_{3 delta} = 2 +
    # 2/3 on the triangle: the scaled coefficients carry these exactly
    reference = composition_peterson_roots(gcm, cutoff)
    assert list(root_multiplicities(gcm, cutoff).positive_roots) == reference
    table = dict(reference)
    assert {beta: peterson_coefficient(table, beta) for beta in coefficients} == coefficients


@pytest.mark.parametrize(
    "gcm,cutoff,scale,beta",
    [(((2, -2), (-2, 2)), 2, 1, (0, 2)), (affine_rewrite_gcm("A2"), 9, 2, (0, 0, 3))],
    ids=["rank2-minus2", "triangle"],
)
def test_coefficient_scale_too_small_is_refused(monkeypatch, gcm, cutoff, scale, beta):
    # c_beta has denominator 2 or 3, which does not divide the forced scale:
    # the coefficient is refused, never floored
    monkeypatch.setattr(kacmoody, "lcm", lambda *divisors: scale)
    with pytest.raises(InternalCheckError, match=re.escape(f"non-integral root multiplicity at {beta}")):
        root_multiplicities(gcm, cutoff)


def test_lost_divisor_part_is_refused(monkeypatch):
    # with every gcd read as 1, c_{2 alpha_2} = 1/2 is an integral scaled
    # coefficient but a multiplicity of 1/2
    monkeypatch.setattr(kacmoody, "gcd", lambda *beta: 1)
    with pytest.raises(InternalCheckError, match=re.escape("non-integral root multiplicity at (0, 2)")):
        root_multiplicities(((2, -2), (-2, 2)), 2)


def scaled_rewrite(label, factor):
    """The framing rewrite of an ADE setup with v and w scaled by ``factor``:
    the rewritten quiver, the drop v + e_inf and the highest weight
    Lambda_inf.  At factor 2 the rewrite has two arrows into some vertex, so
    it is not of finite or affine type."""
    q, v, w = ade_minimal_resolution_setup(label)
    affine, infinity = cb_transform(q, DimVector(w.vertices, tuple(factor * x for x in w.values)))
    drop = cb_extend_dim(DimVector(v.vertices, tuple(factor * x for x in v.values)), affine, infinity)
    return affine, drop, DimVector.of(affine, {infinity: 1})


def in_box(beta, box):
    return all(b <= m for b, m in zip(beta, box))


def test_box_reference_is_the_reference_restricted_to_the_box():
    gcm = affine_rewrite_gcm("D4")
    for box in ((1, 2, 1, 1, 1), (2, 1, 0, 1, 2)):
        full = composition_peterson_roots(gcm, sum(box))
        expected = [(beta, m) for beta, m in full if in_box(beta, box)]
        assert composition_peterson_roots(gcm, sum(box), box) == expected, box


@pytest.mark.parametrize(
    "label,factor,scale",
    [pytest.param("D4", 1, 2, id="affine-D4-2delta"), pytest.param("D4", 2, 1, id="D4x2-rewrite")],
)
def test_box_roots_match_composition_reference(label, factor, scale):
    # the box of the drop of the rewrite, times scale
    affine, drop, _ = scaled_rewrite(label, factor)
    box = tuple(scale * d for d in drop.values)
    gcm = cartan_matrix(affine)
    roots = kacmoody._root_system(gcm, sum(box), box)
    assert not roots.finite and roots.cutoff == sum(box)
    assert list(roots.positive_roots) == composition_peterson_roots(gcm, sum(box), box)


@pytest.mark.parametrize(
    "gcm", [pytest.param(gcm, id=f"random-{k}") for k, gcm in enumerate(random_non_finite_gcms(10, 1))]
)
def test_random_box_roots_match_composition_reference(gcm):
    # boxes with zero entries leave some simple roots out
    rng = random.Random(len(gcm) + sum(map(sum, gcm)))
    box = tuple(rng.randint(0, 3) for _ in gcm)
    roots = kacmoody._root_system(gcm, max(1, sum(box)), box)
    assert list(roots.positive_roots) == composition_peterson_roots(gcm, sum(box), box)


@pytest.mark.parametrize("label,count", [("D4", 12), ("D5", 20), ("E6", 36)])
def test_doubled_rewrite_multiplicity_is_the_finite_count(label, count):
    # Crawley-Boevey (2001): the multiplicity of the framing rewrite at
    # v + e_inf in L(Lambda_inf) is the one at v in L(w); with v and w
    # doubled the rewrite is hyperbolic, and its roots are built on the box
    # of the drop alone
    q, v, w = ade_minimal_resolution_setup(label)
    doubled_v = DimVector(v.vertices, tuple(2 * x for x in v.values))
    doubled_w = DimVector(w.vertices, tuple(2 * x for x in w.values))
    assert predicted_component_count(q, doubled_v, doubled_w) == count
    affine, drop, highest = scaled_rewrite(label, 2)
    assert not is_finite_type(cartan_matrix(affine))
    assert predicted_component_count(affine, drop, highest) == count
    assert kacmoody.weight_multiplicity(affine, drop, highest) == (count, drop.total())


def test_count_builds_only_the_roots_in_the_box(monkeypatch):
    built = []
    peterson = kacmoody._peterson_roots

    def recording(*args):
        built.append(peterson(*args))
        return built[-1]

    monkeypatch.setattr(kacmoody, "_peterson_roots", recording)
    affine, drop, highest = scaled_rewrite("D4", 2)
    assert predicted_component_count(affine, drop, highest) == 12
    [roots] = built
    assert roots and all(in_box(beta, drop.values) for beta, _ in roots)


@pytest.mark.parametrize("label,n,expected", [("D4", 1, 4), ("E6", 1, 6), ("E7", 1, 7), ("D4", 2, 14)])
def test_basic_representation_multiplicities(label, n, expected):
    # Frenkel-Kac: in the basic representation L(Lambda_0) of an untwisted
    # affine simply-laced algebra of rank l, mult(Lambda_0 - delta) = l and
    # mult(Lambda_0 - 2 delta) = l(l + 3)/2
    q, v, w = ade_minimal_resolution_setup(label)
    affine, infinity = cb_transform(q, w)
    delta = cb_extend_dim(v, affine, infinity)
    drop = DimVector(affine.vertices, tuple(n * d for d in delta.values))
    assert predicted_component_count(affine, drop, DimVector.of(affine, {infinity: 1})) == expected


def test_sl2_weight_multiplicities():
    q = ade_minimal_resolution_setup("A1")[0]
    for n in range(0, 7):
        w = DimVector.of(q, {"1": n})
        for k in range(0, n + 3):
            v = DimVector.of(q, {"1": k})
            expected = 1 if k <= n else 0
            assert predicted_component_count(q, v, w) == expected


def test_an_adjoint_zero_weight():
    for n in range(2, 7):
        q, v, w = ade_minimal_resolution_setup(f"A{n}")
        assert predicted_component_count(q, v, w) == n


def test_an_adjoint_other_weights_zero_or_one():
    # highest root minus the drop must be a root (weight space a point) or
    # a non-root (empty); hand-checked against the consecutive-sum roots
    q, _, w = ade_minimal_resolution_setup("A3")
    cases = {
        (1, 1, 0): 1,
        (0, 1, 1): 1,
        (1, 0, 1): 1,
        (1, 2, 1): 1,
        (2, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 0, 0): 0,
        (0, 2, 0): 0,
        (3, 1, 1): 0,
    }
    for drop, expected in cases.items():
        v = DimVector(q.vertices, drop)
        assert predicted_component_count(q, v, w) == expected, drop


def test_d4_adjoint():
    q, v, w = ade_minimal_resolution_setup("D4")
    assert predicted_component_count(q, v, w) == 4
    roots = roots_for_quiver(q, 2 * v.total())
    session = MultiplicitySession(roots, w.values)
    total = sum(
        session.multiplicity(drop)
        for drop in itertools.product(*[range(0, 2 * m + 1) for m in v.values])
    )
    assert total == 28


def test_total_dimension_sl2_and_a2():
    q1 = ade_minimal_resolution_setup("A1")[0]
    roots1 = roots_for_quiver(q1, 10)
    for n in (2, 5):
        session = MultiplicitySession(roots1, (n,))
        assert sum(session.multiplicity((k,)) for k in range(0, n + 1)) == n + 1
    q2, v2, w2 = ade_minimal_resolution_setup("A2")
    roots2 = roots_for_quiver(q2, 10)
    session = MultiplicitySession(roots2, w2.values)
    total = sum(
        session.multiplicity(drop) for drop in itertools.product(range(0, 3), repeat=2)
    )
    assert total == 8  # adjoint of the rank-two special linear algebra


def test_weyl_symmetry_of_multiplicities():
    q, v, w = ade_minimal_resolution_setup("D4")
    roots = roots_for_quiver(q, 12)
    session = MultiplicitySession(roots, w.values)
    gcm = cartan_matrix(q)
    for drop in itertools.product(range(0, 3), range(0, 4), range(0, 3), range(0, 3)):
        for idx in range(4):
            h = w.values[idx] - sum(gcm[idx][j] * drop[j] for j in range(4))
            reflected = tuple(
                d + (h if j == idx else 0) for j, d in enumerate(drop)
            )
            if all(r >= 0 for r in reflected):
                assert session.multiplicity(drop) == session.multiplicity(reflected)


def test_h_eigenvalue():
    q = ade_minimal_resolution_setup("A1")[0]
    for n in range(0, 5):
        for k in range(0, 5):
            v = DimVector.of(q, {"1": k})
            w = DimVector.of(q, {"1": n})
            assert h_eigenvalue(q, v, w, "1") == n - 2 * k
    q2, v2, w2 = ade_minimal_resolution_setup("A2")
    assert h_eigenvalue(q2, DimVector.zero(q2), w2, "1") == w2["1"]


def test_highest_weight_space_is_a_point():
    for label in ("A2", "D4"):
        q, _, w = ade_minimal_resolution_setup(label)
        assert predicted_component_count(q, DimVector.zero(q), w) == 1


def test_negative_expected_dimension_means_zero_count():
    q, _, _ = ade_minimal_resolution_setup("A2")
    for vals in itertools.product(range(0, 4), repeat=2):
        v = DimVector(q.vertices, vals)
        for wvals in itertools.product(range(0, 3), repeat=2):
            w = DimVector(q.vertices, wvals)
            if d_of(q, v, w) < 0:
                assert predicted_component_count(q, v, w) == 0


def test_cutoff_error_is_loud():
    q = ade_minimal_resolution_setup("A1")[0]
    affine, _ = cb_transform(q, DimVector.of(q, {"1": 2}))
    roots = roots_for_quiver(affine, 3)
    session = MultiplicitySession(roots, DimVector.of(affine, {"1": 1, "inf": 1}).values)
    with pytest.raises(CutoffError):
        session.multiplicity(DimVector.of(affine, {"1": 3, "inf": 2}).values)


def test_mismatched_vertex_sets_rejected():
    q = ade_minimal_resolution_setup("A2")[0]
    v = DimVector.of(q, {"1": 1})
    w = DimVector(("1", "3"), (1, 1))
    with pytest.raises(DomainError, match="mismatched vertex sets"):
        predicted_component_count(q, v, w)
    # the vertex sets are compared before any root system is built
    jordan = Quiver(["1"], [Arrow("l", "1", "1")])
    with pytest.raises(DomainError, match="mismatched vertex sets"):
        predicted_component_count(jordan, DimVector(("1",), (1,)), DimVector(("2",), (1,)))
    # v and w agree with each other but not with the quiver
    xy = DimVector(("x", "y"), (1, 1))
    with pytest.raises(DomainError, match="mismatched vertex sets"):
        predicted_component_count(q, xy, xy)


class RecursiveReference:
    """The recursive Freudenthal evaluation, memoising every drop it meets:
    the reference for the dominant-drop worklist in ``MultiplicitySession``."""

    def __init__(self, roots, highest):
        self.roots = roots
        self.highest = highest
        self.memo = {(0,) * roots.rank: 1}

    def multiplicity(self, drop):
        if any(d < 0 for d in drop):
            return 0
        return self._mult(drop)

    def _mult(self, drop):
        cached = self.memo.get(drop)
        if cached is not None:
            return cached
        gcm = self.roots.gcm
        w = self.highest
        denominator = 2 * sum(d * (wi + 1) for d, wi in zip(drop, w)) - form(gcm, drop, drop)
        if denominator <= 0:
            self.memo[drop] = 0
            return 0
        total = 0
        for alpha, alpha_mult in self.roots.positive_roots:
            if any(a > d for a, d in zip(alpha, drop)):
                continue
            lam_alpha = sum(a * wi for a, wi in zip(alpha, w))
            drop_alpha = form(gcm, drop, alpha)
            k = 1
            while True:
                shifted = tuple(d - k * a for d, a in zip(drop, alpha))
                if any(s < 0 for s in shifted):
                    break
                m = self._mult(shifted)
                if m:
                    total += alpha_mult * m * (lam_alpha - drop_alpha + k * form(gcm, alpha, alpha))
                k += 1
        value, remainder = divmod(2 * total, denominator)
        assert not remainder and value >= 0, drop
        self.memo[drop] = value
        return value


def form(gcm, a, b):
    return sum(a[i] * gcm[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))


def assert_dominant_memo(session):
    gcm, w = session.roots.gcm, session.highest
    for key in session._memo:
        values = [w[i] - sum(gcm[i][j] * key[j] for j in range(len(key))) for i in range(len(key))]
        assert min(values) >= 0, key


@pytest.mark.parametrize(
    "label,scale,size", [("D4", 2, 135), ("A4", 2, 81), ("E6", 1, 432)]
)
def test_dominant_drops_match_recursive_reference(label, scale, size):
    q, v, w = ade_minimal_resolution_setup(label)
    roots = roots_for_quiver(q, scale * v.total())
    drops = list(itertools.product(*(range(scale * m + 1) for m in v.values)))
    assert len(drops) == size
    session = MultiplicitySession(roots, w.values)
    reference = RecursiveReference(roots, w.values)
    assert [session.multiplicity(d) for d in drops] == [reference.multiplicity(d) for d in drops]
    assert_dominant_memo(session)


@pytest.mark.parametrize("label", ["A2", "D4"])
def test_affine_rewrites_match_recursive_reference(label):
    # W-invariance holds for every integrable highest-weight module, so the
    # affine rewrites are checked at every highest weight in {0, 1}^n
    q, _, w = ade_minimal_resolution_setup(label)
    affine, _ = cb_transform(q, w)
    roots = roots_for_quiver(affine, 8)
    n = len(affine.vertices)
    drops = [d for d in itertools.product(range(3), repeat=n) if sum(d) <= 8]
    for highest in itertools.product(range(2), repeat=n):
        session = MultiplicitySession(roots, highest)
        reference = RecursiveReference(roots, highest)
        values = [session.multiplicity(d) for d in drops]
        assert values == [reference.multiplicity(d) for d in drops], highest
        assert_dominant_memo(session)


def kronecker_quiver():
    return Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])


def a1_framing_rewrite():
    q = ade_minimal_resolution_setup("A1")[0]
    return cb_transform(q, DimVector.of(q, {"1": 2}))[0]


@pytest.mark.parametrize("make_quiver", [kronecker_quiver, a1_framing_rewrite])
def test_cartan_entry_minus_two_matches_recursive_reference(make_quiver):
    # two parallel arrows give the off-diagonal Cartan entry -2, which no
    # simply-laced finite type has
    q = make_quiver()
    gcm = cartan_matrix(q)
    assert gcm[0][1] == gcm[1][0] == -2
    roots = roots_for_quiver(q, 8)
    drops = [d for d in itertools.product(range(9), repeat=2) if sum(d) <= 8]
    for highest in itertools.product(range(3), repeat=2):
        session = MultiplicitySession(roots, highest)
        reference = RecursiveReference(roots, highest)
        values = [session.multiplicity(d) for d in drops]
        assert values == [reference.multiplicity(d) for d in drops], highest
        assert_dominant_memo(session)


def first_negative_dominant(gcm, highest, drop):
    """Dominant reduction that reflects at the first negative coroot value,
    recomputing every value from the Cartan matrix: the reference for the
    least-value order of ``MultiplicitySession._dominant``."""
    reduced = list(drop)
    while True:
        values = [h - sum(g * d for g, d in zip(row, reduced)) for h, row in zip(highest, gcm)]
        negative = [i for i, c in enumerate(values) if c < 0]
        if not negative:
            return tuple(reduced)
        reduced[negative[0]] += values[negative[0]]
        if reduced[negative[0]] < 0:
            return None


def dominant_reduction_cases():
    """(quiver, highest weight, drops): the E6 adjoint box, the affine-D4
    rewrite boxes of ``test_affine_rewrites_match_recursive_reference`` and
    the box of the D4 x2 rewrite."""
    q, v, w = ade_minimal_resolution_setup("E6")
    yield q, w.values, list(itertools.product(*(range(2 * m + 1) for m in v.values)))
    q, _, w = ade_minimal_resolution_setup("D4")
    affine, _ = cb_transform(q, w)
    drops = [d for d in itertools.product(range(3), repeat=5) if sum(d) <= 8]
    for highest in itertools.product(range(2), repeat=5):
        yield affine, highest, drops
    rewrite, drop, highest = scaled_rewrite("D4", 2)
    yield rewrite, highest.values, list(itertools.product(*(range(d + 1) for d in drop.values)))


def test_dominant_reduction_is_order_independent():
    verdicts = set()
    for q, highest, drops in dominant_reduction_cases():
        gcm = cartan_matrix(q)
        session = MultiplicitySession(roots_for_quiver(q, 1), highest)
        for drop in drops:
            expected = first_negative_dominant(gcm, highest, drop)
            values = session._coroot_values(drop)
            assert (None if values is None else session._dominant(drop, values)) == expected, (highest, drop)
            verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_rank_zero_session():
    session = MultiplicitySession(root_multiplicities(()), ())
    assert session.multiplicity(()) == 1
    with pytest.raises(DomainError, match="wrong rank"):
        session.multiplicity((0,))


def test_e6_adjoint_box_sum_is_the_dimension():
    q, v, w = ade_minimal_resolution_setup("E6")
    roots = roots_for_quiver(q, 2 * v.total())
    session = MultiplicitySession(roots, w.values)
    drops = itertools.product(*(range(2 * m + 1) for m in v.values))
    assert sum(session.multiplicity(d) for d in drops) == 78


def test_e6_adjoint_box_reflects_only_weights_inside_the_cone(monkeypatch):
    # 5,059 of the 7,875 queries stop at a coroot value that leaves the
    # cone; 48 of the 2,864 reductions come from Freudenthal terms
    reduced = []
    dominant = MultiplicitySession._dominant

    def counted(self, drop, values):
        reduced.append(drop)
        return dominant(self, drop, values)

    monkeypatch.setattr(MultiplicitySession, "_dominant", counted)
    q, v, w = ade_minimal_resolution_setup("E6")
    session = MultiplicitySession(roots_for_quiver(q, 2 * v.total()), w.values)
    drops = itertools.product(*(range(2 * m + 1) for m in v.values))
    assert sum(session.multiplicity(d) for d in drops) == 78
    assert len(reduced) == 2864


@pytest.mark.parametrize("label,rank", [("E6", 6), ("E7", 7), ("E8", 8)])
def test_adjoint_zero_weight_is_the_rank(label, rank):
    q, v, w = ade_minimal_resolution_setup(label)
    session = MultiplicitySession(roots_for_quiver(q, v.total()), w.values)
    assert session.multiplicity(v.values) == rank
    # every root is W-conjugate to the highest root, so the zero weight
    # needs only the highest weight and itself
    assert sorted(session._memo) == [(0,) * rank, v.values]


@pytest.mark.parametrize("highest", [(-1,), (True,)])
def test_highest_weight_must_be_dominant_integral(highest):
    roots = roots_for_quiver(ade_minimal_resolution_setup("A1")[0], 2)
    with pytest.raises(DomainError, match="highest weight"):
        MultiplicitySession(roots, highest)


def test_deep_drops_need_no_recursion():
    # a recursive evaluation nests 500 calls here, beyond the lowered limit
    q = ade_minimal_resolution_setup("A1")[0]
    v = DimVector.of(q, {"1": 500})
    w = DimVector.of(q, {"1": 1000})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert predicted_component_count(q, v, w) == 1
    finally:
        sys.setrecursionlimit(limit)


def oracle_digest():
    """sha256 over the positive roots of A1-A8, D4-D8 and E6-E8, and over
    the multiplicities and the dominant-drop memo keys, in memo order, of
    the E6 adjoint box, of the D4 box at twice the adjoint highest weight and
    of the affine-rewrite sessions of
    ``test_affine_rewrites_match_recursive_reference``."""
    h = hashlib.sha256()

    def feed(session, drops):
        h.update(repr([session.multiplicity(d) for d in drops]).encode())
        h.update(repr(list(session._memo)).encode())

    for label in FINITE_LABELS:
        gcm = cartan_matrix(ade_minimal_resolution_setup(label)[0])
        h.update(repr((label, root_multiplicities(gcm).positive_roots)).encode())
    for label, factor in (("E6", 1), ("D4", 2)):
        q, v, w = ade_minimal_resolution_setup(label)
        roots = roots_for_quiver(q, 2 * factor * v.total())
        drops = list(itertools.product(*(range(2 * factor * m + 1) for m in v.values)))
        feed(MultiplicitySession(roots, tuple(factor * h for h in w.values)), drops)
    for label in ("A2", "D4"):
        q, _, w = ade_minimal_resolution_setup(label)
        affine, _ = cb_transform(q, w)
        roots = roots_for_quiver(affine, 8)
        h.update(repr(roots.positive_roots).encode())
        n = len(affine.vertices)
        drops = [d for d in itertools.product(range(3), repeat=n) if sum(d) <= 8]
        for highest in itertools.product(range(2), repeat=n):
            feed(MultiplicitySession(roots, highest), drops)
    return h.hexdigest()


def test_oracle_outputs_pinned_digest():
    """Root lists and their order, multiplicities and memo keys stay
    bit-identical; the digest was taken from the dense-Cartan oracle that
    closed positive and negative roots under every reflection."""
    assert oracle_digest() == "c70ae9da6dd8a17779afa3d688d9b61105f9b75b36052225c88a42296749ede0"


A1_GCM = ((2,),)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: root_multiplicities(A1_GCM, 0), DomainError, "height cutoff must be at least 1"),
        (
            lambda: MultiplicitySession(root_multiplicities(A1_GCM), (1, 0)),
            DomainError,
            "highest weight has the wrong rank",
        ),
        (lambda: validate_gcm(((2, -1),)), InvalidCartanError, "Cartan matrix is not square"),
        (lambda: MultiplicitySession(root_multiplicities(A1_GCM), (2,)).multiplicity((0.5,)), DomainError, "0.5"),
        (lambda: MultiplicitySession(root_multiplicities(A1_GCM), (2,)).multiplicity(("1",)), DomainError, "'1'"),
        (lambda: MultiplicitySession(root_multiplicities(A1_GCM), (2,)).multiplicity((True,)), DomainError, "True"),
        (lambda: root_multiplicities(((2, -1.5), (-1.5, 2))), InvalidCartanError, "-1.5 is not an integer"),
        (lambda: root_multiplicities(((2, -1.0), (-1.0, 2))), InvalidCartanError, "-1.0 is not an integer"),
        (lambda: validate_gcm(((2, False), (False, 2))), InvalidCartanError, "False is not an integer"),
        (lambda: root_multiplicities(affine_rewrite_gcm("A2"), 2.5), DomainError, "2.5 is not an integer"),
        (lambda: root_multiplicities(affine_rewrite_gcm("A2"), "3"), DomainError, "'3' is not an integer"),
        (lambda: root_multiplicities(affine_rewrite_gcm("A2"), True), DomainError, "True is not an integer"),
    ],
    ids=[
        "cutoff-0",
        "highest-rank",
        "gcm-not-square",
        "drop-float",
        "drop-str",
        "drop-bool",
        "gcm-half",
        "gcm-float",
        "gcm-bool",
        "cutoff-float",
        "cutoff-str",
        "cutoff-bool",
    ],
)
def test_refused_inputs_raise_their_error_class(call, error, message):
    with pytest.raises(error, match=message) as excinfo:
        call()
    assert excinfo.type is error


def test_multiplicity_of_a_drop_with_a_negative_entry_is_zero():
    session = MultiplicitySession(root_multiplicities(A1_GCM), (2,))
    assert session.multiplicity((-1,)) == 0


def test_refusals_keep_their_order_outside_finite_type():
    # a negative entry answers 0 before the cutoff is read, and an entry
    # that is not an int is refused before either
    session = MultiplicitySession(root_multiplicities(affine_rewrite_gcm("A2"), 4), (1, 0, 0))
    assert session.multiplicity((-1, 100, 0)) == 0
    with pytest.raises(CutoffError):
        session.multiplicity((0, 100, 0))
    with pytest.raises(DomainError, match="0.5 is not an integer"):
        session.multiplicity((0.5, 100, 0))
