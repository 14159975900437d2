"""Runnable acceptance checks: exact-equality verdicts for the sl2 family,
the chain and star setups, the complex/duality/stability property suites on
a seeded flat corpus, the crystal walk, and the framing-rewrite consistency
run.

Everything is exact arithmetic, so every check is equality at tolerance
zero.  The corpus seeds are pinned here; ``run_suites`` accepts a different
seed for reproductions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import hecke, homext, invariants, kacmoody
from .bundles import a2crystal_bundle, an_bundle, an_chain_sample
from .errors import DomainError, InternalCheckError, NotFlatError
from .quiver import (
    DimVector,
    DoubledQuiver,
    ZetaParam,
    ade_minimal_resolution_setup,
    cb_transform,
    chi,
    d_of,
    dim_bigM,
    double,
)
from .ratmat import kernel_rows
from .rep import (
    FramedRep,
    _random_matrix,
    cb_apply,
    is_flat,
    sample_flat,
    simple_rep,
)
from .stability import is_stable

DEFAULT_SEED = 20160831


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name}"


def _capped(failures: list[str]) -> list[str]:
    """The first 12 failure messages, then one entry counting the rest."""
    rest = [f"… and {len(failures) - 12} more"] if len(failures) > 12 else []
    return failures[:12] + rest


# ---------------------------------------------------------------- corpus


def _shape_configs() -> list[tuple[str, DoubledQuiver, list[tuple[DimVector, DimVector]]]]:
    """Per corpus shape, its doubled quiver and its (v, w) configurations."""
    a1 = ade_minimal_resolution_setup("A1")[0]
    at1, _ = cb_transform(a1, DimVector.of(a1, {"1": 2}))
    table = [
        (
            "A2",
            ade_minimal_resolution_setup("A2")[0],
            [
                ({"1": 1, "2": 1}, {"1": 1, "2": 1}),
                ({"1": 1, "2": 2}, {"1": 1, "2": 2}),
                ({"1": 2, "2": 1}, {"1": 1}),
                ({"1": 2, "2": 2}, {"2": 2}),
                ({"1": 1, "2": 2}, {"1": 2}),
            ],
        ),
        (
            "A3",
            ade_minimal_resolution_setup("A3")[0],
            [
                ({"1": 1, "2": 1, "3": 1}, {"1": 1, "3": 1}),
                ({"1": 1, "2": 2, "3": 1}, {"2": 1}),
                ({"1": 2, "2": 1, "3": 1}, {"1": 1, "3": 1}),
                ({"1": 1, "2": 2, "3": 2}, {"1": 1, "2": 1}),
            ],
        ),
        (
            "D4",
            ade_minimal_resolution_setup("D4")[0],
            [
                ({"1": 1, "2": 2, "3": 1, "4": 1}, {"2": 1}),
                ({"1": 1, "2": 1, "3": 1, "4": 1}, {"2": 1}),
                ({"1": 1, "2": 2, "3": 1}, {"2": 2}),
            ],
        ),
        (
            "At1",
            at1,
            [
                ({"1": 1, "inf": 1}, {"1": 1}),
                ({"1": 2, "inf": 1}, {"inf": 1}),
                ({"1": 1, "inf": 2}, {"1": 1, "inf": 1}),
            ],
        ),
    ]
    return [
        (shape, double(q), [(DimVector.of(q, v), DimVector.of(q, w)) for v, w in configs])
        for shape, q, configs in table
    ]


@dataclass
class Corpus:
    pools: dict[str, list[FramedRep]]

    def all_samples(self) -> list[FramedRep]:
        return [x for pool in self.pools.values() for x in pool]


def build_corpus(seed: int) -> Corpus:
    """Per shape, three flat samples per dimension configuration: the two
    one-sided random constructions and a crystal-built point (falling back
    to one-sided when a step has no extensions)."""
    pools: dict[str, list[FramedRep]] = {}
    counter = itertools.count(seed * 1000)
    for shape, dq, configs in _shape_configs():
        pool = []
        for v, w in configs:
            pool.append(sample_flat(dq, v, w, next(counter), half="forward"))
            pool.append(sample_flat(dq, v, w, next(counter), half="reverse"))
            crystal = hecke.sample_flat_crystal(dq, v, w, next(counter))
            pool.append(crystal if crystal is not None else sample_flat(dq, v, w, next(counter)))
        for x in pool:
            if not is_flat(x):
                raise InternalCheckError(f"corpus sample on {shape} is not flat")
        pools[shape] = pool
    return Corpus(pools)


# ------------------------------------------------------------ criterion 1


def _a1_flat_sample(
    dq: DoubledQuiver, v: DimVector, w: DimVector, rng: random.Random
) -> tuple[FramedRep, int]:
    """A flat point on the A1 double with dim V = v and dim W = w, and rank J:
    a random J, of random rank half the time, I on the left kernel of J, and
    rank J = n - dim of that kernel, read off the elimination of J^T."""
    k, n = v["1"], w["1"]
    if k > 0 and rng.random() < 0.5:
        t = rng.randrange(0, k)
        J = _random_matrix(rng, n, t) @ _random_matrix(rng, t, k)
    else:
        J = _random_matrix(rng, n, k)
    left = kernel_rows(J.transpose())
    I = _random_matrix(rng, k, left.rows) @ left
    return FramedRep(dq, v, w, I={"1": I}, J={"1": J}), n - left.rows


def criterion_1(seed: int) -> CriterionResult:
    """sl2 family: component counts, moduli dimension, and stability iff J
    injective on 50 seeded flat samples per (k, n), 0 <= k <= n <= 6: each
    verdict eliminates J and is checked against the sampler's rank J, read
    off the left kernel of J^T, a second computation."""
    q = ade_minimal_resolution_setup("A1")[0]
    dq = double(q)
    failures: list[str] = []
    zeta = ZetaParam.constant(q, 1)
    samples = 0
    for n in range(0, 7):
        for k in range(0, n + 3):
            v, w = DimVector.of(q, {"1": k}), DimVector.of(q, {"1": n})
            count = kacmoody.predicted_component_count(q, v, w)
            expected = 1 if k <= n else 0
            if count != expected:
                failures.append(f"component count at (k={k}, n={n}): {count} != {expected}")
            if d_of(q, v, w) != 2 * k * (n - k):
                failures.append(f"d mismatch at (k={k}, n={n})")
            if k > n:
                continue
            rng = random.Random(seed + 101 * n + k)
            for _ in range(50):
                x, rank_j = _a1_flat_sample(dq, v, w, rng)
                try:
                    stable = is_stable(x, zeta).stable  # checks flatness first
                except NotFlatError:
                    failures.append(f"non-flat sample at (k={k}, n={n})")
                    continue
                samples += 1
                if stable != (rank_j == k):
                    failures.append(f"stability != J-injectivity at (k={k}, n={n})")
    return CriterionResult(
        1,
        "sl2 family: counts, dimension, stability iff J injective",
        not failures,
        {"samples": samples, "failures": _capped(failures)},
    )


# ------------------------------------------------------------ criterion 2


def criterion_2(seed: int, ns: tuple[int, ...] = (2, 3, 4, 5, 6)) -> CriterionResult:
    """Chain adjoint family for n = 2..6: oracle weight multiplicity n,
    moduli dimension 2, stable zero-fingerprint broken-chain points, and the
    exact x*y = z^(n+1) relation on 50 flat samples per n, all read off one
    ``an`` bundle per n."""
    failures: list[str] = []
    for n in ns:
        bundle = an_bundle(n)
        q, v, w = bundle.dq.base, bundle.dim_v, bundle.dim_w
        zeta = ZetaParam.constant(q, 1)
        count = kacmoody.predicted_component_count(q, v, w)
        if count != n:
            failures.append(f"A{n}: component count {count} != {n}")
        if d_of(q, v, w) != 2:
            failures.append(f"A{n}: moduli dimension != 2")
        for name, x in sorted(bundle.reps.items()):
            try:
                stable = is_stable(x, zeta).stable  # checks flatness first
            except NotFlatError:
                failures.append(f"A{n}: {name} not flat")
                continue
            if not stable:
                failures.append(f"A{n}: {name} not stable")
            if not invariants.fingerprint_is_zero(invariants.pi_fingerprint(x)):
                failures.append(f"A{n}: {name} fingerprint not zero")
            if not invariants.an_xyz(x).relation_ok:
                failures.append(f"A{n}: {name} chain relation fails")
        for s in range(50):
            x = an_chain_sample(bundle, seed + 1000 * n + s)
            if not is_flat(x):
                failures.append(f"A{n}: chain sample {s} not flat")
                continue
            if not invariants.an_xyz(x).relation_ok:
                failures.append(f"A{n}: chain relation fails on sample {s}")
    return CriterionResult(
        2,
        "chain adjoint family: multiplicities, broken chains, x*y = z^(n+1)",
        not failures,
        {"failures": _capped(failures)},
    )


# ------------------------------------------------------------ criterion 3


def criterion_3() -> CriterionResult:
    """Star setup: zero-weight multiplicity 4, moduli dimension 2, and total
    adjoint dimension 28 summed over the weight box; one multiplicity session
    over the box answers both multiplicity questions."""
    q, v, w = ade_minimal_resolution_setup("D4")
    failures: list[str] = []
    roots = kacmoody.roots_for_quiver(q, 2 * v.total())
    session = kacmoody.MultiplicitySession(roots, w.values)
    count = session.multiplicity(v.values)
    if count != 4:
        failures.append(f"zero-weight multiplicity {count} != 4")
    if d_of(q, v, w) != 2:
        failures.append("moduli dimension != 2")
    total = 0
    ranges = [range(0, 2 * m + 1) for m in v.values]
    for drop in itertools.product(*ranges):
        total += session.multiplicity(drop)
    if total != 28:
        failures.append(f"adjoint dimension sum {total} != 28")
    return CriterionResult(
        3,
        "star setup: multiplicity 4, dimension 2, adjoint total 28",
        not failures,
        {"total_dimension": total, "failures": _capped(failures)},
    )


# ------------------------------------------------------------ criterion 4


def criterion_4(corpus: Corpus) -> CriterionResult:
    """On every ordered pair within each shape pool: beta . alpha = 0,
    cohom(x, y) = hom(y, x), ext1 symmetric, and the signed Euler identity.

    The complexes of (a, b) and (b, a) are built together for a <= b and
    dropped once both orders are checked; the failures are reported in the
    order of the ordered pairs."""
    failures: list[str] = []
    pairs = 0
    for shape, pool in corpus.pools.items():
        found: list[tuple[int, int, str]] = []
        for a, x in enumerate(pool):
            for b in range(a, len(pool)):
                c_ab = homext.build_complex(x, pool[b])
                c_ba = c_ab if a == b else homext.build_complex(pool[b], x)
                orders = [(a, b, c_ab, c_ba)]
                if a != b:
                    orders.append((b, a, c_ba, c_ab))
                for i, j, c_ij, c_ji in orders:
                    pairs += 1
                    if not (c_ij.beta @ c_ij.alpha).is_zero:
                        found.append((i, j, "beta.alpha != 0"))
                    if c_ij.cohom_dim() != c_ji.hom_dim():
                        found.append((i, j, "duality fails"))
                    if c_ij.ext1_dim() != c_ji.ext1_dim():
                        found.append((i, j, "ext1 not symmetric"))
                    if not c_ij.euler().equal:
                        found.append((i, j, "Euler identity fails"))
        found.sort(key=lambda f: f[:2])
        failures += [f"{shape}[{i},{j}]: {text}" for i, j, text in found]
    return CriterionResult(
        4,
        "complex/duality suite on the seeded flat corpus",
        not failures and pairs >= 500,
        {"pairs": pairs, "failures": _capped(failures)},
    )


# ------------------------------------------------------------ criterion 5


def criterion_5(corpus: Corpus) -> CriterionResult:
    """Every stable corpus sample has no framed self-Homs and no Homs from
    any simple module (first cohomology vanishing)."""
    failures: list[str] = []
    stable_count = 0
    for shape, pool in corpus.pools.items():
        zeta = ZetaParam.constant(pool[0].dq, 1)
        for idx, x in enumerate(pool):
            if not is_stable(x, zeta).stable:
                continue
            stable_count += 1
            if homext.build_complex(x, x).hom_dim() != 0:
                failures.append(f"{shape}[{idx}]: stable point with self-Homs")
            for i in x.dq.vertices:
                if homext.build_complex(simple_rep(x.dq, i), x).hom_dim() != 0:
                    failures.append(f"{shape}[{idx}]: Hom from simple at {i} nonzero")
    return CriterionResult(
        5,
        "stability consequences: no self-Homs, first cohomology vanishes",
        not failures and stable_count > 0,
        {"stable_samples": stable_count, "failures": _capped(failures)},
    )


# ------------------------------------------------------------ criterion 6


def criterion_6() -> CriterionResult:
    """Crystal walk on the two-vertex bundle: the Hom dimensions and
    extension-space dimensions at both distinguished points, the reduction
    landing dims, the extend-after-reduce round trip up to isomorphism, and
    the exact dimension identity for every executed step."""
    failures: list[str] = []
    bundle = a2crystal_bundle()
    generic = bundle.reps["generic"]
    special = bundle.reps["special"]
    q = generic.dq.base
    if hecke.epsilon_i(generic, "1") != 0:
        failures.append("epsilon_1(generic) != 0")
    if len(hecke.ext_space_i(generic, "1")) != 1:
        failures.append("extension space at vertex 1 (generic) not 1-dimensional")
    if len(hecke.ext_space_i(special, "1")) != 2:
        failures.append("extension space at vertex 1 (special) not 2-dimensional")
    executed = 0
    for name, x in (("generic", generic), ("special", special)):
        red = hecke.reduce_i(x, "2")
        executed += 1
        if red.reduced.dim_v.as_dict() != {"1": 1, "2": 0}:
            failures.append(f"reduce_2({name}) did not land at (1, 0)")
        if red.r != x.dim_v["2"] - red.reduced.dim_v["2"]:
            failures.append(f"reduce_2({name}) bookkeeping broken")
        gap = d_of(q, x.dim_v, x.dim_w) - d_of(q, red.reduced.dim_v, red.reduced.dim_w)
        chi_small = chi(q, DimVector.unit(q, "2"), DimVector.zero(q), red.reduced.dim_v, red.reduced.dim_w)
        if gap != 2 * red.r * (chi_small - red.r):
            failures.append(f"dimension identity fails for reduce_2({name})")
        classes = hecke.recovery_classes(x, "2", red)
        rebuilt = hecke.extend_i(red.reduced, "2", classes)
        executed += 1
        if not is_flat(rebuilt):
            failures.append(f"round trip on {name} lost flatness")
        if not is_stable(rebuilt, ZetaParam.constant(q, 1)).stable:
            failures.append(f"round trip on {name} lost stability")
        if not hecke.are_isomorphic(rebuilt, x):
            failures.append(f"round trip on {name} not isomorphic to the original")
    return CriterionResult(
        6,
        "crystal induction on the two-vertex bundle",
        not failures,
        {
            "reduce_extend_steps": executed,
            "note": "the dimension identity is additionally asserted inside every reduce/extend call",
            "failures": _capped(failures),
        },
    )


# ------------------------------------------------------------ criterion 7


def criterion_7(seed: int, corpus: Corpus) -> CriterionResult:
    """Framing rewrite on 100 seeded flat representations: the rewritten
    point is flat at every vertex including the new one, and the ambient
    dimension counts agree."""
    failures: list[str] = []
    samples = corpus.all_samples()
    setups = itertools.cycle([(dq, v, w) for _, dq, configs in _shape_configs() for v, w in configs])
    padding = zip(range(len(samples), 100), setups, itertools.count(seed * 7000))
    for idx, (dq, v, w), sample_seed in padding:
        half = "forward" if idx % 2 else "reverse"
        samples.append(sample_flat(dq, v, w, sample_seed, half=half))
    checked = 0
    for idx, x in enumerate(samples[:100]):
        transformed = cb_apply(x)
        checked += 1
        if not is_flat(transformed):
            failures.append(f"sample {idx}: rewritten point not flat")
        ambient = dim_bigM(x.dq.base, x.dim_v, x.dim_w)
        rewritten = dim_bigM(
            transformed.dq.base, transformed.dim_v, transformed.dim_w
        )
        if ambient != rewritten:
            failures.append(f"sample {idx}: ambient dimensions {ambient} != {rewritten}")
    return CriterionResult(
        7,
        "framing-rewrite consistency on 100 flat points",
        not failures and checked == 100,
        {"checked": checked, "failures": _capped(failures)},
    )


# ------------------------------------------------------------ criterion 8


def criterion_8() -> CriterionResult:
    """Deliberate exclusions, replaced by the oracle equalities and property
    suites above: no homology groups, no component enumeration, no raising
    and lowering operators on homology."""
    return CriterionResult(
        8,
        "excluded at desk scale: homology, component enumeration, homology operators",
        True,
        {
            "excluded": [
                "actual homology groups of the zero fiber",
                "irreducible-component enumeration",
                "raising/lowering operators on homology",
            ],
            "replaced_by": "criteria 1-3 oracle equalities and criteria 4-6 property suites",
        },
    )


SUITES = {
    "sl2": (1,),
    "an": (2,),
    "d4": (3,),
    "complex": (4,),
    "stability": (5,),
    "crystal": (6,),
    "cb": (7,),
    "exclusions": (8,),
    "all": (1, 2, 3, 4, 5, 6, 7, 8),
}


def run_suites(
    seed: int = DEFAULT_SEED,
    numbers: tuple[int, ...] = SUITES["all"],
    an_n: int | None = None,
) -> list[CriterionResult]:
    """Run each criterion in ``numbers`` once, in ascending order; criteria
    4, 5 and 7 share one corpus built from ``seed``, and ``an_n`` restricts
    criterion 2 to one n.  Raises ``DomainError`` when ``numbers`` is empty
    or names a number that is not a criterion, so no selection passes
    vacuously."""
    criteria = {
        1: lambda: criterion_1(seed),
        2: lambda: criterion_2(seed) if an_n is None else criterion_2(seed, (an_n,)),
        3: criterion_3,
        4: lambda: criterion_4(corpus),
        5: lambda: criterion_5(corpus),
        6: criterion_6,
        7: lambda: criterion_7(seed, corpus),
        8: criterion_8,
    }
    if not numbers:
        raise DomainError("no criterion selected")
    unknown = sorted(set(numbers) - criteria.keys())
    if unknown:
        raise DomainError(f"no criterion numbered {unknown}; choices: {sorted(criteria)}")
    corpus = build_corpus(seed) if {4, 5, 7} & set(numbers) else None
    return [criteria[number]() for number in sorted(set(numbers))]
