"""Acceptance suite: one test per criterion, each printing its pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them live).

Everything here is exact arithmetic; every comparison is equality with zero
tolerance.  The same checks back the ``quivex verify`` subcommand.
"""

import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from quivex import acceptance, bundles, hecke, homext, invariants, kacmoody, ratmat, rep, stability
from quivex.bundles import an_bundle, an_chain_sample
from quivex.cli import main
from quivex.errors import DomainError, InternalCheckError
from quivex.quiver import DimVector, ade_minimal_resolution_setup, double
from quivex.ratmat import RatMatrix, kernel_basis
from quivex.rep import FramedRep

SRC = str(Path(__file__).resolve().parent.parent / "src")

# sha256 of the whole ``quivex verify`` report on stdout, so a change to any
# number, name or detail of a criterion fails here rather than going unseen
VERIFY_STDOUT_SHA256 = "7257fb3771cd8fefcfc7abc81ed94665c2d9ab5cbe629e987b05229c26832e09"

# sha256 over the I and J (nums, den) of criterion 1's 1,400 samples at
# DEFAULT_SEED, in criterion order, so the sampler's random stream is pinned
C1_SAMPLES_SHA256 = "66ccad373ecb17e012124a827ca8d328c42c2ade6cfc395a21e1a4bf5c3e9870"

# sha256 over the B blocks (in arrow order), then the I and then the J blocks
# (in vertex order) of criterion 2's 250 chain samples at DEFAULT_SEED, in
# criterion order, so the chain sampler's random stream is pinned
C2_SAMPLES_SHA256 = "862a7f530db0123020a0b86a0ebbfd4e4312664d8e6dc504fa135a13ffb07665"


@pytest.fixture(scope="module")
def corpus():
    return acceptance.build_corpus(acceptance.DEFAULT_SEED)


def _report(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_1_sl2_family():
    _report(acceptance.criterion_1(acceptance.DEFAULT_SEED))


def test_criterion_2_chain_adjoint():
    _report(acceptance.criterion_2(acceptance.DEFAULT_SEED))


def test_criterion_3_star_adjoint():
    _report(acceptance.criterion_3())


def test_criterion_4_complex_duality_suite(corpus):
    result = acceptance.criterion_4(corpus)
    assert result.details["pairs"] >= 500
    _report(result)


def test_criterion_4_reports_failures_in_ordered_pair_order(corpus, monkeypatch):
    # one more ext1 class from the first sample of each pool to any other
    # breaks ext1 symmetry on (0, b) and (b, 0), and the Euler identity on
    # (0, b) only; pairs are checked two orders at a time, but the report
    # lists the failures in the order of the ordered pairs
    firsts = {id(pool[0]) for pool in corpus.pools.values()}
    ext1_dim = homext.Complex3.ext1_dim

    def shifted(c):
        return ext1_dim(c) + (id(c.x1) in firsts and id(c.x2) not in firsts)

    monkeypatch.setattr(homext.Complex3, "ext1_dim", shifted)
    expected = []
    for shape, pool in corpus.pools.items():
        for a in range(len(pool)):
            for b in range(len(pool)):
                if (a == 0) != (b == 0):
                    expected.append(f"{shape}[{a},{b}]: ext1 not symmetric")
                if a == 0 and b != 0:
                    expected.append(f"{shape}[{a},{b}]: Euler identity fails")
    result = acceptance.criterion_4(corpus)
    assert result.details["failures"] == acceptance._capped(expected)


def test_criterion_5_stability_consequences(corpus):
    result = acceptance.criterion_5(corpus)
    assert result.details["stable_samples"] > 0
    _report(result)


def test_criterion_6_crystal_induction():
    _report(acceptance.criterion_6())


def test_criterion_7_framing_rewrite(corpus):
    result = acceptance.criterion_7(acceptance.DEFAULT_SEED, corpus)
    assert result.details["checked"] == 100
    _report(result)


def test_criterion_8_documented_exclusions():
    _report(acceptance.criterion_8())


def test_verify_stdout_pinned(capsys):
    # twice in one process: nothing one run leaves behind may change the next
    for _ in range(2):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256


def test_verify_stdout_pinned_under_python_O():
    """Internal checks raise rather than assert, so ``python -O`` prints the
    same report."""
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "quivex.cli", "verify"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_STDOUT_SHA256


@pytest.mark.parametrize(
    "numbers, message",
    [
        ((9,), "no criterion numbered [9]"),
        ((3, 0, 9), "no criterion numbered [0, 9]"),
        ((), "no criterion selected"),
    ],
)
def test_run_suites_refuses_a_selection_that_would_pass_vacuously(numbers, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        acceptance.run_suites(numbers=numbers)


def _count_calls(monkeypatch, name: str, module=acceptance) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_criterion_1_builds_its_a1_setup_once(monkeypatch):
    setups = _count_calls(monkeypatch, "ade_minimal_resolution_setup")
    doubles = _count_calls(monkeypatch, "double")
    assert acceptance.criterion_1(acceptance.DEFAULT_SEED).passed
    assert (len(setups), len(doubles)) == (1, 1)


def test_criterion_1_checks_each_sample_once_and_builds_no_witness(monkeypatch):
    """Counted calls, not seconds: one moment-map grid per sample at the one
    A1 vertex (the flatness check inside ``is_stable``), no annihilator,
    since only ``stable`` is read, and no transposed point, since zeta is
    positive."""
    grids = _count_calls(monkeypatch, "_moment_grid", rep)
    annihilators = _count_calls(monkeypatch, "_annihilator", stability)
    transposes = _count_calls(monkeypatch, "transpose", stability)
    result = acceptance.criterion_1(acceptance.DEFAULT_SEED)
    assert result.passed and result.details["samples"] == 1400
    assert (len(grids), len(annihilators), len(transposes)) == (1400, 0, 0)


def test_criterion_1_samples_pinned():
    q = ade_minimal_resolution_setup("A1")[0]
    dq = double(q)
    h = hashlib.sha256()
    samples = 0
    for n in range(7):
        for k in range(n + 1):
            rng = random.Random(acceptance.DEFAULT_SEED + 101 * n + k)
            v, w = DimVector.of(q, {"1": k}), DimVector.of(q, {"1": n})
            for _ in range(50):
                x, _ = acceptance._a1_flat_sample(dq, v, w, rng)
                for m in (x.I["1"], x.J["1"]):
                    h.update(repr((m.nums, m.den)).encode())
                samples += 1
    assert samples == 1400
    assert h.hexdigest() == C1_SAMPLES_SHA256


def test_criterion_2_samples_pinned():
    h = hashlib.sha256()
    samples = 0
    for n in range(2, 7):
        bundle = an_bundle(n)
        for s in range(50):
            x = an_chain_sample(bundle, acceptance.DEFAULT_SEED + 1000 * n + s)
            blocks = [x.B[a.name] for a in x.dq.arrows]
            blocks += [x.I[v] for v in x.dq.vertices] + [x.J[v] for v in x.dq.vertices]
            for m in blocks:
                h.update(repr((m.nums, m.den)).encode())
            samples += 1
    assert samples == 250
    assert h.hexdigest() == C2_SAMPLES_SHA256


def test_criterion_2_builds_one_chain_setup_per_n(monkeypatch):
    """Counted calls: the ``an`` bundle of each n builds and doubles the
    setup, and its 50 samples and the criterion read it from there."""
    setups = _count_calls(monkeypatch, "ade_minimal_resolution_setup", bundles)
    doubles = _count_calls(monkeypatch, "double", bundles)
    own_setups = _count_calls(monkeypatch, "ade_minimal_resolution_setup")
    own_doubles = _count_calls(monkeypatch, "double")
    assert acceptance.criterion_2(acceptance.DEFAULT_SEED).passed
    assert (len(setups), len(doubles), len(own_setups), len(own_doubles)) == (5, 5, 0, 0)


def test_criterion_1_takes_each_left_kernel_as_one_matrix_of_rows(ratmat_calls):
    """Counted calls: one ``kernel_rows`` per sample, and no per-vector
    ``kernel_basis`` or ``hstack`` anywhere in the criterion."""
    rows, kernels, stacks = (ratmat_calls(name) for name in ("kernel_rows", "kernel_basis", "hstack"))
    assert acceptance.criterion_1(acceptance.DEFAULT_SEED).passed
    assert (len(rows), len(kernels), len(stacks)) == (1400, 0, 0)


def test_criterion_1_eliminates_each_sample_twice(eliminations, ratmat_calls):
    """Counted eliminations: Jᵀ for the sampler's left kernel and J for the
    verdict; the injectivity check reads the rank the sampler returns."""
    pivots, ranks = ratmat_calls("pivot_columns"), ratmat_calls("rank")
    assert acceptance.criterion_1(acceptance.DEFAULT_SEED).passed
    assert (len(eliminations), len(pivots), len(ranks)) == (2800, 0, 0)


def test_a1_sampler_rank_matches_reference_rank():
    q = ade_minimal_resolution_setup("A1")[0]
    dq = double(q)
    samples = 0
    for n in range(7):
        for k in range(n + 1):
            rng = random.Random(acceptance.DEFAULT_SEED + 101 * n + k)
            v, w = DimVector.of(q, {"1": k}), DimVector.of(q, {"1": n})
            for _ in range(50):
                x, rank_j = acceptance._a1_flat_sample(dq, v, w, rng)
                assert rank_j == ratmat.rank(x.J["1"])
                samples += 1
    assert samples == 1400


def test_criterion_1_catches_a_verdict_that_misses_a_pivot(monkeypatch):
    """An elimination that drops the last pivot of a tall matrix of full
    column rank makes every injective tall J look singular to the verdict.
    Jᵀ is never tall, so the sampler's points and ranks are unaffected, and
    the check against the sampler's rank J must catch the wrong verdicts."""
    echelon = ratmat._echelon

    def misses_last_pivot(m):
        rows = echelon(m)
        return rows[:-1] if m.rows > m.cols and len(rows) == m.cols else rows

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quivex" and getattr(module, "_echelon", None) is echelon:
            monkeypatch.setattr(module, "_echelon", misses_last_pivot)
    result = acceptance.criterion_1(acceptance.DEFAULT_SEED)
    failures = result.details["failures"]
    assert not result.passed and result.details["samples"] == 1400
    assert failures[0] == "stability != J-injectivity at (k=1, n=2)"
    assert all(m.startswith("stability != J-injectivity at ") for m in failures[:12])


def test_criterion_3_builds_its_root_system_and_session_once(monkeypatch):
    # the zero-weight count is read from the session over the weight box
    roots = _count_calls(monkeypatch, "roots_for_quiver", kacmoody)
    sessions = _count_calls(monkeypatch, "MultiplicitySession", kacmoody)
    assert acceptance.criterion_3().passed
    assert (len(roots), len(sessions)) == (1, 1)


def test_criterion_1_reports_a_non_flat_sample(monkeypatch):
    sample = acceptance._a1_flat_sample

    def one_non_flat(dq, v, w, rng):
        x, rank_j = sample(dq, v, w, rng)
        if (v["1"], w["1"]) != (1, 2) or one_non_flat.injected:
            return x, rank_j
        one_non_flat.injected = True
        return FramedRep(dq, v, w, I={"1": RatMatrix.from_rows([[1, 0]])}, J={"1": RatMatrix.from_rows([[1], [0]])}), 1

    one_non_flat.injected = False
    monkeypatch.setattr(acceptance, "_a1_flat_sample", one_non_flat)
    result = acceptance.criterion_1(acceptance.DEFAULT_SEED)
    assert not result.passed
    assert result.details == {"samples": 1399, "failures": ["non-flat sample at (k=1, n=2)"]}


def test_criterion_2_reports_a_non_flat_bundle_point(monkeypatch):
    bundle = acceptance.an_bundle

    def one_non_flat(n):
        b = bundle(n)
        x = b.reps["broken_1"]
        bad = FramedRep(x.dq, x.dim_v, x.dim_w, x.B, {**x.I, "1": RatMatrix.from_rows([[1]])}, x.J)
        return dataclasses.replace(b, reps={**b.reps, "broken_1": bad})

    monkeypatch.setattr(acceptance, "an_bundle", one_non_flat)
    result = acceptance.criterion_2(acceptance.DEFAULT_SEED, ns=(2,))
    assert not result.passed
    assert result.details == {"failures": ["A2: broken_1 not flat"]}


def test_criterion_7_doubles_each_shape_once(monkeypatch, corpus):
    doubles = _count_calls(monkeypatch, "double")
    assert acceptance.criterion_7(acceptance.DEFAULT_SEED, corpus).passed
    assert len(doubles) <= 4


def test_failures_past_the_twelfth_are_counted(monkeypatch):
    """With every verdict unstable, criterion 1 fails on exactly the samples
    whose J is injective, counted here from the kernel of J."""
    injective = 0

    def never_stable(x, zeta):
        nonlocal injective
        injective += not kernel_basis(x.J["1"])
        return types.SimpleNamespace(stable=False)

    monkeypatch.setattr(acceptance, "is_stable", never_stable)
    result = acceptance.criterion_1(acceptance.DEFAULT_SEED)
    failures = result.details["failures"]
    assert not result.passed
    assert injective > 12
    assert len(failures) == 13
    assert all(m.startswith("stability != J-injectivity at ") for m in failures[:12])
    assert failures[12] == f"… and {injective - 12} more"


# One injected fault per criterion, each of which the criterion must report:
# together with the criterion 1 tests above, every criterion fails once.


def test_criterion_2_catches_a_failed_chain_relation(monkeypatch):
    an_xyz = invariants.an_xyz
    monkeypatch.setattr(invariants, "an_xyz", lambda x: dataclasses.replace(an_xyz(x), relation_ok=False))
    result = acceptance.criterion_2(acceptance.DEFAULT_SEED, ns=(2,))
    assert result.passed is False
    assert result.details["failures"][0] == "A2: broken_1 chain relation fails"


def test_criterion_3_catches_a_doubled_framing(monkeypatch):
    setup = acceptance.ade_minimal_resolution_setup

    def doubled_w(label):
        q, v, w = setup(label)
        return q, v, w + w

    monkeypatch.setattr(acceptance, "ade_minimal_resolution_setup", doubled_w)
    result = acceptance.criterion_3()
    assert result.passed is False
    assert result.details["failures"] == [
        "zero-weight multiplicity 5 != 4",
        "moduli dimension != 2",
        "adjoint dimension sum 135 != 28",
    ]


def test_criterion_3_raises_on_a_root_system_without_its_highest_root(monkeypatch):
    """Freudenthal's formula over D4 without the root (1, 2, 1, 1) gives a
    fraction, which the multiplicity session refuses."""
    finite_roots = kacmoody._finite_positive_roots

    def without_highest(gcm):
        return finite_roots(gcm)[:-1]  # sorted by height, so the highest root is last

    monkeypatch.setattr(kacmoody, "_finite_positive_roots", without_highest)
    message = "non-integral weight multiplicity at (1, 2, 1, 1)"
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        acceptance.criterion_3()


def test_criterion_4_catches_a_beta_without_its_i_e_term(corpus, monkeypatch):
    """beta assembled as if x2 had I = 0 drops exactly its I2 E blocks."""
    beta = homext.Complex3.beta.func

    def without_i_e(c):
        x2 = c.x2
        no_i = FramedRep(x2.dq, x2.dim_v, x2.dim_w, x2.B, None, x2.J)
        return beta(homext.Complex3(c.x1, no_i))

    monkeypatch.setattr(homext.Complex3, "beta", property(without_i_e))
    result = acceptance.criterion_4(corpus)
    failures = result.details["failures"]
    assert result.passed is False
    assert failures[0] == "A2[0,0]: duality fails"
    assert failures[-1] == "… and 313 more"


def test_criterion_5_catches_homs_from_a_simple_into_an_unstable_point(corpus, monkeypatch):
    monkeypatch.setattr(acceptance, "is_stable", lambda x, zeta: types.SimpleNamespace(stable=True))
    result = acceptance.criterion_5(corpus)
    assert result.passed is False
    assert result.details["failures"][0] == "A2[0]: Hom from simple at 2 nonzero"


def test_criterion_6_catches_a_round_trip_that_is_not_isomorphic(monkeypatch):
    monkeypatch.setattr(hecke, "are_isomorphic", lambda x, y: False)
    result = acceptance.criterion_6()
    assert result.passed is False
    assert result.details["failures"] == [
        "round trip on generic not isomorphic to the original",
        "round trip on special not isomorphic to the original",
    ]


def test_criterion_7_catches_a_rewrite_that_keeps_the_framing(corpus, monkeypatch):
    cb_apply = acceptance.cb_apply

    def keeps_framing(x):
        y = cb_apply(x)
        w = DimVector.of(y.dq.base, {**x.dim_w.as_dict(), y.dq.vertices[-1]: 0})
        return FramedRep(y.dq, y.dim_v, w, y.B)

    monkeypatch.setattr(acceptance, "cb_apply", keeps_framing)
    result = acceptance.criterion_7(acceptance.DEFAULT_SEED, corpus)
    assert result.passed is False
    assert result.details["failures"][0] == "sample 0: ambient dimensions 6 != 10"
