"""Acceptance suite: one test per criterion, each printing its pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them live).

Everything here is exact arithmetic; every comparison is equality with zero
tolerance.  The same checks back the ``quivex verify`` subcommand.
"""

import hashlib

import pytest

from quivex import acceptance
from quivex.cli import main

# sha256 of the whole ``quivex verify`` report on stdout, so a change to any
# number, name or detail of a criterion fails here rather than going unseen
VERIFY_STDOUT_SHA256 = "7257fb3771cd8fefcfc7abc81ed94665c2d9ab5cbe629e987b05229c26832e09"


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
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256
