import pytest

from quivex.bundles import a1_bundle, an_bundle, an_chain_sample, get_bundle
from quivex.errors import UnknownExampleError, WrongSetupError


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: an_bundle(1), "an needs n >= 2"),
        (lambda: a1_bundle(-1, 0), "a1 needs nonnegative n and k"),
        (lambda: get_bundle("nope"), "unknown example 'nope'"),
    ],
    ids=["an-1", "a1-negative", "unknown-name"],
)
def test_unknown_examples_refused(call, message):
    with pytest.raises(UnknownExampleError, match=f"^{message}$"):
        call()


def test_chain_sampler_refuses_another_bundle():
    # the A1 bundle has one vertex: without the name check the sampler
    # returned a non-flat point of it
    with pytest.raises(WrongSetupError, match="^an_chain_sample needs an 'an' bundle, got 'a1'$"):
        an_chain_sample(a1_bundle(1, 1), 0)
