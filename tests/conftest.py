import sys

import pytest

from quivex import ratmat


@pytest.fixture
def eliminations(monkeypatch):
    """The shapes of the matrices eliminated from here on, in call order.

    Every elimination runs ``ratmat._echelon`` before any early exit, so the
    tally wraps it in every quivex module that binds it."""
    shapes = []
    echelon = ratmat._echelon

    def counted(m):
        shapes.append(m.shape)
        return echelon(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quivex" and getattr(module, "_echelon", None) is echelon:
            monkeypatch.setattr(module, "_echelon", counted)
    return shapes


@pytest.fixture
def ratmat_calls(monkeypatch):
    """``ratmat_calls(name)`` returns the argument tuples of the calls of
    ``ratmat.<name>`` from here on, in call order, counted through every
    loaded quivex module that binds it."""

    def count(name):
        calls = []
        real = getattr(ratmat, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "quivex" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
        return calls

    return count


@pytest.fixture
def back_substitutions(ratmat_calls):
    """The ``ratmat._back_substitute`` calls from here on: every reduction
    above the pivots, whether for ``rref`` or for kernel vectors."""
    return ratmat_calls("_back_substitute")
