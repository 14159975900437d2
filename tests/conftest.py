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
