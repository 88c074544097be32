"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def scalar_passes(monkeypatch):
    """Every ``core._scalars`` pass, as the list it reads, whichever module
    or table calls it."""
    from boxalg import core, oracle

    seen, inner = [], core._scalars

    def spy(values):
        vec = list(values)
        seen.append(vec)
        return inner(vec)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "boxalg" and hasattr(module, "_scalars"):
            monkeypatch.setattr(module, "_scalars", spy)
    for key, coerce in oracle._COERCE.items():
        if coerce is inner:
            monkeypatch.setitem(oracle._COERCE, key, spy)
    return seen
