"""Shared fixtures."""

import pytest

from volswap import pde_engine


@pytest.fixture
def marches(monkeypatch):
    """Empty the psi memo and count the real solves from here on."""
    pde_engine.psi_memo.cache_clear()
    calls = []
    solve = pde_engine.solve_psi

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pde_engine, "solve_psi", counted)
    yield calls
    pde_engine.psi_memo.cache_clear()
