"""Shared fixtures for the l1torus test suite."""
import os

import numpy as np
import pytest

import l1torus


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_env() -> dict:
    """The environment of a child interpreter that imports this source tree."""
    src = os.path.dirname(os.path.dirname(l1torus.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
