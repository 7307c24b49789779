"""Shared fixtures for the test suite."""

import pytest

from repro.sim import SeedSequence, Simulator


@pytest.fixture
def sim():
    """A fresh simulator with the clock at zero."""
    return Simulator()


@pytest.fixture
def seeds():
    """Deterministic seed sequence for stochastic components."""
    return SeedSequence(1234)
