"""Fixtures shared by the micro-benchmarks."""

import pytest

from coneapprox import enumeration


@pytest.fixture
def from_scratch():
    """A ``benchmark.pedantic`` setup after which the next stream enumerates from scratch.

    A stream over a model equal to an earlier stream's starts from that
    stream's enumeration; a benchmark that builds the same stream each round
    would otherwise time the first round's enumeration only once.
    """

    return enumeration.forget_shared
