"""Hypothesis profiles, and helpers for drawing and for watching the draws.

Where the CI environment variable is set (GitHub Actions sets it), the ``ci``
profile draws the same examples on every run and prints the blob that replays
a failure, so a hosted failure reproduces locally with ``CI=1``. Local runs
keep the default, randomized profile."""

import os

import numpy as np
import pytest
from hypothesis import settings

from attrisk import uq

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def sample(q, seed, label, n):
    """n draws of q from the stream (seed, label), into a new array."""
    out = np.empty(n)
    uq.map_chunks(uq.chunk_sampler(q, seed, label), out)
    return out


@pytest.fixture
def spawn_keys(monkeypatch):
    """The ``(label, chunk)`` spawn key of every Philox chunk uq keys, in order."""
    keys = []
    key = uq.SeedSequence

    def recorded(seed, *, spawn_key):
        keys.append(spawn_key)
        return key(seed, spawn_key=spawn_key)

    monkeypatch.setattr(uq, "SeedSequence", recorded)
    return keys
