"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bifrost.strategies import uninstall_session
from repro.engine import ExecutorBackend, register_backend, unregister_backend
from repro.stonne.config import maeri_config, sigma_config, tpu_config
from repro.stonne.layer import ConvLayer, FcLayer


@pytest.fixture
def rng():
    """A deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def maeri128():
    """The paper's default MAERI configuration (128 multipliers)."""
    return maeri_config()


@pytest.fixture
def sigma128():
    return sigma_config()


@pytest.fixture
def tpu16():
    return tpu_config(ms_rows=16, ms_cols=16)


@pytest.fixture
def small_conv():
    """A conv small enough for exhaustive mapping sweeps in tests."""
    return ConvLayer("small_conv", C=2, H=8, W=8, K=4, R=3, S=3)


@pytest.fixture
def small_fc():
    return FcLayer("small_fc", in_features=64, out_features=32)


@pytest.fixture(autouse=True)
def _isolate_stonne_target():
    """Ensure no test leaks a bound Bifrost session into the registry."""
    uninstall_session()
    yield
    uninstall_session()


class MultiSlotBackend(ExecutorBackend):
    """A test-only backend offering ``max_workers`` slots (default 2)
    whose chunks run through the inline chunk path: the scheduler's
    puller threads are the lanes.  Exercises multi-slot pulling without
    paying for a process pool."""

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def pull_slots(self, engine):
        return list(range(self.max_workers or 2))


@pytest.fixture
def multi_slot():
    """:class:`MultiSlotBackend`, registered as ``"multi-slot"`` for the
    test so configs and sessions can name it."""
    register_backend("multi-slot")(MultiSlotBackend)
    yield MultiSlotBackend
    unregister_backend("multi-slot")
