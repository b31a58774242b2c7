"""Suite-wide test settings.

Every hypothesis property test runs derandomized, with no deadline and
no example database, so the suite draws the same examples on every run
and writes nothing next to the checkout.  Tests set only their example
counts.

Every test must leave the process's Python threads and its OpenBLAS
thread count as it found them.
"""

import math
import threading

import pytest
from hypothesis import settings

from cmtomo import _blas
from cmtomo.states import ModeGroup, SystemSpec

settings.register_profile("cmtomo", deadline=None, derandomize=True, database=None)
settings.load_profile("cmtomo")


def blas_threads():
    """The loaded OpenBLAS's thread count, or None where none was found."""
    found = _blas._openblas()
    return None if found is None else found[0]()


def frame_at(mu, nu, hbar):
    """The frame sqrt(hbar) (mu, nu): the closed forms, which take hbar = 1,
    give there the tomogram of mu q + nu p at hbar.  mu and nu may be arrays."""
    root = math.sqrt(hbar)
    return root * mu, root * nu


def system_at(groups, hbar):
    """The system of groups measured at hbar, on the frames sqrt(hbar) (mu, nu)
    where every compute function reads it."""
    return SystemSpec(tuple(ModeGroup(g.mode, *frame_at(g.mu, g.nu, hbar), g.count) for g in groups))


@pytest.fixture(autouse=True)
def _threads_left_as_found():
    before = threading.active_count(), blas_threads()
    yield
    after = threading.active_count(), blas_threads()
    assert after == before, f"(Python threads, OpenBLAS threads) went from {before} to {after}"
