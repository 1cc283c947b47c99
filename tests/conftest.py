import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from groupk import homology, intlinalg  # noqa: E402
from groupk.homology import clear_homology_cache  # noqa: E402


@pytest.fixture
def smith_calls(monkeypatch):
    """Shapes of the matrices smith_diagonal reduces, from a cold homology cache."""
    clear_homology_cache()
    calls = []
    real = intlinalg.smith_diagonal

    def counting(A):
        calls.append((A.rows, A.cols))
        return real(A)

    monkeypatch.setattr(intlinalg, "smith_diagonal", counting)
    yield calls
    clear_homology_cache()


@pytest.fixture
def built(monkeypatch):
    """Degrees of the boundaries the homology engine builds, from a cold cache."""
    clear_homology_cache()
    degrees = []
    real = homology.bar_boundary

    def counting(G, k, **kwargs):
        degrees.append(k)
        return real(G, k, **kwargs)

    monkeypatch.setattr(homology, "bar_boundary", counting)
    return degrees
