import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from groupk import homology, intlinalg  # noqa: E402


@pytest.fixture
def smith_calls(monkeypatch):
    """Shapes of the matrices smith_diagonal reduces."""
    calls = []
    real = intlinalg.smith_diagonal

    def counting(A):
        calls.append((A.rows, A.cols))
        return real(A)

    monkeypatch.setattr(intlinalg, "smith_diagonal", counting)
    return calls


@pytest.fixture
def built(monkeypatch):
    """Degrees of the boundaries the homology engine builds."""
    degrees = []
    real = homology.bar_boundary

    def counting(G, k, **kwargs):
        degrees.append(k)
        return real(G, k, **kwargs)

    monkeypatch.setattr(homology, "bar_boundary", counting)
    return degrees
