"""Shared fixtures."""

import numpy as np
import pytest

from quadszego import hardy


@pytest.fixture
def fft_counts(monkeypatch) -> dict:
    """Count the calls of each ``numpy.fft`` transform the kernel uses."""
    counts = {"ifft": 0, "fft": 0, "rfft": 0}
    for name in counts:

        def counting(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return counts


@pytest.fixture
def blocked(monkeypatch):
    """Every grid, however short, takes the four-step FFT's blocked layout."""
    monkeypatch.setattr(hardy, "_BLOCKED_FROM", 1)
