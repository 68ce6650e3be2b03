"""Shared test fixtures."""

import numpy as np
import pytest


@pytest.fixture
def extended_long_double():
    """Fail up front where np.longdouble is no wider than double.

    quadrules.gauss_jacobi polishes its nodes and sums its weights in long
    double; on a binary64 long double (macOS arm64, Windows) its nodes near
    x = 0 keep the double recurrence's error, up to 1e-10 relative at order
    512, and a test whose bound needs the rules correct to the last bit
    would otherwise miss that bound without naming the cause."""
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        pytest.fail(
            "needs np.longdouble wider than binary64 for Gauss-Jacobi rules correct "
            f"to the last bit; this platform's has {np.finfo(np.longdouble).nmant} "
            "mantissa bits (README, Installation)"
        )
