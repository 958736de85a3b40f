"""Shared fixtures.

``rk4_drift_endpoint`` is the RK4 reference that acceptance criterion 8 and
``test_mc_first_order_convergence`` compare the Monte-Carlo walk with: 200 000
steps of the post-selected drift.  It is computed once per session and shared.
"""

import functools

import numpy as np
import pytest

from zenopath import BlochState, drift_rhs


@functools.cache
def _rk4_drift_endpoint(start, omega_s, lam, dt, n_steps):
    """Classic RK4 on ``drift_rhs``, stepped on builtin floats.

    Every stage goes through the public drift and ``BlochState``'s norm check.
    Each component sees the operations of the loop on numpy 3-vectors in the
    same order, so the endpoint is bit-identical to that loop (pinned by
    ``test_rk4_float_loop_matches_vector_loop``).
    """
    x, y, z = start
    h = 0.5 * dt
    for _ in range(n_steps):
        k1x, k1y, k1z = drift_rhs(BlochState(x, y, z), omega_s, lam)
        k2x, k2y, k2z = drift_rhs(BlochState(x + h * k1x, y + h * k1y, z + h * k1z), omega_s, lam)
        k3x, k3y, k3z = drift_rhs(BlochState(x + h * k2x, y + h * k2y, z + h * k2z), omega_s, lam)
        k4x, k4y, k4z = drift_rhs(
            BlochState(x + dt * k3x, y + dt * k3y, z + dt * k3z), omega_s, lam
        )
        x = x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6
        y = y + dt * (k1y + 2 * k2y + 2 * k3y + k4y) / 6
        z = z + dt * (k1z + 2 * k2z + 2 * k3z + k4z) / 6
    return x, y, z


@pytest.fixture(scope="session")
def rk4_drift_endpoint():
    """``(start, omega_s, lam, dt, n_steps) -> np.ndarray``, cached per argument set;
    ``start`` is an (x, y, z) tuple."""
    return lambda *args: np.array(_rk4_drift_endpoint(*args))
