"""Plain 2x2 density-matrix reference for the qubit maps under test.

The package steps the repeated-measurement map in Bloch coordinates only
(``_kernels.zeno_walk``).  Here it is written independently as matrices:
post-selecting the null outcome after one Rabi step gives

    rho -> M0 U rho U^dag M0^dag / Tr[...]

with M0 = diag(1, cos(J dt)) and U = cos(Omega_s dt) I - i sin(Omega_s dt) sigma_x.
Sign convention: U is exactly that, so Omega_s dt = pi/2 gives -i sigma_x.
The global phase drops out of every density-matrix update.
"""

import math

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def density_from_bloch(x, y, z):
    """rho = (I + x sigma_x + y sigma_y + z sigma_z) / 2."""
    return 0.5 * np.array([[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]], dtype=complex)


def bloch_from_density(rho):
    """The Bloch vector (x, y, z) of rho, as an array."""
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def null_outcome_step(rho, omega_s, j_coupling, dt):
    """One Rabi step and a null readout, renormalized: M0 U rho U^dag M0^dag / Tr."""
    phi = omega_s * dt
    u = math.cos(phi) * np.eye(2, dtype=complex) - 1.0j * math.sin(phi) * SIGMA_X
    m0 = np.diag([1.0, math.cos(j_coupling * dt)]).astype(complex)
    out = m0 @ u @ rho @ u.conj().T @ m0.conj().T
    return out / np.trace(out).real
