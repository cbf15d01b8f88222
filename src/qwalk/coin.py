"""Two-dimensional coin operators for the discrete-time quantum walk.

The general coin is a 2x2 SU(2)-type unitary parameterized by three angles
(xi, theta, zeta),

    [[ e^{+i xi}  cos(theta),  e^{+i zeta} sin(theta) ],
     [ e^{-i zeta} sin(theta), -e^{-i xi}  cos(theta) ]],

of which the real symmetric single-angle family (xi = zeta = 0) and the
Hadamard coin (theta = pi/4) are special cases.  For walks started at the
origin only eta = xi - zeta and theta affect the measured position
distribution; see the gauge-invariance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoinAngles",
    "CoinOperator",
    "make_su2_coin",
    "make_theta_coin",
]

TWO_PI = 2.0 * math.pi

#: per-entry tolerance for the unitarity check C C^dagger = I
UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class CoinAngles:
    """Angle triple (xi, theta, zeta) in radians.

    Angles are normalized on construction into the half-open ranges
    xi, zeta in [0, 2*pi) and theta in [0, pi); out-of-range inputs are
    reduced modulo the range rather than rejected, so parameter sweeps may
    generate values freely.
    """

    xi: float
    theta: float
    zeta: float

    def __post_init__(self):
        for name in ("xi", "theta", "zeta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coin angle {name!r} must be finite, got {v!r}")
        object.__setattr__(self, "xi", float(self.xi) % TWO_PI)
        object.__setattr__(self, "theta", float(self.theta) % math.pi)
        object.__setattr__(self, "zeta", float(self.zeta) % TWO_PI)

    @property
    def eta(self) -> float:
        """Phase difference xi - zeta, reduced to [0, 2*pi)."""
        return (self.xi - self.zeta) % TWO_PI


@dataclass(frozen=True)
class CoinOperator:
    """A 2x2 unitary acting on the coin (spin) degree of freedom.

    The wrapped matrix is validated for unitarity and unit-modulus
    determinant at construction (tolerance ``UNITARITY_TOL`` per entry).
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"coin matrix must be 2x2, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        _check_unitary(m[None])


def _check_unitary(m: np.ndarray):
    """Raise ValueError unless every 2x2 matrix of the (B, 2, 2) ``m`` is
    unitary with unit-modulus determinant, to ``UNITARITY_TOL`` per entry."""
    dev = np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(2)).max()
    if dev > UNITARITY_TOL:
        raise ValueError(f"coin matrix is not unitary (deviation {dev:.3e})")
    det_err = np.abs(np.abs(np.linalg.det(m)) - 1.0).max()
    if det_err > UNITARITY_TOL:
        raise ValueError(f"coin determinant modulus deviates by {det_err:.3e}")


def _su2_matrices(angles, check: bool = True) -> np.ndarray:
    """The (B, 2, 2) three-angle coin matrices of a sequence of ``CoinAngles``,
    checked as ``CoinOperator`` checks one unless ``check`` is False."""
    xi, zeta = np.array([(a.xi, a.zeta) for a in angles]).T
    ct, st = np.array([(math.cos(a.theta), math.sin(a.theta)) for a in angles]).T
    m = np.empty((len(ct), 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 0, 1] = np.exp(1j * xi) * ct, np.exp(1j * zeta) * st
    m[:, 1, 0], m[:, 1, 1] = np.exp(-1j * zeta) * st, -np.exp(-1j * xi) * ct
    if check:
        _check_unitary(m)
    return m


def make_su2_coin(angles: CoinAngles) -> CoinOperator:
    """Build the three-angle coin operator for the given ``CoinAngles``.

    Returns the matrix
    ``[[e^{i xi} cos(theta), e^{i zeta} sin(theta)],
    [e^{-i zeta} sin(theta), -e^{-i xi} cos(theta)]]``.
    """
    return CoinOperator(_su2_matrices([angles], check=False)[0])  # CoinOperator checks it


def make_theta_coin(theta: float) -> CoinOperator:
    """Build the real symmetric single-angle coin [[c, s], [s, -c]].

    Equals ``make_su2_coin(CoinAngles(0, theta, 0))``; theta = pi/4 gives the
    Hadamard coin, theta = 0 the sigma_z-like coin and theta -> pi/2 the
    sigma_x-like coin.
    """
    return make_su2_coin(CoinAngles(0.0, theta, 0.0))

