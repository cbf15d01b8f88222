"""Two-dimensional coin operators for the discrete-time quantum walk.

The general coin is a 2x2 SU(2)-type unitary parameterized by three angles
(xi, theta, zeta), with c = cos(theta) and s = sin(theta),

    [[ e^{+i xi} c,     e^{+i zeta} s ],
     [ s / e^{+i zeta}, -e^{-i xi} c  ]],

of which the real symmetric single-angle family (xi = zeta = 0) and the
Hadamard coin (theta = pi/4) are special cases.  For walks started at the
origin only eta = xi - zeta and theta affect the measured position
distribution; see the gauge-invariance tests.  ``_coins`` writes every coin
of the package, and checks and reduces its angles as ``CoinAngles`` does.
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
        for name, v in zip(("xi", "theta", "zeta"), _reduced(self.xi, self.theta, self.zeta)):
            object.__setattr__(self, name, float(v))

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
    unitary with unit-modulus determinant, to ``UNITARITY_TOL`` per entry;
    a NaN or infinite entry fails."""
    a, b, c, d = (m[..., i, j] for i in (0, 1) for j in (0, 1))
    with np.errstate(invalid="ignore", over="ignore"):  # inf entries make NaN here
        # the entries of m m^dagger - I, written out: numpy's matmul and det
        # would load BLAS and LAPACK, about 1 MB of memory, for 2x2 matrices
        dev = np.abs([abs(a) ** 2 + abs(b) ** 2 - 1.0, abs(c) ** 2 + abs(d) ** 2 - 1.0,
                      a * c.conj() + b * d.conj()]).max()
        det_err = np.abs(np.abs(a * d - b * c) - 1.0).max()
    if not dev <= UNITARITY_TOL:  # written so that NaN fails
        raise ValueError(f"coin matrix is not unitary (deviation {dev:.3e})")
    if not det_err <= UNITARITY_TOL:
        raise ValueError(f"coin determinant modulus deviates by {det_err:.3e}")


def _reduced(xi, theta, zeta) -> list[np.ndarray]:
    """The angles as floats reduced into xi, zeta in [0, 2*pi) and theta in
    [0, pi); a non-finite angle is a ValueError."""
    out = []
    for name, v, period in (("xi", xi, TWO_PI), ("theta", theta, math.pi), ("zeta", zeta, TWO_PI)):
        v = np.asarray(v, dtype=float) + 0.0  # -0.0 becomes 0.0, as np.mod makes it
        if not ((v >= 0.0) & (v < period)).all():  # else the slow np.mod changes nothing
            if not np.isfinite(v).all():
                raise ValueError(f"coin angle {name!r} must be finite, got {v}")
            # np.mod is Python's float % bit for bit; it rounds a tiny negative
            # angle up to the period, which 0 replaces to keep the range half-open
            v = np.mod(v, period)
            v = np.where(v < period, v, 0.0)
        out.append(v)
    return out


def _coins(xi, theta, zeta=0.0, phase=None) -> np.ndarray:
    """The coins of the module docstring for angles that are scalars or arrays
    of shape (B,) or (n, B), broadcast together (B = 1 for scalars alone): a
    (..., B, 2, 2) view of the sites-major (..., 2, 2, B) array that
    :func:`qwalk.walk.propagate` streams.  ``phase``, when given, stands for
    zeta as exp(i zeta) of the reduced zeta, which a caller that builds the
    coins of one zeta at many theta computes once."""
    xi, theta, zeta = _reduced(xi, theta, zeta)
    ct = np.array([math.cos(t) for t in theta.flat]).reshape(theta.shape)
    st = np.array([math.sin(t) for t in theta.flat]).reshape(theta.shape)
    if phase is None:
        phase = np.exp(1j * zeta)  # once, for both off-diagonal entries
    *lead, walks = np.broadcast_shapes(xi.shape, theta.shape, np.shape(phase), (1,))
    m = np.empty((*lead, 2, 2, walks), dtype=complex)
    m[..., 0, 0, :], m[..., 0, 1, :] = np.exp(1j * xi) * ct, st * phase
    m[..., 1, 0, :], m[..., 1, 1, :] = st / phase, -np.exp(-1j * xi) * ct
    return np.moveaxis(m, -1, -3)


def make_su2_coin(angles: CoinAngles) -> CoinOperator:
    """Build the three-angle coin operator of the module docstring for the
    given ``CoinAngles``."""
    return CoinOperator(_coins(angles.xi, angles.theta, angles.zeta)[0])


def make_theta_coin(theta: float) -> CoinOperator:
    """Build the real symmetric single-angle coin [[c, s], [s, -c]].

    Equals ``make_su2_coin(CoinAngles(0, theta, 0))``; theta = pi/4 gives the
    Hadamard coin, theta = 0 the sigma_z-like coin and theta -> pi/2 the
    sigma_x-like coin.
    """
    return make_su2_coin(CoinAngles(0.0, theta, 0.0))

