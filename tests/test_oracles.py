"""Checks of the reference oracles in ``helpers`` against known results.

The acceptance suite takes its references from these oracles, so each is
tested here against closed forms, exact identities and exhaustive
enumeration before it is trusted there.
"""

import itertools
import math

import numpy as np

from helpers import (
    init_state,
    konno_bias,
    konno_density,
    konno_moments,
    operator_matrix_evolve,
    random_ic,
    random_phase_channel_steps,
    random_phase_exact_mean,
    skewness_from_moments,
    step_unitary,
    weak_limit_entropy,
    weak_limit_moments,
    within_k_sem,
)
from qwalk.coin import CoinAngles, make_su2_coin, make_theta_coin
from qwalk.decoherence import DecoherenceSpec, run_ensemble
from qwalk.walk import (
    SYMMETRIC_IC,
    UP_IC,
    InitialCoinState,
    position_distribution,
)

THETAS = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, 1.5)


def chebyshev_nodes(theta: float, nodes: int = 20000):
    """Nodes x and weights dx for integrals over |x| < cos(theta) by the
    Gauss-Chebyshev rule, which absorbs the 1/sqrt(cos^2 theta - x^2) edge
    singularity of the Konno density.  Moments converge geometrically; the
    entropy's log edge singularity leaves an error linear in 1/nodes."""
    c = math.cos(theta)
    angle = (np.arange(nodes) + 0.5) * math.pi / nodes
    return c * np.cos(angle), c * np.sin(angle) * math.pi / nodes


def test_weak_limit_variance_is_one_minus_sin():
    """Eigenvector quadrature: mass 1, mean 0 and variance 1 - sin(theta)
    for the single-angle coin with the symmetric start."""
    a0, b0 = SYMMETRIC_IC.a0, SYMMETRIC_IC.b0
    for theta in THETAS:
        m = weak_limit_moments(make_theta_coin(theta).matrix, a0, b0)
        assert abs(m[0] - 1.0) < 1e-12
        assert abs(m[1]) < 1e-12
        assert abs(m[2] - (1.0 - math.sin(theta))) < 1e-12


def test_konno_density_mass_and_variance():
    """The closed-form density integrates to one and has variance
    1 - sin(theta) and the closed-form fourth moment."""
    for theta in THETAS:
        x, dx = chebyshev_nodes(theta)
        f = konno_density(x, theta)
        m = konno_moments(theta, 0.0, orders=5)
        assert abs(np.sum(f * dx) - 1.0) < 1e-10
        assert abs(np.sum(x**2 * f * dx) - (1.0 - math.sin(theta))) < 1e-10
        assert abs(np.sum(x**4 * f * dx) - m[4]) < 1e-10


def test_konno_closed_form_matches_eigenvector_quadrature():
    """Moments from Konno's tilted density equal those of the eigenvector
    quadrature for general coins and starts, including the sign of the
    tilt, and the a05b minimum is already converged at 128 k-points."""
    rng = np.random.default_rng(5)
    starts = [(SYMMETRIC_IC.a0, SYMMETRIC_IC.b0), (UP_IC.a0, UP_IC.b0), random_ic(rng)]
    cases = itertools.product(starts, (0.0, 0.7, 1.5608), (0.4, 1.0931, 1.4))
    for (a0, b0), eta, theta in cases:
        coin = make_su2_coin(CoinAngles(eta, theta, 0.0)).matrix
        quad = weak_limit_moments(coin, a0, b0)
        closed = konno_moments(theta, konno_bias(coin, a0, b0))
        assert np.max(np.abs(quad - closed)) < 1e-10

    coin = make_su2_coin(CoinAngles(1.5608, 1.0931, 0.0)).matrix
    a0, b0 = SYMMETRIC_IC.a0, SYMMETRIC_IC.b0
    coarse = skewness_from_moments(weak_limit_moments(coin, a0, b0, k_points=128))
    fine = skewness_from_moments(weak_limit_moments(coin, a0, b0, k_points=2048))
    assert abs(coarse - fine) < 1e-12
    assert round(float(fine), 5) == -1.04803


def test_weak_limit_entropy_closed_form():
    """h(theta) equals -int f ln f by quadrature and is largest at
    sin(theta) = 2/3.  One Richardson step (nodes N and 2N) removes the
    quadrature error that is linear in 1/N."""

    def entropy(theta, nodes):
        x, dx = chebyshev_nodes(theta, nodes)
        f = konno_density(x, theta)
        return -np.sum(f * np.log(f) * dx)

    for theta in THETAS:
        numeric = 2.0 * entropy(theta, 40000) - entropy(theta, 20000)
        assert abs(numeric - weak_limit_entropy(theta)) < 1e-9
    theta_star = math.asin(2.0 / 3.0)
    fine = np.linspace(theta_star - 0.05, theta_star + 0.05, 1001)
    h = np.array([weak_limit_entropy(t) for t in fine])
    assert abs(fine[np.argmax(h)] - theta_star) < 1e-4


def test_exact_channel_without_noise_is_unitary():
    """p_tilde = 0 reproduces the operator-matrix walk to 1e-12."""
    rng = np.random.default_rng(3)
    for theta in (0.3, math.pi / 4, 1.4):
        a0, b0 = random_ic(rng)
        a, b = operator_matrix_evolve(a0, b0, make_theta_coin(theta).matrix, 50)
        exact = random_phase_exact_mean(a0, b0, theta, 0.0, 50)
        assert np.max(np.abs(exact - (np.abs(a) ** 2 + np.abs(b) ** 2))) < 1e-12


def test_exact_channel_conserves_trace():
    a0, b0 = SYMMETRIC_IC.a0, SYMMETRIC_IC.b0
    for p_tilde in (0.01, 0.3, 1.0):
        traces = [p.sum() for p in random_phase_channel_steps(a0, b0, 0.9, p_tilde, 50)]
        assert len(traces) == 50
        assert np.max(np.abs(np.array(traces) - 1.0)) < 1e-12


def test_exact_channel_equals_three_phase_enumeration():
    """A uniform phase averages like three equally spaced phases: the
    channel equals the exact average over all 3^n phase histories, where
    each step keeps zeta = 0 with probability 1 - p_tilde and otherwise
    takes one of 0, 2 pi/3, 4 pi/3."""
    theta, p_tilde, n = 0.6, 0.4, 5
    a0, b0 = random_ic(np.random.default_rng(8))
    phases = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
    weights = [1 - p_tilde + p_tilde / 3, p_tilde / 3, p_tilde / 3]
    coins = [make_su2_coin(CoinAngles(0.0, theta, z)) for z in phases]
    mean = np.zeros(2 * n + 1)
    for history in itertools.product(range(3), repeat=n):
        state = init_state(InitialCoinState(a0, b0))
        for i in history:
            state = step_unitary(state, coins[i])
        mean += math.prod(weights[i] for i in history) * position_distribution(state).probs
    exact = random_phase_exact_mean(a0, b0, theta, p_tilde, n)
    assert np.max(np.abs(exact - mean)) < 1e-13


def test_exact_channel_matches_full_random_phase_ensemble():
    """The seeded ensemble of a09a (p_tilde = 1, theta = pi/4, n = 50, 1000
    realizations, seed 42) lies within K_SEM standard errors of the exact
    mean at every occupied site (51 sites: under the normal approximation
    a false alarm at k = 5 has probability about 3e-5)."""
    a0, b0 = SYMMETRIC_IC.a0, SYMMETRIC_IC.b0
    result = run_ensemble(
        SYMMETRIC_IC, math.pi / 4, DecoherenceSpec.random_phase(1.0), 50, 1000, 42
    )
    exact = random_phase_exact_mean(a0, b0, math.pi / 4, 1.0, 50)
    occupied = exact > 0.0
    assert occupied.sum() == 51
    assert np.all(within_k_sem(result.mean.probs, exact, result.sem))
    assert np.all(result.mean.probs[~occupied] == 0.0)
