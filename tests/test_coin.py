import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sample_random_phase_coin
from qwalk import coin, walk
from qwalk.coin import (
    CoinAngles,
    CoinOperator,
    _check_unitary,
    _coins,
    make_su2_coin,
    make_theta_coin,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

angles_st = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


class StubRng:
    """Feeds preset uniform draws to code expecting Generator.random()."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def test_hadamard_from_su2_angles():
    coin = make_su2_coin(CoinAngles(0.0, math.pi / 4, 0.0))
    assert np.allclose(coin.matrix, HADAMARD, atol=1e-15)


def test_theta_zero_is_sigma_z_like():
    coin = make_su2_coin(CoinAngles(0.0, 0.0, 0.0))
    assert np.allclose(coin.matrix, [[1, 0], [0, -1]], atol=0)


def test_su2_with_quarter_phase():
    # direct evaluation of the four entries at xi = pi/2, theta = pi/4
    coin = make_su2_coin(CoinAngles(math.pi / 2, math.pi / 4, 0.0))
    r = 1 / math.sqrt(2)
    expected = np.array([[1j * r, r], [r, 1j * r]])
    assert np.allclose(coin.matrix, expected, atol=1e-15)


def test_theta_coin_examples():
    assert np.allclose(make_theta_coin(math.pi / 4).matrix, HADAMARD, atol=1e-15)
    assert np.allclose(make_theta_coin(math.pi / 2).matrix, [[0, 1], [1, 0]], atol=1e-16)
    assert np.allclose(make_theta_coin(0.0).matrix, [[1, 0], [0, -1]], atol=0)


@given(theta=angles_st)
def test_theta_coin_equals_su2_special_case(theta):
    assert np.array_equal(
        make_theta_coin(theta).matrix,
        make_su2_coin(CoinAngles(0.0, theta, 0.0)).matrix,
    )


@given(xi=angles_st, theta=angles_st, zeta=angles_st)
@settings(max_examples=200)
def test_su2_always_unitary(xi, theta, zeta):
    m = make_su2_coin(CoinAngles(xi, theta, zeta)).matrix
    assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12
    assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-12


@given(xi=angles_st, theta=angles_st, zeta=angles_st, phi=angles_st, seed=st.integers(0, 2**32 - 1))
def test_global_phase_leaves_probabilities_unchanged(xi, theta, zeta, phi, seed):
    m = make_su2_coin(CoinAngles(xi, theta, zeta)).matrix
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    lhs = np.abs((np.exp(1j * phi) * m) @ v) ** 2
    rhs = np.abs(m @ v) ** 2
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_angles_normalized_into_ranges():
    a = CoinAngles(2 * math.pi + 0.3, math.pi + 0.1, -0.5)
    assert a.xi == pytest.approx(0.3)
    assert a.theta == pytest.approx(0.1)
    assert a.zeta == pytest.approx(2 * math.pi - 0.5)
    assert a.eta == pytest.approx((a.xi - a.zeta) % (2 * math.pi))
    # Python's % rounds a tiny negative angle up to the period, which maps to 0,
    # so the ranges stay half-open and the coin builder's reduction is a no-op
    tiny = CoinAngles(-1e-300, -1e-300, -1e-300)
    assert (tiny.xi, tiny.theta, tiny.zeta) == (0.0, 0.0, 0.0)
    assert make_su2_coin(tiny).matrix.tobytes() == _coins(-1e-300, -1e-300, -1e-300)[0].tobytes()


def test_non_finite_angles_rejected():
    with pytest.raises(ValueError):
        CoinAngles(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        CoinAngles(0.0, math.inf, 0.0)


def test_non_unitary_matrix_rejected():
    with pytest.raises(ValueError, match="unitary"):
        CoinOperator(np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="2x2"):
        CoinOperator(np.eye(3, dtype=complex))
    # NaN deviations fail the checks too, and an infinite entry warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.full((2, 2), np.nan), [[math.inf, 0], [0, 1]]):
            with pytest.raises(ValueError, match="unitary"):
                CoinOperator(bad)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(angles_st, angles_st, angles_st), min_size=1, max_size=70))
def test_batched_coins_equal_single_coins_bitwise(triples):
    xi, theta, zeta = np.array(triples).T
    batch = _coins(xi, theta, zeta)
    assert batch.shape == (len(triples), 2, 2)
    single = np.stack([make_su2_coin(CoinAngles(*t)).matrix for t in triples])
    assert batch.tobytes() == single.tobytes()
    # per step and walk: (n, B) angles give (n, B, 2, 2) coins, the same bytes
    steps = _coins(np.stack([xi, xi[::-1]]), theta, zeta)
    assert steps.shape == (2, len(triples), 2, 2)
    assert steps[0].tobytes() == single.tobytes()
    assert steps[1].tobytes() == _coins(xi[::-1], theta, zeta).tobytes()


def test_batched_check_rejects_one_bad_matrix():
    good = make_su2_coin(CoinAngles(0.3, 0.7, 1.1)).matrix
    _check_unitary(np.stack([good, good]))
    with pytest.raises(ValueError, match="not unitary"):
        _check_unitary(np.stack([good, np.diag([1.0, 0.5]), good]))


def test_su2_coin_is_checked_once(monkeypatch):
    calls = []

    def counting_check(m):
        calls.append(m.shape)
        return _check_unitary(m)

    monkeypatch.setattr(coin, "_check_unitary", counting_check)
    monkeypatch.setattr(walk, "_check_unitary", counting_check)
    make_su2_coin(CoinAngles(0.3, 0.7, 1.1))
    assert calls == [(1, 2, 2)]
    _coins(0.3, 0.7, np.full((4, 3), 1.1))  # the builder checks nothing itself
    assert calls == [(1, 2, 2)]
    list(walk._grid_probs(walk.SYMMETRIC_IC, [(0.3, 0.7)] * 3, 4))  # one check a batch
    assert calls == [(1, 2, 2), (3, 2, 2)]


def test_random_phase_coin_p_zero_is_theta_coin():
    rng = np.random.default_rng(5)
    theta = 0.9
    for _ in range(20):
        coin = sample_random_phase_coin(theta, 0.0, rng)
        assert np.array_equal(coin.matrix, make_theta_coin(theta).matrix)


def test_random_phase_coin_zeta_pi():
    # accept draw below p_tilde=1, phase draw 0.5 -> zeta = pi
    theta = 0.7
    coin = sample_random_phase_coin(theta, 1.0, StubRng([0.0, 0.5]))
    c, s = math.cos(theta), math.sin(theta)
    assert np.allclose(coin.matrix, [[c, -s], [-s, -c]], atol=1e-15)


@given(theta=angles_st, seed=st.integers(0, 2**32 - 1))
def test_random_phase_coin_always_unitary(theta, seed):
    coin = sample_random_phase_coin(theta, 1.0, np.random.default_rng(seed))
    m = coin.matrix
    assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12


def test_random_phase_coin_consumes_two_draws():
    rng = StubRng([0.9, 0.25, 0.1, 0.25])
    first = sample_random_phase_coin(0.6, 0.5, rng)   # 0.9 >= 0.5: no phase
    second = sample_random_phase_coin(0.6, 0.5, rng)  # 0.1 < 0.5: zeta = pi/2
    assert np.array_equal(first.matrix, make_theta_coin(0.6).matrix)
    assert second.matrix[0, 1] == pytest.approx(1j * math.sin(0.6))
    with pytest.raises(ValueError):
        sample_random_phase_coin(0.6, 1.5, np.random.default_rng(0))
