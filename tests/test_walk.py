import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    amplitude,
    brute_force_amplitudes,
    init_state,
    norm,
    operator_matrix_evolve,
    random_ic,
    sites,
    spectral_walk,
    step_unitary,
)
from qwalk.coin import CoinAngles, _coins, make_su2_coin, make_theta_coin
from qwalk.stats import moments
from qwalk.walk import (
    SYMMETRIC_IC,
    UP_IC,
    InitialCoinState,
    PositionDistribution,
    WalkState,
    _coin_operands,
    evolve,
    position_distribution,
    propagate,
)

HADAMARD = make_theta_coin(math.pi / 4)

angle_st = st.floats(0.0, 2 * math.pi, allow_nan=False)
seed_st = st.integers(0, 2**32 - 1)


def test_init_state_point_mass():
    state = init_state(UP_IC)
    dist = position_distribution(state)
    assert dist.n == 0
    assert dist.probs[0] == 1.0


def test_init_state_known_initial_conditions():
    # equal-weight state and the (-i/2, i*sqrt(3)/2) state are both valid
    for ic in (SYMMETRIC_IC, InitialCoinState(-0.5j, 0.5j * math.sqrt(3))):
        dist = position_distribution(init_state(ic))
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)


def test_init_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        InitialCoinState(1.0, 0.1)


@pytest.mark.parametrize("a0", [float("nan"), complex(0.6, float("nan"))])
def test_init_state_rejects_nan_amplitude(a0):
    with pytest.raises(ValueError, match="normalized"):
        InitialCoinState(a0, 0.8)


def test_single_hadamard_step():
    state = step_unitary(init_state(UP_IC), HADAMARD)
    r = 1 / math.sqrt(2)
    assert amplitude(state, 1)[0] == pytest.approx(r)
    assert amplitude(state, -1)[1] == pytest.approx(r)
    dist = position_distribution(state)
    np.testing.assert_allclose(dist.probs, [0.5, 0.0, 0.5], atol=1e-15)


def test_three_hadamard_steps_hand_values():
    # hand iteration of the recurrence, cross-checked against full path
    # enumeration over the 2^3 coin histories
    state = evolve(UP_IC, HADAMARD, 3)
    dist = position_distribution(state)
    expected = {-3: 1 / 8, -1: 1 / 8, 1: 5 / 8, 3: 1 / 8}
    for j, p in expected.items():
        assert dist.probs[j + 3] == pytest.approx(p, abs=1e-15)
    a_bf, b_bf = brute_force_amplitudes(1.0, 0.0, HADAMARD.matrix, 3)
    np.testing.assert_allclose(state.a, a_bf, atol=1e-14)
    np.testing.assert_allclose(state.b, b_bf, atol=1e-14)


def test_theta_zero_walk_is_ballistic():
    n = 25
    dist = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(0.0), n))
    assert dist.probs[0] == pytest.approx(0.5, abs=1e-12)    # site -n
    assert dist.probs[-1] == pytest.approx(0.5, abs=1e-12)   # site +n
    assert np.all(dist.probs[1:-1] == 0.0)


def test_evolve_zero_steps_is_identity():
    state = evolve(SYMMETRIC_IC, HADAMARD, 0)
    assert state.n == 0
    assert amplitude(state, 0) == (SYMMETRIC_IC.a0, SYMMETRIC_IC.b0)
    with pytest.raises(ValueError):
        evolve(SYMMETRIC_IC, HADAMARD, -1)


def test_hadamard_100_symmetric_and_bimodal():
    dist = position_distribution(evolve(SYMMETRIC_IC, HADAMARD, 100))
    np.testing.assert_allclose(dist.probs, dist.probs[::-1], atol=1e-12)
    right = dist.probs[101:]
    peak = int(np.argmax(right)) + 1
    assert abs(peak - 100 / math.sqrt(2)) < 5
    assert dist.probs[100 + peak] > dist.probs[100]  # outer peak beats center


@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, 3 * math.pi / 8])
def test_variance_tracks_one_minus_sin_theta(theta):
    n = 100
    dist = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(theta), n))
    assert moments(dist).variance / n**2 == pytest.approx(1 - math.sin(theta), abs=0.02)


@given(xi=angle_st, theta=angle_st, zeta=angle_st, seed=seed_st)
@settings(max_examples=30, deadline=None)
def test_norm_conserved_along_the_walk(xi, theta, zeta, seed):
    coin = make_su2_coin(CoinAngles(xi, theta, zeta))
    a0, b0 = random_ic(np.random.default_rng(seed))
    state = init_state(InitialCoinState(a0, b0))
    for _ in range(60):
        state = step_unitary(state, coin)
        assert abs(norm(state) - 1.0) < 1e-12


@given(xi=angle_st, theta=angle_st, zeta=angle_st, seed=seed_st)
@settings(max_examples=30, deadline=None)
def test_parity_sites_carry_no_amplitude(xi, theta, zeta, seed):
    coin = make_su2_coin(CoinAngles(xi, theta, zeta))
    a0, b0 = random_ic(np.random.default_rng(seed))
    state = evolve(InitialCoinState(a0, b0), coin, 17)
    js = sites(state)
    odd = (js + 17) % 2 == 1
    assert np.all(state.a[odd] == 0.0)
    assert np.all(state.b[odd] == 0.0)


@given(xi=angle_st, theta=angle_st, zeta=angle_st, seed=seed_st)
@settings(max_examples=30, deadline=None)
def test_only_eta_and_theta_shape_the_distribution(xi, theta, zeta, seed):
    # the phase difference eta = xi - zeta fully determines P_j for walks
    # started at the origin
    a0, b0 = random_ic(np.random.default_rng(seed))
    ic = InitialCoinState(a0, b0)
    full = position_distribution(evolve(ic, make_su2_coin(CoinAngles(xi, theta, zeta)), 30))
    reduced = position_distribution(
        evolve(ic, make_su2_coin(CoinAngles(xi - zeta, theta, 0.0)), 30)
    )
    np.testing.assert_allclose(full.probs, reduced.probs, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_recurrence_matches_path_enumeration(n):
    rng = np.random.default_rng(2024)
    coins = [HADAMARD] + [make_theta_coin(rng.uniform(0, math.pi)) for _ in range(5)]
    for coin in coins:
        a0, b0 = random_ic(rng)
        state = evolve(InitialCoinState(a0, b0), coin, n)
        a_bf, b_bf = brute_force_amplitudes(a0, b0, coin.matrix, n)
        np.testing.assert_allclose(state.a, a_bf, atol=1e-12)
        np.testing.assert_allclose(state.b, b_bf, atol=1e-12)


def test_recurrence_matches_operator_matrix():
    rng = np.random.default_rng(99)
    for _ in range(4):
        coin = make_su2_coin(
            CoinAngles(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi),
                       rng.uniform(0, 2 * math.pi))
        )
        a0, b0 = random_ic(rng)
        state = evolve(InitialCoinState(a0, b0), coin, 12)
        a_op, b_op = operator_matrix_evolve(a0, b0, coin.matrix, 12)
        np.testing.assert_allclose(state.a, a_op, atol=1e-13)
        np.testing.assert_allclose(state.b, b_op, atol=1e-13)


def test_position_distribution_sums_to_one():
    dist = position_distribution(evolve(SYMMETRIC_IC, HADAMARD, 200))
    assert dist.total() == pytest.approx(1.0, abs=1e-12)


def test_norm_holds_to_two_thousand_steps():
    state = init_state(SYMMETRIC_IC)
    coin = make_su2_coin(CoinAngles(0.9, 1.1, 0.3))
    for _ in range(2000):
        state = step_unitary(state, coin)
    assert abs(norm(state) - 1.0) < 1e-12


def _step_loop(ic, coin, n):
    state = init_state(ic)
    for _ in range(n):
        state = step_unitary(state, coin)
    return state


#: an initial state with all four parts nonzero, whose products round
GENERAL_IC = InitialCoinState(0.36 + 0.48j, 0.48 - 0.64j)
#: sha256 of a.tobytes() + b.tobytes() of its single walk under the coin
#: below, which the test also checks against the step_unitary loop bit for bit;
#: the coin's (1, 0) entry is s / e^{i zeta}, the form of every coin
GENERAL_IC_SHA256 = {
    0: "26bffb925706f7029589a5602504687c041413dd554779d73e65fd976825a495",
    1: "03b12b70332307e7fdde73a7d39aac2525905290d11c4afc86169c1ccd46f8e2",
    2: "2f83de67ba30c6ed2bd51b632839ac3d3ca6856d557902ab0909233a25740062",
    3: "c5bfdb68bab693df01cdaf51b65bc5f37a74b5b3a4861a14aaa76df2b1346f5a",
    7: "4aa798794ba33177768c4026d44e4dfd0515ec3c92684188e23a17c90cdd1616",
    8: "fbdb1e23e91f412b70cda2a3b304aa01917fa887ad2446d5e3366d80248a29ac",
    100: "78105b47a5692b2afeb65787cfc877041747dc1a0eb4090407ed56efa8d6c2a0",
}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 100])
def test_propagate_single_walk_equals_step_loop_bitwise(n):
    coin = make_su2_coin(CoinAngles(0.4, 1.1, 2.3))
    ic = InitialCoinState(0.6, 0.8j)
    a, b = propagate(ic.a0, ic.b0, coin.matrix[None], n)
    state = _step_loop(ic, coin, n)
    assert a.shape == b.shape == (1, 2 * n + 1)
    assert np.array_equal(a[0], state.a) and np.array_equal(b[0], state.b)
    assert np.array_equal(evolve(ic, coin, n).a, state.a)
    # a complex initial state, whose products round, walks alone as the loop does
    a, b = propagate(GENERAL_IC.a0, GENERAL_IC.b0, coin.matrix[None], n)
    state = _step_loop(GENERAL_IC, coin, n)
    assert np.array_equal(a[0], state.a) and np.array_equal(b[0], state.b)
    assert hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest() == GENERAL_IC_SHA256[n]


def test_propagate_batch_equals_per_walk_runs():
    rng = np.random.default_rng(5)
    coins = [
        make_su2_coin(CoinAngles(*rng.uniform(0, 2 * math.pi, 3))) for _ in range(9)
    ]
    ics = [InitialCoinState(*random_ic(rng)) for _ in coins]
    a0 = np.array([ic.a0 for ic in ics])
    b0 = np.array([ic.b0 for ic in ics])
    a, b = propagate(a0, b0, np.stack([c.matrix for c in coins]), 37)
    for i, (ic, coin) in enumerate(zip(ics, coins)):
        state = _step_loop(ic, coin, 37)
        assert np.array_equal(a[i], state.a) and np.array_equal(b[i], state.b)


def test_propagate_per_step_coins_match_operator_matrix_oracle():
    # a coin per step: the dense walk operator applied step by step
    rng = np.random.default_rng(11)
    n, walks = 9, 3
    coins = np.stack([
        [make_su2_coin(CoinAngles(*rng.uniform(0, 2 * math.pi, 3))).matrix
         for _ in range(walks)]
        for _ in range(n)
    ])
    a, b = propagate(SYMMETRIC_IC.a0, SYMMETRIC_IC.b0, coins, n)
    for w in range(walks):
        ra = np.array([SYMMETRIC_IC.a0])
        rb = np.array([SYMMETRIC_IC.b0])
        for k in range(n):
            # one oracle step from the current state: embed it, apply once
            psi_a, psi_b = np.zeros(2 * k + 3, complex), np.zeros(2 * k + 3, complex)
            for j in range(2 * k + 1):
                sa, sb = operator_matrix_evolve(ra[j], rb[j], coins[k, w], 1)
                psi_a[j : j + 3] += sa
                psi_b[j : j + 3] += sb
            ra, rb = psi_a, psi_b
        np.testing.assert_allclose(a[w], ra, atol=1e-12, rtol=0)
        np.testing.assert_allclose(b[w], rb, atol=1e-12, rtol=0)


def test_propagate_per_step_coins_equal_step_loop_bitwise():
    rng = np.random.default_rng(12)
    n, walks = 11, 3
    steps = [
        [make_su2_coin(CoinAngles(*rng.uniform(0, 2 * math.pi, 3))) for _ in range(walks)]
        for _ in range(n)
    ]
    ics = [InitialCoinState(*random_ic(rng)) for _ in range(walks)]
    a, b = propagate(np.array([ic.a0 for ic in ics]), np.array([ic.b0 for ic in ics]),
                     np.array([[coin.matrix for coin in step] for step in steps]), n)
    for w, ic in enumerate(ics):
        state = init_state(ic)
        for step in steps:
            state = step_unitary(state, step[w])
        assert np.array_equal(a[w], state.a) and np.array_equal(b[w], state.b)
        # the sites of the other parity are never reached
        assert not np.any(a[w, 1::2]) and not np.any(b[w, 1::2])


def test_propagate_matches_operator_matrix_oracle():
    coin = make_su2_coin(CoinAngles(1.3, 0.5, 0.2))
    a, b = propagate(UP_IC.a0, UP_IC.b0, coin.matrix[None], 40)
    a_op, b_op = operator_matrix_evolve(UP_IC.a0, UP_IC.b0, coin.matrix, 40)
    np.testing.assert_allclose(a[0], a_op, atol=1e-12, rtol=0)
    np.testing.assert_allclose(b[0], b_op, atol=1e-12, rtol=0)


@pytest.mark.parametrize("n, xi, theta, zeta", [
    (2000, [0.0, 0.3, 1.3, 2.9, 0.0], [np.pi / 4, 0.5, 1.1, 0.2, 1.5], [0.0, 0.7, 0.2, 5.0, 0.0]),
    # theta = pi/4 would slow propagate fourfold here: its tails run subnormal
    (10_000, [0.4], [1.1], [0.2]),
])
def test_propagate_matches_the_spectral_reference_at_large_n(n, xi, theta, zeta):
    coins = _coins(np.array(xi), np.array(theta), np.array(zeta))
    ic = InitialCoinState(0.36 + 0.48j, 0.48 - 0.64j)
    probs = [np.abs(a) ** 2 + np.abs(b) ** 2 for a, b in (
        propagate(ic.a0, ic.b0, coins, n), spectral_walk(ic.a0, ic.b0, coins, n))]
    assert probs[0].shape == (len(theta), 2 * n + 1)
    np.testing.assert_allclose(probs[0], probs[1], atol=1e-12, rtol=0)


@pytest.mark.parametrize("n", [-1, -3, 2.5, True])
def test_negative_step_counts_are_rejected_by_propagate_and_evolve(n):
    with pytest.raises(ValueError, match="step count must be an integer >= 0"):
        propagate(1.0, 0.0, HADAMARD.matrix[None], n)
    with pytest.raises(ValueError, match="step count must be an integer >= 0"):
        evolve(UP_IC, HADAMARD, n)
    # the results check theirs too: 2.5 and True pass a length check of 2n + 1
    size = max(0, int(2 * n + 1))
    with pytest.raises(ValueError, match="n must be an integer >= 0"):
        PositionDistribution(n=n, probs=np.ones(size))
    with pytest.raises(ValueError, match="n must be an integer >= 0"):
        WalkState(n=n, a=np.ones(size), b=np.ones(size))


def test_propagate_rejects_bad_coin_shapes():
    with pytest.raises(ValueError):
        propagate(1.0, 0.0, np.eye(2), 3)
    with pytest.raises(ValueError):
        propagate(1.0, 0.0, np.ones((2, 1, 2, 2)), 3)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_propagate_walks_a_count_mask_like_its_bool_mask_bitwise(dtype):
    # the ensemble engine hands propagate link counts: nonzero breaks the link
    n, walks = 12, 5
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 4, (walks, n, 2 * n + 2)).astype(dtype)
    counts[0] *= 100 if dtype == np.uint16 else 85  # counts up to 300, or to 255
    coins = np.broadcast_to(make_theta_coin(1.1).matrix, (walks, 2, 2))
    want = propagate(0.6, 0.8j, coins, n, broken=counts != 0)
    got = propagate(0.6, 0.8j, coins, n, broken=counts)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _broadcast_shared(coins, n):
    """Which coin entries the walk kernel streams as one scalar, by the
    broadcast of each entry's bit patterns against its first."""
    fixed, walks = coins.ndim == 3, coins.shape[-3]
    entries = np.ascontiguousarray(np.moveaxis(coins, -3, -1)).reshape(
        1 if fixed else n, 4, walks)
    bits = entries.view(np.uint64).reshape(*entries.shape, 2)
    return [bool(walks and np.all(bits[:, e] == bits[:1, e, :1])) for e in range(4)]


def test_shared_coin_entries_are_those_of_the_broadcast_test():
    rng = np.random.default_rng(5)
    pool = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 0.6 + 0.8j, 0.6 - 0.8j, 1.0]
    seen = set()
    for _ in range(400):
        n, walks = int(rng.integers(1, 4)), int(rng.choice([1, 2, 5]))
        shape = (walks, 2, 2) if rng.random() < 0.5 else (n, walks, 2, 2)
        coins = np.empty(shape, dtype=complex)
        for i, j in np.ndindex(2, 2):  # each entry shared, or all but one cell
            coins[..., i, j] = pool[rng.integers(len(pool))]
            if rng.random() < 0.5:
                cell = tuple(rng.integers(0, d) for d in shape[:-2])
                coins[(*cell, i, j)] = pool[rng.integers(len(pool))]
        want = _broadcast_shared(coins, n)
        first = next(_coin_operands(coins, n, False))
        assert [np.ndim(c) == 0 for c in first] == want
        seen.update(want)
    assert seen == {False, True}
