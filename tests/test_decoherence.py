import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LinkMask,
    amplitude,
    binomial_probs,
    entropy_nats,
    init_state,
    norm,
    random_ic,
    replay_walk,
    site_index,
    step_broken_links,
    step_unitary,
)
from qwalk import decoherence
from qwalk.cli import cmd_entropy, parse_config
from qwalk.coin import TWO_PI, make_theta_coin
from qwalk.decoherence import DecoherenceSpec, realization_rng, run_ensemble
from qwalk.walk import (
    SYMMETRIC_IC,
    UP_IC,
    InitialCoinState,
    evolve,
    position_distribution,
)

THETA = math.pi / 4


def test_spec_validation():
    with pytest.raises(ValueError):
        DecoherenceSpec("weird")
    with pytest.raises(ValueError):
        DecoherenceSpec.broken_links(1.5)
    assert DecoherenceSpec.none().mode == "none"


def test_all_links_intact_matches_unitary_bitwise():
    state = init_state(SYMMETRIC_IC)
    unitary = init_state(SYMMETRIC_IC)
    coin = make_theta_coin(THETA)
    for _ in range(8):
        state = step_broken_links(state, THETA, LinkMask.all_intact(state.n))
        unitary = step_unitary(unitary, coin)
        assert np.array_equal(state.a, unitary.a)
        assert np.array_equal(state.b, unitary.b)


def test_all_links_broken_applies_both_broken_rule():
    # with every link down, each site applies the component exchange
    # a <- sin a - cos b, b <- cos a + sin b in place (after the shift
    # bookkeeping the walker cannot leave its site)
    state = init_state(InitialCoinState(0.6, 0.8j))
    n0 = state.n
    mask = LinkMask(np.ones(2 * n0 + 2, dtype=bool), lo=-n0 - 1)
    stepped = step_broken_links(state, THETA, mask)
    ct, st_ = math.cos(THETA), math.sin(THETA)
    a_expected = st_ * 0.6 - ct * 0.8j
    b_expected = ct * 0.6 + st_ * 0.8j
    assert amplitude(stepped, 0) == (pytest.approx(a_expected), pytest.approx(b_expected))
    assert abs(norm(stepped) - 1.0) < 1e-12


def test_right_broken_link_hand_example():
    # single site occupied (a_0 = 1), only the link (0, 1) broken:
    # the up output at 0 is diverted down in place (b_0 = cos t), the down
    # output still crosses the intact left link to b_{-1} = sin t
    state = init_state(UP_IC)
    mask = LinkMask(np.array([False, True]), lo=-1)
    stepped = step_broken_links(state, THETA, mask)
    assert amplitude(stepped, 0)[1] == pytest.approx(math.cos(THETA))
    assert amplitude(stepped, -1)[1] == pytest.approx(math.sin(THETA))
    assert amplitude(stepped, 1) == (0.0, 0.0)
    dist = position_distribution(stepped)
    assert dist.probs[site_index(stepped, 0)] == pytest.approx(0.5)
    assert dist.probs[site_index(stepped, -1)] == pytest.approx(0.5)


def test_mask_shape_validated():
    state = init_state(UP_IC)
    with pytest.raises(ValueError, match="mask must cover"):
        step_broken_links(state, THETA, LinkMask(np.array([False]), lo=-1))
    with pytest.raises(ValueError, match="mask must cover"):
        step_broken_links(state, THETA, LinkMask(np.array([False, False]), lo=0))


@given(
    theta=st.floats(0.0, math.pi, exclude_max=True, allow_nan=False),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_norm_conserved_under_random_masks(theta, p, seed):
    rng = np.random.default_rng(seed)
    a0, b0 = random_ic(rng)
    state = init_state(InitialCoinState(a0, b0))
    for _ in range(25):
        state = step_broken_links(state, theta, LinkMask.sample(state.n, p, rng))
        assert abs(norm(state) - 1.0) < 1e-12


def test_ensemble_p_zero_equals_unitary_exactly():
    result = run_ensemble(SYMMETRIC_IC, THETA, DecoherenceSpec.broken_links(0.0), 30, 5, 9)
    unitary = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(THETA), 30))
    assert np.array_equal(result.mean.probs, unitary.probs)
    assert np.all(result.sem == 0.0)


def test_ensemble_p_tilde_zero_equals_unitary_exactly():
    result = run_ensemble(
        SYMMETRIC_IC, 0.8, DecoherenceSpec.random_phase(0.0), 30, 5, 9
    )
    unitary = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(0.8), 30))
    assert np.array_equal(result.mean.probs, unitary.probs)


def test_noiseless_ensemble_creates_no_stream(monkeypatch):
    def no_rng(seed, r):
        raise AssertionError("a noiseless ensemble created a random stream")

    monkeypatch.setattr(decoherence, "realization_rng", no_rng)
    ic, n = InitialCoinState(0.36 + 0.48j, 0.48 - 0.64j), 17
    unitary = position_distribution(evolve(ic, make_theta_coin(THETA), n))
    # seed -1 is no valid SeedSequence entropy, so a stream would also raise
    result = run_ensemble(ic, THETA, DecoherenceSpec.broken_links(0.0), n, 300, seed=-1)
    assert np.array_equal(result.mean.probs, unitary.probs)
    assert np.all(result.sem == 0.0)


def test_noiseless_sweep_equals_the_unitary_walks_bitwise(monkeypatch):
    def no_rng(seed, r):
        raise AssertionError("a noiseless sweep created a random stream")

    monkeypatch.setattr(decoherence, "realization_rng", no_rng)
    ic = InitialCoinState(0.36 + 0.48j, 0.48 - 0.64j)
    # 136 thetas span three batches of the grid walker; six lie outside [0, pi)
    thetas = [*np.linspace(0.0, 3.1, 130), -0.3, 4.0, 7.5, 1e6, math.pi, -math.pi / 4]
    specs = [DecoherenceSpec.none(), DecoherenceSpec.broken_links(0.0),
             DecoherenceSpec.random_phase(0.0)]
    for n in (0, 1, 17):
        want = [position_distribution(evolve(ic, make_theta_coin(t), n)).probs for t in thetas]
        for spec in specs:
            results = decoherence._sweep(ic, thetas, spec, n, 300, seed=-1)
            assert len(results) == len(thetas)
            for result, probs in zip(results, want):
                assert result.mean.probs.tobytes() == probs.tobytes()
                assert np.all(result.sem == 0.0)


def test_ensemble_mode_none_has_no_stochasticity():
    result = run_ensemble(SYMMETRIC_IC, THETA, DecoherenceSpec.none(), 20, 100, 1)
    assert np.all(result.sem == 0.0)
    assert result.mean.total() == pytest.approx(1.0, abs=1e-14)


def test_ensemble_reproducible_and_mean_normalized():
    spec = DecoherenceSpec.broken_links(0.3)
    r1 = run_ensemble(SYMMETRIC_IC, THETA, spec, 25, 64, seed=123)
    r2 = run_ensemble(SYMMETRIC_IC, THETA, spec, 25, 64, seed=123)
    np.testing.assert_array_equal(r1.mean.probs, r2.mean.probs)
    np.testing.assert_array_equal(r1.sem, r2.sem)
    assert r1.mean.total() == pytest.approx(1.0, abs=1e-15)
    assert np.all(r1.sem >= 0.0)
    r3 = run_ensemble(SYMMETRIC_IC, THETA, spec, 25, 64, seed=124)
    assert not np.array_equal(r1.mean.probs, r3.mean.probs)


def test_ensemble_matches_public_step_surface_in_any_order():
    # dual route: the vectorized ensemble engine must agree with realizations
    # replayed one by one through the public ops, evaluated in reverse order
    n, reals, seed = 12, 7, 42
    spec = DecoherenceSpec.broken_links(0.35)
    result = run_ensemble(SYMMETRIC_IC, THETA, spec, n, reals, seed)
    acc = np.zeros(2 * n + 1)
    for r in reversed(range(reals)):
        acc += replay_walk(SYMMETRIC_IC, THETA, spec, n, realization_rng(seed, r)).probs
    manual_mean = acc / reals
    manual_mean = manual_mean / manual_mean.sum()
    np.testing.assert_allclose(result.mean.probs, manual_mean, atol=1e-12)


@pytest.mark.parametrize("n,p,count", [
    (0, 0.35, 1), (1, 1.0, 129), (1, 0.35, 128), (7, 0.0, 127), (7, 0.35, 129),
    (7, 1.0, 128), (100, 0.35, 129), (100, 1.0, 1), (100, 0.0, 127),
])
def test_broken_engine_equals_public_step_replay_bitwise(n, p, count):
    ic, spec = InitialCoinState(0.6, 0.8j), DecoherenceSpec.broken_links(p)
    rngs = [realization_rng(11, r) for r in range(5, 5 + count)]
    (got,) = decoherence._chunk_walks(ic, [1.1], spec, n, rngs)
    assert got.shape == (count, 2 * n + 1) and got.flags.c_contiguous
    for i, probs in enumerate(got):
        want = replay_walk(ic, 1.1, spec, n, realization_rng(11, 5 + i)).probs
        assert np.array_equal(probs, want)


@pytest.mark.parametrize("reals", [127, 128, 129])
def test_broken_ensemble_mean_equals_chunked_replay_bitwise(reals):
    # the mean sums each group of 128 realizations, then adds the groups in order
    n, spec, seed = 7, DecoherenceSpec.broken_links(0.35), 4
    result = run_ensemble(SYMMETRIC_IC, THETA, spec, n, reals, seed)
    probs = np.array([
        replay_walk(SYMMETRIC_IC, THETA, spec, n, realization_rng(seed, r)).probs
        for r in range(reals)
    ])
    acc = np.zeros(2 * n + 1)
    for start in range(0, reals, 128):
        acc += probs[start : start + 128].sum(axis=0)
    mean = acc / reals
    assert np.array_equal(result.mean.probs, mean / mean.sum())


def test_phase_ensemble_matches_public_step_surface():
    n, reals, seed = 10, 5, 17
    spec = DecoherenceSpec.random_phase(0.6)
    result = run_ensemble(SYMMETRIC_IC, THETA, spec, n, reals, seed)
    acc = np.zeros(2 * n + 1)
    for r in range(reals):
        acc += replay_walk(SYMMETRIC_IC, THETA, spec, n, realization_rng(seed, r)).probs
    manual_mean = acc / reals
    manual_mean = manual_mean / manual_mean.sum()
    np.testing.assert_allclose(result.mean.probs, manual_mean, atol=1e-12)


def test_full_random_phase_collapses_to_classical_entropy():
    # scaled-down version of the figure-level check: full phase noise at the
    # Hadamard angle reproduces classical-walk entropy closely
    n, reals = 30, 400
    result = run_ensemble(
        SYMMETRIC_IC, THETA, DecoherenceSpec.random_phase(1.0), n, reals, seed=3
    )
    h_classical = entropy_nats(binomial_probs(n))
    assert entropy_nats(result.mean.probs) == pytest.approx(h_classical, abs=0.08)


def test_weak_disruption_resembles_unitary_more_than_classical():
    """At p = 0.01 the ensemble mean stays on the unitary side of the
    quantum-to-classical transition: its width-2-binned TV to the unitary
    walk (0.30 measured at this seed) is well under half its TV to the
    binomial walk.  Even this weak disruption smooths the unitary
    interference spikes, which keeps the unitary-side TV far above zero.
    """
    from qwalk.classical import classical_rw_distribution
    from qwalk.stats import aggregate_histogram
    from qwalk.walk import PositionDistribution

    def binned_tv(pa, pb, n):
        ha = aggregate_histogram(PositionDistribution(n=n, probs=pa), 2)
        hb = aggregate_histogram(PositionDistribution(n=n, probs=pb), 2)
        return float(0.5 * np.sum(np.abs(ha.masses - hb.masses)))

    result = run_ensemble(
        SYMMETRIC_IC, THETA, DecoherenceSpec.broken_links(0.01), 100, 1000, 42
    )
    unitary = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(THETA), 100))
    classical = classical_rw_distribution(100)
    tv_unitary = binned_tv(result.mean.probs, unitary.probs, 100)
    tv_classical = binned_tv(result.mean.probs, classical.probs, 100)
    assert tv_unitary == pytest.approx(0.3003, abs=0.02)
    assert tv_unitary < 0.5 * tv_classical


def test_broken_links_spread_slower_than_unitary():
    n = 40
    broken = run_ensemble(
        SYMMETRIC_IC, THETA, DecoherenceSpec.broken_links(0.5), n, 200, seed=5
    )
    j = broken.mean.sites.astype(float)
    var_broken = float(np.sum(j**2 * broken.mean.probs))
    unitary = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(THETA), n))
    var_unitary = float(np.sum(j**2 * unitary.probs))
    assert var_broken < 0.5 * var_unitary  # diffusive, not ballistic


def test_realization_count_validated():
    with pytest.raises(ValueError):
        run_ensemble(SYMMETRIC_IC, THETA, DecoherenceSpec.none(), 5, 0, 1)


def _phase_chunk_reference(ic, theta, p_tilde, n, seed, start, count):
    """The random-phase engine as a per-step loop over the whole chunk, with
    the coin [[c, s e^{i zeta}], [s / e^{i zeta}, -c]] written out inline."""
    draws = np.array([realization_rng(seed, start + i).random((n, 2)) for i in range(count)])
    zetas = np.where(draws[:, :, 0] < p_tilde, TWO_PI * draws[:, :, 1], 0.0)
    ct, st = math.cos(theta), math.sin(theta)
    a = np.zeros((count, 2 * n + 1), dtype=complex)
    b = np.zeros((count, 2 * n + 1), dtype=complex)
    a[:, n], b[:, n] = ic.a0, ic.b0
    for k in range(n):
        phase = np.exp(1j * zetas[:, k])[:, None]
        up = ct * a + st * phase * b
        dn = (st / phase) * a - ct * b
        a = np.zeros_like(a)
        b = np.zeros_like(b)
        a[:, 1:], b[:, :-1] = up[:, :-1], dn[:, 1:]
    return np.abs(a) ** 2 + np.abs(b) ** 2


@pytest.mark.parametrize("theta,p_tilde,n,count", [
    (0.3, 0.01, 1, 3), (THETA, 0.1, 50, 128), (1.5, 1.0, 20, 64), (1.1, 0.4, 33, 5),
])
def test_phase_engine_equals_reference_loop_bitwise(theta, p_tilde, n, count):
    ic, spec = InitialCoinState(0.6, 0.8j), DecoherenceSpec.random_phase(p_tilde)
    rngs = [realization_rng(9, r) for r in range(3, 3 + count)]
    (got,) = decoherence._chunk_walks(ic, [theta], spec, n, rngs)
    assert got.shape == (count, 2 * n + 1) and got.flags.c_contiguous
    want = _phase_chunk_reference(ic, theta, p_tilde, n, 9, 3, count)
    assert np.array_equal(got, want)


def test_each_phase_sweep_creates_its_streams_once_and_keeps_none(monkeypatch):
    streams = np.zeros(1100, dtype=int)  # preallocated: counting holds nothing

    def counting_rng(seed, r):
        streams[r] += 1
        return realization_rng(seed, r)

    monkeypatch.setattr(decoherence, "realization_rng", counting_rng)
    n = 20
    # 1100 realizations span nine chunks of decoherence._CHUNK walks
    for realizations in (150, 1100):
        cfg = parse_config({
            "experiment": "entropy", "seed": 123, "realizations": realizations, "n_values": [n],
            "theta_grid": {"start": 0.1, "stop": 1.2, "count": 5},
            "p_tilde_values": [0.0, 0.2, 1.0],
        })
        cmd_entropy(cfg)  # warm-up: first-call allocations are not the sweep's
        streams[:] = 0
        tracemalloc.start()
        try:
            cmd_entropy(cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # each of the two nonzero p_tilde sweeps creates every stream once
        assert np.all(streams[:realizations] == 2) and streams.sum() == 2 * realizations
        # and keeps less than one chunk's (accept, phase) uniforms; a cache
        # of every realization's would hold 16 * n * realizations bytes
        assert held < 16 * n * decoherence._CHUNK


@pytest.mark.parametrize("realizations", [1, 128, 129, 257])
@pytest.mark.parametrize("spec", [
    DecoherenceSpec.broken_links(0.3), DecoherenceSpec.random_phase(0.4),
], ids=["broken_links", "random_phase"])
def test_theta_sweep_equals_per_theta_ensembles_bitwise(spec, realizations):
    ic, thetas, n = InitialCoinState(0.6, 0.8j), [0.2, THETA, 1.1, 1.5], 9
    sweep = decoherence._sweep(ic, thetas, spec, n, realizations, 31)
    assert len(sweep) == len(thetas)
    for theta, got in zip(thetas, sweep):
        want = run_ensemble(ic, theta, spec, n, realizations, 31)
        assert got.mean.probs.tobytes() == want.mean.probs.tobytes()
        assert got.sem.tobytes() == want.sem.tobytes()


def test_random_phase_peak_memory_does_not_grow_with_realizations():
    def peak(realizations):
        tracemalloc.start()
        try:
            run_ensemble(SYMMETRIC_IC, THETA, DecoherenceSpec.random_phase(0.1), 20,
                         realizations, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(256)  # warm-up: first-call allocations are not the engine's
    # tracemalloc also counts objects parked on Python's free lists and the
    # spawn-key ints past 256, which are not cached: about 8 KB more at 5000
    # realizations.  Their (accept, phase) uniforms would be 1.6 MB.
    assert peak(5000) <= peak(256) + 16 * 1024
