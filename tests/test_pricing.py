import math
import warnings

import numpy as np
import pytest

from helpers import replay_walk
from qwalk import decoherence, pricing
from qwalk.classical import GbmParams, StableParams, gaussian_pdf, gbm_path
from qwalk.coin import CoinAngles
from qwalk.decoherence import DecoherenceSpec, realization_rng, run_ensemble
from qwalk.pricing import (
    DiffusionScaler,
    QwPriceModel,
    normalized_returns,
    prenormalized_return_distribution,
    qw_price_path,
    qw_return_distribution,
)
from qwalk.walk import SYMMETRIC_IC, UP_IC, InitialCoinState, evolve

HADAMARD_ANGLES = CoinAngles(0.0, math.pi / 4, 0.0)


def model_with(**overrides):
    base = dict(
        mu=0.0,
        sigma=0.2,
        ic=SYMMETRIC_IC,
        angles=HADAMARD_ANGLES,
        decoherence=DecoherenceSpec.none(),
        steps_per_horizon=100,
        dt_per_step=0.01,
        scaler=DiffusionScaler.unit(),
        s0=1.0,
    )
    base.update(overrides)
    return QwPriceModel(**base)


# ------------------------------------------------------------- scaler


def test_scaler_values():
    assert DiffusionScaler.unit().value(17.0) == 1.0
    inv = DiffusionScaler.inverse_sqrt()
    assert inv.value(4.0) == pytest.approx(0.5)
    assert inv.value(0.0) == 1.0  # regularized at the origin
    table = DiffusionScaler.custom([0.0, 1.0, 2.0], [1.0, 2.0, 4.0])
    assert table.value(1.5) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        DiffusionScaler.custom([0.0, 1.0], [1.0, -2.0])
    with pytest.raises(ValueError):
        DiffusionScaler.custom([1.0, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        DiffusionScaler("bogus")


def test_custom_scaler_order_check_spans_the_float_range_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.diff of this span overflows with a warning
        wide = DiffusionScaler.custom([-1e308, 1e308], [1.0, 2.0])
        with pytest.raises(ValueError, match="increasing"):
            DiffusionScaler.custom([1e308, -1e308], [1.0, 2.0])
    assert wide.value(1e308) == 2.0


def test_custom_scaler_keeps_the_slope_of_an_overflowing_span():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = DiffusionScaler.custom([-1e308, 1e308], [1.0, 2.0])
        assert [wide.value(t) for t in (0.0, 5e307, 1e308)] == [1.5, 1.75, 2.0]
    # a table whose span is finite keeps np.interp's values, bit for bit
    t, f = [0.0, 0.3, 1e307, 1.5e308], [1.0, 0.7, 3.0, 2.0]
    table = DiffusionScaler.custom(t, f)
    for x in (0.0, 0.1, 0.29, 0.3, 2.2, 1e300, 1e307, 1.2e308, 1.5e308, 1.7e308):
        assert table.value(x) == float(np.interp(x, t, f))


@pytest.mark.parametrize("make, match", [
    (lambda: StableParams(1.5, 0.0, math.nan), "scale c must be positive"),
    (lambda: GbmParams(0.0, math.nan), "sigma must be non-negative"),
    (lambda: GbmParams(0.0, 0.2, math.nan), "s0 must be positive"),
    (lambda: model_with(sigma=math.nan), "sigma must be non-negative"),
    (lambda: model_with(s0=math.nan), "s0 must be positive"),
    (lambda: DiffusionScaler.custom([0, 1], [1, math.nan]), "tables must be finite"),
    (lambda: DiffusionScaler.custom([0, math.nan], [1, 2]), "tables must be finite"),
    (lambda: DiffusionScaler.custom([0, 1], [1, math.inf]), "tables must be finite"),
    (lambda: DiffusionScaler.custom([0, math.inf], [1, 2]), "tables must be finite"),
    (lambda: DiffusionScaler.unit().value(math.nan), "scaler time must be non-negative"),
    (lambda: gaussian_pdf(0, 0, math.nan), "sigma must be positive"),
    (lambda: gaussian_pdf(0, 0, math.inf), "sigma must be positive and finite"),
], ids=["stable_c", "gbm_sigma", "gbm_s0", "model_sigma", "model_s0", "scaler_f_nan",
        "scaler_t_nan", "scaler_f_inf", "scaler_t_inf", "scaler_time_nan", "gaussian_sigma_nan",
        "gaussian_sigma_inf"])
def test_nan_fails_the_range_checks(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_model_validation():
    with pytest.raises(ValueError):
        model_with(s0=0.0)
    with pytest.raises(ValueError):
        model_with(steps_per_horizon=0)
    with pytest.raises(ValueError, match="finite"):
        model_with(dt_per_step=1e308)  # 100 steps overflow the horizon to inf
    # decoherent runs require the single-angle coin family
    with pytest.raises(ValueError, match="single-angle"):
        model_with(
            angles=CoinAngles(0.7, math.pi / 4, 0.0),
            decoherence=DecoherenceSpec.broken_links(0.1),
        )
    # equal xi and zeta is fine (gauge-equivalent to the single-angle coin)
    model_with(
        angles=CoinAngles(0.5, math.pi / 4, 0.5),
        decoherence=DecoherenceSpec.broken_links(0.1),
    )


# --------------------------------------------------- return distribution


def test_unitary_symmetric_returns_unit_variance_zero_mean():
    dist = qw_return_distribution(model_with(), seed=0, realizations=1)
    mean = float(np.sum(dist.returns * dist.probs))
    var = float(np.sum((dist.returns - mean) ** 2 * dist.probs))
    assert var == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(0.0, abs=1e-10)
    assert dist.horizon == pytest.approx(1.0)
    # bimodal: the return mass peaks away from zero on both sides
    mid = len(dist.probs) // 2
    assert np.argmax(dist.probs[mid:]) > 10


def test_drift_shifts_normalized_mean():
    model = model_with(mu=0.5)
    dist = qw_return_distribution(model, seed=0, realizations=1)
    mean = float(np.sum(dist.returns * dist.probs))
    # raw mean = mu * horizon, raw std = sigma after calibration
    assert mean == pytest.approx(0.5 * model.horizon / model.sigma, rel=1e-9)


def test_calibration_honors_sigma_for_any_scaler():
    for scaler in (DiffusionScaler.unit(), DiffusionScaler.inverse_sqrt()):
        model = model_with(sigma=0.37, scaler=scaler)
        values, probs = prenormalized_return_distribution(model, 0, 1)
        mean = float(np.sum(values * probs))
        std = math.sqrt(float(np.sum((values - mean) ** 2 * probs)))
        assert std == pytest.approx(0.37, rel=1e-12)


def test_degenerate_returns_rejected():
    # sigma = 0 collapses every site to the same return value
    model = model_with(sigma=0.0, mu=0.03)
    with pytest.raises(ValueError, match="zero variance"):
        qw_return_distribution(model, seed=0, realizations=1)


def test_up_bias_gives_negative_skew():
    dist = qw_return_distribution(model_with(ic=UP_IC), seed=0, realizations=1)
    mean = float(np.sum(dist.returns * dist.probs))
    dev = dist.returns - mean
    k2 = float(np.sum(dev**2 * dist.probs))
    k3 = float(np.sum(dev**3 * dist.probs))
    assert k3 / k2**1.5 < -0.5


def test_scaling_exponents_with_fixed_lattice_scale():
    # with dx held fixed, the unit scaler keeps the walk's ballistic growth
    # (std ~ n) while inverse_sqrt tempers it to diffusive (std ~ sqrt(n))
    stds = {"unit": [], "inverse_sqrt": []}
    ns = [25, 100]
    for mode, scaler in (
        ("unit", DiffusionScaler.unit()),
        ("inverse_sqrt", DiffusionScaler.inverse_sqrt()),
    ):
        for n in ns:
            model = model_with(steps_per_horizon=n, scaler=scaler)
            values, probs = prenormalized_return_distribution(
                model, 0, 1, lattice_scale=1.0
            )
            mean = float(np.sum(values * probs))
            stds[mode].append(math.sqrt(float(np.sum((values - mean) ** 2 * probs))))
    slope_unit = math.log(stds["unit"][1] / stds["unit"][0]) / math.log(4.0)
    slope_inv = math.log(
        stds["inverse_sqrt"][1] / stds["inverse_sqrt"][0]
    ) / math.log(4.0)
    assert slope_unit == pytest.approx(1.0, abs=0.05)
    assert slope_inv == pytest.approx(0.5, abs=0.05)


def test_decoherent_return_distribution_uses_ensemble():
    model = model_with(
        ic=UP_IC, decoherence=DecoherenceSpec.broken_links(0.3), steps_per_horizon=40
    )
    dist = qw_return_distribution(model, seed=1, realizations=50)
    var = float(
        np.sum((dist.returns - np.sum(dist.returns * dist.probs)) ** 2 * dist.probs)
    )
    assert var == pytest.approx(1.0, abs=1e-9)
    again = qw_return_distribution(model, seed=1, realizations=50)
    np.testing.assert_array_equal(dist.probs, again.probs)


# ------------------------------------------------------------- price paths


def test_zero_volatility_path_is_exponential_drift():
    model = model_with(mu=0.04, sigma=0.0, steps_per_horizon=20)
    prices = qw_price_path(model, total_steps=12, seed=0)
    times = np.arange(13) * model.horizon
    np.testing.assert_allclose(prices, np.exp(0.04 * times), rtol=1e-12)


def test_price_path_positive_and_deterministic():
    model = model_with(
        decoherence=DecoherenceSpec.broken_links(0.2),
        steps_per_horizon=30,
        sigma=0.5,
        s0=50.0,
    )
    p1 = qw_price_path(model, total_steps=40, seed=77)
    p2 = qw_price_path(model, total_steps=40, seed=77)
    np.testing.assert_array_equal(p1, p2)
    assert len(p1) == 41
    assert p1[0] == 50.0
    assert np.all(p1 > 0)
    p3 = qw_price_path(model, total_steps=40, seed=78)
    assert not np.array_equal(p1, p3)


def test_price_path_horizon_returns_bounded_by_lattice():
    # every one-horizon log return must be mu*dt + sigma*f*dx*j for some
    # site |j| <= n
    model = model_with(steps_per_horizon=16, sigma=0.3)
    dx = 0.25
    prices = qw_price_path(model, total_steps=30, seed=5, lattice_scale=dx)
    returns = np.diff(np.log(prices))
    sites = returns / (0.3 * dx)
    assert np.all(np.abs(sites - np.round(sites)) < 1e-9)
    assert np.max(np.abs(sites)) <= 16


def test_price_path_rejects_non_finite_lattice_scale_and_prices():
    # f = 1e-320 is subnormal: dx = 1 / (f * walk_std) passes the float range
    tiny = DiffusionScaler.custom([0.0, 10.0], [1e-320, 1e-320])
    with pytest.raises(ValueError, match="lattice scale"):
        qw_price_path(model_with(scaler=tiny), total_steps=3, seed=0)
    with pytest.raises(ValueError, match="lattice scale"):
        prenormalized_return_distribution(model_with(scaler=tiny), seed=0, realizations=1)
    # a drift of e per horizon takes the first price past the float range
    with pytest.raises(ValueError, match="price at horizon 1 is inf"):
        qw_price_path(model_with(s0=1e308, mu=100.0), total_steps=3, seed=0)


@pytest.mark.parametrize("dx", [math.nan, math.inf, 0.0, -1.0])
def test_explicit_lattice_scale_must_be_positive_and_finite(dx):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lattice scale must be positive and finite"):
            prenormalized_return_distribution(model_with(), 0, 1, lattice_scale=dx)
        with pytest.raises(ValueError, match="lattice scale must be positive and finite"):
            qw_price_path(model_with(), total_steps=3, seed=0, lattice_scale=dx)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_normalized_returns_reject_a_non_finite_or_non_positive_price(bad):
    with pytest.raises(ValueError, match="prices must be strictly positive"):
        normalized_returns([1.0, 2.0, bad, 3.0, 1.5], 1)


def test_price_path_rejects_a_price_that_underflows_to_zero():
    # a drift of -100 per horizon takes 1e-300 below the smallest subnormal
    with pytest.raises(ValueError, match="price at horizon 1 is 0.0"):
        qw_price_path(model_with(s0=1e-300, mu=-100.0), total_steps=3, seed=0)


def test_unitary_price_path_walks_once(monkeypatch):
    # the one unitary distribution both calibrates dx and is sampled
    calls = []

    def counting_evolve(*args):
        calls.append(args)
        return evolve(*args)

    monkeypatch.setattr(pricing, "evolve", counting_evolve)
    prices = qw_price_path(model_with(steps_per_horizon=16), total_steps=5, seed=3)
    assert len(calls) == 1
    assert len(prices) == 6


def _price_path_reference(model, total_steps, seed, lattice_scale):
    """The price path as one walk per horizon, with the stream layout that
    qw_price_path documents."""
    n, theta, prices = model.steps_per_horizon, model.angles.theta, [model.s0]
    for h in range(total_steps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(h,)))
        dist = replay_walk(model.ic, theta, model.decoherence, n, rng)
        j = int(rng.choice(dist.sites, p=dist.probs / dist.total()))
        f_val = model.scaler.value(model.horizon)
        r = model.mu * model.horizon + model.sigma * f_val * lattice_scale * j
        prices.append(prices[-1] * math.exp(r))
    return np.array(prices)


def _walked(monkeypatch, call):
    """The position probabilities of every walk that ``call()`` runs on the
    ensemble engine, one row per walk in the order they are walked."""
    walked, chunk_walks = [], decoherence._chunk_walks

    def recording(*args):
        for probs in chunk_walks(*args):
            walked.append(probs)
            yield probs

    monkeypatch.setattr(decoherence, "_chunk_walks", recording)
    call()
    monkeypatch.undo()
    return np.concatenate(walked)


@pytest.mark.parametrize("horizons", [1, 128, 129, 300])
@pytest.mark.parametrize("spec", [
    DecoherenceSpec.broken_links(0.3), DecoherenceSpec.random_phase(0.4),
], ids=["broken_links", "random_phase"])
def test_price_path_equals_per_horizon_loop_bitwise(spec, horizons, monkeypatch):
    model = model_with(
        mu=0.02, sigma=0.3, ic=InitialCoinState(0.6, 0.8j), angles=CoinAngles(0.0, 1.1, 0.0),
        decoherence=spec, steps_per_horizon=9, scaler=DiffusionScaler.inverse_sqrt(),
    )
    got = qw_price_path(model, horizons, seed=21, lattice_scale=0.07)
    assert np.array_equal(got, _price_path_reference(model, horizons, 21, 0.07))
    # a last-bit change in a probability seldom moves a sampled site, so the
    # batched walks are also compared directly
    probs = _walked(monkeypatch, lambda: qw_price_path(model, horizons, 21, 0.07))
    assert len(probs) == horizons
    for h, row in enumerate(probs):
        want = replay_walk(model.ic, 1.1, spec, 9, realization_rng(21, h))
        assert np.array_equal(row, want.probs)


@pytest.mark.parametrize("count", [1, 128, 129])
def test_phase_horizons_equal_ensemble_realizations_bitwise(count, monkeypatch):
    # both callers run the one random-phase engine: horizon h of a price path
    # is realization h of the ensemble with the same seed, bit for bit
    spec = DecoherenceSpec.random_phase(0.4)
    model = model_with(ic=InitialCoinState(0.6, 0.8j), angles=CoinAngles(0.0, 1.1, 0.0),
                       decoherence=spec, steps_per_horizon=40)
    got = _walked(monkeypatch, lambda: qw_price_path(model, count, 21, 0.07))
    want = _walked(monkeypatch, lambda: run_ensemble(model.ic, 1.1, spec, 40, count, 21))
    assert got.shape == (count, 81) and np.array_equal(got, want)


# ------------------------------------------------------- normalized returns


def test_geometric_series_rejected_as_degenerate():
    # exactly geometric prices have constant log returns
    for prices in (2.0 ** np.arange(20), np.full(20, 5.0)):
        with pytest.raises(ValueError, match="zero variance"):
            normalized_returns(prices, 1)


def test_normalized_returns_unit_variance_and_rescale_invariance():
    prices = gbm_path(GbmParams(mu=0.0, sigma=0.01), n_steps=1_000_000, dt=1.0, seed=2)
    g = normalized_returns(prices, 1)
    assert np.var(g) == pytest.approx(1.0, abs=1e-12)
    centered = g - g.mean()
    skew = np.mean(centered**3) / np.std(g) ** 3
    assert abs(skew) < 0.02
    g_scaled = normalized_returns(137.0 * prices, 1)
    np.testing.assert_allclose(g_scaled, g, atol=1e-10)


def test_normalization_idempotent():
    prices = gbm_path(GbmParams(mu=0.1, sigma=0.4), n_steps=5000, dt=0.01, seed=4)
    g = normalized_returns(prices, 3)
    twice = g / np.std(g)
    np.testing.assert_allclose(twice, g, rtol=1e-12)


def test_normalized_returns_validation():
    with pytest.raises(ValueError, match="shorter"):
        normalized_returns(np.array([1.0, 2.0]), 5)
    with pytest.raises(ValueError, match="positive"):
        normalized_returns(np.array([1.0, -2.0, 3.0]), 1)
    with pytest.raises(ValueError):
        normalized_returns(np.array([1.0, 2.0, 4.0]), 0)
