import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gaussian_pdf
from qwalk import classical
from qwalk.classical import (
    QuadratureError,
    StableParams,
    classical_rw_distribution,
    stable_cf,
    stable_pdf,
)
from qwalk.stats import moments

ROOT_HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------- classical random walk


@pytest.mark.parametrize("call", [
    lambda: classical_rw_distribution(2.5),
    lambda: classical_rw_distribution(True),
], ids=["rw_float", "rw_bool"])
def test_integer_arguments_must_be_integers(call):
    # each used to fail late inside numpy or range with a TypeError, or took True as 1
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_binomial_two_steps():
    dist = classical_rw_distribution(2)
    np.testing.assert_allclose(dist.probs, [0.25, 0.0, 0.5, 0.0, 0.25], atol=1e-15)


def test_binomial_variance_equals_n():
    for n in (1, 10, 100, 1000):
        dist = classical_rw_distribution(n)
        s = moments(dist)
        assert s.variance == pytest.approx(n, rel=1e-10)
        assert s.mean == pytest.approx(0.0, abs=1e-9)


def test_binomial_entropy():
    assert moments(classical_rw_distribution(1)).entropy == pytest.approx(
        math.log(2), abs=1e-13
    )
    n = 50
    h = moments(classical_rw_distribution(n)).entropy
    assert h < math.log(n + 1)


def test_binomial_large_n_does_not_overflow():
    dist = classical_rw_distribution(5000)
    assert dist.total() == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------ characteristic function


def test_cf_at_origin_is_one():
    assert stable_cf(0.0, StableParams(0.7, -0.3, 2.0, 1.0)) == 1.0


def test_cf_alpha_two_is_gaussian():
    params = StableParams(2.0, 0.0, c=0.8, mu=0.4)
    for t in (-2.0, -0.5, 0.3, 1.7):
        expected = np.exp(1j * 0.4 * t - (0.8 * t) ** 2)
        assert stable_cf(t, params) == pytest.approx(expected, abs=1e-15)


def test_cf_alpha_one_symmetric():
    # beta = 0 removes the logarithmic term entirely
    assert stable_cf(1.0, StableParams(1.0, 0.0, 1.0, 0.0)) == pytest.approx(
        math.exp(-1.0), abs=1e-15
    )


@given(
    t=st.floats(-50, 50, allow_nan=False),
    alpha=st.floats(0.1, 2.0),
    beta=st.floats(-1.0, 1.0),
    c=st.floats(0.1, 3.0),
    mu=st.floats(-2.0, 2.0),
)
@settings(max_examples=200)
def test_cf_modulus_bounded_by_one(t, alpha, beta, c, mu):
    value = stable_cf(t, StableParams(alpha, beta, c, mu))
    assert abs(value) <= 1.0 + 1e-12


def test_stable_params_validation():
    with pytest.raises(ValueError):
        StableParams(alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        StableParams(alpha=1.0, beta=2.0)
    with pytest.raises(ValueError):
        StableParams(alpha=1.0, beta=0.0, c=0.0)


# ------------------------------------------------------------- densities


def test_gaussian_pdf_values():
    assert gaussian_pdf(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert gaussian_pdf(1.0, 0.0, 1.0) == pytest.approx(0.24197072451914337, abs=1e-12)
    assert gaussian_pdf(1.3, 0.0, 1.0) == gaussian_pdf(-1.3, 0.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_pdf(0.0, 0.0, 0.0)


def test_stable_pdf_alpha_two_matches_normal():
    # alpha=2, scale c corresponds to a normal with variance 2 c^2
    params = StableParams(2.0, 0.0, c=ROOT_HALF, mu=0.0)
    assert stable_pdf(0.0, params) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-6)
    for x in np.linspace(-6.0, 6.0, 25):
        expected = gaussian_pdf(x, 0.0, math.sqrt(2) * ROOT_HALF)
        assert stable_pdf(float(x), params) == pytest.approx(expected, abs=1e-6)


def test_stable_pdf_alpha_one_matches_cauchy():
    params = StableParams(1.0, 0.0, c=1.0, mu=0.0)
    assert stable_pdf(0.0, params) == pytest.approx(1 / math.pi, abs=1e-6)
    for x in np.linspace(-6.0, 6.0, 13):
        expected = 1.0 / (math.pi * (1.0 + x * x))
        assert stable_pdf(float(x), params) == pytest.approx(expected, abs=1e-6)


def test_stable_pdf_symmetric_when_beta_zero():
    params = StableParams(1.4, 0.0, c=1.1, mu=0.3)
    for dx in (0.5, 1.5, 3.0):
        left = stable_pdf(0.3 - dx, params)
        right = stable_pdf(0.3 + dx, params)
        assert left == pytest.approx(right, abs=1e-8)


def test_stable_pdf_far_tail_continuity(monkeypatch):
    # the far-tail accelerated path must join the direct path smoothly;
    # evaluate the same points with both by shifting the switch threshold
    params = StableParams(0.5, 0.5, c=ROOT_HALF, mu=0.0)
    for x in (30.0, 120.0, -75.0):
        direct = stable_pdf(x, params)
        with monkeypatch.context() as force_accel:
            force_accel.setattr(classical, "_MAX_DIRECT_CYCLES", 10.0)
            accel = stable_pdf(x, params)
        assert accel == pytest.approx(direct, rel=1e-8)


def test_stable_pdf_far_tail_power_law_decay():
    # alpha = 0.5 tails fall off like x^(-3/2): doubling x should scale the
    # density by very nearly 2^(-1.5)
    params = StableParams(0.5, 0.5, c=ROOT_HALF, mu=0.0)
    f1 = stable_pdf(1.0e6, params)
    f2 = stable_pdf(2.0e6, params)
    assert f2 / f1 == pytest.approx(2.0 ** -1.5, rel=1e-3)


@pytest.mark.parametrize("params", [
    StableParams(0.001, 0.0),  # 36.84 ** 1000 raises OverflowError
    StableParams(0.5, 0.0, c=1e-310),  # 36.84 ** 2 / c is inf
])
def test_stable_pdf_rejects_an_overflowing_cutoff(params):
    with pytest.raises(QuadratureError, match="truncation point overflows"):
        stable_pdf(0.0, params)


def test_stable_pdf_reports_failed_self_check(monkeypatch):
    params = StableParams(1.5, 0.2, c=1.0, mu=0.0)
    monkeypatch.setattr(classical, "_MAX_REFINEMENTS", 0)
    with pytest.raises(QuadratureError):
        stable_pdf(1.0, params)
    # a list reports its first failing abscissa, as point by point
    with pytest.raises(QuadratureError, match=r"at x=-2\.0$"):
        classical._stable_pdfs([-2.0, 0.5, 2.0], params)


@pytest.mark.parametrize("params, x", [
    (StableParams(0.5, 0.5, c=ROOT_HALF), 1.3),  # mu = 0: the mirror conjugates e^{-ixt}
    (StableParams(1.2, -0.3, c=0.8, mu=0.5), 2.25),  # mu != 0: phi shared, no conjugate
    (StableParams(1.0, 0.7), 0.9),  # alpha = 1: the logarithmic branch
    (StableParams(0.5, 0.5, c=ROOT_HALF), 200.0),  # 61,000 cycles: accelerated
], ids=["mu0", "mu_shifted", "alpha1", "accelerated"])
def test_list_evaluation_equals_single_points_bitwise(monkeypatch, params, x):
    mirror = 2.0 * params.mu - x
    assert abs(x - params.mu) == abs(mirror - params.mu)
    phis, cf = [], classical.stable_cf
    monkeypatch.setattr(classical, "stable_cf", lambda t, p: phis.append(1) or cf(t, p))
    alone = [stable_pdf(x, params), stable_pdf(mirror, params)]
    calls_alone = len(phis)
    phis.clear()
    together = classical._stable_pdfs([x, mirror], params)
    assert [v.hex() for v in together] == [v.hex() for v in alone]
    assert together[0] != together[1]  # beta != 0: two distinct values
    assert 2 * len(phis) == calls_alone  # one phi per panel set of the pair


def test_gauss_legendre_constants_equal_leggauss_bitwise():
    # stored so that the package imports neither numpy.polynomial nor LAPACK
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert classical._GL_NODES.tobytes() == nodes.tobytes()
    assert classical._GL_WEIGHTS.tobytes() == weights.tobytes()


@pytest.mark.parametrize("params", [
    StableParams(0.5, 0.5, c=ROOT_HALF),  # the bundled compare-returns column
    StableParams(1.2, -0.3, c=0.8, mu=0.5),
], ids=["bundled", "mu_shifted"])
def test_block_wise_quadrature_equals_one_block_bitwise(monkeypatch, params):
    xs = [-4.0, -1.7, 0.3, 1.7, 4.0, 300.0]
    panels, integrate = [], classical._panel_integrate

    def counting(xs, params, edges):
        panels.append(len(edges) - 1)
        return integrate(xs, params, edges)

    monkeypatch.setattr(classical, "_panel_integrate", counting)
    blocks = classical._stable_pdfs(xs, params)
    assert max(panels) > 2 * classical._PANEL_BLOCK  # some panel sets take three blocks
    monkeypatch.setattr(classical, "_PANEL_BLOCK", 2**62)
    whole = classical._stable_pdfs(xs, params)
    assert [v.hex() for v in blocks] == [v.hex() for v in whole]
