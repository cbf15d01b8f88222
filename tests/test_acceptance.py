"""Acceptance suite: figure-level checks at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every tolerance is pinned here; nothing is calibrated at run
time.  Where a figure reading disagreed with the model, the check states the
same claim where the model makes it, against an independent reference:
the weak (n -> infinity) limit of the walk and the exact random-phase
ensemble mean, both in ``helpers``, or a closed form given in the docstring.
Each such docstring records the old bound, why it failed and the evidence.
a05b still fails: no finite-size bound yet covers the gap between the
n = 100 skewness minimum and its weak-limit value (see its docstring).
"""

import itertools
import math
import time

import numpy as np
import pytest

from helpers import (
    K_SEM,
    binomial_probs,
    brute_force_amplitudes,
    entropy_nats,
    init_state,
    konno_bias,
    konno_moments,
    norm,
    random_ic,
    random_phase_exact_mean,
    skewness_from_moments,
    step_unitary,
    weak_limit_entropy,
    within_k_sem,
)
from qwalk.classical import (
    QuadratureSpec,
    StableParams,
    classical_rw_distribution,
    gaussian_pdf,
    stable_pdf,
)
from qwalk.coin import CoinAngles, make_su2_coin, make_theta_coin
from qwalk.decoherence import DecoherenceSpec, run_ensemble
from qwalk.pricing import (
    DiffusionScaler,
    QwPriceModel,
    prenormalized_return_distribution,
)
from qwalk.stats import aggregate_histogram, moments
from qwalk.walk import (
    SYMMETRIC_IC,
    UP_IC,
    InitialCoinState,
    PositionDistribution,
    _grid_probs,
    evolve,
    position_distribution,
)

GRID = np.linspace(0.01, math.pi / 2 - 0.01, 64)
GRID_STEP = GRID[1] - GRID[0]


def report(ok: bool, label: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def binned_tv(probs_a: np.ndarray, probs_b: np.ndarray, n: int) -> float:
    """Total variation between width-2 histogram aggregations.

    Width-2 binning removes the parity mismatch between the all-sites
    support of broken-link ensembles and the even-sites-only support of the
    binomial walk; the site-wise distance would otherwise be dominated by
    interleaved zeros rather than by the shapes being compared.
    """
    ha = aggregate_histogram(PositionDistribution(n=n, probs=probs_a), 2)
    hb = aggregate_histogram(PositionDistribution(n=n, probs=probs_b), 2)
    return float(0.5 * np.sum(np.abs(ha.masses - hb.masses)))


@pytest.fixture(scope="module")
def heatmap_grid():
    """Skewness and variance/n^2 on the 64x64 (eta, theta) grid, n=100."""
    skew = np.empty((64, 64))
    var = np.empty((64, 64))
    pairs = itertools.product(GRID, GRID)  # the walks the heatmap command runs
    rows = (p for probs in _grid_probs(SYMMETRIC_IC, pairs, 100) for p in probs)
    for k, p in enumerate(rows):
        s = moments(PositionDistribution(n=100, probs=p))
        skew.flat[k] = s.skewness
        var.flat[k] = s.variance / 100**2
    return skew, var


@pytest.fixture(scope="module")
def limit_skewness():
    """Weak-limit (n -> infinity) skewness on the same (eta, theta) grid,
    from Konno's closed form."""
    a0, b0 = SYMMETRIC_IC.a0, SYMMETRIC_IC.b0
    out = np.empty((64, 64))
    for ie, eta in enumerate(GRID):
        for it, theta in enumerate(GRID):
            coin = make_su2_coin(CoinAngles(eta, theta, 0.0)).matrix
            out[ie, it] = skewness_from_moments(
                konno_moments(theta, konno_bias(coin, a0, b0))
            )
    return out


@pytest.fixture(scope="module")
def entropy_curves():
    """Unitary single-angle-coin entropy over the theta grid per n."""
    curves = {}
    for n in (50, 100, 200):
        curves[n] = np.array(
            [
                moments(
                    position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(t), n))
                ).entropy
                for t in GRID
            ]
        )
    return curves


def test_a01_norm_conservation_500_steps():
    """200 random (coin, initial state) pairs, n=500: total probability
    stays within 1e-12 of one at every step; under 10 s."""
    rng = np.random.default_rng(20240811)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        coin = make_su2_coin(
            CoinAngles(
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi),
            )
        )
        a0, b0 = random_ic(rng)
        state = init_state(InitialCoinState(a0, b0))
        for _ in range(500):
            state = step_unitary(state, coin)
            worst = max(worst, abs(norm(state) - 1.0))
    elapsed = time.perf_counter() - start
    report(
        worst < 1e-12 and elapsed < 10.0,
        "norm conservation",
        f"max |sum P - 1| = {worst:.2e} over 200x500 steps in {elapsed:.1f}s",
    )


def test_a02_gauge_invariance():
    """50 random (xi, theta, zeta, ic) tuples at n=100: the distribution
    depends on the angles only through eta = xi - zeta; under 5 s."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        xi = rng.uniform(0, 2 * math.pi)
        theta = rng.uniform(0, math.pi)
        zeta = rng.uniform(0, 2 * math.pi)
        a0, b0 = random_ic(rng)
        ic = InitialCoinState(a0, b0)
        full = position_distribution(
            evolve(ic, make_su2_coin(CoinAngles(xi, theta, zeta)), 100)
        )
        reduced = position_distribution(
            evolve(ic, make_su2_coin(CoinAngles(xi - zeta, theta, 0.0)), 100)
        )
        worst = max(worst, float(np.max(np.abs(full.probs - reduced.probs))))
    elapsed = time.perf_counter() - start
    report(
        worst < 1e-12 and elapsed < 5.0,
        "gauge invariance",
        f"max site deviation {worst:.2e} over 50 tuples in {elapsed:.1f}s",
    )


def test_a03_small_n_path_enumeration():
    """For n <= 10 the recurrence equals summation over all 2^n coin paths
    (Hadamard plus five random single-angle coins) within 1e-12."""
    rng = np.random.default_rng(11)
    coins = [make_theta_coin(math.pi / 4)] + [
        make_theta_coin(rng.uniform(0, math.pi)) for _ in range(5)
    ]
    worst = 0.0
    for coin in coins:
        a0, b0 = random_ic(rng)
        for n in range(1, 11):
            state = evolve(InitialCoinState(a0, b0), coin, n)
            a_bf, b_bf = brute_force_amplitudes(a0, b0, coin.matrix, n)
            worst = max(
                worst,
                float(np.max(np.abs(state.a - a_bf))),
                float(np.max(np.abs(state.b - b_bf))),
            )
    report(
        worst < 1e-12,
        "path-enumeration equivalence",
        f"max amplitude deviation {worst:.2e} for n <= 10",
    )


def test_a04_variance_scaling_one_minus_sin():
    """Var/n^2 tracks 1 - sin(theta) within 0.02 at n=100 for the
    single-angle coin with the symmetric initial state."""
    worst = 0.0
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        dist = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(theta), 100))
        ratio = moments(dist).variance / 100**2
        worst = max(worst, abs(ratio - (1 - math.sin(theta))))
    report(worst < 0.02, "variance scaling", f"max |Var/n^2 - (1-sin)| = {worst:.4f}")


def test_a05a_skewness_grid_range(heatmap_grid, limit_skewness):
    """Skewness <= 0 at every grid point whose standard deviation is at
    least one lattice site (n = 100).

    Reference: the weak limit of X_n / n is Konno's density
    f0(x) (1 + kappa x) (``helpers.konno_*``) with the tilt
    kappa = tan(theta) sin(eta) > 0 for eta, theta in (0, pi/2): the limit
    leans right, and its skewness from the closed-form moments is negative
    on the whole grid, spanning [-1.048, -0.0002].

    The old range [-1.04, 0] failed at the top only through the last grid
    column, theta = pi/2 - 0.01.  There n cos(theta) = 1.0 and the standard
    deviation is 0.92-0.94 sites: a distribution narrower than one lattice
    site has a skewness that is the 0/0 limit of theta -> pi/2 (up to
    +0.4051 there), not the surface the figure shows.  Every other point
    has sigma >= 1.8 sites and skewness <= -0.00033.  The old lower bound
    -1.04 says what a05b says about the minimum, so the lower bound is
    checked there only.
    """
    skew, var = heatmap_grid
    sigma = 100 * np.sqrt(var)
    wide = sigma >= 1.0
    limit_hi = float(np.max(limit_skewness))
    hi = float(np.max(skew[wide]))
    report(
        hi <= 0.0 and limit_hi < 0.0,
        "skewness grid sign",
        f"max skewness {hi:+.5f} over {int(wide.sum())} points with sigma >= 1 "
        f"site (weak limit max {limit_hi:+.5f}); {int((~wide).sum())} points "
        f"narrower than one site left out",
    )


def test_a05b_skewness_grid_minimum(heatmap_grid, limit_skewness):
    """The n = 100 skewness surface bottoms out at the model's weak-limit
    minimum L*: |min - L*| <= 0.005.

    Reference: the minimum over the grid of the weak-limit skewness
    (Konno's closed form, ``helpers.konno_moments``) is L* = -1.04803 at
    (eta*, theta*) = (1.5608, 1.0931); the eigenvector quadrature of
    ``helpers.weak_limit_moments`` agrees with it there (test_oracles).
    The old band [-1.04, -0.95] was read off a figure that the paper's
    abstract does not name, and it leaves out L*.  The new band keeps the
    resolution of the old claim: that was stated to two decimals, so the
    minimum must match L* to half a unit in the second decimal.

    A wider band would need a bound on the finite-size gap
    |skew_100 - skew_inf|, and none is argued here.  In k-space the position
    after n steps is X_n = X + n V + R_n, with V the velocity
    <e|sigma_z|e> on each eigenvector of U(k) and R_n a geometric sum of
    the off-diagonal phases (lambda_1 / lambda_2)^t, so ||R_n|| <=
    1 / sin(theta) at every n (the eigenvalue gap is at least
    2 sin(theta)).  That fixes the 1/n rate at which the moments of X_n / n
    approach those of V, but not a usable constant at n = 100.  The
    n = 100 minimum sits at theta = 1.5116, where n cos(theta) = 5.9 and
    sigma = 2.9-4.2 sites, while R_n may move the walker by up to one site:
    bounded term by term, the third central moment may move by about
    3 sigma^2 ||R_n||, so the skewness is left free by about
    3 ||R_n|| / sigma, of order one.

    This check therefore fails: the n = 100 minimum is -1.0665 at
    (eta, theta) = (1.4131, 1.5116), a finite-size excursion 0.019 below
    L*.  It is left failing rather than widened until a finite-size bound
    is argued.  The grid minimum's lower bound is checked here only (a05a
    checks the sign).
    """
    skew, _ = heatmap_grid
    l_star = float(np.min(limit_skewness))
    istar = np.unravel_index(np.argmin(limit_skewness), limit_skewness.shape)
    lo = float(np.min(skew))
    imin = np.unravel_index(np.argmin(skew), skew.shape)
    report(
        abs(lo - l_star) <= 0.005,
        "skewness grid minimum",
        f"n=100 grid min {lo:.4f} at (eta={GRID[imin[0]]:.4f}, "
        f"theta={GRID[imin[1]]:.4f}); weak-limit L* = {l_star:.5f} at "
        f"(eta={GRID[istar[0]]:.4f}, theta={GRID[istar[1]]:.4f}); band L* +- 0.005",
    )


def test_a06_variance_grid(heatmap_grid):
    """All grid Var/n^2 in [0, 1]; decreasing in theta along the lowest-eta
    row up to grid noise."""
    _, var = heatmap_grid
    lo, hi = float(np.min(var)), float(np.max(var))
    diffs = np.diff(var[0, :])
    monotone = bool(np.all(diffs < 1e-9))
    report(
        0.0 <= lo and hi <= 1.0 and monotone,
        "variance grid",
        f"range [{lo:.5f}, {hi:.5f}], max theta-uptick {np.max(diffs):.2e}",
    )


def test_a07a_entropy_at_theta_zero():
    """H(theta=0) equals ln 2 (at floating-point precision) for
    n in {50, 100, 200}."""
    worst = 0.0
    for n in (50, 100, 200):
        h = moments(position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(0.0), n))).entropy
        worst = max(worst, abs(h - math.log(2)))
    report(worst < 1e-12, "entropy at theta=0", f"max |H - ln 2| = {worst:.2e}")


def test_a07b_entropy_near_theta_half_pi(entropy_curves):
    """H(theta = pi/2) = 0 for n in {50, 100, 200}, and H falls
    monotonically towards it as theta -> pi/2.

    At theta = pi/2 the coin is sigma_x: the walker steps out and straight
    back, so after an even number of steps it is at the origin with
    probability one and H = 0 exactly.  In floating point H comes out
    ~2e-16, so the bound 1e-12 allows for rounding only.

    Near pi/2 the walker leaks outward with amplitude cos(theta) ~ eps per
    step, so H(pi/2 - eps) depends on n only through n eps: H = 0.2706 at
    n eps = 0.5 and 0.6839 at n eps = 1, the same for n = 50 .. 400.  The
    old bound H(pi/2 - 0.01) < 0.2 therefore sat at n eps = 0.5, 1 and 2,
    where H is 0.271, 0.684 and 1.179: on the walk's own scale that grid
    edge is not near pi/2.

    Checks, for each n: H(pi/2) < 1e-12; and H is strictly decreasing along
    the grid points above 7 pi/16 (the top of the window of a07c/a07d),
    then on through eps = 1e-3 and 1e-4 to eps = 0.
    """
    worst = 0.0
    monotone = True
    details = []
    for n in (50, 100, 200):

        def entropy(theta):
            coin = make_theta_coin(theta)
            return moments(position_distribution(evolve(SYMMETRIC_IC, coin, n))).entropy

        at_half_pi = entropy(math.pi / 2)
        worst = max(worst, at_half_pi)
        path = list(entropy_curves[n][GRID > 7 * math.pi / 16])
        path += [entropy(math.pi / 2 - eps) for eps in (1e-3, 1e-4)] + [at_half_pi]
        monotone = monotone and bool(np.all(np.diff(path) < 0.0))
        details.append(
            f"n={n}: H(pi/2-0.01)={path[-4]:.3f}, H(pi/2-1e-4)={path[-2]:.1e}"
        )
    report(
        worst < 1e-12 and monotone,
        "entropy near theta=pi/2",
        f"max H(pi/2) = {worst:.1e}, monotone approach {monotone}; " + "; ".join(details),
    )


def test_a07c_entropy_argmax_near_quarter_pi(entropy_curves):
    """The entropy curves approach the weak-limit curve ln(n/2) + h(theta),
    whose maximum is at theta* = arcsin(2/3), not at pi/4.

    Reference: X_n / n tends to Konno's density f (``helpers``), and the
    walk occupies every other site, so H_n ~ ln(n/2) + h(theta) with the
    closed form h = ln(4 pi cos(theta) sin(theta)^2 / (1 + sin(theta))^3)
    (``helpers.weak_limit_entropy``).  h is largest where sin(theta) = 2/3:
    theta* = 0.7297, 2.26 grid steps below pi/4, and h(theta*) exceeds
    h(pi/4) by only 0.0068 nats.  At finite n the argmax wobbles around
    theta* (grid argmax 0.724, 0.773, 0.699, 0.749 and 0.675 for
    n = 50, 100, 200, 400 and 800), so "argmax within
    one grid step of pi/4" is promised at no n; the old check passed at
    n = 100 only.

    Check: the gap |H_n - ln(n/2) - h(theta)| decreases strictly from
    n = 50 to 100 to 200 at every grid theta in [pi/16, 7 pi/16].  Its
    largest value in that window is 0.543, 0.431 and 0.266.
    """
    window = (GRID >= math.pi / 16) & (GRID <= 7 * math.pi / 16)
    h = np.array([weak_limit_entropy(t) for t in GRID[window]])
    gaps = {
        n: np.abs(entropy_curves[n][window] - math.log(n / 2) - h) for n in (50, 100, 200)
    }
    ok = bool(np.all(gaps[100] < gaps[50]) and np.all(gaps[200] < gaps[100]))
    theta_star = math.asin(2.0 / 3.0)
    detail = ", ".join(f"n={n}: max gap {g.max():.3f}" for n, g in gaps.items())
    report(
        ok,
        "entropy converges to weak-limit curve",
        f"{detail} over {window.sum()} grid points; limit argmax "
        f"theta* = {theta_star:.4f} ({(math.pi / 4 - theta_star) / GRID_STEP:.2f} "
        f"steps below pi/4)",
    )


def test_a07d_quantum_entropy_exceeds_classical(entropy_curves):
    """The margin H_quantum - H_classical grows with n at every grid theta
    in [pi/16, 7 pi/16], and is positive across that window at n = 200.

    H_quantum ~ ln(n/2) + h(theta) grows like ln n (ballistic spreading),
    H_classical (the exact binomial walk, ``helpers.binomial_probs``) like
    (1/2) ln n (diffusive).  So the margin grows like (1/2) ln n, and the
    angle theta_c where the curves cross rises towards pi/2 with n: in the
    limit h(theta_c) = (1/2) ln(pi e) - (1/2) ln(n/2).  Measured crossings
    are 1.2807, 1.3583, 1.4183, 1.4576 and 1.4886 for n = 50 .. 800.  The
    old check at n = 100 failed at the top grid point 1.3639 because
    7 pi/16 = 1.3744 is first cleared between n = 100 and n = 200.

    Checks: margin(50) < margin(100) < margin(200) at every window point
    (smallest steps 0.117 and 0.147), and min margin at n = 200 > 0
    (measured +0.2456).
    """
    window = (GRID >= math.pi / 16) & (GRID <= 7 * math.pi / 16)
    margins = {
        n: entropy_curves[n][window] - entropy_nats(binomial_probs(n)) for n in (50, 100, 200)
    }
    grows = bool(np.all(margins[100] > margins[50]) and np.all(margins[200] > margins[100]))
    worst = float(np.min(margins[200]))
    report(
        grows and worst > 0.0,
        "quantum entropy exceeds classical",
        f"margin grows with n: {grows}; worst margin at n=200 {worst:+.4f} nats "
        f"over {window.sum()} grid points",
    )


def test_a08_broken_link_classicalization():
    """Width-2-binned total variation to the binomial walk decreases
    monotonically over p in {0.01, 0.1, 0.3, 0.5} and reaches < 0.05 at
    p = 0.5 (n=100, 1000 realizations, fixed seed); under 2 min.

    The 0.05 threshold matches the sampling floor of the stated oracle: a
    direct classical Monte Carlo with the same realization count sits at
    binned TV ~ 0.05 from the exact binomial purely through counting noise.
    """
    start = time.perf_counter()
    classical = classical_rw_distribution(100)
    tvs = []
    for p in (0.01, 0.1, 0.3, 0.5):
        result = run_ensemble(
            SYMMETRIC_IC, math.pi / 4, DecoherenceSpec.broken_links(p), 100, 1000, 42
        )
        tvs.append(binned_tv(result.mean.probs, classical.probs, 100))
    # matched-realization classical Monte Carlo oracle for the threshold scale
    rng = np.random.default_rng(42)
    endpoints = 2 * rng.binomial(100, 0.5, size=1000) - 100
    empirical = np.bincount(endpoints + 100, minlength=201) / 1000.0
    oracle_tv = binned_tv(empirical, classical.probs, 100)
    elapsed = time.perf_counter() - start
    monotone = bool(np.all(np.diff(tvs) < 0.0))
    ok = monotone and tvs[-1] < 0.05 and elapsed < 120.0
    report(
        ok,
        "broken-link classicalization",
        f"TV = {[f'{t:.4f}' for t in tvs]}, classical-MC oracle {oracle_tv:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_a09a_full_random_phase_collapse():
    """p_tilde = 1, theta = pi/4, n = 50, 1000 realizations: ensemble
    entropy within 0.05 nats of the classical walk's."""
    result = run_ensemble(
        SYMMETRIC_IC, math.pi / 4, DecoherenceSpec.random_phase(1.0), 50, 1000, 42
    )
    h = entropy_nats(result.mean.probs)
    h_classical = entropy_nats(binomial_probs(50))
    diff = abs(h - h_classical)
    report(
        diff < 0.05,
        "random-phase collapse",
        f"|H - H_classical| = {diff:.4f} (H={h:.4f}, classical={h_classical:.4f})",
    )


def test_a09b_weak_random_phase_tracks_unitary(entropy_curves):
    """p_tilde = 0.01 (n = 50, 1000 realizations, seed 42): the seeded
    ensemble matches the exact ensemble mean at every grid theta, and the
    exact mean tracks the unitary walk in that its entropy gap shrinks
    towards zero with p_tilde.

    Reference: ``helpers.random_phase_exact_mean`` evolves the density
    matrix under the averaged channel, so it is the ensemble mean without
    sampling noise.

    The old bound (entropy within 0.1 nats of the unitary curve) fails for
    a real reason, not Monte Carlo noise.  The exact mean's entropy exceeds
    the unitary one by +0.2068 nats at theta = 0.5515 (seeded: +0.2046).
    The gap is first order in p_tilde, up to about 0.5 nats per expected
    scrambled coin p_tilde n: its largest value on every third grid theta
    is 0.191, 0.070 and 0.025 at p_tilde = 0.01, 0.003 and 0.001.  So a
    0.1-nat bound needs p_tilde n <~ 0.2, and here p_tilde n = 0.5.  Nor is
    the ensemble curve above the unitary one everywhere: the exact gap is
    -0.065 at theta = 1.536 and -0.024 at theta = 1.487.

    Checks, with k = K_SEM = 5:

    * per site with nonzero exact mean p_j: |mean_j - p_j| <= k SEM_j
      (``helpers.within_k_sem``).  About 3300 sites are compared; under the
      normal approximation the chance that any |z| exceeds 5 is about
      3300 * 5.7e-7 = 0.2%.  The only sites let off the bare test are those
      whose SEM underflowed to 0 because p_j^2 is below the smallest normal
      double (p_j < 1.5e-154, near theta = pi/2); there the deviation must
      stay below 1.5e-154.  The entropy needs no check of its own: through
      dH = -sum ln p_j dp_j (sum dp_j = 0) the per-site bound already gives
      |H(mean) - H(exact)| <= k sum |ln p_j| SEM_j to first order, without
      assuming that sites are independent.  The worst |dH| is printed.
    * the largest exact gap |H(exact) - H(unitary)| over every third grid
      theta decreases strictly as p_tilde falls through 0.01, 0.003 and
      0.001, and at 0.001 (p_tilde n = 0.05) lies within the old 0.1 nats.
    """
    ic = SYMMETRIC_IC
    worst_z = worst_dh = 0.0
    sites_ok = True
    for theta in GRID:
        result = run_ensemble(ic, theta, DecoherenceSpec.random_phase(0.01), 50, 1000, 42)
        exact = random_phase_exact_mean(ic.a0, ic.b0, theta, 0.01, 50)
        sites_ok = sites_ok and bool(np.all(within_k_sem(result.mean.probs, exact, result.sem)))
        tested = result.sem > 0.0
        dev = np.abs(result.mean.probs[tested] - exact[tested])
        worst_z = max(worst_z, float(np.max(dev / result.sem[tested])))
        worst_dh = max(worst_dh, abs(entropy_nats(result.mean.probs) - entropy_nats(exact)))

    exact_gaps = []
    for p_tilde in (0.01, 0.003, 0.001):
        gaps = [
            abs(entropy_nats(random_phase_exact_mean(ic.a0, ic.b0, t, p_tilde, 50)) - h)
            for t, h in zip(GRID[::3], entropy_curves[50][::3])
        ]
        exact_gaps.append(max(gaps))
    shrinks = bool(np.all(np.diff(exact_gaps) < 0.0)) and exact_gaps[-1] <= 0.1
    report(
        sites_ok and shrinks,
        "weak random phase tracks unitary",
        f"seeded vs exact: max |z| = {worst_z:.2f} (k = {K_SEM:g}), max |dH| = "
        f"{worst_dh:.4f} nats; exact max |H - H_unitary| = "
        + ", ".join(f"{g:.3f}" for g in exact_gaps)
        + " at p_tilde = 0.01, 0.003, 0.001",
    )


def test_a10_stable_density_correctness():
    """alpha=2 matches the standard normal within 1e-6 on [-6, 6]; alpha=1
    matches the Cauchy within 1e-6; the (alpha=0.5, beta=0.5, c=1/sqrt 2)
    density integrates to 1 within 1e-4 over an adaptively truncated
    domain."""
    worst_normal = 0.0
    params2 = StableParams(2.0, 0.0, c=1 / math.sqrt(2), mu=0.0)
    for x in np.arange(-6.0, 6.01, 0.25):
        diff = abs(stable_pdf(float(x), params2) - gaussian_pdf(float(x), 0.0, 1.0))
        worst_normal = max(worst_normal, diff)

    worst_cauchy = 0.0
    params1 = StableParams(1.0, 0.0, c=1.0, mu=0.0)
    for x in np.arange(-6.0, 6.01, 0.5):
        diff = abs(stable_pdf(float(x), params1) - 1.0 / (math.pi * (1 + x * x)))
        worst_cauchy = max(worst_cauchy, diff)

    mass = _stable_total_mass(StableParams(0.5, 0.5, c=1 / math.sqrt(2), mu=0.0))
    ok = worst_normal < 1e-6 and worst_cauchy < 1e-6 and abs(mass - 1.0) < 1e-4
    report(
        ok,
        "stable density correctness",
        f"normal dev {worst_normal:.2e}, cauchy dev {worst_cauchy:.2e}, "
        f"total mass {mass:.7f}",
    )


def _stable_total_mass(params: StableParams, tol: float = 1e-4) -> float:
    """Simpson integration of the density on an asinh-stretched grid over
    [mu - X, mu + X], with X grown until the power-law extrapolated tail
    mass falls below tol/4; the extrapolated tails are added back in."""
    quad = QuadratureSpec(max_direct_cycles=2000.0)

    def pdf(x):
        return stable_pdf(float(x), params, quad)

    x_max = 16.0 * max(params.c, 1.0)
    while True:
        tails = 0.0
        widen = False
        for sign in (+1.0, -1.0):
            f1 = pdf(params.mu + sign * x_max)
            f2 = pdf(params.mu + sign * 2.0 * x_max)
            if f1 <= 0.0 or f2 <= 0.0:
                continue
            slope = math.log(f2 / f1) / math.log(2.0)
            if slope >= -1.0001:
                widen = True
                break
            tails += f1 * x_max / (-slope - 1.0)
        if not widen and tails < tol / 4.0:
            break
        x_max *= 4.0
        if x_max > 1e12:
            raise RuntimeError("integration domain failed to close")
    scale = max(params.c, 1e-12)
    u_max = math.asinh(x_max / scale)
    u = np.linspace(-u_max, u_max, 2001)
    x = params.mu + np.sinh(u) * scale
    weights = np.cosh(u) * scale
    values = np.array([pdf(xx) for xx in x]) * weights
    h = u[1] - u[0]
    simpson = h / 3.0 * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    )
    return float(simpson + tails)


def test_a11_return_distribution_tails_and_skew():
    """Hadamard walk, up-start, broken links p=0.3, n=100, 1000
    realizations: on the shared return axis g = j/sqrt(n) (classical-limit
    units), tail mass P(|g| > 3) exceeds the Gaussian tail for each of five
    seeds, with skewness of one consistent sign."""
    gauss_tail = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(3.0 / math.sqrt(2.0))))
    tails = []
    skews = []
    for seed in range(5):
        result = run_ensemble(
            UP_IC, math.pi / 4, DecoherenceSpec.broken_links(0.3), 100, 1000, seed
        )
        g = result.mean.sites / math.sqrt(100)
        tails.append(float(np.sum(result.mean.probs[np.abs(g) > 3.0])))
        skews.append(moments(result.mean).skewness)
    fatter = all(t > gauss_tail for t in tails)
    consistent = all(s < 0 for s in skews) or all(s > 0 for s in skews)
    nonzero = all(abs(s) > 1e-4 for s in skews)
    report(
        fatter and consistent and nonzero,
        "return tails and skew",
        f"P(|g|>3) in [{min(tails):.5f}, {max(tails):.5f}] vs gaussian "
        f"{gauss_tail:.5f}; skews in [{min(skews):+.4f}, {max(skews):+.4f}]",
    )


def test_a12_diffusion_scaler_exponents():
    """Log-log slope of the pre-normalization return std over
    n in {25, 100, 400}: 1.0 +- 0.05 with the unit scaler and 0.5 +- 0.05
    with the inverse-sqrt scaler (unitary walk, fixed lattice scale)."""
    ns = np.array([25.0, 100.0, 400.0])
    slopes = {}
    for mode, scaler in (
        ("unit", DiffusionScaler.unit()),
        ("inverse_sqrt", DiffusionScaler.inverse_sqrt()),
    ):
        stds = []
        for n in ns.astype(int):
            model = QwPriceModel(
                mu=0.0,
                sigma=0.2,
                ic=SYMMETRIC_IC,
                angles=CoinAngles(0.0, math.pi / 4, 0.0),
                decoherence=DecoherenceSpec.none(),
                steps_per_horizon=int(n),
                dt_per_step=0.01,
                scaler=scaler,
            )
            values, probs = prenormalized_return_distribution(
                model, 0, 1, lattice_scale=1.0
            )
            mean = float(np.sum(values * probs))
            stds.append(math.sqrt(float(np.sum((values - mean) ** 2 * probs))))
        slopes[mode] = float(np.polyfit(np.log(ns), np.log(stds), 1)[0])
    ok = abs(slopes["unit"] - 1.0) < 0.05 and abs(slopes["inverse_sqrt"] - 0.5) < 0.05
    report(
        ok,
        "diffusion scaler exponents",
        f"unit slope {slopes['unit']:.4f}, inverse_sqrt slope "
        f"{slopes['inverse_sqrt']:.4f}",
    )
