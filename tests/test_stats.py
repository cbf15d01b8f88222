import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import aggregate_histogram
from qwalk import stats
from qwalk.coin import make_theta_coin
from qwalk.stats import moments, normalize_to_reference
from qwalk.walk import SYMMETRIC_IC, PositionDistribution, evolve, position_distribution
from qwalk.classical import classical_rw_distribution


def dist_from(probs):
    probs = np.asarray(probs, dtype=float)
    n = (len(probs) - 1) // 2
    return PositionDistribution(n=n, probs=probs)


prob_vectors = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=2 * n + 1, max_size=2 * n + 1
    ).filter(lambda v: sum(v) > 1e-6)
)


def normalized(vec):
    arr = np.asarray(vec, dtype=float)
    return arr / arr.sum()


def moments_over_every_site(probs):
    """(mean, variance, skewness, entropy) from fsums over the whole array,
    the zero sites included."""
    p = np.asarray(probs, dtype=float)
    n = (len(p) - 1) // 2
    j = np.arange(-n, n + 1).astype(float)
    mean = math.fsum(j * p)
    dev = j - mean
    k2 = math.fsum(dev * dev * p)
    k3 = math.fsum(dev * dev * dev * p)
    skew = k3 / k2**1.5 if k2**1.5 > 0.0 else math.nan
    nz = p[p > 0.0]
    return mean, k2, skew, -math.fsum(nz * np.log(nz))


# a zero at most sites, as on the odd sublattice of an origin-started walk
sparse_vectors = st.integers(0, 12).flatmap(
    lambda n: st.lists(
        st.one_of(st.just(0.0), st.floats(5e-324, 1.0)),
        min_size=2 * n + 1, max_size=2 * n + 1,
    )
)


@settings(max_examples=300, deadline=None)
@given(sparse_vectors)
def test_moments_over_occupied_sites_equal_full_array_sums(vec):
    s = moments(dist_from(vec))
    got = (s.mean, s.variance, s.skewness, s.entropy)
    want = moments_over_every_site(vec)
    assert all(g == w or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want))
    assert s.skewness_defined == (not math.isnan(want[2]))


def test_nan_probability_stays_visible_in_moments():
    probs = [0.0, 0.25, 0.0, math.nan, 0.0, 0.25, 0.0]
    s = moments(dist_from(probs))
    assert math.isnan(s.mean) and math.isnan(s.variance) and math.isnan(s.skewness)
    assert not s.skewness_defined
    assert s.entropy == moments_over_every_site(probs)[3]


def test_moments_of_edge_point_masses():
    n = 7
    probs = np.zeros(2 * n + 1)
    probs[0] = probs[-1] = 0.5
    s = moments(dist_from(probs))
    assert s.mean == pytest.approx(0.0, abs=1e-14)
    assert s.variance == pytest.approx(n**2, abs=1e-12)
    assert s.skewness == pytest.approx(0.0, abs=1e-14)
    assert s.entropy == pytest.approx(math.log(2), abs=1e-14)


def test_entropy_of_uniform_support():
    m = 9
    probs = np.full(m, 1.0 / m)
    s = moments(dist_from(probs))
    assert s.entropy == pytest.approx(math.log(m), abs=1e-13)


def test_skewness_undefined_for_point_mass():
    probs = np.zeros(5)
    probs[2] = 1.0
    s = moments(dist_from(probs))
    assert not s.skewness_defined
    assert math.isnan(s.skewness)
    assert s.variance == 0.0


@given(vec=prob_vectors)
@settings(max_examples=100)
def test_symmetric_distribution_has_zero_skewness(vec):
    sym = normalized(np.asarray(vec) + np.asarray(vec)[::-1])
    s = moments(dist_from(sym))
    if s.skewness_defined:
        assert abs(s.skewness) < 1e-10


@given(vec=prob_vectors)
@settings(max_examples=100)
def test_reflection_flips_skewness_sign(vec):
    p = normalized(vec)
    s1 = moments(dist_from(p))
    s2 = moments(dist_from(p[::-1]))
    if s1.skewness_defined and s2.skewness_defined:
        assert s1.skewness == pytest.approx(-s2.skewness, abs=1e-12)


@given(vec=prob_vectors)
@settings(max_examples=100)
def test_entropy_permutation_invariant_and_bounded(vec):
    p = normalized(vec)
    rng = np.random.default_rng(1)
    shuffled = p.copy()
    rng.shuffle(shuffled)
    h1 = moments(dist_from(p)).entropy
    h2 = moments(dist_from(shuffled)).entropy
    assert h1 == pytest.approx(h2, abs=1e-12)
    assert -1e-12 <= h1 <= math.log(len(p)) + 1e-12


# terms of sign * m * 2^e over the whole exponent range, subnormals included
magnitudes = st.builds(lambda m, e, sign: sign * math.ldexp(m, e),
                       st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023),
                       st.sampled_from([1.0, -1.0]))
fsum_terms = st.one_of(
    magnitudes,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, 2.0**-53,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
)


@st.composite
def fsum_rows(draw):
    row = draw(st.lists(fsum_terms, max_size=30))
    if row and draw(st.booleans()):  # cancellation: a prefix comes back negated
        row += [-x for x in row[: draw(st.integers(1, len(row)))]]
    if draw(st.booleans()):  # a tie, or a near-tie a tiny nudge away
        base = draw(magnitudes)
        half = math.ulp(base) / 2
        row += [base, half, draw(st.sampled_from([0.0, half * 2.0**-60, -half * 2.0**-60]))]
    return draw(st.permutations(row))


def fsum_or_error(row):
    try:
        return math.fsum(row)
    except (OverflowError, ValueError) as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(st.lists(fsum_rows(), min_size=1, max_size=8))
def test_batched_row_sums_equal_fsum_bitwise(rows):
    # enough copies of the rows to take the certified double-double path;
    # each row is zero-padded, and the padding is left out of ``keep``
    rows = rows * -(-stats._BATCH_ROWS // len(rows))
    width = max(map(len, rows))
    x = np.zeros((len(rows), width))
    keep = np.zeros((len(rows), width), dtype=bool)
    for r, row in enumerate(rows):
        x[r, : len(row)], keep[r, : len(row)] = row, True
    want = [fsum_or_error(row) for row in rows]
    errors = [w for w in want if isinstance(w, Exception)]
    if errors:
        with pytest.raises(type(errors[0]), match=re.escape(str(errors[0]))):
            stats._row_sums(x, keep)
        return
    got = stats._row_sums(x, keep)
    assert [struct.pack("<d", g) for g in got] == [struct.pack("<d", w) for w in want]


def test_certified_row_sums_cover_walk_rows_and_leave_ties_to_fsum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 101)) * 10.0 ** rng.integers(-8, 8, (64, 101))
    sums, exact = stats._certified_sums(x)
    assert exact.mean() > 0.9
    assert [struct.pack("<d", s) for s in sums[exact]] == [
        struct.pack("<d", math.fsum(row)) for row in x[exact]]
    # 1 + 2^-53 is a tie, rounded to even by fsum; the certificate declines it
    ties = np.tile([1.0, 2.0**-53, 0.0], (40, 1))
    ties[::2, 2] = 2.0**-110
    sums, exact = stats._certified_sums(ties)
    assert not exact[1::2].any()
    keep = np.ones(ties.shape, dtype=bool)
    assert stats._row_sums(ties, keep) == [math.fsum(row) for row in ties]


def test_histogram_width_one_is_identity():
    dist = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(0.9), 12))
    hist = aggregate_histogram(dist, 1)
    np.testing.assert_array_equal(hist.masses, dist.probs)


def test_histogram_width_two_absorbs_parity_zeros():
    dist = position_distribution(
        evolve(SYMMETRIC_IC, make_theta_coin(math.pi / 4), 100)
    )
    hist = aggregate_histogram(dist, 2)
    interior = hist.masses[1:-1]
    assert np.all(interior > 0.0)
    # smooth bimodal shape: a local maximum on each side of the center
    mid = len(hist.masses) // 2
    assert np.argmax(hist.masses[:mid]) not in (0, mid - 1)


@given(vec=prob_vectors, width=st.integers(1, 7))
@settings(max_examples=100)
def test_histogram_preserves_total_mass(vec, width):
    p = normalized(vec)
    hist = aggregate_histogram(dist_from(p), width)
    assert hist.masses.sum() == pytest.approx(p.sum(), abs=1e-12)
    assert len(hist.bin_edges) == len(hist.masses) + 1
    with pytest.raises(ValueError):
        aggregate_histogram(dist_from(p), 0)


def test_normalize_to_reference_identity_and_scaling():
    dist = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(0.5), 8))
    same = normalize_to_reference(dist, dist)
    np.testing.assert_allclose(same.probs, dist.probs, atol=1e-15)
    doubled = PositionDistribution(n=dist.n, probs=dist.probs * 2.0)
    halved = normalize_to_reference(doubled, dist)
    np.testing.assert_allclose(halved.probs, dist.probs, atol=1e-15)


def test_normalize_unitary_to_binomial_reference():
    quantum = position_distribution(
        evolve(SYMMETRIC_IC, make_theta_coin(math.pi / 4), 100)
    )
    classical = classical_rw_distribution(100)
    scaled = normalize_to_reference(quantum, classical)

    def trapezoid(p):
        return p.sum() - 0.5 * (p[0] + p[-1])

    assert trapezoid(scaled.probs) == pytest.approx(
        trapezoid(classical.probs), abs=1e-10
    )


def test_normalize_rejects_zero_integral():
    zero = PositionDistribution(n=1, probs=np.zeros(3))
    ref = dist_from([0.25, 0.5, 0.25])
    with pytest.raises(ValueError, match="zero integral"):
        normalize_to_reference(zero, ref)
