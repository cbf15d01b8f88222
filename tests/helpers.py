"""Independent oracles shared across the test suite.

Both evolution oracles deliberately avoid the site recurrence used by the
package: one sums amplitudes over every coin-toss path, the other applies
the explicit shift-after-coin operator matrix.  Agreement between three
structurally different routes pins the dynamics down.

Two further references stand in for figure readings: the weak (n -> infinity)
limit of the walk, from the eigenvectors of the k-space step and from Konno's
closed-form density, and the exact ensemble mean of the random-phase walk,
from the averaged channel on the density matrix.  Both use numpy only and
neither uses the package's site recurrence; ``test_oracles`` checks them
against known results.

Last come the per-step oracles that ``qwalk.walk.propagate``, the package's
one coin-and-shift kernel, must equal bit for bit: ``step_unitary`` from
``init_state``, ``step_broken_links`` under a ``LinkMask``, and
``sample_random_phase_coin`` for ``step_unitary``, chained by ``replay_walk``;
with them the ``WalkState`` readers ``site_index``, ``amplitude``, ``norm``
and ``sites``.  Only the tests call them, since the package runs every walk
on ``propagate``.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from qwalk.coin import TWO_PI, CoinOperator
from qwalk.walk import InitialCoinState, WalkState, position_distribution


def brute_force_amplitudes(a0, b0, coin: np.ndarray, n: int):
    """Sum per-path phase products over all 2^n coin histories.

    A path is an initial component s0 and a component choice s_k after each
    of the n coin applications; it contributes v[s0] * prod_k C[s_k, s_{k-1}]
    at position sum(+1 if s_k == 0 else -1), in final component s_n.
    Returns (a, b) arrays over the sites [-n, +n].
    """
    v = (complex(a0), complex(b0))
    a = np.zeros(2 * n + 1, dtype=complex)
    b = np.zeros(2 * n + 1, dtype=complex)
    if n == 0:
        a[0], b[0] = v
        return a, b
    for s0 in (0, 1):
        for path in itertools.product((0, 1), repeat=n):
            amp = v[s0]
            prev = s0
            pos = 0
            for s in path:
                amp *= coin[s, prev]
                pos += 1 if s == 0 else -1
                prev = s
            if path[-1] == 0:
                a[pos + n] += amp
            else:
                b[pos + n] += amp
    return a, b


def operator_matrix_evolve(a0, b0, coin: np.ndarray, n: int):
    """Apply the explicit walk operator (shift after coin) as a dense matrix
    on a lattice wide enough that the walker never reaches the edge.
    Returns (a, b) arrays over the sites [-n, +n].
    """
    width = 2 * n + 3
    dim = 2 * width
    coin_full = np.zeros((dim, dim), dtype=complex)
    for site in range(width):
        for ci in range(2):
            for cj in range(2):
                coin_full[ci * width + site, cj * width + site] = coin[ci, cj]
    shift = np.zeros((dim, dim), dtype=complex)
    for site in range(width):
        if site + 1 < width:
            shift[0 * width + site + 1, 0 * width + site] = 1.0
        if site - 1 >= 0:
            shift[1 * width + site - 1, 1 * width + site] = 1.0
    v_op = shift @ coin_full
    psi = np.zeros(dim, dtype=complex)
    mid = width // 2
    psi[0 * width + mid] = a0
    psi[1 * width + mid] = b0
    for _ in range(n):
        psi = v_op @ psi
    return psi[1 : width - 1], psi[width + 1 : 2 * width - 1]


def binomial_probs(n: int) -> np.ndarray:
    """Exact classical random-walk endpoint probabilities over [-n, +n],
    built from integer binomial coefficients."""
    probs = np.zeros(2 * n + 1)
    denom = 2**n
    for k in range(n + 1):
        probs[2 * k] = math.comb(n, k) / denom
    return probs


def entropy_nats(probs: np.ndarray) -> float:
    nz = probs[probs > 0]
    return float(-np.sum(nz * np.log(nz)))


def random_coin_angles(rng: np.random.Generator):
    return (
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(0.0, math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def random_ic(rng: np.random.Generator):
    parts = rng.normal(size=4)
    a = complex(parts[0], parts[1])
    b = complex(parts[2], parts[3])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


# ---------------------------------------------------------------------------
# Weak limit (n -> infinity) of the unitary walk
#
# With psi_hat(k) = sum_j e^{-ikj} psi_j the step is U(k) = diag(e^{-ik}, e^{ik}) C.
# Grimmett, Janson & Scudo (PRE 69, 026119, 2004): X_n / n converges in law to
# the velocity v = <e|sigma_z|e> of the eigenvector e(k) of U(k), drawn with
# weight |<e(k)|psi_0>|^2 and k uniform on [0, 2 pi).  Konno's closed form
# (J. Math. Soc. Japan 57, 1179, 2005) gives the same law as a density.
# ---------------------------------------------------------------------------


def weak_limit_moments(coins, a0, b0, orders: int = 4, k_points: int = 128):
    """Raw moments E[V^m], m = 0 .. orders-1, of the weak limit of X_n/n.

    ``coins`` has shape (..., 2, 2); the result has shape (..., orders).
    The k-integrand is smooth and periodic, so the equally spaced rule
    converges geometrically, except where U(k) nearly degenerates
    (eigenvalue gap 2 sin(theta) for the coins used here): for theta -> 0
    use the closed form of :func:`konno_moments` instead.
    """
    coins = np.asarray(coins, dtype=complex)
    k = 2.0 * math.pi * np.arange(k_points) / k_points
    shift = np.zeros((k_points, 2, 2), dtype=complex)
    shift[:, 0, 0] = np.exp(-1j * k)
    shift[:, 1, 1] = np.exp(1j * k)
    u = shift @ coins[..., None, :, :]
    _, vecs = np.linalg.eig(u)
    psi0 = np.array([a0, b0], dtype=complex)
    weight = np.abs(np.einsum("...ij,i->...j", vecs.conj(), psi0)) ** 2
    velocity = np.abs(vecs[..., 0, :]) ** 2 - np.abs(vecs[..., 1, :]) ** 2
    powers = velocity[..., None] ** np.arange(orders)
    return np.einsum("...kj,...kjm->...m", weight, powers) / k_points


def konno_bias(coin: np.ndarray, a0, b0) -> float:
    """Tilt kappa of the limit density f0(x) (1 + kappa x) for the coin
    [[a, b], [c, d]] and start (a0, b0).

    Konno's tilt is |a0|^2 - |b0|^2 + 2 Re(a a0 conj(b) conj(b0)) / |a|^2
    with the up component moving left; here it moves right, which maps
    x -> -x and flips the sign of the tilt term in the density.
    """
    a, b = coin[0, 0], coin[0, 1]
    cross = a * a0 * np.conj(b) * np.conj(b0)
    return float(abs(a0) ** 2 - abs(b0) ** 2 + 2.0 * cross.real / abs(a) ** 2)


def konno_density(x, theta: float, bias: float = 0.0):
    """Limit density of X_n/n for a coin with |C00| = cos(theta):
    f(x) = sin(theta) (1 + bias x) / (pi (1 - x^2) sqrt(cos^2 theta - x^2))
    on |x| < cos(theta), zero outside."""
    x = np.asarray(x, dtype=float)
    c, s = abs(math.cos(theta)), math.sin(theta)
    inside = np.abs(x) < c
    xi = np.where(inside, x, 0.0)
    f = s * (1.0 + bias * xi) / (math.pi * (1.0 - xi**2) * np.sqrt(c * c - xi**2))
    return np.where(inside, f, 0.0)


def konno_moments(theta: float, bias: float = 0.0, orders: int = 4) -> np.ndarray:
    """Raw moments of :func:`konno_density` in closed form.

    With x = cos(theta) sin(phi) the even moments I_m = E0[x^{2m}] of the
    untilted density obey I_0 = 1 and
    I_{m+1} = I_m - sin(theta) cos(theta)^{2m} (2m-1)!!/(2m)!!,
    so I_1 = 1 - sin(theta); the tilt adds E[x^{2m+1}] = bias I_{m+1}.
    """
    s, c2 = math.sin(theta), math.cos(theta) ** 2
    even = [1.0]
    ratio = 1.0  # (2m-1)!! / (2m)!!
    for m in range((orders + 1) // 2):
        even.append(even[-1] - s * c2**m * ratio)
        ratio *= (2 * m + 1) / (2 * m + 2)
    return np.array(
        [even[m // 2] if m % 2 == 0 else bias * even[(m + 1) // 2] for m in range(orders)]
    )


def skewness_from_moments(m) -> np.ndarray:
    """k3 / k2^{3/2} from raw moments m[..., 0:4] (m[..., 0] = 1)."""
    m = np.asarray(m, dtype=float)
    m1, m2, m3 = m[..., 1], m[..., 2], m[..., 3]
    k2 = m2 - m1**2
    k3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    return k3 / k2**1.5


def weak_limit_entropy(theta: float) -> float:
    """Differential entropy h = -int f ln f of the untilted Konno density,
    in closed form
    h(theta) = ln(4 pi cos(theta) sin(theta)^2 / (1 + sin(theta))^3).

    With t = tan(phi), x = cos(theta) sin(phi), both log terms reduce to
    int ln(1 + a^2 t^2) / (1 + b^2 t^2) dt = (2 pi / b) ln(1 + a / b).
    It is largest where d/dtheta vanishes, at sin(theta) = 2/3.
    """
    c, s = math.cos(theta), math.sin(theta)
    return math.log(4.0 * math.pi * c * s * s / (1.0 + s) ** 3)


# ---------------------------------------------------------------------------
# Exact ensemble mean of the random-phase walk
# ---------------------------------------------------------------------------

#: standard errors allowed between a seeded ensemble and its exact mean,
#: fixed before any run
K_SEM = 5.0

#: below this probability p**2 is under the smallest normal double, so an
#: ensemble's accumulated second moment underflows and its SEM reads 0
SEM_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def within_k_sem(mean: np.ndarray, exact: np.ndarray, sem: np.ndarray) -> np.ndarray:
    """Per-site test |mean - exact| <= K_SEM * sem, for the sites where the
    exact mean is nonzero.

    Where the SEM underflowed to 0 at a site whose exact mean is below
    SEM_UNDERFLOW, no z can be formed; there the deviation must stay below
    SEM_UNDERFLOW instead.  Every other site, tails included, gets the bare
    k SEM test.
    """
    occupied = exact > 0.0
    p, s = exact[occupied], sem[occupied]
    dev = np.abs(mean[occupied] - p)
    floor = np.where((s == 0.0) & (p < SEM_UNDERFLOW), SEM_UNDERFLOW, 0.0)
    return dev <= K_SEM * s + floor


def random_phase_channel_steps(a0, b0, theta: float, p_tilde: float, n: int):
    """Yield the exact ensemble-mean position probabilities after each of
    ``n`` steps of the random-phase walk, over the sites [-n, +n].

    The realizations are iid in time, so the ensemble-mean density matrix
    follows the averaged channel (Brun, Carteret & Ambainis, PRL 91, 130602,
    2003).  With C_zeta = D^dagger C D, D = diag(1, e^{i zeta}), entry
    (alpha, beta) of C_zeta rho C_zeta^dagger collects rho[gamma, delta] with
    the phase e^{i zeta (gamma - delta - alpha + beta)}.  A uniform zeta keeps
    only the terms of zero winding, exactly as an average over K >= 3
    equally spaced phases would, so each step is
    rho' = sum C[a, g] C[b, d] w rho[g, d] with w = 1 at zero winding and
    1 - p_tilde otherwise, then the up rows/columns shift right and the
    down ones left.  Coin blocks are (2n+1)^2 site matrices restricted to
    the support [-t, t] of step t, so a step costs O(t^2).
    """
    c, s = math.cos(theta), math.sin(theta)
    coin = ((c, s), (s, -c))
    size = 2 * n + 1
    psi = (complex(a0), complex(b0))
    rho = [[np.zeros((size, size), dtype=complex) for _ in range(2)] for _ in range(2)]
    for al in range(2):
        for be in range(2):
            rho[al][be][n, n] = psi[al] * psi[be].conjugate()
    move = (1, -1)
    for t in range(n):
        win = slice(n - t, n + t + 1)
        new = [[None, None], [None, None]]
        for al in range(2):
            for be in range(2):
                acc = np.zeros((2 * t + 1, 2 * t + 1), dtype=complex)
                for ga in range(2):
                    for de in range(2):
                        w = 1.0 if ga - de == al - be else 1.0 - p_tilde
                        acc += coin[al][ga] * coin[be][de] * w * rho[ga][de][win, win]
                new[al][be] = acc
        for al in range(2):
            for be in range(2):
                block = rho[al][be]
                block[win, win] = 0.0
                rows = slice(n - t + move[al], n + t + 1 + move[al])
                cols = slice(n - t + move[be], n + t + 1 + move[be])
                block[rows, cols] = new[al][be]
        yield np.real(np.diag(rho[0][0]) + np.diag(rho[1][1]))


def random_phase_exact_mean(a0, b0, theta: float, p_tilde: float, n: int) -> np.ndarray:
    """Exact ensemble-mean position probabilities after ``n`` steps; see
    :func:`random_phase_channel_steps`."""
    probs = np.zeros(2 * n + 1)
    probs[n] = 1.0
    for probs in random_phase_channel_steps(a0, b0, theta, p_tilde, n):
        pass
    return probs


# ---------------------------------------------------------------------------
# Per-step oracles
# ---------------------------------------------------------------------------


def init_state(ic: InitialCoinState) -> WalkState:
    """Localize the walker at site 0 with coin state ``ic`` (n = 0)."""
    return WalkState(n=0, a=np.array([ic.a0], dtype=complex), b=np.array([ic.b0], dtype=complex))


def step_unitary(state: WalkState, coin: CoinOperator) -> WalkState:
    """Advance the walk one step with the given coin; support grows by one
    site on each side and the norm is conserved exactly up to rounding."""
    c = coin.matrix
    size = len(state.a) + 2
    a_next = np.zeros(size, dtype=complex)
    b_next = np.zeros(size, dtype=complex)
    a_next[2:] = c[0, 0] * state.a + c[0, 1] * state.b
    b_next[:-2] = c[1, 0] * state.a + c[1, 1] * state.b
    return WalkState(n=state.n + 1, a=a_next, b=b_next)


def site_index(state: WalkState, j: int) -> int:
    """Index of site j in ``state.a`` and ``state.b``."""
    return j + state.n


def amplitude(state: WalkState, j: int) -> tuple[complex, complex]:
    """(a_j, b_j), or zeros for a site outside [-n, n]."""
    i = site_index(state, j)
    if not 0 <= i < len(state.a):
        return 0.0 + 0.0j, 0.0 + 0.0j
    return complex(state.a[i]), complex(state.b[i])


def norm(state: WalkState) -> float:
    """Total probability sum_j |a_j|^2 + |b_j|^2."""
    return float(np.sum(np.abs(state.a) ** 2 + np.abs(state.b) ** 2))


def sites(state: WalkState) -> np.ndarray:
    """Integer site labels [-n, ..., +n]."""
    return np.arange(-state.n, state.n + 1)


class LinkMask(NamedTuple):
    """Broken flags for the links (j, j+1), j = lo .. lo+len-1; at step n
    they must cover the links [-n-1, n], so ``lo = -n-1`` with 2n+2 flags."""

    broken: np.ndarray
    lo: int = 0

    @classmethod
    def sample(cls, n: int, p: float, rng: np.random.Generator) -> "LinkMask":
        """Fresh i.i.d. Bernoulli(p) flags for the links [-n-1, +n]."""
        return cls(rng.random(2 * n + 2) < p, -n - 1)

    @classmethod
    def all_intact(cls, n: int) -> "LinkMask":
        return cls(np.zeros(2 * n + 2, dtype=bool), -n - 1)


def step_broken_links(state: WalkState, theta: float, mask: LinkMask) -> WalkState:
    """One walk step with the single-angle coin under the given link mask,
    in the routing form of the ``qwalk.decoherence`` module docstring: a site
    whose left (right) link is broken takes its up (down) component from its
    own down (up) output instead of its neighbour's."""
    n = state.n
    if mask.lo != -n - 1 or len(mask.broken) != 2 * n + 2:
        raise ValueError(f"mask must cover links [{-n - 1}, {n}], got lo={mask.lo}")
    ct, st = math.cos(theta), math.sin(theta)
    zero = np.zeros(1, dtype=complex)
    u = np.concatenate([zero, ct * state.a + st * state.b, zero])
    d = np.concatenate([zero, st * state.a - ct * state.b, zero])
    # new site j at index i = j + n + 1; its left link has mask index i-1,
    # its right link index i; virtual links beyond the universe count as
    # broken, which routes only zero padding
    a_next = np.where(np.concatenate([[True], mask.broken]), d, np.roll(u, 1))
    b_next = np.where(np.concatenate([mask.broken, [True]]), u, np.roll(d, -1))
    return WalkState(n=n + 1, a=a_next, b=b_next)


def sample_random_phase_coin(theta: float, p_tilde: float, rng) -> CoinOperator:
    """Draw one step's coin [[c, s e^{i zeta}], [s / e^{i zeta}, -c]] from
    two uniforms, the engines' (accept, phase) row of a step: zeta is
    uniform on [0, 2*pi) with probability ``p_tilde``, else 0."""
    if not 0.0 <= p_tilde <= 1.0:
        raise ValueError(f"p_tilde must be in [0, 1], got {p_tilde}")
    accept, phase = rng.random(), rng.random()
    e = np.exp(1j * (TWO_PI * phase if accept < p_tilde else 0.0))
    ct, st = math.cos(theta), math.sin(theta)
    return CoinOperator(np.array([[ct, st * e], [st / e, -ct]]))


def replay_walk(ic, theta: float, spec, n: int, rng):
    """One stochastic walk stepped one step at a time: broken links draw
    ``random((n, 2n+2))`` up front, random phase two uniforms a step."""
    state = init_state(ic)
    if spec.mode == "broken_links":
        thresholds = rng.random((n, 2 * n + 2))
        for k in range(n):
            window = thresholds[k, n - k : n + k + 2] < spec.p
            state = step_broken_links(state, theta, LinkMask(window, lo=-k - 1))
    else:
        for _ in range(n):
            state = step_unitary(state, sample_random_phase_coin(theta, spec.p, rng))
    return position_distribution(state)
