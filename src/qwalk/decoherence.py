"""Decoherence mechanisms for the walk and seeded ensemble averaging.

Two mechanisms are implemented:

* broken links -- every lattice link (j, j+1) is independently disabled for
  one time step with probability p.  Flux that cannot cross a disabled link
  is diverted to the opposite coin component at the same site, which keeps
  each step norm-preserving.  Per site the update dispatches on the status
  of its two adjacent links; in routing form, with the single-angle coin
  outputs u_j = cos(t) a_j + sin(t) b_j and d_j = sin(t) a_j - cos(t) b_j:

      a_j(n+1) = u_{j-1}   if link (j-1, j) intact, else d_j
      b_j(n+1) = d_{j+1}   if link (j, j+1) intact, else u_j

* random phase -- at each step, with probability p_tilde the coin's
  off-diagonal phase zeta is redrawn uniformly from [0, 2*pi) (one global
  coin per step, applied at every site), destroying interference between
  paths while keeping each realization unitary.

Both mechanisms are restricted to the single-angle coin family.  Other
mechanisms from the literature (per-step coin measurement, complete positive
maps on the coin, joint position/coin measurement, a different coin at every
step, bit-flip channels) are out of scope here.

Ensembles are reproducible: realization r uses the random stream derived
from ``SeedSequence(entropy=seed, spawn_key=(r,))``, so results do not
depend on evaluation order, and the mean is accumulated in increasing-r
order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coin import TWO_PI, make_theta_coin
from .walk import (
    InitialCoinState,
    PositionDistribution,
    WalkState,
    evolve,
    position_distribution,
    propagate,
)

__all__ = [
    "DecoherenceSpec",
    "LinkMask",
    "EnsembleResult",
    "step_broken_links",
    "run_ensemble",
    "realization_rng",
]

#: walks per propagate call in run_ensemble and pricing.qw_price_path
_CHUNK = 128


@dataclass(frozen=True)
class DecoherenceSpec:
    """Which decoherence mechanism governs a run.

    ``mode`` is one of "none", "broken_links" (probability ``p``) or
    "random_phase" (probability ``p_tilde``).
    """

    mode: str
    p: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", "broken_links", "random_phase"):
            raise ValueError(f"unknown decoherence mode {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"decoherence probability must be in [0, 1], got {self.p}")

    @classmethod
    def none(cls) -> "DecoherenceSpec":
        return cls("none", 0.0)

    @classmethod
    def broken_links(cls, p: float) -> "DecoherenceSpec":
        return cls("broken_links", p)

    @classmethod
    def random_phase(cls, p_tilde: float) -> "DecoherenceSpec":
        return cls("random_phase", p_tilde)


@dataclass(frozen=True)
class LinkMask:
    """Broken/intact flags for the links (j, j+1), j = lo .. lo+len-1.

    For a state at step n the mask must cover exactly the links
    [-n-1, +n], i.e. ``lo = -n-1`` with ``2n+2`` flags.
    """

    broken: np.ndarray = field(repr=False)
    lo: int = 0

    def __post_init__(self):
        m = np.asarray(self.broken, dtype=bool).copy()
        m.setflags(write=False)
        object.__setattr__(self, "broken", m)

    @classmethod
    def sample(cls, n: int, p: float, rng: np.random.Generator) -> "LinkMask":
        """Fresh i.i.d. Bernoulli(p) flags for the links [-n-1, +n]."""
        return cls(broken=rng.random(2 * n + 2) < p, lo=-n - 1)

    @classmethod
    def all_intact(cls, n: int) -> "LinkMask":
        return cls(broken=np.zeros(2 * n + 2, dtype=bool), lo=-n - 1)


@dataclass(frozen=True)
class EnsembleResult:
    """Averaged position distribution over stochastic realizations.

    ``mean`` is renormalized to sum to exactly one; ``sem`` is the per-site
    standard error of the mean (sample standard deviation over realizations
    divided by sqrt(realizations), zero when realizations == 1 or the run is
    deterministic).
    """

    mean: PositionDistribution
    sem: np.ndarray = field(repr=False)
    realizations: int = 1
    seed: int = 0


def step_broken_links(state: WalkState, theta: float, mask: LinkMask) -> WalkState:
    """One walk step with the single-angle coin under the given link mask.

    All four local rules (both links intact, right broken, left broken,
    both broken) are realized by the routing form in the module docstring;
    total probability flux is preserved for every mask.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    n = state.n
    if mask.lo != -n - 1 or len(mask.broken) != 2 * n + 2:
        raise ValueError(
            f"mask must cover links [{-n - 1}, {n}] for a state at step {n}; "
            f"got lo={mask.lo}, len={len(mask.broken)}"
        )
    ct, st = math.cos(theta), math.sin(theta)
    u = ct * state.a + st * state.b
    d = st * state.a - ct * state.b
    zero = np.zeros(1, dtype=complex)
    u_pad = np.concatenate([zero, u, zero])
    d_pad = np.concatenate([zero, d, zero])
    # new site j at index i = j + n + 1; left link of j has mask index i-1,
    # right link has index i; virtual links beyond the universe are treated
    # as broken, which routes only zero padding
    lb = np.concatenate([[True], mask.broken])
    rb = np.concatenate([mask.broken, [True]])
    u_shift_right = np.concatenate([zero, u_pad[:-1]])
    d_shift_left = np.concatenate([d_pad[1:], zero])
    a_next = np.where(lb, d_pad, u_shift_right)
    b_next = np.where(rb, u_pad, d_shift_left)
    return WalkState(n=n + 1, offset=state.offset + 1, a=a_next, b=b_next)


def realization_rng(seed: int, r: int) -> np.random.Generator:
    """The independent random stream of realization ``r`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))


def run_ensemble(
    ic: InitialCoinState,
    theta: float,
    spec: DecoherenceSpec,
    n: int,
    realizations: int,
    seed: int,
) -> EnsembleResult:
    """Average ``realizations`` independent walks of ``n`` steps.

    Random-stream contract per realization r (stream from
    :func:`realization_rng`):

    * broken_links -- one draw ``rng.random((n, 2n+2))`` up front; step k
      compares row k against p over the full link universe [-n-1, +n] and
      applies the window covering the current support, links [-k-1, +k].
    * random_phase -- one draw ``rng.random((n, 2))`` up front; step k uses
      row k as (accept, phase): zeta = 2*pi*phase when accept < p_tilde,
      else 0.  This matches one call of
      :func:`qwalk.coin.sample_random_phase_coin` per step.

    The mean is accumulated over realizations in increasing order and
    renormalized to sum to exactly one.
    """
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")

    # zero disruption probability carries no stochasticity at all: route it
    # through the deterministic path so the mean is exactly the unitary
    # distribution and the standard error is exactly zero
    if spec.mode == "none" or spec.p == 0.0 or n == 0:
        dist = position_distribution(evolve(ic, make_theta_coin(theta), n))
        mean = dist.probs / dist.total()
        return EnsembleResult(
            mean=PositionDistribution(n=n, probs=mean),
            sem=np.zeros(2 * n + 1),
            realizations=realizations,
            seed=seed,
        )

    size = 2 * n + 1
    acc = np.zeros(size)
    acc_sq = np.zeros(size)
    for start in range(0, realizations, _CHUNK):
        count = min(_CHUNK, realizations - start)
        if spec.mode == "broken_links":
            rngs = [realization_rng(seed, r) for r in range(start, start + count)]
            probs = _evolve_broken_chunk(ic, theta, spec.p, n, rngs)
        else:
            probs = _evolve_phase_chunk(ic, theta, spec.p, n, seed, start, count)
        acc += probs.sum(axis=0)
        acc_sq += (probs**2).sum(axis=0)

    mean = acc / realizations
    if realizations > 1:
        var = (acc_sq - realizations * mean**2) / (realizations - 1)
        sem = np.sqrt(np.maximum(var, 0.0) / realizations)
    else:
        sem = np.zeros(size)
    mean = mean / mean.sum()
    return EnsembleResult(
        mean=PositionDistribution(n=n, probs=mean),
        sem=sem,
        realizations=realizations,
        seed=seed,
    )


def _evolve_broken_chunk(ic, theta, p, n, rngs):
    """Position probabilities, a C-contiguous (len(rngs), 2n+1) array, of one
    broken-links walk per generator, each drawing ``random((n, 2n+2))``."""
    masks = np.empty((len(rngs), n, 2 * n + 2), dtype=bool)
    for mask, rng in zip(masks, rngs):
        np.less(rng.random((n, 2 * n + 2)), p, out=mask)
    ct, st = math.cos(theta), math.sin(theta)
    coins = np.broadcast_to(np.array([[ct, st], [st, -ct]], dtype=complex), (len(rngs), 2, 2))
    a, b = propagate(ic.a0, ic.b0, coins, n, broken=masks)
    return np.abs(a) ** 2 + np.abs(b) ** 2


@functools.lru_cache(maxsize=8)
def _phase_draws(seed, n, start, count):
    """Read-only (accept, phase) uniforms of realizations start..start+count-1;
    they do not depend on theta or p_tilde, so one copy serves a whole sweep."""
    draws = np.empty((count, n, 2))
    for i in range(count):
        draws[i] = realization_rng(seed, start + i).random((n, 2))
    draws.setflags(write=False)
    return draws


def _evolve_phase_chunk(ic, theta, p_tilde, n, seed, start, count):
    """Position probabilities for realizations of a random-phase ensemble."""
    draws = _phase_draws(seed, n, start, count)
    zetas = np.where(draws[:, :, 0] < p_tilde, TWO_PI * draws[:, :, 1], 0.0)
    phase = np.exp(1j * zetas.T)  # (n, count): the coin phase of step k
    ct, st = math.cos(theta), math.sin(theta)
    coins = np.empty((n, 2, 2, count), dtype=complex)  # propagate's own layout
    coins[:, 0, 0], coins[:, 0, 1] = ct, st * phase
    coins[:, 1, 0], coins[:, 1, 1] = st / phase, -ct
    a, b = propagate(ic.a0, ic.b0, coins.transpose(0, 3, 1, 2), n)
    return np.abs(a) ** 2 + np.abs(b) ** 2
