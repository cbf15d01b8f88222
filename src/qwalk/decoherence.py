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
  paths while keeping each realization unitary.  The coin of a step is the
  coin of :mod:`qwalk.coin` at (0, theta, zeta), built by ``coin._coins``
  as every coin is: a non-finite theta fails there in every engine.

Both mechanisms are restricted to the single-angle coin family.  Other
mechanisms from the literature (per-step coin measurement, complete positive
maps on the coin, joint position/coin measurement, a different coin at every
step, bit-flip channels) are out of scope here.

Ensembles are reproducible: realization r uses the random stream derived
from ``SeedSequence(entropy=seed, spawn_key=(r,))``, so results do not
depend on evaluation order, and the mean is accumulated in increasing-r
order.  One loop creates each batch's streams and draws its uniforms once
per command, then walks them at every probability and every theta of a
sweep: each p derives its noise from the same draws.  The mean sums blocks
of 128 realizations; a random-phase batch is one block, and a broken-link
batch half of one, 64 walks, since its link mask grows with n^2 a walk.  A
block's second batch is summed onto the first one's carried sums, in the
order one sum over the whole block adds its rows, so the batch size moves
no byte of any mean or standard error.  An ensemble is the
sweep at one (p, theta), and price-path horizon h is realization h.  A run
is noiseless exactly when its probability is 0, in any mode ("none" is the
name of p = 0), or when n = 0: it is one unitary walk per theta, draws no
stream, and each mean is that walk's own probabilities.

A random-phase realization is quiet at p_tilde when none of its accept
draws is below it, so every one of its steps has zeta = 0.  A batch walks
the realizations that fire and, when some are quiet, one zero-phase walk
whose row every quiet one takes: its coins are real, so it is the unitary
walk bit for bit whatever the other walks of its batch.  Every broken-link
walk is walked; one keeps all its links with probability (1-p)^{n(2n+2)},
1e-44 at n = 100 and p = 0.005.  Every stream is still made and drawn, and
every row keeps its place, so the stream contract, the means and the
standard errors are unchanged.

The per-step references of both mechanisms, which the batched engines here
equal bit for bit, live with the tests in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coin import TWO_PI, _coins, _reduced
from .walk import (InitialCoinState, PositionDistribution, _check_integer, _grid_cost,
                   _grid_probs, _propagate_probs, _walk_bytes)

__all__ = [
    "DecoherenceSpec",
    "EnsembleResult",
    "run_ensemble",
    "realization_rng",
]

#: realizations per summation block of the ensemble loop, and walks per
#: random-phase propagate call
_CHUNK = 128
#: walks per broken-link propagate call: half a summation block, which halves
#: the batch's (B, n, 2n+2) count mask and its step buffers
_BROKEN_BATCH = 64
#: the largest probability of each mode: "none" names the noiseless walk, p = 0
_MAX_P = {"none": 0.0, "broken_links": 1.0, "random_phase": 1.0}


@dataclass(frozen=True)
class DecoherenceSpec:
    """Which decoherence mechanism governs a run.

    ``mode`` is one of "none", "broken_links" (probability ``p``) or
    "random_phase" (probability ``p_tilde``).  Any mode at p = 0 is the
    noiseless, unitary walk, and "none" is its name: it takes no other p.
    """

    mode: str
    p: float = 0.0

    def __post_init__(self):
        if self.mode not in _MAX_P:
            raise ValueError(f"unknown decoherence mode {self.mode!r}")
        if not 0.0 <= self.p <= _MAX_P[self.mode]:
            raise ValueError(f"{self.mode} p must be in [0, {_MAX_P[self.mode]:g}], got {self.p}")

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
class EnsembleResult:
    """Averaged position distribution over stochastic realizations.

    ``mean`` is the realization mean renormalized to sum to exactly one, or
    of a noiseless run (p = 0 in any mode, or n = 0) the one unitary walk's
    probabilities as they stand; ``sem`` is the per-site standard error of
    the mean (sample standard deviation over realizations divided by
    sqrt(realizations), zero when realizations == 1 or the run is noiseless).
    """

    mean: PositionDistribution
    sem: np.ndarray = field(repr=False)


def realization_rng(seed: int, r: int) -> np.random.Generator:
    """The independent random stream of realization ``r`` under ``seed``, an
    integer >= 0 (a float or a bool is a ``ValueError``)."""
    _check_integer("seed", seed, 0)
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

    * broken_links -- the stream of ``rng.random((n, 2n+2))`` up front; step k
      compares row k against p over the full link universe [-n-1, +n] and
      applies the window covering the current support, links [-k-1, +k].
    * random_phase -- one draw ``rng.random((n, 2))`` up front; step k uses
      row k as (accept, phase): zeta = 2*pi*phase when accept < p_tilde,
      else 0, in the coin of the module docstring.  This matches the
      per-step random-phase oracle in ``tests/helpers.py``, bit for bit.

    The mean is accumulated over realizations in increasing order and
    renormalized to sum to exactly one.  A noiseless run, p = 0 in any mode
    or n = 0, makes no stream: the mean is ``position_distribution(evolve(ic,
    make_theta_coin(theta), n)).probs`` bit for bit, and the sem is 0.  It is
    the sweep at (p, theta) alone; a sweep shares each batch's streams and
    draws across every p and theta and gives each pair this result, bit for
    bit.  ``n`` and ``realizations`` must be integers, not bools, and so
    must ``seed`` wherever a stream is made.
    """
    return _sweep(ic, [theta], spec.mode, [spec.p], n, realizations, seed)[0][0]


def _sweep(ic, thetas, mode, ps, n, realizations, seed) -> list[list[EnsembleResult]]:
    """:func:`run_ensemble` at each probability of ``ps`` in ``mode`` and each
    of ``thetas``, one list per p, walked as :func:`_walks` lays out: every
    batch's streams are made and drawn once and walked at each noisy p and
    each theta, and the noiseless entries share one result per theta, built
    from the rows that :func:`_grid_probs` yields for the pairs (0, theta)
    when a p is 0 or n is.  Every theta is checked before a stream is drawn.

    The sums run over summation blocks of ``_CHUNK`` realizations, each
    added to the running total in increasing r.  A block is the axis-0 sum
    of its rows, and numpy's axis-0 sum adds the rows of an array one after
    the other.  So a block walked in two batches sums the second batch with
    the first one's sums as its leading row, and gets the sum that one
    (``_CHUNK``, 2n+1) array of its rows would give, bit for bit."""
    _check_integer("realizations", realizations, 1)
    _check_integer("step count", n, 0)
    _reduced(0.0, thetas, 0.0)  # every theta, before a stream is drawn

    size = 2 * n + 1
    noisy, noiseless = _walks(ps, n)
    # [sum, sum of squares] per (p, theta) over the closed blocks, and the
    # open block's, carried from one of its batches to the next
    sums, block = np.zeros((2, 2, len(noisy) * len(thetas), size))
    done = 0
    for rngs, walks in _chunks(ic, thetas, mode, noisy, n, realizations, seed) if noisy else ():
        opens = done % _CHUNK == 0
        if opens:
            sums += block
        done += len(rngs)
        for k, probs in enumerate(walks):
            for carried, rows in zip(block[:, k], (probs, probs**2)):
                if not opens:
                    rows = np.concatenate((carried[None], rows))
                carried[...] = rows.sum(axis=0)
    sums += block
    acc, acc_sq = sums
    mean = acc / realizations
    if realizations > 1:
        var = (acc_sq - realizations * mean**2) / (realizations - 1)
        sem = np.sqrt(np.maximum(var, 0.0) / realizations)
    else:
        sem = np.zeros_like(acc)
    results = [EnsembleResult(PositionDistribution(n=n, probs=m / m.sum()), s)
               for m, s in zip(mean, sem)]
    swept = {p: results[i * len(thetas) : (i + 1) * len(thetas)] for i, p in enumerate(noisy)}
    if noiseless:
        unitary = [EnsembleResult(PositionDistribution(n=n, probs=row), np.zeros(size))
                   for probs in _grid_probs(ic, [(0.0, theta) for theta in thetas], n)
                   for row in probs]
    return [swept[p] if p in swept else unitary for p in ps]


def _walks(ps, n: int) -> tuple[list, bool]:
    """(the distinct nonzero p of ``ps``, largest first; whether a p is 0 or
    ``n`` is): the noisy entries of a sweep, walked by :func:`_chunk_walks`,
    and whether it has noiseless ones, which take the unitary walk."""
    noisy = sorted({p for p in ps if p}, reverse=True) if n else []
    return noisy, not n or 0.0 in ps


def _batch_size(mode) -> int:
    """Walks per propagate call of an ensemble in ``mode``: a summation block
    of ``_CHUNK`` for random phase, and half of one, ``_BROKEN_BATCH``, for
    broken links, whose count mask grows with n^2 a walk."""
    return _BROKEN_BATCH if mode == "broken_links" else _CHUNK


def _sweep_cost(mode, ps, n, realizations, thetas=1) -> tuple[int, int, int]:
    """(site updates, bytes of one batch, bytes of the finished series) of
    :func:`_sweep` over ``thetas`` angles, as :func:`_walks` lays it out: the
    noiseless walks, one per theta when a p is 0 or n is, cost their
    ``_grid_cost``; each noisy p costs n^2 per realization and theta, quiet
    ones included, so the charge does not depend on the draws, in batches of
    min(realizations, ``_batch_size(mode)``) walks, with :func:`_chunk_walks`'
    count mask and its uniforms for broken links.  Held beside the batch, per
    theta: the noiseless mean and zero sem, and eight (2n+1) float rows per
    noisy p (the running and carried sums and squares, and the statistics)."""
    noisy, noiseless = _walks(ps, n)
    updates, batch = _grid_cost(thetas, n) if noiseless else (0, 0)
    counts = np.min_scalar_type(len(noisy)).itemsize if mode == "broken_links" else 0
    chunk = _walk_bytes(n, min(realizations, _batch_size(mode)), counts) if noisy else 0
    return (updates + thetas * len(noisy) * realizations * n**2, max(batch, chunk),
            8 * thetas * (2 * n + 1) * (2 * noiseless + 8 * max(1, len(noisy))))


def _chunks(ic, thetas, mode, ps, n, realizations, seed):
    """Per batch of ``_batch_size(mode)`` walks, in increasing r: its streams and
    :func:`_chunk_walks` of them, which draws their noise when first asked.
    The batch sets only what is held at once: the rows come in the same
    order, and :func:`_sweep` sums each summation block as one."""
    size = _batch_size(mode)
    for start in range(0, realizations, size):
        rngs = [realization_rng(seed, r) for r in range(start, min(start + size, realizations))]
        yield rngs, _chunk_walks(ic, thetas, mode, ps, n, rngs)


def _chunk_walks(ic, thetas, mode, ps, n, rngs):
    """Position probabilities, a C-contiguous (len(rngs), 2n+1) array at each
    p of the non-increasing ``ps`` and, within it, each of ``thetas`` in turn,
    of one walk per generator.  Each generator draws its uniforms once, before
    the first walk, and every p derives its noise from them.

    A random-phase walk whose accept draws are none below p is quiet there:
    the batch walks the fired walks and, if any is quiet, one last walk that
    never fires, whose zero-phase row every quiet walk takes (see the module
    docstring).  Every broken-link walk is walked.  The noise lives here
    alone, so it goes when this finishes or is dropped, before the next
    batch's is drawn.  ``rngs`` is one batch of :func:`_chunks`: every walk
    is one row, whatever the batch's size, so the rows do not depend on it."""
    walks, source = len(rngs), None
    if mode == "broken_links":
        # per link, how many of ps exceed its uniform: each p, largest first,
        # breaks the links whose count is nonzero, then the counts step down; a
        # walk draws its uniforms 8 batch rows at a time, in the buffers' room
        noise = np.zeros((walks, n, 2 * n + 2), dtype=np.min_scalar_type(len(ps)))
        for count, rng in zip(noise, rngs):
            for rows in np.split(count, range(8 * walks, n, 8 * walks)):
                u = rng.random(rows.shape)
                for p in ps:
                    rows += u < p
            del u  # freed before the next realization draws its own
    elif mode == "random_phase":  # per step (accept, phase); the last walk never fires
        noise = np.array([rng.random((n, 2)) for rng in rngs] + [np.ones((n, 2))])
        low = noise[:walks, :, 0].min(axis=1, initial=1.0)
    for i, p in enumerate(ps):
        if mode == "random_phase":  # exp(i zeta) once, of zeta reduced as the coin's
            # the fired walks, then the last one if any is quiet; source[r] is
            # the row of the walked array that walk r takes
            walked, source = np.unique(np.where(low < p, np.arange(walks), walks),
                                       return_inverse=True)
            if walked[-1] < walks:  # every walk fired: each row is its own
                source = None
            accept, draw = noise[walked].T
            zeta = np.where(accept < p, TWO_PI * draw, 0.0)
            phase, broken = np.exp(1j * _reduced(0.0, 0.0, zeta)[2]), None
        else:  # one real coin for every step; every nonzero count steps down to p
            phase, broken = np.ones(walks), noise
            if i:
                np.maximum(broken, 1, out=broken)
                broken -= 1
        for theta in thetas:  # a theta's coins go before the next's come
            probs = _propagate_probs(ic.a0, ic.b0, _coins(0.0, theta, phase=phase), n, broken)
            yield probs if source is None else probs[source]
