"""Unitary discrete-time quantum walk on the one-dimensional lattice.

State is stored as two complex amplitude vectors ``a`` (up component) and
``b`` (down component) over the sites [-n, +n] after n steps.  One step
applies the coin to the amplitude pair at every site and shifts the
up output one site right and the down output one site left:

    a_j(n+1) = C00 a_{j-1}(n) + C01 b_{j-1}(n)
    b_j(n+1) = C10 a_{j+1}(n) + C11 b_{j+1}(n)

:func:`propagate` is the one implementation of this step in the package;
every walk runs on it.  The per-step form above, and the equivalent
composition "shift after coin" as one global operator, live in the test
suite as independent oracles.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .coin import CoinOperator, _check_unitary, _coins

__all__ = [
    "UP_IC",
    "DOWN_IC",
    "SYMMETRIC_IC",
    "InitialCoinState",
    "WalkState",
    "PositionDistribution",
    "propagate",
    "evolve",
    "position_distribution",
]

#: tolerance for |a0|^2 + |b0|^2 = 1 on initial coin states
IC_NORM_TOL = 1e-9
#: walks per batched propagate call of :func:`_grid_probs`
_GRID_CHUNK = 64


@dataclass(frozen=True)
class InitialCoinState:
    """Normalized coin state (a0, b0) placed at lattice site 0."""

    a0: complex
    b0: complex

    def __post_init__(self):
        a, b = abs(self.a0), abs(self.b0)
        norm = a * a + b * b  # a huge amplitude overflows to inf, where ** raises
        if not abs(norm - 1.0) <= IC_NORM_TOL:  # so that a NaN norm fails too
            raise ValueError(
                f"initial coin state must be normalized: |a0|^2+|b0|^2 = {norm!r}"
            )


#: the equal-weight state (1, i)/sqrt(2); gives a reflection-symmetric walk
#: under any real symmetric coin
SYMMETRIC_IC = InitialCoinState(1 / math.sqrt(2), 1j / math.sqrt(2))
#: all amplitude in the up component; biases the walk toward positive sites
UP_IC = InitialCoinState(1.0, 0.0)
#: all amplitude in the down component
DOWN_IC = InitialCoinState(0.0, 1.0)


@dataclass(frozen=True)
class WalkState:
    """Walker amplitudes after ``n`` steps.

    ``a`` and ``b`` span the sites [-n, +n]; site j lives at index j + n.
    An ``n`` that is not an integer >= 0, a float or a bool included, is a
    ``ValueError``.
    """

    n: int
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_integer("n", self.n, 0)
        for name in ("a", "b"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (2 * self.n + 1,):
                raise ValueError(
                    f"{name} must have length 2n+1 = {2 * self.n + 1}, got {arr.shape}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PositionDistribution:
    """Real position probabilities over sites [-n, +n] at step count ``n``.

    Distributions produced by :func:`position_distribution` sum to one; the
    figure-parity rescaling in :mod:`qwalk.stats` may return deliberately
    non-normalized instances.  ``n`` must be an integer >= 0, as in
    :class:`WalkState`.
    """

    n: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_integer("n", self.n, 0)
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (2 * self.n + 1,):
            raise ValueError(
                f"probs must have length 2n+1 = {2 * self.n + 1}, got {p.shape}"
            )
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def total(self) -> float:
        return float(np.sum(self.probs))


def propagate(a0, b0, coins, n: int, broken=None) -> tuple[np.ndarray, np.ndarray]:
    """Advance B walks started at site 0 by ``n`` coin-and-shift steps at once.

    ``a0``, ``b0``: initial coin amplitudes, scalars or shape (B,).  ``coins``:
    one coin per walk, (B, 2, 2), or per step and walk, (n, B, 2, 2).  Returns
    ``a``, ``b`` of shape (B, 2n+1), site j at index j + n; an ``n`` that is
    not an integer >= 0, a float or a bool included, is a ``ValueError``.
    Step k reads only the k+1 occupied sites -k, -k+2, ..., k, held
    contiguously, and the sites of the other parity stay 0; per site it is
    the per-step oracle ``step_unitary`` in ``tests/helpers.py``, bit for bit.

    Each coin entry reaches numpy in the form it streams fastest, with the
    same products: a scalar when every walk shares it at every step, a
    contiguous tile of the window's shape when it is fixed but differs per
    walk, and the step's (B,) row, broadcast over the window, otherwise.

    ``broken``: optional (B, n, 2n+2) link flags, of any numeric dtype, whose
    nonzero entries mark broken links: a nonzero ``broken[i, k, c]`` breaks
    the link (c-n-1, c-n) at step k of walk i.  A broken link (j, j+1) swaps the
    up output bound for j+1 with the down output bound for j, so both stay at
    their own site in the other component; with the single-angle coin this is
    the per-step broken-link oracle in ``tests/helpers.py``, bit for bit.  Such
    walks fill both parities, so their step k reads the whole support [-k, k].
    """
    a, b = _steps(a0, b0, coins, n, broken)
    return _layout(a, n, broken), _layout(b, n, broken)


def _propagate_probs(a0, b0, coins, n: int, broken=None) -> np.ndarray:
    """The position probabilities, (B, 2n+1), of :func:`propagate`'s walks,
    formed on the compact step buffers and laid out once; equal to
    ``_probs(*propagate(...))`` bit for bit."""
    return _layout(_probs(*_steps(a0, b0, coins, n, broken)), n, broken)


def _layout(rows: np.ndarray, n: int, broken) -> np.ndarray:
    """The (B, 2n+1) site layout of one of :func:`_steps`' compact buffers,
    zero on the sites it does not hold."""
    out = np.zeros((rows.shape[1], 2 * n + 1), dtype=rows.dtype)
    out[:, :: 2 - (broken is not None)] = rows.T
    return out


def _steps(a0, b0, coins, n: int, broken):
    """The step loop of :func:`propagate`: the final amplitudes ``a``, ``b`` as
    its compact ((1 + full) n + 1, B) buffers, where row r holds site -n + 2r
    of the occupied sublattice, or site -n + r of a broken-link walk's full
    window (full = ``broken`` is given)."""
    _check_integer("step count", n, 0)
    coins = np.asarray(coins, dtype=complex)
    if coins.ndim < 3 or coins.shape[-2:] != (2, 2) or coins.shape[:-3] not in ((), (n,)):
        raise ValueError(f"coins must be (B, 2, 2) or (n, B, 2, 2), got {coins.shape}")
    walks = coins.shape[-3]
    if broken is not None and broken.shape != (walks, n, 2 * n + 2):
        raise ValueError(f"broken must be {(walks, n, 2 * n + 2)}, got {broken.shape}")
    # row lo + r of step k holds site -k + 2r on the occupied sublattice (lo =
    # 0), or site -k + r of the full window of a broken-link walk (lo = n - k)
    full = broken is not None
    a, b, a_next, b_next = (np.zeros(((1 + full) * n + 1, walks), dtype=complex)
                            for _ in range(4))
    a[full * n], b[full * n] = a0, b0
    for k, (c00, c01, c10, c11) in enumerate(_coin_operands(coins, n, full)):
        # ping-pong: the buffer written now held step k-1, whose rows lie
        # inside the new window, bar row lo of a_next: the up outputs skip it,
        # so it is zeroed; dn, then the spent b_src, hold the second product
        lo, width = full * (n - k), (1 + full) * k + 1
        a_src, b_src = a[lo : lo + width], b[lo : lo + width]
        up, dn = a_next[lo + 1 : lo + width + 1], b_next[lo - full : lo + width - full]
        a_next[lo] = 0
        np.multiply(c00, a_src, out=up)
        np.multiply(c01, b_src, out=dn)
        np.add(up, dn, out=up)
        np.multiply(c11, b_src, out=dn)
        np.multiply(c10, a_src, out=b_src)
        np.add(b_src, dn, out=dn)
        if full:
            # links [-k-1, k] are crossed by the up outputs at sites [-k, k+1]
            # and the down outputs at [-k-1, k] (the outermost still 0); the
            # windows are contiguous, so each flat view writes through
            hit = np.flatnonzero(np.not_equal(broken[:, k, n - k : n + k + 2].T, 0, order="C"))
            up = a_next[n - k : n + k + 2].reshape(-1)
            dn = b_next[n - k - 1 : n + k + 1].reshape(-1)
            up[hit], dn[hit] = dn[hit], up[hit]
        a, a_next, b, b_next = a_next, a, b_next, b
    # the spent buffers, the coin tiles and the views into them go when this
    # returns, before the caller's results come
    return a, b


def _walk_bytes(n: int, batch: int, count_bytes: int = 0) -> int:
    """An upper bound on the bytes one :func:`propagate` call over ``batch``
    ``n``-step walks holds at once: eight (2n+1, batch) complex arrays cover
    its four step buffers and up to four coin tiles (two buffers and the tiles
    go before its results come, two amplitude arrays or one of probabilities
    with three real scratch arrays), or a random-phase chunk's per-step coins,
    their copy, uniforms, angles and phases (168n bytes a walk).  Broken links
    add the (batch, n, 2n+2) count mask of ``count_bytes`` a link and 41 bytes
    a link of swap scratch (a flag copy, an int64 index and two complex values);
    the mask's uniforms, drawn 8 batch rows at a time, fit in the buffers' room,
    as do the copies that sum a batch's rows onto a block's carried sums.  An
    ensemble's ``batch`` is the walks of one call, not its summation block:
    a broken-link batch is 64 walks, half of one (``decoherence._batch_size``)."""
    links = (count_bytes * n + 41) * (2 * n + 2) if count_bytes else 0
    return batch * (128 * (2 * n + 1) + links)


def _coin_operands(coins, n: int, full: bool):
    """Per step, the operands (c00, c01, c10, c11) of :func:`propagate`'s
    products, over windows of width (1 + full) k + 1 and B columns.

    Numpy multiplies a complex scalar or a same-shape operand in one pass,
    but a (B,) row broadcast over the window one window row at a time.  So an
    entry every walk shares at every step (bit for bit) is a scalar; a fixed
    entry that differs per walk is one contiguous tile, built here and sliced
    to each window; a per-step entry that differs per walk stays the step's row."""
    if n == 0:
        return
    fixed, walks = coins.ndim == 3, coins.shape[-3]
    # sites-major: entry e of step k is the (B,) row entries[k, e], or
    # entries[0, e] for fixed coins
    entries = np.ascontiguousarray(np.moveaxis(coins, -3, -1)).reshape(
        1 if fixed else n, 4, walks)
    bits = entries.view(np.uint64).reshape(*entries.shape, 2)
    widths = range(1, (1 + full) * (n - 1) + 2, 1 + full)
    streams = []
    for e in range(4):
        # shared when the real and the imaginary bit patterns over (steps,
        # walks) each equal the first: two strided scalar comparisons
        re, im = bits[:, e, :, 0], bits[:, e, :, 1]
        if walks and np.all(re == re[0, 0]) and np.all(im == im[0, 0]):
            streams.append(itertools.repeat(entries[0, e, 0], n))
        elif fixed:
            tile = np.ascontiguousarray(np.broadcast_to(entries[0, e], (widths[-1], walks)))
            streams.append(map(tile.__getitem__, map(slice, widths)))
        else:
            streams.append(entries[:, e])
    yield from zip(*streams)


def _check_integer(name: str, value, lo: int):
    """Raise ValueError unless ``value`` is an integer >= ``lo``; a float or a
    bool is not one, however whole."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


def _grid_probs(ic: InitialCoinState, pairs, n: int):
    """Position probabilities, (B, 2n+1), of one walk per (xi, theta) pair,
    zeta = 0, in order: one array per batched propagation of ``_GRID_CHUNK``
    walks.  Row i is the :func:`position_distribution` of :func:`evolve` under
    that pair's coin, bit for bit."""
    pairs = iter(pairs)
    while chunk := list(itertools.islice(pairs, _GRID_CHUNK)):
        coins = _coins(*np.array(chunk, dtype=float).T, 0.0)  # xi, theta and zeta = 0
        _check_unitary(coins)
        yield _propagate_probs(ic.a0, ic.b0, coins, n)


def _grid_cost(walks: int, n: int) -> tuple[int, int]:
    """(site updates, bytes of one batch) of :func:`_grid_probs` over ``walks``
    pairs: n^2 a walk, in batches of min(walks, ``_GRID_CHUNK``) walks."""
    return walks * n**2, _walk_bytes(n, min(walks, _GRID_CHUNK))


def evolve(ic: InitialCoinState, coin: CoinOperator, n: int) -> WalkState:
    """Apply ``n`` coin-and-shift steps to the walker started at the origin."""
    a, b = propagate(ic.a0, ic.b0, coin.matrix[None], n)
    return WalkState(n=n, a=a[0], b=b[0])


def position_distribution(state: WalkState) -> PositionDistribution:
    """Squared amplitudes P_j = |a_j|^2 + |b_j|^2 over the support."""
    return PositionDistribution(n=state.n, probs=_probs(state.a, state.b))


def _probs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a|^2 + |b|^2 elementwise: the position probabilities of every walk."""
    return np.abs(a) ** 2 + np.abs(b) ** 2
