"""Working-memory bounds of the engines that set a CLI child's peak: one
broken-link summation block and compare-returns' stable column.  The bounds
were fixed before the first run.  The output bytes are pinned by the
goldens, so these tests check only what is held at once; CI runs them as a
step of their own."""

import math
import tracemalloc

import numpy as np

from qwalk import decoherence
from qwalk.classical import StableParams, _stable_pdfs
from qwalk.walk import SYMMETRIC_IC


def _traced_peak(call) -> int:
    """The traced peak of a second ``call()``: the first one's lasting
    module state and caches are not the engine's working memory."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_broken_link_block_at_n100_peaks_below_3_5_mb():
    # one summation block of the bundled decoherence sweep: 128 realizations
    # at four p and n = 100, walked as two batches of 64 walks, each with a
    # 1.3 MB count mask; one batch of 128 held 2.6 MB of mask and 1.6 MB of
    # step buffers, a traced 4.9 MB
    p_values = [0.01, 0.1, 0.3, 0.5]
    peak = _traced_peak(lambda: decoherence._sweep(
        SYMMETRIC_IC, [math.pi / 4], "broken_links", p_values, 100, 128, 42))
    assert peak < 3.5e6


def test_the_compare_returns_stable_column_peaks_below_2_5_mb():
    # the bundled axis: 34 bin edges and 33 centers on [-4, 4]; some of them
    # take several thousand panels, whose nodes are evaluated 1,024 panels
    # at a time (all at once the column traced 5.4 MB)
    edges = np.linspace(-4.0, 4.0, 34)
    centers = 0.5 * (edges[:-1] + edges[1:])
    params = StableParams(0.5, 0.5, 1.0 / math.sqrt(2.0), 0.0)
    assert _traced_peak(lambda: _stable_pdfs([*edges, *centers], params)) < 2.5e6
