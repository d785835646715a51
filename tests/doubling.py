"""The doubling gate shared by the complexity tests.

A stage that is linear in its input takes about twice as long when
the input doubles; one whose per-item work grows with the input takes
about three times as long or more.  :func:`assert_doubling` sits
between the two.

Each run is timed with the cyclic garbage collector paused: its full
collections scan every live object of the process, so their cost
depends on what else is resident, not on the stage.  The runs come in
interleaved (small, large) pairs and the gate reads the median of the
per-pair ratios.  A host that changes speed for a while (another
process starts, the CPU clocks down) slows both runs of a pair alike,
while the minimum of each size may come from different speed phases.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, TypeVar

#: Largest tolerated time ratio when the input doubles.
MAX_DOUBLING_RATIO = 2.4
PAIRS = 5

Input = TypeVar("Input")


def _seconds(stage: Callable[[Input], object], data: Input) -> float:
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        stage(data)
        return time.perf_counter() - started
    finally:
        gc.enable()


def assert_doubling(
    stage: Callable[[Input], object], small: Input, large: Input, what: str
) -> float:
    """Assert that ``stage(large)`` takes at most
    :data:`MAX_DOUBLING_RATIO` times as long as ``stage(small)``, where
    *large* is twice *small*; returns the median ratio."""
    pairs = [(_seconds(stage, small), _seconds(stage, large)) for _ in range(PAIRS)]
    ratio = statistics.median(large_s / small_s for small_s, large_s in pairs)
    assert ratio <= MAX_DOUBLING_RATIO, (
        f"{what} took {ratio:.2f}x as long on twice the input; (small, large) "
        "seconds per pair: "
        + ", ".join(f"({small_s:.3f}, {large_s:.3f})" for small_s, large_s in pairs)
    )
    return ratio
