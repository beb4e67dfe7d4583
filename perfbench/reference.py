"""The machine-speed reference timed next to every measured command.

The shared hosts this benchmark targets change speed under it: on a
2-vCPU VM the same interpreter-bound loop switches between two levels
about 1.8x apart, in spells of a second to minutes, while the process
stays on the CPU (its CPU time equals its wall time, steal time is under
1 %). A median over a run cannot remove spells that last longer than the
run. So the benchmark times this fixed loop (the same shape of work as
one k=1 LSTM step: a small matmul, tanh, concatenation) right before and
right after each command, and reports the command's time in *reference
seconds*: seconds measured, times REFERENCE_S over the loop's time
around the command. The loop is not part of tsgan, so a change to the
program moves reference seconds exactly as it moves seconds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# what one reference_s() call takes at the reference speed: about the
# median on a 2.1 GHz Xeon vCPU, so reference seconds read close to
# seconds there
REFERENCE_S = 0.010
STEPS = 800
WARMUP_STEPS = 50
_W = np.random.default_rng(0).standard_normal((128, 256)) * 0.1


def _loop(steps: int) -> None:
    x = np.zeros((1, 128))
    for _ in range(steps):
        g = x @ _W
        x = np.concatenate([np.tanh(g[:, :64]),
                            0.5 * (1.0 + np.tanh(0.5 * g[:, 64:128]))], axis=1)


def reference_s() -> float:
    """Wall time of one pass of the fixed loop, in seconds."""
    _loop(WARMUP_STEPS)
    start = perf_counter()
    _loop(STEPS)
    return perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """`seconds` measured while the loop took `reference`, in reference
    seconds."""
    return seconds * REFERENCE_S / reference
