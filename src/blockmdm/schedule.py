"""Even-allocation reveal schedule and confidence scoring.

With ``R_j`` masked positions remaining in a block at step ``j`` of ``K``,
the schedule reveals ``n_j = ceil(R_j / (K - j + 1))`` positions (zero when
nothing remains), which guarantees every masked position is revealed
within ``K`` steps while spreading the work as evenly as possible.

Confidence of a prediction is the maximum softmax probability of its
logits row; reveal order within a block is highest confidence first, ties
broken by lowest position index.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .nd import softmax_array


def schedule_step(R: int, j: int, K: int) -> int:
    """Number of positions to reveal at step ``j`` (1-based) of ``K``."""
    if K < 1 or not (1 <= j <= K):
        raise ParameterError(f"step index must satisfy 1 <= j <= K, got j={j}, K={K}")
    if R < 0:
        raise ParameterError(f"remaining count must be >= 0, got {R}")
    if R == 0:
        return 0
    r_j = K - j + 1
    return -(-R // r_j)


def row_entropy(logits_row) -> float:
    """Shannon entropy (nats) of the softmax distribution of one row."""
    p = softmax_array(np.asarray(logits_row, dtype=np.float64))
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def pick_reveal(positions, confidences, n: int) -> np.ndarray:
    """The ``n`` positions with highest confidence, ties to lowest index."""
    positions = np.asarray(positions)
    order = np.lexsort((positions, -np.asarray(confidences)))
    return positions[order[:n]]
