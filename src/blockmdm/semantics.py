"""Sparse conditioning stream: anchor placement, assignment, and fusion.

A short sequence of ``N`` conditioning vectors is spread over a length-``T``
token timeline by writing vector ``m`` to the ``m``-th anchor position and
zeros everywhere else. Anchors sit at the first ``Q`` positions of every
block, so each block carries a bounded, prefix-only slice of the
conditioning stream: changing vector ``m`` can only affect the block that
holds anchor ``m`` (no future leakage into earlier blocks).

The fusion step adds the aligned stream to the token embeddings and passes
the sum through a two-layer ReLU feed-forward, position-locally:
``out = relu((E + h') @ W1 + b1) @ W2 + b2``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nd
from .errors import DimensionError, ParameterError
from .masking import BlockPartition

log = logging.getLogger(__name__)


def build_anchors(part: BlockPartition, Q: int) -> np.ndarray:
    """Sorted anchor positions: the first ``Q`` positions of each block.

    A ragged last block contributes only the anchors that exist inside it.
    """
    if not (1 <= Q <= part.B):
        raise ParameterError(f"Q must satisfy 1 <= Q <= B, got Q={Q}, B={part.B}")
    anchors = []
    for k in range(part.n_blocks):
        s = part.block_slice(k)
        anchors.append(np.arange(s.start, min(s.start + Q, s.stop)))
    return np.concatenate(anchors)


@dataclass
class AlignedSemantics:
    """Length-``T`` conditioning matrix, nonzero only at anchor rows.

    ``n_dropped`` counts the surplus conditioning rows that found no anchor.
    """

    T: int
    d: int
    h_prime: nd.Tensor
    anchor_positions: np.ndarray
    n_assigned: int
    n_dropped: int = 0


def align(h, anchors: np.ndarray, T: int) -> AlignedSemantics:
    """Assign conditioning rows to anchors in order: row ``m`` to anchor ``m``.

    Anchors beyond the number of available rows stay zero. Surplus rows
    (more rows than anchors) are dropped with a warning and counted in
    ``n_dropped``; the assignment is order-preserving, so earlier rows
    always land at earlier anchors.
    """
    ht = h if isinstance(h, nd.Tensor) else nd.constant(np.asarray(h, dtype=np.float64))
    if ht.data.ndim != 2:
        raise DimensionError(f"conditioning states must be N x d, got shape {ht.data.shape}")
    N, d = ht.data.shape
    anchors = np.asarray(anchors, dtype=np.intp)
    n_assigned = min(N, len(anchors))
    if N > len(anchors):
        log.warning("dropping %d surplus conditioning rows (%d rows, %d anchors)",
                    N - len(anchors), N, len(anchors))
    row_for_pos = np.full(T, -1, dtype=np.intp)
    row_for_pos[anchors[:n_assigned]] = np.arange(n_assigned)
    h_prime = nd.place_rows(ht, row_for_pos, T)
    return AlignedSemantics(T=T, d=d, h_prime=h_prime, anchor_positions=anchors, n_assigned=n_assigned,
                            n_dropped=N - n_assigned)


@dataclass
class FusionParams:
    """Weights of the two-layer feed-forward fusion module."""

    W1: nd.Param
    b1: nd.Param
    W2: nd.Param
    b2: nd.Param

    @classmethod
    def init(cls, d: int, d_ff: int, rng, std: float = 0.02) -> "FusionParams":
        return cls(
            W1=nd.param("fusion.W1", rng.normal(0.0, std, size=(d, d_ff))),
            b1=nd.param("fusion.b1", np.zeros(d_ff)),
            W2=nd.param("fusion.W2", rng.normal(0.0, std, size=(d_ff, d))),
            b2=nd.param("fusion.b2", np.zeros(d)),
        )

    def params(self):
        return [self.W1, self.b1, self.W2, self.b2]


def fuse(tok_emb: nd.Tensor, aligned: AlignedSemantics, fp: FusionParams) -> nd.Tensor:
    """Two-layer feed-forward over the sum of embeddings and aligned stream."""
    if tok_emb.data.shape != aligned.h_prime.data.shape:
        raise DimensionError(
            f"embedding/conditioning width mismatch: {tok_emb.data.shape} vs {aligned.h_prime.data.shape}")
    if tok_emb.data.shape[1] != fp.W1.data.shape[0]:
        raise DimensionError(
            f"fusion W1 expects width {fp.W1.data.shape[0]}, inputs have {tok_emb.data.shape[1]}")
    x = nd.add(tok_emb, aligned.h_prime)
    u = nd.relu(nd.add(nd.matmul(x, fp.W1.value), fp.b1.value))
    return nd.add(nd.matmul(u, fp.W2.value), fp.b2.value)
