"""Streaming block-by-block decoding with confidence-ranked unmasking.

Each block starts fully masked and is denoised in ``K`` steps: every step
runs one forward pass conditioned on the committed prefix and the
conditioning stream, then reveals the scheduled number of highest
confidence positions with their argmax tokens. With ``R_j`` positions
still masked at step ``j``, the even schedule reveals
``n_j = ceil(R_j / (K - j + 1))`` of them (:func:`schedule_step`), so every
position is revealed within ``K`` steps. Confidence is the largest softmax
probability of a position's logits; the ``n_j`` most confident positions
are revealed, ties to the lowest position (:func:`pick_reveal`). That
reveal rule is :func:`reveal_step`; the self-distillation teacher uses it
too, and the confidences and entropies it reports are what the bench
aggregates, read from the decode traces. Completed blocks are final:
they are emitted immediately and never change. Generation stops at the
first block containing an end-of-sequence token (output truncated at the
earliest one) or when the block budget runs out.

Each request owns one canvas, allocated fully masked for its whole block
budget, and one :class:`talker.KVCache` of its committed blocks' keys and
values; every block is denoised in place on that canvas. Attention is
block-causal, so the keys and values never change once a block's tokens
are final, and reusing them is exact. A block's first step computes the
just-finished previous block together with the new masked block and then
commits the previous one; its other steps compute only the ``B`` rows of
the new block. Every step is still one forward pass. The chunks a stream
yields are copies, so a consumer that changes one cannot change the
canvas later forwards read.

``B = 1`` with ``K = 1`` degenerates to greedy next-token decoding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import talker
from .errors import DecodeError, ParameterError
from .talker import AlignedSemantics, TalkerConfig, TalkerParams


@dataclass(frozen=True)
class DecodeConfig:
    B: int = 16
    K: int = 4
    max_blocks: int = 16
    eos_id: int = None

    def __post_init__(self):
        if self.B < 1 or self.K < 1:
            raise ParameterError(f"B and K must be >= 1, got B={self.B}, K={self.K}")
        if self.max_blocks < 1:
            raise ParameterError(f"max_blocks must be >= 1, got {self.max_blocks}")


@dataclass
class StepTrace:
    step: int
    revealed_positions: list
    confidences: list
    entropies: list
    wall_time: float


@dataclass
class BlockTrace:
    block_index: int
    steps: list = field(default_factory=list)
    forward_passes: int = 0
    wall_time: float = 0.0


@dataclass
class DecodeTrace:
    blocks: list = field(default_factory=list)
    tokens_emitted: int = 0
    total_forwards: int = 0
    wall_time: float = 0.0
    stopped_on_eos: bool = False
    truncated_by_limit: bool = False
    dropped_rows: int = 0  # surplus conditioning rows the alignment dropped


@dataclass
class DecodeResult:
    tokens: np.ndarray
    trace: DecodeTrace

    @property
    def stopped_on_eos(self):
        return self.trace.stopped_on_eos


def canvas_length(tcfg: TalkerConfig, dcfg: DecodeConfig) -> int:
    """Positions a request's conditioning stream covers: the block budget,
    capped at the whole blocks that fit in the model's ``T_max``."""
    return min(dcfg.max_blocks * dcfg.B, (tcfg.T_max // dcfg.B) * dcfg.B)


def schedule_step(R: int, j: int, K: int) -> int:
    """Number of positions to reveal at step ``j`` (1-based) of ``K`` with
    ``R`` still masked: ``ceil(R / (K - j + 1))``, zero only when ``R`` is."""
    if K < 1 or not (1 <= j <= K):
        raise ParameterError(f"step index must satisfy 1 <= j <= K, got j={j}, K={K}")
    if R < 0:
        raise ParameterError(f"remaining count must be >= 0, got {R}")
    return -(-R // (K - j + 1))


def pick_reveal(positions, confidences, n: int) -> np.ndarray:
    """The ``n`` positions with highest confidence, ties to lowest index."""
    positions = np.asarray(positions)
    order = np.lexsort((positions, -np.asarray(confidences)))
    return positions[order[:n]]


def reveal_step(logits, masked, j: int, K: int) -> tuple:
    """The confidence-ranked reveal at step ``j`` of ``K``.

    ``logits`` rows are indexed by position and ``masked`` holds the
    still-masked positions in ascending order. Returns the positions to
    reveal, highest confidence first (ties to the lowest position), with
    their confidences (maximum softmax probability) and softmax entropies
    in nats. Their tokens are ``logits[positions].argmax(1)``.
    """
    e = logits[masked]  # a row softmax, divided out only where it is used
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    total = e.sum(axis=1)
    conf = 1.0 / total  # exp(0) / total: the largest probability, bit for bit
    reveal = pick_reveal(masked, conf, schedule_step(len(masked), j, K))
    idx = np.searchsorted(masked, reveal)
    p = e[idx] / total[idx, None]
    entropy = -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)
    return reveal, conf[idx], entropy


def decode_block(canvas, lo: int, aligned: AlignedSemantics, params: TalkerParams, tcfg: TalkerConfig,
                 K: int, cache: talker.KVCache) -> BlockTrace:
    """Denoise the masked block ``canvas[lo:lo + B]`` in place over ``K``
    steps; returns its trace.

    ``canvas[:lo]`` holds the committed blocks and ``cache`` the keys and
    values of its first ``cache.rows`` positions; the first step computes
    the rest of the prefix along with the block and commits it.
    """
    B, mask_id = tcfg.B, tcfg.vocab.mask_id
    block = canvas[lo:lo + B]
    trace = BlockTrace(block_index=lo // B)
    block_start = time.perf_counter()
    for j in range(1, K + 1):
        masked_local = np.nonzero(block == mask_id)[0]
        if masked_local.size == 0:
            break
        t0 = time.perf_counter()
        logits = talker.forward_array(params, tcfg, canvas[cache.rows:lo + B], aligned, cache=cache)[-B:]
        cache.commit(lo - cache.rows)  # the prefix is final; nothing left to commit after step 1
        trace.forward_passes += 1
        if not np.isfinite(logits).all():
            trace.wall_time = time.perf_counter() - block_start
            raise DecodeError(f"non-finite logits in block {trace.block_index} at step {j}", trace=trace)
        reveal, conf, entropy = reveal_step(logits, masked_local, j, K)
        block[reveal] = logits[reveal].argmax(axis=1)
        trace.steps.append(StepTrace(step=j, revealed_positions=(lo + reveal).tolist(),
                                     confidences=conf.tolist(), entropies=entropy.tolist(),
                                     wall_time=time.perf_counter() - t0))
    trace.wall_time = time.perf_counter() - block_start
    return trace


def stream_blocks(aligned: AlignedSemantics, params: TalkerParams, tcfg: TalkerConfig,
                  dcfg: DecodeConfig, trace: DecodeTrace):
    """Generator yielding ``(tokens, block_trace)`` per completed block.

    The final chunk is truncated at the earliest end-of-sequence token when
    one appears. Trace flags are finalized when the generator is exhausted.
    """
    B = dcfg.B
    if B != tcfg.B:
        raise ParameterError(f"decode block size {B} does not match model block size {tcfg.B}")
    if aligned.T < B:
        raise ParameterError(f"conditioning stream length {aligned.T} is shorter than one block ({B})")
    eos = dcfg.eos_id if dcfg.eos_id is not None else tcfg.vocab.eos_id
    trace.dropped_rows = aligned.n_dropped
    canvas = np.full(min(dcfg.max_blocks, aligned.T // B) * B, tcfg.vocab.mask_id, dtype=np.intp)
    t0 = time.perf_counter()
    cache = talker.KVCache(tcfg, aligned.T)
    for lo in range(0, len(canvas), B):
        btrace = decode_block(canvas, lo, aligned, params, tcfg, dcfg.K, cache)
        trace.blocks.append(btrace)
        trace.total_forwards += btrace.forward_passes
        block = canvas[lo:lo + B].copy()  # a chunk the consumer may change without touching the canvas
        eos_hits = np.nonzero(block == eos)[0]
        if eos_hits.size:
            emitted = block[:int(eos_hits[0]) + 1]
            trace.tokens_emitted += len(emitted)
            trace.stopped_on_eos = True
            trace.wall_time = time.perf_counter() - t0
            yield emitted, btrace
            return
        trace.tokens_emitted += len(block)
        yield block, btrace
    trace.truncated_by_limit = True
    trace.wall_time = time.perf_counter() - t0


def decode(aligned: AlignedSemantics, params: TalkerParams, tcfg: TalkerConfig,
           dcfg: DecodeConfig) -> DecodeResult:
    """Drive the stream to completion and assemble the full output."""
    trace = DecodeTrace()
    chunks = [chunk for chunk, _ in stream_blocks(aligned, params, tcfg, dcfg, trace)]
    tokens = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
    return DecodeResult(tokens=tokens, trace=trace)


def decode_source(source_tokens, params: TalkerParams, tcfg: TalkerConfig,
                  dcfg: DecodeConfig) -> DecodeResult:
    """Convenience wrapper: build the conditioning stream for a source
    sequence over the full block budget, then decode."""
    aligned = talker.align_for_canvas(params, tcfg, source_tokens, canvas_length(tcfg, dcfg))
    return decode(aligned, params, tcfg, dcfg)
