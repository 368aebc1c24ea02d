"""Masked-prediction training and few-step self-distillation.

Stage one trains the mask predictor with cross-entropy on masked positions
under a masking strategy (typically global Bernoulli). Stage two
fine-tunes a copy of it against itself, frozen: the teacher refines the
corrupted input over ``K`` confidence-ranked reveal steps (independently
per block, one forward pass per step, with the decoder's reveal rule
:func:`decode.reveal_step`), recording for each masked position its
logits at the step that revealed it. The student then has to match those
rows from a single forward pass on the original corrupted input, which is
what compresses multi-step refinement into few steps.

Both stages take one forward and one backward pass per optimizer step:
a batch's sequences and their conditioning stream, built once, are stacked
row by row without padding (:class:`Batch`), and the teacher rolls out the
whole batch at once, each forward pass over all of its rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import nd, talker
from .decode import reveal_step
from .errors import ContractError, NonFiniteError, ParameterError, TrainingDivergedError
from .masking import MaskingConfig, partition, sample_mask
from .talker import TalkerConfig, TalkerParams


@dataclass(frozen=True)
class DistillConfig:
    """Self-distillation knobs: teacher steps, temperature, loss mix."""

    K: int = 4
    tau: float = 2.0
    alpha: float = 0.7
    kl_direction: str = "reverse"

    def __post_init__(self):
        if self.K < 1:
            raise ParameterError(f"K must be >= 1, got {self.K}")
        if not 0 < self.tau < math.inf:
            raise ParameterError(f"tau must be finite and > 0, got {self.tau}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.kl_direction not in ("reverse", "forward"):
            raise ParameterError(f"kl_direction must be 'reverse' or 'forward', got {self.kl_direction!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """AdamW's learning rate and weight decay, and the samples per step."""

    lr: float = 1e-3
    weight_decay: float = 0.01
    batch_size: int = 8

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if not self.batch_size >= 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.weight_decay < math.inf:
            raise ParameterError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


def teacher_rollout(corrupted0, mask_positions, forward_fn, B: int, K: int, lengths):
    """Reveal all masked positions in ``K`` confidence-ranked steps.

    ``lengths`` splits the rows into sequences stacked sample-major, and
    blocks are counted within each sequence. ``forward_fn(tokens) -> logits
    array`` is the frozen teacher bound to its conditioning and ``lengths``.
    Each step runs one forward pass over all the rows (a sequence's logits
    depend on it alone, and a finished one has nothing left to reveal) and
    updates every block in parallel: per block, the ``n_j`` still-masked
    positions with highest confidence (ties to lowest index) are recorded
    and replaced by their argmax tokens. Returns ``(targets, final_sequence,
    n_forward_passes)``, ``targets`` one row of logits per masked position,
    in ``mask_positions`` order, from the step that revealed it; logits with
    a NaN or Inf raise :class:`NonFiniteError` before any reveal.
    """
    seq = np.array(corrupted0)
    mask_positions = np.asarray(mask_positions, dtype=np.intp)
    if mask_positions.size == 0:
        raise ParameterError("teacher rollout requires a nonempty masked set")
    T = len(seq)
    if sum(lengths) != T:
        raise ParameterError(f"sequence lengths {lengths} do not cover the {T} rows")
    starts = np.cumsum([0, *lengths])
    blocks = [slice(b, min(b + B, end)) for start, end in zip(starts[:-1], starts[1:])
              for b in range(start, end, B)]
    masked = np.zeros(T, dtype=bool)
    masked[mask_positions] = True

    z_tea, n_forwards = None, 0
    for j in range(1, K + 1):
        if not masked.any():
            break
        logits = forward_fn(seq)
        if not np.isfinite(logits).all():
            raise NonFiniteError(f"non-finite teacher logits at rollout step {j}")
        n_forwards += 1
        z_tea = np.zeros_like(logits) if z_tea is None else z_tea
        for block in blocks:
            pos = block.start + np.nonzero(masked[block])[0]
            if pos.size:
                reveal, _, _ = reveal_step(logits, pos, j, K)
                z_tea[reveal] = logits[reveal]
                seq[reveal] = logits[reveal].argmax(axis=1)
                masked[reveal] = False
    if masked.any():
        raise ContractError(f"teacher rollout left masked positions after {K} steps: {np.nonzero(masked)[0]}")
    return z_tea[mask_positions], seq, n_forwards


def distill_loss(student_logits: nd.Tensor, targets, mask_positions, tea, cfg: DistillConfig, counts=None):
    """Combined loss ``alpha * KD + (1 - alpha) * masked-CE``, or masked-CE
    alone when ``tea`` is None.

    ``tea`` holds one row of teacher logits per masked position, in
    ``mask_positions`` order (else :class:`DimensionError`); both terms read
    one gather of those rows. Both are normalized by the masked count so
    the mix is scale-compatible; the KD term carries its usual ``tau^2``
    factor. For sequences stacked sample-major, ``counts`` gives per masked
    position the masked count of its sequence, which makes the loss the sum
    of the per-sequence losses. An empty mask gives zero loss and gradient.
    Returns ``(loss, kd_value, mdm_value)`` with the scalars as floats.
    """
    mask_positions = np.asarray(mask_positions, dtype=np.intp)
    T = student_logits.data.shape[0]
    if mask_positions.size and (mask_positions.min() < 0 or mask_positions.max() >= T):
        raise ParameterError(f"mask positions must lie in [0, {T})")  # the gather reads -1 as a zero row
    if counts is None:
        counts = np.full(len(mask_positions), len(mask_positions))
    rows = nd.take_rows(student_logits, mask_positions)
    mdm = nd.cross_entropy_rows(rows, np.asarray(targets, dtype=np.intp)[mask_positions], counts)
    if tea is None:
        return mdm, 0.0, mdm.item()
    kd = nd.kl_rows(rows, tea, cfg.tau, cfg.kl_direction, counts)
    loss = nd.add(nd.scale(kd, cfg.alpha), nd.scale(mdm, 1.0 - cfg.alpha))
    return loss, kd.item(), mdm.item()


@dataclass
class Batch:
    """A training batch stacked sample-major, its conditioning stream like
    its rows: one row per target position, no padding.

    Samples whose mask draw came up empty are left out of the rows;
    ``size`` still counts them, so they enter the batch mean as zero loss.
    """

    size: int
    stream: talker.AlignedSemantics  # n_dropped: summed over the kept samples
    lengths: list
    targets: np.ndarray
    corrupted: np.ndarray
    masked: np.ndarray  # masked rows, ascending
    counts: np.ndarray  # per masked row: its sample's masked count


def draw_batch(dataset, cfg: TalkerConfig, masking_cfg: MaskingConfig, rng, size: int) -> Batch:
    """Draw ``size`` samples and a mask for each, in that order from ``rng``; align each kept one."""
    drawn = []
    for _ in range(size):
        sample = dataset[int(rng.integers(len(dataset)))]
        mask_positions = sample_mask(partition(len(sample.target), cfg.B), masking_cfg, rng)
        if mask_positions.size:
            drawn.append((sample, mask_positions))
    lengths = [len(sample.target) for sample, _ in drawn]
    none = [np.empty(0, dtype=np.intp)]
    targets = np.concatenate([sample.target for sample, _ in drawn] + none)
    masked = np.concatenate([start + m for start, (_, m) in zip(np.cumsum([0] + lengths), drawn)] + none)
    counts = np.concatenate([np.full(len(m), len(m)) for _, m in drawn] + none)
    corrupted = targets.copy()
    corrupted[masked] = cfg.vocab.mask_id
    parts = [talker.align_for_canvas(None, cfg, sample.source, n) for (sample, _), n in zip(drawn, lengths)]
    stream = talker.AlignedSemantics(np.concatenate([a.index for a in parts] + none),
                                     sum(a.n_dropped for a in parts))
    return Batch(size, stream, lengths, targets, corrupted, masked, counts)


def batch_loss(params: TalkerParams, cfg: TalkerConfig, batch: Batch, tea=None,
               distill_cfg: DistillConfig = None):
    """Sum over the batch of the per-sample losses of :func:`distill_loss`
    (masked-CE alone without the teacher rows ``tea`` of ``batch.masked``),
    from one forward pass over the stacked rows and ``batch.stream``.
    Returns ``(loss, kd_value, mdm_value)``."""
    logits = talker.forward(params, cfg, batch.corrupted, batch.stream, lengths=batch.lengths)
    return distill_loss(logits, batch.targets, batch.masked, tea, distill_cfg, batch.counts)


@dataclass
class TrainResult:
    params: TalkerParams
    curve: list = field(default_factory=list)  # rows: {step, loss, kd_loss, mdm_loss}

    @property
    def final_loss(self):
        return self.curve[-1]["loss"] if self.curve else math.nan


# a diverging step overflows; the finite-loss check reports it as one error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _train(params: TalkerParams, cfg: TalkerConfig, dataset, masking_cfg: MaskingConfig,
           opt: OptimizerConfig, steps: int, rng, log_cb, targets_fn=None,
           distill_cfg: DistillConfig = None) -> TrainResult:
    """The optimizer loop both stages share: per step one batch, one forward
    and one backward pass over its stacked rows, one AdamW update. Each call
    starts the AdamW moments at zero, as it starts the step count at 1.

    ``targets_fn(batch)`` gives the teacher rows of ``batch.masked`` for
    distillation and the rollout's event fields; a :class:`NonFiniteError`
    from it ends training as a :class:`TrainingDivergedError` before that
    step's update.
    ``log_cb`` receives per step the curve row plus ``step_ms``,
    ``masked`` (positions), ``rows`` (stacked rows), ``dropped_rows``
    (surplus conditioning rows the batch's alignment dropped), ``grad_norm`` (global
    L2 norm of the gradient), ``grad_norm_groups`` (the L2 norm per
    parameter group: ``embeddings``, ``fusion``, each ``layer<i>`` and
    ``head``) and, with ``targets_fn``, its rollout fields.
    """
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    moments = [(np.zeros_like(p.data), np.zeros_like(p.data)) for p in params.values()]
    groups = ["embeddings" if name.endswith("_embed") else name.split(".")[0] for name in params]
    curve = []
    for step in range(1, steps + 1):
        t0 = time.perf_counter()
        batch = draw_batch(dataset, cfg, masking_cfg, rng, opt.batch_size)
        nd.zero_grads(params.values())
        loss = kd = mdm = 0.0
        tea, rollout = None, {}
        if targets_fn is not None:
            rollout = {"rollout_forwards": 0, "rollout_rows": 0, "rollout_ms": 0.0}
        if batch.masked.size:
            if targets_fn is not None:
                try:
                    tea, rollout = targets_fn(batch)
                except NonFiniteError as e:
                    raise TrainingDivergedError(f"{e} at step {step}", params=params, step=step) from e
            total, kd, mdm = batch_loss(params, cfg, batch, tea, distill_cfg)
            total.backward()
            loss = total.item()
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at step {step}", params=params, step=step)
        for p in params.values():
            p.grad /= batch.size
        nd.adamw_step(params, moments, opt.lr, step, weight_decay=opt.weight_decay)
        row = {"step": step, "loss": loss / batch.size, "kd_loss": kd / batch.size,
               "mdm_loss": mdm / batch.size}
        curve.append(row)
        if log_cb:
            grad_sq = [float(np.vdot(p.grad, p.grad)) for p in params.values()]
            group_sq = dict.fromkeys(groups, 0.0)
            for group, sq in zip(groups, grad_sq):
                group_sq[group] += sq
            log_cb({**row, "step_ms": (time.perf_counter() - t0) * 1e3, "masked": int(batch.masked.size),
                    "rows": int(sum(batch.lengths)), "dropped_rows": batch.stream.n_dropped,
                    "grad_norm": math.sqrt(sum(grad_sq)),
                    "grad_norm_groups": {group: math.sqrt(sq) for group, sq in group_sq.items()}, **rollout})
    return TrainResult(params=params, curve=curve)


def train_mdm(cfg: TalkerConfig, dataset, masking_cfg: MaskingConfig, opt: OptimizerConfig,
              steps: int, seed: int, params: TalkerParams = None, log_cb=None) -> TrainResult:
    """Masked-prediction training from scratch (or from ``params``).

    Deterministic given ``seed``: sample order, mask draws and
    initialization all derive from it. Samples whose mask draw comes up
    empty contribute exactly zero loss and gradient.
    """
    if not dataset:
        raise ParameterError("dataset must be nonempty")
    rng = nd.make_rng(seed)
    if params is None:
        params = talker.init_params(cfg, rng)
    return _train(params, cfg, dataset, masking_cfg, opt, steps, rng, log_cb)


def train_distill(cfg: TalkerConfig, start_params: TalkerParams, dataset,
                  distill_cfg: DistillConfig, masking_cfg: MaskingConfig, opt: OptimizerConfig,
                  steps: int, seed: int, log_cb=None) -> TrainResult:
    """Self-distillation fine-tuning of a copy of the start parameters
    against the start parameters as the frozen teacher, which reads them
    without the tape: they stay unchanged and may be read-only. The teacher
    rolls out the whole batch at once: at most ``K`` forward passes per step."""
    if not dataset:
        raise ParameterError("dataset must be nonempty")
    rng = nd.make_rng(seed)
    student = start_params.copy()

    def targets_fn(batch):
        def forward_fn(tokens):
            return talker.forward_array(start_params, cfg, tokens, batch.stream, lengths=batch.lengths)

        t0 = time.perf_counter()
        tea, _, n_forwards = teacher_rollout(batch.corrupted, batch.masked, forward_fn, B=cfg.B,
                                             K=distill_cfg.K, lengths=batch.lengths)
        return tea, {"rollout_forwards": n_forwards, "rollout_rows": n_forwards * len(batch.corrupted),
                     "rollout_ms": (time.perf_counter() - t0) * 1e3}

    # with alpha = 0 the teacher targets would carry zero weight: pure masked-CE
    return _train(student, cfg, dataset, masking_cfg, opt, steps, rng, log_cb,
                  targets_fn=targets_fn if distill_cfg.alpha else None, distill_cfg=distill_cfg)
