"""Masked-prediction training and few-step self-distillation.

Stage one trains the mask predictor with cross-entropy on masked positions
under a masking strategy (typically global Bernoulli). Stage two
fine-tunes it against a frozen copy of itself: the teacher refines the
corrupted input over ``K`` confidence-ranked reveal steps (independently
per block, one forward pass per step, with the decoder's reveal rule
:func:`decode.reveal_step`), recording its logits for each
position at the moment that position is revealed. The student then has to
match those targets from a single forward pass on the original corrupted
input, which is what compresses multi-step refinement into few steps.

Both stages take one forward and one backward pass per optimizer step:
a batch's sequences are stacked row by row without padding
(:class:`Batch`), and the teacher rolls out the whole batch at once, each
forward pass over the sequences it has not finished.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import nd, talker
from .decode import reveal_step
from .errors import ContractError, ParameterError, TrainingDivergedError
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
    """AdamW settings and the number of samples per step."""

    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 8

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if not self.batch_size >= 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.weight_decay < math.inf:
            raise ParameterError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if len(self.betas) != 2 or not all(0 <= b < 1 for b in self.betas):
            raise ParameterError(f"betas must be two values in [0, 1), got {self.betas}")
        if not self.eps > 0:
            raise ParameterError(f"eps must be > 0, got {self.eps}")


@dataclass
class TeacherTargets:
    """Per-position teacher logits, valid exactly on the masked set."""

    z_tea: np.ndarray  # (T, V)
    valid: np.ndarray  # (T,) bool


def teacher_rollout(corrupted0, mask_positions, forward_fn, B: int, K: int, lengths=None):
    """Reveal all masked positions in ``K`` confidence-ranked steps.

    ``lengths`` splits the rows into sequences stacked sample-major
    (default: one sequence), and blocks are counted within each sequence.
    ``forward_fn(tokens, seqs) -> logits array`` is the frozen teacher bound
    to its conditioning: ``tokens`` stacks the rows of the sequences with
    indices ``seqs`` (ascending), and the logits cover those rows. Each step
    runs one forward pass over the sequences that still have masked
    positions (a sequence's logits do not depend on the others) and updates
    every block of those sequences in parallel: per block, the ``n_j``
    still-masked positions with highest confidence (ties to lowest index)
    are recorded into the target tensor and replaced by their argmax
    tokens. Returns ``(targets, final_sequence, n_forward_passes)``.
    """
    corrupted0 = np.asarray(corrupted0)
    mask_positions = np.asarray(mask_positions, dtype=np.intp)
    if mask_positions.size == 0:
        raise ParameterError("teacher rollout requires a nonempty masked set")
    T = len(corrupted0)
    lengths = [T] if lengths is None else list(lengths)
    if sum(lengths) != T:
        raise ParameterError(f"sequence lengths {lengths} do not cover the {T} rows")
    starts = np.cumsum([0] + lengths)
    seq_of = np.repeat(np.arange(len(lengths)), lengths)
    blocks = [slice(b, min(b + B, end)) for start, end in zip(starts[:-1], starts[1:])
              for b in range(start, end, B)]
    seq = corrupted0.copy()
    valid = np.zeros(T, dtype=bool)
    valid[mask_positions] = True
    masked = valid.copy()

    z_tea = logits = None
    n_forwards = 0
    for j in range(1, K + 1):
        if not masked.any():
            break
        active = np.unique(seq_of[masked])
        rows = np.nonzero(np.isin(seq_of, active))[0]
        out = forward_fn(seq[rows], active)
        n_forwards += 1
        if z_tea is None:
            z_tea, logits = np.zeros((T, out.shape[1])), np.zeros((T, out.shape[1]))
        logits[rows] = out
        for block in blocks:
            pos = block.start + np.nonzero(masked[block])[0]
            if pos.size:
                reveal, _, _ = reveal_step(logits, pos, j, K)
                z_tea[reveal] = logits[reveal]
                seq[reveal] = logits[reveal].argmax(axis=1)
                masked[reveal] = False
    if masked.any():
        raise ContractError(f"teacher rollout left masked positions after {K} steps: {np.nonzero(masked)[0]}")
    return TeacherTargets(z_tea=z_tea, valid=valid), seq, n_forwards


def distill_loss(student_logits: nd.Tensor, targets, mask_positions, tea: TeacherTargets,
                 cfg: DistillConfig, counts=None):
    """Combined loss ``alpha * KD + (1 - alpha) * masked-CE``, or masked-CE
    alone when ``tea`` is None.

    Both terms are normalized by the masked count so the mix is
    scale-compatible; the KD term carries its usual ``tau^2`` factor. For
    sequences stacked sample-major, ``counts`` gives per masked position
    the masked count of its sequence, which makes the loss the sum of the
    per-sequence losses. Returns ``(loss, kd_value, mdm_value)`` with the
    scalars as floats.
    """
    mask_positions = np.asarray(mask_positions, dtype=np.intp)
    if mask_positions.size == 0:
        zero = nd.masked_cross_entropy(student_logits, np.asarray(targets), mask_positions)
        return zero, 0.0, 0.0
    if counts is None:
        counts = np.full(len(mask_positions), len(mask_positions))
    mdm = nd.masked_cross_entropy(student_logits, targets, mask_positions, counts)
    if tea is None:
        return mdm, 0.0, mdm.item()
    if not tea.valid[mask_positions].all():
        raise ContractError("teacher targets missing for some masked positions")
    kd = nd.kl_rows(nd.take_rows(student_logits, mask_positions),
                    tea.z_tea[mask_positions], cfg.tau, cfg.kl_direction, counts)
    loss = nd.add(nd.scale(kd, cfg.alpha), nd.scale(mdm, 1.0 - cfg.alpha))
    return loss, kd.item(), mdm.item()


@dataclass
class Batch:
    """A training batch stacked sample-major: one row per target position,
    no padding.

    Samples whose mask draw came up empty are left out of the rows;
    ``size`` still counts them, so they enter the batch mean as zero loss.
    """

    size: int
    sources: list
    lengths: list
    targets: np.ndarray
    corrupted: np.ndarray
    masked: np.ndarray  # masked rows, ascending
    counts: np.ndarray  # per masked row: its sample's masked count


def draw_batch(dataset, cfg: TalkerConfig, masking_cfg: MaskingConfig, rng, size: int) -> Batch:
    """Draw ``size`` samples and a mask for each, in that order from ``rng``."""
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
    return Batch(size, [sample.source for sample, _ in drawn], lengths, targets, corrupted, masked, counts)


def batch_loss(params: TalkerParams, cfg: TalkerConfig, batch: Batch, tea: TeacherTargets = None,
               distill_cfg: DistillConfig = None):
    """Sum over the batch of the per-sample losses of :func:`distill_loss`
    (masked-CE alone without teacher targets), from one forward pass over
    the stacked rows. Returns ``(loss, kd_value, mdm_value)``."""
    aligned = talker.align_batch(params, cfg, batch.sources, batch.lengths)
    logits = talker.forward(params, cfg, batch.corrupted, aligned, lengths=batch.lengths)
    return distill_loss(logits, batch.targets, batch.masked, tea, distill_cfg, batch.counts)


@dataclass
class TrainResult:
    params: TalkerParams
    curve: list = field(default_factory=list)  # rows: {step, loss, kd_loss, mdm_loss}

    @property
    def final_loss(self):
        return self.curve[-1]["loss"] if self.curve else math.nan


def write_curve_csv(path, curve) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["step", "loss", "kd_loss", "mdm_loss"])
        w.writeheader()
        for row in curve:
            w.writerow(row)


def _check_finite(value, params, step):
    if not math.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss at step {step}", params=params, step=step)


# a diverging step overflows; the finite-loss check reports it as one error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _train(params: TalkerParams, cfg: TalkerConfig, dataset, masking_cfg: MaskingConfig,
           opt: OptimizerConfig, steps: int, rng, log_cb, targets_fn=None,
           distill_cfg: DistillConfig = None) -> TrainResult:
    """The optimizer loop both stages share: per step one batch, one forward
    and one backward pass over its stacked rows, one AdamW update.

    ``targets_fn(batch)`` gives the teacher targets for distillation.
    ``log_cb`` receives per step the curve row plus ``step_ms``,
    ``masked`` (positions), ``rows`` (stacked rows) and ``grad_norm``
    (global L2 norm of the gradient).
    """
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    plist = params.ordered()
    curve = []
    for step in range(1, steps + 1):
        t0 = time.perf_counter()
        batch = draw_batch(dataset, cfg, masking_cfg, rng, opt.batch_size)
        nd.zero_grads(plist)
        loss = kd = mdm = 0.0
        if batch.masked.size:
            tea = targets_fn(batch) if targets_fn is not None else None
            total, kd, mdm = batch_loss(params, cfg, batch, tea, distill_cfg)
            total.backward()
            loss = total.item()
        _check_finite(loss, params, step)
        for p in plist:
            p.value.grad /= batch.size
        nd.adamw_step(plist, opt.lr, step, betas=opt.betas, eps=opt.eps, weight_decay=opt.weight_decay)
        row = {"step": step, "loss": loss / batch.size, "kd_loss": kd / batch.size,
               "mdm_loss": mdm / batch.size}
        curve.append(row)
        if log_cb:
            grad_sq = sum(float(np.vdot(p.grad, p.grad)) for p in plist)
            log_cb({**row, "step_ms": (time.perf_counter() - t0) * 1e3, "masked": int(batch.masked.size),
                    "rows": int(sum(batch.lengths)), "grad_norm": math.sqrt(grad_sq)})
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
    """Self-distillation fine-tuning against a frozen copy of the start
    parameters. The teacher never receives gradient updates; the student
    starts from the same checkpoint. The teacher rolls out the whole batch
    at once: at most ``K`` forward passes per step."""
    if not dataset:
        raise ParameterError("dataset must be nonempty")
    rng = nd.make_rng(seed)
    teacher = start_params.copy()
    student = start_params.copy()

    def targets_fn(batch):
        with nd.no_grad():
            parts = [talker.align_for_canvas(teacher, cfg, source, n)
                     for source, n in zip(batch.sources, batch.lengths)]

        def forward_fn(tokens, seqs):
            return talker.forward_array(teacher, cfg, tokens, talker.stack_aligned([parts[i] for i in seqs]),
                                        lengths=[batch.lengths[i] for i in seqs])

        tea, _, _ = teacher_rollout(batch.corrupted, batch.masked, forward_fn, B=cfg.B, K=distill_cfg.K,
                                    lengths=batch.lengths)
        return tea

    # with alpha = 0 the teacher targets would carry zero weight: pure masked-CE
    return _train(student, cfg, dataset, masking_cfg, opt, steps, rng, log_cb,
                  targets_fn=targets_fn if distill_cfg.alpha else None, distill_cfg=distill_cfg)
