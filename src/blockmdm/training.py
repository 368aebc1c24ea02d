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
"""

from __future__ import annotations

import csv
import math
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
        if self.tau <= 0:
            raise ParameterError(f"tau must be > 0, got {self.tau}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.kl_direction not in ("reverse", "forward"):
            raise ParameterError(f"kl_direction must be 'reverse' or 'forward', got {self.kl_direction!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 8


@dataclass
class TeacherTargets:
    """Per-position teacher logits, valid exactly on the masked set."""

    z_tea: np.ndarray  # (T, V)
    valid: np.ndarray  # (T,) bool


def teacher_rollout(corrupted0, mask_positions, forward_fn, B: int, K: int):
    """Reveal all masked positions in ``K`` confidence-ranked steps.

    ``forward_fn(tokens) -> logits array`` is the frozen teacher bound to
    its conditioning. Each step runs one forward pass over the full
    sequence and updates every block in parallel: per block, the
    ``n_j`` still-masked positions with highest confidence (ties to lowest
    index) are recorded into the target tensor and replaced by their argmax
    tokens. Returns ``(targets, final_sequence, n_forward_passes)``.
    """
    corrupted0 = np.asarray(corrupted0)
    mask_positions = np.asarray(mask_positions, dtype=np.intp)
    if mask_positions.size == 0:
        raise ParameterError("teacher rollout requires a nonempty masked set")
    T = len(corrupted0)
    part = partition(T, B)
    seq = corrupted0.copy()
    remaining = {}
    for t in mask_positions:
        remaining.setdefault(part.block_of(int(t)), []).append(int(t))
    remaining = {k: np.array(sorted(v), dtype=np.intp) for k, v in remaining.items()}

    z_tea = None
    valid = np.zeros(T, dtype=bool)
    n_forwards = 0
    for j in range(1, K + 1):
        if not remaining:
            break
        logits = forward_fn(seq)
        n_forwards += 1
        if z_tea is None:
            z_tea = np.zeros((T, logits.shape[1]))
        for k in sorted(remaining):
            pos = remaining[k]
            reveal, _, _ = reveal_step(logits, pos, j, K)
            z_tea[reveal] = logits[reveal]
            valid[reveal] = True
            seq[reveal] = logits[reveal].argmax(axis=1)
            left = np.setdiff1d(pos, reveal, assume_unique=True)
            if left.size:
                remaining[k] = left
            else:
                del remaining[k]
    if remaining:
        raise ContractError(f"teacher rollout left masked positions after {K} steps: {remaining}")
    return TeacherTargets(z_tea=z_tea, valid=valid), seq, n_forwards


def distill_loss(student_logits: nd.Tensor, targets, mask_positions, tea: TeacherTargets,
                 cfg: DistillConfig):
    """Combined loss ``alpha * KD + (1 - alpha) * masked-CE``.

    Both terms are normalized by the masked count so the mix is
    scale-compatible; the KD term carries its usual ``tau^2`` factor.
    Returns ``(loss, kd_value, mdm_value)`` with the scalars as floats.
    """
    mask_positions = np.asarray(mask_positions, dtype=np.intp)
    if mask_positions.size == 0:
        zero = nd.masked_cross_entropy(student_logits, np.asarray(targets), mask_positions)
        return zero, 0.0, 0.0
    if not tea.valid[mask_positions].all():
        raise ContractError("teacher targets missing for some masked positions")
    mdm = nd.scale(nd.masked_cross_entropy(student_logits, targets, mask_positions),
                   1.0 / len(mask_positions))
    kd = nd.kl_rows(nd.take_rows(student_logits, mask_positions),
                    tea.z_tea[mask_positions], cfg.tau, cfg.kl_direction)
    loss = nd.add(nd.scale(kd, cfg.alpha), nd.scale(mdm, 1.0 - cfg.alpha))
    return loss, kd.item(), mdm.item()


def mdm_sample_loss(params: TalkerParams, cfg: TalkerConfig, sample, mask_positions):
    """Per-token masked cross-entropy of one sample (tape-recorded)."""
    target = sample.target
    corrupted = target.copy()
    corrupted[mask_positions] = cfg.vocab.mask_id
    aligned = talker.align_for_canvas(params, cfg, sample.source, len(target))
    logits = talker.forward(params, cfg, corrupted, aligned)
    return nd.scale(nd.masked_cross_entropy(logits, target, mask_positions), 1.0 / len(mask_positions))


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
    plist = params.ordered()
    curve = []
    for step in range(1, steps + 1):
        nd.zero_grads(plist)
        losses = []
        for _ in range(opt.batch_size):
            sample = dataset[int(rng.integers(len(dataset)))]
            part = partition(len(sample.target), cfg.B)
            mask_positions = sample_mask(part, masking_cfg, rng)
            if mask_positions.size == 0:
                losses.append(0.0)
                continue
            loss = mdm_sample_loss(params, cfg, sample, mask_positions)
            loss.backward()
            losses.append(loss.item())
        mean_loss = float(np.mean(losses))
        _check_finite(mean_loss, params, step)
        for p in plist:
            p.value.grad /= opt.batch_size
        nd.adamw_step(plist, opt.lr, step, betas=opt.betas, eps=opt.eps, weight_decay=opt.weight_decay)
        row = {"step": step, "loss": mean_loss, "kd_loss": 0.0, "mdm_loss": mean_loss}
        curve.append(row)
        if log_cb:
            log_cb(row)
    return TrainResult(params=params, curve=curve)


def train_distill(cfg: TalkerConfig, start_params: TalkerParams, dataset,
                  distill_cfg: DistillConfig, masking_cfg: MaskingConfig, opt: OptimizerConfig,
                  steps: int, seed: int, log_cb=None) -> TrainResult:
    """Self-distillation fine-tuning against a frozen copy of the start
    parameters. The teacher never receives gradient updates; the student
    starts from the same checkpoint."""
    if not dataset:
        raise ParameterError("dataset must be nonempty")
    rng = nd.make_rng(seed)
    teacher = start_params.copy()
    student = start_params.copy()
    plist = student.ordered()
    curve = []
    for step in range(1, steps + 1):
        nd.zero_grads(plist)
        losses, kds, mdms = [], [], []
        for _ in range(opt.batch_size):
            sample = dataset[int(rng.integers(len(dataset)))]
            target = sample.target
            T = len(target)
            part = partition(T, cfg.B)
            mask_positions = sample_mask(part, masking_cfg, rng)
            if mask_positions.size == 0:
                losses.append(0.0)
                kds.append(0.0)
                mdms.append(0.0)
                continue
            corrupted0 = target.copy()
            corrupted0[mask_positions] = cfg.vocab.mask_id

            aligned_stu = talker.align_for_canvas(student, cfg, sample.source, T)
            logits = talker.forward(student, cfg, corrupted0, aligned_stu)
            if distill_cfg.alpha == 0.0:
                # pure masked-CE; the teacher trajectory would carry zero weight
                loss = nd.scale(nd.masked_cross_entropy(logits, target, mask_positions),
                                1.0 / len(mask_positions))
                kd_v, mdm_v = 0.0, loss.item()
            else:
                with nd.no_grad():
                    aligned_tea = talker.align_for_canvas(teacher, cfg, sample.source, T)
                tea, _, _ = teacher_rollout(
                    corrupted0, mask_positions,
                    lambda toks: talker.forward_array(teacher, cfg, toks, aligned_tea),
                    B=cfg.B, K=distill_cfg.K)
                loss, kd_v, mdm_v = distill_loss(logits, target, mask_positions, tea, distill_cfg)
            loss.backward()
            losses.append(loss.item())
            kds.append(kd_v)
            mdms.append(mdm_v)
        mean_loss = float(np.mean(losses))
        _check_finite(mean_loss, student, step)
        for p in plist:
            p.value.grad /= opt.batch_size
        nd.adamw_step(plist, opt.lr, step, betas=opt.betas, eps=opt.eps, weight_decay=opt.weight_decay)
        row = {"step": step, "loss": mean_loss,
               "kd_loss": float(np.mean(kds)), "mdm_loss": float(np.mean(mdms))}
        curve.append(row)
        if log_cb:
            log_cb(row)
    return TrainResult(params=student, curve=curve)
