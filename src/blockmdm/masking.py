"""Mask samplers for masked-token training, plus statistical verification.

Two strategies over a block-partitioned timeline of ``T`` positions
(0-based indices throughout):

* global Bernoulli: draw one ratio ``gamma_g`` per sample from a uniform
  range, then mask each position independently with that probability.
* hierarchical block-wise: draw a block ratio ``gamma_c`` and select
  ``floor(gamma_c * K_blk)`` blocks uniformly without replacement, then
  draw a single intra-block ratio ``gamma_t`` shared across the selected
  blocks and mask ``max(1, floor(gamma_t * |block|))`` positions uniformly
  without replacement inside each.

Samplers are pure functions of (rng, config, partition), so identical
seeds reproduce identical mask sets bit for bit. Positions beyond the
valid length of a sequence are never offered to a sampler: callers pass
the valid length as ``T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous size-``B`` blocks covering positions ``0..T-1``.

    The last block may be ragged (size ``T mod B``) when ``B`` does not
    divide ``T``.
    """

    T: int
    B: int

    @property
    def n_blocks(self) -> int:
        return -(-self.T // self.B)

    def block_slice(self, k: int) -> slice:
        return slice(k * self.B, min((k + 1) * self.B, self.T))

    def block_positions(self, k: int) -> np.ndarray:
        s = self.block_slice(k)
        return np.arange(s.start, s.stop)


def partition(T: int, B: int) -> BlockPartition:
    if T < 1 or B < 1:
        raise ParameterError(f"partition requires T >= 1 and B >= 1, got T={T}, B={B}")
    return BlockPartition(T=int(T), B=int(B))


def _check_range(name, rng_pair):
    lo, hi = rng_pair
    if not (0.0 <= lo <= hi <= 1.0):
        raise ParameterError(f"{name} range must satisfy 0 <= min <= max <= 1, got {rng_pair}")
    return (float(lo), float(hi))


@dataclass(frozen=True)
class MaskingConfig:
    """Which sampler to use and its ratio ranges."""

    mode: str = "global_bernoulli"  # or "hierarchical"
    gamma_g: tuple = (0.3, 0.8)
    gamma_c: tuple = (0.5, 1.0)
    gamma_t: tuple = (0.3, 1.0)

    def __post_init__(self):
        if self.mode not in ("global_bernoulli", "hierarchical"):
            raise ParameterError(f"unknown masking mode {self.mode!r}")
        object.__setattr__(self, "gamma_g", _check_range("gamma_g", self.gamma_g))
        object.__setattr__(self, "gamma_c", _check_range("gamma_c", self.gamma_c))
        object.__setattr__(self, "gamma_t", _check_range("gamma_t", self.gamma_t))


def _draw_uniform(rng, rng_pair):
    lo, hi = rng_pair
    if lo == hi:
        return lo
    return float(rng.uniform(lo, hi))


def _draw_global(T: int, cfg: MaskingConfig, rng) -> tuple:
    """One global Bernoulli draw: ``gamma_g`` and the per-position hits."""
    gamma_g = _draw_uniform(rng, cfg.gamma_g)
    return gamma_g, rng.random(T) < gamma_g


def sample_global(T: int, cfg: MaskingConfig, rng) -> np.ndarray:
    """Sorted masked positions under global Bernoulli masking."""
    if cfg.mode != "global_bernoulli":
        raise ParameterError(f"sample_global requires mode 'global_bernoulli', got {cfg.mode!r}")
    return np.nonzero(_draw_global(T, cfg, rng)[1])[0]


@dataclass(frozen=True)
class HierarchicalDraw:
    """One hierarchical sample with the intermediate draws kept for stats."""

    gamma_c: float
    gamma_t: float
    selected_blocks: np.ndarray
    positions: np.ndarray


def sample_hierarchical_draw(part: BlockPartition, cfg: MaskingConfig, rng) -> HierarchicalDraw:
    if cfg.mode != "hierarchical":
        raise ParameterError(f"hierarchical sampler requires mode 'hierarchical', got {cfg.mode!r}")
    K_blk = part.n_blocks
    gamma_c = _draw_uniform(rng, cfg.gamma_c)
    m_blk = int(math.floor(gamma_c * K_blk))
    selected = np.sort(rng.choice(K_blk, size=m_blk, replace=False)) if m_blk > 0 else np.empty(0, dtype=np.intp)
    gamma_t = _draw_uniform(rng, cfg.gamma_t)
    masked = []
    for k in selected:
        block = part.block_positions(int(k))
        n_k = max(1, int(math.floor(gamma_t * len(block))))
        masked.append(np.sort(rng.choice(block, size=n_k, replace=False)))
    positions = np.concatenate(masked) if masked else np.empty(0, dtype=np.intp)
    return HierarchicalDraw(gamma_c=gamma_c, gamma_t=gamma_t, selected_blocks=selected, positions=positions)


def sample_hierarchical(part: BlockPartition, cfg: MaskingConfig, rng) -> np.ndarray:
    """Sorted masked positions under hierarchical block-wise masking.

    When ``gamma_c * n_blocks < 1`` no block is selected and the mask is
    empty; such samples contribute zero loss downstream.
    """
    return sample_hierarchical_draw(part, cfg, rng).positions


def sample_mask(part: BlockPartition, cfg: MaskingConfig, rng) -> np.ndarray:
    """Dispatch on ``cfg.mode``."""
    if cfg.mode == "global_bernoulli":
        return sample_global(part.T, cfg, rng)
    return sample_hierarchical(part, cfg, rng)


def mask_stats(part: BlockPartition, cfg: MaskingConfig, rng, samples: int,
               hoeffding_delta: float = 0.2) -> dict:
    """Empirical statistics of a masking configuration over many samples.

    For hierarchical mode, reports the mean masked fraction against two
    references: the product approximation ``K_blk * E[gamma_c] * B *
    E[gamma_t] / T`` (which ignores the floor quantization in the sampler)
    and the floor-aware expectation, and counts violations of the
    quantization bound ``0 <= gamma_t - R_k < 1/B`` over full-size selected
    blocks. For global mode, reports the per-sample tail frequency of
    ``max_k |R_k - gamma_g| >= delta`` against the Hoeffding union bound
    ``2 * K_blk * exp(-2 B delta^2)``.
    """
    if samples < 1000:
        raise ParameterError(f"mask_stats requires samples >= 1000, got {samples}")
    if not 0 < hoeffding_delta < 1:
        raise ParameterError(f"hoeffding_delta must lie in (0, 1), got {hoeffding_delta}")
    T, B, K_blk = part.T, part.B, part.n_blocks
    report = {
        "mode": cfg.mode,
        "T": T,
        "B": B,
        "n_blocks": K_blk,
        "samples": samples,
    }
    block_of = np.arange(T) // B
    sizes = np.bincount(block_of)  # the last block may be ragged
    fractions = np.empty(samples)
    ratios = []  # per sample, R_k of the blocks it reports on

    if cfg.mode == "hierarchical":
        violations = full_blocks_checked = 0
        for i in range(samples):
            draw = sample_hierarchical_draw(part, cfg, rng)
            fractions[i] = len(draw.positions) / T
            k = draw.selected_blocks
            r = np.bincount(draw.positions // B, minlength=K_blk)[k] / sizes[k]
            ratios.append(r)
            gap = (draw.gamma_t - r)[sizes[k] == B]
            full_blocks_checked += len(gap)
            violations += int(np.count_nonzero((gap < 0.0) | (gap >= 1.0 / B)))
        mean_gc = sum(cfg.gamma_c) / 2.0
        mean_gt = sum(cfg.gamma_t) / 2.0
        report.update({
            "analytic_fraction_no_floor": K_blk * mean_gc * B * mean_gt / T,
            "expected_fraction_floor_aware": expected_fraction_hierarchical(part, cfg),
            "quantization_bound_violations": violations,
            "full_blocks_checked": full_blocks_checked,
        })
    else:
        tail_hits = 0
        for i in range(samples):
            gamma_g, hit = _draw_global(T, cfg, rng)
            fractions[i] = hit.mean()
            r = np.bincount(block_of[hit], minlength=K_blk) / sizes
            ratios.append(r)
            tail_hits += int(np.abs(r - gamma_g).max() >= hoeffding_delta)
        report.update({
            "analytic_fraction": sum(cfg.gamma_g) / 2.0,
            "hoeffding_delta": hoeffding_delta,
            "hoeffding_bound": 2.0 * K_blk * math.exp(-2.0 * B * hoeffding_delta * hoeffding_delta),
            "hoeffding_tail_frequency": tail_hits / samples,
        })
    # R_k has resolution 1/B: bin it to the nearest multiple
    bins = np.minimum((np.concatenate(ratios) * B + 0.5).astype(np.int64), B)
    report.update({
        "empirical_mean_fraction": float(fractions.mean()),
        "empirical_std_fraction": float(fractions.std()),
        "ratio_histogram": np.bincount(bins, minlength=B + 1).tolist(),
        "ratio_histogram_bins": [i / B for i in range(B + 1)],
    })
    return report


def expected_fraction_hierarchical(part: BlockPartition, cfg: MaskingConfig) -> float:
    """Exact expected masked fraction of the hierarchical sampler.

    Accounts for the floor in both the block count and the per-block count
    (the product approximation above does not), assuming all blocks have
    size ``B``; the ragged last block, when present, makes this a close
    approximation rather than exact.
    """
    K_blk = part.n_blocks
    e_blocks = _expected_floor_uniform(cfg.gamma_c[0] * K_blk, cfg.gamma_c[1] * K_blk)
    e_nk = _expected_floor_uniform(cfg.gamma_t[0] * part.B, cfg.gamma_t[1] * part.B, at_least=1)
    return e_blocks * e_nk / part.T


def _expected_floor_uniform(lo: float, hi: float, at_least: int = 0) -> float:
    """E[max(at_least, floor(X))] for X ~ U(lo, hi), with X >= 0."""
    if hi == lo:
        return float(max(at_least, math.floor(lo)))
    total = 0.0
    m = math.floor(lo)
    while m < hi:
        seg_lo = max(lo, m)
        seg_hi = min(hi, m + 1)
        if seg_hi > seg_lo:
            total += max(at_least, m) * (seg_hi - seg_lo)
        m += 1
    return total / (hi - lo)
