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

    def block_of(self, t: int) -> int:
        return t // self.B

    def block_size(self, k: int) -> int:
        s = self.block_slice(k)
        return s.stop - s.start


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


def sample_global(T: int, cfg: MaskingConfig, rng) -> np.ndarray:
    """Sorted masked positions under global Bernoulli masking."""
    if cfg.mode != "global_bernoulli":
        raise ParameterError(f"sample_global requires mode 'global_bernoulli', got {cfg.mode!r}")
    gamma_g = _draw_uniform(rng, cfg.gamma_g)
    return np.nonzero(rng.random(T) < gamma_g)[0]


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
    ratio_bins = [i / B for i in range(B + 1)]  # R_k has resolution 1/B
    ratio_hist = np.zeros(B + 1, dtype=np.int64)

    if cfg.mode == "hierarchical":
        fractions = np.empty(samples)
        violations = 0
        full_blocks_checked = 0
        for i in range(samples):
            draw = sample_hierarchical_draw(part, cfg, rng)
            fractions[i] = len(draw.positions) / T
            for k in draw.selected_blocks:
                size = part.block_size(int(k))
                lo = part.block_slice(int(k)).start
                n_k = int(((draw.positions >= lo) & (draw.positions < lo + size)).sum())
                r_k = n_k / size
                ratio_hist[min(int(r_k * B + 0.5), B)] += 1
                if size == B:
                    full_blocks_checked += 1
                    if not (0.0 <= draw.gamma_t - r_k < 1.0 / B):
                        violations += 1
        mean_gc = sum(cfg.gamma_c) / 2.0
        mean_gt = sum(cfg.gamma_t) / 2.0
        report.update({
            "empirical_mean_fraction": float(fractions.mean()),
            "empirical_std_fraction": float(fractions.std()),
            "analytic_fraction_no_floor": K_blk * mean_gc * B * mean_gt / T,
            "expected_fraction_floor_aware": expected_fraction_hierarchical(part, cfg),
            "quantization_bound_violations": violations,
            "full_blocks_checked": full_blocks_checked,
            "ratio_histogram": ratio_hist.tolist(),
            "ratio_histogram_bins": ratio_bins,
        })
    else:
        fractions = np.empty(samples)
        tail_hits = 0
        for i in range(samples):
            gamma_g = _draw_uniform(rng, cfg.gamma_g)
            hit = rng.random(T) < gamma_g
            fractions[i] = hit.mean()
            worst = 0.0
            for k in range(K_blk):
                r_k = float(hit[part.block_slice(k)].mean())
                ratio_hist[min(int(r_k * B + 0.5), B)] += 1
                worst = max(worst, abs(r_k - gamma_g))
            if worst >= hoeffding_delta:
                tail_hits += 1
        bound = 2.0 * K_blk * math.exp(-2.0 * B * hoeffding_delta * hoeffding_delta)
        report.update({
            "empirical_mean_fraction": float(fractions.mean()),
            "empirical_std_fraction": float(fractions.std()),
            "analytic_fraction": sum(cfg.gamma_g) / 2.0,
            "hoeffding_delta": hoeffding_delta,
            "hoeffding_bound": bound,
            "hoeffding_tail_frequency": tail_hits / samples,
            "ratio_histogram": ratio_hist.tolist(),
            "ratio_histogram_bins": ratio_bins,
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
    e_nk = _expected_max1_floor_uniform(cfg.gamma_t[0] * part.B, cfg.gamma_t[1] * part.B)
    return e_blocks * e_nk / part.T


def _expected_floor_uniform(lo: float, hi: float) -> float:
    """E[floor(X)] for X ~ U(lo, hi)."""
    if hi == lo:
        return float(math.floor(lo))
    total = 0.0
    m = math.floor(lo)
    while m < hi:
        seg_lo = max(lo, m)
        seg_hi = min(hi, m + 1)
        if seg_hi > seg_lo:
            total += m * (seg_hi - seg_lo)
        m += 1
    return total / (hi - lo)


def _expected_max1_floor_uniform(lo: float, hi: float) -> float:
    """E[max(1, floor(X))] for X ~ U(lo, hi)."""
    if hi == lo:
        return float(max(1, math.floor(lo)))
    total = 0.0
    m = math.floor(lo)
    while m < hi:
        seg_lo = max(lo, m)
        seg_hi = min(hi, m + 1)
        if seg_hi > seg_lo:
            total += max(1, m) * (seg_hi - seg_lo)
        m += 1
    return total / (hi - lo)
