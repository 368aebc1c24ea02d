import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmdm import nd
from blockmdm.errors import ParameterError
from blockmdm.masking import (MaskingConfig, expected_fraction_hierarchical,
                              mask_stats, partition, sample_global, sample_hierarchical,
                              sample_hierarchical_draw, sample_mask)


def pinned(mode, **kw):
    return MaskingConfig(mode=mode, **{k: (v, v) for k, v in kw.items()})


class TestPartition:
    def test_two_even_blocks(self):
        part = partition(32, 16)
        assert part.n_blocks == 2
        np.testing.assert_array_equal(part.block_positions(0), np.arange(0, 16))
        np.testing.assert_array_equal(part.block_positions(1), np.arange(16, 32))

    def test_ragged_last_block(self):
        part = partition(20, 16)
        assert [len(part.block_positions(k)) for k in range(part.n_blocks)] == [16, 4]

    def test_single_block(self):
        assert partition(16, 16).n_blocks == 1

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            partition(0, 16)
        with pytest.raises(ParameterError):
            partition(16, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 40))
    def test_blocks_disjoint_cover(self, T, B):
        part = partition(T, B)
        all_pos = np.concatenate([part.block_positions(k) for k in range(part.n_blocks)])
        np.testing.assert_array_equal(np.sort(all_pos), np.arange(T))
        sizes = [len(part.block_positions(k)) for k in range(part.n_blocks)]
        assert all(s == B for s in sizes[:-1]) and 1 <= sizes[-1] <= B


class TestGlobalBernoulli:
    def test_ratio_one_masks_all(self):
        cfg = pinned("global_bernoulli", gamma_g=1.0)
        np.testing.assert_array_equal(sample_global(50, cfg, nd.make_rng(0)), np.arange(50))

    def test_ratio_zero_masks_none(self):
        cfg = pinned("global_bernoulli", gamma_g=0.0)
        assert sample_global(50, cfg, nd.make_rng(0)).size == 0

    def test_monte_carlo_mean_fraction(self):
        # 1000 draws at T=10000 over gamma_g ~ U(0.3, 0.8): mean 0.55
        cfg = MaskingConfig(mode="global_bernoulli", gamma_g=(0.3, 0.8))
        rng = nd.make_rng(7)
        fracs = [sample_global(10_000, cfg, rng).size / 10_000 for _ in range(1000)]
        assert abs(float(np.mean(fracs)) - 0.55) < 0.02

    def test_wrong_mode_rejected(self):
        with pytest.raises(ParameterError):
            sample_global(10, MaskingConfig(mode="hierarchical"), nd.make_rng(0))


class TestHierarchical:
    def test_half_half_arithmetic(self):
        # gamma_c=0.5 of 2 blocks -> 1 block; gamma_t=0.5 of 16 -> 8 positions
        cfg = pinned("hierarchical", gamma_c=0.5, gamma_t=0.5)
        part = partition(32, 16)
        positions = sample_hierarchical(part, cfg, nd.make_rng(1))
        assert positions.size == 8
        blocks = set(positions // 16)
        assert len(blocks) == 1

    def test_tiny_gamma_t_masks_one_per_block(self):
        cfg = pinned("hierarchical", gamma_c=1.0, gamma_t=0.03)  # floor(0.03*16) = 0 -> max(1, .)
        part = partition(64, 16)
        draw = sample_hierarchical_draw(part, cfg, nd.make_rng(2))
        assert draw.selected_blocks.size == 4
        for k in draw.selected_blocks:
            inside = (draw.positions // 16) == k
            assert inside.sum() == 1

    def test_all_ratios_one_masks_everything(self):
        cfg = pinned("hierarchical", gamma_c=1.0, gamma_t=1.0)
        for T in (32, 20):  # even and ragged
            part = partition(T, 16)
            np.testing.assert_array_equal(sample_hierarchical(part, cfg, nd.make_rng(3)), np.arange(T))

    def test_block_count_can_be_zero(self):
        # gamma_c * n_blocks < 1 selects no block: empty mask
        cfg = pinned("hierarchical", gamma_c=0.3, gamma_t=0.5)
        part = partition(32, 16)  # floor(0.3 * 2) = 0
        assert sample_hierarchical(part, cfg, nd.make_rng(4)).size == 0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(17, 300), st.integers(2, 32))
    def test_algorithm_invariants(self, seed, T, B):
        cfg = MaskingConfig(mode="hierarchical", gamma_c=(0.2, 1.0), gamma_t=(0.1, 1.0))
        part = partition(T, B)
        draw = sample_hierarchical_draw(part, cfg, nd.make_rng(seed))
        # selected-block count is exactly floor(gamma_c * K_blk)
        assert draw.selected_blocks.size == math.floor(draw.gamma_c * part.n_blocks)
        assert np.unique(draw.positions).size == draw.positions.size
        if draw.positions.size:
            assert draw.positions.min() >= 0 and draw.positions.max() < T
            # masked positions fall only inside selected blocks
            assert set(draw.positions // B) <= set(draw.selected_blocks.tolist())
        # per selected block: n_k = max(1, floor(gamma_t * |I_k|)) and the
        # quantization bound on full blocks
        for k in draw.selected_blocks:
            size = len(part.block_positions(int(k)))
            n_k = int(((draw.positions // B) == k).sum())
            assert n_k == max(1, math.floor(draw.gamma_t * size))
            if size == B and draw.gamma_t >= 1.0 / B:
                r_k = n_k / B
                assert 0.0 <= draw.gamma_t - r_k < 1.0 / B

    def test_bit_reproducible(self):
        cfg = MaskingConfig(mode="hierarchical")
        part = partition(100, 16)
        a = sample_hierarchical(part, cfg, nd.make_rng(99))
        b = sample_hierarchical(part, cfg, nd.make_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_dispatch(self):
        part = partition(64, 16)
        assert sample_mask(part, MaskingConfig(mode="hierarchical"), nd.make_rng(0)).size >= 0
        assert sample_mask(part, MaskingConfig(mode="global_bernoulli"), nd.make_rng(0)).size >= 0


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            MaskingConfig(mode="diagonal")

    def test_bad_range(self):
        with pytest.raises(ParameterError):
            MaskingConfig(gamma_g=(0.8, 0.3))
        with pytest.raises(ParameterError):
            MaskingConfig(gamma_c=(-0.1, 0.5))


def mc_oracle_expected_fraction(n_samples=20_000, seed=1234):
    """Monte Carlo of the sampler's counting arithmetic only: draw the two
    ratios and apply the floor rules directly (T=256, B=16, paper ranges)."""
    rng = nd.make_rng(seed)
    gc = rng.uniform(0.5, 1.0, n_samples)
    gt = rng.uniform(0.3, 1.0, n_samples)
    blocks = np.floor(gc * 16)
    per_block = np.maximum(1, np.floor(gt * 16))
    return float((blocks * per_block / 256.0).mean())


class TestMaskStats:
    def test_hierarchical_paper_ranges(self):
        part = partition(256, 16)
        cfg = MaskingConfig(mode="hierarchical", gamma_c=(0.5, 1.0), gamma_t=(0.3, 1.0))
        report = mask_stats(part, cfg, nd.make_rng(5), samples=10_000)
        oracle = mc_oracle_expected_fraction()
        # the sampler's empirical mean matches the direct Monte Carlo of the
        # floor arithmetic; the product formula without floors (0.4875) is
        # reported for reference but overshoots the true expectation
        assert abs(report["empirical_mean_fraction"] - oracle) < 0.02
        assert abs(report["empirical_mean_fraction"] - 0.4444) < 0.02
        assert abs(report["analytic_fraction_no_floor"] - 0.4875) < 1e-12
        assert abs(report["expected_fraction_floor_aware"] - oracle) < 0.01
        assert report["quantization_bound_violations"] == 0
        assert report["full_blocks_checked"] > 0

    def test_exact_floor_aware_expectation(self):
        part = partition(256, 16)
        cfg = MaskingConfig(mode="hierarchical", gamma_c=(0.5, 1.0), gamma_t=(0.3, 1.0))
        # closed form: E[floor(16 gc)] = 11.5, E[max(1, floor(16 gt))] = 9.892857..
        assert abs(expected_fraction_hierarchical(part, cfg) - (11.5 * (110.8 / 11.2) / 256)) < 1e-12

    @pytest.mark.parametrize("T, B, gamma_c, gamma_t, want", [
        (256, 16, (0.5, 1.0), (0.3, 1.0), 0.4444056919642857),
        (100, 16, (0.3, 0.9), (0.1, 0.6), 0.18942857142857142),  # ragged last block
        (64, 8, (0.5, 0.5), (0.2, 1.0), 0.26757812499999994),  # gamma_c with lo == hi
        (50, 4, (0.0, 1.0), (0.0, 0.25), 0.12),
    ])
    def test_floor_aware_expectation_pinned(self, T, B, gamma_c, gamma_t, want):
        cfg = MaskingConfig(mode="hierarchical", gamma_c=gamma_c, gamma_t=gamma_t)
        assert expected_fraction_hierarchical(partition(T, B), cfg) == want

    def test_global_hoeffding_bound(self):
        part = partition(256, 16)
        cfg = pinned("global_bernoulli", gamma_g=0.5)
        report = mask_stats(part, cfg, nd.make_rng(6), samples=2000, hoeffding_delta=0.2)
        bound = 2 * 16 * math.exp(-2 * 16 * 0.2**2)
        assert abs(report["hoeffding_bound"] - bound) < 1e-12
        assert report["hoeffding_tail_frequency"] <= bound

    @pytest.mark.parametrize("T, B, cfg, seed, want", [
        (256, 16, MaskingConfig(mode="hierarchical"), 5, "ee490f00e50f357f8553628c03f31177bcb43ead976f4bc27a100eeead8dca11"),
        (256, 16, MaskingConfig(), 6, "8a272e8ef0a4f9f84e0a32dd748b5b5b4a1a97485e511ad5fc966869912369c8"),
        # ragged last block; gamma_t below 1/B makes quantization violations
        (100, 16, MaskingConfig(mode="hierarchical", gamma_t=(0.01, 0.3)), 7,
         "8db10a1be91c98e77eda9ff4c2eba4df4800f1363466f864243325f8a74a41ba"),
        (100, 16, MaskingConfig(), 8, "4afcccdddefce944b50eaca9d144c977df673eb5f4229ab408611eee0f077271"),
        (50, 4, MaskingConfig(gamma_g=(0.1, 0.9)), 9, "192dcf0ac26fe36142ae7034c2c376dc95cf9616f2ae9f9cdcd6ae3c316a386c"),
        (50, 4, MaskingConfig(mode="hierarchical"), 10, "a5507e4b202d6b3a9ca97c4c1c01693b54aaf59965c3c9d81775c701a6cb3aec"),
        # ranges with lo == hi
        (64, 16, pinned("global_bernoulli", gamma_g=0.5), 11,
         "15a82a97ff19a0d67bf302bedd2bb1c1240633d280a4dd46c6c663be8447f8b6"),
        (64, 16, pinned("hierarchical", gamma_c=0.5, gamma_t=0.25), 12,
         "5fb92b3fcb31932ae5a982475473c995c61ea2a415b8eb735334031f2d315868"),
    ])
    def test_report_pinned(self, T, B, cfg, seed, want):
        # the whole report, byte for byte: any change to a draw, a ratio or
        # a histogram bin moves the digest
        report = mask_stats(partition(T, B), cfg, nd.make_rng(seed), samples=1000)
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == want

    def test_sample_floor_enforced(self):
        with pytest.raises(ParameterError):
            mask_stats(partition(64, 16), MaskingConfig(), nd.make_rng(0), samples=10)
