import hashlib
import json
import os

import numpy as np
import plain_ops
import pytest

from hypothesis import given, settings, strategies as st

from blockmdm import decode, nd, talker
from blockmdm.errors import CheckpointError, ContractError, DimensionError, InputError, ParameterError
from blockmdm.masking import MaskingConfig, partition
from blockmdm.synthtask import TaskSpec, gen_dataset
from blockmdm.talker import (KVCache, TalkerConfig, Vocabulary, check_compatible, init_params,
                             load_checkpoint, param_shapes, save_checkpoint)
from blockmdm.training import OptimizerConfig, train_mdm

BENCH_FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "fixture", "stage1.ckpt")
SMALL = TalkerConfig(data_tokens=12, src_vocab=6, d=16, d_ff=32, n_layers=2, n_heads=2,
                     B=4, Q=2, T_max=32)


def make_inputs(cfg, T, n_src, seed=0):
    rng = nd.make_rng(seed)
    params = init_params(cfg, rng)
    tokens = rng.integers(0, cfg.V, T)
    source = rng.integers(0, cfg.src_vocab, n_src)
    aligned = talker.align_for_canvas(params, cfg, source, T)
    return params, tokens, source, aligned


def stacked_stream(params, cfg, sources, lengths):
    """The conditioning streams of sequences stacked sample-major, as a training batch builds them."""
    parts = [talker.align_for_canvas(params, cfg, source, T) for source, T in zip(sources, lengths)]
    return talker.AlignedSemantics(np.concatenate([a.index for a in parts]), sum(a.n_dropped for a in parts))


class TestVocabulary:
    def test_specials_distinct_and_in_range(self):
        v = Vocabulary.with_specials(64)
        assert (v.size, v.mask_id, v.eos_id, v.pad_id) == (67, 64, 65, 66)
        assert v.data_tokens == 64

    def test_invalid_specials_rejected(self):
        with pytest.raises(ParameterError):
            Vocabulary(size=10, mask_id=3, eos_id=3, pad_id=5)
        with pytest.raises(ParameterError):
            Vocabulary(size=10, mask_id=10, eos_id=1, pad_id=2)


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ParameterError):
            TalkerConfig(d=30, n_heads=4)

    def test_anchor_count_bounded_by_block(self):
        with pytest.raises(ParameterError):
            TalkerConfig(B=4, Q=5)

    def test_q_out_of_range(self):
        with pytest.raises(ParameterError):
            TalkerConfig(B=16, Q=17)
        with pytest.raises(ParameterError):
            TalkerConfig(B=16, Q=0)


def stream(table, source, T, B, Q):
    """The conditioning stream :func:`talker.align_for_canvas` builds, and its
    rows of a source embedding table of the test's choosing, gathered as
    :func:`talker.forward` gathers them."""
    embed = table if isinstance(table, nd.Tensor) else nd.Tensor(np.asarray(table, float), requires_grad=True)
    cfg = TalkerConfig(src_vocab=embed.data.shape[0], d=embed.data.shape[1], n_heads=1, B=B, Q=Q)
    aligned = talker.align_for_canvas(None, cfg, source, T)  # it reads no parameter
    return aligned, nd.take_rows(embed, aligned.index)


def anchors_of(T, B, Q):
    """The positions a source with an id for every position fills, checked
    to hold its ids in order, with the ids beyond them counted as dropped."""
    aligned, _ = stream(np.ones((T, 1)), np.arange(T), T, B, Q)
    anchors = np.nonzero(aligned.index >= 0)[0]
    np.testing.assert_array_equal(aligned.index[anchors], np.arange(len(anchors)))
    np.testing.assert_array_equal(np.delete(aligned.index, anchors), -1)
    assert aligned.n_dropped == T - len(anchors)
    return anchors


class TestAnchors:
    def test_first_q_of_each_block(self):
        np.testing.assert_array_equal(anchors_of(32, 16, Q=4), [0, 1, 2, 3, 16, 17, 18, 19])

    def test_q_equals_b_every_position(self):
        np.testing.assert_array_equal(anchors_of(32, 16, Q=16), np.arange(32))

    def test_ragged_block_intersection(self):
        # last block has 2 positions, so it contributes only those
        np.testing.assert_array_equal(anchors_of(18, 16, Q=4), [0, 1, 2, 3, 16, 17])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data(), st.integers(1, 300), st.integers(1, 40))
    def test_first_min_q_block_size_positions_of_every_block(self, data, T, B):
        Q = data.draw(st.integers(1, B), label="Q")
        part = partition(T, B)
        want = np.concatenate([part.block_positions(k)[:Q] for k in range(part.n_blocks)])
        np.testing.assert_array_equal(anchors_of(T, B, Q), want)


class TestAlign:
    def test_rows_assigned_in_order(self):
        table = np.arange(12.0).reshape(3, 4)
        out, rows = stream(table, [0, 1, 2], 32, B=16, Q=4)
        np.testing.assert_array_equal(out.index[:3], [0, 1, 2])
        np.testing.assert_array_equal(rows.data[[0, 1, 2]], table)
        rest = np.delete(np.arange(32), [0, 1, 2])
        np.testing.assert_array_equal(out.index[rest], -1)
        np.testing.assert_array_equal(rows.data[rest], 0.0)

    def test_spill_into_second_block(self):
        table = np.arange(24.0).reshape(6, 4)
        out, rows = stream(table, np.arange(6), 32, B=16, Q=4)
        np.testing.assert_array_equal(out.index[[16, 17]], [4, 5])
        np.testing.assert_array_equal(rows.data[16], table[4])
        np.testing.assert_array_equal(rows.data[17], table[5])

    def test_empty_states_all_zero(self):
        out, rows = stream(np.ones((1, 4)), [], 32, B=16, Q=4)
        np.testing.assert_array_equal(out.index, np.full(32, -1))
        np.testing.assert_array_equal(rows.data, np.zeros((32, 4)))
        assert out.n_dropped == 0

    def test_surplus_rows_dropped_and_counted(self, caplog):
        out, rows = stream(np.ones((5, 3)), np.arange(5), 16, B=16, Q=2)  # 2 anchors
        np.testing.assert_array_equal(np.nonzero(out.index >= 0)[0], [0, 1])
        np.testing.assert_array_equal(np.nonzero(rows.data.any(axis=1))[0], [0, 1])
        assert out.n_dropped == 3
        assert not caplog.records

    def test_no_future_leakage(self):
        # changing row m only affects the row at anchor m
        table = nd.make_rng(0).normal(size=(8, 4))
        base = stream(table, np.arange(8), 48, B=16, Q=4)[1].data
        table[5] += 3.0
        changed = stream(table, np.arange(8), 48, B=16, Q=4)[1].data
        diff_rows = np.nonzero(np.abs(changed - base).sum(axis=1))[0]
        np.testing.assert_array_equal(diff_rows, [17])  # anchors 0-3 and 16-19

    def test_gradient_flows_to_src_embed(self):
        embed = nd.Tensor(nd.make_rng(1).normal(size=(3, 4)), requires_grad=True)

        def loss():
            _, rows = stream(embed, [0, 1, 2], 16, B=8, Q=2)
            return plain_ops.masked_cross_entropy(rows, np.zeros(16, dtype=int), np.array([0, 8]))

        report = nd.grad_check(loss, {"src_embed": embed})
        assert report.max_rel_err < 1e-6

    def test_src_embed_gradient_is_a_scatter_over_the_anchors_in_order(self):
        rng = nd.make_rng(6)
        embed = nd.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        source = np.array([3, 1, 3, 0, 1, 3, 2])  # repeated ids; 4 anchors, so 3 rows dropped
        out, rows = stream(embed, source, 16, B=8, Q=2)
        assert out.n_dropped == 3
        g = rng.normal(size=(16, 5))
        ((_, grad),) = rows._backward(g)
        want = np.zeros((4, 5))
        np.add.at(want, source[:4], g[[0, 1, 8, 9]])
        np.testing.assert_array_equal(grad, want)

    def test_index_alone_with_grad_enabled(self, monkeypatch):
        # the stream is the source ids at the anchors: no Tensor, no tape, nothing read from params
        def no_tensor(*args, **kwargs):
            raise AssertionError("align_for_canvas built a Tensor")

        params = init_params(SMALL, nd.make_rng(0))
        source = np.array([5, 0, 3, 3, 1, 2, 4])  # B=4, Q=2: anchors 0, 1, 4, 5, 8, 9 of 10
        monkeypatch.setattr(nd.Tensor, "__init__", no_tensor)
        monkeypatch.setattr(nd, "_wrap", no_tensor)
        assert nd.grad_enabled()
        out = talker.align_for_canvas(params, SMALL, source, 10)
        monkeypatch.undo()
        want = np.full(10, -1)
        want[[0, 1, 4, 5, 8, 9]] = source[:6]
        np.testing.assert_array_equal(out.index, want)
        assert out.index.dtype == np.intp and out.T == 10 and out.n_dropped == 1
        assert not any(isinstance(v, nd.Tensor) for v in vars(out).values())


FUSION_PARAMS = ("fusion.W1", "fusion.b1", "fusion.W2", "fusion.b2")


def fusion_params(d, d_ff, rng):
    """Fusion weights ``W1, b1, W2, b2`` drawn as ``talker.init_params`` draws them."""
    arrays = [rng.normal(0.0, 0.02, size=(d, d_ff)), np.zeros(d_ff),
              rng.normal(0.0, 0.02, size=(d_ff, d)), np.zeros(d)]
    return [nd.Tensor(a, requires_grad=True) for a in arrays]


def identity_fusion(d):
    return [nd.Tensor(a, requires_grad=True) for a in (np.eye(d), np.zeros(d), np.eye(d), np.zeros(d))]


class TestFuse:
    def test_identity_weights_pass_relu_of_embeddings(self):
        _, h_prime = stream(np.ones((1, 4)), [], 8, B=8, Q=2)  # all zero
        emb = nd.make_rng(2).normal(size=(8, 4))
        out = talker.fuse(nd.Tensor(emb), h_prime, *identity_fusion(4))
        np.testing.assert_allclose(out.data, np.maximum(emb, 0.0), atol=1e-15)

    def test_all_zero_inputs_zero_output(self):
        _, h_prime = stream(np.ones((1, 4)), [], 8, B=8, Q=2)
        out = talker.fuse(nd.Tensor(np.zeros((8, 4))), h_prime, *identity_fusion(4))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_position_local(self):
        rng = nd.make_rng(3)
        fp = fusion_params(4, 8, rng)
        _, h_prime = stream(rng.normal(size=(2, 4)), [0, 1], 8, B=8, Q=2)
        emb = rng.normal(size=(8, 4))
        base = talker.fuse(nd.Tensor(emb), h_prime, *fp).data
        emb2 = emb.copy()
        emb2[5] += 1.0
        pert = talker.fuse(nd.Tensor(emb2), h_prime, *fp).data
        diff_rows = np.nonzero(np.abs(pert - base).sum(axis=1))[0]
        np.testing.assert_array_equal(diff_rows, [5])

    def test_gradient_vs_finite_differences_4x4(self):
        rng = nd.make_rng(4)
        fp = fusion_params(4, 4, rng)
        embed = nd.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        emb = nd.Tensor(rng.normal(size=(4, 4)))

        def loss():
            _, h_prime = stream(embed, [0, 1], 4, B=4, Q=2)
            out = talker.fuse(emb, h_prime, *fp)
            return nd.cross_entropy_rows(out, np.array([0, 1, 2, 3]))

        report = nd.grad_check(loss, {"src_embed": embed, **dict(zip(FUSION_PARAMS, fp))})
        assert report.max_rel_err < 1e-6

    def test_width_mismatch(self):
        _, h_prime = stream(np.ones((1, 3)), [0], 4, B=4, Q=2)
        with pytest.raises(DimensionError):
            talker.fuse(nd.Tensor(np.zeros((4, 4))), h_prime, *identity_fusion(4))


class TestBlockCausalMask:
    """The oracle's visibility grid, which the plain attention fills from."""

    def test_block_one_is_pure_causal(self):
        mask = plain_ops.block_causal_mask(5, 1)
        np.testing.assert_array_equal(mask, np.tril(np.ones((5, 5), bool)))

    def test_block_covering_everything_is_all_visible(self):
        assert plain_ops.block_causal_mask(6, 6).all()
        assert plain_ops.block_causal_mask(6, 100).all()

    def test_t4_b2_rows(self):
        mask = plain_ops.block_causal_mask(4, 2)
        np.testing.assert_array_equal(mask[0], [True, True, False, False])
        np.testing.assert_array_equal(mask[1], [True, True, False, False])
        np.testing.assert_array_equal(mask[2], [True, True, True, True])
        np.testing.assert_array_equal(mask[3], [True, True, True, True])

    def test_symmetric_within_block(self):
        mask = plain_ops.block_causal_mask(12, 4)
        for t in range(12):
            for u in range(12):
                if t // 4 == u // 4:
                    assert mask[t, u] and mask[u, t]


class TestForward:
    def test_block_causality_bit_identical(self):
        params, tokens, _, aligned = make_inputs(SMALL, T=16, n_src=4)
        base = talker.forward_array(params, SMALL, tokens, aligned)
        rng = nd.make_rng(42)
        for _ in range(25):
            k = int(rng.integers(0, 3))  # keep blocks <= k, perturb beyond
            lo = (k + 1) * SMALL.B
            perturbed = tokens.copy()
            span = rng.integers(0, SMALL.V, 16 - lo)
            perturbed[lo:] = span
            out = talker.forward_array(params, SMALL, perturbed, aligned)
            np.testing.assert_array_equal(out[:lo], base[:lo])

    def test_intra_block_bidirectional(self):
        # changing the LAST position of a block must move logits at the first
        params, tokens, _, aligned = make_inputs(SMALL, T=8, n_src=2)
        base = talker.forward_array(params, SMALL, tokens, aligned)
        perturbed = tokens.copy()
        perturbed[3] = (perturbed[3] + 1) % SMALL.V  # block 0 is positions 0..3
        out = talker.forward_array(params, SMALL, perturbed, aligned)
        assert np.abs(out[0] - base[0]).max() > 0

    def test_fully_masked_input_finite(self):
        params, _, _, aligned = make_inputs(SMALL, T=16, n_src=4)
        tokens = np.full(16, SMALL.vocab.mask_id)
        out = talker.forward_array(params, SMALL, tokens, aligned)
        assert np.isfinite(out).all()

    def test_zero_head_gives_uniform_confidence(self):
        params, tokens, _, aligned = make_inputs(SMALL, T=8, n_src=2)
        params["head"].data[:] = 0.0
        out = talker.forward_array(params, SMALL, tokens, aligned)
        np.testing.assert_array_equal(out, 0.0)
        probs = plain_ops.softmax(out)
        np.testing.assert_allclose(probs, 1.0 / SMALL.V, atol=1e-15)

    def test_token_out_of_vocab_rejected(self):
        params, tokens, _, aligned = make_inputs(SMALL, T=8, n_src=2)
        bad = tokens.copy()
        bad[0] = SMALL.V
        with pytest.raises(InputError):
            talker.forward_array(params, SMALL, bad, aligned)

    def test_length_beyond_t_max_rejected(self):
        params, _, source, _ = make_inputs(SMALL, T=8, n_src=2)
        aligned = talker.align_for_canvas(params, SMALL, source, 32)
        with pytest.raises(InputError):
            talker.forward_array(params, SMALL, np.zeros(33, dtype=int), aligned)

    def test_conditioning_shorter_than_tokens_rejected(self):
        params, tokens, source, _ = make_inputs(SMALL, T=16, n_src=2)
        short = talker.align_for_canvas(params, SMALL, source, 8)
        with pytest.raises(InputError):
            talker.forward_array(params, SMALL, tokens, short)

    def test_conditioning_prefix_slicing_consistent(self):
        # logits with a length-T canvas equal those using a longer stream cut to T
        params, tokens, source, aligned16 = make_inputs(SMALL, T=16, n_src=4)
        aligned32 = talker.align_for_canvas(params, SMALL, source, 32)
        a = talker.forward_array(params, SMALL, tokens, aligned16)
        b = talker.forward_array(params, SMALL, tokens, aligned32)
        np.testing.assert_array_equal(a, b)


class TestKVCache:
    def test_cached_rows_match_full_forward(self):
        # blocks 0-1, then 2, then 3 through one cache; every computed row
        # agrees with the full-canvas forward
        params, tokens, _, aligned = make_inputs(SMALL, T=16, n_src=4)
        full = talker.forward_array(params, SMALL, tokens, aligned)
        cache = KVCache(SMALL, aligned.T)
        for lo, hi in ((0, 8), (8, 12), (12, 16)):
            out = talker.forward_array(params, SMALL, tokens[lo:hi], aligned, cache=cache)
            assert out.shape == (hi - lo, SMALL.V)
            np.testing.assert_allclose(out, full[lo:hi], rtol=0, atol=1e-12)
            cache.commit(hi - lo)
        assert cache.rows == 16

    def test_uncommitted_rows_are_recomputed(self):
        # a second pass at the same offset replaces the rows of the first
        params, tokens, _, aligned = make_inputs(SMALL, T=8, n_src=2)
        cache = KVCache(SMALL, aligned.T)
        talker.forward_array(params, SMALL, tokens[:4], aligned, cache=cache)
        cache.commit(4)
        talker.forward_array(params, SMALL, np.full(4, SMALL.vocab.mask_id), aligned, cache=cache)
        out = talker.forward_array(params, SMALL, tokens[4:], aligned, cache=cache)
        full = talker.forward_array(params, SMALL, tokens, aligned)
        np.testing.assert_allclose(out, full[4:], rtol=0, atol=1e-12)

    def test_cache_with_grad_enabled_is_contract_error(self):
        params, tokens, _, aligned = make_inputs(SMALL, T=8, n_src=2)
        with pytest.raises(ContractError):
            talker.forward(params, SMALL, tokens, aligned, cache=KVCache(SMALL, aligned.T))

    def test_commit_only_written_whole_blocks(self):
        params, tokens, _, aligned = make_inputs(SMALL, T=8, n_src=2)
        cache = KVCache(SMALL, aligned.T)
        with pytest.raises(ContractError):
            cache.commit(4)  # nothing written yet
        talker.forward_array(params, SMALL, tokens, aligned, cache=cache)
        with pytest.raises(ContractError):
            cache.commit(3)  # part of a block
        with pytest.raises(ContractError):
            cache.commit(12)  # beyond the written rows
        cache.commit(8)
        assert cache.rows == 8

    def test_capacity_and_conditioning_checked(self):
        params, tokens, _, aligned = make_inputs(SMALL, T=8, n_src=2)
        with pytest.raises(InputError):
            talker.forward_array(params, SMALL, tokens, aligned, cache=KVCache(SMALL, 4))
        cache = KVCache(SMALL, 16)
        talker.forward_array(params, SMALL, tokens[:4], aligned, cache=cache)
        cache.commit(4)
        with pytest.raises(InputError):  # rows 4..12 exceed the 8-row stream
            talker.forward_array(params, SMALL, np.zeros(8, dtype=int), aligned, cache=cache)


class TestBatchedForward:
    """The stacked-rows forward against its oracle, one plain forward per sequence."""

    LENGTHS = (5, 12, 9, 16)  # ragged last blocks at B=4, and a sequence of T_max/2

    def batch(self, seed=0):
        rng = nd.make_rng(seed)
        params = init_params(SMALL, rng)
        tokens = [rng.integers(0, SMALL.V, T) for T in self.LENGTHS]
        sources = [rng.integers(0, SMALL.src_vocab, n) for n in (1, 3, 2, 5)]
        return params, tokens, sources

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stacked_logits_equal_per_sample_forward(self, seed):
        params, tokens, sources = self.batch(seed)
        aligned = stacked_stream(params, SMALL, sources, self.LENGTHS)
        stacked = talker.forward_array(params, SMALL, np.concatenate(tokens), aligned,
                                       lengths=self.LENGTHS)
        starts = np.cumsum((0,) + self.LENGTHS)
        for i, (toks, source) in enumerate(zip(tokens, sources)):
            one = talker.forward_array(params, SMALL, toks,
                                       talker.align_for_canvas(params, SMALL, source, len(toks)))
            np.testing.assert_array_equal(stacked[starts[i]:starts[i + 1]], one)

    def test_batch_of_one_is_the_plain_forward(self):
        params, tokens, sources = self.batch()
        aligned = talker.align_for_canvas(params, SMALL, sources[1], 12)
        np.testing.assert_array_equal(
            talker.forward_array(params, SMALL, tokens[1], aligned, lengths=[12]),
            talker.forward_array(params, SMALL, tokens[1], aligned))

    def test_lengths_checked(self):
        params, tokens, sources = self.batch()
        aligned = stacked_stream(params, SMALL, sources, self.LENGTHS)
        stacked = np.concatenate(tokens)
        with pytest.raises(InputError):  # lengths do not cover the rows
            talker.forward_array(params, SMALL, stacked, aligned, lengths=[5, 12, 9, 15])
        with pytest.raises(InputError):  # a sequence longer than T_max
            talker.forward_array(params, SMALL, np.zeros(40, dtype=int),
                                 stacked_stream(params, SMALL, sources[:2], [33, 7]), lengths=[33, 7])
        with pytest.raises(InputError):  # the stream covers other rows than the tokens
            talker.forward_array(params, SMALL, stacked[:26], aligned, lengths=[5, 12, 9])
        with pytest.raises(ContractError):
            talker.forward_array(params, SMALL, stacked, aligned, lengths=self.LENGTHS,
                                 cache=KVCache(SMALL, 64))


class TestPlainOracle:
    """``talker.forward`` against the forward in plain formulas
    (``tests/plain_ops.py``): bit-identical logits on the full canvas, on
    every step of a cached stream and on a stacked batch, and bit-identical
    parameter gradients of a stacked training batch."""

    # the 67-column head and the 16-row blocks of the desk-scale model, fewer layers
    CFG = TalkerConfig(data_tokens=64, src_vocab=32, d=32, d_ff=64, n_layers=2, n_heads=4,
                       B=16, Q=4, T_max=128)
    LENGTHS = (5, 16, 33, 20)

    def params(self, seed=0):
        params = init_params(self.CFG, nd.make_rng(seed), std=0.3)
        eos = self.CFG.vocab.eos_id  # tie EOS with token 0, so decodes run to the block budget
        params["head"].data[:, eos] = params["head"].data[:, 0]
        return params

    def tokens(self, rng, T):
        tokens = rng.integers(0, self.CFG.V, T)
        tokens[rng.random(T) < 0.4] = self.CFG.vocab.mask_id
        return tokens

    @pytest.mark.parametrize("T", [1, 57, 64, 128])
    def test_full_canvas(self, T):
        rng = nd.make_rng(T)
        params = self.params(1)
        tokens = self.tokens(rng, T)
        aligned = talker.align_for_canvas(params, self.CFG, rng.integers(0, 32, 9), T)
        with nd.no_grad():
            want = plain_ops.reference_forward(params, self.CFG, tokens, aligned)[0].data
        np.testing.assert_array_equal(talker.forward_array(params, self.CFG, tokens, aligned), want)
        longer = talker.align_for_canvas(params, self.CFG, rng.integers(0, 32, 9), 128)
        with nd.no_grad():
            want = plain_ops.reference_forward(params, self.CFG, tokens, longer)[0].data
        np.testing.assert_array_equal(talker.forward_array(params, self.CFG, tokens, longer), want)

    @pytest.mark.parametrize("K", [1, 4])
    def test_every_step_of_a_cached_stream(self, monkeypatch, K):
        params = self.params(2)
        forward, calls = talker.forward, []

        def spy(params, cfg, tokens, aligned, cache=None, lengths=None):
            offset = cache.rows
            out = forward(params, cfg, tokens, aligned, cache=cache, lengths=lengths)
            calls.append((offset, np.array(tokens), out.data.copy()))
            return out

        monkeypatch.setattr(talker, "forward", spy)
        aligned = talker.align_for_canvas(params, self.CFG, np.arange(11), 128)
        dcfg = decode.DecodeConfig(B=16, K=K, max_blocks=8, eos_id=self.CFG.vocab.eos_id)
        decode.decode(aligned, params, self.CFG, dcfg)
        assert len(calls) == 8 * K
        assert {len(tokens) for _, tokens, _ in calls} == {16, 32}  # 32: a block after the first, at its first step
        kv = None
        with nd.no_grad():
            for offset, tokens, logits in calls:
                prefix = None if offset == 0 else [(k[:offset], v[:offset]) for k, v in kv]
                want, kv = plain_ops.reference_forward(params, self.CFG, tokens, aligned, prefix=prefix)
                np.testing.assert_array_equal(logits, want.data)

    def batch(self, seed):
        rng = nd.make_rng(seed)
        tokens = np.concatenate([self.tokens(rng, T) for T in self.LENGTHS])
        sources = [rng.integers(0, 32, n) for n in (2, 5, 13, 8)]
        return tokens, sources

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stacked_batch(self, seed):
        params = self.params(seed)
        tokens, sources = self.batch(seed)
        aligned = stacked_stream(params, self.CFG, sources, self.LENGTHS)
        with nd.no_grad():
            want = plain_ops.reference_forward(params, self.CFG, tokens, aligned, lengths=self.LENGTHS)[0].data
        np.testing.assert_array_equal(
            talker.forward_array(params, self.CFG, tokens, aligned, lengths=self.LENGTHS), want)

    def test_stacked_batch_gradients(self):
        params = self.params(3)
        plist = list(params.values())
        tokens, sources = self.batch(3)
        targets = nd.make_rng(4).integers(0, self.CFG.V, len(tokens))
        masked = np.nonzero(tokens == self.CFG.vocab.mask_id)[0]
        grads = []
        for fwd in (talker.forward, lambda *args, **kw: plain_ops.reference_forward(*args, **kw)[0]):
            nd.zero_grads(plist)
            logits = fwd(params, self.CFG, tokens, stacked_stream(params, self.CFG, sources, self.LENGTHS),
                         lengths=self.LENGTHS)
            plain_ops.masked_cross_entropy(logits, targets, masked).backward()
            grads.append({name: p.grad.copy() for name, p in params.items()})
        for name in params:
            np.testing.assert_array_equal(grads[0][name], grads[1][name], err_msg=name)
            assert np.abs(grads[0][name]).sum() > 0, name


class TestParams:
    def test_shapes_reproducible_from_config(self):
        p1 = init_params(SMALL, nd.make_rng(0))
        p2 = init_params(SMALL, nd.make_rng(99))
        assert [(name, q.data.shape) for name, q in p1.items()] == \
               [(name, q.data.shape) for name, q in p2.items()]
        assert sum(q.data.size for q in p1.values()) == sum(q.data.size for q in p2.values())

    def test_param_shapes_match_init_params(self):
        params = init_params(SMALL, nd.make_rng(0))
        assert param_shapes(SMALL) == [(name, q.data.shape) for name, q in params.items()]

    def test_keys_are_table_names_after_init_load_and_copy(self, tmp_path):
        names = [name for name, _ in param_shapes(SMALL)]
        params = init_params(SMALL, nd.make_rng(0))
        save_checkpoint(tmp_path / "model.ckpt", SMALL, params)
        for p in (params, load_checkpoint(tmp_path / "model.ckpt")[1], params.copy()):
            assert list(p) == names
            assert all(q.requires_grad for q in p.values())

    def test_layer_gives_its_weights_in_table_order(self):
        params = init_params(SMALL, nd.make_rng(0))
        want = [params[f"layer1.{name}"] for name in talker.LAYER_PARAMS]
        assert len(params.layer(1)) == len(want) and all(a is b for a, b in zip(params.layer(1), want))

    @pytest.mark.parametrize("seed, digest", [
        (0, "11c3ce159eccc4cd381ab520ba197f14b3ced7089593cfeab433e997f63ec528"),
        (5, "a0321d9282f8ef890da338ed59af9fbcdc156efef6d58093a2c3da0b7f9a056f"),
    ])
    def test_init_draws_pinned(self, seed, digest):
        # the benchmark's model config: any change to the draw order or the
        # distributions of init_params changes these digests
        cfg = TalkerConfig(data_tokens=64, src_vocab=256, d=64, d_ff=256, n_layers=4, n_heads=4,
                           B=16, Q=4, T_max=256)
        assert plain_ops.param_digest(init_params(cfg, nd.make_rng(seed))) == digest

    def test_copy_is_deep(self):
        p = init_params(SMALL, nd.make_rng(0))
        c = p.copy()
        c["head"].data[:] = 7.0
        assert not np.array_equal(p["head"].data, c["head"].data)
        assert plain_ops.param_digest(p) != plain_ops.param_digest(c)

    def test_copy_shares_no_buffer(self):
        # train_distill's student is a copy of the start, which its teacher reads
        p = init_params(SMALL, nd.make_rng(0))
        for q in p.values():
            q.grad[:] = 1.0
        c = p.copy()
        assert plain_ops.param_digest(c) == plain_ops.param_digest(p) and list(c) == list(p)
        for a, b in zip(p.values(), c.values()):
            for x, y in ((a.data, b.data), (a.grad, b.grad)):
                assert not np.shares_memory(x, y)
            assert b.requires_grad and not b.grad.any()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(SMALL, nd.make_rng(3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, SMALL, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == SMALL
        assert plain_ops.param_digest(params2) == plain_ops.param_digest(params) and list(params2) == list(params)
        for a, b in zip(params.values(), params2.values()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_loaded_params_train_in_place(self, tmp_path):
        # the loaded arrays are writable copies, not views of the file's bytes
        spec = TaskSpec(source_vocab=SMALL.src_vocab, data_tokens=SMALL.data_tokens, upsample=2, grammar_seed=1)
        ds = gen_dataset(spec, 8, (2, 5), nd.make_rng(0), eos_id=SMALL.vocab.eos_id)
        save_checkpoint(tmp_path / "model.ckpt", SMALL, init_params(SMALL, nd.make_rng(4)))
        loaded = load_checkpoint(tmp_path / "model.ckpt")[1]
        opt = OptimizerConfig(batch_size=2)
        masks = MaskingConfig(mode="global_bernoulli")
        want = train_mdm(SMALL, ds, masks, opt, steps=1, seed=0, params=loaded.copy())
        got = train_mdm(SMALL, ds, masks, opt, steps=1, seed=0, params=loaded)
        assert got.params is loaded and got.curve == want.curve
        assert plain_ops.param_digest(loaded) == plain_ops.param_digest(want.params)

    def test_fixture_resaves_byte_identical(self, tmp_path):
        # pins the checkpoint order against the committed benchmark fixture
        cfg, params = load_checkpoint(BENCH_FIXTURE)
        save_checkpoint(tmp_path / "resaved.ckpt", cfg, params)
        data = (tmp_path / "resaved.ckpt").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            "c855f43f5396c4191149d7dab11d670f97917c309b4683d83449fa964b104bab"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params = init_params(SMALL, nd.make_rng(3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, SMALL, params)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_compatibility_check_names_fields(self):
        other = TalkerConfig(data_tokens=12, src_vocab=6, d=32, d_ff=32, n_layers=2,
                             n_heads=2, B=8, Q=2, T_max=32)
        with pytest.raises(CheckpointError) as exc:
            check_compatible(SMALL, other)
        assert "d: expected 16, got 32" in str(exc.value)
        assert "B: expected 4, got 8" in str(exc.value)

    def test_forward_identical_after_round_trip(self, tmp_path):
        params, tokens, source, aligned = make_inputs(SMALL, T=16, n_src=4)
        base = talker.forward_array(params, SMALL, tokens, aligned)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, SMALL, params)
        _, params2 = load_checkpoint(path)
        aligned2 = talker.align_for_canvas(params2, SMALL, source, 16)
        np.testing.assert_array_equal(
            talker.forward_array(params2, SMALL, tokens, aligned2), base)


def rewrite_checkpoint(path, edit_header=None, body_suffix=b""):
    """Rewrite a saved checkpoint with an edited header and/or extra body bytes."""
    magic, header, body = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    if edit_header is not None:
        edit_header(header)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + body + body_suffix)


class TestCheckpointErrors:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, SMALL, init_params(SMALL, nd.make_rng(3)))
        return path

    def test_header_without_params(self, path):
        rewrite_checkpoint(path, lambda h: h.pop("params"))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [{"name": "src_embed"}, {"shape": [6, 16]}, 7, None])
    def test_malformed_manifest_entry(self, path, entry):
        rewrite_checkpoint(path, lambda h: h["params"].__setitem__(0, entry))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_transposed_shape_names_parameter(self, path):
        rewrite_checkpoint(path, lambda h: h["params"][0].__setitem__("shape", [16, 6]))
        with pytest.raises(CheckpointError, match="'src_embed'"):
            load_checkpoint(path)

    def test_wrong_name_and_count(self, path):
        rewrite_checkpoint(path, lambda h: h["params"][1].__setitem__("name", "fusion.W9"))
        with pytest.raises(CheckpointError, match="fusion.W9"):
            load_checkpoint(path)
        rewrite_checkpoint(path, lambda h: h["params"].pop())
        with pytest.raises(CheckpointError, match="lists"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [("d", 16.0), ("n_layers", 0), ("d", "16"), ("n_heads", 3)])
    def test_bad_config_values(self, path, field, value):
        rewrite_checkpoint(path, lambda h: h["config"].__setitem__(field, value))
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, path):
        rewrite_checkpoint(path, body_suffix=b"\0" * 8)
        with pytest.raises(CheckpointError, match="after the last parameter"):
            load_checkpoint(path)
