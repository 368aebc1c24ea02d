import json

import numpy as np
import plain_ops
import pytest

from blockmdm import decode, nd, talker
from blockmdm.errors import CheckpointError, ContractError, InputError, ParameterError
from blockmdm.talker import (KVCache, TalkerConfig, Vocabulary, build_block_causal_mask,
                             check_compatible, init_params, load_checkpoint, param_shapes,
                             save_checkpoint)

SMALL = TalkerConfig(data_tokens=12, src_vocab=6, d=16, d_ff=32, n_layers=2, n_heads=2,
                     B=4, Q=2, T_max=32)


def make_inputs(cfg, T, n_src, seed=0):
    rng = nd.make_rng(seed)
    params = init_params(cfg, rng)
    tokens = rng.integers(0, cfg.V, T)
    source = rng.integers(0, cfg.src_vocab, n_src)
    aligned = talker.align_for_canvas(params, cfg, source, T)
    return params, tokens, source, aligned


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


class TestBlockCausalMask:
    def test_block_one_is_pure_causal(self):
        mask = build_block_causal_mask(5, 1)
        np.testing.assert_array_equal(mask, np.tril(np.ones((5, 5), bool)))

    def test_block_covering_everything_is_all_visible(self):
        assert build_block_causal_mask(6, 6).all()
        assert build_block_causal_mask(6, 100).all()

    def test_t4_b2_rows(self):
        mask = build_block_causal_mask(4, 2)
        np.testing.assert_array_equal(mask[0], [True, True, False, False])
        np.testing.assert_array_equal(mask[1], [True, True, False, False])
        np.testing.assert_array_equal(mask[2], [True, True, True, True])
        np.testing.assert_array_equal(mask[3], [True, True, True, True])

    def test_symmetric_within_block(self):
        mask = build_block_causal_mask(12, 4)
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
        params.head.value.data[:] = 0.0
        out = talker.forward_array(params, SMALL, tokens, aligned)
        np.testing.assert_array_equal(out, 0.0)
        probs = nd.softmax_array(out)
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
        aligned = talker.align_batch(params, SMALL, sources, self.LENGTHS)
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
        aligned = talker.align_batch(params, SMALL, sources, self.LENGTHS)
        stacked = np.concatenate(tokens)
        with pytest.raises(InputError):  # lengths do not cover the rows
            talker.forward_array(params, SMALL, stacked, aligned, lengths=[5, 12, 9, 15])
        with pytest.raises(InputError):  # a sequence longer than T_max
            talker.forward_array(params, SMALL, np.zeros(40, dtype=int),
                                 talker.align_batch(params, SMALL, sources[:2], [33, 7]), lengths=[33, 7])
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
        params.head.value.data[:, eos] = params.head.value.data[:, 0]
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
        aligned = talker.align_batch(params, self.CFG, sources, self.LENGTHS)
        with nd.no_grad():
            want = plain_ops.reference_forward(params, self.CFG, tokens, aligned, lengths=self.LENGTHS)[0].data
        np.testing.assert_array_equal(
            talker.forward_array(params, self.CFG, tokens, aligned, lengths=self.LENGTHS), want)

    def test_stacked_batch_gradients(self):
        params = self.params(3)
        plist = params.ordered()
        tokens, sources = self.batch(3)
        targets = nd.make_rng(4).integers(0, self.CFG.V, len(tokens))
        masked = np.nonzero(tokens == self.CFG.vocab.mask_id)[0]
        grads = []
        for fwd in (talker.forward, lambda *args, **kw: plain_ops.reference_forward(*args, **kw)[0]):
            nd.zero_grads(plist)
            logits = fwd(params, self.CFG, tokens, talker.align_batch(params, self.CFG, sources, self.LENGTHS),
                         lengths=self.LENGTHS)
            nd.masked_cross_entropy(logits, targets, masked).backward()
            grads.append({p.name: p.grad.copy() for p in plist})
        for p in plist:
            np.testing.assert_array_equal(grads[0][p.name], grads[1][p.name], err_msg=p.name)
            assert np.abs(grads[0][p.name]).sum() > 0, p.name


class TestParams:
    def test_shapes_reproducible_from_config(self):
        p1 = init_params(SMALL, nd.make_rng(0))
        p2 = init_params(SMALL, nd.make_rng(99))
        assert [(q.name, q.data.shape) for q in p1.ordered()] == \
               [(q.name, q.data.shape) for q in p2.ordered()]
        assert p1.n_parameters() == p2.n_parameters()

    def test_param_shapes_match_init_params(self):
        params = init_params(SMALL, nd.make_rng(0))
        assert param_shapes(SMALL) == [(q.name, q.data.shape) for q in params.ordered()]

    def test_copy_is_deep(self):
        p = init_params(SMALL, nd.make_rng(0))
        c = p.copy()
        c.head.value.data[:] = 7.0
        assert not np.array_equal(p.head.data, c.head.data)
        assert p.digest() != c.digest()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(SMALL, nd.make_rng(3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, SMALL, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == SMALL
        assert params2.digest() == params.digest()
        for a, b in zip(params.ordered(), params2.ordered()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.data, b.data)

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
