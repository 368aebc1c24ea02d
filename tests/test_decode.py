import numpy as np
import pytest

from blockmdm import nd, talker
from blockmdm.decode import (DecodeConfig, DecodeTrace, canvas_length, decode, decode_block,
                             decode_source, pick_reveal, reveal_step, schedule_step, stream_blocks)
from blockmdm.errors import DecodeError, ParameterError
from plain_ops import row_entropy, softmax

CFG = talker.TalkerConfig(data_tokens=12, src_vocab=6, d=16, d_ff=32, n_layers=2, n_heads=2,
                          B=4, Q=2, T_max=32)


def setup_model(seed=0, cfg=CFG, n_src=4, canvas_blocks=6):
    rng = nd.make_rng(seed)
    params = talker.init_params(cfg, rng)
    source = rng.integers(0, cfg.src_vocab, n_src)
    with nd.no_grad():
        aligned = talker.align_for_canvas(params, cfg, source, canvas_blocks * cfg.B)
    return params, source, aligned


class TestDecodeConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            DecodeConfig(B=0, K=1)
        with pytest.raises(ParameterError):
            DecodeConfig(B=4, K=0)
        with pytest.raises(ParameterError):
            DecodeConfig(B=4, K=1, max_blocks=0)


class TestRevealStep:
    def test_the_softmax_formulas_bit_for_bit(self):
        # confidence: the largest softmax probability; entropy in nats of the
        # revealed rows; logit scales up to 500 make probabilities underflow to 0
        rng = nd.make_rng(23)
        for _ in range(300):
            logits = rng.normal(size=(16, 67)) * 10.0 ** rng.uniform(-1, 2.7)
            masked = np.sort(rng.choice(16, int(rng.integers(1, 17)), replace=False))
            K = int(rng.integers(1, 5))
            j = int(rng.integers(1, K + 1))
            probs = softmax(logits[masked])
            conf = probs.max(axis=1)
            want = pick_reveal(masked, conf, schedule_step(len(masked), j, K))
            p = probs[np.searchsorted(masked, want)]
            entropy = -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)
            for got, w in zip(reveal_step(logits, masked, j, K), (want, conf[np.searchsorted(masked, want)], entropy)):
                np.testing.assert_array_equal(got, w)


def first_block(params, aligned, K):
    """Block 0 denoised in place on a fresh canvas; returns it and its trace."""
    block = np.full(CFG.B, CFG.vocab.mask_id, dtype=np.intp)
    trace = decode_block(block, 0, aligned, params, CFG, K, talker.KVCache(CFG, aligned.T))
    return block, trace


class TestDecodeBlock:
    def test_k_equals_b_reveals_one_per_step(self):
        params, _, aligned = setup_model()
        block, trace = first_block(params, aligned, K=4)
        assert len(trace.steps) == 4
        assert all(len(s.revealed_positions) == 1 for s in trace.steps)
        assert (block != CFG.vocab.mask_id).all()

    def test_k1_reveals_whole_block_in_one_pass(self):
        params, _, aligned = setup_model()
        _, trace = first_block(params, aligned, K=1)
        assert trace.forward_passes == 1
        assert len(trace.steps) == 1 and len(trace.steps[0].revealed_positions) == 4

    def test_block_size_must_match_model(self):
        params, _, aligned = setup_model()
        dcfg = DecodeConfig(B=8, K=2, max_blocks=4, eos_id=CFG.vocab.eos_id)
        with pytest.raises(ParameterError):
            decode(aligned, params, CFG, dcfg)

    def test_nonfinite_logits_raise_decode_error_with_trace(self):
        params, _, aligned = setup_model()
        params.head.value.data[0, 0] = np.nan
        with pytest.raises(DecodeError) as exc:
            first_block(params, aligned, K=2)
        assert exc.value.trace is not None


class TestDecodeStream:
    def test_forward_passes_per_block_equal_k(self):
        params, _, aligned = setup_model()
        for K in (1, 2, 4):
            dcfg = DecodeConfig(B=4, K=K, max_blocks=3, eos_id=CFG.vocab.eos_id)
            result = decode(aligned, params, CFG, dcfg)
            assert all(b.forward_passes == K for b in result.trace.blocks)

    def test_eos_truncates_emitted_sequence(self):
        params, _, aligned = setup_model(seed=1)
        dcfg = DecodeConfig(B=4, K=2, max_blocks=6, eos_id=CFG.vocab.eos_id)
        result = decode(aligned, params, CFG, dcfg)
        if result.stopped_on_eos:
            assert result.tokens[-1] == CFG.vocab.eos_id
            assert (result.tokens[:-1] != CFG.vocab.eos_id).all()
        else:
            assert result.truncated_by_limit

    def test_eos_mid_block_cuts_at_position(self):
        # force the head so EOS wins everywhere: first block ends at its
        # earliest position, i.e. one emitted token
        params, _, aligned = setup_model(seed=2)
        params.head.value.data[:] = 0.0
        params.head.value.data[:, CFG.vocab.eos_id] = 5.0
        dcfg = DecodeConfig(B=4, K=2, max_blocks=6, eos_id=CFG.vocab.eos_id)
        result = decode(aligned, params, CFG, dcfg)
        assert result.stopped_on_eos
        assert len(result.tokens) == 1 and result.tokens[0] == CFG.vocab.eos_id

    def test_eos_at_chosen_position_truncates_there(self):
        # build a position-keyed model: zero everything except one-hot
        # positional rows routed through the head, so position t emits
        # token_plan[t]; EOS planted at position 2 must cut the block there
        params, _, _ = setup_model(seed=8)
        for p in params.ordered():
            p.value.data[:] = 0.0
        token_plan = [3, 7, CFG.vocab.eos_id, 5]
        for t in range(4):
            params.pos_embed.value.data[t, t] = 1.0
            params.head.value.data[t, token_plan[t]] = 1.0
        with nd.no_grad():
            aligned = talker.align_for_canvas(params, CFG, np.array([0]), 24)
        dcfg = DecodeConfig(B=4, K=2, max_blocks=6, eos_id=CFG.vocab.eos_id)
        result = decode(aligned, params, CFG, dcfg)
        assert result.stopped_on_eos
        np.testing.assert_array_equal(result.tokens, [3, 7, CFG.vocab.eos_id])

    def test_no_eos_sets_truncation_flag(self):
        params, _, aligned = setup_model(seed=3)
        params.head.value.data[:] = 0.0
        params.head.value.data[:, 3] = 5.0  # always emit token 3, never EOS
        dcfg = DecodeConfig(B=4, K=2, max_blocks=5, eos_id=CFG.vocab.eos_id)
        result = decode(aligned, params, CFG, dcfg)
        assert result.truncated_by_limit and not result.stopped_on_eos
        assert len(result.tokens) == 5 * 4
        assert result.trace.tokens_emitted == 20

    def test_emitted_blocks_final_under_streaming(self):
        params, _, aligned = setup_model(seed=4)
        dcfg = DecodeConfig(B=4, K=2, max_blocks=4, eos_id=CFG.vocab.eos_id)
        trace = DecodeTrace()
        seen = []
        for block, _ in stream_blocks(aligned, params, CFG, dcfg, trace):
            seen.append(block.copy())
        full = decode(aligned, params, CFG, dcfg)
        np.testing.assert_array_equal(np.concatenate(seen), full.tokens)

    def test_changing_a_chunk_leaves_later_forwards_unchanged(self, monkeypatch):
        # chunks are copies: a consumer that overwrites each one does not
        # change what later forwards read
        params, _, aligned = setup_model(seed=11, canvas_blocks=4)
        eos_averse(params)
        dcfg = DecodeConfig(B=4, K=2, max_blocks=4, eos_id=CFG.vocab.eos_id)
        inputs = []
        full_forward = talker.forward

        def spy(params, cfg, tokens, aligned, cache=None, lengths=None):
            inputs.append(np.array(tokens))
            return full_forward(params, cfg, tokens, aligned, cache=cache, lengths=lengths)

        monkeypatch.setattr(talker, "forward", spy)
        want = decode(aligned, params, CFG, dcfg).tokens
        clean, inputs[:] = list(inputs), []
        seen = []
        for block, _ in stream_blocks(aligned, params, CFG, dcfg, DecodeTrace()):
            seen.append(block.copy())
            block[:] = CFG.vocab.mask_id
        np.testing.assert_array_equal(np.concatenate(seen), want)
        assert len(inputs) == len(clean)
        for got, expected in zip(inputs, clean):
            np.testing.assert_array_equal(got, expected)

    def test_block_output_independent_of_later_blocks(self):
        params, _, aligned = setup_model(seed=5)
        base = None
        for max_blocks in (2, 4):
            dcfg = DecodeConfig(B=4, K=2, max_blocks=max_blocks, eos_id=CFG.vocab.eos_id)
            result = decode(aligned, params, CFG, dcfg)
            if base is None:
                base = result.tokens[:8]
            else:
                np.testing.assert_array_equal(result.tokens[:len(base)], base[:len(result.tokens)])

    def test_deterministic_over_runs(self):
        params, source, aligned = setup_model(seed=6)
        dcfg = DecodeConfig(B=4, K=4, max_blocks=4, eos_id=CFG.vocab.eos_id)
        r1 = decode(aligned, params, CFG, dcfg)
        r2 = decode(aligned, params, CFG, dcfg)
        np.testing.assert_array_equal(r1.tokens, r2.tokens)
        for b1, b2 in zip(r1.trace.blocks, r2.trace.blocks):
            assert [s.revealed_positions for s in b1.steps] == \
                   [s.revealed_positions for s in b2.steps]

    def test_conditioning_shorter_than_block_rejected(self):
        params, source, _ = setup_model()
        with nd.no_grad():
            short = talker.align_for_canvas(params, CFG, source, 2)
        dcfg = DecodeConfig(B=4, K=1, max_blocks=2, eos_id=CFG.vocab.eos_id)
        with pytest.raises(ParameterError):
            decode(short, params, CFG, dcfg)


def greedy_ar_oracle(params, cfg, aligned, max_tokens, eos_id):
    """Greedy next-token decoding: independent reference implementation.

    Grows the sequence one position at a time; each step runs the model on
    the prefix plus a masked slot and commits the argmax.
    """
    mask_id = cfg.vocab.mask_id
    out = []
    for t in range(max_tokens):
        canvas = np.array(out + [mask_id], dtype=np.intp)
        logits = talker.forward_array(params, cfg, canvas, aligned)
        tok = int(logits[t].argmax())
        out.append(tok)
        if tok == eos_id:
            break
    return np.array(out, dtype=np.intp)


class TestARReduction:
    def test_b1_k1_equals_greedy_ar(self):
        cfg = talker.TalkerConfig(data_tokens=12, src_vocab=6, d=16, d_ff=32, n_layers=2,
                                  n_heads=2, B=1, Q=1, T_max=32)
        for seed in range(20):
            rng = nd.make_rng(seed)
            params = talker.init_params(cfg, rng)
            source = rng.integers(0, cfg.src_vocab, 4)
            with nd.no_grad():
                aligned = talker.align_for_canvas(params, cfg, source, 16)
            dcfg = DecodeConfig(B=1, K=1, max_blocks=16, eos_id=cfg.vocab.eos_id)
            blockwise = decode(aligned, params, cfg, dcfg)
            ar = greedy_ar_oracle(params, cfg, aligned, 16, cfg.vocab.eos_id)
            np.testing.assert_array_equal(blockwise.tokens, ar)


class TestDecodeSource:
    def test_builds_conditioning_over_block_budget(self):
        params, source, _ = setup_model(seed=7)
        dcfg = DecodeConfig(B=4, K=2, max_blocks=3, eos_id=CFG.vocab.eos_id)
        result = decode_source(source, params, CFG, dcfg)
        assert len(result.tokens) <= 3 * 4

    def test_dropped_conditioning_rows_counted(self):
        # 3 blocks of Q=2 anchors: a 9-row source drops 3 rows, a 6-row one none
        params, _, _ = setup_model(seed=7)
        dcfg = DecodeConfig(B=4, K=2, max_blocks=3, eos_id=CFG.vocab.eos_id)
        long, short = np.arange(9) % CFG.src_vocab, np.arange(6) % CFG.src_vocab
        assert decode_source(long, params, CFG, dcfg).trace.dropped_rows == 3
        assert decode_source(short, params, CFG, dcfg).trace.dropped_rows == 0
        assert talker.align_batch(params, CFG, [long, short, long], [12, 12, 8]).n_dropped == 3 + 0 + 5


def uncached_reference_decode(aligned, params, cfg, dcfg):
    """Block decoding with one full-canvas forward per step and no cache:
    the plain reference the cached decoder must reproduce. Returns the
    tokens, whether EOS stopped it, and per step the revealed positions,
    their confidences and their entropies."""
    mask_id = cfg.vocab.mask_id
    B, K = dcfg.B, dcfg.K
    canvas = np.empty(0, dtype=np.intp)
    steps = []
    for _ in range(min(dcfg.max_blocks, aligned.T // B)):
        lo = len(canvas)
        canvas = np.concatenate([canvas, np.full(B, mask_id, dtype=np.intp)])
        for j in range(1, K + 1):
            masked = np.nonzero(canvas[lo:] == mask_id)[0]
            if masked.size == 0:
                break
            logits = talker.forward_array(params, cfg, canvas, aligned)[lo:]
            conf = softmax(logits[masked]).max(axis=1)
            reveal = pick_reveal(masked, conf, schedule_step(len(masked), j, K))
            canvas[lo + reveal] = logits[reveal].argmax(axis=1)
            conf_by_pos = dict(zip(masked.tolist(), conf.tolist()))
            steps.append(((lo + reveal).tolist(), [conf_by_pos[int(p)] for p in reveal],
                          [row_entropy(logits[p]) for p in reveal]))
        eos_hits = np.nonzero(canvas[lo:] == dcfg.eos_id)[0]
        if eos_hits.size:
            return canvas[:lo + int(eos_hits[0]) + 1], True, steps
    return canvas, False, steps


def eos_averse(params):
    """Give EOS the head column of token 0, so the two tie and argmax picks
    token 0: decodes then run to the block budget."""
    params.head.value.data[:, CFG.vocab.eos_id] = params.head.value.data[:, 0]
    return params


class TestKVCacheDecode:
    @pytest.mark.parametrize("K", [1, 4, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("canvas_blocks,max_blocks", [(8, 8), (3, 6)])
    def test_tokens_equal_uncached_reference(self, K, seed, canvas_blocks, max_blocks):
        # (3, 6): the conditioning stream, not max_blocks, sets the capacity
        params, _, aligned = setup_model(seed=seed, canvas_blocks=canvas_blocks)
        if seed % 2 == 0:
            eos_averse(params)
        dcfg = DecodeConfig(B=4, K=K, max_blocks=max_blocks, eos_id=CFG.vocab.eos_id)
        result = decode(aligned, params, CFG, dcfg)
        want, stopped, steps = uncached_reference_decode(aligned, params, CFG, dcfg)
        np.testing.assert_array_equal(result.tokens, want)
        assert result.stopped_on_eos == stopped
        got = [s for b in result.trace.blocks for s in b.steps]
        assert [s.revealed_positions for s in got] == [positions for positions, _, _ in steps]
        np.testing.assert_allclose(np.concatenate([s.confidences for s in got]),
                                   np.concatenate([c for _, c, _ in steps]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.concatenate([s.entropies for s in got]),
                                   np.concatenate([h for _, _, h in steps]), rtol=0, atol=1e-12)
        if seed % 2 == 0:
            assert len(result.trace.blocks) == min(canvas_blocks, max_blocks)

    @pytest.mark.parametrize("K", [1, 3])
    def test_cached_logits_match_full_canvas_every_step(self, monkeypatch, K):
        params, _, aligned = setup_model(seed=9, canvas_blocks=6)
        eos_averse(params)
        full_forward = talker.forward
        calls = []

        def spy(params, cfg, tokens, aligned, cache=None, lengths=None):
            offset = cache.rows if cache is not None else 0
            out = full_forward(params, cfg, tokens, aligned, cache=cache, lengths=lengths)
            calls.append((offset, np.array(tokens), out.data.copy()))
            return out

        monkeypatch.setattr(talker, "forward", spy)
        dcfg = DecodeConfig(B=4, K=K, max_blocks=6, eos_id=CFG.vocab.eos_id)
        result = decode(aligned, params, CFG, dcfg)
        assert len(result.trace.blocks) == 6 and len(calls) == 6 * K
        canvas = np.full(aligned.T, -1)
        for offset, tokens, logits in calls:
            end = offset + len(tokens)
            canvas[offset:end] = tokens
            assert (canvas[:end] >= 0).all()
            with nd.no_grad():
                oracle = full_forward(params, CFG, canvas[:end], aligned).data
            np.testing.assert_allclose(logits, oracle[offset:], rtol=0, atol=1e-12)

    def test_forward_rows_are_block_after_first_step(self, monkeypatch):
        params, _, aligned = setup_model(seed=10, canvas_blocks=5)
        eos_averse(params)
        rows = []
        full_forward = talker.forward

        def count_rows(params, cfg, tokens, aligned, cache=None, lengths=None):
            rows.append(len(tokens))
            return full_forward(params, cfg, tokens, aligned, cache=cache, lengths=lengths)

        monkeypatch.setattr(talker, "forward", count_rows)
        dcfg = DecodeConfig(B=4, K=4, max_blocks=5, eos_id=CFG.vocab.eos_id)
        result = decode(aligned, params, CFG, dcfg)
        assert [b.forward_passes for b in result.trace.blocks] == [4] * 5
        # block 0 computes its 4 rows; later blocks add the previous block once
        assert rows == [4, 4, 4, 4] + [8, 4, 4, 4] * 4

    def test_block_after_prefix_without_cache(self):
        # a fresh cache computes the whole prefix in step 1: same block as
        # the streamed decode, which had the prefix cached
        params, _, aligned = setup_model(seed=11, canvas_blocks=4)
        eos_averse(params)
        dcfg = DecodeConfig(B=4, K=2, max_blocks=4, eos_id=CFG.vocab.eos_id)
        tokens = decode(aligned, params, CFG, dcfg).tokens
        canvas = np.concatenate([tokens[:8], np.full(4, CFG.vocab.mask_id, dtype=np.intp)])
        trace = decode_block(canvas, 8, aligned, params, CFG, dcfg.K, talker.KVCache(CFG, aligned.T))
        np.testing.assert_array_equal(canvas[8:], tokens[8:12])
        assert trace.block_index == 2 and trace.forward_passes == 2

    def test_canvas_length_caps_at_t_max(self):
        assert canvas_length(CFG, DecodeConfig(B=4, K=1, max_blocks=3)) == 12
        assert canvas_length(CFG, DecodeConfig(B=4, K=1, max_blocks=100)) == 32
