import math

import numpy as np
import plain_ops
import pytest
from hypothesis import given, settings, strategies as st

from blockmdm import nd
from blockmdm.errors import DimensionError, NonFiniteError, ParameterError
from blockmdm.training import DistillConfig, distill_loss


def tensors(*arrays):
    return [nd.Tensor(a) for a in arrays]


def softmax_rows(z):
    """Row softmax of a Tensor, in the plain formula."""
    return nd.Tensor(plain_ops.softmax(z.data))


class TestMatmul:
    def test_identity(self):
        a = nd.Tensor(np.arange(9.0).reshape(3, 3))
        out = nd.matmul(nd.Tensor(np.eye(3)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_annihilator(self):
        a = nd.Tensor(np.arange(6.0).reshape(2, 3))
        out = nd.matmul(a, nd.Tensor(np.zeros((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_hand_arithmetic(self):
        out = nd.matmul(nd.Tensor([[1.0, 2.0], [3.0, 4.0]]), nd.Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            nd.matmul(nd.Tensor(np.ones((2, 3))), nd.Tensor(np.ones((2, 3))))

    def test_gradients_both_inputs(self):
        rng = nd.make_rng(0)
        a = nd.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = nd.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        tgt = np.array([0, 1, 0])

        def loss():
            return nd.cross_entropy_rows(nd.matmul(a, b), tgt)

        report = nd.grad_check(loss, {"a": a, "b": b})
        assert report.max_rel_err < 1e-6


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows(nd.Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_derived_scalar_oracle(self):
        # independent scalar exp/sum computation
        row = [2.0, 0.0, 0.0]
        exps = [math.exp(v) for v in row]
        expected = [e / sum(exps) for e in exps]
        assert abs(expected[0] - 0.78699) < 1e-5
        out = softmax_rows(nd.Tensor([row]))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_shift_invariance_bit_exact(self):
        # values chosen so z + c is exact in float64: shift cancellation is
        # then bitwise and the stabilized softmax gives identical outputs
        rng = nd.make_rng(1)
        z = np.round(rng.normal(size=(4, 8)) * 2**20) / 2**20
        for c in (1.0, 64.0, -512.0):
            a = softmax_rows(nd.Tensor(z)).data
            b = softmax_rows(nd.Tensor(z + c)).data
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_sum_to_one_and_nonnegative(self, seed):
        z = nd.make_rng(seed).normal(scale=30.0, size=(5, 9))
        p = softmax_rows(nd.Tensor(z)).data
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_logits_stable(self):
        p = softmax_rows(nd.Tensor([[1e4, 0.0, -1e4]])).data
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)


class TestMaskedCrossEntropy:
    """``nd.cross_entropy_rows`` on rows gathered at the masked positions,
    as ``training.distill_loss`` gathers them."""

    def test_perfect_prediction_zero_loss(self):
        logits = nd.Tensor([[1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0]])
        loss = nd.cross_entropy_rows(logits, np.array([0, 1]))
        assert loss.item() == 0.0

    def test_uniform_logits_analytic(self):
        logits = nd.Tensor(np.zeros((3, 4)))
        loss = plain_ops.masked_cross_entropy(logits, np.array([2, 0, 1]), np.array([1]))
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_gradient_zero_at_unmasked_rows(self):
        rng = nd.make_rng(2)
        logits = nd.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        loss = plain_ops.masked_cross_entropy(logits, np.array([0, 1, 2, 3, 0]), np.array([1, 3]))
        loss.backward()
        np.testing.assert_array_equal(logits.grad[[0, 2, 4]], 0.0)
        assert np.abs(logits.grad[[1, 3]]).sum() > 0

    def test_empty_mask_zero_loss_zero_grad(self):
        logits = nd.Tensor(np.ones((3, 4)), requires_grad=True)
        loss = plain_ops.masked_cross_entropy(logits, np.array([0, 1, 2]), np.array([], dtype=int))
        assert loss.item() == 0.0
        loss.backward()
        np.testing.assert_array_equal(logits.grad, 0.0)

    def test_bad_target_rejected(self):
        logits = nd.Tensor(np.zeros((2, 4)))
        with pytest.raises(ParameterError):
            nd.cross_entropy_rows(logits, np.array([0, 7]))
        with pytest.raises(DimensionError):  # one target per row
            nd.cross_entropy_rows(logits, np.array([0]))

    @pytest.mark.parametrize("position", [-1, 3])
    def test_position_outside_rows_rejected(self, position):
        # the loss's one gather would read -1 as a zero row
        logits = nd.Tensor(np.zeros((3, 4)))
        with pytest.raises(ParameterError, match=r"\[0, 3\)"):
            distill_loss(logits, np.array([0, 1, 2]), np.array([0, position]), None, DistillConfig())


class TestTakeRows:
    def test_minus_one_is_a_zero_row_that_sends_no_gradient(self):
        rng = nd.make_rng(5)
        src = nd.Tensor(-np.abs(rng.normal(size=(5, 3))), requires_grad=True)
        index = np.array([2, -1, 0, 2, -1, 1])
        out = nd.take_rows(src, index)
        valid = index >= 0
        np.testing.assert_array_equal(out.data[valid], src.data[index[valid]])
        assert (out.data[~valid] == 0.0).all() and not np.signbit(out.data[~valid]).any()
        g = rng.normal(size=(6, 3))
        ((parent, grad),) = out._backward(g)
        want = np.zeros((5, 3))
        np.add.at(want, index[valid], g[valid])
        assert parent is src
        np.testing.assert_array_equal(grad, want)  # rows 3 and 4 get none

    @pytest.mark.parametrize("index", [[0, -2], [0, 5], [[0, 1]]])
    def test_index_outside_rows_or_not_1d_rejected(self, index):
        with pytest.raises(DimensionError):
            nd.take_rows(nd.Tensor(np.zeros((5, 3))), index)


class TestKLRows:
    def test_identical_logits_zero(self):
        z = nd.make_rng(3).normal(size=(4, 6))
        for direction in ("reverse", "forward"):
            assert abs(nd.kl_rows(nd.Tensor(z), z, 2.0, direction).item()) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_nonnegative(self, seed):
        rng = nd.make_rng(seed)
        s, t = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        for direction in ("reverse", "forward"):
            assert nd.kl_rows(nd.Tensor(s), t, 1.7, direction).item() >= -1e-12

    def test_gradient_vs_finite_differences_10_random_pairs(self):
        for seed in range(10):
            rng = nd.make_rng(seed)
            s = nd.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
            t = rng.normal(size=(3, 6))
            for direction in ("reverse", "forward"):
                report = nd.grad_check(lambda: nd.kl_rows(s, t, 2.0, direction), {"s": s},
                                       max_coords_per_param=18)
                assert report.max_rel_err < 1e-6, (seed, direction, report)

    def test_reverse_weighted_by_student_probs(self):
        # a coordinate where the student has ~zero mass gets ~zero reverse-KL
        # gradient even though the teacher has mass there; forward KL does not
        student = nd.Tensor(np.array([[0.0, 0.0, -40.0]]), requires_grad=True)
        teacher = np.array([[0.0, 0.0, 5.0]])
        loss = nd.kl_rows(student, teacher, 1.0, "reverse")
        loss.backward()
        assert abs(student.grad[0, 2]) < 1e-12
        student2 = nd.Tensor(np.array([[0.0, 0.0, -40.0]]), requires_grad=True)
        nd.kl_rows(student2, teacher, 1.0, "forward").backward()
        assert abs(student2.grad[0, 2]) > 1e-3

    def test_tau_validation(self):
        z = nd.Tensor(np.zeros((2, 3)))
        with pytest.raises(ParameterError):
            nd.kl_rows(z, np.zeros((2, 3)), 0.0)
        with pytest.raises(ParameterError):
            nd.kl_rows(z, np.zeros((2, 3)), 1.0, "sideways")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nd.kl_rows(nd.Tensor(np.zeros((2, 3))), np.zeros((2, 4)), 1.0)


def scalar_attention_oracle(q, k, v, mask):
    """Independent scalar implementation of masked attention."""
    T, d = q.shape
    out = np.zeros((T, d))
    for t in range(T):
        scores = []
        for u in range(len(k)):
            if mask[t][u]:
                scores.append((u, sum(q[t][i] * k[u][i] for i in range(d)) / math.sqrt(d)))
        m = max(s for _, s in scores)
        weights = [(u, math.exp(s - m)) for u, s in scores]
        z = sum(w for _, w in weights)
        for u, w in weights:
            for i in range(d):
                out[t][i] += (w / z) * v[u][i]
    return out


class TestMaskedAttention:
    def test_all_true_identical_values(self):
        rng = nd.make_rng(4)
        q, k = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        v = np.tile([[1.5, -2.0]], (3, 1))
        out = nd.masked_attention(*tensors(q, k, v), [(3, 3)], 3)
        np.testing.assert_allclose(out.data, v, atol=1e-12)

    def test_identity_mask_is_self_attention(self):
        # four one-row sequences: each row sees only itself
        rng = nd.make_rng(5)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        out = nd.masked_attention(*tensors(q, k, v), [(1, 1)] * 4, 2)
        np.testing.assert_allclose(out.data, v, atol=1e-12)

    def test_hand_case_vs_scalar_oracle(self):
        # the last 3 of 5 positions at B=2: positions 2 and 3 share a block
        # and see keys 0..3, position 4 sees all five
        rng = nd.make_rng(6)
        q, k, v = rng.normal(size=(3, 1)), rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        mask = np.array([[True] * 4 + [False], [True] * 4 + [False], [True] * 5])
        out = nd.masked_attention(*tensors(q, k, v), [(3, 5)], 2)
        np.testing.assert_allclose(out.data, scalar_attention_oracle(q, k, v, mask), atol=1e-10)

    def test_masked_positions_zero_weight(self):
        # perturbing a later row of k/v under B=1 leaves the earlier rows bit-identical
        rng = nd.make_rng(7)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        base = nd.masked_attention(*tensors(q, k, v), [(4, 4)], 1).data
        k2, v2 = k.copy(), v.copy()
        k2[3], v2[3] = 99.0, -99.0  # row 3 invisible to rows 0..2
        pert = nd.masked_attention(*tensors(q, k2, v2), [(4, 4)], 1).data
        np.testing.assert_array_equal(base[:3], pert[:3])

    def test_rectangular_equals_last_rows_of_square(self):
        # queries for the last 3 of 7 rows over all 7 keys: the rows a
        # K/V-cached forward computes, starting inside a block of 3
        rng = nd.make_rng(12)
        q, k, v = (rng.normal(size=(7, 4)) for _ in range(3))
        full = nd.masked_attention(*tensors(q, k, v), [(7, 7)], 3).data
        rect = nd.masked_attention(*tensors(q[4:], k, v), [(3, 7)], 3).data
        np.testing.assert_allclose(rect, full[4:], rtol=0, atol=1e-14)

    def test_rectangular_gradcheck(self):
        rng = nd.make_rng(13)
        q = nd.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        k = nd.Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        v = nd.Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        tgt = np.array([0, 3, 1])

        def loss():
            out = nd.masked_attention(q, k, v, [(3, 7)], 2)
            return nd.cross_entropy_rows(out, tgt)

        report = nd.grad_check(loss, {"q": q, "k": k, "v": v}, epsilon=1e-6, max_coords_per_param=28)
        assert report.max_rel_err < 1e-5, str(report)

    def test_rectangular_shape_errors(self):
        q, k = np.ones((3, 2)), np.ones((5, 2))
        with pytest.raises(DimensionError, match="do not split 3 query and 5 key rows"):
            nd.masked_attention(*tensors(q, k, k), [(3, 3)], 2)
        with pytest.raises(DimensionError, match="do not split 3 query and 5 key rows"):
            nd.masked_attention(*tensors(q, k, k), [(2, 5)], 2)
        with pytest.raises(DimensionError):  # more queries than keys
            nd.masked_attention(*tensors(k, q, q), [(5, 3)], 2)
        with pytest.raises(DimensionError):  # keys and values disagree
            nd.masked_attention(*tensors(q, k, np.ones((4, 2))), [(3, 5)], 2)
        with pytest.raises(ParameterError):
            nd.masked_attention(*tensors(q, k, k), [(3, 5)], 0)


class TestBatchedMultiHeadAttention:
    """One op over several sequences and heads, against plain single-head,
    single-sequence attention as the oracle."""

    # block-causal with B=3; every sequence ends in a ragged block, and the
    # last two query rows that start inside a block, as after a cached prefix
    SEQS = ((5, 5), (3, 8), (2, 3))

    def inputs(self, seed, d=4):
        rng = nd.make_rng(seed)
        n_q, n_k = (sum(n[i] for n in self.SEQS) for i in (0, 1))
        return rng.normal(size=(n_q, d)), rng.normal(size=(n_k, d)), rng.normal(size=(n_k, d))

    def test_equals_attention_per_sequence_and_head(self):
        q, k, v = self.inputs(15, d=6)
        out = nd.masked_attention(*tensors(q, k, v), self.SEQS, 3, n_heads=3).data
        q_starts, k_starts = (np.cumsum((0,) + tuple(n[i] for n in self.SEQS)) for i in (0, 1))
        for s, seq in enumerate(self.SEQS):
            qs, ks = slice(q_starts[s], q_starts[s + 1]), slice(k_starts[s], k_starts[s + 1])
            for h in range(3):
                cols = slice(2 * h, 2 * h + 2)
                one = nd.masked_attention(*tensors(q[qs, cols], k[ks, cols], v[ks, cols]), [seq], 3).data
                np.testing.assert_allclose(out[qs, cols], one, rtol=0, atol=1e-15)

    def test_gradcheck_two_heads_three_sequences(self):
        q, k, v = (nd.Tensor(a, requires_grad=True) for a in self.inputs(16))
        tgt = nd.make_rng(17).integers(0, 4, len(q.data))

        def loss():
            out = nd.masked_attention(q, k, v, self.SEQS, 3, n_heads=2)
            return nd.cross_entropy_rows(out, tgt)

        report = nd.grad_check(loss, {"q": q, "k": k, "v": v}, epsilon=1e-6, max_coords_per_param=64)
        assert report.max_rel_err < 1e-5, str(report)

    def test_masks_must_split_the_rows(self):
        q, k, v = self.inputs(18)
        with pytest.raises(DimensionError):
            nd.masked_attention(*tensors(q, k, v), self.SEQS[:2], 3)
        with pytest.raises(DimensionError):
            nd.masked_attention(*tensors(q, k, v), self.SEQS, 3, n_heads=3)  # 4 columns, 3 heads


class TestSequences:
    """Inside ``nd.sequences``, stacked rows give bit for bit what one pass
    per sequence gives, gradients summed in sequence order."""

    LENGTHS = (17, 33, 37, 45, 29, 21, 25, 41)

    def test_matmul_add_embedding_match_one_pass_per_sequence(self):
        rng = nd.make_rng(19)
        T = sum(self.LENGTHS)
        table = nd.Tensor(rng.normal(size=(11, 64)), requires_grad=True)
        # 67 columns, like the model's head: BLAS may round the last columns
        # of a product differently when other rows share the call
        w = nd.Tensor(rng.normal(size=(64, 67)), requires_grad=True)
        bias = nd.Tensor(rng.normal(size=67), requires_grad=True)
        ids, tgt = rng.integers(0, 11, T), rng.integers(0, 67, T)
        params = {"table": table, "w": w, "bias": bias}

        def loss(rows):
            logits = nd.add(nd.matmul(nd.take_rows(table, ids[rows]), w), bias)
            return nd.cross_entropy_rows(logits, tgt[rows])

        nd.zero_grads(params.values())
        with nd.sequences(self.LENGTHS):
            stacked = loss(slice(0, T))
        stacked.backward()
        got = {name: p.grad.copy() for name, p in params.items()}
        nd.zero_grads(params.values())
        starts = np.cumsum((0,) + self.LENGTHS)
        for lo, hi in zip(starts[:-1], starts[1:]):
            loss(slice(lo, hi)).backward()
        for name, p in params.items():
            np.testing.assert_array_equal(got[name], p.grad, err_msg=name)


class TestPlainFormulas:
    """The tuned ops against their plain formulas (``tests/plain_ops.py``), bit for bit."""

    @pytest.mark.parametrize("rows", [1, 16, 32, 64, 256])
    @pytest.mark.parametrize("width", [64, 7])
    def test_rmsnorm_is_the_mean_formula(self, rows, width):
        rng = nd.make_rng(rows, width)
        # rows of widely different scale
        x = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-100, 100, size=(rows, 1))
        want = x * (1.0 / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + 1e-6))
        p = nd.Tensor(x, requires_grad=True)
        np.testing.assert_array_equal(nd.rmsnorm_rows(p).data, want)
        with nd.no_grad():
            np.testing.assert_array_equal(nd.rmsnorm_rows(p).data, want)

    @pytest.mark.parametrize("rows,keys", [(16, 64), (32, 64), (16, 16), (5, 5)])
    def test_attention_skipping_the_fill_is_the_filled_path(self, rows, keys):
        # with B=keys every key is visible and nothing is filled; B=4 fills
        rng = nd.make_rng(rows, keys)
        q, k, v = rng.normal(size=(rows, 64)), rng.normal(size=(keys, 64)), rng.normal(size=(keys, 64))
        tgt = rng.integers(0, 64, rows)
        for B in (keys, 4):
            mask = plain_ops.block_causal_mask(keys, B)[keys - rows:]
            got, want = [], []
            for attend, out in ((lambda *t: nd.masked_attention(*t, [(rows, keys)], B, n_heads=4), got),
                                (lambda *t: plain_ops.attention(*t, [mask], 4), want)):
                params = [nd.Tensor(a, requires_grad=True) for a in (q, k, v)]
                y = attend(*params)
                nd.cross_entropy_rows(y, tgt).backward()
                out.extend([y.data] + [p.grad for p in params])
                with nd.no_grad():
                    out.append(attend(*params).data)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 64).flatmap(lambda tk: st.tuples(st.integers(1, tk), st.just(tk))),
                    min_size=1, max_size=3),
           st.integers(1, 20), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_attention_is_the_grid_attention(self, seqs, B, n_heads, seed):
        # any 1 <= Tq <= Tk <= 64 per sequence, so queries may start
        # anywhere inside a block; outputs and q/k/v gradients bit for bit
        masks = [plain_ops.block_causal_mask(tk, B)[tk - tq:] for tq, tk in seqs]
        rng = nd.make_rng(seed)
        d = 2 * n_heads
        q = rng.normal(size=(sum(tq for tq, _ in seqs), d))
        k, v = (rng.normal(size=(sum(tk for _, tk in seqs), d)) for _ in range(2))
        g = rng.normal(size=q.shape)
        got, want = [], []
        for attend, out in ((lambda *t: nd.masked_attention(*t, seqs, B, n_heads), got),
                            (lambda *t: plain_ops.attention(*t, masks, n_heads), want)):
            params = [nd.Tensor(a, requires_grad=True) for a in (q, k, v)]
            y = attend(*params)
            (_, gq), (_, gk), (_, gv) = y._backward(g)
            out.extend([y.data, gq, gk, gv])
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestParam:
    """A parameter is a Tensor with ``requires_grad=True``."""

    def test_is_a_tensor_holding_a_float64_copy(self):
        src = np.array([[1, 2], [3, 4]])
        p = nd.Tensor(src, requires_grad=True)
        assert p.requires_grad and p.data.dtype == np.float64 and not np.shares_memory(p.data, src)
        assert p.grad.shape == p.data.shape and (p.grad == 0.0).all()

    def test_grad_accumulates_over_two_backward_passes_until_zeroed(self):
        rng = nd.make_rng(21)
        w = nd.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        x = nd.Tensor(rng.normal(size=(4, 3)))

        def loss():
            return nd.cross_entropy_rows(nd.matmul(x, w), np.array([0, 4, 2, 1]))

        loss().backward()
        once = w.grad.copy()
        assert np.abs(once).sum() > 0.0
        loss().backward()
        np.testing.assert_array_equal(w.grad, once + once)
        nd.zero_grads([w])
        assert (w.grad == 0.0).all()

    def test_adamw_updates_buffers_in_place(self):
        # the parameter's array and the moments the caller passes
        p = nd.Tensor(np.ones((2, 3)), requires_grad=True)
        data, m, v = p.data, np.zeros((2, 3)), np.zeros((2, 3))
        p.grad[:] = 0.5
        nd.adamw_step({"w": p}, [(m, v)], lr=0.1, step=1, weight_decay=0.01)
        assert p.data is data
        assert (data < 1.0).all() and (m > 0.0).all() and (v > 0.0).all()


def fresh_moments(p):
    """Zero AdamW moments for the one parameter ``p``."""
    return [(np.zeros_like(p.data), np.zeros_like(p.data))]


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        p = nd.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        before = p.data.copy()
        nd.adamw_step({"p": p}, fresh_moments(p), lr=0.1, step=1, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_descent_on_quadratic(self):
        p = nd.Tensor(np.array([[1.0]]), requires_grad=True)
        p.grad[:] = 2.0 * p.data  # grad of w^2
        nd.adamw_step({"w": p}, fresh_moments(p), lr=0.1, step=1, weight_decay=0.0)
        assert p.data[0, 0] ** 2 < 1.0

    def test_bit_identical_across_runs(self):
        def run():
            rng = nd.make_rng(11)
            p = nd.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            moments = fresh_moments(p)
            for step in range(1, 101):
                p.grad[:] = np.sin(p.data * step)
                nd.adamw_step({"p": p}, moments, lr=1e-2, step=step, weight_decay=0.01)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_grad_aborts_with_diagnostics(self):
        p = nd.Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="spiky"):
            nd.adamw_step({"spiky": p}, fresh_moments(p), lr=0.1, step=1)


class TestGradCheck:
    def test_linear_layer_tight(self):
        rng = nd.make_rng(8)
        w = nd.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        x = nd.Tensor(rng.normal(size=(4, 6)))
        tgt = np.array([0, 1, 2, 3])

        def loss():
            return nd.cross_entropy_rows(nd.matmul(x, w), tgt)

        report = nd.grad_check(loss, {"w": w}, epsilon=1e-6, max_coords_per_param=30)
        assert report.max_rel_err < 1e-7

    def test_empty_mask_all_zero_gradients(self):
        rng = nd.make_rng(9)
        w = nd.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = nd.Tensor(rng.normal(size=(2, 3)))

        def loss():
            return plain_ops.masked_cross_entropy(nd.matmul(x, w), np.array([0, 1]),
                                                  np.array([], dtype=int))

        report = nd.grad_check(loss, {"w": w}, max_coords_per_param=9)
        assert report.max_rel_err == 0.0
        assert (w.grad == 0.0).all()

    def test_epsilon_range_enforced(self):
        w = nd.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ParameterError):
            nd.grad_check(lambda: plain_ops.masked_cross_entropy(w, np.array([0, 1]), np.array([0])),
                          {"w": w}, epsilon=1e-2)


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = nd.make_rng(123).normal(size=100)
        b = nd.make_rng(123).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ_and_reproduce(self):
        a1 = nd.make_rng(0, 1).random(10)
        a2 = nd.make_rng(0, 2).random(10)
        assert not np.array_equal(a1, a2)
        np.testing.assert_array_equal(a1, nd.make_rng(0, 1).random(10))


class TestTapeMechanics:
    def test_shared_subexpression_gradient(self):
        # x used twice (residual pattern): gradient accumulates correctly
        x = nd.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)

        def loss():
            y = nd.add(x, nd.relu(x))
            return nd.cross_entropy_rows(y, np.array([0, 1]))

        report = nd.grad_check(loss, {"x": x}, max_coords_per_param=4)
        assert report.max_rel_err < 1e-7

    def test_no_grad_disables_tape(self):
        x = nd.Tensor(np.ones((2, 2)), requires_grad=True)
        with nd.no_grad():
            y = nd.matmul(x, x)
        assert y._backward is None and not y.requires_grad
        # every op, on inputs that require gradients, records no parents and no backward
        a, b, row = (nd.Tensor(np.ones(shape), requires_grad=True) for shape in ((3, 4), (4, 4), 4))
        ops = [lambda: nd.matmul(a, b), lambda: nd.add(a, a),
               lambda: nd.add(a, row), lambda: nd.scale(a, 2.0), lambda: nd.relu(a),
               lambda: nd.rmsnorm_rows(a), lambda: nd.take_rows(b, [0, 3]),
               lambda: nd.take_rows(a, [2, 0]), lambda: nd.take_rows(a, [1, -1]),
               lambda: nd.masked_attention(a, a, a, [(3, 3)], 2, n_heads=2),
               lambda: nd.cross_entropy_rows(a, [0, 1, 2]),
               lambda: nd.kl_rows(a, np.zeros((3, 4)), 2.0)]
        with nd.no_grad():
            for op in ops:
                y = op()
                assert y._parents == () and y._backward is None and not y.requires_grad
        assert all(op().requires_grad for op in ops)

    def test_backward_requires_scalar(self):
        x = nd.Tensor(np.ones((2, 2)), requires_grad=True)
        y = nd.matmul(x, x)
        with pytest.raises(DimensionError):
            y.backward()
