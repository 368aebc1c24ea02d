import math

import numpy as np
import plain_ops
import pytest
from hypothesis import given, settings, strategies as st

from blockmdm import nd, talker
from blockmdm.errors import ContractError, DimensionError, NonFiniteError, ParameterError


def tensors(*arrays):
    return [nd.constant(a) for a in arrays]


def softmax_rows(z):
    """Row softmax of a Tensor, through the stable softmax the package uses."""
    return nd.constant(nd.softmax_array(z.data))


class TestMatmul:
    def test_identity(self):
        a = nd.constant(np.arange(9.0).reshape(3, 3))
        out = nd.matmul(nd.constant(np.eye(3)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_annihilator(self):
        a = nd.constant(np.arange(6.0).reshape(2, 3))
        out = nd.matmul(a, nd.constant(np.zeros((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_hand_arithmetic(self):
        out = nd.matmul(nd.constant([[1.0, 2.0], [3.0, 4.0]]), nd.constant([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            nd.matmul(nd.constant(np.ones((2, 3))), nd.constant(np.ones((2, 3))))

    def test_gradients_both_inputs(self):
        rng = nd.make_rng(0)
        a = nd.param("a", rng.normal(size=(3, 4)))
        b = nd.param("b", rng.normal(size=(4, 2)))
        tgt = np.array([0, 1, 0])

        def loss():
            return nd.masked_cross_entropy(nd.matmul(a.value, b.value), tgt, np.arange(3))

        report = nd.grad_check(loss, [a, b])
        assert report.max_rel_err < 1e-6


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows(nd.constant([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_derived_scalar_oracle(self):
        # independent scalar exp/sum computation
        row = [2.0, 0.0, 0.0]
        exps = [math.exp(v) for v in row]
        expected = [e / sum(exps) for e in exps]
        assert abs(expected[0] - 0.78699) < 1e-5
        out = softmax_rows(nd.constant([row]))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_shift_invariance_bit_exact(self):
        # values chosen so z + c is exact in float64: shift cancellation is
        # then bitwise and the stabilized softmax gives identical outputs
        rng = nd.make_rng(1)
        z = np.round(rng.normal(size=(4, 8)) * 2**20) / 2**20
        for c in (1.0, 64.0, -512.0):
            a = softmax_rows(nd.constant(z)).data
            b = softmax_rows(nd.constant(z + c)).data
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_sum_to_one_and_nonnegative(self, seed):
        z = nd.make_rng(seed).normal(scale=30.0, size=(5, 9))
        p = softmax_rows(nd.constant(z)).data
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_logits_stable(self):
        p = softmax_rows(nd.constant([[1e4, 0.0, -1e4]])).data
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)


class TestMaskedCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        logits = nd.constant([[1000.0, 0.0, 0.0], [0.0, 1000.0, 0.0]])
        loss = nd.masked_cross_entropy(logits, np.array([0, 1]), np.array([0, 1]))
        assert loss.item() == 0.0

    def test_uniform_logits_analytic(self):
        logits = nd.constant(np.zeros((3, 4)))
        loss = nd.masked_cross_entropy(logits, np.array([2, 0, 1]), np.array([1]))
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_gradient_zero_at_unmasked_rows(self):
        rng = nd.make_rng(2)
        logits = nd.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        loss = nd.masked_cross_entropy(logits, np.array([0, 1, 2, 3, 0]), np.array([1, 3]))
        loss.backward()
        np.testing.assert_array_equal(logits.grad[[0, 2, 4]], 0.0)
        assert np.abs(logits.grad[[1, 3]]).sum() > 0

    def test_empty_mask_zero_loss_zero_grad(self):
        logits = nd.Tensor(np.ones((3, 4)), requires_grad=True)
        loss = nd.masked_cross_entropy(logits, np.array([0, 1, 2]), np.array([], dtype=int))
        assert loss.item() == 0.0
        loss.backward()
        np.testing.assert_array_equal(logits.grad, 0.0)

    def test_bad_target_rejected(self):
        logits = nd.constant(np.zeros((2, 4)))
        with pytest.raises(ParameterError):
            nd.masked_cross_entropy(logits, np.array([0, 7]), np.array([1]))


class TestKLRows:
    def test_identical_logits_zero(self):
        z = nd.make_rng(3).normal(size=(4, 6))
        for direction in ("reverse", "forward"):
            assert abs(nd.kl_rows(nd.constant(z), z, 2.0, direction).item()) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_nonnegative(self, seed):
        rng = nd.make_rng(seed)
        s, t = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        for direction in ("reverse", "forward"):
            assert nd.kl_rows(nd.constant(s), t, 1.7, direction).item() >= -1e-12

    def test_gradient_vs_finite_differences_10_random_pairs(self):
        for seed in range(10):
            rng = nd.make_rng(seed)
            s = nd.param("s", rng.normal(size=(3, 6)))
            t = rng.normal(size=(3, 6))
            for direction in ("reverse", "forward"):
                report = nd.grad_check(lambda: nd.kl_rows(s.value, t, 2.0, direction), [s],
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
        z = nd.constant(np.zeros((2, 3)))
        with pytest.raises(ParameterError):
            nd.kl_rows(z, np.zeros((2, 3)), 0.0)
        with pytest.raises(ParameterError):
            nd.kl_rows(z, np.zeros((2, 3)), 1.0, "sideways")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nd.kl_rows(nd.constant(np.zeros((2, 3))), np.zeros((2, 4)), 1.0)


def scalar_attention_oracle(q, k, v, mask):
    """Independent scalar implementation of masked attention."""
    T, d = q.shape
    out = np.zeros((T, d))
    for t in range(T):
        scores = []
        for u in range(T):
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
        out = nd.masked_attention(*tensors(q, k, v), np.ones((3, 3), bool))
        np.testing.assert_allclose(out.data, v, atol=1e-12)

    def test_identity_mask_is_self_attention(self):
        rng = nd.make_rng(5)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        out = nd.masked_attention(*tensors(q, k, v), np.eye(4, dtype=bool))
        np.testing.assert_allclose(out.data, v, atol=1e-12)

    def test_hand_case_vs_scalar_oracle(self):
        rng = nd.make_rng(6)
        q, k, v = (rng.normal(size=(3, 1)) for _ in range(3))
        mask = np.array([[True, False, False], [True, True, False], [False, True, True]])
        out = nd.masked_attention(*tensors(q, k, v), mask)
        np.testing.assert_allclose(out.data, scalar_attention_oracle(q, k, v, mask), atol=1e-10)

    def test_masked_positions_zero_weight(self):
        # perturbing an invisible row of k/v leaves the output bit-identical
        rng = nd.make_rng(7)
        q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
        mask = np.tril(np.ones((4, 4), bool))
        base = nd.masked_attention(*tensors(q, k, v), mask).data
        k2, v2 = k.copy(), v.copy()
        k2[3], v2[3] = 99.0, -99.0  # row 3 invisible to rows 0..2
        pert = nd.masked_attention(*tensors(q, k2, v2), mask).data
        np.testing.assert_array_equal(base[:3], pert[:3])

    def test_no_visible_position_raises(self):
        mask = np.ones((3, 3), bool)
        mask[1] = False
        with pytest.raises(ContractError):
            nd.masked_attention(*tensors(*(np.ones((3, 2)),) * 3), mask)

    def test_rectangular_equals_last_rows_of_square(self):
        # queries for the last 3 of 7 rows over all 7 keys: the rows a
        # K/V-cached forward computes
        rng = nd.make_rng(12)
        q, k, v = (rng.normal(size=(7, 4)) for _ in range(3))
        mask = np.tril(np.ones((7, 7), bool))
        full = nd.masked_attention(*tensors(q, k, v), mask).data
        rect = nd.masked_attention(*tensors(q[4:], k, v), mask[4:]).data
        np.testing.assert_allclose(rect, full[4:], rtol=0, atol=1e-14)

    def test_rectangular_gradcheck(self):
        rng = nd.make_rng(13)
        q = nd.param("q", rng.normal(size=(3, 4)))
        k = nd.param("k", rng.normal(size=(7, 4)))
        v = nd.param("v", rng.normal(size=(7, 4)))
        mask = (np.arange(7)[None, :] // 2) <= (np.arange(4, 7)[:, None] // 2)  # block-causal, B=2
        tgt = np.array([0, 3, 1])

        def loss():
            out = nd.masked_attention(q.value, k.value, v.value, mask)
            return nd.masked_cross_entropy(out, tgt, np.arange(3))

        report = nd.grad_check(loss, [q, k, v], epsilon=1e-6, max_coords_per_param=28)
        assert report.max_rel_err < 1e-5, str(report)

    def test_rectangular_shape_errors(self):
        q, k = np.ones((3, 2)), np.ones((5, 2))
        with pytest.raises(DimensionError, match="mask must be 3x5"):
            nd.masked_attention(*tensors(q, k, k), np.ones((3, 3), bool))
        with pytest.raises(DimensionError, match="mask must be 3x5"):
            nd.masked_attention(*tensors(q, k, k), np.ones((5, 3), bool))
        with pytest.raises(DimensionError):  # fewer keys than queries
            nd.masked_attention(*tensors(k, q, q), np.ones((5, 3), bool))
        with pytest.raises(DimensionError):  # keys and values disagree
            nd.masked_attention(*tensors(q, k, np.ones((4, 2))), np.ones((3, 5), bool))


class TestBatchedMultiHeadAttention:
    """One op over several sequences and heads, against plain single-head,
    single-sequence attention as the oracle."""

    LENGTHS = (5, 8, 3)  # block-causal with B=3: every sequence ends in a ragged block

    def inputs(self, seed, d=4):
        rng = nd.make_rng(seed)
        masks = [(np.arange(n)[None, :] // 3) <= (np.arange(n)[:, None] // 3) for n in self.LENGTHS]
        q, k, v = (rng.normal(size=(sum(self.LENGTHS), d)) for _ in range(3))
        return q, k, v, masks

    def test_equals_attention_per_sequence_and_head(self):
        q, k, v, masks = self.inputs(15, d=6)
        out = nd.masked_attention(*tensors(q, k, v), masks, n_heads=3).data
        starts = np.cumsum((0,) + self.LENGTHS)
        for s, mask in enumerate(masks):
            rows = slice(starts[s], starts[s + 1])
            for h in range(3):
                cols = slice(2 * h, 2 * h + 2)
                one = nd.masked_attention(*tensors(q[rows, cols], k[rows, cols], v[rows, cols]), mask).data
                np.testing.assert_allclose(out[rows, cols], one, rtol=0, atol=1e-15)

    def test_gradcheck_two_heads_three_sequences(self):
        q, k, v, masks = self.inputs(16)
        q, k, v = nd.param("q", q), nd.param("k", k), nd.param("v", v)
        tgt = nd.make_rng(17).integers(0, 4, sum(self.LENGTHS))

        def loss():
            out = nd.masked_attention(q.value, k.value, v.value, masks, n_heads=2)
            return nd.masked_cross_entropy(out, tgt, np.arange(len(tgt)))

        report = nd.grad_check(loss, [q, k, v], epsilon=1e-6, max_coords_per_param=64)
        assert report.max_rel_err < 1e-5, str(report)

    def test_masks_must_split_the_rows(self):
        q, k, v, masks = self.inputs(18)
        with pytest.raises(DimensionError):
            nd.masked_attention(*tensors(q, k, v), masks[:2])
        with pytest.raises(DimensionError):
            nd.masked_attention(*tensors(q, k, v), masks, n_heads=3)  # 4 columns, 3 heads


class TestSequences:
    """Inside ``nd.sequences``, stacked rows give bit for bit what one pass
    per sequence gives, gradients summed in sequence order."""

    LENGTHS = (17, 33, 37, 45, 29, 21, 25, 41)

    def test_matmul_add_embedding_match_one_pass_per_sequence(self):
        rng = nd.make_rng(19)
        T = sum(self.LENGTHS)
        table = nd.param("table", rng.normal(size=(11, 64)))
        # 67 columns, like the model's head: BLAS may round the last columns
        # of a product differently when other rows share the call
        w = nd.param("w", rng.normal(size=(64, 67)))
        bias = nd.param("bias", rng.normal(size=67))
        ids, tgt = rng.integers(0, 11, T), rng.integers(0, 67, T)
        params = [table, w, bias]

        def loss(rows):
            logits = nd.add(nd.matmul(nd.embedding(table.value, ids[rows]), w.value), bias.value)
            return nd.masked_cross_entropy(logits, tgt[rows], np.arange(len(ids[rows])))

        nd.zero_grads(params)
        with nd.sequences(self.LENGTHS):
            stacked = loss(slice(0, T))
        stacked.backward()
        got = [p.grad.copy() for p in params]
        nd.zero_grads(params)
        starts = np.cumsum((0,) + self.LENGTHS)
        for lo, hi in zip(starts[:-1], starts[1:]):
            loss(slice(lo, hi)).backward()
        for p, g in zip(params, got):
            np.testing.assert_array_equal(g, p.grad, err_msg=p.name)


class TestPlainFormulas:
    """The tuned ops against their plain formulas (``tests/plain_ops.py``), bit for bit."""

    @pytest.mark.parametrize("rows", [1, 16, 32, 64, 256])
    @pytest.mark.parametrize("width", [64, 7])
    def test_rmsnorm_is_the_mean_formula(self, rows, width):
        rng = nd.make_rng(rows, width)
        # rows of widely different scale
        x = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-100, 100, size=(rows, 1))
        want = x * (1.0 / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + 1e-6))
        p = nd.param("x", x)
        np.testing.assert_array_equal(nd.rmsnorm_rows(p.value).data, want)
        with nd.no_grad():
            np.testing.assert_array_equal(nd.rmsnorm_rows(p.value).data, want)

    @pytest.mark.parametrize("rows,keys", [(16, 64), (32, 64), (16, 16), (5, 5)])
    def test_attention_skipping_the_fill_is_the_filled_path(self, rows, keys):
        # an all-visible grid skips the -inf fill; a partial one is filled
        rng = nd.make_rng(rows, keys)
        q, k, v = rng.normal(size=(rows, 64)), rng.normal(size=(keys, 64)), rng.normal(size=(keys, 64))
        tgt = rng.integers(0, 64, rows)
        for mask in (np.ones((rows, keys), bool),
                     talker.build_block_causal_mask(keys, 4)[keys - rows:]):
            got, want = [], []
            for attend, out in ((lambda *t: nd.masked_attention(*t, [mask], n_heads=4), got),
                                (lambda *t: plain_ops.attention(*t, [mask], 4), want)):
                params = [nd.param(name, a) for name, a in (("q", q), ("k", k), ("v", v))]
                y = attend(*(p.value for p in params))
                nd.masked_cross_entropy(y, tgt, np.arange(rows)).backward()
                out.extend([y.data] + [p.grad for p in params])
                with nd.no_grad():
                    out.append(attend(*(p.value for p in params)).data)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        p = nd.param("p", np.array([[1.0, -2.0]]))
        before = p.data.copy()
        nd.adamw_step([p], lr=0.1, step=1, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_descent_on_quadratic(self):
        p = nd.param("w", np.array([[1.0]]))
        p.value.grad[:] = 2.0 * p.data  # grad of w^2
        nd.adamw_step([p], lr=0.1, step=1, weight_decay=0.0)
        assert p.data[0, 0] ** 2 < 1.0

    def test_bit_identical_across_runs(self):
        def run():
            rng = nd.make_rng(11)
            p = nd.param("p", rng.normal(size=(4, 4)))
            for step in range(1, 101):
                p.value.grad[:] = np.sin(p.data * step)
                nd.adamw_step([p], lr=1e-2, step=step, weight_decay=0.01)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_grad_aborts_with_diagnostics(self):
        p = nd.param("spiky", np.ones((2, 2)))
        p.value.grad[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="spiky"):
            nd.adamw_step([p], lr=0.1, step=1)


class TestGradCheck:
    def test_linear_layer_tight(self):
        rng = nd.make_rng(8)
        w = nd.param("w", rng.normal(size=(6, 5)))
        x = nd.constant(rng.normal(size=(4, 6)))
        tgt = np.array([0, 1, 2, 3])

        def loss():
            return nd.masked_cross_entropy(nd.matmul(x, w.value), tgt, np.arange(4))

        report = nd.grad_check(loss, [w], epsilon=1e-6, max_coords_per_param=30)
        assert report.max_rel_err < 1e-7

    def test_empty_mask_all_zero_gradients(self):
        rng = nd.make_rng(9)
        w = nd.param("w", rng.normal(size=(3, 3)))
        x = nd.constant(rng.normal(size=(2, 3)))

        def loss():
            return nd.masked_cross_entropy(nd.matmul(x, w.value), np.array([0, 1]),
                                           np.array([], dtype=int))

        report = nd.grad_check(loss, [w], max_coords_per_param=9)
        assert report.max_rel_err == 0.0
        assert (w.value.grad == 0.0).all()

    def test_epsilon_range_enforced(self):
        w = nd.param("w", np.ones((2, 2)))
        with pytest.raises(ParameterError):
            nd.grad_check(lambda: nd.masked_cross_entropy(w.value, np.array([0, 1]), np.array([0])),
                          [w], epsilon=1e-2)


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
        x = nd.param("x", np.array([[1.0, 2.0], [3.0, 4.0]]))

        def loss():
            y = nd.add(x.value, nd.relu(x.value))
            return nd.masked_cross_entropy(y, np.array([0, 1]), np.array([0, 1]))

        report = nd.grad_check(loss, [x], max_coords_per_param=4)
        assert report.max_rel_err < 1e-7

    def test_no_grad_disables_tape(self):
        x = nd.param("x", np.ones((2, 2)))
        with nd.no_grad():
            y = nd.matmul(x.value, x.value)
        assert y._backward is None and not y.requires_grad
        # every op, on inputs that require gradients, records no parents and no backward
        a, b, row = nd.param("a", np.ones((3, 4))), nd.param("b", np.ones((4, 4))), nd.param("row", np.ones(4))
        ops = [lambda: nd.matmul(a.value, b.value), lambda: nd.add(a.value, a.value),
               lambda: nd.add(a.value, row.value), lambda: nd.scale(a.value, 2.0), lambda: nd.relu(a.value),
               lambda: nd.rmsnorm_rows(a.value), lambda: nd.embedding(b.value, [0, 3]),
               lambda: nd.take_rows(a.value, [2, 0]), lambda: nd.place_rows(a.value, [1, -1], 2),
               lambda: nd.concat_rows([a.value, a.value]),
               lambda: nd.masked_attention(a.value, a.value, a.value, np.ones((3, 3), bool), n_heads=2),
               lambda: nd.masked_cross_entropy(a.value, [0, 1, 2], [0, 2]),
               lambda: nd.kl_rows(a.value, np.zeros((3, 4)), 2.0)]
        with nd.no_grad():
            for op in ops:
                y = op()
                assert y._parents == () and y._backward is None and not y.requires_grad
        assert all(op().requires_grad for op in ops)

    def test_backward_requires_scalar(self):
        x = nd.param("x", np.ones((2, 2)))
        y = nd.matmul(x.value, x.value)
        with pytest.raises(DimensionError):
            y.backward()
