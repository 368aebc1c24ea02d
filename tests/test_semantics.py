import logging

import numpy as np
import pytest

from blockmdm import nd
from blockmdm.errors import DimensionError, ParameterError
from blockmdm.masking import partition
from blockmdm.semantics import FusionParams, align, build_anchors, fuse


class TestBuildAnchors:
    def test_first_q_of_each_block(self):
        anchors = build_anchors(partition(32, 16), Q=4)
        np.testing.assert_array_equal(anchors, [0, 1, 2, 3, 16, 17, 18, 19])

    def test_q_equals_b_every_position(self):
        anchors = build_anchors(partition(32, 16), Q=16)
        np.testing.assert_array_equal(anchors, np.arange(32))

    def test_ragged_block_intersection(self):
        # last block has 2 positions, so it contributes only those
        anchors = build_anchors(partition(18, 16), Q=4)
        np.testing.assert_array_equal(anchors, [0, 1, 2, 3, 16, 17])

    def test_q_out_of_range(self):
        with pytest.raises(ParameterError):
            build_anchors(partition(32, 16), Q=17)
        with pytest.raises(ParameterError):
            build_anchors(partition(32, 16), Q=0)


class TestAlign:
    def test_rows_assigned_in_order(self):
        anchors = build_anchors(partition(32, 16), Q=4)
        h = np.arange(12.0).reshape(3, 4)
        out = align(h, anchors, 32)
        np.testing.assert_array_equal(out.h_prime.data[[0, 1, 2]], h)
        rest = np.delete(np.arange(32), [0, 1, 2])
        np.testing.assert_array_equal(out.h_prime.data[rest], 0.0)

    def test_spill_into_second_block(self):
        anchors = build_anchors(partition(32, 16), Q=4)
        h = np.arange(24.0).reshape(6, 4)
        out = align(h, anchors, 32)
        np.testing.assert_array_equal(out.h_prime.data[16], h[4])
        np.testing.assert_array_equal(out.h_prime.data[17], h[5])

    def test_empty_states_all_zero(self):
        anchors = build_anchors(partition(32, 16), Q=4)
        out = align(np.empty((0, 4)), anchors, 32)
        np.testing.assert_array_equal(out.h_prime.data, np.zeros((32, 4)))

    def test_surplus_rows_dropped_with_warning(self, caplog):
        anchors = build_anchors(partition(16, 16), Q=2)  # 2 anchors
        with caplog.at_level(logging.WARNING, logger="blockmdm.semantics"):
            out = align(np.ones((5, 3)), anchors, 16)
        assert out.n_assigned == 2 and out.n_dropped == 3
        assert any("surplus" in r.message for r in caplog.records)

    def test_no_future_leakage(self):
        # changing row m only affects the row at anchor m
        anchors = build_anchors(partition(48, 16), Q=4)
        h = nd.make_rng(0).normal(size=(8, 4))
        base = align(h, anchors, 48).h_prime.data
        h2 = h.copy()
        h2[5] += 3.0
        changed = align(h2, anchors, 48).h_prime.data
        diff_rows = np.nonzero(np.abs(changed - base).sum(axis=1))[0]
        np.testing.assert_array_equal(diff_rows, [anchors[5]])

    def test_gradient_flows_to_states(self):
        anchors = build_anchors(partition(16, 8), Q=2)
        h = nd.param("h", nd.make_rng(1).normal(size=(3, 4)))

        def loss():
            out = align(h.value, anchors, 16)
            return nd.masked_cross_entropy(out.h_prime, np.zeros(16, dtype=int), np.array([0, 8]))

        report = nd.grad_check(loss, [h])
        assert report.max_rel_err < 1e-6


def identity_fusion(d):
    fp = FusionParams.init(d, d, nd.make_rng(0))
    fp.W1.value.data[:] = np.eye(d)
    fp.W2.value.data[:] = np.eye(d)
    fp.b1.value.data[:] = 0.0
    fp.b2.value.data[:] = 0.0
    return fp


class TestFuse:
    def test_identity_weights_pass_relu_of_embeddings(self):
        anchors = build_anchors(partition(8, 8), Q=2)
        aligned = align(np.empty((0, 4)), anchors, 8)  # h' all zero
        emb = nd.make_rng(2).normal(size=(8, 4))
        out = fuse(nd.constant(emb), aligned, identity_fusion(4))
        np.testing.assert_allclose(out.data, np.maximum(emb, 0.0), atol=1e-15)

    def test_all_zero_inputs_zero_output(self):
        anchors = build_anchors(partition(8, 8), Q=2)
        aligned = align(np.empty((0, 4)), anchors, 8)
        out = fuse(nd.constant(np.zeros((8, 4))), aligned, identity_fusion(4))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_position_local(self):
        anchors = build_anchors(partition(8, 8), Q=2)
        rng = nd.make_rng(3)
        fp = FusionParams.init(4, 8, rng)
        aligned = align(rng.normal(size=(2, 4)), anchors, 8)
        emb = rng.normal(size=(8, 4))
        base = fuse(nd.constant(emb), aligned, fp).data
        emb2 = emb.copy()
        emb2[5] += 1.0
        pert = fuse(nd.constant(emb2), aligned, fp).data
        diff_rows = np.nonzero(np.abs(pert - base).sum(axis=1))[0]
        np.testing.assert_array_equal(diff_rows, [5])

    def test_gradient_vs_finite_differences_4x4(self):
        rng = nd.make_rng(4)
        fp = FusionParams.init(4, 4, rng)
        anchors = build_anchors(partition(4, 4), Q=2)
        h = nd.param("h", rng.normal(size=(2, 4)))
        emb = nd.constant(rng.normal(size=(4, 4)))

        def loss():
            aligned = align(h.value, anchors, 4)
            out = fuse(emb, aligned, fp)
            return nd.masked_cross_entropy(out, np.array([0, 1, 2, 3]), np.arange(4))

        report = nd.grad_check(loss, [h] + fp.params())
        assert report.max_rel_err < 1e-6

    def test_width_mismatch(self):
        anchors = build_anchors(partition(4, 4), Q=2)
        aligned = align(np.ones((1, 3)), anchors, 4)
        with pytest.raises(DimensionError):
            fuse(nd.constant(np.zeros((4, 4))), aligned, identity_fusion(4))
