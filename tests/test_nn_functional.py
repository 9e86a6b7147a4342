"""Conv/pool/softmax kernels: shapes, known values, finite-difference grads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestConvForward:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0  # delta kernel = identity with padding 1
        out = F.conv2d(Tensor(x), Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_output_shape_stride2(self):
        out = F.conv2d(Tensor(np.zeros((2, 3, 8, 8))), Tensor(np.zeros((5, 3, 3, 3))),
                       stride=2, padding=1)
        assert out.shape == (2, 5, 4, 4)

    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        # brute-force reference
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros((1, 3, 5, 5))
        for o in range(3):
            for i in range(5):
                for j in range(5):
                    ref[0, o, i, j] = (xp[0, :, i : i + 3, j : j + 3] * w[o]).sum()
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_depthwise_channels_independent(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1, groups=2).data
        # Zeroing channel 1 of the input must not affect output channel 0.
        x2 = x.copy()
        x2[:, 1] = 0
        out2 = F.conv2d(Tensor(x2), Tensor(w), padding=1, groups=2).data
        np.testing.assert_allclose(out[:, 0], out2[:, 0])

    def test_bias_added(self):
        out = F.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((2, 1, 1, 1))),
                       Tensor(np.asarray([1.0, -1.0])), padding=0)
        assert out.data[0, 0].max() == 1.0 and out.data[0, 1].min() == -1.0

    def test_rectangular_kernel_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 5))))

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((4, 4, 3, 3))), groups=2)

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), padding=0)


class TestConvGradients:
    def test_input_grad(self, gradcheck):
        w = Tensor(np.random.default_rng(3).normal(size=(2, 3, 3, 3)) * 0.4)
        gradcheck(lambda t: F.conv2d(t, w, stride=2, padding=1),
                  np.random.default_rng(4).normal(size=(2, 3, 5, 5)))

    def test_weight_grad(self, gradcheck):
        x = Tensor(np.random.default_rng(5).normal(size=(2, 2, 4, 4)))
        gradcheck(lambda w: F.conv2d(x, w, padding=1),
                  np.random.default_rng(6).normal(size=(3, 2, 3, 3)) * 0.4)

    def test_bias_grad(self):
        x = Tensor(np.random.default_rng(7).normal(size=(2, 1, 3, 3)))
        w = Tensor(np.random.default_rng(8).normal(size=(2, 1, 3, 3)))
        b = Tensor(np.zeros(2), requires_grad=True)
        out = F.conv2d(x, w, b, padding=1)
        out.sum().backward()
        np.testing.assert_allclose(b.grad, [2 * 9, 2 * 9])  # batch x spatial

    def test_depthwise_grad(self, gradcheck):
        w = Tensor(np.random.default_rng(9).normal(size=(3, 1, 3, 3)) * 0.4)
        gradcheck(lambda t: F.conv2d(t, w, padding=1, groups=3),
                  np.random.default_rng(10).normal(size=(1, 3, 4, 4)))


def _col2im_scatter(grad_cols, padded_shape, channels, kernel, stride):
    """The ``np.add.at`` scatter :func:`F._col2im` replaces (test oracle)."""
    chan_idx, row_idx, col_idx, _, _ = F._conv_indices(
        channels, padded_shape[2], padded_shape[3], kernel, stride, 0
    )
    grad = np.zeros(padded_shape, dtype=grad_cols.dtype)
    np.add.at(grad, (slice(None), chan_idx, row_idx, col_idx), grad_cols)
    return grad


class TestCol2im:
    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from([1, 3, 5]),
        stride=st.sampled_from([1, 2, 3]),
        padding=st.sampled_from([0, 1, 2]),
        height=st.integers(0, 4).map(lambda n: 2 * n + 1),
        width=st.integers(0, 4).map(lambda n: 2 * n + 1),
        batch=st.integers(1, 2),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_matches_add_at_scatter(
        self, kernel, stride, padding, height, width, batch, channels, seed
    ):
        padded_shape = (batch, channels, height + 2 * padding, width + 2 * padding)
        assume(min(padded_shape[2:]) >= kernel)
        h_out = (padded_shape[2] - kernel) // stride + 1
        w_out = (padded_shape[3] - kernel) // stride + 1
        grad_cols = np.random.default_rng(seed).normal(
            size=(batch, channels * kernel * kernel, h_out * w_out)
        )
        got = F._col2im(grad_cols, np.zeros(padded_shape), kernel, stride)
        want = _col2im_scatter(grad_cols, padded_shape, channels, kernel, stride)
        assert got.tobytes() == want.tobytes()


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2, 2).data
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_to_argmax_only(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_array_equal(x.grad[0, 0], expected)

    def test_avg_pool_values(self):
        x = np.ones((1, 2, 4, 4))
        out = F.avg_pool2d(Tensor(x), 2, 2).data
        np.testing.assert_allclose(out, np.ones((1, 2, 2, 2)))

    def test_avg_pool_grad(self, gradcheck):
        gradcheck(lambda t: F.avg_pool2d(t, 2, 2),
                  np.random.default_rng(11).normal(size=(1, 2, 4, 4)))

    def test_max_pool_overlapping_grad(self, gradcheck):
        gradcheck(lambda t: F.max_pool2d(t, 3, 1, 1),
                  np.random.default_rng(12).normal(size=(1, 1, 5, 5)))

    def test_global_avg_pool(self):
        x = np.random.default_rng(13).normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x)).data
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))


class TestSoftmax:
    def test_log_softmax_normalises(self):
        x = np.random.default_rng(14).normal(size=(4, 6)) * 10
        log_probs = F.log_softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), np.ones(4))

    def test_log_softmax_shift_invariant(self):
        x = np.random.default_rng(15).normal(size=(2, 5))
        a = F.log_softmax(Tensor(x)).data
        b = F.log_softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_log_softmax_extreme_values_stable(self):
        x = np.asarray([[1000.0, 0.0, -1000.0]])
        out = F.log_softmax(Tensor(x)).data
        assert np.isfinite(out).all()

    def test_softmax_grad(self, gradcheck):
        gradcheck(lambda t: F.softmax(t, axis=-1),
                  np.random.default_rng(16).normal(size=(3, 4)))

    def test_softmax_np_matches_tensor(self):
        x = np.random.default_rng(17).normal(size=(3, 7))
        np.testing.assert_allclose(F.softmax_np(x), F.softmax(Tensor(x)).data, atol=1e-12)

    def test_entropy_np_bounds(self):
        uniform = np.zeros((1, 8))
        peaked = np.zeros((1, 8))
        peaked[0, 0] = 100.0
        assert F.entropy_np(uniform)[0] == pytest.approx(1.0)
        assert F.entropy_np(peaked)[0] == pytest.approx(0.0, abs=1e-6)

    def test_entropy_unnormalised(self):
        uniform = np.zeros((1, 8))
        assert F.entropy_np(uniform, normalize=False)[0] == pytest.approx(np.log(8))
