import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfhn import layers, tensor
from lfhn.layers import LrnParams

from oracles import (naive_conv, naive_maxpool, gather_maxpool, lrn_scalar, fd_grad,
                     max_rel_err)

rng = np.random.default_rng


# ---------------------------------------------------------------- conv

def test_conv_full_scale_output_shape():
    x = rng(0).uniform(size=(1, 227, 227, 3))
    kernel = rng(1).normal(size=(11, 11, 3, 96)) * 0.01
    out = layers.conv_forward(x, kernel, np.zeros(96), stride=4)
    assert out.shape == (1, 55, 55, 96)


def test_conv_identity_kernel():
    x = rng(2).uniform(size=(2, 4, 4, 3))
    kernel = np.eye(3).reshape(1, 1, 3, 3)
    out = layers.conv_forward(x, kernel, np.zeros(3))
    assert np.array_equal(out, x)


def test_conv_matches_naive_oracle():
    r = rng(3)
    for x_shape, kernel_shape, stride in [
            ((2, 5, 5, 2), (3, 3, 2, 4), 1),
            ((3, 5, 5, 2), (5, 5, 2, 4), 1),   # one window per image
            ((3, 7, 7, 2), (3, 3, 2, 1), 2)]:  # one output channel
        x = r.normal(size=x_shape)
        kernel = r.normal(size=kernel_shape)
        bias = r.normal(size=kernel_shape[-1])
        got = layers.conv_forward(x, kernel, bias, stride)
        want = naive_conv(x, kernel, bias, stride)
        assert max_rel_err(got, want) < 1e-10, (x_shape, kernel_shape, stride)


def test_conv_channel_mismatch():
    with pytest.raises(ValueError, match="channels"):
        layers.conv_forward(np.zeros((1, 5, 5, 3)), np.zeros((3, 3, 4, 2)), np.zeros(2))


def test_conv_forward_refuses_bad_arguments():
    x = np.zeros((1, 2, 2, 2))
    with pytest.raises(ValueError, match="bias"):
        layers.conv_forward(x, np.zeros((1, 1, 2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="bias"):
        layers.conv_forward(x, np.zeros((1, 1, 2, 3)), np.zeros(1))  # would broadcast
    with pytest.raises(ValueError, match="stride"):
        layers.conv_forward(x, np.zeros((1, 1, 2, 3)), np.zeros(3), stride=0)
    with pytest.raises(ValueError, match="rank 4"):
        layers.conv_forward(x, np.zeros((2, 3)), np.zeros(3))


def test_conv_backward_zero_grad():
    r = rng(4)
    x = r.normal(size=(1, 4, 4, 2))
    kernel = r.normal(size=(2, 2, 2, 3))
    gi, gk, gb = layers.conv_backward(x, kernel, np.zeros((1, 3, 3, 3)))
    assert not gi.any() and not gk.any() and not gb.any()


def test_conv_backward_one_hot_grad_copies_patch():
    r = rng(5)
    x = r.normal(size=(1, 4, 4, 2))
    kernel = r.normal(size=(2, 2, 2, 1))
    grad_out = np.zeros((1, 3, 3, 1))
    grad_out[0, 1, 2, 0] = 1.0
    _, gk, gb = layers.conv_backward(x, kernel, grad_out)
    assert np.array_equal(gk[:, :, :, 0], x[0, 1:3, 2:4, :])
    assert gb[0] == 1.0


def test_conv_backward_matches_finite_differences():
    r = rng(6)
    x = r.normal(size=(2, 5, 5, 2))
    kernel = r.normal(size=(3, 3, 2, 3))
    bias = r.normal(size=3)
    probe = r.normal(size=(2, 2, 2, 3))  # random loss direction

    def loss_from(x_=None, k_=None, b_=None):
        return float((layers.conv_forward(x if x_ is None else x_,
                                          kernel if k_ is None else k_,
                                          bias if b_ is None else b_, stride=2)
                      * probe).sum())

    gi, gk, gb = layers.conv_backward(x, kernel, probe, stride=2)
    assert max_rel_err(gi, fd_grad(lambda v: loss_from(x_=v), x.copy())) < 1e-6
    assert max_rel_err(gk, fd_grad(lambda v: loss_from(k_=v), kernel.copy())) < 1e-6
    assert max_rel_err(gb, fd_grad(lambda v: loss_from(b_=v), bias.copy())) < 1e-6


def test_conv_backward_shape_mismatch():
    kernel = np.zeros((2, 2, 2, 3))
    with pytest.raises(ValueError, match="grad_out"):
        layers.conv_backward(np.zeros((1, 4, 4, 2)), kernel, np.zeros((1, 2, 2, 3)))


# ---------------------------------------------------------------- 1x1 conv

def test_conv1x1_stream_dims():
    x = rng(7).uniform(size=(1, 27, 27, 96))
    kernel = rng(8).normal(size=(1, 1, 96, 200)) * 0.05
    assert layers.conv_forward(x, kernel, np.zeros(200)).shape == (1, 27, 27, 200)


def test_conv1x1_mixer_dims():
    x = rng(9).uniform(size=(1, 27, 27, 700))
    kernel = rng(10).normal(size=(1, 1, 700, 500)) * 0.02
    assert layers.conv_forward(x, kernel, np.zeros(500)).shape == (1, 27, 27, 500)


def test_conv1x1_bit_identical_to_general_conv():
    r = rng(11)
    x = r.normal(size=(2, 4, 5, 3))
    kernel, bias = r.normal(size=(1, 1, 3, 2)), r.normal(size=2)
    grad_out = r.normal(size=(2, 4, 5, 2))
    cols = tensor.im2col(x, 1, 1).reshape(-1, 3)
    g = grad_out.reshape(-1, 2)
    kmat = kernel.reshape(3, 2)
    lowered = (cols @ kmat + bias).reshape(grad_out.shape)
    out = layers.conv_forward(x, kernel, bias)
    assert np.array_equal(out, lowered)
    gi, gk, gb = layers.conv_backward(x, kernel, grad_out)
    assert np.array_equal(gi, tensor.col2im(g @ kmat.T, x.shape, 1, 1))
    assert np.array_equal(gk, (cols.T @ g).reshape(kernel.shape))
    assert np.array_equal(gb, grad_out.sum(axis=(0, 1, 2)))


def test_conv1x1_with_stride_matches_naive():
    r = rng(12)
    x = r.normal(size=(2, 5, 5, 3))
    kernel, bias = r.normal(size=(1, 1, 3, 4)), r.normal(size=4)
    got = layers.conv_forward(x, kernel, bias, stride=2)
    want = naive_conv(x, kernel, bias, 2)
    assert got.shape == want.shape == (2, 3, 3, 4)
    assert max_rel_err(got, want) < 1e-10


# ---------------------------------------------------------------- relu

def test_relu_values():
    assert np.array_equal(layers.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_relu_all_negative():
    x = -rng(12).uniform(0.5, 1.0, size=(2, 3, 3, 2))
    assert not layers.relu(x).any()
    assert not layers.relu_backward(x, np.ones_like(x)).any()


def test_relu_backward_matches_finite_differences_away_from_kink():
    r = rng(13)
    x = r.normal(size=(2, 3, 3, 2))
    x[np.abs(x) < 1e-4] = 0.5  # keep the check clear of the kink
    probe = r.normal(size=x.shape)
    grad = layers.relu_backward(x, probe)
    numeric = fd_grad(lambda v: float((layers.relu(v) * probe).sum()), x.copy())
    assert max_rel_err(grad, numeric) < 1e-6


def test_relu_subgradient_zero_at_zero():
    g = layers.relu_backward(np.array([0.0]), np.array([5.0]))
    assert g[0] == 0.0


# ---------------------------------------------------------------- maxpool

def test_maxpool_full_scale_dims():
    x = rng(14).uniform(size=(1, 55, 55, 96))
    out = layers.maxpool_forward(x)
    assert out.shape == (1, 27, 27, 96)


def test_maxpool_constant_input():
    x = np.full((1, 5, 5, 2), 3.25)
    out = layers.maxpool_forward(x)
    assert np.all(out == 3.25)


def test_maxpool_matches_window_enumeration():
    x = rng(15).normal(size=(2, 7, 7, 2))
    out = layers.maxpool_forward(x)
    assert np.array_equal(out, naive_maxpool(x, 3, 2))
    # every winner lies inside its own window
    winners = layers.pool_winners(x, out, 3, 2)
    n, ho, wo, c = winners.shape
    for b in range(n):
        for y in range(ho):
            for xo in range(wo):
                for ch in range(c):
                    flat = winners[b, y, xo, ch]
                    row, col = divmod(int(flat), 7)
                    assert y * 2 <= row < y * 2 + 3
                    assert xo * 2 <= col < xo * 2 + 3


def test_maxpool_tie_breaks_to_lowest_flat_index():
    x = np.zeros((1, 3, 3, 1))
    winners = layers.pool_winners(x, layers.maxpool_forward(x), 3, 2)
    assert winners[0, 0, 0, 0] == 0


def test_maxpool_nan_window_keeps_last_offset():
    x = np.zeros((1, 3, 3, 1))
    x[0, 1, 1, 0] = np.nan
    out = layers.maxpool_forward(x)
    assert np.isnan(out[0, 0, 0, 0])
    assert layers.pool_winners(x, out, 3, 2)[0, 0, 0, 0] == 8


@pytest.mark.parametrize("case, window, stride", [
    ("relu", 3, 2), ("relu", 3, 3), ("equal", 3, 2), ("equal", 3, 3), ("levels", 3, 2),
    ("normal", 2, 1),
])
def test_maxpool_matches_gather_argmax(case, window, stride):
    r = rng(19)
    shape = (2, 12, 12, 3) if stride == 3 else (2, 11, 11, 3)
    x = {
        "relu": np.maximum(r.normal(size=shape) - 0.8, 0.0),  # mostly zero windows
        "equal": np.full(shape, 0.5),
        "levels": r.integers(0, 3, size=shape).astype(float),  # ties at the max
        "normal": r.normal(size=shape),
    }[case]
    out = layers.maxpool_forward(x, window, stride)
    want_out, want_winners = gather_maxpool(x, window, stride)
    assert np.array_equal(out, naive_maxpool(x, window, stride))
    assert np.array_equal(out, want_out)
    assert np.array_equal(layers.pool_winners(x, out, window, stride), want_winners)


def test_maxpool_too_small_errors():
    with pytest.raises(ValueError):
        layers.maxpool_forward(np.zeros((1, 2, 2, 1)))


def test_maxpool_backward_non_overlapping_ones():
    x = rng(16).normal(size=(1, 9, 9, 1))
    out = layers.maxpool_forward(x, window=3, stride=3)
    grad_in = layers.maxpool_backward(x, out, np.ones_like(out), window=3, stride=3)
    assert grad_in.sum() == out.size
    assert ((grad_in == 0) | (grad_in == 1)).all()
    for y in range(3):
        for xo in range(3):
            assert grad_in[0, y * 3:y * 3 + 3, xo * 3:xo * 3 + 3, 0].sum() == 1.0


def test_maxpool_backward_zeros_and_stale_map():
    x = rng(17).normal(size=(1, 5, 5, 2))
    out = layers.maxpool_forward(x)
    assert not layers.maxpool_backward(x, out, np.zeros_like(out)).any()
    with pytest.raises(ValueError, match="stale"):
        layers.maxpool_backward(x, out, np.zeros((1, 3, 3, 2)))
    with pytest.raises(ValueError, match="stale"):
        layers.maxpool_backward(x, out[:, :1], np.zeros_like(out))
    with pytest.raises(ValueError, match="stale"):
        layers.maxpool_backward(x[:, :3], out, np.zeros_like(out))


def test_maxpool_backward_matches_finite_differences():
    r = rng(18)
    x = r.normal(size=(1, 5, 5, 2))
    out = layers.maxpool_forward(x)
    # regenerate until every window has a clear gap between max and runner-up
    probe = r.normal(size=out.shape)
    grad = layers.maxpool_backward(x, out, probe)
    numeric = fd_grad(lambda v: float((layers.maxpool_forward(v) * probe).sum()),
                      x.copy())
    assert max_rel_err(grad, numeric) < 1e-6


# ---------------------------------------------------------------- lrn

def test_lrn_zero_input():
    p = LrnParams()
    assert not layers.lrn_forward(np.zeros((1, 2, 2, 8)), p).any()


def test_lrn_constant_channels_against_scalar_oracle():
    p = LrnParams(size=5, k=2.0, alpha=1e-4, beta=0.75)
    x = np.full((1, 1, 1, 96), 2.0)
    out = layers.lrn_forward(x, p)
    want = lrn_scalar(x, 5, 2.0, 1e-4, 0.75)
    assert max_rel_err(out, want) < 1e-12
    # interior channels see the full 5-channel window: sum of squares is 20
    interior = 2.0 / (2.0 + (1e-4 / 5) * 20.0) ** 0.75
    assert abs(out[0, 0, 0, 48] - interior) < 1e-12
    assert out[0, 0, 0, 0] > out[0, 0, 0, 48]  # truncated edge window divides less


def test_lrn_alpha_zero_k_one_is_identity():
    x = rng(19).normal(size=(2, 3, 3, 6))
    out = layers.lrn_forward(x, LrnParams(size=5, k=1.0, alpha=0.0, beta=0.9))
    assert np.array_equal(out, x)


def test_lrn_random_matches_scalar_oracle():
    x = rng(20).normal(size=(2, 3, 4, 7))
    p = LrnParams(size=4, k=1.5, alpha=0.3, beta=0.6)
    assert max_rel_err(layers.lrn_forward(x, p),
                       lrn_scalar(x, 4, 1.5, 0.3, 0.6)) < 1e-12


def test_lrn_never_amplifies_when_k_at_least_one():
    x = rng(21).normal(size=(2, 3, 3, 8)) * 3
    out = layers.lrn_forward(x, LrnParams(size=5, k=1.0, alpha=2.0, beta=0.75))
    assert (np.abs(out) <= np.abs(x) + 1e-15).all()


def test_lrn_backward_alpha_zero():
    x = rng(22).normal(size=(1, 2, 2, 5))
    g = rng(23).normal(size=x.shape)
    p = LrnParams(size=3, k=2.0, alpha=0.0, beta=0.75)
    assert max_rel_err(layers.lrn_backward(x, p, g), g / 2.0 ** 0.75) < 1e-15


def test_lrn_backward_zero_grad():
    x = rng(24).normal(size=(1, 2, 2, 5))
    assert not layers.lrn_backward(x, LrnParams(), np.zeros_like(x)).any()


def test_lrn_backward_matches_finite_differences():
    r = rng(25)
    x = r.normal(size=(1, 2, 2, 8))
    probe = r.normal(size=x.shape)
    p = LrnParams(size=5, k=2.0, alpha=0.5, beta=0.75)
    grad = layers.lrn_backward(x, p, probe)
    numeric = fd_grad(lambda v: float((layers.lrn_forward(v, p) * probe).sum()), x.copy())
    assert max_rel_err(grad, numeric) < 1e-6


def test_lrn_params_invariants():
    with pytest.raises(ValueError):
        LrnParams(size=0)
    with pytest.raises(ValueError):
        LrnParams(k=0.0)
    with pytest.raises(ValueError):
        LrnParams(beta=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("k", "alpha", "beta"):
            with pytest.raises(ValueError, match=name):
                LrnParams(**{name: bad})


# ---------------------------------------------------------------- concat / split

def test_concat_stream_dims():
    a = rng(26).uniform(size=(1, 27, 27, 400))
    b = rng(27).uniform(size=(1, 27, 27, 300))
    out = layers.concat_channels([a, b])
    assert out.shape == (1, 27, 27, 700)
    assert np.array_equal(out[..., :400], a)
    assert np.array_equal(out[..., 400:], b)


def test_concat_single_input_is_identity():
    a = rng(28).uniform(size=(1, 3, 3, 4))
    assert np.array_equal(layers.concat_channels([a]), a)


def test_split_inverts_concat():
    r = rng(29)
    a, b = r.normal(size=(2, 3, 4, 5)), r.normal(size=(2, 3, 4, 2))
    sa, sb = layers.split_channels(layers.concat_channels([a, b]), [5, 2])
    assert np.array_equal(sa, a) and np.array_equal(sb, b)


def test_split_returns_views_of_the_gradient():
    grad = rng(30).normal(size=(2, 3, 4, 7))
    parts = layers.split_channels(grad, [5, 2])
    assert all(np.shares_memory(part, grad) for part in parts)


def test_concat_spatial_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        layers.concat_channels([np.zeros((1, 3, 3, 2)), np.zeros((1, 4, 3, 2))])


# ---------------------------------------------------------------- fc

def test_fc_identity_weight():
    x = rng(30).normal(size=(3, 4))
    assert np.array_equal(layers.fc_forward(x, np.eye(4), np.zeros(4)), x)


def test_fc_zero_input_returns_bias():
    b = rng(31).normal(size=5)
    assert np.array_equal(layers.fc_forward(np.zeros((2, 3)), np.zeros((3, 5)), b),
                          np.tile(b, (2, 1)))


def test_fc_backward_matches_finite_differences():
    r = rng(32)
    x = r.normal(size=(3, 4))
    weight = r.normal(size=(4, 5))
    bias = r.normal(size=5)
    probe = r.normal(size=(3, 5))

    gi, gw, gb = layers.fc_backward(x, weight, probe)
    assert max_rel_err(gi, fd_grad(
        lambda v: float((layers.fc_forward(v, weight, bias) * probe).sum()),
        x.copy())) < 1e-7
    assert max_rel_err(gw, fd_grad(
        lambda v: float((layers.fc_forward(x, v, bias) * probe).sum()),
        weight.copy())) < 1e-7
    assert max_rel_err(gb, fd_grad(
        lambda v: float((layers.fc_forward(x, weight, v) * probe).sum()),
        bias.copy())) < 1e-7


def test_fc_dimension_mismatch():
    with pytest.raises(ValueError):
        layers.fc_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))


# ---------------------------------------------------------------- softmax

def test_softmax_xent_uniform_logits():
    loss, grad = layers.softmax_xent(np.zeros((1, 4)), [2])
    assert abs(loss - np.log(4.0)) < 1e-12
    want = np.full(4, 0.25)
    want[2] -= 1.0
    assert np.allclose(grad[0], want, atol=1e-12)


def test_softmax_xent_extreme_logits_stable():
    loss, grad = layers.softmax_xent(np.array([[1000.0, 0.0]]), [0])
    assert np.isfinite(loss) and loss < 1e-12
    assert np.isfinite(grad).all()
    # the label's softmax entry underflows to 0, but the loss stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = layers.softmax_xent(np.array([[0.0, 800.0]]), [0])
    assert loss == 800.0
    assert np.isfinite(grad).all()


def test_softmax_xent_loss_matches_finite_differences():
    r = rng(33)
    logits = r.normal(size=(1, 10))
    label = [int(r.integers(0, 10))]
    _, grad = layers.softmax_xent(logits, label)
    numeric = fd_grad(lambda v: layers.softmax_xent(v, label)[0], logits.copy())
    assert np.abs(grad - numeric).max() < 1e-8


def test_softmax_xent_batch_mean():
    r = rng(34)
    logits = r.normal(size=(4, 3))
    labels = np.array([0, 1, 2, 1])
    loss, grad = layers.softmax_xent(logits, labels)
    singles = [layers.softmax_xent(logits[i:i + 1], labels[i:i + 1]) for i in range(4)]
    assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
    assert np.allclose(grad, np.concatenate([s[1] for s in singles]) / 4.0, atol=1e-15)


def test_softmax_xent_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        layers.softmax_xent(np.zeros((1, 3)), [3])


@given(st.integers(0, 2 ** 31))
@settings(max_examples=50, deadline=None)
def test_softmax_probabilities_sum_to_one(seed):
    # the gradient is (softmax - onehot) / n, so its rows sum to 0
    logits = np.random.default_rng(seed).normal(scale=10.0, size=(3, 7))
    loss, grad = layers.softmax_xent(logits, [0, 1, 2])
    assert np.abs(grad.sum(axis=1)).max() < 1e-12
    assert loss >= 0.0
