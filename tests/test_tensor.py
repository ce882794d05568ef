import numpy as np
import pytest

from lfhn import tensor

from oracles import naive_conv, naive_im2col, max_rel_err


def test_im2col_full_scale_dims():
    x = np.random.default_rng(2).uniform(size=(1, 227, 227, 3))
    cols = tensor.im2col(x, 11, 11, stride=4)
    assert cols.shape == (1, 3025, 363)  # 55 * 55 outputs, 11 * 11 * 3 window


def test_im2col_1x1_is_a_reshape():
    x = np.random.default_rng(3).uniform(size=(2, 6, 5, 4))
    cols = tensor.im2col(x, 1, 1, stride=1)
    assert np.array_equal(cols, x.reshape(2, 30, 4))


def test_im2col_window_enumeration():
    # 3x3 single-channel input, 2x2 window, stride 1: four rows, checked
    # against an explicit window walk
    x = np.arange(9.0).reshape(1, 3, 3, 1)
    cols = tensor.im2col(x, 2, 2, stride=1)
    assert cols.shape == (1, 4, 4)
    expected = []
    for y in range(2):
        for xo in range(2):
            expected.append(x[0, y:y + 2, xo:xo + 2, 0].reshape(-1))
    assert np.array_equal(cols[0], np.array(expected))


@pytest.mark.parametrize("shape, kh, kw, stride", [
    ((2, 7, 7, 3), 3, 3, 2),
    ((1, 6, 5, 2), 2, 3, 1),
    ((3, 9, 9, 1), 3, 3, 3),
    ((2, 15, 15, 3), 11, 11, 4),
    ((2, 5, 5, 4), 1, 1, 2),
])
def test_im2col_matches_window_walk(shape, kh, kw, stride):
    x = np.random.default_rng(6).normal(size=shape)
    assert np.array_equal(tensor.im2col(x, kh, kw, stride),
                          naive_im2col(x, kh, kw, stride))


def test_im2col_non_integral_extent_errors():
    with pytest.raises(ValueError, match="non-integral"):
        tensor.im2col(np.zeros((1, 6, 6, 1)), 3, 3, stride=2)


def test_im2col_matmul_equals_naive_conv():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 10:
        h, w = rng.integers(4, 17, size=2)
        cin = int(rng.integers(1, 9))
        cout = int(rng.integers(1, 5))
        kh = int(rng.integers(1, min(4, h) + 1))
        kw = int(rng.integers(1, min(4, w) + 1))
        stride = int(rng.integers(1, 3))
        if (h - kh) % stride or (w - kw) % stride:
            continue
        x = rng.normal(size=(2, h, w, cin))
        kernel = rng.normal(size=(kh, kw, cin, cout))
        bias = rng.normal(size=cout)
        cols = tensor.im2col(x, kh, kw, stride)
        got = cols.reshape(-1, kh * kw * cin) @ kernel.reshape(-1, cout) + bias
        want = naive_conv(x, kernel, bias, stride)
        assert max_rel_err(got.reshape(want.shape), want) < 1e-10
        checked += 1


def test_col2im_is_adjoint_of_im2col():
    # <im2col(x), c> == <x, col2im(c)> for random pairings
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 6, 7, 3))
    cols = tensor.im2col(x, 3, 2, stride=1)
    c = rng.normal(size=cols.shape)
    lhs = float((cols * c).sum())
    rhs = float((x * tensor.col2im(c, x.shape, 3, 2, stride=1)).sum())
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("shape, kh, kw, stride", [
    ((3, 67, 67, 1), 11, 11, 4), ((2, 9, 8, 3), 3, 2, 2), ((2, 5, 5, 4), 1, 1, 1)])
def test_im2col_into_out_has_the_bits_of_a_fresh_lowering(shape, kh, kw, stride):
    x = np.random.default_rng(6).normal(size=shape)
    want = tensor.im2col(x, kh, kw, stride)
    out = np.full(want.shape, np.nan)
    assert tensor.im2col(x, kh, kw, stride, out=out) is out
    assert out.tobytes() == want.tobytes()
    # one image at a time into rows of one batch buffer, as conv_forward lowers it
    rows = np.empty_like(want)
    for i in range(shape[0]):
        tensor.im2col(x[i:i + 1], kh, kw, stride, out=rows[i:i + 1])
    assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("out", [np.empty((2, 16, 8)), np.empty((2, 9, 16)).transpose(0, 2, 1)],
                         ids=["shape", "strided"])
def test_im2col_refuses_an_out_it_cannot_fill_in_place(out):
    with pytest.raises(ValueError, match="im2col out"):
        tensor.im2col(np.zeros((2, 6, 6, 1)), 3, 3, 1, out=out)
