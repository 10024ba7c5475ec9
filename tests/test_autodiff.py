"""Autodiff primitives: hand-checked point values, gradient oracles, tape behavior."""

import gc
import math
import weakref

import numpy as np
import pytest
from helpers import check_grads, rand_tensor

import mambarec.autodiff as ad
from mambarec.autodiff import Tape, Tensor
from mambarec.errors import ContractError, ShapeError


def test_matmul_identity():
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    m = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(ad.matmul(eye, m).data, m.data)


def test_matmul_row_times_column():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, 3, 4)
    b = rand_tensor(rng, 4, 2)
    check_grads(lambda: ad.matmul(a, b).sum(), [("a", a), ("b", b)], tol=1e-6)


def test_matmul_batched_broadcast_gradient():
    rng = np.random.default_rng(4)
    a = rand_tensor(rng, 2, 3, 4)
    b = rand_tensor(rng, 4, 5)
    check_grads(lambda: ad.matmul(a, b).sum(), [("a", a), ("b", b)], tol=1e-6)


@pytest.mark.parametrize(
    "fn,x,expected",
    [
        (ad.sigmoid, 0.0, 0.5),
        (ad.silu, 0.0, 0.0),
        (ad.relu, -2.0, 0.0),
        (ad.tanh, 0.0, 0.0),
    ],
)
def test_activation_point_values(fn, x, expected):
    assert float(fn(Tensor([x])).data[0]) == pytest.approx(expected, abs=1e-12)


def test_gelu_tanh_approximation_at_one():
    # 0.5 * 1 * (1 + tanh(sqrt(2/pi) * (1 + 0.044715)))
    inner = math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)
    expected = 0.5 * (1.0 + math.tanh(inner))
    assert float(ad.gelu(Tensor([1.0])).data[0]) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.8412, abs=1e-4)


@pytest.mark.parametrize("fn", [ad.sigmoid, ad.tanh, ad.silu, ad.gelu, ad.exp, ad.softplus, ad.relu])
def test_activation_gradients(fn):
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, 17)
    check_grads(lambda: fn(x).sum(), [("x", x)], tol=1e-6)


def test_add_mul_broadcast_gradients():
    rng = np.random.default_rng(5)
    a = rand_tensor(rng, 2, 3, 4)
    b = rand_tensor(rng, 4)
    c = rand_tensor(rng, 2, 1, 4)
    check_grads(lambda: (ad.mul(ad.add(a, b), c)).sum(), [("a", a), ("b", b), ("c", c)], tol=1e-6)


def test_broadcast_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


def test_conv1d_identity_kernel():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 3)))
    out = ad.conv1d_depthwise(x, Tensor(np.ones((1, 3))), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1d_hand_unrolled():
    x = Tensor(np.array([[[1.0], [2.0], [3.0]]]))
    out = ad.conv1d_depthwise(x, Tensor([[1.0], [1.0]]), Tensor([0.0]))
    assert out.data.ravel().tolist() == [1.0, 3.0, 5.0]


def test_conv1d_kernel_wider_than_sequence():
    x = Tensor(np.ones((1, 2, 1)))
    out = ad.conv1d_depthwise(x, Tensor(np.ones((5, 1))), Tensor(np.zeros(1)))
    # padding covers the missing history: [1, 2] cumulative sums
    assert out.data.ravel().tolist() == [1.0, 2.0]


def test_conv1d_gradients():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, 2, 6, 3)
    k = rand_tensor(rng, 4, 3)
    b = rand_tensor(rng, 3)
    check_grads(
        lambda: ad.mul(ad.conv1d_depthwise(x, k, b), ad.conv1d_depthwise(x, k, b)).sum(),
        [("x", x), ("k", k), ("b", b)],
        tol=1e-6,
    )


def test_layernorm_constant_row_is_zero():
    x = Tensor(np.full((2, 4), 3.0))
    out = ad.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layernorm_two_point_row():
    out = ad.layernorm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layernorm_output_mean_equals_bias():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 5, 8)))
    bias = Tensor(rng.normal(size=8))
    out = ad.layernorm(x, Tensor(np.ones(8)), bias)
    np.testing.assert_allclose(out.data.mean(axis=-1), np.full((3, 5), bias.data.mean()), atol=1e-6)


def test_layernorm_gradients():
    rng = np.random.default_rng(10)
    x = rand_tensor(rng, 2, 3, 6)
    gain = rand_tensor(rng, 6)
    bias = rand_tensor(rng, 6)
    check_grads(
        lambda: ad.tanh(ad.layernorm(x, gain, bias)).sum(),
        [("x", x), ("gain", gain), ("bias", bias)],
        tol=1e-5,
    )


def test_cross_entropy_uniform_logits():
    loss = ad.softmax_cross_entropy(Tensor(np.zeros((4, 10))), np.zeros(4, dtype=np.int64))
    assert float(loss.data) == pytest.approx(math.log(10.0), rel=1e-12)


def test_cross_entropy_confident_logits():
    loss = ad.softmax_cross_entropy(Tensor([[10.0, -10.0]]), np.array([0]))
    assert float(loss.data) == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-6)
    assert float(loss.data) == pytest.approx(2.061e-9, rel=1e-3)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_gradients():
    rng = np.random.default_rng(12)
    logits = rand_tensor(rng, 5, 7)
    targets = rng.integers(0, 7, size=5)
    check_grads(lambda: ad.softmax_cross_entropy(logits, targets), [("logits", logits)], tol=1e-6)


def test_embedding_gradient_counts_occurrences():
    table = Tensor(np.random.default_rng(1).normal(size=(4, 3)), requires_grad=True)
    ids = np.array([[1, 1, 2], [3, 1, 2]])
    with Tape() as tape:
        out = ad.embedding(table, ids).sum()
    tape.backward(out)
    counts = np.array([0.0, 3.0, 2.0, 1.0])
    np.testing.assert_allclose(table.grad, counts[:, None] * np.ones((1, 3)))


def test_sum_of_leaf_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        tape.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_quadratic_gradient():
    x = Tensor(np.arange(4.0), requires_grad=True)
    with Tape() as tape:
        loss = ad.mul(x, x).sum()
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data)


def test_fanout_accumulates():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        y = ad.add(x, x).sum()
    tape.backward(y)
    np.testing.assert_array_equal(x.grad, [2.0])


def test_repeated_backward_accumulates_without_reset():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = x.sum()
    tape.backward(loss)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_backward_requires_a_tape():
    x = Tensor([1.0], requires_grad=True)
    loss = x.sum()  # no tape active
    with pytest.raises(ContractError):
        Tape().backward(loss)


def test_tape_graph_is_freed_without_the_cycle_collector():
    x = Tensor([1.0, 2.0], requires_grad=True)
    gc.disable()
    try:
        for _ in range(2):  # the second step rebinds tape and loss
            with Tape() as tape:
                hidden = ad.tanh(ad.mul(x, 3.0))
                loss = hidden.sum()
            tape.backward(loss)
            probe = weakref.ref(hidden.data)  # Tensor has __slots__; its buffer takes weakrefs
            del hidden
            assert probe() is not None  # the live tape still holds the step's graph
        tape = loss = None
        assert probe() is None
    finally:
        gc.enable()


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        assert len(tape) == 0


def test_shape_ops_gradients():
    rng = np.random.default_rng(14)
    x = rand_tensor(rng, 2, 4, 3)

    def fn():
        a = ad.narrow(x, -1, 1, 2)
        b = ad.select(x, 1, 2)
        c = ad.reshape(a, (2, 8))
        d = ad.concat((b, c), axis=-1)
        e = ad.stack([d, ad.mul(d, 2.0)], axis=1)
        return ad.mul(e, e).sum()

    check_grads(fn, [("x", x)], tol=1e-6)


def test_take_along_time_gather_and_scatter():
    x = Tensor(np.arange(12.0).reshape(1, 4, 3), requires_grad=True)
    idx = np.array([[3, 2, 1, 0]])
    with Tape() as tape:
        y = ad.take_along_time(x, idx)
        loss = ad.mul(y, Tensor(np.arange(12.0).reshape(1, 4, 3))).sum()
    np.testing.assert_array_equal(y.data, x.data[:, ::-1, :])
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.arange(12.0).reshape(1, 4, 3)[:, ::-1, :])


def test_determinism_identical_inputs():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    w = Tensor(rng.normal(size=(4, 4)).astype(np.float32))

    def run():
        return ad.silu(ad.matmul(ad.layernorm(x, Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))), w)).data

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_float32_ops_stay_float32():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    out = ad.gelu(ad.add(ad.mul(x, 0.5), 1.0))
    assert out.dtype == np.float32
