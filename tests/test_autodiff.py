"""Autodiff primitives: hand-checked point values, gradient oracles, tape behavior."""

import ast
import gc
import importlib
import math
import weakref
from pathlib import Path

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


def test_softplus_matches_logaddexp_without_overflow():
    x = np.concatenate([np.linspace(-800.0, 800.0, 20001), [-np.inf, 0.0, np.inf]])
    y = ad.softplus(Tensor(x)).data
    np.testing.assert_allclose(y, np.logaddexp(0.0, x), rtol=1e-15, atol=0.0)
    assert ad.softplus(Tensor(x.astype(np.float32))).dtype == np.float32


@pytest.mark.parametrize("fn", [ad.sigmoid, ad.silu, ad.gelu, ad.softplus])
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
        lambda: ad.silu(ad.layernorm(x, gain, bias)).sum(),
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
    ids = np.array([[1, 1, 2], [3, 1, 2]]) + 1  # id k reads row k - 1
    with Tape() as tape:
        out = ad.embedding(table, ids).sum()
    tape.backward(out)
    counts = np.array([0.0, 3.0, 2.0, 1.0])
    np.testing.assert_allclose(table.grad, counts[:, None] * np.ones((1, 3)))


def test_embedding_padding_id_reads_zero_and_passes_no_gradient():
    table = Tensor(np.random.default_rng(2).normal(size=(3, 2)), requires_grad=True)
    ids = np.array([[0, 3, 0, 1]])
    w = np.arange(1.0, 9.0).reshape(1, 4, 2)  # a nonzero gradient at every position, padding included
    with Tape() as tape:
        out = ad.embedding(table, ids)
        loss = ad.mul(out, Tensor(w)).sum()
    tape.backward(loss)
    np.testing.assert_array_equal(out.data[0], [[0.0, 0.0], table.data[2], [0.0, 0.0], table.data[0]])
    np.testing.assert_array_equal(table.grad, [w[0, 3], [0.0, 0.0], w[0, 1]])
    with pytest.raises(IndexError):
        ad.embedding(table, np.array([4]))


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
        y = ad.mul(x, Tensor(2.0))
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
                hidden = ad.silu(ad.mul(x, Tensor(3.0)))
                loss = hidden.sum()
            tape.backward(loss)
            probe = weakref.ref(hidden.data)  # Tensor has __slots__; its buffer takes weakrefs
            del hidden
            assert probe() is not None  # the live tape still holds the step's graph
        tape = loss = None
        assert probe() is None
    finally:
        gc.enable()


def test_shape_ops_gradients():
    rng = np.random.default_rng(14)
    x = rand_tensor(rng, 2, 4, 3)

    def fn():
        a = ad.index(x, np.s_[..., 1:3])
        b = ad.index(x, np.s_[:, 2])
        c = ad.index(a, (np.arange(2)[:, None], np.tile(np.arange(4)[::-1], (2, 1))))
        d = ad.index(x, (np.arange(2), np.array([3, 1])))  # one step per row
        return ad.add(ad.add(ad.mul(c, c).sum(), ad.mul(b, b).sum()), ad.mul(d, d).sum())

    check_grads(fn, [("x", x)], tol=1e-6)


def test_index_with_a_per_row_map_gathers_and_scatters():
    x = Tensor(np.arange(12.0).reshape(1, 4, 3), requires_grad=True)
    idx = np.array([[3, 2, 1, 0]])
    with Tape() as tape:
        y = ad.index(x, (np.arange(1)[:, None], idx))
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
    out = ad.gelu(ad.add(ad.mul(x, Tensor(np.float32(0.5))), Tensor(np.float32(1.0))))
    assert out.dtype == np.float32


def _uses_of(module, files):
    """Names of ``mambarec.<module>`` that ``files`` use: an attribute of the module (or of ``ad``), a name
    imported from it, or, in the module's own file, a bare name outside the definition that binds it."""
    aliases = {module, "ad"} if module == "autodiff" else {module}
    used = set()
    for path in files:
        own = path.parent.name == "mambarec" and path.stem == module
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            binds = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                    used.update(alias.name for alias in node.names)
                elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != binds:
                    used.add(node.id)
    return used


def test_every_public_op_has_a_caller_outside_the_tests():
    # every module with an __all__ is checked; cli has none, its caller is the console script.
    # autodiff's own file is not searched: each of its ops must be called from the model or the benchmark
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "mambarec").glob("*.py"))
    files = [f for f in sources if f.name != "autodiff.py"]
    files += (root / "perfbench").glob("*.py")
    unused = {}
    for path in sources:
        module = importlib.import_module(f"mambarec.{path.stem}")
        missing = sorted(set(getattr(module, "__all__", ())) - _uses_of(path.stem, files))
        if missing:
            unused[path.stem] = missing
    assert unused == {}


def test_every_public_class_member_is_read_outside_the_tests():
    # a public method or property counts as used when its name is read as an attribute anywhere in src/ or
    # perfbench/, perfbench's own tests included; names are matched, not types, so `x.shape` counts for any `shape`
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "mambarec").glob("*.py"))
    files = sources + sorted((root / "perfbench").rglob("*.py"))
    read = {node.attr for path in files for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = [
        f"{path.stem}.{cls.name}.{member.name}"
        for path in sources
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_") and member.name not in read
    ]
    assert unused == []
