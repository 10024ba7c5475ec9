"""Selective scan and block behavior against independent oracles."""

import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from helpers import check_grads, rand_tensor

import mambarec.autodiff as ad
from mambarec.autodiff import Tape, Tensor
from mambarec.errors import NumericError, ShapeError
from mambarec.mamba import dt_rank_for, flush_negligible, init_mamba_params, mamba_forward, scan_tile, ssm_scan


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    return np.logaddexp(0.0, x)


def unrolled_scan_oracle(u, delta, A_log, B, C, D_skip):
    """Dense brute-force sum: y_t = C_t . sum_{s<=t} (prod_{s<r<=t} dA_r) dBu_s + D*u_t, with A = -exp(A_log)."""
    bsz, length, d_inner = u.shape
    d_state = A_log.shape[1]
    A = -np.exp(A_log)
    dA = np.exp(delta[..., None] * A)  # [B, L, ED, S]
    dBu = delta[..., None] * u[..., None] * B[:, :, None, :]
    y = np.zeros_like(u)
    for t in range(length):
        acc = np.zeros((bsz, d_inner, d_state))
        for s in range(t + 1):
            term = dBu[:, s]
            for r in range(s + 1, t + 1):
                term = term * dA[:, r]
            acc += term
        y[:, t] = (acc * C[:, t][:, None, :]).sum(-1) + D_skip * u[:, t]
    return y


def stepwise_block_oracle(x, p):
    """Independent per-timestep numpy evaluation of the whole block."""
    bsz, length, dim = x.shape
    d_inner, d_state, rank = p.in_u.shape[1], p.d_state, p.dt_rank
    k = p.conv_kernel.shape[0]
    window = np.zeros((bsz, k, d_inner))
    h = np.zeros((bsz, d_inner, d_state))
    a = -np.exp(p.A_log.data)
    out = np.zeros_like(x)
    for t in range(length):
        u_raw, z = x[:, t] @ p.in_u.data, x[:, t] @ p.in_z.data
        window = np.roll(window, -1, axis=1)
        window[:, -1] = u_raw
        c = (window * p.conv_kernel.data[None]).sum(axis=1) + p.conv_bias.data
        u = c * _sigmoid(c)
        dbc = u @ p.x_proj.data
        dt = _softplus(dbc[:, :rank] @ p.dt_proj.data + p.dt_bias.data)
        b_t = dbc[:, rank : rank + d_state]
        c_t = dbc[:, rank + d_state :]
        h = np.exp(dt[..., None] * a) * h + (dt * u)[..., None] * b_t[:, None, :]
        y = (h * c_t[:, None, :]).sum(-1) + p.D_skip.data * u
        out[:, t] = (y * (z * _sigmoid(z))) @ p.out_proj.data
    return out


def test_scalar_recurrence_hand_case():
    # A_bar = 0.5 via delta=1, A = -exp(A_log) = ln(0.5); B_bar = 1, C = 1, D = 0; inputs [1, 1]
    y = ssm_scan(
        Tensor(np.ones((1, 2, 1))),
        Tensor(np.ones((1, 2, 1))),
        Tensor([[np.log(np.log(2.0))]]),
        Tensor(np.ones((1, 2, 1))),
        Tensor(np.ones((1, 2, 1))),
        Tensor(np.zeros(1)),
    )
    np.testing.assert_allclose(y.data.ravel(), [1.0, 1.5], atol=1e-12)


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_scan_output_never_grows_for_any_stored_A_log(taped):
    # A = -exp(A_log) < 0 for every real A_log, so one unit input at step 0 can only decay after it
    rng = np.random.default_rng(36)
    length, d_inner, d_state = 40, 4, 8
    a_log = rng.uniform(-3.0, 3.0, size=(d_inner, d_state))
    assert (a_log > 0).any() and (a_log < 0).any()
    u = np.zeros((1, length, d_inner))
    u[:, 0] = 1.0
    ones = np.ones((1, length, d_state))
    inputs = [Tensor(x, requires_grad=taped) for x in (u, np.full(u.shape, 0.5), a_log, ones, ones, np.zeros(d_inner))]
    with Tape() if taped else nullcontext():
        y = ssm_scan(*inputs).data[0]
    assert (y[0] > 0).all()
    assert (np.diff(y, axis=0) <= 0).all()


def test_single_step_has_no_history():
    rng = np.random.default_rng(0)
    u = Tensor(rng.normal(size=(2, 1, 3)))
    delta = Tensor(np.abs(rng.normal(size=(2, 1, 3))) + 0.1)
    a = Tensor(-np.abs(rng.normal(size=(3, 4))) - 0.1)
    b = Tensor(rng.normal(size=(2, 1, 4)))
    c = Tensor(rng.normal(size=(2, 1, 4)))
    d = Tensor(rng.normal(size=3))
    y = ssm_scan(u, delta, a, b, c, d)
    drive = (delta.data * u.data)[..., None] * b.data[:, :, None, :]
    expected = (drive[:, 0] * c.data[:, 0][:, None, :]).sum(-1) + d.data * u.data[:, 0]
    np.testing.assert_allclose(y.data[:, 0], expected, atol=1e-12)


def test_delta_zero_limit_reduces_to_skip():
    rng = np.random.default_rng(1)
    u = Tensor(rng.normal(size=(2, 4, 3)))
    delta = Tensor(np.full((2, 4, 3), 1e-14))
    a = Tensor(-np.abs(rng.normal(size=(3, 5))))
    b = Tensor(rng.normal(size=(2, 4, 5)))
    c = Tensor(rng.normal(size=(2, 4, 5)))
    d = Tensor(rng.normal(size=3))
    y = ssm_scan(u, delta, a, b, c, d)
    np.testing.assert_allclose(y.data, u.data * d.data, atol=1e-10)


def test_scan_matches_dense_unrolled_oracle():
    rng = np.random.default_rng(2)
    u = rng.normal(size=(2, 8, 3))
    delta = np.abs(rng.normal(size=(2, 8, 3))) + 0.05
    a = -np.abs(rng.normal(size=(3, 4))) - 0.05
    b = rng.normal(size=(2, 8, 4))
    c = rng.normal(size=(2, 8, 4))
    d = rng.normal(size=3)
    got = ssm_scan(Tensor(u), Tensor(delta), Tensor(a), Tensor(b), Tensor(c), Tensor(d))
    expected = unrolled_scan_oracle(u, delta, a, b, c, d)
    np.testing.assert_allclose(got.data, expected, atol=1e-10)


def test_scan_shape_validation():
    with pytest.raises(ShapeError):
        ssm_scan(
            Tensor(np.ones((1, 2, 3))),
            Tensor(np.ones((1, 2, 2))),
            Tensor(np.ones((3, 4))),
            Tensor(np.ones((1, 2, 4))),
            Tensor(np.ones((1, 2, 4))),
            Tensor(np.ones(3)),
        )


def _scan_inputs(rng, bsz=2, length=8, d_inner=3, d_state=4):
    """Float64 scan inputs: delta > 0, and A_log < 0, which puts A = -exp(A_log) in (-1, 0)."""
    return [
        rand_tensor(rng, bsz, length, d_inner),
        Tensor(np.abs(rng.normal(size=(bsz, length, d_inner))) + 0.05, requires_grad=True),
        Tensor(-np.abs(rng.normal(size=(d_inner, d_state))) - 0.05, requires_grad=True),
        rand_tensor(rng, bsz, length, d_state),
        rand_tensor(rng, bsz, length, d_state),
        rand_tensor(rng, d_inner),
    ]


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_scan_reports_step_of_blowup(taped):
    u = Tensor(np.full((1, 3, 1), 1e300), requires_grad=taped)
    delta = Tensor(np.full((1, 3, 1), 1e300))
    a = Tensor([[-1e-9]])
    b = Tensor(np.full((1, 3, 1), 1e300))
    c = Tensor(np.ones((1, 3, 1)))
    d = Tensor(np.zeros(1))
    with Tape() if taped else nullcontext():
        with pytest.raises(NumericError, match="step 0"):
            ssm_scan(u, delta, a, b, c, d)


@pytest.mark.parametrize("length", [1, 8, 64])
def test_recorded_scan_is_one_tape_record(length):
    inputs = _scan_inputs(np.random.default_rng(12), length=length)
    with Tape() as tape:
        ssm_scan(*inputs)
    assert len(tape) == 1


@pytest.mark.parametrize("length", [1, 7])
def test_scan_gradients_of_all_six_inputs(length):
    rng = np.random.default_rng(13)
    u, delta, a, b, c, d = inputs = _scan_inputs(rng, length=length)
    w = Tensor(rng.normal(size=u.shape))
    named = list(zip(("u", "delta", "A", "B", "C", "D_skip"), inputs))
    check_grads(lambda: ad.mul(ssm_scan(u, delta, a, b, c, d), w).sum(), named, tol=1e-6)


def _multi_tile_shape(min_length=0):
    """Float64 (bsz, length, d_inner, d_state) that spans two row blocks and two time chunks of the scan."""
    d_inner, d_state = 64, 32
    rows, steps = scan_tile(1 << 30, 1 << 30, d_inner, d_state, np.dtype(np.float64).itemsize)
    bsz, length = rows + 1, max(2 * steps + 1, min_length)
    assert scan_tile(bsz, length, d_inner, d_state, 8) == (rows, steps)
    assert bsz > rows and length > steps, "the shape must span two row blocks and two time chunks"
    return bsz, length, d_inner, d_state


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_tiled_scan_matches_dense_unrolled_oracle(taped):
    bsz, length, d_inner, d_state = _multi_tile_shape()
    inputs = _scan_inputs(np.random.default_rng(14), bsz, length, d_inner, d_state)
    with Tape() if taped else nullcontext():
        got = ssm_scan(*inputs)
    np.testing.assert_allclose(got.data, unrolled_scan_oracle(*(t.data for t in inputs)), rtol=1e-12, atol=1e-12)


def test_tiled_scan_gradients_of_all_six_inputs():
    rng = np.random.default_rng(15)
    bsz, length, d_inner, d_state = _multi_tile_shape()
    u, delta, a, b, c, d = inputs = _scan_inputs(rng, bsz, length, d_inner, d_state)
    w = Tensor(rng.normal(size=u.shape))
    named = list(zip(("u", "delta", "A", "B", "C", "D_skip"), inputs))
    check_grads(lambda: ad.mul(ssm_scan(u, delta, a, b, c, d), w).sum(), named, tol=1e-6, max_entries=16)


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_tiled_scan_reports_the_earliest_blowup_over_all_rows(taped):
    bsz, length, d_inner, d_state = _multi_tile_shape(min_length=31)
    rows, _ = scan_tile(bsz, length, d_inner, d_state, 8)
    u, delta, a, b, c, d = inputs = _scan_inputs(np.random.default_rng(16), bsz, length, d_inner, d_state)
    for row, step in ((rows, 9), (0, 30)):  # step 9 in the second row block, step 30 in row 0
        u.data[row, step] = 1e300
        b.data[row, step] = 1e300
    with Tape() if taped else nullcontext():
        with pytest.raises(NumericError, match="step 9$"):
            ssm_scan(*inputs)


def test_taped_and_untaped_scan_are_bitwise_equal():
    # both calls run one forward; only the taped one also keeps the tile boundary states
    bsz, length, d_inner, d_state = _multi_tile_shape()
    inputs = _scan_inputs(np.random.default_rng(26), bsz, length, d_inner, d_state)
    untaped = ssm_scan(*inputs).data
    with Tape():
        taped = ssm_scan(*inputs).data
    assert np.array_equal(taped, untaped)


@pytest.mark.parametrize("read_at", [False, True], ids=["full", "at"])
def test_taped_scan_keeps_no_state_per_step(read_at):
    # float32 B16 x L64, E*D 128, S 32: 2 row blocks of 8 rows and 16 time chunks of 4 steps
    bsz, length, d_inner, d_state = 16, 64, 128, 32
    assert scan_tile(bsz, length, d_inner, d_state, 4) == (8, 4)
    rng = np.random.default_rng(27)
    inputs = [Tensor(t.data.astype(np.float32), requires_grad=True)
              for t in _scan_inputs(rng, bsz, length, d_inner, d_state)]
    at = rng.integers(0, length, size=bsz) if read_at else None
    all_states = length * bsz * d_inner * d_state * 4  # one [L, B, E*D, S] float32 buffer

    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = ad.tsum(ssm_scan(*inputs, at=at))
        forward_peak = tracemalloc.get_traced_memory()[1]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak < all_states / 2, f"taped forward peaked at {forward_peak} bytes"
    assert peak < all_states, f"forward plus backward peaked at {peak} bytes"


@pytest.mark.parametrize("bsz, length", [(0, 5), (2, 0)])
def test_scan_of_an_empty_batch_or_sequence_is_empty(bsz, length):
    inputs = _scan_inputs(np.random.default_rng(17), bsz, length)
    with Tape() as tape:
        y = ssm_scan(*inputs)
        loss = y.sum()
    tape.backward(loss)
    assert y.shape == (bsz, length, 3)
    assert all(t.grad.shape == t.shape and not t.grad.any() for t in inputs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flush_negligible_zeroes_only_entries_below_tiny_over_eps(dtype):
    info = np.finfo(dtype)
    cut = float(info.tiny / info.eps)
    x = np.array([2 * cut, -2 * cut, cut, cut / 2, -cut / 2, info.tiny, info.tiny * info.eps, 0.0, 1.0], dtype=dtype)
    flush_negligible(x)
    np.testing.assert_array_equal(x, np.array([2 * cut, -2 * cut, cut, 0, 0, 0, 0, 0, 1.0], dtype=dtype))

def test_zero_input_zero_bias_gives_zero_output():
    p = init_mamba_params(np.random.default_rng(3), dim=8, d_state=4, dtype=np.float64)
    out = mamba_forward(Tensor(np.zeros((2, 5, 8))), p)
    np.testing.assert_array_equal(out.data, np.zeros((2, 5, 8)))


def test_block_matches_stepwise_oracle():
    rng = np.random.default_rng(4)
    p = init_mamba_params(rng, dim=6, d_state=5, d_conv=3, expand=2, dtype=np.float64)
    x = rng.normal(size=(2, 12, 6))
    got = mamba_forward(Tensor(x), p)
    np.testing.assert_allclose(got.data, stepwise_block_oracle(x, p), atol=1e-10)


def test_block_is_causal():
    rng = np.random.default_rng(5)
    p = init_mamba_params(rng, dim=4, d_state=3, dtype=np.float64)
    x = rng.normal(size=(1, 9, 4))
    base = mamba_forward(Tensor(x), p).data
    probe = 4
    bumped = x.copy()
    bumped[0, probe] += 0.37
    out = mamba_forward(Tensor(bumped), p).data
    np.testing.assert_array_equal(out[0, :probe], base[0, :probe])
    assert np.abs(out[0, probe:] - base[0, probe:]).max() > 1e-8


def test_decay_factor_below_one_and_state_bounded():
    rng = np.random.default_rng(6)
    p = init_mamba_params(rng, dim=6, d_state=4, dtype=np.float64)
    a = -np.exp(p.A_log.data)
    assert (a < 0).all()
    dt = _softplus(rng.normal(size=(2, 50, 12)))
    decay = np.exp(dt[..., None] * a)
    assert (decay < 1.0).all() and (decay > 0.0).all()
    # bounded input -> bounded hidden state over a long roll-out
    u = np.clip(rng.normal(size=(2, 50, 12)), -3, 3)
    b = np.clip(rng.normal(size=(2, 50, 4)), -3, 3)
    h = np.zeros((2, 12, 4))
    norms = []
    for t in range(50):
        h = decay[:, t] * h + (dt[:, t] * u[:, t])[..., None] * b[:, t][:, None, :]
        norms.append(np.abs(h).max())
    assert max(norms) < 1e3


def test_dt_rank_default():
    assert dt_rank_for(64) == 4
    assert dt_rank_for(16) == 1
    assert dt_rank_for(1) == 1


def test_dt_bias_init_within_softplus_range():
    p = init_mamba_params(np.random.default_rng(7), dim=16, d_state=8, dtype=np.float64)
    dt = _softplus(p.dt_bias.data)
    assert (dt >= 1e-3 - 1e-9).all() and (dt <= 0.1 + 1e-9).all()


def test_block_gradients():
    rng = np.random.default_rng(8)
    p = init_mamba_params(rng, dim=4, d_state=3, d_conv=2, expand=2, dtype=np.float64)
    x = rand_tensor(rng, 2, 5, 4, scale=0.5)
    named = [("x", x)] + [(f, getattr(p, f)) for f in (
        "in_u", "in_z", "conv_kernel", "conv_bias", "x_proj", "dt_proj", "dt_bias", "A_log", "D_skip", "out_proj",
    )]
    check_grads(lambda: mamba_forward(x, p).sum(), named, tol=1e-5, max_entries=24)


# ---------------------------------------------------------------------------
# reading one step per row (``at``)


def _read_steps(bsz, length, rng):
    """One step per row, covering the first and the last step."""
    at = rng.integers(0, length, size=bsz)
    at[0], at[-1] = 0, length - 1
    return at


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_scan_read_at_one_step_per_row_matches_dense_unrolled_oracle(taped):
    bsz, length, d_inner, d_state = _multi_tile_shape()
    rng = np.random.default_rng(18)
    inputs = _scan_inputs(rng, bsz, length, d_inner, d_state)
    at = _read_steps(bsz, length, rng)
    with Tape() if taped else nullcontext():
        got = ssm_scan(*inputs, at=at)
    expected = unrolled_scan_oracle(*(t.data for t in inputs))[np.arange(bsz), at]
    assert got.shape == (bsz, d_inner)
    np.testing.assert_allclose(got.data, expected, rtol=1e-12, atol=1e-12)


def test_taped_and_untaped_scan_read_at_are_bitwise_equal():
    # both calls read out the tiles that hold a read step, but only the taped one keeps chunk-boundary states
    bsz, length, d_inner, d_state = _multi_tile_shape()
    rows, steps = scan_tile(bsz, length, d_inner, d_state, 8)
    inputs = _scan_inputs(np.random.default_rng(25), bsz, length, d_inner, d_state)
    at = np.resize([1, 2, steps - 1, steps, length - 1, 0, steps + 1], bsz)
    chunks = at // steps
    assert (chunks[:3] == 0).all() and len(set(chunks[:rows])) > 2, "block 0 must read in one tile and in others"
    untaped = ssm_scan(*inputs, at=at).data
    with Tape():
        taped = ssm_scan(*inputs, at=at).data
    assert np.array_equal(taped, untaped)


def test_scan_read_at_gradients_of_all_six_inputs():
    rng = np.random.default_rng(19)
    bsz, length, d_inner, d_state = _multi_tile_shape()
    u, delta, a, b, c, d = inputs = _scan_inputs(rng, bsz, length, d_inner, d_state)
    at = _read_steps(bsz, length, rng)
    w = Tensor(rng.normal(size=(bsz, d_inner)))
    named = list(zip(("u", "delta", "A", "B", "C", "D_skip"), inputs))
    check_grads(lambda: ad.mul(ssm_scan(u, delta, a, b, c, d, at=at), w).sum(), named, tol=1e-6, max_entries=16)


def test_recorded_scan_read_at_is_one_tape_record():
    inputs = _scan_inputs(np.random.default_rng(20), length=8)
    with Tape() as tape:
        ssm_scan(*inputs, at=np.array([7, 2]))
    assert len(tape) == 1


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_scan_read_at_reports_the_earliest_blowup_over_all_rows(taped):
    # the recurrence still runs every step, so a blow-up after the read step is reported too
    bsz, length, d_inner, d_state = _multi_tile_shape(min_length=31)
    rows, _ = scan_tile(bsz, length, d_inner, d_state, 8)
    u, delta, a, b, c, d = inputs = _scan_inputs(np.random.default_rng(21), bsz, length, d_inner, d_state)
    for row, step in ((rows, 9), (0, 30)):
        u.data[row, step] = 1e300
        b.data[row, step] = 1e300
    with Tape() if taped else nullcontext():
        with pytest.raises(NumericError, match="step 9$"):
            ssm_scan(*inputs, at=np.zeros(bsz, dtype=np.int64))


@pytest.mark.parametrize("at", [np.array([0]), np.array([0, 8]), np.array([-1, 0]), np.array([0.0, 1.0])])
def test_scan_read_at_rejects_steps_outside_the_rows(at):
    with pytest.raises(ShapeError):
        ssm_scan(*_scan_inputs(np.random.default_rng(22), length=8), at=at)


def test_block_read_at_matches_the_stepwise_oracle():
    rng = np.random.default_rng(23)
    p = init_mamba_params(rng, dim=6, d_state=5, d_conv=3, expand=2, dtype=np.float64)
    x = rng.normal(size=(4, 12, 6))
    at = _read_steps(4, 12, rng)
    got = mamba_forward(Tensor(x), p, at)
    assert got.shape == (4, 6)
    np.testing.assert_allclose(got.data, stepwise_block_oracle(x, p)[np.arange(4), at], atol=1e-10)
    full = mamba_forward(Tensor(x), p).data[np.arange(4), at]
    np.testing.assert_allclose(got.data, full, rtol=0, atol=1e-12 * np.abs(full).max())


def test_block_read_at_gradients():
    rng = np.random.default_rng(24)
    p = init_mamba_params(rng, dim=4, d_state=3, d_conv=2, expand=2, dtype=np.float64)
    x = rand_tensor(rng, 3, 5, 4, scale=0.5)
    at = np.array([4, 0, 2])
    named = [("x", x)] + [(f, getattr(p, f)) for f in (
        "in_u", "in_z", "conv_kernel", "conv_bias", "x_proj", "dt_proj", "dt_bias", "A_log", "D_skip", "out_proj",
    )]
    check_grads(lambda: mamba_forward(x, p, at).sum(), named, tol=1e-5, max_entries=24)


# ---------------------------------------------------------------------------
# row lengths: left padding acts as zero input


def _packed_shape():
    """Float64 (bsz, length, d_inner, d_state) of three row blocks and five time chunks, with unsorted lengths.

    The lengths hold 0, 1 and L. In length order the second row block (lengths 8 down to 1) starts inside
    chunk 2, and the third holds the empty row.
    """
    d_inner, d_state = 64, 32
    rows, steps = scan_tile(1 << 30, 1 << 30, d_inner, d_state, np.dtype(np.float64).itemsize)
    bsz, length = 2 * rows + 1, 4 * steps + 1
    assert scan_tile(bsz, length, d_inner, d_state, 8) == (rows, steps)
    lengths = np.resize([5, length, 1, 9, 12, 3, length, 7, 2, 0, 10, 16, 6, 4, 13, 8, 11], bsz)
    assert sorted(lengths, reverse=True)[rows] < length - 2 * steps, "the second row block must skip whole chunks"
    return bsz, length, d_inner, d_state, lengths


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_packed_scan_matches_the_oracle_on_zeroed_padding(taped):
    bsz, length, d_inner, d_state, lengths = _packed_shape()
    inputs = _scan_inputs(np.random.default_rng(30), bsz, length, d_inner, d_state)
    u, delta, a, b, c, d = (t.data for t in inputs)
    with Tape() if taped else nullcontext():
        got = ssm_scan(*inputs, lengths=lengths).data
    padding = np.arange(length) < (length - lengths)[:, None]
    expected = unrolled_scan_oracle(np.where(padding[..., None], 0.0, u), delta, a, b, c, d)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    assert padding.any() and (got[padding] == 0).all()


@pytest.mark.parametrize("read_at", [False, True], ids=["full", "at"])
def test_packed_scan_gradients_of_all_six_inputs(read_at):
    rng = np.random.default_rng(31)
    bsz, length, d_inner, d_state, lengths = _packed_shape()
    u, delta, a, b, c, d = inputs = _scan_inputs(rng, bsz, length, d_inner, d_state)
    at = _read_steps(bsz, length, rng) if read_at else None
    w = Tensor(rng.normal(size=u.shape if at is None else (bsz, d_inner)))
    named = list(zip(("u", "delta", "A", "B", "C", "D_skip"), inputs))
    check_grads(lambda: ad.mul(ssm_scan(u, delta, a, b, c, d, at=at, lengths=lengths), w).sum(), named,
                tol=1e-6, max_entries=16)


@pytest.mark.parametrize("read_at", [False, True], ids=["full", "at"])
def test_scan_with_full_or_no_lengths_is_bitwise_the_scan_without_them(read_at):
    bsz, length, d_inner, d_state, _ = _packed_shape()
    rng = np.random.default_rng(32)
    inputs = _scan_inputs(rng, bsz, length, d_inner, d_state)
    at = _read_steps(bsz, length, rng) if read_at else None

    def run(**kw):
        for t in inputs:
            t.grad = None
        with Tape() as tape:
            y = ssm_scan(*inputs, at=at, **kw)
            loss = ad.tsum(ad.mul(y, Tensor(np.linspace(-1.0, 1.0, y.data.size).reshape(y.shape))))
        tape.backward(loss)
        return [y.data] + [t.grad for t in inputs]

    plain = run()
    for kw in ({"lengths": None}, {"lengths": np.full(bsz, length)}):
        assert all(np.array_equal(x, y) for x, y in zip(run(**kw), plain)), kw


@pytest.mark.parametrize("read_at", [False, True], ids=["full", "at"])
@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_scan_reads_no_chunk_before_a_row_is_live(taped, read_at):
    # one float64 row block whose rows are live from chunk 0, from chunk 1, from the last chunk, and never
    bsz, d_inner, d_state = 4, 64, 32
    rows, steps = scan_tile(bsz, 1 << 30, d_inner, d_state, 8)
    length = 4 * steps + 3
    assert scan_tile(bsz, length, d_inner, d_state, 8) == (rows, steps) and rows == bsz
    lengths = np.array([length, length - steps - 1, 1, 0])
    first = length - lengths
    live_from = np.where(lengths > 0, first // steps * steps, length)  # first step of each row's first live chunk
    assert live_from.tolist() == [0, steps, 4 * steps, length]
    rng = np.random.default_rng(35)
    inputs = _scan_inputs(rng, bsz, length, d_inner, d_state)
    at = np.append(rng.integers(first[:3], length), length - 1) if read_at else None
    skipped = np.arange(length) < live_from[:, None]
    w = Tensor(rng.normal(size=(bsz, length, d_inner) if at is None else (bsz, d_inner)))

    def run(fill):
        arrays = [t.data.copy() for t in inputs]
        for x in arrays[1], arrays[3], arrays[4]:  # delta, B and C; D_skip's gradient reads all of u
            x[skipped] = fill
        tensors = [Tensor(x, requires_grad=True) for x in arrays]
        with Tape() if taped else nullcontext() as tape:
            y = ssm_scan(*tensors, at=at, lengths=lengths)
            loss = ad.tsum(ad.mul(y, w))
        if not taped:
            return [y.data]
        tape.backward(loss)
        return [y.data] + [t.grad for t in tensors]

    zero = run(0.0)
    assert all(np.isfinite(x).all() for x in zero)
    assert all(np.array_equal(x, z) for x, z in zip(run(np.nan), zero))


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_scan_read_at_is_the_full_read_at_that_step(taped):
    # float64 at E*D 128, S 32: two row blocks of 4 rows, five 4-step time chunks and a 3-step one
    bsz, length, d_inner, d_state = 8, 23, 128, 32
    rows, steps = scan_tile(bsz, length, d_inner, d_state, 8)
    assert (rows, steps) == (4, 4)
    lengths = np.array([length, 0, 1, 9, 14, 5, 22, 3])  # in length order, block 0 is rows 0, 6, 4, 3
    first = length - lengths
    at = np.array([0, 21, 22, 5, 8, 22, 0, 10])
    # real steps (rows 0, 2, 5), padding inside a live chunk (rows 4, 6), before the row's first live chunk
    # (rows 3, 7), the empty row (row 1); reads in the first chunk and in the last
    live_chunk = first < np.minimum((at // steps + 1) * steps, length)
    assert (at >= first).tolist() == [1, 0, 1, 0, 0, 1, 0, 0] and live_chunk.tolist() == [1, 0, 1, 0, 1, 1, 1, 0]
    assert at.min() < steps and at.max() >= length - length % steps
    rng = np.random.default_rng(36)
    inputs = _scan_inputs(rng, bsz, length, d_inner, d_state)
    inputs[4].data[~live_chunk, at[~live_chunk]] = np.nan  # C where a row is read but not live
    w = rng.normal(size=(bsz, d_inner))
    w_full = np.zeros((bsz, length, d_inner))
    w_full[np.arange(bsz), at] = w

    def run(**kw):
        for t in inputs:
            t.grad = None
        with Tape() if taped else nullcontext() as tape:
            y = ssm_scan(*inputs, lengths=lengths, **kw)
            loss = ad.tsum(ad.mul(y, Tensor(w if kw else w_full)))
        if not taped:
            return [y.data]
        tape.backward(loss)
        return [y.data] + [t.grad for t in inputs]

    read, full = run(at=at), run()
    assert np.array_equal(read[0], full[0][np.arange(bsz), at]) and np.isfinite(read[0]).all()
    assert all(np.array_equal(x, y) for x, y in zip(read[1:], full[1:]))


@pytest.mark.parametrize("lengths", [np.array([3]), np.array([3, 8, 1]), np.array([-1, 3]), np.array([9, 3]),
                                     np.array([3.0, 8.0])])
def test_scan_rejects_lengths_of_the_wrong_shape_or_outside_the_rows(lengths):
    with pytest.raises(ShapeError):
        ssm_scan(*_scan_inputs(np.random.default_rng(33), length=8), lengths=lengths)


def test_padding_never_drives_the_block():
    # rows as layer 1 sees them: zero left padding, at their own width n, at n + 5 and at max_len
    rng = np.random.default_rng(34)
    p = init_mamba_params(rng, dim=8, d_state=6, d_conv=4, dtype=np.float64)
    p.conv_bias.data[:] = rng.normal(0.0, 0.5, size=p.conv_bias.shape)
    p.dt_bias.data += rng.normal(0.0, 0.5, size=p.dt_bias.shape)
    lengths = np.array([7, 3, 1, 7, 5])
    n, max_len = int(lengths.max()), 50
    real = rng.normal(size=(lengths.size, n, 8))

    def read(width):
        x = np.zeros((lengths.size, width, 8))
        for row, k in enumerate(lengths):
            x[row, width - k :] = real[row, n - k :]
        full = mamba_forward(Tensor(x), p, lengths=lengths).data
        last = mamba_forward(Tensor(x), p, np.full(lengths.size, width - 1), lengths).data
        return [full[row, width - k :] for row, k in enumerate(lengths)], last

    rows_n, last_n = read(n)
    for width in (n + 5, max_len):
        rows_w, last_w = read(width)
        for got, want in zip(rows_w + [last_w], rows_n + [last_n]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
