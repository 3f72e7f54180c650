"""Tape mechanics and per-kernel gradient checks against central differences.

All checks run in 64-bit with step 1e-5 and require relative error < 1e-4.
"""

import weakref

import numpy as np
import pytest

from conftest import finite_difference, make_param
from sfde import ops, spectral
from sfde.autodiff import Parameter, Tape, TapeError, Tensor


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------

def test_grad_of_sum_is_ones(rng):
    x = make_param(rng, (3, 4))
    with Tape() as tape:
        loss = ops.sum_(x)
    tape.backward(loss)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_grad_of_half_quadratic_is_x(rng):
    x = make_param(rng, (5,))
    with Tape() as tape:
        loss = ops.scale(ops.sum_(ops.mul(x, x)), 0.5)
    tape.backward(loss)
    assert np.allclose(x.grad, x.data)


def test_double_backward_rejected(rng):
    x = make_param(rng, (3,))
    with Tape() as tape:
        loss = ops.sum_(x)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_requires_scalar(rng):
    x = make_param(rng, (3,))
    with Tape() as tape:
        y = ops.mul(x, x)
    with pytest.raises(TapeError):
        tape.backward(y)


def test_grad_query_for_intermediate(rng):
    x = make_param(rng, (4,))
    with Tape() as tape:
        h = ops.scale(x, 2.0)
        loss = ops.sum_(h)
    tape.backward(loss)
    assert np.allclose(tape.grad(h), 1.0)
    assert np.allclose(tape.grad(x), 2.0)


def test_untaped_forward_records_nothing(rng):
    x = make_param(rng, (3,))
    y = ops.mul(x, x)
    assert y.shape == (3,)
    with Tape() as tape:
        pass
    assert len(tape) == 0


def test_gradients_accumulate_across_uses(rng):
    x = make_param(rng, (3,))
    with Tape() as tape:
        loss = ops.sum_(ops.add(x, x))
    tape.backward(loss)
    assert np.allclose(x.grad, 2.0)


def test_backward_consumes_the_records(rng):
    x = make_param(rng, (3,))
    with Tape() as tape:
        loss = ops.sum_(ops.mul(x, x))
    assert len(tape) == 2
    tape.backward(loss)
    assert len(tape) == 0


def test_backward_frees_dropped_intermediates_and_keeps_held_ones(rng):
    x = make_param(rng, (4,))
    with Tape() as tape:
        held = ops.scale(x, 2.0)
        h = ops.add_const(held, 1.0)
        loss = ops.sum_(ops.mul(h, held))
    dropped = weakref.ref(h)
    del h
    assert dropped() is not None  # the tape's records still hold it
    tape.backward(loss)
    assert dropped() is None
    # loss = sum(g^2 + g) with g = 2x: dL/dg = 2g + 1, dL/dx = 2 (2g + 1)
    assert np.allclose(tape.grad(held), 2.0 * held.data + 1.0)
    assert np.allclose(tape.grad(x), 4.0 * held.data + 2.0)
    assert np.array_equal(tape.grad(x), x.grad)


# ---------------------------------------------------------------------------
# per-kernel finite-difference checks
# ---------------------------------------------------------------------------

TOL = 1e-4


def test_grad_elementwise_chain(rng):
    x = make_param(rng, (2, 5))

    def forward():
        h = ops.mul(ops.sigmoid(x), ops.gelu(x))
        h = ops.add(h, ops.softplus(ops.neg(x)))
        h = ops.add(h, ops.scale(ops.relu(x), -0.3))
        return ops.sum_(ops.mul(h, h))

    assert finite_difference(forward, [x]) < TOL


def test_grad_exp_log_pow(rng):
    x = Parameter(rng.uniform(0.5, 2.0, size=(3, 3)), dtype=np.float64)

    def forward():
        h = ops.add(ops.exp(ops.scale(x, -0.5)), ops.pow_const(x, 1.7))
        return ops.sum_(h)

    assert finite_difference(forward, [x]) < TOL


def test_grad_softmax_and_log_softmax(rng):
    x = make_param(rng, (3, 5))
    w = make_param(rng, (3, 5))

    def forward():
        a = ops.mul(ops.softmax(x, axis=-1), w)
        b = ops.mul(ops.log_softmax(x, axis=-1), w)
        return ops.sum_(ops.add(a, b))

    assert finite_difference(forward, [x, w]) < TOL


def test_grad_matmul(rng):
    a = make_param(rng, (3, 4))
    b = make_param(rng, (4, 2))

    def forward():
        return ops.sum_(ops.mul(ops.matmul(a, b), ops.matmul(a, b)))

    assert finite_difference(forward, [a, b]) < TOL


def test_grad_reshape_transpose_concat_slice(rng):
    a = make_param(rng, (2, 6))
    b = make_param(rng, (2, 6))

    def forward():
        h = ops.concat([a, b], axis=0)          # (4, 6)
        h = ops.transpose(h, (1, 0))            # (6, 4)
        h = ops.reshape(h, (3, 8))
        h = ops.slice_(h, (slice(0, 2), slice(1, 7)))
        return ops.sum_(ops.mul(h, h))

    assert finite_difference(forward, [a, b]) < TOL


def test_grad_mean_sum_axes(rng):
    x = make_param(rng, (2, 3, 4))

    def forward():
        h = ops.mean_(x, axis=(-2, -1))
        g = ops.sum_(x, axis=0, keepdims=True)
        return ops.add(ops.sum_(ops.mul(h, h)), ops.mean_(ops.mul(g, g)))

    assert finite_difference(forward, [x]) < TOL


def test_grad_conv2d(rng):
    x = make_param(rng, (2, 3, 5, 5))
    w = make_param(rng, (4, 3, 3, 3), scale=0.5)
    b = make_param(rng, (4,))

    def forward():
        y = ops.conv2d(x, w, b, stride=2, padding=1)
        return ops.sum_(ops.mul(y, y))

    assert finite_difference(forward, [x, w, b]) < TOL


def test_grad_conv2d_grouped_dilated(rng):
    x = make_param(rng, (1, 4, 6, 6))
    w = make_param(rng, (4, 1, 3, 3), scale=0.5)

    def forward():
        y = ops.conv2d(x, w, padding=2, dilation=2, groups=4)
        return ops.sum_(ops.mul(y, ops.sigmoid(y)))

    assert finite_difference(forward, [x, w]) < TOL


def test_grad_batch_norm(rng):
    x = make_param(rng, (4, 3, 2, 2))
    gamma = Parameter(rng.uniform(0.5, 1.5, size=3), dtype=np.float64)
    beta = make_param(rng, (3,))
    rm, rv = np.zeros(3), np.ones(3)

    def forward():
        y = ops.batch_norm(x, gamma, beta, rm.copy(), rv.copy(), training=True)
        return ops.sum_(ops.mul(y, ops.gelu(y)))

    assert finite_difference(forward, [x, gamma, beta]) < TOL


def test_grad_pooling_and_upsampling(rng):
    x = make_param(rng, (1, 2, 5, 5))

    def forward():
        h = ops.adaptive_avg_pool(x, 2, 3)
        h = ops.bilinear_upsample(h, 5, 5)
        return ops.sum_(ops.mul(h, x))

    assert finite_difference(forward, [x]) < TOL


def test_grad_gem_pool_x_and_p(rng):
    x = Parameter(rng.uniform(0.2, 2.0, size=(2, 3, 4, 4)), dtype=np.float64)
    p = Parameter(np.asarray(2.5), dtype=np.float64)

    def forward():
        return ops.sum_(ops.gem_pool(x, p))

    assert finite_difference(forward, [x, p]) < TOL


def test_grad_l2_normalize(rng):
    x = make_param(rng, (3, 6))
    w = make_param(rng, (3, 6))

    def forward():
        return ops.sum_(ops.mul(ops.l2_normalize(x, axis=-1), w))

    assert finite_difference(forward, [x, w]) < TOL


def test_grad_spectral_chain(rng):
    x = make_param(rng, (2, 4, 6))

    def forward():
        s = spectral.rfft2(x)
        amp = spectral.amplitude(s)
        phi = spectral.phase(s)
        gated = ops.mul(amp, ops.sigmoid(amp))
        y = spectral.irfft2(spectral.polar_recompose(gated, phi, 6))
        return ops.sum_(ops.mul(y, y))

    assert finite_difference(forward, [x]) < TOL


def test_grad_dropout_identity_when_disabled(rng):
    x = make_param(rng, (4, 4))

    def forward():
        return ops.sum_(ops.mul(ops.dropout(x, 0.0, None), x))

    assert finite_difference(forward, [x]) < TOL
