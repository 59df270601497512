import numpy as np
import pytest

from probadapt import autodiff as ad
from probadapt.autodiff import EPS, Tape
from probadapt.errors import ContractViolationError, DomainError
from probadapt.seeding import rng_for


def scalar(build):
    tape = Tape()
    return build(tape)


def test_row_softmax_symmetry():
    tape = Tape()
    out = ad.row_softmax(tape.leaf([[0.0, 0.0]]))
    assert np.allclose(out.value, [[0.5, 0.5]], atol=1e-15)


def test_relu_definition():
    tape = Tape()
    assert np.array_equal(ad.relu(tape.leaf([[-1.0, 2.0]])).value, [[0.0, 2.0]])


def test_matmul_hand_value():
    tape = Tape()
    out = ad.matmul(tape.leaf([[1.0, 2.0]]), tape.leaf([[3.0], [4.0]]))
    assert np.array_equal(out.value, [[11.0]])


def test_matmul_shape_mismatch():
    tape = Tape()
    with pytest.raises(ContractViolationError):
        ad.matmul(tape.leaf([[1.0, 2.0]]), tape.leaf([[1.0, 2.0]]))


def test_log_rejects_nonpositive():
    tape = Tape()
    with pytest.raises(DomainError):
        ad.log(tape.leaf([[0.0, 1.0]]))


def test_softmax_rows_sum_to_one_and_positive():
    rng = rng_for(0, "test/softmax")
    tape = Tape()
    s = ad.row_softmax(tape.leaf(rng.normal(0, 5, size=(20, 7)))).value
    assert np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(s > 0)


def test_backward_sum_of_squares():
    tape = Tape()
    x = tape.leaf([[1.0, 2.0]])
    out = ad.col_sum(ad.row_sum(ad.mul(x, x)))
    grads = ad.backward(out)
    assert np.allclose(grads[x], [[2.0, 4.0]])


def test_backward_softmax_pick_first():
    # d/dx of softmax(x)[0] at x = [0, 0] is [s0*(1-s0), -s0*s1] = [0.25, -0.25]
    tape = Tape()
    x = tape.leaf([[0.0, 0.0]])
    s = ad.row_softmax(x)
    picked = ad.row_sum(ad.mul(s, tape.constant([[1.0, 0.0]])))
    grads = ad.backward(picked)
    assert np.allclose(grads[x], [[0.25, -0.25]], atol=1e-12)


def test_backward_requires_scalar():
    tape = Tape()
    x = tape.leaf([[1.0, 2.0]])
    with pytest.raises(ContractViolationError):
        ad.backward(ad.relu(x))


def test_backward_unused_leaf_absent():
    tape = Tape()
    x = tape.leaf([[1.0]])
    unused = tape.leaf([[5.0]])
    grads = ad.backward(ad.mean(ad.mul(x, x)))
    assert unused not in grads
    assert np.array_equal(ad.grad_or_zero(grads, unused), [[0.0]])


def test_backward_never_returns_constants():
    tape = Tape()
    x = tape.leaf([[1.0, 2.0]])
    k = tape.constant([[3.0, 4.0]])
    grads = ad.backward(ad.col_sum(ad.row_sum(ad.mul(x, k))))
    assert list(grads) == [x]
    assert np.array_equal(grads[x], [[3.0, 4.0]])


def test_finite_difference_quadratic_is_tight():
    def build(tape, leaves):
        return ad.col_sum(ad.row_sum(ad.mul(leaves[0], leaves[0])))

    err = ad.finite_difference_check(build, [np.array([[1.0, -2.0], [0.5, 3.0]])])
    assert err < 1e-7


def test_finite_difference_random_graphs():
    # Mixed-primitive graphs against central differences.
    rng = rng_for(1, "test/fd")
    for trial in range(20):
        n, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        w = rng.normal(size=(c, c))
        bias = rng.normal(size=(1, c))

        def build(tape, leaves):
            h = ad.relu(ad.add(ad.matmul(leaves[0], tape.constant(w)), tape.constant(bias)))
            s = ad.row_softmax(ad.add(h, leaves[1]))
            t = ad.mul(s, ad.log(ad.clamp_floor(s)))
            return ad.mean(ad.row_sum(t))

        x = rng.normal(size=(n, c))
        b = rng.normal(size=(1, c))
        assert ad.finite_difference_check(build, [x, b]) < 1e-4


def test_power_gradient():
    def build(tape, leaves):
        return ad.mean(ad.power(leaves[0], 2.5))

    err = ad.finite_difference_check(build, [np.array([[0.3, 1.7, 0.9]])])
    assert err < 1e-6
    tape = Tape()
    with pytest.raises(DomainError):
        ad.power(tape.leaf([[-1.0]]), 2.0)


def test_broadcast_add_gradients():
    def build(tape, leaves):
        return ad.mean(ad.mul(ad.add(leaves[0], leaves[1]), ad.add(leaves[0], leaves[1])))

    err = ad.finite_difference_check(build, [np.ones((3, 4)), np.arange(4.0).reshape(1, 4)])
    assert err < 1e-7


def test_clamp_floor_value_and_grad():
    tape = Tape()
    x = tape.leaf([[5e-13, 0.5]])
    out = ad.clamp_floor(x)
    assert out.value[0, 0] == EPS
    assert out.value[0, 1] == 0.5
    grads = ad.backward(ad.mean(out))
    # below the floor the subgradient is zero
    assert grads[x][0, 0] == 0.0
    assert grads[x][0, 1] == 0.5


def test_determinism_bit_identical():
    rng = rng_for(2, "test/det")
    x = rng.normal(size=(4, 4))

    def run():
        tape = Tape()
        leaf = tape.leaf(x)
        out = ad.mean(ad.row_sum(ad.mul(ad.row_softmax(leaf), leaf)))
        return out.value.copy(), ad.backward(out)[leaf].copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)
