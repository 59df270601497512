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
    # the composite, and dense's softmax head both taped and on arrays only
    rng = rng_for(0, "test/softmax")
    logits = rng.normal(0, 5, size=(20, 7))
    x, w, b = rng.normal(0, 3, size=(20, 4)), rng.normal(size=(4, 7)), rng.normal(size=(1, 7))
    tape = Tape()
    for s in (ad.row_softmax(tape.leaf(logits)).value,
              ad.dense(tape.leaf(x), tape.leaf(w), tape.leaf(b), "row_softmax").value,
              ad.dense(x, w, b, "row_softmax")):
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
    picked = ad.row_sum(ad.mul(s, np.array([[1.0, 0.0]])))
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


def test_leaf_reads_a_float64_matrix_in_place():
    # like an array operand: no copy, so it must not change while its tape is in use
    a = np.arange(6.0).reshape(2, 3)
    assert np.shares_memory(Tape().leaf(a).value, a)


def test_backward_never_returns_constants():
    # a detached array operand gets no gradient; only Tensors are returned
    tape = Tape()
    x = tape.leaf([[1.0, 2.0]])
    k = np.array([[3.0, 4.0]])
    grads = ad.backward(ad.col_sum(ad.row_sum(ad.mul(x, k))))
    assert list(grads) == [x]
    assert np.array_equal(grads[x], [[3.0, 4.0]])


def array_operand_cases(rng):
    """(primitive, operands, index of the array operand) for each primitive
    that takes arrays, with the array in every position it can take."""
    tape = Tape()
    x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
    y = rng.normal(size=(4, 2))
    dense = lambda x, w, b: ad.dense(x, w, b, "relu")
    return tape, [
        (ad.matmul, (x, tape.leaf(w)), 0), (ad.matmul, (tape.leaf(x), w), 1),
        (ad.add, (y, tape.leaf(b)), 0), (ad.add, (tape.leaf(y), b), 1),
        (ad.mul, (y, tape.leaf(y)), 0), (ad.mul, (tape.leaf(y), b), 1),
        (dense, (x, tape.leaf(w), tape.leaf(b)), 0),
        (dense, (tape.leaf(x), w, tape.leaf(b)), 1),
        (dense, (tape.leaf(x), tape.leaf(w), b), 2),
    ]


def test_array_operands_are_read_in_place_with_no_node_and_no_vjp_product():
    tape, cases = array_operand_cases(rng_for(8, "test/array-operands"))
    for primitive, operands, k in cases:
        before = len(tape.nodes)
        out = primitive(*operands)
        assert len(tape.nodes) == before + 1 and tape.nodes[-1] is out
        assert np.shares_memory(out.inputs[k], operands[k])
        products = out.vjp(np.ones(out.shape))
        assert products[k] is None
        assert all(g is not None for i, g in enumerate(products) if i != k)
        grads = ad.backward(ad.mean(out))
        assert set(grads) == {t for t in operands if isinstance(t, ad.Tensor)}


def test_primitive_with_only_array_operands_returns_an_array():
    # a detached input gives a detached result: no node, the numpy value itself
    rng = rng_for(9, "test/array-only")
    x, w, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
    tape = Tape()
    tape.leaf(x)
    z = x @ w + b
    e = np.exp(z - z.max(axis=1, keepdims=True))
    for got, want in ((ad.matmul(x, w), x @ w), (ad.add(x, x), x + x), (ad.mul(x, x), x * x),
                      (ad.dense(x, w, b, "relu"), np.maximum(z, 0.0)),
                      (ad.dense(x, w, b, "row_softmax"), e / e.sum(axis=1, keepdims=True))):
        assert type(got) is np.ndarray
        assert np.array_equal(got, want)
    assert len(tape.nodes) == 1


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
            h = ad.relu(ad.add(ad.matmul(leaves[0], w), bias))
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


def composite_dense(x, w, b, activation):
    act = ad.relu if activation == "relu" else ad.row_softmax
    return act(ad.add(ad.matmul(x, w), b))


def composite_weighted_log_rows(weights, p):
    return ad.row_sum(ad.mul(weights, ad.log(ad.clamp_floor(p))))


def fused_and_composite(build, values, seed):
    """(output value, leaf gradients) of ``build(leaves, fused)`` for the fused
    and the composite form, differentiated through a random linear functional
    so every output entry gets its own cotangent."""
    results = []
    for fused in (True, False):
        tape = Tape()
        leaves = [tape.leaf(v) for v in values]
        out = build(leaves, fused)
        cotangent = rng_for(seed, "test/fused/cotangent").normal(size=out.shape)
        loss = ad.col_sum(ad.row_sum(ad.mul(out, cotangent)))
        grads = ad.backward(loss)
        results.append((out.value, [grads[leaf] for leaf in leaves]))
    return results


@pytest.mark.parametrize("activation", ["relu", "row_softmax"])
def test_dense_equals_composite_bitwise(activation):
    rng = rng_for(3, f"test/dense/{activation}")
    for trial in range(10):
        n, d, m = (int(v) for v in rng.integers(1, 9, size=3))
        values = [rng.normal(size=(n, d)), rng.normal(size=(d, m)), rng.normal(size=(1, m))]

        def build(leaves, fused):
            layer = ad.dense if fused else composite_dense
            return layer(*leaves, activation)

        (v_f, g_f), (v_c, g_c) = fused_and_composite(build, values, trial)
        assert np.array_equal(v_f, v_c)
        assert len(g_f) == 3 and all(np.array_equal(a, b) for a, b in zip(g_f, g_c))


def test_dense_shared_input_equals_composite_bitwise():
    # The extractor output feeds both heads, as with cgi_updates_backbone:
    # its gradient is the sum of both heads' contributions.
    rng = rng_for(4, "test/dense/shared")
    values = [rng.normal(size=(8, 6)), rng.normal(size=(6, 5)), rng.normal(size=(1, 5)),
              rng.normal(size=(5, 4)), rng.normal(size=(1, 4)),
              rng.normal(size=(5, 3)), rng.normal(size=(1, 3))]

    def build(leaves, fused):
        layer = ad.dense if fused else composite_dense
        x, w1, b1, wg, bg, wh, bh = leaves
        h = layer(x, w1, b1, "relu")
        return ad.add(ad.row_sum(layer(h, wg, bg, "row_softmax")),
                      ad.row_sum(ad.mul(layer(h, wh, bh, "row_softmax"),
                                        layer(h, wh, bh, "row_softmax"))))

    (v_f, g_f), (v_c, g_c) = fused_and_composite(build, values, 0)
    assert np.array_equal(v_f, v_c)
    assert all(np.array_equal(a, b) for a, b in zip(g_f, g_c))


def test_weighted_log_rows_equals_composite_bitwise():
    rng = rng_for(5, "test/weighted_log_rows")
    for trial in range(10):
        n, c = (int(v) for v in rng.integers(1, 9, size=2))
        p = rng.dirichlet(np.ones(c), size=n)
        # entries at, below and just above the clamp floor
        p[rng.random((n, c)) < 0.2] = rng.choice([0.0, 5e-13, EPS, 2e-12])
        weights = rng.normal(size=(n, c))

        def build(leaves, fused):
            if fused:
                return ad.weighted_log_rows(weights, leaves[0])
            return composite_weighted_log_rows(weights, leaves[0])

        (v_f, g_f), (v_c, g_c) = fused_and_composite(build, [p], trial)
        assert v_f.shape == (n, 1)
        assert np.array_equal(v_f, v_c)
        assert np.array_equal(g_f[0], g_c[0])


def test_fused_primitives_skip_constant_operands():
    rng = rng_for(6, "test/fused/constant")
    tape = Tape()
    x = rng.normal(size=(4, 3))
    w, b = tape.leaf(rng.normal(size=(3, 2))), tape.leaf(np.zeros((1, 2)))
    for activation in ("relu", "row_softmax"):
        out = ad.dense(x, w, b, activation)
        g_x, g_w, g_b = out.vjp(np.ones(out.shape))
        assert g_x is None and g_w is not None and g_b is not None
    out = ad.dense(tape.leaf(x), w, b.value, "relu")
    g_x, g_w, g_b = out.vjp(np.ones(out.shape))
    assert g_x is not None and g_w is not None and g_b is None
    grads = ad.backward(ad.mean(ad.dense(x, w, b, "relu")))
    assert set(grads) == {w, b}


def test_dense_relu_propagates_nan():
    tape = Tape()
    x = tape.leaf([[np.nan, 1.0], [1.0, -1.0]])
    w, b = tape.leaf(np.eye(2)), tape.leaf([[0.0, 0.0]])
    out = ad.dense(x, w, b, "relu")
    assert np.isnan(out.value[0]).all()
    assert np.array_equal(out.value[1], [1.0, 0.0])
    assert np.array_equal(out.value, composite_dense(x, w, b, "relu").value, equal_nan=True)


def test_fused_primitives_reject_nonconforming_shapes():
    tape = Tape()
    x, w = tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 4)))
    with pytest.raises(ContractViolationError, match="matmul"):
        ad.dense(x, tape.leaf(np.ones((4, 4))), tape.leaf(np.ones((1, 4))), "relu")
    with pytest.raises(ContractViolationError, match="add"):
        ad.dense(x, w, tape.leaf(np.ones((1, 3))), "row_softmax")
    with pytest.raises(ContractViolationError, match="activation"):
        ad.dense(x, w, tape.leaf(np.ones((1, 4))), "tanh")
    with pytest.raises(ContractViolationError, match="weighted_log_rows"):
        ad.weighted_log_rows(np.ones((2, 4)), x)
    with pytest.raises(ContractViolationError, match="weighted_log_rows"):
        ad.weighted_log_rows(np.ones((1, 3)), x)


def test_fused_primitives_finite_difference():
    rng = rng_for(7, "test/fused/fd")
    weights = rng.random((5, 3))

    def build(tape, leaves):
        x, w1, b1, w2, b2 = leaves
        p = ad.dense(ad.dense(x, w1, b1, "relu"), w2, b2, "row_softmax")
        return ad.mean(ad.weighted_log_rows(weights, p))

    values = [rng.normal(size=(5, 4)), rng.normal(size=(4, 6)), rng.normal(size=(1, 6)),
              rng.normal(size=(6, 3)), rng.normal(size=(1, 3))]
    assert ad.finite_difference_check(build, values) < 1e-4
