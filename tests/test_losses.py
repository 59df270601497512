import math
from dataclasses import replace

import numpy as np
import pytest

from probadapt import autodiff as ad
from probadapt import losses as L
from probadapt.autodiff import EPS, Tape
from probadapt.data import DomainDataset
from probadapt.errors import ContractViolationError, DomainError
from probadapt.seeding import rng_for


def rand_probs(rng, n, c):
    return rng.dirichlet(np.ones(c), size=n)


def rand_prototype(rng, c1, c2):
    m = rand_probs(rng, c1, c2)
    return m / m.sum(axis=1, keepdims=True)


def leaves(*values):
    """Each value as a leaf of one new tape, for the graph builders."""
    tape = Tape()
    return [tape.leaf(v) for v in values]


def leaf(value):
    return leaves(value)[0]


# ------------------------------------------------------ pair coefficients

def five_step_alpha(y_s, p_h_t, classes):
    """CPA's coefficients as the chain of one-hot labels, source weights,
    pseudo-labels, target weights and their product."""
    y_s = np.asarray(y_s)
    y = np.zeros((len(y_s), classes))
    y[np.arange(len(y_s)), y_s] = 1.0
    col = y.sum(axis=0, keepdims=True)
    a_s = np.divide(y, col, out=np.zeros_like(y), where=col > 0)
    p = np.asarray(p_h_t, dtype=np.float64)
    y_tilde = np.zeros_like(p)
    y_tilde[np.arange(len(p)), np.argmax(p, axis=1)] = 1.0
    col = p.sum(axis=0, keepdims=True)
    a_t = y_tilde * np.divide(p, col, out=np.zeros_like(p), where=col > 0)
    return a_s @ a_t.T


def pair_coefficient_cases():
    """(y_s, p_h_t, classes) batches covering every form the coefficients take."""
    rng = rng_for(25, "test/alpha-chain")
    cases = [
        (np.arange(3), rand_probs(rng, 5, 3), 3),             # one source sample per class
        (np.array([0, 0, 2]), rand_probs(rng, 4, 3), 3),      # a two-sample class, one absent
        (np.array([1, 0, 1]), rand_probs(rng, 1, 3), 3),      # a single target sample
        (np.array([0]), np.array([[0.0, 1.0]]), 2),            # orthogonal classes
        (np.array([1]), np.array([[0.5, 0.3, 0.2]]), 3),      # a zero row
        (np.array([0, 1]), np.array([[0.5, 0.5]]), 2),        # an exact tie
        (np.array([0, 1, 2]), np.eye(3), 3),                   # one-hot target rows
    ]
    for _ in range(40):
        c = int(rng.integers(2, 6))
        y_s = rng.integers(0, c, size=int(rng.integers(1, 12)))
        p = rand_probs(rng, int(rng.integers(1, 12)), c)
        cases.append((y_s, p, c))
        # a monotone rescale of the target rows
        cases.append((y_s, p ** 3 / np.sum(p ** 3, axis=1, keepdims=True), c))
        # target columns zeroed by a partial-set mask
        mask = (rng.random(c) < 0.6).astype(np.float64)
        mask[int(rng.integers(0, c))] = 1.0
        cases.append((y_s, p * mask, c))
    return cases


def test_calibration_matrix_equals_the_five_step_chain_bit_for_bit():
    for y_s, p_h_t, classes in pair_coefficient_cases():
        alpha = L.calibration_matrix(y_s, p_h_t, classes)
        assert alpha.shape == (len(y_s), len(p_h_t))
        assert np.array_equal(alpha, five_step_alpha(y_s, p_h_t, classes))


def test_calibration_matrix_refuses_bad_labels_and_class_counts():
    with pytest.raises(ContractViolationError, match="label out of range"):
        L.calibration_matrix(np.array([3]), np.array([[0.5, 0.5]]), 2)
    with pytest.raises(ContractViolationError, match="3 classes, not 2"):
        L.calibration_matrix(np.array([0]), np.array([[0.2, 0.3, 0.5]]), 2)


def test_source_weights_single_sample():
    # one source sample per class weighs 1: alpha's rows are the target weights
    p = np.array([[0.2, 0.7, 0.1], [0.1, 0.6, 0.3]])
    alpha = L.calibration_matrix(np.array([0, 1, 2]), p, 3)
    assert alpha[1] == pytest.approx([0.7 / 1.3, 0.6 / 1.3], abs=1e-12)
    assert np.array_equal(alpha[[0, 2]], np.zeros((2, 2)))


def test_source_weights_hand_case():
    # one-hot target rows, one per class, read the source weights off alpha
    alpha = L.calibration_matrix(np.array([0, 0, 2]), np.eye(3), 3)
    assert np.array_equal(alpha, [[0.5, 0, 0], [0.5, 0, 0], [0, 0, 1.0]])


def test_source_weights_absent_class_zero_column():
    # no source sample has class 1, so the target row pseudo-labelled 1 pairs with none
    alpha = L.calibration_matrix(np.array([0, 0, 2]), np.eye(3), 3)
    assert np.all(alpha[:, 1] == 0.0)


def test_target_weights_single_sample_is_pseudo_label():
    alpha = L.calibration_matrix(np.array([0, 1]), np.array([[0.7, 0.3]]), 2)
    assert np.array_equal(alpha, [[1.0], [0.0]])


def test_target_weights_hand_case():
    alpha = L.calibration_matrix(np.array([0, 1]), np.array([[0.8, 0.2], [0.6, 0.4]]), 2)
    assert alpha[0] == pytest.approx([0.8 / 1.4, 0.6 / 1.4], abs=1e-12)
    assert np.array_equal(alpha[1], [0.0, 0.0])


def test_target_weights_entries_at_most_one():
    rng = rng_for(0, "test/tw")
    alpha = L.calibration_matrix(np.arange(4), rand_probs(rng, 8, 4), 4)
    assert np.all(alpha <= 1.0 + 1e-12)


def test_calibration_matrix_orthogonal_classes():
    assert L.calibration_matrix(np.array([0]), np.array([[0.0, 1.0]]), 2)[0, 0] == 0.0


def test_calibration_matrix_hand_dot():
    # two class-0 source samples weigh 1/2; the target row weighs 0.8/1.4 = 0.5714
    alpha = L.calibration_matrix(np.array([0, 0]), np.array([[0.8, 0.2], [0.6, 0.4]]), 2)
    assert alpha[0, 0] == pytest.approx(0.2857, abs=1e-4)
    assert alpha[0, 0] == pytest.approx(0.5 * 0.8 / 1.4, abs=1e-15)


def test_calibration_matrix_zero_row():
    # a source class no target row is pseudo-labelled with
    alpha = L.calibration_matrix(np.array([1]), np.array([[0.5, 0.3, 0.2]]), 3)
    assert np.all(alpha == 0.0)


# ------------------------------------------------------------ distances

def test_pair_distance_uniform_pair_is_zero():
    assert L.pair_distance([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)


def test_pair_distance_identical_onehot():
    assert L.pair_distance([1.0, 0.0], [1.0, 0.0]) == pytest.approx(-math.log(2.0), abs=1e-9)


def test_pair_distance_symmetric_exactly():
    rng = rng_for(1, "test/pd")
    for _ in range(50):
        p, q = rand_probs(rng, 2, 5)
        assert L.pair_distance(p, q) == L.pair_distance(q, p)


def test_js_zero_for_equal():
    p = np.array([0.2, 0.3, 0.5])
    assert L.js_divergence(p, p) == pytest.approx(0.0, abs=1e-10)


def test_js_disjoint_onehots_log2():
    assert L.js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2.0), abs=1e-9)


def test_js_identity_against_pair_distance():
    rng = rng_for(2, "test/js")
    for _ in range(100):
        p, q = L.clamp_probs(rand_probs(rng, 2, 6))
        lhs = L.js_divergence(p, q)
        rhs = (0.5 * float(np.sum(p * np.log(p))) + 0.5 * float(np.sum(q * np.log(q)))
               + L.pair_distance(p, q) + math.log(2.0))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------- regulariser

def test_regularizer_zero_at_prototype():
    m = np.array([[0.3, 0.7], [0.6, 0.4]])
    labels = np.array([0, 1, 0])
    p = m[labels]
    assert L.prototype_regularizer(leaf(p), labels, m).item() == pytest.approx(0.0, abs=1e-12)


def test_regularizer_hand_kl():
    m = np.array([[0.5, 0.5]])
    p = np.array([[0.25, 0.75]])
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    got = L.prototype_regularizer(leaf(p), np.array([0]), m).item()
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.1438, abs=1e-4)


def test_regularizer_positive_once_rows_deviate():
    m = np.array([[0.3, 0.7], [0.6, 0.4]])
    labels = np.array([0, 1])
    p = m[labels].copy()
    p[0] = [0.5, 0.5]
    assert L.prototype_regularizer(leaf(p), labels, m).item() > 1e-3


def test_regularizer_nonnegative():
    rng = rng_for(3, "test/reg")
    for _ in range(30):
        m = rand_prototype(rng, 3, 5)
        p = rand_probs(rng, 6, 5)
        labels = rng.integers(0, 3, size=6)
        assert L.prototype_regularizer(leaf(p), labels, m).item() >= -1e-12


def test_regularizer_of_an_empty_batch_is_zero():
    m = np.array([[0.3, 0.7], [0.6, 0.4]])
    loss = L.prototype_regularizer(leaf(np.zeros((0, 2))), np.array([], dtype=np.int64), m)
    assert loss.item() == 0.0


# ------------------------------------------------------------------ cpa

def test_cpa_zero_weights_and_prototype_rows():
    m = np.array([[0.3, 0.7], [0.6, 0.4]])
    labels = np.array([0, 1])
    p_s = m[labels]
    p_t = np.array([[0.5, 0.5]])
    loss = L.cpa_loss(*leaves(p_s, p_t), np.zeros((2, 1)), labels, m)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cpa_single_pair_composition():
    # alpha = 1, p = q = [1, 0], prototype equal to p so the regulariser is 0
    m = np.array([[1.0, 0.0]])
    p = np.array([[1.0, 0.0]])
    loss = L.cpa_loss(*leaves(p, p), np.ones((1, 1)), np.array([0]), m)
    assert loss.item() == pytest.approx(-math.log(2.0), abs=1e-4)


def test_cpa_pairwise_matches_scalar_pair_distance():
    rng = rng_for(4, "test/cpa")
    for _ in range(10):
        n_s, n_t, c = 3, 4, 5
        p = rand_probs(rng, n_s, c)
        q = rand_probs(rng, n_t, c)
        alpha = rng.random((n_s, n_t))
        got = L.cpa_pairwise(*leaves(p, q), alpha).item()
        want = sum(alpha[i, j] * L.pair_distance(p[i], q[j])
                   for i in range(n_s) for j in range(n_t))
        assert got == pytest.approx(want, abs=1e-10)


def replicated_cpa_pairwise(p, q, alpha):
    """Reference CPA: every pair as one row of (n_s * n_t) x c, built by
    multiplying replication arrays into the clamped rows."""
    n_s, n_t = p.shape[0], q.shape[0]
    rep_s = np.repeat(np.eye(n_s), n_t, axis=0)
    rep_t = np.tile(np.eye(n_t), (n_s, 1))
    s = ad.add(ad.matmul(rep_s, ad.clamp_floor(p)), ad.matmul(rep_t, ad.clamp_floor(q)))
    per_pair = ad.row_sum(ad.mul(s, ad.log(s)))
    weighted = ad.mul(alpha.reshape(-1, 1), per_pair)
    return ad.scalar_affine(ad.col_sum(weighted), -0.5, 0.0)


def value_and_grads(fn, p, q, alpha):
    tape = Tape()
    a, b = tape.leaf(p), tape.leaf(q)
    loss = fn(a, b, alpha)
    grads = ad.backward(loss)
    return loss.item(), ad.grad_or_zero(grads, a), ad.grad_or_zero(grads, b)


def test_cpa_pairwise_matches_replicated_reference():
    rng = rng_for(20, "test/cpa-ref")
    for n_s, n_t, c in ((3, 7, 5), (6, 2, 4), (5, 5, 6)):
        p = rand_probs(rng, n_s, c)
        q = rand_probs(rng, n_t, c)
        p[0, :2] = 0.0                  # entries at the clamp floor
        q[-1, 1] = EPS / 2
        alpha = rng.random((n_s, n_t))
        alpha[1] = 0.0                  # a source row with no partner
        got = value_and_grads(L.cpa_pairwise, p, q, alpha)
        want = value_and_grads(replicated_cpa_pairwise, p, q, alpha)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
        for g, w in zip(got[1:], want[1:]):
            np.testing.assert_allclose(g, w, rtol=1e-12)
        assert np.all(got[1][1] == 0.0)
        assert np.all(got[1][0, :2] == 0.0) and got[2][-1, 1] == 0.0


def test_pair_entropy_checks_shapes_and_domain():
    tape = Tape()
    a = tape.leaf([[0.5, 0.5], [0.2, 0.8]])
    b = tape.leaf([[0.3, 0.7]])
    with pytest.raises(ContractViolationError):
        ad.pair_entropy(a, b, np.ones((1, 2)))
    with pytest.raises(ContractViolationError):
        ad.pair_entropy(a, tape.leaf([[0.3, 0.3, 0.4]]), np.ones((2, 1)))
    with pytest.raises(ContractViolationError):
        L.cpa_pairwise(a, b, np.ones((2, 2)))
    with pytest.raises(ContractViolationError, match=r"need weights \(2, 1\), got \(1, 2\)"):
        L.cpa_pairwise(a, b, np.ones((1, 2)))
    with pytest.raises(DomainError):
        ad.pair_entropy(a, tape.leaf([[-0.5, 0.1]]), np.ones((2, 1)))


def broadcast_pair_entropy(a, b, w):
    """Reference pair_entropy over every pair on broadcast (n_a, n_b, c)
    arrays: value and both input gradients for an upstream gradient of 1."""
    s = a[:, None, :] + b[None, :, :]
    log_s = np.log(s)
    n_a, n_b, c = s.shape
    per_pair = (s * log_s).reshape(n_a * n_b, c).sum(axis=1, keepdims=True)
    total = (w.reshape(-1, 1) * per_pair).sum(axis=0, keepdims=True)
    ds = ((1.0 * -0.5) * w)[:, :, None] * (log_s + 1.0)
    return (total * -0.5 + 0.0)[0, 0], ds.sum(axis=1), ds.sum(axis=0)


def pair_entropy_value_and_grads(a, b, w):
    tape = Tape()
    la, lb = tape.leaf(a), tape.leaf(b)
    out = ad.pair_entropy(la, lb, w)
    grads = ad.backward(out)
    return out.item(), ad.grad_or_zero(grads, la), ad.grad_or_zero(grads, lb)


def same_class_weights(y_s, y_t, classes):
    """CPA coefficients for source labels y_s and target pseudo-labels y_t."""
    p_h_t = np.eye(classes)[y_t] * 0.7 + 0.3 / classes
    return L.calibration_matrix(y_s, p_h_t, classes)


def test_pair_entropy_gradients_equal_broadcast_reference_bit_for_bit():
    rng = rng_for(21, "test/pair-sparse")
    c = 16
    for n_a, n_b in ((9, 14), (23, 5), (16, 16)):
        a = np.maximum(rand_probs(rng, n_a, c), EPS)
        b = np.maximum(rand_probs(rng, n_b, c), EPS)
        a[0, :3] = EPS                  # inputs at the clamp floor
        b[-1, 5] = EPS
        # class 3 only in the source (all-zero rows), class 2 only in the
        # target (all-zero columns)
        y_s = rng.integers(0, 2, size=n_a)
        y_s[1::4] = 3
        y_t = rng.integers(0, 2, size=n_b)
        y_t[::3] = 2
        w = same_class_weights(y_s, y_t, 4)
        assert np.any(np.all(w == 0.0, axis=1)) and np.any(np.all(w == 0.0, axis=0))
        got = pair_entropy_value_and_grads(a, b, w)
        want = broadcast_pair_entropy(a, b, w)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])


def test_pair_entropy_vjp_repeats_bit_for_bit():
    # The VJP reuses the forward's buffers; a second call must see them intact
    # and must leave the first call's results alone.
    rng = rng_for(24, "test/pair-vjp-twice")
    c = 16
    a = np.maximum(rand_probs(rng, 12, c), EPS)
    b = np.maximum(rand_probs(rng, 10, c), EPS)
    w = same_class_weights(rng.integers(0, 4, size=12), rng.integers(0, 4, size=10), 4)
    tape = Tape()
    out = ad.pair_entropy(tape.leaf(a), tape.leaf(b), w)
    g = np.array([[0.75]])
    first = out.vjp(g)
    kept = [x.copy() for x in first]
    second = out.vjp(g)
    for x, k, y in zip(first, kept, second):
        assert x.tobytes() == k.tobytes()
        assert y.tobytes() == k.tobytes()
        assert not np.shares_memory(x, y)


def test_pair_entropy_all_zero_weights():
    rng = rng_for(22, "test/pair-zero")
    a, b = rand_probs(rng, 4, 16), rand_probs(rng, 3, 16)
    value, ga, gb = pair_entropy_value_and_grads(a, b, np.zeros((4, 3)))
    assert value == 0.0
    assert np.array_equal(ga, np.zeros((4, 16))) and np.array_equal(gb, np.zeros((3, 16)))


def test_pair_entropy_domain_check_covers_zero_weight_pairs():
    tape = Tape()
    a = tape.leaf([[0.5, 0.5], [-0.6, 0.2]])
    b = tape.leaf([[0.3, 0.7], [0.4, 0.6]])
    w = np.array([[1.0, 1.0], [0.0, 0.0]])  # the row with s <= 0 has no weight
    with pytest.raises(DomainError):
        ad.pair_entropy(a, b, w)


def test_pair_entropy_nan_in_zero_weight_row_is_not_finite():
    tape = Tape()
    a = tape.leaf([[0.5, 0.5], [np.nan, 0.2]])
    b = tape.leaf([[0.3, 0.7], [0.4, 0.6]])
    w = np.array([[1.0, 0.5], [0.0, 0.0]])
    assert not np.isfinite(ad.pair_entropy(a, b, w).item())


def test_pair_entropy_memory_stays_below_one_dense_pair_array():
    import tracemalloc

    rng = rng_for(23, "test/pair-mem")
    n, c = 512, 16
    labels = np.repeat(np.arange(4), n // 4)
    w = same_class_weights(labels, rng.permutation(labels), 4)
    a, b = rand_probs(rng, n, c), rand_probs(rng, n, c)
    tape = Tape()
    la, lb = tape.leaf(a), tape.leaf(b)
    tracemalloc.start()
    try:
        ad.backward(ad.pair_entropy(la, lb, w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * c * 8        # one dense (n, n, c) float64 array: 32 MB


def brute_force_classwise(p_s, y_s, p_t, y_t, classes):
    """Sum over classes of the distance between class-mean rows."""
    total = 0.0
    for c in range(classes):
        ms, mt = y_s == c, y_t == c
        if not ms.any() or not mt.any():
            continue
        total += L.pair_distance(p_s[ms].mean(axis=0), p_t[mt].mean(axis=0))
    return total


def test_cpa_matches_classwise_form_one_hot_regime():
    # one-hot labels and pseudo-labels, class-constant rows on both sides
    rng = rng_for(5, "test/cpa-eq")
    for _ in range(50):
        c1, c2 = 3, 5
        n_s, n_t = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        y_s = rng.integers(0, c1, size=n_s)
        y_t = rng.integers(0, c1, size=n_t)
        src_rows = rand_probs(rng, c1, c2)
        tgt_rows = rand_probs(rng, c1, c2)
        p_s, p_t = src_rows[y_s], tgt_rows[y_t]
        alpha = L.calibration_matrix(y_s, np.eye(c1)[y_t], c1)
        got = L.cpa_pairwise(*leaves(p_s, p_t), alpha).item()
        want = brute_force_classwise(p_s, y_s, p_t, y_t, c1)
        assert got == pytest.approx(want, abs=1e-10)


def test_cpa_pairwise_average_form_general_rows():
    # with one-hot confidences the coefficient form equals the per-class
    # average of pairwise distances even when rows vary within a class
    rng = rng_for(6, "test/cpa-avg")
    for _ in range(20):
        c1, c2, n = 3, 4, 6
        y_s = rng.integers(0, c1, size=n)
        y_t = rng.integers(0, c1, size=n)
        p_s = rand_probs(rng, n, c2)
        p_t = rand_probs(rng, n, c2)
        alpha = L.calibration_matrix(y_s, np.eye(c1)[y_t], c1)
        got = L.cpa_pairwise(*leaves(p_s, p_t), alpha).item()
        want = 0.0
        for c in range(c1):
            ms, mt = np.flatnonzero(y_s == c), np.flatnonzero(y_t == c)
            if len(ms) == 0 or len(mt) == 0:
                continue
            block = [L.pair_distance(p_s[i], p_t[j]) for i in ms for j in mt]
            want += float(np.mean(block))
        assert got == pytest.approx(want, abs=1e-10)


# ----------------------------------------------------------------- gini

def test_gini_onehot_zero():
    assert L.gini_impurity(np.array([[1.0, 0.0, 0.0]])) == 0.0


def test_gini_uniform_half_per_row():
    assert L.gini_impurity(np.array([[0.5, 0.5]])) == pytest.approx(0.5)


def test_gini_hand_sum():
    assert L.gini_impurity(np.array([[1.0, 0.0], [0.5, 0.5]])) == pytest.approx(0.5)


def test_gini_range_and_max_at_uniform():
    rng = rng_for(7, "test/gini")
    n, c = 6, 4
    p = rand_probs(rng, n, c)
    g = L.gini_impurity(p)
    assert 0.0 <= g <= n * (1.0 - 1.0 / c) + 1e-12
    assert L.gini_impurity(np.full((n, c), 1.0 / c)) == pytest.approx(n * (1 - 1 / c))


# ------------------------------------------------------------- transform

def test_transform_equal_kls_uniform():
    m = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = L.transform_probability(np.array([[0.9, 0.1]]), m)
    assert np.allclose(out, [[0.5, 0.5]])


def test_transform_argmax_at_matching_prototype():
    rng = rng_for(8, "test/tf")
    m = rand_prototype(rng, 3, 6)
    out = L.transform_probability(m[1:2], m)
    assert np.argmax(out[0]) == 1


def test_transform_hand_logistic():
    m = np.array([[0.7, 0.3], [0.2, 0.8]])
    out = L.transform_probability(np.array([[0.5, 0.5]]), m)
    assert out[0] == pytest.approx([0.5276, 0.4724], abs=1e-4)


# ----------------------------------------------------------------- beta

def exp_neg_kl(p_tilde, p_h) -> float:
    """The one-row calibration factor exp(-KL(p_tilde || p_h))."""
    beta = L.beta_values("exp_neg_kl", np.atleast_2d(p_h), np.atleast_2d(p_tilde))
    assert beta.shape == (1, 1)
    return float(beta[0, 0])


def test_beta_one_when_equal():
    p = np.array([0.3, 0.7])
    assert exp_neg_kl(p, p) == pytest.approx(1.0, abs=1e-12)


def test_beta_hand_value():
    assert exp_neg_kl([0.5, 0.5], [0.9, 0.1]) == pytest.approx(0.600, abs=1e-3)


def test_beta_bounds_thousand_pairs():
    rng = rng_for(9, "test/beta")
    for _ in range(1000):
        p = rand_probs(rng, 1, 4)[0]
        q = rand_probs(rng, 1, 4)[0]
        b = exp_neg_kl(p, q)
        assert 0.0 < b <= 1.0


def test_beta_variants():
    p = np.array([0.25, 0.25, 0.25, 0.25])
    pt = np.array([0.4, 0.3, 0.2, 0.1])
    assert L.beta_values("constant_half", p, pt)[0, 0] == 0.5
    onehot = np.array([1.0, 0.0, 0.0, 0.0])
    assert L.beta_values("exp_neg_entropy", onehot, pt)[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert L.beta_values("max_prob", p, pt)[0, 0] == pytest.approx(0.25)
    assert L.beta_values("exp_neg_kl", p, p)[0, 0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ContractViolationError):
        L.beta_values("nope", p, pt)


# ------------------------------------------------------------------ cgi

def test_cgi_beta_one_is_gini_bit_for_bit():
    rng = rng_for(10, "test/cgi1")
    for _ in range(50):
        n, c1, c2 = int(rng.integers(1, 7)), 3, 5
        p = rand_probs(rng, n, c1)
        g = rand_probs(rng, n, c2)
        m = rand_prototype(rng, c1, c2)
        state = replace(L.cgi_state(p, g, m), beta=np.ones((n, 1)))
        assert L.target_penalty_loss(leaf(p), state, "CGI").item() == L.gini_impurity(p)


def test_cgi_equal_distributions_give_gini():
    rng = rng_for(11, "test/cgi2")
    c1, c2 = 3, 5
    m = rand_prototype(rng, c1, c2)
    g = rand_probs(rng, 4, c2)
    p_tilde = L.transform_probability(g, m)
    state = L.cgi_state(p_tilde, g, m)
    loss = L.target_penalty_loss(leaf(p_tilde), state, "CGI")
    assert np.allclose(state.beta, 1.0)
    assert loss.item() == pytest.approx(L.gini_impurity(p_tilde), abs=1e-12)


def test_cgi_hand_composition():
    # p_h = [0.9, 0.1], p_tilde = [0.5, 0.5]: beta ~ 0.600, p_m = [0.7, 0.3]
    p_h = np.array([[0.9, 0.1]])
    p_tilde = np.array([[0.5, 0.5]])
    beta = exp_neg_kl(p_tilde[0], p_h[0])
    state = L.CgiState(p_tilde=p_tilde, beta=np.array([[beta]]))
    loss = L.target_penalty_loss(leaf(p_h), state, "CGI").item()
    want = beta * 0.18 + (1 - beta) * 0.42
    assert loss == pytest.approx(want, abs=1e-12)
    assert loss == pytest.approx(0.2760, abs=1e-3)


def test_cgi_gradient_matches_autodiff():
    rng = rng_for(12, "test/cgi-grad")
    for _ in range(10):
        n, c1, c2 = 5, 3, 6
        p = rand_probs(rng, n, c1)
        g = rand_probs(rng, n, c2)
        m = rand_prototype(rng, c1, c2)
        state = L.cgi_state(p, g, m)
        tape = Tape()
        leaf = tape.leaf(p)
        loss = L.target_penalty_loss(leaf, state, "CGI")
        auto = ad.backward(loss)[leaf]
        ref = L.cgi_gradient_reference(p, state.p_tilde, state.beta)
        assert np.allclose(auto, ref, atol=1e-10)


def test_cgi_gradient_beta_one_is_minus_two_p():
    p = np.array([[0.2, 0.8]])
    ref = L.cgi_gradient_reference(p, p, np.ones(1))
    assert np.allclose(ref, -2.0 * p)


def gibbs_entropy(p):
    """Reference GE penalty: sum over rows of -sum(p * log p), clamped."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    rows = np.sum(p * np.log(L.clamp_probs(p)), axis=1, keepdims=True) * -1.0 + 0.0
    return float(np.sum(rows, axis=0, keepdims=True)[0, 0])


def test_penalty_variants_values():
    rng = rng_for(13, "test/pen")
    n, c1, c2 = 4, 3, 5
    p = rand_probs(rng, n, c1)
    g = rand_probs(rng, n, c2)
    m = rand_prototype(rng, c1, c2)
    state = L.cgi_state(p, g, m)
    p_leaf = leaf(p)
    ge = L.target_penalty_loss(p_leaf, state, "GE").item()
    assert ge == pytest.approx(gibbs_entropy(p), abs=1e-12)
    gi = L.target_penalty_loss(p_leaf, state, "GI").item()
    assert gi == pytest.approx(L.gini_impurity(p), abs=1e-12)
    noreg = L.target_penalty_loss(p_leaf, state, "CGI_noreg").item()
    assert noreg == pytest.approx(float(np.sum(state.beta.ravel() *
                                               (1 - np.sum(p * p, axis=1)))), abs=1e-10)
    cge = L.target_penalty_loss(p_leaf, state, "CGE").item()
    ent = lambda x: -np.sum(L.clamp_probs(x) * np.log(L.clamp_probs(x)), axis=1)
    want = float(np.sum(state.beta.ravel() * ent(p)
                        + (1 - state.beta.ravel()) * ent(0.5 * (state.p_tilde + p))))
    assert cge == pytest.approx(want, abs=1e-8)


# -------------------------------------------------------- classification

def test_classification_perfect_prediction_zero():
    p = np.array([[1.0, 0.0]])
    assert L.classification_loss(leaf(p), np.array([0]), smoothing=0.0).item() == pytest.approx(
        0.0, abs=1e-9)


def test_classification_smoothing_hand_value():
    p = np.array([[0.8, 0.2]])
    got = L.classification_loss(leaf(p), np.array([0]), smoothing=0.1).item()
    want = -(0.9 * math.log(0.8) + 0.1 * math.log(0.2))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.3618, abs=1e-4)


def test_classification_rejects_bad_labels():
    p = np.array([[0.8, 0.2]])
    with pytest.raises(ContractViolationError):
        L.classification_loss(leaf(p), np.array([2]), smoothing=0.0)


# Each consumer of labels, called with a one-sample batch of two classes.
LABEL_CONSUMERS = {
    "DomainDataset": lambda y: DomainDataset(np.zeros((1, 3)), y, 2),
    "calibration_matrix": lambda y: L.calibration_matrix(y, np.array([[0.5, 0.5]]), 2),
    "classification_loss": lambda y: L.classification_loss(leaf(np.array([[0.5, 0.5]])), y),
    "prototype_regularizer": lambda y: L.prototype_regularizer(
        leaf(np.array([[0.5, 0.5]])), y, np.array([[0.3, 0.7], [0.6, 0.4]])),
}


@pytest.mark.parametrize("label", [-1, 2])
@pytest.mark.parametrize("consumer", LABEL_CONSUMERS)
def test_every_label_consumer_refuses_a_label_out_of_range(consumer, label):
    with pytest.raises(ContractViolationError, match="^label out of range$"):
        LABEL_CONSUMERS[consumer](np.array([label]))


# --------------------------------------------------------- pseudo labels

def test_pseudo_labels_argmax():
    alpha = L.calibration_matrix(np.array([0, 1]), np.array([[0.2, 0.8]]), 2)
    assert np.array_equal(alpha, [[0.0], [1.0]])


def test_pseudo_labels_tie_to_lowest_index():
    alpha = L.calibration_matrix(np.array([0, 1]), np.array([[0.5, 0.5]]), 2)
    assert np.array_equal(alpha, [[1.0], [0.0]])


def test_pseudo_labels_monotone_rescale_invariant():
    # with every class in the source batch, alpha's nonzero pairs are the
    # pseudo-labels, which a monotone rescale of the rows keeps
    rng = rng_for(15, "test/pl")
    p = rand_probs(rng, 6, 4)
    rescaled = p ** 3 / np.sum(p ** 3, axis=1, keepdims=True)
    y_s = np.arange(4)
    assert np.array_equal(L.calibration_matrix(y_s, p, 4) > 0,
                          L.calibration_matrix(y_s, rescaled, 4) > 0)


# --------------------------------------------- finite difference oracles

def test_fd_classification_loss_many_instances():
    rng = rng_for(16, "test/fd-cls")
    for _ in range(8):
        n, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        labels = rng.integers(0, c, size=n)

        def build(tape, leaves):
            return L.classification_loss(ad.row_softmax(leaves[0]), labels, smoothing=0.1)

        assert ad.finite_difference_check(build, [rng.normal(size=(n, c))]) < 1e-4


def test_fd_cpa_loss_many_instances():
    rng = rng_for(17, "test/fd-cpa")
    for _ in range(6):
        n, c1, c2 = int(rng.integers(2, 5)), 3, int(rng.integers(3, 6))
        labels = rng.integers(0, c1, size=n)
        m = rand_prototype(rng, c1, c2)
        alpha = rng.random((n, n))

        def build(tape, leaves):
            return L.cpa_loss(ad.row_softmax(leaves[0]), ad.row_softmax(leaves[1]),
                              alpha, labels, m)

        err = ad.finite_difference_check(build, [rng.normal(size=(n, c2)),
                                                 rng.normal(size=(n, c2))])
        assert err < 1e-4


def test_fd_cgi_loss_frozen_state():
    rng = rng_for(18, "test/fd-cgi")
    for _ in range(6):
        n, c1, c2 = int(rng.integers(2, 6)), 3, 5
        logits = rng.normal(size=(n, c1))
        g = rand_probs(rng, n, c2)
        m = rand_prototype(rng, c1, c2)
        tape = Tape()
        p0 = ad.row_softmax(tape.leaf(logits)).value
        state = L.cgi_state(p0, g, m)

        def build(tape, leaves):
            return L.target_penalty_loss(ad.row_softmax(leaves[0]), state, "CGI")

        assert ad.finite_difference_check(build, [logits]) < 1e-4


def test_all_losses_finite_on_clamped_inputs():
    rng = rng_for(19, "test/finite")
    n, c1, c2 = 5, 3, 6
    p_h = L.clamp_probs(rand_probs(rng, n, c1))
    p_g = L.clamp_probs(rand_probs(rng, n, c2))
    m = rand_prototype(rng, c1, c2)
    labels = rng.integers(0, c1, size=n)
    alpha = rng.random((n, n))
    vals = [
        L.cpa_loss(*leaves(p_g, p_g), alpha, labels, m).item(),
        L.target_penalty_loss(leaf(p_h), L.cgi_state(p_h, p_g, m), "CGI").item(),
        L.classification_loss(leaf(p_h), labels, smoothing=0.1).item(),
        L.prototype_regularizer(leaf(p_g), labels, m).item(),
    ]
    assert all(np.isfinite(v) for v in vals)
