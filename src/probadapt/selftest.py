"""Built-in invariant checks runnable from the CLI without pytest.

Each check calls the functions the pipeline runs, not copies of them."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tape
from .optim import ParamGroup, SgdState, sgd_step
from .seeding import rng_for
from .trainer import lambda_schedule, lr_schedule


def _random_probs(rng, n, c):
    return losses.clamp_probs(rng.dirichlet(np.ones(c), size=n))


def _check_dense_softmax_rows(rng):
    x, w, b = rng.normal(0, 3, size=(6, 4)), rng.normal(size=(4, 5)), rng.normal(size=(1, 5))
    s = ad.dense(x, w, b, "row_softmax")
    return np.all(np.abs(s.sum(axis=1) - 1.0) < 1e-12) and np.all(s > 0)


def _pair_entropy(a, b, weights):
    tape = Tape()
    return ad.pair_entropy(tape.leaf(a), tape.leaf(b), weights).item()


def _check_pair_entropy_sum(rng):
    for _ in range(20):
        a, b = _random_probs(rng, 3, 5), _random_probs(rng, 4, 5)
        w = rng.random((3, 4)) * (rng.random((3, 4)) > 0.3)
        want = math.fsum(w[i, j] * losses.pair_distance(a[i], b[j])
                         for i in range(3) for j in range(4))
        if not math.isclose(_pair_entropy(a, b, w), want, rel_tol=1e-12, abs_tol=1e-12):
            return False
    return True


def _check_pair_entropy_symmetry(rng):
    for _ in range(20):
        a, b = _random_probs(rng, 3, 5), _random_probs(rng, 4, 5)
        w = rng.random((3, 4))
        if not math.isclose(_pair_entropy(a, b, w), _pair_entropy(b, a, w.T), rel_tol=1e-12):
            return False
    return True


def _check_beta_values(rng):
    p_h, p_tilde = _random_probs(rng, 200, 4), _random_probs(rng, 200, 4)
    for variant in losses.BETA_VARIANTS:
        beta = losses.beta_values(variant, p_h, p_tilde)
        if beta.shape != (200, 1) or not np.all((beta > 0.0) & (beta <= 1.0)):
            return False
    return np.all(losses.beta_values("exp_neg_kl", p_h, p_h) == 1.0)


def _check_cgi_degenerates(rng):
    p = rng.dirichlet(np.ones(3), size=5)
    g = _random_probs(rng, 5, 6)
    m = _random_probs(rng, 3, 6)
    m = m / m.sum(axis=1, keepdims=True)
    state = replace(losses.cgi_state(p, g, m), beta=np.ones((5, 1)))
    return (losses.target_penalty_loss(Tape().leaf(p), state, "CGI").item()
            == losses.gini_impurity(p))


def _check_gradients(rng):
    n, c1, c2 = 4, 3, 5
    labels = rng.integers(0, c1, size=n)
    m = _random_probs(rng, c1, c2)
    m = m / m.sum(axis=1, keepdims=True)
    alpha = rng.random((n, n))
    logits_s = rng.normal(0, 1, size=(n, c2))
    logits_t = rng.normal(0, 1, size=(n, c2))

    def build_cpa(tape, leaves):
        return losses.cpa_loss(ad.row_softmax(leaves[0]), ad.row_softmax(leaves[1]),
                               alpha, labels, m)

    err = ad.finite_difference_check(build_cpa, [logits_s, logits_t])
    if err >= 1e-4:
        return False
    g_vals = _random_probs(rng, n, c2)
    logits_h = rng.normal(0, 1, size=(n, c1))
    tape0 = Tape()
    p0 = ad.row_softmax(tape0.leaf(logits_h)).value
    state = losses.cgi_state(p0, g_vals, m)

    def build_cgi(tape, leaves):
        return losses.target_penalty_loss(ad.row_softmax(leaves[0]), state, "CGI")

    return ad.finite_difference_check(build_cgi, [logits_h]) < 1e-4


def _check_fused_primitives(rng):
    """dense and weighted_log_rows against their composites, value and every
    gradient bit for bit, through an extractor layer, a head and a clamped log."""
    values = [rng.normal(size=(6, 5)), rng.normal(size=(5, 4)), rng.normal(size=(1, 4)),
              rng.normal(size=(4, 3)), rng.normal(size=(1, 3)),
              rng.dirichlet(np.ones(3), size=6) * (rng.random((6, 3)) > 0.2)]
    weights = rng.random((6, 3))

    def run(fused):
        tape = Tape()
        x, w1, b1, w2, b2, p = leaves = [tape.leaf(v) for v in values]
        if fused:
            s = ad.dense(ad.dense(x, w1, b1, "relu"), w2, b2, "row_softmax")
            rows = [ad.weighted_log_rows(weights, q) for q in (s, p)]
        else:
            h = ad.relu(ad.add(ad.matmul(x, w1), b1))
            s = ad.row_softmax(ad.add(ad.matmul(h, w2), b2))
            rows = [ad.row_sum(ad.mul(weights, ad.log(ad.clamp_floor(q))))
                    for q in (s, p)]
        out = ad.mean(ad.add(*rows))
        grads = ad.backward(out)
        return [out.value] + [grads[leaf] for leaf in leaves]

    return all(np.array_equal(f, c) for f, c in zip(run(True), run(False)))


def _check_sgd_plain(rng):
    p = ParamGroup({"w": np.array([[1.0, -2.0]])})
    g = np.array([0.5, 0.5])
    sgd_step([(p, g, SgdState(momentum=0.0, weight_decay=0.0), 1.0)])
    return np.array_equal(p["w"], np.array([[0.5, -2.5]]))


def _check_schedules(rng):
    ok = abs(lr_schedule(3e-4, 3e-4, 0.75, 1000) - 2.464e-4) < 1e-6
    ok = ok and lambda_schedule(1.0, 10.0, 0.0) == 0.0
    ok = ok and abs(lambda_schedule(1.0, 10.0, 1.0) - 0.99991) < 1e-4
    return ok


CHECKS = (
    ("dense row_softmax rows sum to one", _check_dense_softmax_rows),
    ("pair entropy equals the weighted pair distances", _check_pair_entropy_sum),
    ("beta values in (0, 1], exactly 1 where the heads agree", _check_beta_values),
    ("cgi degenerates to gini at beta=1", _check_cgi_degenerates),
    ("loss gradients vs finite differences", _check_gradients),
    ("fused dense and weighted log equal their composites", _check_fused_primitives),
    ("plain sgd step", _check_sgd_plain),
    ("schedule fixed points", _check_schedules),
    ("pair entropy symmetric under swapped operands", _check_pair_entropy_symmetry),
)


def run_selftest() -> bool:
    """Run every check; print one line each; True when all pass."""
    all_ok = True
    for name, check in CHECKS:
        rng = rng_for(0, f"selftest/{name}")
        try:
            ok = bool(check(rng))
        except Exception as exc:
            ok = False
            name = f"{name} ({exc})"
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return all_ok
