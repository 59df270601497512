"""Built-in invariant checks runnable from the CLI without pytest."""

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


def _check_softmax_rows(rng):
    x = rng.normal(0, 3, size=(6, 5))
    tape = Tape()
    s = ad.row_softmax(tape.leaf(x)).value
    return np.all(np.abs(s.sum(axis=1) - 1.0) < 1e-12) and np.all(s > 0)


def _check_js_identity(rng):
    for _ in range(50):
        p = _random_probs(rng, 1, 6)[0]
        q = _random_probs(rng, 1, 6)[0]
        lhs = losses.js_divergence(p, q)
        rhs = (0.5 * float(np.sum(p * np.log(p))) + 0.5 * float(np.sum(q * np.log(q)))
               + losses.pair_distance(p, q) + math.log(2.0))
        if abs(lhs - rhs) > 1e-10:
            return False
    return True


def _check_beta_bounds(rng):
    for _ in range(200):
        p = _random_probs(rng, 1, 4)[0]
        q = _random_probs(rng, 1, 4)[0]
        b = losses.beta_factor(p, q)
        if not (0.0 < b <= 1.0):
            return False
    return abs(losses.beta_factor(p, p) - 1.0) < 1e-12


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


def _check_pair_distance_symmetry(rng):
    for _ in range(50):
        p = _random_probs(rng, 1, 5)[0]
        q = _random_probs(rng, 1, 5)[0]
        if losses.pair_distance(p, q) != losses.pair_distance(q, p):
            return False
    return True


CHECKS = (
    ("row_softmax rows sum to one", _check_softmax_rows),
    ("js identity vs pair distance", _check_js_identity),
    ("beta factor bounds", _check_beta_bounds),
    ("cgi degenerates to gini at beta=1", _check_cgi_degenerates),
    ("loss gradients vs finite differences", _check_gradients),
    ("fused dense and weighted log equal their composites", _check_fused_primitives),
    ("plain sgd step", _check_sgd_plain),
    ("schedule fixed points", _check_schedules),
    ("pair distance symmetry", _check_pair_distance_symmetry),
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
