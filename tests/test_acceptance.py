"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with its measured quantities. Run with ``pytest tests/test_acceptance.py -v -s``.

End-to-end margins are pinned-seed regression fixtures calibrated on the
default generator configuration; they are seed-specific by design.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from probadapt import autodiff as ad
from probadapt import losses as L
from probadapt.autodiff import Tape
from probadapt.config import ExperimentConfig, parse_config
from probadapt.data import make_pretrain_task, make_uda_pair
from probadapt.model import init_params, pretrain
from probadapt.runner import run_experiment
from probadapt.seeding import rng_for
from probadapt.trainer import lambda_schedule, lr_schedule, step_losses_and_grads, train

from report_files import summary_metrics


def rand_probs(rng, n, c):
    return rng.dirichlet(np.ones(c), size=n)


def rand_prototype(rng, c1, c2):
    m = rand_probs(rng, c1, c2)
    return m / m.sum(axis=1, keepdims=True)


DEFAULT = ExperimentConfig()


def default_pretrained():
    task = make_pretrain_task(DEFAULT)
    params = pretrain(task, DEFAULT)
    return params, make_uda_pair(DEFAULT)


def test_c01_gradient_oracle_three_losses():
    started = time.perf_counter()
    rng = rng_for(100, "acc/fd")
    worst = {"cls": 0.0, "cpa": 0.0, "cgi": 0.0}
    for _ in range(20):
        n = int(rng.integers(2, 9))
        c1 = int(rng.integers(2, 5))
        c2 = int(rng.integers(c1, 9))
        labels = rng.integers(0, c1, size=n)
        m = rand_prototype(rng, c1, c2)
        alpha = rng.random((n, n))
        g_vals = rand_probs(rng, n, c2)

        def build_cls(tape, leaves):
            return L.classification_loss(ad.row_softmax(leaves[0]), labels, smoothing=0.1)

        worst["cls"] = max(worst["cls"], ad.finite_difference_check(
            build_cls, [rng.normal(size=(n, c1))]))

        def build_cpa(tape, leaves):
            return L.cpa_loss(ad.row_softmax(leaves[0]), ad.row_softmax(leaves[1]),
                              alpha, labels, m)

        worst["cpa"] = max(worst["cpa"], ad.finite_difference_check(
            build_cpa, [rng.normal(size=(n, c2)), rng.normal(size=(n, c2))]))

        logits = rng.normal(size=(n, c1))
        tape = Tape()
        p0 = ad.row_softmax(tape.leaf(logits)).value
        state = L.cgi_state(p0, g_vals, m)

        def build_cgi(tape, leaves):
            return L.target_penalty_loss(ad.row_softmax(leaves[0]), state, "CGI")

        worst["cgi"] = max(worst["cgi"], ad.finite_difference_check(build_cgi, [logits]))

    elapsed = time.perf_counter() - started
    assert all(err < 1e-4 for err in worst.values()), worst
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 1: gradient oracle, max rel errors "
          f"cls={worst['cls']:.2e} cpa={worst['cpa']:.2e} cgi={worst['cgi']:.2e} "
          f"({elapsed:.1f}s < 10s)")


def test_c02_cpa_form_equivalence():
    started = time.perf_counter()
    rng = rng_for(101, "acc/cpa-eq")
    worst = 0.0
    for _ in range(50):
        c1, c2 = 3, 5
        n_s, n_t = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        y_s = rng.integers(0, c1, size=n_s)
        y_t = rng.integers(0, c1, size=n_t)
        src_rows = rand_probs(rng, c1, c2)
        tgt_rows = rand_probs(rng, c1, c2)
        p_s, p_t = src_rows[y_s], tgt_rows[y_t]
        alpha = L.calibration_matrix(y_s, np.eye(c1)[y_t], c1)
        tape = Tape()
        got = L.cpa_pairwise(tape.leaf(p_s), tape.leaf(p_t), alpha).item()
        want = 0.0
        for c in range(c1):
            ms, mt = y_s == c, y_t == c
            if ms.any() and mt.any():
                want += L.pair_distance(p_s[ms].mean(axis=0), p_t[mt].mean(axis=0))
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 2: coefficient form vs class-wise form, "
          f"max |diff|={worst:.2e} ({elapsed:.1f}s < 5s)")


def test_c03_js_identity():
    rng = rng_for(102, "acc/js")
    worst = 0.0
    for _ in range(100):
        p = L.clamp_probs(rand_probs(rng, 1, 6)[0])
        q = L.clamp_probs(rand_probs(rng, 1, 6)[0])
        lhs = L.js_divergence(p, q)
        rhs = (0.5 * float(np.sum(p * np.log(p))) + 0.5 * float(np.sum(q * np.log(q)))
               + L.pair_distance(p, q) + math.log(2.0))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    print(f"\n[PASS] criterion 3: JS identity, max |diff|={worst:.2e}")


def test_c04_cgi_degenerates_to_gini_bitwise():
    rng = rng_for(103, "acc/cgi1")
    for _ in range(50):
        n, c1, c2 = int(rng.integers(1, 9)), int(rng.integers(2, 5)), 6
        p = rand_probs(rng, n, c1)
        g = rand_probs(rng, n, c2)
        m = rand_prototype(rng, c1, c2)
        state = replace(L.cgi_state(p, g, m), beta=np.ones((n, 1)))
        assert L.target_penalty_loss(Tape().leaf(p), state, "CGI").item() == L.gini_impurity(p)
    print("\n[PASS] criterion 4: CGI with beta=1 equals Gini impurity bit-for-bit")


def test_c05_beta_bounds():
    rng = rng_for(104, "acc/beta")
    for _ in range(1000):
        p = rand_probs(rng, 1, 5)[0]
        q = rand_probs(rng, 1, 5)[0]
        b = L.beta_values("exp_neg_kl", q[None], p[None])[0, 0]
        assert 0.0 < b <= 1.0
        assert b < 1.0  # distinct random pairs
    p = rand_probs(rng, 1, 5)[0]
    assert L.beta_values("exp_neg_kl", p[None], p[None])[0, 0] == 1.0
    print("\n[PASS] criterion 5: beta in (0, 1], exactly 1 at equality")


def test_c06_gradient_routing():
    rng = rng_for(105, "acc/routing")
    params = init_params(5, 7, 3, seed=42)
    x_s = rng.normal(size=(6, 5))
    y_s = rng.integers(0, 3, size=6)
    x_t = rng.normal(size=(6, 5))
    m = rand_prototype(rng, 3, 7)

    comp = step_losses_and_grads(params, x_s, y_s, x_t, m, ExperimentConfig())
    assert "theta_g" not in comp.grads["cgi"]
    assert "theta" not in comp.grads["cgi"]
    assert "theta_h" not in comp.grads["cpa"]

    toggled = step_losses_and_grads(params, x_s, y_s, x_t, m,
                                    ExperimentConfig(cgi_updates_backbone=True))
    assert np.any(toggled.grads["cgi"]["theta"] != 0.0)
    assert "theta_g" not in toggled.grads["cgi"]
    print("\n[PASS] criterion 6: gradient routing per group, backbone toggle works")


def test_c07_end_to_end_adaptation_gain():
    started = time.perf_counter()
    params, pair = default_pretrained()
    finals = {}
    for name, (l2, l3) in {"baseline": (0.0, 0.0), "cpa_only": (DEFAULT.lambda2_a, 0.0),
                           "cgi_only": (0.0, DEFAULT.lambda3_a),
                           "full": (DEFAULT.lambda2_a, DEFAULT.lambda3_a)}.items():
        rep, _ = train(params, pair, replace(DEFAULT, lambda2_a=l2, lambda3_a=l3))
        finals[name] = rep.final_target_accuracy
    elapsed = time.perf_counter() - started

    # pinned-seed regression fixtures from the calibration run (seed 0)
    assert finals["baseline"] == pytest.approx(0.845, abs=0.05)
    assert finals["cpa_only"] == pytest.approx(0.975, abs=0.05)
    assert finals["cgi_only"] == pytest.approx(0.910, abs=0.05)
    assert finals["full"] == pytest.approx(0.980, abs=0.05)

    assert finals["full"] >= finals["baseline"] + 0.10
    assert finals["cpa_only"] >= finals["baseline"] + 0.03
    assert finals["cgi_only"] >= finals["baseline"] + 0.03
    assert finals["baseline"] < min(finals["cpa_only"], finals["cgi_only"])
    assert max(finals["cpa_only"], finals["cgi_only"]) <= finals["full"]
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 7: baseline={finals['baseline']:.3f} "
          f"cpa={finals['cpa_only']:.3f} cgi={finals['cgi_only']:.3f} "
          f"full={finals['full']:.3f} ({elapsed:.1f}s < 120s)")


def test_c08_pda_consistency(tmp_path):
    # threshold 0 must be byte-identical to plain adaptation
    base = ("generator.samples_per_class = 25\ntrain.epochs = 6\n"
            f"outputs = {tmp_path / 'uda'}\n")
    uda = run_experiment(parse_config(base))
    pda_cfg = parse_config(base.replace(str(tmp_path / 'uda'), str(tmp_path / 'pda'))
                           + "mode = pda\ntrain.pda_threshold = 0\n")
    pda = run_experiment(pda_cfg)
    assert (uda.out_dir / "epochs.csv").read_bytes() == (pda.out_dir / "epochs.csv").read_bytes()
    assert summary_metrics(uda.summary) == summary_metrics(pda.summary)

    # partial-set pair (first half of the classes) with a calibrated threshold
    sub = replace(DEFAULT, target_class_count=math.ceil(DEFAULT.task_classes / 2),
                  noise_scale=0.45)
    task = make_pretrain_task(sub)
    params = pretrain(task, sub)
    pair = make_uda_pair(sub)
    rep_uda, _ = train(params, pair, sub)
    rep_pda, _ = train(params, pair, replace(sub, mode="pda", pda_threshold=10))
    assert rep_pda.final_target_accuracy >= rep_uda.final_target_accuracy
    print(f"\n[PASS] criterion 8: T=0 byte-identical; partial-set "
          f"pda={rep_pda.final_target_accuracy:.3f} >= uda={rep_uda.final_target_accuracy:.3f}")


def test_c09_domain_gap_reporting(tmp_path):
    cfg = parse_config(f"mode = fig1\noutputs = {tmp_path / 'fig1'}\n")
    rec = run_experiment(cfg)
    s = rec.summary
    assert "feature_distance" in s and "probability_distance" in s
    assert isinstance(s["probability_distance_smaller"], bool)
    # pinned default seed satisfies the ordering
    assert s["probability_distance_smaller"] is True
    assert s["probability_distance"] < s["feature_distance"]
    print(f"\n[PASS] criterion 9: probability={s['probability_distance']:.3f} < "
          f"feature={s['feature_distance']:.3f} on the pinned seed")


def test_c10_determinism_byte_identical(tmp_path):
    text = (f"generator.samples_per_class = 25\ntrain.epochs = 6\n"
            f"outputs = {tmp_path / 'det'}\n")
    first = run_experiment(parse_config(text))
    csv1 = (first.out_dir / "epochs.csv").read_bytes()
    sum1 = (first.out_dir / "summary.json").read_bytes()
    second = run_experiment(parse_config(text))
    assert (second.out_dir / "epochs.csv").read_bytes() == csv1
    assert (second.out_dir / "summary.json").read_bytes() == sum1
    print("\n[PASS] criterion 10: rerun produces byte-identical epochs.csv and summary")


def test_c11_schedule_worked_examples():
    # independent scalar evaluations of the two schedule formulas
    lr = lr_schedule(3e-4, 3e-4, 0.75, 1000)
    assert abs(lr - 3e-4 / (1.0 + 3e-4 * 1000) ** 0.75) < 1e-15
    assert abs(lr - 2.464e-4) < 1e-6
    assert lambda_schedule(1.0, 10.0, 0.0) == 0.0
    lam_full = lambda_schedule(1.0, 10.0, 1.0)
    assert abs(lam_full - (2.0 / (1.0 + math.exp(-10.0)) - 1.0)) < 1e-15
    assert abs(lam_full - 0.99991) < 1e-6
    assert abs(lambda_schedule(0.25, 10.0, 1.0) - 0.25 * lam_full) < 1e-12
    lam_half = lambda_schedule(1.0, 10.0, 0.5)
    assert abs(lam_half - (2.0 / (1.0 + math.exp(-5.0)) - 1.0)) < 1e-15
    # the quoted figure is printed to five decimals, so compare at that grain
    assert abs(lam_half - 0.98661) < 5e-6
    print("\n[PASS] criterion 11: schedule formulas reproduce the worked values")
