import gc
import math
import weakref

import numpy as np
import pytest

from probadapt import trainer
from probadapt.autodiff import Tape
from probadapt.config import ExperimentConfig, parse_config
from probadapt.data import GeneratorSpec, Shift, UdaPair, UnlabeledDataset, make_uda_pair
from probadapt.errors import ConfigError, ContractViolationError
from probadapt.model import init_params, learn_prototype, predict_proba
from probadapt.optim import SgdState
from probadapt.seeding import rng_for
from probadapt.trainer import (PdaConfig, ScheduleConfig, TrainConfig,
                               lambda_schedule, lr_schedule, pda_category_counts,
                               pda_class_mask, pda_mask, step_losses_and_grads, train,
                               train_step)


def tiny_setup(seed=0, n=6, c1=3, c2=5, dim=4):
    rng = rng_for(seed, "test/tiny")
    params = init_params(dim, c2, c1, seed=seed)
    x_s = rng.normal(size=(n, dim))
    y_s = rng.integers(0, c1, size=n)
    x_t = rng.normal(size=(n, dim))
    m = rng.dirichlet(np.ones(c2), size=c1)
    m = m / m.sum(axis=1, keepdims=True)
    return params, x_s, y_s, x_t, m


def fresh_states(cfg):
    return {g: SgdState(momentum=cfg.momentum, weight_decay=cfg.weight_decay)
            for g in ("theta", "theta_g", "theta_h")}


# ------------------------------------------------------------- schedules

def test_lr_schedule_at_zero_is_eta0():
    assert lr_schedule(3e-4, 3e-4, 0.75, 0) == 3e-4


def test_lr_schedule_worked_example():
    assert lr_schedule(3e-4, 3e-4, 0.75, 1000) == pytest.approx(2.464e-4, abs=1e-7)


def test_lr_schedule_nonincreasing():
    values = [lr_schedule(1e-2, 3e-4, 0.75, rho) for rho in range(0, 5000, 250)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lambda_schedule_zero_at_start():
    assert lambda_schedule(1.0, 10.0, 0.0) == 0.0


def test_lambda_schedule_worked_examples():
    assert lambda_schedule(1.0, 10.0, 1.0) == pytest.approx(0.99991, abs=1e-5)
    assert lambda_schedule(1.0, 10.0, 0.5) == pytest.approx(0.98661, abs=1e-5)


def test_lambda_form_exp_rejected():
    # the exp ramp started at -1, so a baseline run did gradient ascent
    with pytest.raises(ConfigError, match="schedule.lambda_form"):
        parse_config("schedule.lambda_form = exp\n")
    with pytest.raises(ContractViolationError):
        lambda_schedule(1.0, 10.0, 0.0, form="exp")


# ----------------------------------------------------------- train_step

def test_gradient_routing_default():
    params, x_s, y_s, x_t, m = tiny_setup()
    comp = step_losses_and_grads(params, x_s, y_s, x_t, m, TrainConfig())
    cgi_groups = {group for group, _ in comp.grads["cgi"]}
    assert "theta_g" not in cgi_groups
    assert "theta" not in cgi_groups
    assert "theta_h" in cgi_groups
    cpa_groups = {group for group, _ in comp.grads["cpa"]}
    assert "theta_h" not in cpa_groups
    assert {"theta", "theta_g"} <= cpa_groups
    cls_groups = {group for group, _ in comp.grads["cls"]}
    assert "theta_g" not in cls_groups


def test_step_tape_has_no_pair_replicated_rows(monkeypatch):
    # CPA pairs every source row with every target row; no recorded value
    # may materialise those n_s * n_t pairs as rows.
    # The step clears its tape when done, so nodes are recorded as they come.
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            self.recorded = []
            tapes.append(self)

        def _register(self, node):
            self.recorded.append(node)
            return super()._register(node)

    monkeypatch.setattr(trainer, "Tape", RecordingTape)
    n = 64
    params, x_s, y_s, x_t, m = tiny_setup(n=n)
    step_losses_and_grads(params, x_s, y_s, x_t, m, TrainConfig())
    (tape,) = tapes
    assert len(tape.recorded) > 0
    assert all(node.value.shape[0] != n * n for node in tape.recorded)


def test_step_tape_freed_without_cycle_collector(monkeypatch):
    tapes = []

    class WatchedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(trainer, "Tape", WatchedTape)
    params, x_s, y_s, x_t, m = tiny_setup()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        comp = step_losses_and_grads(params, x_s, y_s, x_t, m, TrainConfig())
        (tape,) = tapes
        assert tape() is None
    finally:
        if was_enabled:
            gc.enable()
    assert set(comp.grads) == {"cls", "cpa", "cgi"}


def test_gradient_routing_backbone_toggle():
    params, x_s, y_s, x_t, m = tiny_setup()
    comp = step_losses_and_grads(params, x_s, y_s, x_t, m,
                                 TrainConfig(cgi_updates_backbone=True))
    cgi_groups = {group for group, _ in comp.grads["cgi"]}
    assert "theta" in cgi_groups
    assert any(np.any(g != 0) for (grp, _), g in comp.grads["cgi"].items() if grp == "theta")
    assert "theta_g" not in cgi_groups


def test_step_zero_lambdas_is_supervised_step():
    params, x_s, y_s, x_t, m = tiny_setup()
    cfg = TrainConfig()
    sched = ScheduleConfig(lambda2_a=0.0, lambda3_a=0.0)
    before_g = {k: v.copy() for k, v in params.theta_g.items()}
    before_h = {k: v.copy() for k, v in params.theta_h.items()}
    train_step(params, fresh_states(cfg), x_s, y_s, x_t, m, sched, cfg, 0, 10)
    for k in before_g:
        assert np.array_equal(params.theta_g[k], before_g[k])
    for k in before_h:
        assert not np.array_equal(params.theta_h[k], before_h[k])


def test_step_lambda1_lambda3_zero_leaves_head_bit_exact():
    params, x_s, y_s, x_t, m = tiny_setup()
    cfg = TrainConfig()
    sched = ScheduleConfig(lambda1=0.0, lambda3_a=0.0)
    before_h = {k: v.copy() for k, v in params.theta_h.items()}
    # iteration 5 of 10 so lambda2 > 0 and theta, theta_g do move
    before_t = {k: v.copy() for k, v in params.theta.items()}
    train_step(params, fresh_states(cfg), x_s, y_s, x_t, m, sched, cfg, 5, 10)
    for k in before_h:
        assert np.array_equal(params.theta_h[k], before_h[k])
    assert any(not np.array_equal(params.theta[k], before_t[k]) for k in before_t)


def test_step_supervised_matches_manual_composition():
    # lambda2 = lambda3 = 0 must reproduce a plain classification update
    params_a, x_s, y_s, x_t, m = tiny_setup(seed=3)
    params_b = params_a.copy()
    cfg = TrainConfig()
    sched = ScheduleConfig(lambda2_a=0.0, lambda3_a=0.0)
    rec = train_step(params_a, fresh_states(cfg), x_s, y_s, x_t, m, sched, cfg, 0, 10)
    assert rec["lambda2"] == 0.0 and rec["lambda3"] == 0.0

    from probadapt import autodiff as ad
    from probadapt import losses as L
    from probadapt.model import feature_graph, head_graph, leaves_for
    from probadapt.optim import sgd_step
    from probadapt.autodiff import Tape

    tape = Tape()
    theta_leaves = leaves_for(tape, params_b.theta)
    h_leaves = leaves_for(tape, params_b.theta_h)
    p = head_graph(h_leaves, feature_graph(theta_leaves, tape.leaf(x_s)))
    loss = L.classification_loss(p, y_s, smoothing=cfg.label_smoothing)
    grads = ad.backward(loss)
    eta = lr_schedule(sched.eta0, sched.tau, sched.upsilon, 0)
    for group, leaves, mult in (("theta", theta_leaves, 1.0), ("theta_h", h_leaves, 10.0)):
        gd = {name: ad.grad_or_zero(grads, leaf) for name, leaf in leaves.items()}
        sgd_step(params_b.group(group), gd,
                 SgdState(momentum=cfg.momentum, weight_decay=cfg.weight_decay),
                 eta * mult)
    for group in ("theta", "theta_g", "theta_h"):
        for k in params_a.group(group):
            assert np.array_equal(params_a.group(group)[k], params_b.group(group)[k])


def test_step_full_combination_matches_manual_recomposition():
    # the lambda-weighted per-group combination must equal recombining the
    # per-loss gradients by hand and stepping each group independently
    params_a, x_s, y_s, x_t, m = tiny_setup(seed=8)
    params_b = params_a.copy()
    cfg = TrainConfig(cgi_updates_backbone=True)
    sched = ScheduleConfig()
    iteration, total = 7, 10
    rec = train_step(params_a, fresh_states(cfg), x_s, y_s, x_t, m, sched, cfg,
                     iteration, total)

    from probadapt.optim import sgd_step

    comp = step_losses_and_grads(params_b, x_s, y_s, x_t, m, cfg)
    eta = lr_schedule(sched.eta0, sched.tau, sched.upsilon, iteration)
    lam2 = lambda_schedule(sched.lambda2_a, sched.delta, iteration / total)
    lam3 = lambda_schedule(sched.lambda3_a, sched.delta, iteration / total)
    assert rec["lambda2"] == lam2 and rec["lambda3"] == lam3 and rec["eta"] == eta
    combos = {"theta": ((sched.lambda1, "cls"), (lam2, "cpa"), (lam3, "cgi")),
              "theta_g": ((lam2, "cpa"),),
              "theta_h": ((sched.lambda1, "cls"), (lam3, "cgi"))}
    for group, terms in combos.items():
        gdict = {}
        for weight, loss_name in terms:
            for (grp, pname), g in comp.grads[loss_name].items():
                if grp == group:
                    gdict[pname] = gdict.get(pname, 0.0) + weight * g
        lr = eta * (sched.head_lr_multiplier if group == "theta_h" else 1.0)
        sgd_step(params_b.group(group), gdict,
                 SgdState(momentum=cfg.momentum, weight_decay=cfg.weight_decay), lr)
    for group in ("theta", "theta_g", "theta_h"):
        for k in params_a.group(group):
            assert np.array_equal(params_a.group(group)[k], params_b.group(group)[k])


# ------------------------------------------------------------------ pda

def test_pda_counts_tally():
    p = np.array([[0.9, 0.1, 0.0], [0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                  [0.0, 0.1, 0.9], [0.2, 0.2, 0.6], [0.1, 0.0, 0.9]])
    assert np.array_equal(pda_category_counts(p), [2, 1, 3])
    assert pda_category_counts(p).sum() == len(p)


def test_pda_counts_empty():
    assert np.array_equal(pda_category_counts(np.zeros((0, 3))), [])


def test_pda_mask_threshold_zero_identity():
    p = np.array([0.3, 0.5, 0.2])
    assert np.array_equal(pda_mask(p, np.array([5, 0, 7]), 0), p)


def test_pda_mask_hand_case():
    p = np.array([0.3, 0.5, 0.2])
    assert np.allclose(pda_mask(p, np.array([5, 1, 7]), 2), [0.3, 0.0, 0.2])


def test_pda_mask_all_below_threshold_errors():
    with pytest.raises(ContractViolationError, match="threshold"):
        pda_class_mask(np.array([1, 2, 3]), 10)


def test_pda_default_threshold_is_reference_value():
    assert PdaConfig().threshold == 14


# ------------------------------------------------------------ full train

def fast_cfg(**kw):
    base = dict(input_dim=4, pretrain_classes=6, task_classes=3, samples_per_class=12,
                noise_scale=0.3, rotation=math.pi / 6, translation=(),
                epochs=3, batch_size=8, pretrain_epochs=5, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def pretrained_and_pair(cfg):
    from probadapt.data import make_pretrain_task
    from probadapt.model import pretrain

    spec = cfg.generator_spec()
    task = make_pretrain_task(spec)
    params = pretrain(task, cfg.task_classes, cfg.pretrain_epochs, cfg.pretrain_lr,
                      cfg.seed, batch_size=cfg.batch_size)
    return params, make_uda_pair(spec)


def test_train_deterministic_reports():
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    rep1, out1 = train(params, pair, cfg.schedule_config(), cfg.train_config())
    rep2, out2 = train(params, pair, cfg.schedule_config(), cfg.train_config())
    assert rep1 == rep2
    for group in ("theta", "theta_g", "theta_h"):
        for k in out1.group(group):
            assert np.array_equal(out1.group(group)[k], out2.group(group)[k])


def test_train_report_shape_and_schedule_columns():
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    rep, _ = train(params, pair, cfg.schedule_config(), cfg.train_config())
    assert [r.epoch for r in rep.epochs] == list(range(cfg.epochs))
    assert rep.epochs[0].lambda2 < rep.epochs[-1].lambda2
    assert all(np.isfinite([r.l_cls, r.l_cpa, r.l_cgi]).all() for r in rep.epochs)


def test_train_pda_threshold_zero_matches_uda():
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    rep_uda, _ = train(params, pair, cfg.schedule_config(), cfg.train_config())
    rep_pda, _ = train(params, pair, cfg.schedule_config(),
                       cfg.train_config(with_pda=True, pda_threshold=0))
    assert rep_uda == rep_pda


def test_train_keeps_prototype_half_out_of_batches():
    # the training half has at most ceil(n/2) samples per class
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    from probadapt.model import split_source
    _, train_half = split_source(pair.source, cfg.seed)
    assert len(train_half) == math.ceil(len(pair.source) / 2)


def test_unlabeled_dataset_has_no_label_accessor():
    cfg = fast_cfg()
    pair = make_uda_pair(cfg.generator_spec())
    assert not hasattr(pair.target, "labels")
    assert isinstance(pair.target, UnlabeledDataset)


def test_train_rejects_empty_domain():
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    empty_target = UnlabeledDataset(pair.target.inputs[:0], "target", pair.target.class_count)
    broken = UdaPair(source=pair.source, target=empty_target, eval_labels=pair.eval_labels[:0])
    with pytest.raises(ContractViolationError):
        train(params, broken, cfg.schedule_config(), cfg.train_config())


def test_config_validation():
    with pytest.raises(ContractViolationError):
        TrainConfig(epochs=0)
    with pytest.raises(ContractViolationError):
        TrainConfig(beta_variant="bogus")
    with pytest.raises(ContractViolationError):
        ScheduleConfig(lambda_form="quadratic")


def default_like(**kw):
    base = dict(samples_per_class=25, epochs=8)
    base.update(kw)
    return ExperimentConfig(**base)


def run_to_final(cfg, l2, l3):
    params, pair = pretrained_and_pair(cfg)
    rep, _ = train(params, pair, cfg.schedule_config(lambda2_a=l2, lambda3_a=l3),
                   cfg.train_config())
    return rep.final_target_accuracy


def test_zero_shift_baseline_close_to_full_method():
    cfg = default_like(rotation=0.0, noise_scale=0.0)
    base = run_to_final(cfg, 0.0, 0.0)
    full = run_to_final(cfg, cfg.lambda2_a, cfg.lambda3_a)
    assert abs(base - full) <= 0.02


def test_default_shift_drops_baseline_at_least_ten_points():
    # source-only accuracy under the default rotation+noise shift vs no shift
    shifted = ExperimentConfig()
    unshifted = ExperimentConfig(rotation=0.0)
    acc_shift = run_to_final(shifted, 0.0, 0.0)
    acc_plain = run_to_final(unshifted, 0.0, 0.0)
    assert acc_shift <= acc_plain - 0.10
