import copy
import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from probadapt import autodiff as ad
from probadapt import losses, runner, trainer
from probadapt.autodiff import Tape
from probadapt.config import ExperimentConfig, parse_config
from probadapt.data import UnlabeledDataset, make_uda_pair
from probadapt.errors import (ConfigError, ContractViolationError, EmptyPartialSetError,
                              TrainingDivergedError)
from probadapt.model import (feature_graph, head_graph, init_params, leaves_for,
                             learn_prototype, predict_proba)
from probadapt.optim import SgdState
from probadapt.seeding import rng_for
from probadapt.trainer import (lambda_schedule, lr_schedule, partial_set_mask,
                               step_losses_and_grads, train, train_step)


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
    # lambda_form is no longer a key; a config that still sets it must fail loudly
    with pytest.raises(ConfigError, match="schedule.lambda_form"):
        parse_config("schedule.lambda_form = exp\n")


# ----------------------------------------------------------- train_step

def test_gradient_routing_default():
    params, x_s, y_s, x_t, m = tiny_setup()
    comp = step_losses_and_grads(params, x_s, y_s, x_t, m, ExperimentConfig())
    cgi_groups = set(comp.grads["cgi"])
    assert "theta_g" not in cgi_groups
    assert "theta" not in cgi_groups
    assert "theta_h" in cgi_groups
    cpa_groups = set(comp.grads["cpa"])
    assert "theta_h" not in cpa_groups
    assert {"theta", "theta_g"} <= cpa_groups
    cls_groups = set(comp.grads["cls"])
    assert "theta_g" not in cls_groups
    assert (cls_groups, cpa_groups, cgi_groups) == (
        {"theta", "theta_h"}, {"theta", "theta_g"}, {"theta_h"})


def test_step_backward_returns_parameter_gradients_only(monkeypatch):
    # Input batches, targets and detached values are plain arrays, so each of
    # the three passes returns the gradients of the parameters it reaches and no
    # others: cls and cpa reach 6 extractor + 2 head parameters, cgi the 2
    # task-head parameters.
    returned = []
    original = ad.backward

    def recording(node):
        grads = original(node)
        returned.append(grads)
        return grads

    monkeypatch.setattr(ad, "backward", recording)
    params, x_s, y_s, x_t, m = tiny_setup()
    step_losses_and_grads(params, x_s, y_s, x_t, m, ExperimentConfig())
    assert [len(grads) for grads in returned] == [8, 8, 2]
    assert all(leaf.op == "leaf" for grads in returned for leaf in grads)


AMPLITUDES = {"cpa": "lambda2_a", "cgi": "lambda3_a"}


@pytest.mark.parametrize("point, config, passes", [
    *((name, cfg, passes) for (name, cfg), passes in
      zip(runner._grid_points(ExperimentConfig(), "components"), (1, 2, 2, 3, 2, 3))),
    ("baseline", ExperimentConfig(lambda2_a=0.0, lambda3_a=0.0), 1),
])
def test_step_backpropagates_only_losses_with_a_nonzero_amplitude(monkeypatch, point,
                                                                   config, passes):
    # A zero amplitude weighs its calibration loss at zero on every step, so
    # the loss is not built: it is neither reported nor backpropagated, and it
    # reaches no group. The classification loss is always backpropagated.
    calls = []
    original = ad.backward

    def recording(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(ad, "backward", recording)
    params, x_s, y_s, x_t, m = tiny_setup()
    comp = step_losses_and_grads(params, x_s, y_s, x_t, m, config)
    assert len(calls) == passes
    assert set(comp.losses) == {"cls", *(loss for loss, key in AMPLITUDES.items()
                                         if getattr(config, key) != 0.0)}
    assert set(comp.grads) == {"cls", *AMPLITUDES}
    assert comp.grads["cls"] != {}
    assert all(np.isfinite(value) for value in comp.losses.values())
    for loss, key in AMPLITUDES.items():
        assert (comp.grads[loss] == {}) == (getattr(config, key) == 0.0)


@pytest.mark.parametrize("key", ["lambda2_a", "lambda3_a"])
def test_first_step_ignores_the_amplitude(key):
    # lambda2 = lambda3 = 0 at iteration 0 whatever the amplitude, so a step
    # that skips the loss and one that weighs it at zero agree bit for bit on
    # every parameter and velocity, and on every record entry but the skipped
    # loss. A first step at iteration 5 gives every group a velocity.
    params, x_s, y_s, x_t, m = tiny_setup(seed=5)
    states = fresh_states(ExperimentConfig())
    train_step(params, states, x_s, y_s, x_t, m, ExperimentConfig(), 5, 10)
    records, stepped_groups = [], []
    for amplitude in (0.0, 1.0):
        stepped, stepped_states = params.copy(), copy.deepcopy(states)
        records.append(train_step(stepped, stepped_states, x_s, y_s, x_t, m,
                                  replace(ExperimentConfig(), **{key: amplitude}), 0, 10))
        stepped_groups.append([(stepped.group(g).flat.tobytes(),
                                stepped_states[g].velocity.tobytes())
                               for g in ("theta", "theta_g", "theta_h")])
    assert stepped_groups[0] == stepped_groups[1]
    skipped, built = records
    assert set(built) - set(skipped) == {loss for loss, k in AMPLITUDES.items() if k == key}
    assert skipped == {k: built[k] for k in skipped}


def test_cls_only_step_builds_no_calibration_input(monkeypatch):
    # Neither calibration term is built at zero amplitude, so nothing that
    # only feeds them may run.
    def refuse(*args, **kwargs):
        raise AssertionError("a zero-amplitude term was built")

    for name in ("calibration_matrix", "cpa_loss", "cgi_state", "target_penalty_loss"):
        monkeypatch.setattr(losses, name, refuse)
    cfg = dict(runner._grid_points(ExperimentConfig(), "components"))["cls_only"]
    params, x_s, y_s, x_t, m = tiny_setup()
    record = train_step(params, fresh_states(cfg), x_s, y_s, x_t, m, cfg, 5, 10)
    assert set(record) == {"cls", "eta", "lambda2", "lambda3"}


def test_step_computes_no_vjp_product_for_a_constant(monkeypatch):
    # Input batches, detached features, calibration quantities and masks enter
    # the tape as plain arrays; the primitives that read them must not compute
    # their share of a VJP.
    wasted, array_reads = [], []

    def detached(operand):
        return not isinstance(operand, ad.Tensor)

    class CheckingTape(Tape):
        def _register(self, node):
            vjp = node.vjp
            if vjp is not None and any(detached(p) for p in node.inputs):
                def checked(g, node=node, vjp=vjp):
                    out = vjp(g)
                    array_reads.append(node.op)
                    wasted.extend((node.op, i) for i, (parent, pg) in
                                  enumerate(zip(node.inputs, out))
                                  if detached(parent) and pg is not None)
                    return out
                node.vjp = checked
            return super()._register(node)

    monkeypatch.setattr(trainer, "Tape", CheckingTape)
    params, x_s, y_s, x_t, m = tiny_setup(n=16)
    step_losses_and_grads(params, x_s, y_s, x_t, m, ExperimentConfig())
    assert {"dense", "elementwise_mul", "add_bias"} <= set(array_reads)
    assert wasted == []


def test_train_step_with_a_nonfinite_head_gradient_steps_no_group(monkeypatch):
    params, x_s, y_s, x_t, m = tiny_setup()
    cfg = ExperimentConfig()
    states = fresh_states(cfg)
    train_step(params, states, x_s, y_s, x_t, m, cfg, 5, 10)
    groups = ("theta", "theta_g", "theta_h")
    before = {g: (params.group(g).flat.copy(), states[g].velocity.copy()) for g in groups}
    comp = step_losses_and_grads(params, x_s, y_s, x_t, m, cfg)
    comp.grads["cgi"]["theta_h"][-1] = np.inf  # the last slot of the layout is in b
    monkeypatch.setattr(trainer, "step_losses_and_grads", lambda *args: comp)
    with pytest.raises(TrainingDivergedError, match="parameter b"):
        train_step(params, states, x_s, y_s, x_t, m, cfg, 6, 10)
    for g in groups:
        assert params.group(g).flat.tobytes() == before[g][0].tobytes()
        assert states[g].velocity.tobytes() == before[g][1].tobytes()


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
    step_losses_and_grads(params, x_s, y_s, x_t, m, ExperimentConfig())
    (tape,) = tapes
    assert len(tape.recorded) > 0
    assert all(node.value.shape[0] != n * n for node in tape.recorded)


def test_step_records_one_node_per_layer_and_cross_entropy_term(monkeypatch):
    recorded = []
    original_backward = ad.backward

    def counting_backward(output):
        recorded.append(len(output.tape.nodes))
        return original_backward(output)

    monkeypatch.setattr(ad, "backward", counting_backward)
    params, x_s, y_s, x_t, m = tiny_setup(n=16)
    step_losses_and_grads(params, x_s, y_s, x_t, m, ExperimentConfig())
    # 10 parameter leaves, 10 dense layers (3 per extractor pass, 4 heads),
    # then 3 classification, 7 CPA and 12 CGI nodes; both batches, the
    # detached target features and the CGI state are plain arrays, no nodes
    assert recorded == [42, 42, 42]


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
        comp = step_losses_and_grads(params, x_s, y_s, x_t, m, ExperimentConfig())
        (tape,) = tapes
        assert tape() is None
    finally:
        if was_enabled:
            gc.enable()
    assert set(comp.grads) == {"cls", "cpa", "cgi"}


def test_gradient_routing_backbone_toggle():
    params, x_s, y_s, x_t, m = tiny_setup()
    comp = step_losses_and_grads(params, x_s, y_s, x_t, m,
                                 ExperimentConfig(cgi_updates_backbone=True))
    cgi_groups = set(comp.grads["cgi"])
    assert "theta" in cgi_groups
    assert np.any(comp.grads["cgi"]["theta"] != 0)
    assert "theta_g" not in cgi_groups


def test_step_zero_lambdas_is_supervised_step():
    params, x_s, y_s, x_t, m = tiny_setup()
    cfg = ExperimentConfig(lambda2_a=0.0, lambda3_a=0.0)
    before_g = {k: v.copy() for k, v in params.theta_g.items()}
    before_h = {k: v.copy() for k, v in params.theta_h.items()}
    train_step(params, fresh_states(cfg), x_s, y_s, x_t, m, cfg, 0, 10)
    for k in before_g:
        assert np.array_equal(params.theta_g[k], before_g[k])
    for k in before_h:
        assert not np.array_equal(params.theta_h[k], before_h[k])


def source_only_graph(params, x_s, y_s, cfg):
    """A plain classification step's graph: the extractor and the task head on
    the source batch, and the classification loss."""
    tape = Tape()
    theta_leaves = leaves_for(tape, params.theta)
    h_leaves = leaves_for(tape, params.theta_h)
    p = head_graph(h_leaves, feature_graph(theta_leaves, x_s))
    return tape, theta_leaves, h_leaves, losses.classification_loss(
        p, y_s, smoothing=cfg.label_smoothing)


def test_step_supervised_matches_manual_composition():
    # lambda2 = lambda3 = 0 must reproduce a plain classification update
    params_a, x_s, y_s, x_t, m = tiny_setup(seed=3)
    params_b = params_a.copy()
    cfg = ExperimentConfig(lambda2_a=0.0, lambda3_a=0.0)
    rec = train_step(params_a, fresh_states(cfg), x_s, y_s, x_t, m, cfg, 0, 10)
    assert rec["lambda2"] == 0.0 and rec["lambda3"] == 0.0

    from probadapt.optim import sgd_step

    _, theta_leaves, h_leaves, loss = source_only_graph(params_b, x_s, y_s, cfg)
    grads = ad.backward(loss)
    eta = lr_schedule(cfg.eta0, cfg.tau, cfg.upsilon, 0)
    for group, leaves, mult in (("theta", theta_leaves, 1.0), ("theta_h", h_leaves, 10.0)):
        gd = np.concatenate([ad.grad_or_zero(grads, leaf).ravel() for leaf in leaves.values()])
        sgd_step([(params_b.group(group), gd,
                   SgdState(momentum=cfg.momentum, weight_decay=cfg.weight_decay),
                   eta * mult)])
    for group in ("theta", "theta_g", "theta_h"):
        for k in params_a.group(group):
            assert np.array_equal(params_a.group(group)[k], params_b.group(group)[k])


def test_cls_only_step_tape_is_the_source_only_graph(monkeypatch):
    # Without either calibration term the step forwards no target batch and
    # puts no pretrained-head leaf on its tape.
    recorded = []
    original_backward = ad.backward

    def counting_backward(output):
        recorded.append(len(output.tape.nodes))
        return original_backward(output)

    monkeypatch.setattr(ad, "backward", counting_backward)
    params, x_s, y_s, x_t, m = tiny_setup(n=16)
    cfg = ExperimentConfig(lambda2_a=0.0, lambda3_a=0.0)
    step_losses_and_grads(params, x_s, y_s, x_t, m, cfg)
    tape, *_ = source_only_graph(params, x_s, y_s, cfg)
    assert recorded == [len(tape.nodes)]


@pytest.mark.parametrize("backbone", [False, True])
def test_step_full_combination_matches_manual_recomposition(backbone):
    # the lambda-weighted per-group combination must equal recombining the
    # per-loss gradients by hand and stepping each group independently; the
    # penalty joins the extractor's terms only when the flag asks for it
    params_a, x_s, y_s, x_t, m = tiny_setup(seed=8)
    params_b = params_a.copy()
    cfg = ExperimentConfig(cgi_updates_backbone=backbone)
    iteration, total = 7, 10
    rec = train_step(params_a, fresh_states(cfg), x_s, y_s, x_t, m, cfg,
                     iteration, total)

    from probadapt.optim import sgd_step

    comp = step_losses_and_grads(params_b, x_s, y_s, x_t, m, cfg)
    eta = lr_schedule(cfg.eta0, cfg.tau, cfg.upsilon, iteration)
    lam2 = lambda_schedule(cfg.lambda2_a, cfg.delta, iteration / total)
    lam3 = lambda_schedule(cfg.lambda3_a, cfg.delta, iteration / total)
    assert rec["lambda2"] == lam2 and rec["lambda3"] == lam3 and rec["eta"] == eta
    theta_terms = ((1.0, "cls"), (lam2, "cpa"))
    if backbone:
        theta_terms += ((lam3, "cgi"),)
    combos = {"theta": theta_terms,
              "theta_g": ((lam2, "cpa"),),
              "theta_h": ((1.0, "cls"), (lam3, "cgi"))}
    for group, terms in combos.items():
        flat = np.zeros_like(params_b.group(group).flat)
        for weight, loss_name in terms:
            flat += weight * comp.grads[loss_name][group]
        lr = eta * (cfg.head_lr_multiplier if group == "theta_h" else 1.0)
        sgd_step([(params_b.group(group), flat,
                   SgdState(momentum=cfg.momentum, weight_decay=cfg.weight_decay), lr)])
    for group in ("theta", "theta_g", "theta_h"):
        for k in params_a.group(group):
            assert np.array_equal(params_a.group(group)[k], params_b.group(group)[k])


# ------------------------------------------------------------------ pda

def pda_config(threshold):
    return ExperimentConfig(mode="pda", pda_threshold=threshold)


def rows_with_counts(counts):
    """Probability rows whose argmax falls on class c for counts[c] of them."""
    c = len(counts)
    return np.eye(c)[np.repeat(np.arange(c), counts)] * 0.6 + 0.4 / c


def counts_then_threshold(probs, threshold):
    """The partial-set rule as two steps: each class's argmax count, then the threshold."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    counts = np.bincount(np.argmax(p, axis=1), minlength=p.shape[1])
    mask = (counts >= threshold).astype(np.float64)
    if not np.any(mask):
        raise EmptyPartialSetError(
            f"key 'train.pda_threshold': every class fell below the partial-set threshold "
            f"{threshold} (the most predicted class has {int(counts.max(initial=0))} "
            f"target samples); lower the threshold")
    return mask


def test_pda_counts_tally():
    # the masks at thresholds 1, 2 and 3 pin the counts 2, 1, 3
    p = np.array([[0.9, 0.1, 0.0], [0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                  [0.0, 0.1, 0.9], [0.2, 0.2, 0.6], [0.1, 0.0, 0.9]])
    masks = [partial_set_mask(p, pda_config(t)) for t in (1, 2, 3)]
    assert np.array_equal(masks, [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


def test_pda_mask_threshold_zero_identity():
    p = rows_with_counts([5, 0, 7])
    assert np.array_equal(p * partial_set_mask(p, pda_config(0)), p)


def test_pda_mask_hand_case():
    p = np.array([0.3, 0.5, 0.2])
    mask = partial_set_mask(rows_with_counts([5, 1, 7]), pda_config(2))
    assert np.allclose(p * mask, [0.3, 0.0, 0.2])


def test_pda_mask_all_below_threshold_errors():
    with pytest.raises(EmptyPartialSetError, match="'train.pda_threshold'.* 10 .* 3 target"):
        partial_set_mask(rows_with_counts([1, 2, 3]), pda_config(10))


def test_partial_set_mask_equals_counts_then_threshold():
    rng = rng_for(0, "test/pda-rule")
    assert partial_set_mask(rows_with_counts([1, 2, 3]), ExperimentConfig()) is None
    for _ in range(30):
        c = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(c), size=int(rng.integers(1, 40)))
        probs[: len(probs) // 4] = 1.0 / c          # exact ties go to class 0
        for threshold in range(len(probs) + 2):
            try:
                want = counts_then_threshold(probs, threshold)
            except EmptyPartialSetError as exc:
                with pytest.raises(EmptyPartialSetError) as got:
                    partial_set_mask(probs, pda_config(threshold))
                assert str(got.value) == str(exc)
            else:
                assert np.array_equal(partial_set_mask(probs, pda_config(threshold)), want)


def test_partial_set_mask_reaches_every_target_probability_consumer(monkeypatch):
    # The mask multiplies the task head's target probabilities before the pair
    # coefficients, the calibration state and the penalty read them.
    params, x_s, y_s, x_t, m = tiny_setup(n=16)
    unmasked = predict_proba(params, "task", x_t)
    dropped = int(np.argmax(unmasked[0]))
    assert dropped in y_s                 # the class has pairs when unmasked
    mask = np.ones(3)
    mask[dropped] = 0.0
    seen = {}

    def capture(name, original, read):
        def wrapped(*args):
            seen[name] = read(*args)
            out = original(*args)
            if name == "calibration_matrix":
                seen["alpha"] = out
            return out
        monkeypatch.setattr(losses, name, wrapped)

    capture("calibration_matrix", losses.calibration_matrix, lambda y, p, c: p)
    capture("cgi_state", losses.cgi_state, lambda p, g, proto, variant: p)
    capture("target_penalty_loss", losses.target_penalty_loss, lambda p, state, pen: p.value)
    step_losses_and_grads(params, x_s, y_s, x_t, m, ExperimentConfig(), mask)
    for name in ("calibration_matrix", "cgi_state", "target_penalty_loss"):
        assert np.all(seen[name][:, dropped] == 0.0), name
        assert np.array_equal(seen[name], unmasked * mask), name
    # no pair has the dropped class as its target pseudo-label
    assert not np.any(seen["alpha"][y_s == dropped])


def test_pda_default_threshold_is_reference_value():
    assert ExperimentConfig().pda_threshold == 14


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

    task = make_pretrain_task(cfg)
    params = pretrain(task, cfg.task_classes, cfg.pretrain_epochs, cfg.pretrain_lr,
                      cfg.seed, batch_size=cfg.batch_size,
                      momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    return params, make_uda_pair(cfg)


def test_train_deterministic_reports():
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    rep1, out1 = train(params, pair, cfg)
    rep2, out2 = train(params, pair, cfg)
    assert rep1 == rep2
    for group in ("theta", "theta_g", "theta_h"):
        for k in out1.group(group):
            assert np.array_equal(out1.group(group)[k], out2.group(group)[k])


def test_train_report_shape_and_schedule_columns():
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    rep, _ = train(params, pair, cfg)
    assert [r.epoch for r in rep.epochs] == list(range(cfg.epochs))
    assert rep.epochs[0].lambda2 < rep.epochs[-1].lambda2
    assert all(np.isfinite([r.l_cls, r.l_cpa, r.l_cgi]).all() for r in rep.epochs)


@pytest.mark.parametrize("lambda2_a, lambda3_a", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
def test_train_report_leaves_out_a_zero_amplitude_term(lambda2_a, lambda3_a):
    cfg = fast_cfg(lambda2_a=lambda2_a, lambda3_a=lambda3_a)
    params, pair = pretrained_and_pair(cfg)
    rep, _ = train(params, pair, cfg)
    assert [r.epoch for r in rep.epochs] == list(range(cfg.epochs))
    for r in rep.epochs:
        for value, amplitude, weight in ((r.l_cpa, lambda2_a, r.lambda2),
                                         (r.l_cgi, lambda3_a, r.lambda3)):
            assert (value is None) == (amplitude == 0.0)
            assert (weight == 0.0) == (amplitude == 0.0)
        assert all(np.isfinite(v) for v in (r.l_cls, r.l_cpa, r.l_cgi) if v is not None)


def test_train_pda_threshold_zero_matches_uda():
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    rep_uda, _ = train(params, pair, cfg)
    rep_pda, _ = train(params, pair, replace(cfg, mode="pda", pda_threshold=0))
    assert rep_uda == rep_pda


@pytest.mark.parametrize("mode, passes", [("uda", 1), ("pda", 2)])
def test_train_makes_one_target_pass_per_epoch(monkeypatch, mode, passes):
    # The partial-set mask for the next epoch and the final mask reuse the
    # probabilities of the evaluation just made; only pda adds the mask for
    # epoch 0, and both modes add the final predictions.
    cfg = fast_cfg(mode=mode, pda_threshold=0)
    params, pair = pretrained_and_pair(cfg)
    heads = []

    def counting(params, head, inputs):
        if inputs is pair.target.inputs:
            heads.append(head)
        return predict_proba(params, head, inputs)

    monkeypatch.setattr(trainer, "predict_proba", counting)
    train(params, pair, cfg)
    assert heads == ["task"] * (cfg.epochs + passes)


def test_train_keeps_prototype_half_out_of_batches():
    # the training half has at most ceil(n/2) samples per class
    cfg = fast_cfg()
    params, pair = pretrained_and_pair(cfg)
    from probadapt.model import split_source
    _, train_half = split_source(pair.source, cfg.seed)
    assert len(train_half) == math.ceil(len(pair.source) / 2)


def test_unlabeled_dataset_has_no_label_accessor():
    cfg = fast_cfg()
    pair = make_uda_pair(cfg)
    assert not hasattr(pair.target, "labels")
    assert isinstance(pair.target, UnlabeledDataset)


def test_train_rejects_empty_domain():
    # an empty target is refused where it is built, as an empty source is,
    # so no pair that train could receive holds an empty domain
    pair = make_uda_pair(fast_cfg())
    with pytest.raises(ContractViolationError, match="dataset is empty"):
        UnlabeledDataset(pair.target.inputs[:0])


def test_config_validation():
    with pytest.raises(ConfigError, match="train.epochs"):
        ExperimentConfig(epochs=0)
    with pytest.raises(ConfigError, match="train.beta_variant"):
        ExperimentConfig(beta_variant="bogus")


def default_like(**kw):
    base = dict(samples_per_class=25, epochs=8)
    base.update(kw)
    return ExperimentConfig(**base)


def run_to_final(cfg, l2, l3):
    params, pair = pretrained_and_pair(cfg)
    rep, _ = train(params, pair, replace(cfg, lambda2_a=l2, lambda3_a=l3))
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
