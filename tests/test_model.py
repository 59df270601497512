import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from probadapt import autodiff as ad
from probadapt import model, trainer
from probadapt.autodiff import Tape
from probadapt.config import ExperimentConfig
from probadapt.data import make_pretrain_task
from probadapt.errors import ContractViolationError, MissingClassError, TrainingDivergedError
from probadapt.model import (feature_graph, head_graph, init_params,
                             heldout_accuracy, learn_prototype, predict_proba, pretrain,
                             split_source)
from probadapt.data import DomainDataset
from probadapt.autodiff import EPS
from probadapt.optim import SgdState, sgd_step
from probadapt.seeding import rng_for


def small_labeled(labels, dim=3, class_count=None, seed=0):
    labels = np.asarray(labels)
    rng = rng_for(seed, "test/smalldata")
    return DomainDataset(rng.normal(size=(len(labels), dim)), labels,
                         class_count or int(labels.max()) + 1)


def test_zero_weights_give_zero_features():
    theta = {"w1": np.zeros((2, 4)), "b1": np.zeros((1, 4))}
    assert np.array_equal(feature_graph(theta, [[1.0, -3.0]]), np.zeros((1, 4)))


def test_identity_layer_relu():
    theta = {"w1": np.eye(2), "b1": np.zeros((1, 2))}
    assert np.array_equal(feature_graph(theta, [[1.0, -1.0]]), [[1.0, 0.0]])


def test_feature_regression_lock_seed0():
    params = init_params(input_dim=3, pretrain_classes=4, task_classes=2, seed=0)
    f = feature_graph(params.theta, [[0.5, -0.25, 1.0]])
    assert f[0, 1] == pytest.approx(0.10803988, abs=1e-8)
    assert f[0, 3] == pytest.approx(2.89719019, abs=1e-8)
    assert float(f.sum()) == pytest.approx(16.775754966077617, abs=1e-9)


def test_width_mismatch_rejected():
    theta = {"w1": np.eye(2), "b1": np.zeros((1, 2))}
    with pytest.raises(ContractViolationError, match="matmul shapes"):
        feature_graph(theta, [[1.0, 2.0, 3.0]])


def test_head_zero_logits_uniform():
    head = {"w": np.zeros((4, 3)), "b": np.zeros((1, 3))}
    probs = head_graph(head, np.ones((2, 4)))
    assert np.allclose(probs, 1.0 / 3.0)


def test_head_log2_logits():
    head = {"w": np.zeros((1, 3)), "b": np.array([[math.log(2.0), 0.0, 0.0]])}
    probs = head_graph(head, np.zeros((1, 1)))
    assert np.allclose(probs, [[0.5, 0.25, 0.25]], atol=1e-12)


def test_head_rows_stochastic():
    rng = rng_for(3, "test/head")
    head = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=(1, 4))}
    probs = head_graph(head, rng.normal(size=(10, 5)))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)


def test_param_groups_are_disjoint_objects():
    params = init_params(3, 4, 2, seed=1)
    ids = {id(v) for g in (params.theta, params.theta_g, params.theta_h) for v in g.values()}
    assert len(ids) == len(params.theta) + len(params.theta_g) + len(params.theta_h)


def pretrain_cfg(c2=4, spc=40, noise=0.1, seed=5):
    return ExperimentConfig(input_dim=4, pretrain_classes=c2, task_classes=2,
                            samples_per_class=spc, rotation=0.0, noise_scale=noise, seed=seed)


def test_group_gradients_fill_unreached_tensors_and_skip_unreached_groups():
    params = init_params(3, 4, 2, seed=1)
    tape = Tape()
    leaves = {g: model.leaves_for(tape, params.group(g)) for g in ("theta", "theta_g", "theta_h")}
    # reads theta_g's weight only: its bias and the other two groups are unreached
    loss = ad.mean(ad.matmul(np.ones((1, 32)), leaves["theta_g"]["w"]))
    grads = model.group_gradients(ad.backward(loss), leaves)
    assert set(grads) == {"theta_g"}
    assert grads["theta_g"].shape == params.theta_g.flat.shape
    views = params.theta_g.views(grads["theta_g"])
    assert np.array_equal(views["w"], np.full((32, 4), 0.25))
    assert np.array_equal(views["b"], np.zeros((1, 4)))


def test_pretraining_and_each_adaptation_step_make_one_descend_call(trainings, monkeypatch):
    calls = []

    def counting(params, states, rates, terms):
        calls.append(sorted(rates))
        return original(params, states, rates, terms)

    original, train_step = model.descend, trainer.train_step
    monkeypatch.setattr(model, "descend", counting)
    monkeypatch.setattr(trainer, "descend", counting)
    monkeypatch.setattr(trainer, "train_step", None)  # pretraining must not step through it
    task = make_pretrain_task(pretrain_cfg())
    params = pretrain(task, **PRETRAIN_ARGS)
    batches = PRETRAIN_ARGS["epochs"] * math.ceil(len(task.train.inputs) / 32)
    assert calls == [["theta", "theta_g"]] * batches

    calls.clear()
    rng = rng_for(2, "test/one_descend")
    x_s, x_t = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    prototype = rng.dirichlet(np.ones(4), size=2)
    cfg = ExperimentConfig()
    states = {g: SgdState() for g in ("theta", "theta_g", "theta_h")}
    for iteration in range(3):
        train_step(params, states, x_s, np.array([0, 1] * 3), x_t, prototype,
                   cfg, iteration, 10)
        assert calls == [["theta", "theta_g", "theta_h"]] * (iteration + 1)


# Pretraining's batch size, momentum and weight decay in these tests.
SGD_ARGS = dict(batch_size=32, momentum=0.9, weight_decay=5e-4)


def test_pretrain_separable_blobs_accuracy():
    task = make_pretrain_task(pretrain_cfg())
    params = pretrain(task, task_classes=2, epochs=20, lr=0.05, seed=5, **SGD_ARGS)
    assert heldout_accuracy(params, task) > 0.95


def test_pretrain_zero_epochs_chance_level():
    # diffuse clusters so an untrained head scores near chance rather than
    # quantising whole blobs into single classes
    task = make_pretrain_task(pretrain_cfg(noise=1.5))
    params = pretrain(task, task_classes=2, epochs=0, lr=0.05, seed=5, **SGD_ARGS)
    assert abs(heldout_accuracy(params, task) - 0.25) <= 0.15


PRETRAIN_ARGS = dict(task_classes=2, epochs=5, lr=0.05, seed=5, **SGD_ARGS)


@pytest.fixture
def trainings(monkeypatch):
    """Empties the pretraining memo and records each training that starts."""
    monkeypatch.setattr(model, "_pretrain_memo", None)
    started = []

    def counting_init(*args, **kwargs):
        started.append(args)
        return init_params(*args, **kwargs)

    monkeypatch.setattr(model, "init_params", counting_init)
    return started


def assert_same_bits(a, b):
    for group in ("theta", "theta_g", "theta_h"):
        assert a.group(group).keys() == b.group(group).keys()
        for name, value in a.group(group).items():
            assert value.shape == b.group(group)[name].shape
            assert value.tobytes() == b.group(group)[name].tobytes()


def test_pretrain_deterministic_and_head_untouched(trainings, monkeypatch):
    task = make_pretrain_task(pretrain_cfg())
    a = pretrain(task, **PRETRAIN_ARGS)
    monkeypatch.setattr(model, "_pretrain_memo", None)
    b = pretrain(task, **PRETRAIN_ARGS)
    assert len(trainings) == 2
    for group in ("theta", "theta_g", "theta_h"):
        for name in a.group(group):
            assert np.array_equal(a.group(group)[name], b.group(group)[name])
    fresh = init_params(4, 4, 2, seed=5)
    for name in fresh.theta_h:
        assert np.array_equal(a.theta_h[name], fresh.theta_h[name])


def test_pretrain_memo_hit_equals_fresh_training(trainings):
    first = pretrain(make_pretrain_task(pretrain_cfg()), **PRETRAIN_ARGS)
    # an equal task built anew: the memo compares content, not identity
    hit = pretrain(make_pretrain_task(pretrain_cfg()), **PRETRAIN_ARGS)
    assert len(trainings) == 1
    model._pretrain_memo = None
    fresh = pretrain(make_pretrain_task(pretrain_cfg()), **PRETRAIN_ARGS)
    assert len(trainings) == 2
    assert_same_bits(hit, fresh)
    assert_same_bits(first, fresh)


def test_pretrain_memo_survives_mutated_results(trainings):
    task = make_pretrain_task(pretrain_cfg())
    first = pretrain(task, **PRETRAIN_ARGS)
    reference = first.copy()
    first.theta["w1"] *= 2.0
    hit = pretrain(task, **PRETRAIN_ARGS)
    hit.theta_g["b"][...] = 7.0
    hit.theta_h.clear()
    hit.theta["extra"] = np.zeros((1, 1))
    stepped = pretrain(task, **PRETRAIN_ARGS)
    sgd_step([(stepped.theta, np.ones_like(stepped.theta.flat),
               SgdState(momentum=0.9, weight_decay=5e-4), 0.1)])
    assert_same_bits(pretrain(task, **PRETRAIN_ARGS), reference)
    assert len(trainings) == 1


def assert_named_tensors_view_the_flat_buffers(params):
    for group in ("theta", "theta_g", "theta_h"):
        tensors = params.group(group)
        before = {name: value.copy() for name, value in tensors.items()}
        assert sum(value.size for value in before.values()) == tensors.flat.size
        for value in tensors.values():
            assert np.shares_memory(value, tensors.flat)
        sgd_step([(tensors, np.ones_like(tensors.flat),
                   SgdState(momentum=0.0, weight_decay=0.0), 0.5)])
        for name, value in tensors.items():
            assert np.array_equal(value, before[name] - 0.5)


def test_named_tensors_view_the_flat_buffers(trainings):
    assert_named_tensors_view_the_flat_buffers(init_params(3, 5, 2, seed=11))
    assert_named_tensors_view_the_flat_buffers(init_params(3, 5, 2, seed=11).copy())
    task = make_pretrain_task(pretrain_cfg())
    pretrain(task, **PRETRAIN_ARGS)
    hit = pretrain(task, **PRETRAIN_ARGS)
    assert len(trainings) == 1
    assert_named_tensors_view_the_flat_buffers(hit)


def _train_variants(train):
    """The training split with one of the memo's key fields changed, by field."""
    inputs, labels = train.inputs.copy(), train.labels.copy()
    inputs[0, 0] += 1e-3
    labels[0] = (labels[0] + 1) % train.class_count
    return {
        "inputs": replace(train, inputs=inputs),
        "inputs_dtype": replace(train, inputs=train.inputs.astype(np.float32)),
        "labels": replace(train, labels=labels),
        "labels_dtype": replace(train, labels=train.labels.astype(np.int32)),
        "class_count": replace(train, class_count=train.class_count + 1),
    }


ARG_VARIANTS = dict(task_classes=3, epochs=4, lr=0.04, seed=6, batch_size=16, momentum=0.8,
                    weight_decay=1e-3)


@pytest.mark.parametrize("field", ["inputs", "inputs_dtype", "labels", "labels_dtype",
                                   "class_count", *ARG_VARIANTS])
def test_pretrain_memo_misses_when_any_key_field_changes(trainings, field):
    task = make_pretrain_task(pretrain_cfg())
    pretrain(task, **PRETRAIN_ARGS)
    if field in ARG_VARIANTS:
        pretrain(task, **dict(PRETRAIN_ARGS, **{field: ARG_VARIANTS[field]}))
    else:
        pretrain(replace(task, train=_train_variants(task.train)[field]), **PRETRAIN_ARGS)
    assert len(trainings) == 2
    # one entry only: the changed call replaced the first one
    pretrain(task, **PRETRAIN_ARGS)
    assert len(trainings) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_divergence_carries_epoch():
    task = make_pretrain_task(pretrain_cfg())
    with pytest.raises(TrainingDivergedError, match="epoch"):
        pretrain(task, task_classes=2, epochs=5, lr=1e308, seed=5, **SGD_ARGS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_divergence_is_never_stored(trainings):
    task = make_pretrain_task(pretrain_cfg())
    good = pretrain(task, **PRETRAIN_ARGS)
    for attempt in range(2):
        with pytest.raises(TrainingDivergedError, match="epoch"):
            pretrain(task, **dict(PRETRAIN_ARGS, lr=1e308))
        assert len(trainings) == 2 + attempt
    assert_same_bits(pretrain(task, **PRETRAIN_ARGS), good)
    assert len(trainings) == 3


def test_pretraining_step_records_one_node_per_layer(trainings, monkeypatch):
    recorded = []
    original_backward = ad.backward

    def counting_backward(output):
        recorded.append(len(output.tape.nodes))
        return original_backward(output)

    monkeypatch.setattr(ad, "backward", counting_backward)
    pretrain(make_pretrain_task(pretrain_cfg()), **PRETRAIN_ARGS)
    # 8 parameter leaves, 4 dense layers, 3 cross-entropy nodes; the input
    # batch is a detached array and records no node
    assert recorded and set(recorded) == {15}


def test_pretraining_and_prediction_tapes_freed_without_cycle_collector(trainings,
                                                                         monkeypatch):
    tapes = []

    class WatchedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(model, "Tape", WatchedTape)
    task = make_pretrain_task(pretrain_cfg())
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        params = pretrain(task, **PRETRAIN_ARGS)
        predict_proba(params, "pretrained", task.heldout.inputs)
        assert len(tapes) > 2
        assert all(tape() is None for tape in tapes)
    finally:
        if was_enabled:
            gc.enable()


def test_prototype_constant_rows():
    p = np.tile(np.array([[0.25, 0.5, 0.25]]), (4, 1))
    m = learn_prototype(p, np.zeros(4, dtype=int), task_classes=1)
    assert np.allclose(m, [[0.25, 0.5, 0.25]])


def test_prototype_symmetric_pair():
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = learn_prototype(p, np.zeros(2, dtype=int), task_classes=1)
    assert np.allclose(m, [[0.5, 0.5]])


def test_prototype_hand_mean():
    p = np.array([[0.7, 0.3], [0.5, 0.5]])
    m = learn_prototype(p, np.zeros(2, dtype=int), task_classes=1)
    assert np.allclose(m, [[0.6, 0.4]], atol=1e-12)


def test_prototype_rows_clamped_and_normalised():
    p = np.array([[1.0, 0.0], [1.0, 0.0]])
    m = learn_prototype(p, np.zeros(2, dtype=int), task_classes=1)
    assert np.all(m >= EPS)
    assert m.sum(axis=1) == pytest.approx([1.0])


def test_prototype_permutation_invariant():
    rng = rng_for(4, "test/proto")
    p = rng.dirichlet(np.ones(5), size=12)
    labels = np.array([0, 1, 2] * 4)
    m1 = learn_prototype(p, labels, 3)
    perm = rng.permutation(12)
    m2 = learn_prototype(p[perm], labels[perm], 3)
    assert np.array_equal(m1, m2)


def test_prototype_missing_class_names_it():
    p = np.array([[0.5, 0.5]])
    with pytest.raises(MissingClassError, match="class 1"):
        learn_prototype(p, np.array([0]), task_classes=2)


def test_split_even_counts():
    ds = small_labeled([0] * 10 + [1] * 10)
    proto, tr = split_source(ds, seed=0)
    for c in (0, 1):
        assert int(np.sum(proto.labels == c)) == 5
        assert int(np.sum(tr.labels == c)) == 5


def test_split_odd_extra_to_training():
    ds = small_labeled([0] * 7 + [1] * 4)
    proto, tr = split_source(ds, seed=0)
    assert int(np.sum(proto.labels == 0)) == 3
    assert int(np.sum(tr.labels == 0)) == 4


def test_split_deterministic():
    ds = small_labeled([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
    a = split_source(ds, seed=9)
    b = split_source(ds, seed=9)
    assert np.array_equal(a[0].inputs, b[0].inputs)
    assert np.array_equal(a[1].inputs, b[1].inputs)


def test_split_rejects_tiny_class():
    ds = small_labeled([0, 0, 1])
    with pytest.raises(ContractViolationError):
        split_source(ds, seed=0)


def test_predict_proba_heads_have_right_widths():
    params = init_params(3, 5, 2, seed=2)
    x = rng_for(0, "test/x").normal(size=(4, 3))
    assert predict_proba(params, "pretrained", x).shape == (4, 5)
    assert predict_proba(params, "task", x).shape == (4, 2)


@pytest.mark.parametrize("head", ["tsak", "Task", "theta_h", ""])
def test_predict_proba_rejects_unknown_head(head):
    # Not served silently by the pretrained head.
    params = init_params(3, 5, 2, seed=2)
    x = rng_for(0, "test/x").normal(size=(4, 3))
    with pytest.raises(ContractViolationError, match=repr(head)):
        predict_proba(params, head, x)
