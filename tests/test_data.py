import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from probadapt.config import ExperimentConfig
from probadapt.data import accuracy, make_pretrain_task, make_uda_pair, proxy_a_distance
from probadapt.errors import ContractViolationError
from probadapt.seeding import rng_for


def small_cfg(**kw):
    base = dict(input_dim=4, pretrain_classes=6, task_classes=3, samples_per_class=20,
                rotation=math.pi / 6, noise_scale=0.25, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def generated_digest(cfg):
    """sha256 of the bytes of every array both generators return, in a fixed order."""
    task, pair = make_pretrain_task(cfg), make_uda_pair(cfg)
    digest = hashlib.sha256()
    for array in (task.train.inputs, task.train.labels, task.heldout.inputs, task.heldout.labels,
                  pair.source.inputs, pair.source.labels, pair.target.inputs, pair.eval_labels):
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("cfg, expected", [
    (ExperimentConfig(), "06af90683aa21337"),
    (replace(ExperimentConfig(), seed=3, rotation=0.5, translation=(0.5,) * 6,
             noise_scale=0.45, target_class_count=2), "00520a553777ccfc"),
])
def test_generated_arrays_are_pinned(cfg, expected):
    # The digest of every generated array's bytes: a change to an RNG label
    # or to the order of the draws moves it.
    assert generated_digest(cfg) == expected


def test_generators_ignore_non_generator_keys():
    # The pretrain memo, and with it a grid's single pretraining, relies on
    # this: only seed and the generator keys shape the data.
    base = ExperimentConfig()
    other = replace(base, mode="pda", eta0=0.02, epochs=3, batch_size=64, lambda3_a=0.0,
                    outputs="elsewhere", pretrain_epochs=2)
    assert generated_digest(other) == generated_digest(base)


def test_pretrain_task_counts():
    task = make_pretrain_task(small_cfg(pretrain_classes=8, samples_per_class=100))
    assert len(task.train) == 800
    assert task.train.class_count == 8
    assert len(task.heldout) == 8 * 20


def test_pretrain_zero_noise_collapses_to_centers():
    task = make_pretrain_task(small_cfg(rotation=0.0, noise_scale=0.0))
    for c in range(task.train.class_count):
        block = task.train.inputs[task.train.labels == c]
        assert np.all(block == block[0])


def test_generators_deterministic():
    a = make_pretrain_task(small_cfg())
    b = make_pretrain_task(small_cfg())
    assert np.array_equal(a.train.inputs, b.train.inputs)
    pa = make_uda_pair(small_cfg())
    pb = make_uda_pair(small_cfg())
    assert np.array_equal(pa.source.inputs, pb.source.inputs)
    assert np.array_equal(pa.target.inputs, pb.target.inputs)
    assert np.array_equal(pa.eval_labels, pb.eval_labels)


def test_uda_pair_uses_first_task_classes():
    pair = make_uda_pair(small_cfg())
    assert pair.source.class_count == 3
    assert set(np.unique(pair.source.labels)) == {0, 1, 2}
    assert set(np.unique(pair.eval_labels)) == {0, 1, 2}


def test_uda_pair_zero_shift_same_distribution():
    pair = make_uda_pair(small_cfg(rotation=0.0, noise_scale=0.0))
    # both domains collapse onto identical per-class centers
    for c in range(3):
        src = pair.source.inputs[pair.source.labels == c][0]
        tgt = pair.target.inputs[pair.eval_labels == c][0]
        assert np.allclose(src, tgt)


def test_uda_pair_target_subset_for_partial_set():
    pair = make_uda_pair(small_cfg(target_class_count=2))
    assert set(np.unique(pair.eval_labels)) == {0, 1}
    assert pair.source.class_count == 3


def test_rotation_moves_target():
    base = make_uda_pair(small_cfg(rotation=0.0, noise_scale=0.0))
    rot = make_uda_pair(small_cfg(rotation=math.pi / 4, noise_scale=0.0))
    assert not np.allclose(base.target.inputs, rot.target.inputs)
    # rotation preserves norms in the rotated plane
    n0 = np.linalg.norm(base.target.inputs[:, :2], axis=1)
    n1 = np.linalg.norm(rot.target.inputs[:, :2], axis=1)
    assert np.allclose(n0, n1)


def test_accuracy_examples():
    assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0
    assert accuracy(np.array([1, 1]), np.array([2, 2])) == 0.0
    assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)
    with pytest.raises(ContractViolationError):
        accuracy(np.array([1]), np.array([1, 2]))


def test_proxy_distance_identical_distribution_near_zero():
    rng = rng_for(5, "test/pad")
    x = rng.normal(size=(400, 6))
    d = proxy_a_distance(x[:200], x[200:], seed=0)
    assert d < 0.25


def test_proxy_distance_shuffled_rows_small():
    rng = rng_for(6, "test/pad2")
    x = rng.normal(size=(240, 5))
    shuffled = x[rng.permutation(len(x))]
    assert proxy_a_distance(x, shuffled, seed=1) < 0.25


def test_proxy_distance_separated_clusters_near_two():
    rng = rng_for(7, "test/pad3")
    a = rng.normal(size=(100, 4))
    b = rng.normal(size=(100, 4)) + 25.0
    assert proxy_a_distance(a, b, seed=2) > 1.9


def test_proxy_distance_symmetric_under_swap():
    rng = rng_for(8, "test/pad4")
    a = rng.normal(size=(60, 3))
    b = rng.normal(size=(60, 3)) + 0.7
    assert proxy_a_distance(a, b, seed=3) == proxy_a_distance(b, a, seed=3)


def test_proxy_distance_contracts():
    rng = rng_for(9, "test/pad5")
    with pytest.raises(ContractViolationError):
        proxy_a_distance(rng.normal(size=(5, 3)), rng.normal(size=(50, 3)), seed=0)
    with pytest.raises(ContractViolationError):
        proxy_a_distance(rng.normal(size=(50, 3)), rng.normal(size=(50, 4)), seed=0)


def test_fig1_analog_zero_shift_distances_near_zero():
    from probadapt.model import fig1_analog, pretrain

    # an all-zero shift makes the domains identical in distribution
    cfg = small_cfg(rotation=0.0, noise_scale=0.0, samples_per_class=30)
    task = make_pretrain_task(cfg)
    params = pretrain(task, replace(cfg, pretrain_epochs=6, batch_size=32))
    pair = make_uda_pair(cfg)
    d = fig1_analog(params, pair.source, pair.target, cfg.seed)
    assert d["feature_distance"] < 0.2
    assert d["probability_distance"] < 0.2
