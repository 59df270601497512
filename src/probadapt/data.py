"""Synthetic pretrain / adaptation tasks, accuracy, and the domain-gap probe.

The generators read the generator keys of an :class:`ExperimentConfig`
(``seed`` and the ``generator.*`` keys) and nothing else, so two configs that
agree on those keys generate identical arrays. Gaussian class clusters with
unit-scale centers stand in for a large pretraining corpus, and the
adaptation pair reuses the first few pretrain clusters so the pretrained
head's probability space carries real class-relationship signal. The target
domain is the source distribution rotated in the first two input dims,
translated, and given fresh Gaussian noise. ``noise_scale`` doubles as the
within-class sampling std of every cluster, so a zero-noise, zero-rotation,
zero-translation config collapses both domains onto identical class centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError
from .seeding import rng_for

if TYPE_CHECKING:
    from .config import ExperimentConfig

# The fewest rows per domain the domain-gap probe accepts.
PROBE_MIN_SAMPLES = 10


def check_label_range(labels: np.ndarray, classes: int) -> None:
    """Refuse any label outside ``0 .. classes - 1``; an empty batch passes."""
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ContractViolationError("label out of range")


@dataclass(frozen=True)
class DomainDataset:
    """Labeled samples from one domain."""

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ContractViolationError("inputs and labels differ in length")
        if len(self.inputs) < 1:
            raise ContractViolationError("dataset is empty")
        check_label_range(self.labels, self.class_count)

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class UnlabeledDataset:
    """Training-facing view of a domain with no label accessor at all."""

    inputs: np.ndarray

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise ContractViolationError("dataset is empty")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class PretrainTask:
    """Disjoint train / held-out splits of the pretraining clusters."""

    train: DomainDataset
    heldout: DomainDataset


@dataclass(frozen=True)
class UdaPair:
    """Labeled source, unlabeled target, and the sealed evaluation labels.

    ``eval_labels`` exist only for scoring; nothing on the training path may
    read them (the unlabeled dataset type has no label field).
    """

    source: DomainDataset
    target: UnlabeledDataset
    eval_labels: np.ndarray


def _centers(cfg: ExperimentConfig) -> np.ndarray:
    rng = rng_for(cfg.seed, "data/centers")
    return rng.normal(0.0, 1.0, size=(cfg.pretrain_classes, cfg.input_dim))


def _sample_classes(centers: np.ndarray, classes: np.ndarray, per_class: int,
                    std: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for c in classes:
        noise = rng.normal(0.0, 1.0, size=(per_class, centers.shape[1]))
        xs.append(centers[c] + std * noise)
        ys.append(np.full(per_class, c, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def make_pretrain_task(cfg: ExperimentConfig) -> PretrainTask:
    """Gaussian clusters for all pretrain classes, split train / held-out.

    The train split holds ``samples_per_class`` per class; the held-out split
    holds ``ceil(samples_per_class / 5)`` per class, drawn independently.
    """
    centers = _centers(cfg)
    classes = np.arange(cfg.pretrain_classes)
    std = cfg.noise_scale
    x_tr, y_tr = _sample_classes(centers, classes, cfg.samples_per_class, std,
                                 rng_for(cfg.seed, "data/pretrain_train"))
    x_ho, y_ho = _sample_classes(centers, classes, math.ceil(cfg.samples_per_class / 5),
                                 std, rng_for(cfg.seed, "data/pretrain_heldout"))
    c2 = cfg.pretrain_classes
    return PretrainTask(
        train=DomainDataset(x_tr, y_tr, c2),
        heldout=DomainDataset(x_ho, y_ho, c2),
    )


def _apply_shift(x: np.ndarray, cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    out = x.copy()
    if cfg.rotation != 0.0:
        c, s = math.cos(cfg.rotation), math.sin(cfg.rotation)
        x0, x1 = out[:, 0].copy(), out[:, 1].copy()
        out[:, 0] = c * x0 - s * x1
        out[:, 1] = s * x0 + c * x1
    if cfg.translation:
        out = out + np.asarray(cfg.translation, dtype=np.float64)
    if cfg.noise_scale > 0:
        out = out + cfg.noise_scale * rng.normal(0.0, 1.0, size=out.shape)
    return out


def make_uda_pair(cfg: ExperimentConfig) -> UdaPair:
    """Labeled source plus shifted unlabeled target over the first task classes.

    The target holds the first ``target_class_count`` classes, or all of
    them when it is None (partial-set adaptation).
    """
    centers = _centers(cfg)
    std = cfg.noise_scale
    src_classes = np.arange(cfg.task_classes)
    x_s, y_s = _sample_classes(centers, src_classes, cfg.samples_per_class, std,
                               rng_for(cfg.seed, "data/source"))
    tgt_classes = np.arange(cfg.target_class_count or cfg.task_classes)
    x_t, y_t = _sample_classes(centers, tgt_classes, cfg.samples_per_class, std,
                               rng_for(cfg.seed, "data/target"))
    x_t = _apply_shift(x_t, cfg, rng_for(cfg.seed, "data/target_noise"))
    return UdaPair(
        source=DomainDataset(x_s, y_s, cfg.task_classes),
        target=UnlabeledDataset(x_t),
        eval_labels=y_t,
    )


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of positions where prediction equals label."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ContractViolationError(
            f"predictions {predictions.shape} and labels {labels.shape} differ in length")
    return float(np.mean(predictions == labels))


def _standardize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = train.mean(axis=0, keepdims=True)
    sd = train.std(axis=0, keepdims=True)
    sd = np.where(sd < 1e-9, 1.0, sd)
    return (train - mu) / sd, (test - mu) / sd


def _logistic_probe_error(x_tr, y_tr, x_te, y_te) -> float:
    """Held-out error of a zero-initialised full-batch logistic regression:
    300 steps at rate 0.5, L2 weight 1e-3 and momentum 0.9.

    Zero init plus full-batch gradient descent makes the probe exactly
    symmetric under a global label swap, which keeps the distance symmetric
    in its two domain arguments.
    """
    x_tr, x_te = _standardize(x_tr, x_te)
    n, d = x_tr.shape
    w = np.zeros((d, 1))
    b = 0.0
    vw = np.zeros_like(w)
    vb = 0.0
    y = y_tr.reshape(-1, 1)
    lr, l2, momentum = 0.5, 1e-3, 0.9
    for _ in range(300):
        p = 1.0 / (1.0 + np.exp(-(x_tr @ w + b)))
        err = p - y
        gw = x_tr.T @ err / n + l2 * w
        gb = float(err.mean())
        vw = momentum * vw + gw
        vb = momentum * vb + gb
        w = w - lr * vw
        b = b - lr * vb
    pred = (x_te @ w + b > 0.0).astype(np.int64).ravel()
    return float(np.mean(pred != y_te))


def proxy_a_distance(space_s: np.ndarray, space_t: np.ndarray, seed: int) -> float:
    """Domain gap 2*(1 - 2*eps), eps the held-out error of a linear domain probe.

    Each domain is shuffled with its own named substream of ``seed`` and split
    50/50; the probe trains on the first halves and is scored on the second.
    The result is clamped to [0, 2].
    """
    space_s = np.asarray(space_s, dtype=np.float64)
    space_t = np.asarray(space_t, dtype=np.float64)
    if space_s.shape[1] != space_t.shape[1]:
        raise ContractViolationError("domain matrices must share a width")
    if len(space_s) < PROBE_MIN_SAMPLES or len(space_t) < PROBE_MIN_SAMPLES:
        raise ContractViolationError(f"need at least {PROBE_MIN_SAMPLES} samples per domain")

    def halves(x):
        # keyed by size, not argument position, so swapping the two domains
        # produces the same per-domain splits
        perm = rng_for(seed, f"probe/split/{len(x)}").permutation(len(x))
        cut = len(x) // 2
        return x[perm[:cut]], x[perm[cut:]]

    s_tr, s_te = halves(space_s)
    t_tr, t_te = halves(space_t)
    x_tr = np.vstack([s_tr, t_tr])
    y_tr = np.concatenate([np.zeros(len(s_tr), dtype=np.int64),
                           np.ones(len(t_tr), dtype=np.int64)])
    x_te = np.vstack([s_te, t_te])
    y_te = np.concatenate([np.zeros(len(s_te), dtype=np.int64),
                           np.ones(len(t_te), dtype=np.int64)])
    eps = _logistic_probe_error(x_tr, y_tr, x_te, y_te)
    return float(np.clip(2.0 * (1.0 - 2.0 * eps), 0.0, 2.0))

