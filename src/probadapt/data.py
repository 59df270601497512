"""Synthetic pretrain / adaptation tasks, accuracy, and the domain-gap probe.

The generators are pure functions of (spec, seed): Gaussian class clusters
with unit-scale centers stand in for a large pretraining corpus, and the
adaptation pair reuses the first few pretrain clusters so the pretrained
head's probability space carries real class-relationship signal. The target
domain is the source distribution pushed through a rotation plus translation,
with fresh Gaussian noise added on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .seeding import rng_for


@dataclass(frozen=True)
class Shift:
    """Target-domain shift: rotate in the first two input dims, translate, add noise.

    ``noise_scale`` doubles as the within-class sampling std of every cluster,
    so a zero-noise, zero-rotation, zero-translation shift collapses both
    domains onto identical class centers.
    """

    rotation: float = 0.0
    translation: tuple[float, ...] = ()
    noise_scale: float = 0.32


@dataclass(frozen=True)
class GeneratorSpec:
    input_dim: int = 6
    pretrain_classes: int = 16
    task_classes: int = 4
    samples_per_class: int = 50
    shift: Shift = field(default_factory=Shift)
    seed: int = 0
    # When set, the target domain only contains the first N task classes
    # (partial-set adaptation fixtures). None means all task classes.
    target_class_count: int | None = None

    def __post_init__(self):
        if self.task_classes > self.pretrain_classes:
            raise ContractViolationError("task_classes must not exceed pretrain_classes")
        if self.input_dim < 2:
            raise ContractViolationError("input_dim must be at least 2 (rotation plane)")
        if self.shift.noise_scale < 0:
            raise ContractViolationError("noise_scale must be non-negative")
        if self.samples_per_class < 1:
            raise ContractViolationError("samples_per_class must be positive")
        if self.target_class_count is not None and not (
                1 <= self.target_class_count <= self.task_classes):
            raise ContractViolationError("target_class_count out of range")
        if self.shift.translation and len(self.shift.translation) != self.input_dim:
            raise ContractViolationError("translation length must equal input_dim")


@dataclass(frozen=True)
class DomainDataset:
    """Labeled samples from one domain."""

    inputs: np.ndarray
    labels: np.ndarray
    domain_tag: str
    class_count: int

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ContractViolationError("inputs and labels differ in length")
        if len(self.inputs) < 1:
            raise ContractViolationError("dataset is empty")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ContractViolationError("label out of range")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class UnlabeledDataset:
    """Training-facing view of a domain with no label accessor at all."""

    inputs: np.ndarray
    domain_tag: str
    class_count: int

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


def _centers(spec: GeneratorSpec) -> np.ndarray:
    rng = rng_for(spec.seed, "data/centers")
    return rng.normal(0.0, 1.0, size=(spec.pretrain_classes, spec.input_dim))


def _sample_classes(centers: np.ndarray, classes: np.ndarray, per_class: int,
                    std: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for c in classes:
        noise = rng.normal(0.0, 1.0, size=(per_class, centers.shape[1]))
        xs.append(centers[c] + std * noise)
        ys.append(np.full(per_class, c, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def make_pretrain_task(spec: GeneratorSpec) -> PretrainTask:
    """Gaussian clusters for all pretrain classes, split train / held-out.

    The train split holds ``samples_per_class`` per class; the held-out split
    holds ``ceil(samples_per_class / 5)`` per class, drawn independently.
    """
    centers = _centers(spec)
    classes = np.arange(spec.pretrain_classes)
    std = spec.shift.noise_scale
    x_tr, y_tr = _sample_classes(centers, classes, spec.samples_per_class, std,
                                 rng_for(spec.seed, "data/pretrain_train"))
    x_ho, y_ho = _sample_classes(centers, classes, max(1, math.ceil(spec.samples_per_class / 5)),
                                 std, rng_for(spec.seed, "data/pretrain_heldout"))
    c2 = spec.pretrain_classes
    return PretrainTask(
        train=DomainDataset(x_tr, y_tr, "pretrain", c2),
        heldout=DomainDataset(x_ho, y_ho, "pretrain", c2),
    )


def _apply_shift(x: np.ndarray, shift: Shift, rng: np.random.Generator) -> np.ndarray:
    out = x.copy()
    if shift.rotation != 0.0:
        c, s = math.cos(shift.rotation), math.sin(shift.rotation)
        x0, x1 = out[:, 0].copy(), out[:, 1].copy()
        out[:, 0] = c * x0 - s * x1
        out[:, 1] = s * x0 + c * x1
    if shift.translation:
        out = out + np.asarray(shift.translation, dtype=np.float64)
    if shift.noise_scale > 0:
        out = out + shift.noise_scale * rng.normal(0.0, 1.0, size=out.shape)
    return out


def make_uda_pair(spec: GeneratorSpec) -> UdaPair:
    """Labeled source plus shifted unlabeled target over the first task classes."""
    centers = _centers(spec)
    std = spec.shift.noise_scale
    src_classes = np.arange(spec.task_classes)
    x_s, y_s = _sample_classes(centers, src_classes, spec.samples_per_class, std,
                               rng_for(spec.seed, "data/source"))
    tgt_count = spec.target_class_count if spec.target_class_count is not None else spec.task_classes
    tgt_classes = np.arange(tgt_count)
    x_t, y_t = _sample_classes(centers, tgt_classes, spec.samples_per_class, std,
                               rng_for(spec.seed, "data/target"))
    x_t = _apply_shift(x_t, spec.shift, rng_for(spec.seed, "data/target_noise"))
    return UdaPair(
        source=DomainDataset(x_s, y_s, "source", spec.task_classes),
        target=UnlabeledDataset(x_t, "target", spec.task_classes),
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


def _logistic_probe_error(x_tr, y_tr, x_te, y_te, steps: int = 300, lr: float = 0.5,
                          l2: float = 1e-3, momentum: float = 0.9) -> float:
    """Held-out error of a zero-initialised full-batch logistic regression.

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
    for _ in range(steps):
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
    if len(space_s) < 10 or len(space_t) < 10:
        raise ContractViolationError("need at least 10 samples per domain")

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

