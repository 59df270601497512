"""Three-part network: feature extractor, pretrained head, task head.

The feature extractor is a small dense relu stack (D -> 64 -> 64 -> 32); each
head is one dense layer followed by a row softmax. Parameters live in three
disjoint groups so the trainer can route gradients independently. Desk-scale
pretraining on the synthetic cluster task stands in for large-corpus
pretraining: it trains the extractor and the pretrained head, and never
touches the task head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import EPS, Tape, Tensor
from .data import DomainDataset, PretrainTask, UnlabeledDataset, accuracy, proxy_a_distance
from .errors import ContractViolationError, MissingClassError, TrainingDivergedError
from .optim import ParamGroup, SgdState, sgd_step
from .seeding import rng_for

HIDDEN_DIMS = (64, 64)
FEATURE_DIM = 32


@dataclass
class ParamGroups:
    """The three disjoint trainable parameter sets.

    Each group keeps its tensors in one flat vector (:class:`ParamGroup`).
    The named tensors are views of that vector: training updates the vector
    in place and never rebinds a view, so a reference to ``theta["w1"]``
    follows every step.
    """

    theta: ParamGroup
    theta_g: ParamGroup
    theta_h: ParamGroup

    def copy(self) -> "ParamGroups":
        return ParamGroups(self.theta.copy(), self.theta_g.copy(), self.theta_h.copy())

    def group(self, name: str) -> ParamGroup:
        if name not in ("theta", "theta_g", "theta_h"):
            raise ContractViolationError(f"unknown parameter group {name!r}")
        return getattr(self, name)


def _dense_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))


def init_params(input_dim: int, pretrain_classes: int, task_classes: int, seed: int) -> ParamGroups:
    """Deterministic He-style initialisation from named substreams of ``seed``."""
    dims = (input_dim, *HIDDEN_DIMS, FEATURE_DIM)
    rng = rng_for(seed, "init/theta")
    theta: dict[str, np.ndarray] = {}
    for i in range(len(dims) - 1):
        theta[f"w{i + 1}"] = _dense_init(rng, dims[i], dims[i + 1])
        theta[f"b{i + 1}"] = np.zeros((1, dims[i + 1]))
    rng_g = rng_for(seed, "init/theta_g")
    theta_g = {"w": _dense_init(rng_g, FEATURE_DIM, pretrain_classes),
               "b": np.zeros((1, pretrain_classes))}
    rng_h = rng_for(seed, "init/theta_h")
    theta_h = {"w": _dense_init(rng_h, FEATURE_DIM, task_classes),
               "b": np.zeros((1, task_classes))}
    return ParamGroups(ParamGroup(theta), ParamGroup(theta_g), ParamGroup(theta_h))


def feature_graph(theta: dict, x) -> Tensor | np.ndarray:
    """Forward through the extractor: relu(x W + b) per layer. ``x`` is a
    Tensor or, for an input batch, a detached array. On parameter leaves the
    result is taped; on the parameter arrays themselves it is a plain array."""
    n_layers = len(theta) // 2
    h = x
    for i in range(1, n_layers + 1):
        h = ad.dense(h, theta[f"w{i}"], theta[f"b{i}"], "relu")
    return h


def head_graph(head: dict, features) -> Tensor | np.ndarray:
    """Dense layer + row softmax, taped or plain as in :func:`feature_graph`;
    rows sum to 1."""
    return ad.dense(features, head["w"], head["b"], "row_softmax")


def leaves_for(tape: Tape, group: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: tape.leaf(value) for name, value in group.items()}


def group_gradients(grads: dict[Tensor, np.ndarray],
                    leaves: dict[str, dict[str, Tensor]]) -> dict[str, np.ndarray]:
    """A :func:`autodiff.backward` result as one flat gradient per group it reached,
    in the group's layout with zeros for the tensors it did not reach."""
    return {group: np.concatenate([ad.grad_or_zero(grads, leaf).ravel() for leaf in named.values()])
            for group, named in leaves.items() if any(leaf in grads for leaf in named.values())}


def descend(params: ParamGroups, states: dict[str, SgdState], rates: dict[str, float],
            terms: tuple[tuple[float, dict[str, np.ndarray]], ...]) -> None:
    """The one update path: step each group a ``(weight, group_gradients)`` term
    of nonzero weight reached by the sum of ``weight * g`` at ``rates[group]``, in
    one :func:`sgd_step`. Other groups are not stepped, so no decay moves them.
    A weight of 1.0 adds ``g`` itself: the product would equal it bit for bit."""
    total: dict[str, np.ndarray] = {}
    for weight, grads in terms:
        if weight != 0.0:
            for group, g in grads.items():
                term = g if weight == 1.0 else weight * g
                total[group] = total[group] + term if group in total else term
    sgd_step([(params.group(group), g, states[group], rates[group]) for group, g in total.items()])


def predict_proba(params: ParamGroups, head: str, x: np.ndarray) -> np.ndarray:
    """Probabilities of ``head`` ("task" or "pretrained") on raw inputs."""
    if head not in ("task", "pretrained"):
        raise ContractViolationError(f"unknown head {head!r}; expected 'task' or 'pretrained'")
    group = params.theta_h if head == "task" else params.theta_g
    return head_graph(group, feature_graph(params.theta, x))


# The last pretraining that finished in this process: (key, trained groups).
_pretrain_memo: tuple | None = None


def pretrain(task: PretrainTask, task_classes: int, epochs: int, lr: float, seed: int, *,
             batch_size: int, momentum: float, weight_decay: float) -> ParamGroups:
    """Train the extractor and pretrained head on the cluster task.

    Each batch is one backward pass and one :func:`descend` call, as in
    adaptation; the task head is never updated. Returns the trained groups;
    raises TrainingDivergedError (with the epoch index) on a non-finite loss.

    Training is a pure function of its inputs, so the last result is kept
    for the life of the process and a repeated call returns a copy of it
    instead of training again; the grid points of an ablation share one
    pretraining this way. The single entry is keyed by content: the bytes,
    shape and dtype of ``task.train.inputs`` and ``task.train.labels``,
    ``task.train.class_count`` and every other argument; a call with any
    other key trains and replaces it. Each call returns its own copy, so
    mutating a result never changes a later one. A call that raises stores
    nothing.
    """
    global _pretrain_memo
    x, y = task.train.inputs, task.train.labels
    c2 = task.train.class_count
    key = (x.tobytes(), x.shape, x.dtype.str, y.tobytes(), y.shape, y.dtype.str, c2,
           task_classes, epochs, lr, seed, batch_size, momentum, weight_decay)
    if _pretrain_memo is not None and _pretrain_memo[0] == key:
        return _pretrain_memo[1].copy()
    params = init_params(x.shape[1], c2, task_classes, seed)
    states = {group: SgdState(momentum=momentum, weight_decay=weight_decay)
              for group in ("theta", "theta_g")}
    rates = {group: lr for group in states}
    for epoch in range(epochs):
        perm = rng_for(seed, f"pretrain/shuffle/{epoch}").permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = perm[start:start + batch_size]
            tape = Tape()
            leaves = {group: leaves_for(tape, params.group(group)) for group in states}
            features = feature_graph(leaves["theta"], x[idx])
            loss = losses.classification_loss(head_graph(leaves["theta_g"], features), y[idx])
            if not np.isfinite(loss.item()):
                raise TrainingDivergedError(f"pretraining loss non-finite at epoch {epoch}")
            grads = group_gradients(ad.backward(loss), leaves)
            tape.nodes.clear()
            descend(params, states, rates, ((1.0, grads),))
    _pretrain_memo = (key, params.copy())
    return params


def heldout_accuracy(params: ParamGroups, task: PretrainTask) -> float:
    probs = predict_proba(params, "pretrained", task.heldout.inputs)
    return accuracy(np.argmax(probs, axis=1), task.heldout.labels)


def learn_prototype(p_g_val: np.ndarray, labels: np.ndarray, task_classes: int) -> np.ndarray:
    """Per-class mean of pretrained-head probabilities, clamped and renormalised.

    Row c is the center of the validation rows labeled c; rows are floored at
    EPS (they sit inside logs downstream) and rescaled to sum to 1. Column
    sums use exact accumulation so the result is independent of row order.
    """
    p = np.asarray(p_g_val, dtype=np.float64)
    labels = np.asarray(labels)
    rows = []
    for c in range(task_classes):
        mask = labels == c
        if not np.any(mask):
            raise MissingClassError(f"class {c} has no validation samples")
        block = p[mask]
        center = np.array([math.fsum(block[:, k]) for k in range(p.shape[1])]) / len(block)
        center = np.maximum(center, EPS)
        center = center / math.fsum(center)
        rows.append(np.maximum(center, EPS))
    return np.vstack(rows)


def split_source(dataset: DomainDataset, seed: int) -> tuple[DomainDataset, DomainDataset]:
    """Stratified 1:1 split into (prototype_half, training_half).

    Odd class counts put the extra sample in the training half. Deterministic
    given the seed.
    """
    if len(dataset) < 2 * dataset.class_count:
        raise ContractViolationError("need at least two samples per class to split")
    rng = rng_for(seed, "split/source")
    proto_idx, train_idx = [], []
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        if len(idx) < 2:
            raise ContractViolationError(f"class {c} has fewer than 2 samples")
        idx = idx[rng.permutation(len(idx))]
        half = len(idx) // 2
        proto_idx.append(idx[:half])
        train_idx.append(idx[half:])
    proto_idx = np.concatenate(proto_idx)
    train_idx = np.concatenate(train_idx)
    make = lambda rows: DomainDataset(dataset.inputs[rows], dataset.labels[rows],
                                      dataset.class_count)
    return make(proto_idx), make(train_idx)


def fig1_analog(params: ParamGroups, source: DomainDataset, target: UnlabeledDataset,
                seed: int) -> dict[str, float]:
    """Domain gap of the extractor output vs the pretrained head's probabilities.

    Both probes share the same seed so the two distances are comparable.
    """
    f_s = feature_graph(params.theta, source.inputs)
    f_t = feature_graph(params.theta, target.inputs)
    return {
        "feature_distance": proxy_a_distance(f_s, f_t, seed),
        "probability_distance": proxy_a_distance(head_graph(params.theta_g, f_s),
                                                 head_graph(params.theta_g, f_t), seed),
    }
