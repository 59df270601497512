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
from .autodiff import EPS, Tape, Tensor
from .data import DomainDataset, PretrainTask, UnlabeledDataset, accuracy, proxy_a_distance
from .errors import ContractViolationError, MissingClassError, TrainingDivergedError
from .optim import SgdState, sgd_step
from .seeding import rng_for

HIDDEN_DIMS = (64, 64)
FEATURE_DIM = 32


@dataclass
class ParamGroups:
    """The three disjoint trainable parameter sets."""

    theta: dict[str, np.ndarray]
    theta_g: dict[str, np.ndarray]
    theta_h: dict[str, np.ndarray]

    def copy(self) -> "ParamGroups":
        return ParamGroups(
            {k: v.copy() for k, v in self.theta.items()},
            {k: v.copy() for k, v in self.theta_g.items()},
            {k: v.copy() for k, v in self.theta_h.items()},
        )

    def group(self, name: str) -> dict[str, np.ndarray]:
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
    return ParamGroups(theta, theta_g, theta_h)


def feature_graph(theta: dict[str, Tensor], x: Tensor) -> Tensor:
    """Taped forward through the extractor: relu(x W + b) per layer."""
    n_layers = len(theta) // 2
    h = x
    for i in range(1, n_layers + 1):
        h = ad.relu(ad.add(ad.matmul(h, theta[f"w{i}"]), theta[f"b{i}"]))
    return h


def head_graph(head: dict[str, Tensor], features: Tensor) -> Tensor:
    """Taped dense layer + row softmax."""
    return ad.row_softmax(ad.add(ad.matmul(features, head["w"]), head["b"]))


def leaves_for(tape: Tape, group: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: tape.leaf(value) for name, value in group.items()}


def feature_extract(theta: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Plain-value feature extraction (throwaway tape)."""
    x = np.asarray(x, dtype=np.float64)
    expected = next(iter(theta.values())).shape[0]
    if x.shape[1] != expected:
        raise ContractViolationError(f"input width {x.shape[1]} != extractor width {expected}")
    tape = Tape()
    features = feature_graph(leaves_for(tape, theta), tape.leaf(x)).value
    tape.nodes.clear()
    return features


def head_forward(head: dict[str, np.ndarray], features: np.ndarray) -> np.ndarray:
    """Plain-value head probabilities; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != head["w"].shape[0]:
        raise ContractViolationError(
            f"feature width {features.shape[1]} != head width {head['w'].shape[0]}")
    tape = Tape()
    probs = head_graph(leaves_for(tape, head), tape.leaf(features)).value
    tape.nodes.clear()
    return probs


def predict_proba(params: ParamGroups, head: str, x: np.ndarray) -> np.ndarray:
    """Probabilities of ``head`` ("task" or "pretrained") on raw inputs."""
    feats = feature_extract(params.theta, x)
    group = params.theta_h if head == "task" else params.theta_g
    return head_forward(group, feats)


# The last pretraining that finished in this process: (key, trained groups).
_pretrain_memo: tuple | None = None


def pretrain(task: PretrainTask, task_classes: int, epochs: int, lr: float, seed: int,
             batch_size: int = 32, momentum: float = 0.9, weight_decay: float = 5e-4,
             ) -> ParamGroups:
    """Train the extractor and pretrained head on the cluster task.

    The task head is freshly initialised and never updated here. Returns the
    trained parameter groups; raises TrainingDivergedError (with the epoch
    index) if the loss goes non-finite.

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
    for epoch in range(epochs):
        perm = rng_for(seed, f"pretrain/shuffle/{epoch}").permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = perm[start:start + batch_size]
            tape = Tape()
            theta_leaves = leaves_for(tape, params.theta)
            g_leaves = leaves_for(tape, params.theta_g)
            probs = head_graph(g_leaves, feature_graph(theta_leaves, tape.leaf(x[idx])))
            targets = np.zeros((len(idx), c2))
            targets[np.arange(len(idx)), y[idx]] = 1.0
            ce_rows = ad.row_sum(ad.mul(tape.constant(targets), ad.log(ad.clamp_floor(probs))))
            loss = ad.scalar_affine(ad.mean(ce_rows), -1.0, 0.0)
            if not np.isfinite(loss.item()):
                raise TrainingDivergedError(f"pretraining loss non-finite at epoch {epoch}")
            grads = ad.backward(loss)
            tape.nodes.clear()
            for group, leaves in (("theta", theta_leaves), ("theta_g", g_leaves)):
                gdict = {name: ad.grad_or_zero(grads, leaf) for name, leaf in leaves.items()}
                sgd_step(params.group(group), gdict, states[group], lr)
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
                                      dataset.domain_tag, dataset.class_count)
    return make(proto_idx), make(train_idx)


def fig1_analog(params: ParamGroups, source: DomainDataset, target: UnlabeledDataset,
                seed: int) -> dict[str, float]:
    """Domain gap of the extractor output vs the pretrained head's probabilities.

    Both probes share the same seed so the two distances are comparable.
    """
    f_s = feature_extract(params.theta, source.inputs)
    f_t = feature_extract(params.theta, target.inputs)
    return {
        "feature_distance": proxy_a_distance(f_s, f_t, seed),
        "probability_distance": proxy_a_distance(head_forward(params.theta_g, f_s),
                                                 head_forward(params.theta_g, f_t), seed),
    }


CHECKPOINT_MAGIC = "probadapt-params v1"


def save_checkpoint(params: ParamGroups, path) -> None:
    """Text checkpoint: magic line, then per tensor a header and row lines.

    Header: ``tensor <group> <name> <rows> <cols>`` with group in
    {theta, theta_g, theta_h}; each row is space-separated float reprs
    (exact float64 round-trip).
    """
    lines = [CHECKPOINT_MAGIC]
    for group in ("theta", "theta_g", "theta_h"):
        for name, arr in params.group(group).items():
            lines.append(f"tensor {group} {name} {arr.shape[0]} {arr.shape[1]}")
            for row in arr:
                lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> ParamGroups:
    """Read a :func:`save_checkpoint` file back, exactly.

    Raises ContractViolationError on a malformed file and on a parameter set
    with a missing or unexpected tensor or a shape the model cannot use.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ContractViolationError(f"not a parameter checkpoint: {path}")
    groups: dict[str, dict[str, np.ndarray]] = {"theta": {}, "theta_g": {}, "theta_h": {}}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        parts = lines[i].split()
        if parts[0] != "tensor" or len(parts) != 5:
            raise ContractViolationError(f"bad tensor header at line {i + 1}")
        _, group, name, rows, cols = parts
        if group not in groups:
            raise ContractViolationError(f"unknown group {group!r} at line {i + 1}")
        rows, cols = int(rows), int(cols)
        arr = np.empty((rows, cols))
        for r in range(rows):
            vals = lines[i + 1 + r].split()
            if len(vals) != cols:
                raise ContractViolationError(f"bad row width at line {i + 2 + r}")
            arr[r] = [float(v) for v in vals]
        groups[group][name] = arr
        i += 1 + rows
    _check_checkpoint_shapes(groups)
    return ParamGroups(groups["theta"], groups["theta_g"], groups["theta_h"])


def _check_checkpoint_shapes(groups: dict[str, dict[str, np.ndarray]]) -> None:
    """Reject a parameter set :func:`init_params` could not have produced.

    Every tensor must be present and no other; each bias is 1 x fan_out; the
    extractor's widths chain into FEATURE_DIM; both heads take FEATURE_DIM
    inputs. Errors name the offending tensor as ``<group>.<name>``.
    """
    n_layers = len(HIDDEN_DIMS) + 1
    layers = [("theta", f"w{i}", f"b{i}") for i in range(1, n_layers + 1)]
    layers += [("theta_g", "w", "b"), ("theta_h", "w", "b")]
    for group, tensors in groups.items():
        expected = {name for grp, w, b in layers if grp == group for name in (w, b)}
        missing, extra = sorted(expected - set(tensors)), sorted(set(tensors) - expected)
        if missing:
            raise ContractViolationError(f"checkpoint lacks tensor {group}.{missing[0]}")
        if extra:
            raise ContractViolationError(f"checkpoint has unexpected tensor {group}.{extra[0]}")
    width = None
    for group, w_name, b_name in layers:
        w, b = groups[group][w_name], groups[group][b_name]
        fan_in = width if group == "theta" else FEATURE_DIM
        if fan_in is not None and w.shape[0] != fan_in:
            raise ContractViolationError(
                f"checkpoint tensor {group}.{w_name} takes {w.shape[0]} inputs, expected {fan_in}")
        if b.shape != (1, w.shape[1]):
            raise ContractViolationError(
                f"checkpoint tensor {group}.{b_name} has shape {b.shape}, "
                f"expected (1, {w.shape[1]})")
        if group == "theta":
            width = w.shape[1]
            if w_name == f"w{n_layers}" and width != FEATURE_DIM:
                raise ContractViolationError(
                    f"checkpoint tensor theta.{w_name} outputs {width} features, "
                    f"expected {FEATURE_DIM}")
