"""Adaptation training loop: three-group updates, schedules, and the
partial-set extension.

Each step computes three losses on one tape and backpropagates them
separately, each into one flat gradient per group it reached. A loss whose
amplitude (``lambda1``, ``lambda2_a`` or ``lambda3_a``) is zero weighs zero at
every step, so it is not backpropagated and reaches no group; its value is
still checked and reported. The graph alone decides which parameter groups
each loss reaches:

* extractor        <- classification + alignment (and the target penalty
                      only when ``cgi_updates_backbone`` is set)
* pretrained head  <- alignment only
* task head        <- classification + target penalty, at 10x the base rate

The task head reads detached target features unless ``cgi_updates_backbone``
is set, and the alignment coefficients and the penalty's transformed
probabilities, calibration factors and pseudo-label weights are computed from
detached values, so the penalty cannot touch the pretrained head and
alignment cannot touch the task head. :func:`model.descend`, pretraining's
update path too, sums the weighted gradients per group and steps the reached
groups; a group every reaching loss weighs at exactly zero is not stepped.

Every setting is read from the one :class:`config.ExperimentConfig`, already
validated when it was built: the annealed rate and the lambda ramps, the
step's label smoothing and beta and penalty variants, and partial-set
masking, which is on exactly when ``mode`` is ``pda``, at ``pda_threshold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tape
from .config import ExperimentConfig
from .data import UdaPair, UnlabeledDataset, accuracy
from .errors import ContractViolationError, EmptyPartialSetError, TrainingDivergedError
from .model import (ParamGroups, descend, feature_graph, group_gradients, head_graph,
                    learn_prototype, leaves_for, predict_proba, split_source)
from .optim import SgdState
from .seeding import rng_for


@dataclass
class EpochRecord:
    epoch: int
    target_acc: float
    l_cls: float
    l_cpa: float
    l_cgi: float
    lambda2: float
    lambda3: float
    eta: float


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    final_target_accuracy: float = 0.0
    # Final task-head predictions on the target: rows per class, and how many
    # classes the final partial-set mask keeps (all of them without one).
    final_prediction_counts: tuple[int, ...] = ()
    final_admissible_classes: int = 0


def lr_schedule(eta0: float, tau: float, upsilon: float, rho: float) -> float:
    """Annealed rate eta0 / (1 + tau * rho)^upsilon; rho is the iteration index."""
    if rho < 0:
        raise ContractViolationError("rho must be non-negative")
    return eta0 / (1.0 + tau * rho) ** upsilon


def lambda_schedule(a: float, delta: float, rho: float) -> float:
    """Loss-weight ramp over normalised progress rho in [0, 1].

    The logistic ramp a * (2 / (1 + exp(-delta * rho)) - 1) starts at 0 and
    saturates at a.
    """
    if not (0.0 <= rho <= 1.0):
        raise ContractViolationError("rho must lie in [0, 1]")
    return a * (2.0 / (1.0 + math.exp(-delta * rho)) - 1.0)


@dataclass
class StepComputation:
    """Losses and ``grads[loss][group]``, each loss's :func:`model.group_gradients`;
    a loss with a zero amplitude is not backpropagated, and its entry is ``{}``."""

    losses: dict[str, float]
    grads: dict[str, dict[str, np.ndarray]]


def step_losses_and_grads(params: ParamGroups, x_s: np.ndarray, y_s: np.ndarray,
                          x_t: np.ndarray, prototype: np.ndarray, config: ExperimentConfig,
                          class_mask: np.ndarray | None = None) -> StepComputation:
    """Forward all heads once and backpropagate each loss of nonzero amplitude
    separately.

    ``class_mask`` is the partial-set 0/1 class row; when given it multiplies
    the task head's target probabilities before every consumer (pseudo-label
    weights, calibration factors, the penalty itself).
    """
    tape = Tape()
    leaves = {g: leaves_for(tape, params.group(g)) for g in ("theta", "theta_g", "theta_h")}
    theta_leaves, g_leaves, h_leaves = leaves.values()

    f_s = feature_graph(theta_leaves, x_s)
    f_t = feature_graph(theta_leaves, x_t)
    p_h_s = head_graph(h_leaves, f_s)
    p_g_s = head_graph(g_leaves, f_s)
    p_g_t = head_graph(g_leaves, f_t)
    # The penalty reaches the extractor only when explicitly enabled; by
    # default the task head sees detached target features.
    f_t_for_h = f_t if config.cgi_updates_backbone else f_t.value
    p_h_t = head_graph(h_leaves, f_t_for_h)
    if class_mask is not None:
        p_h_t = ad.mul(p_h_t, class_mask.reshape(1, -1))

    p_h_t_val = p_h_t.value
    alpha_st = losses.calibration_matrix(y_s, p_h_t_val, p_h_s.shape[1])

    l_cls = losses.classification_loss(p_h_s, y_s, smoothing=config.label_smoothing)
    l_cpa = losses.cpa_loss(p_g_s, p_g_t, alpha_st, y_s, prototype)
    state = losses.cgi_state(p_h_t_val, p_g_t.value, prototype, config.beta_variant)
    l_cgi = losses.target_penalty_loss(p_h_t, state, config.penalty_variant)

    values = {"cls": l_cls.item(), "cpa": l_cpa.item(), "cgi": l_cgi.item()}
    for name, val in values.items():
        if not np.isfinite(val):
            raise TrainingDivergedError(f"loss {name} became non-finite")

    # A loss whose amplitude is zero has weight zero at every step, which
    # descend drops, so it is not backpropagated: it reaches no group.
    grads = {name: group_gradients(ad.backward(node), leaves) if amplitude != 0.0 else {}
             for name, node, amplitude in (("cls", l_cls, config.lambda1),
                                           ("cpa", l_cpa, config.lambda2_a),
                                           ("cgi", l_cgi, config.lambda3_a))}
    tape.nodes.clear()
    return StepComputation(losses=values, grads=grads)


def train_step(params: ParamGroups, opt_states: dict[str, SgdState],
               x_s: np.ndarray, y_s: np.ndarray, x_t: np.ndarray,
               prototype: np.ndarray, config: ExperimentConfig,
               iteration: int, total_iterations: int,
               class_mask: np.ndarray | None = None) -> dict[str, float]:
    """One coupled update of all three groups; returns the loss record.

    One :func:`model.descend` call weighs the losses' group gradients by
    lambda1..3 and steps the task head at ``head_lr_multiplier`` times the
    rate; a non-finite gradient in any group leaves all three unchanged. A
    loss with a zero amplitude is not backpropagated (its ``grads`` entry is
    ``{}``), so it steps no group, as its zero weight would ensure anyway.
    """
    eta = lr_schedule(config.eta0, config.tau, config.upsilon, iteration)
    progress = iteration / max(1, total_iterations)
    lambda2 = lambda_schedule(config.lambda2_a, config.delta, progress)
    lambda3 = lambda_schedule(config.lambda3_a, config.delta, progress)
    comp = step_losses_and_grads(params, x_s, y_s, x_t, prototype, config, class_mask)
    rates = {"theta": eta, "theta_g": eta, "theta_h": eta * config.head_lr_multiplier}
    descend(params, opt_states, rates, ((config.lambda1, comp.grads["cls"]),
            (lambda2, comp.grads["cpa"]), (lambda3, comp.grads["cgi"])))

    record = dict(comp.losses)
    record.update(eta=eta, lambda2=lambda2, lambda3=lambda3)
    return record


def _batch_stream(n: int, need: int, seed: int, label: str, epoch: int) -> np.ndarray:
    """Indices covering ``need`` positions by reshuffling-and-cycling n items."""
    chunks = []
    total = 0
    draw = 0
    while total < need:
        perm = rng_for(seed, f"{label}/{epoch}/{draw}").permutation(n)
        chunks.append(perm)
        total += n
        draw += 1
    return np.concatenate(chunks)[:need]


def target_predictions(probs: np.ndarray, class_mask: np.ndarray | None = None) -> np.ndarray:
    """Task-head class of every target row, restricted to the masked classes."""
    if class_mask is not None:
        probs = probs * class_mask.reshape(1, -1)
    return np.argmax(probs, axis=1)


def evaluate_target(params: ParamGroups, target: UnlabeledDataset, eval_labels: np.ndarray,
                    class_mask: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Target accuracy through the sealed evaluation channel only, and the
    unmasked task-head probabilities it was read from."""
    probs = predict_proba(params, "task", target.inputs)
    return accuracy(target_predictions(probs, class_mask), eval_labels), probs


def partial_set_mask(probs: np.ndarray | None,
                     config: ExperimentConfig) -> np.ndarray | None:
    """Partial-set 0/1 class row from the task head's target probabilities
    (None outside ``pda`` mode): it keeps the classes that are the argmax of
    at least ``pda_threshold`` target rows. EmptyPartialSetError, naming
    ``train.pda_threshold``, when it keeps none."""
    if config.mode != "pda":
        return None
    counts = np.bincount(np.argmax(probs, axis=1), minlength=probs.shape[1])
    mask = (counts >= config.pda_threshold).astype(np.float64)
    if not np.any(mask):
        raise EmptyPartialSetError(
            f"key 'train.pda_threshold': every class fell below the partial-set threshold "
            f"{config.pda_threshold} (the most predicted class has {int(counts.max())} "
            f"target samples); lower the threshold")
    return mask


def train(pretrained: ParamGroups, pair: UdaPair, config: ExperimentConfig,
          prototype_fn=learn_prototype) -> tuple[TrainReport, ParamGroups]:
    """Full adaptation run: split, prototype, epoch loop, per-epoch evaluation.

    The source is split 1:1; the prototype half never joins training. Batches
    iterate over the longer domain while the shorter one reshuffles and
    cycles. In ``pda`` mode the class mask is recomputed once per epoch from
    the task head's probabilities on the full target set, which the previous
    epoch's evaluation already holds. The report keeps the class histogram of
    the final predictions, from the same evaluation that gives the final
    accuracy. ``prototype_fn(p_g_val, labels, classes)`` is a swappable
    estimator of the class centers; the default is the clamped
    class-conditional mean. Returns the report and the adapted copy of
    ``pretrained``.
    """
    if len(pair.source) == 0 or len(pair.target) == 0:
        raise ContractViolationError("both domains must be non-empty")
    params = pretrained.copy()
    proto_half, train_half = split_source(pair.source, config.seed)
    p_g_val = predict_proba(params, "pretrained", proto_half.inputs)
    prototype = prototype_fn(p_g_val, proto_half.labels, pair.source.class_count)

    n_s, n_t = len(train_half), len(pair.target)
    per_epoch = math.ceil(max(n_s, n_t) / config.batch_size)
    total_iterations = config.epochs * per_epoch
    opt_states = {g: SgdState(momentum=config.momentum, weight_decay=config.weight_decay)
                  for g in ("theta", "theta_g", "theta_h")}

    report = TrainReport()
    iteration = 0
    probs = predict_proba(params, "task", pair.target.inputs) if config.mode == "pda" else None
    for epoch in range(config.epochs):
        class_mask = partial_set_mask(probs, config)
        need = per_epoch * config.batch_size
        src_stream = _batch_stream(n_s, need, config.seed, "train/shuffle/source", epoch)
        tgt_stream = _batch_stream(n_t, need, config.seed, "train/shuffle/target", epoch)
        sums = {"cls": 0.0, "cpa": 0.0, "cgi": 0.0}
        last = {}
        for b in range(per_epoch):
            lo, hi = b * config.batch_size, (b + 1) * config.batch_size
            si, ti = src_stream[lo:hi], tgt_stream[lo:hi]
            last = train_step(params, opt_states, train_half.inputs[si],
                              train_half.labels[si], pair.target.inputs[ti],
                              prototype, config, iteration,
                              total_iterations, class_mask)
            for k in sums:
                sums[k] += last[k]
            iteration += 1
        acc, probs = evaluate_target(params, pair.target, pair.eval_labels, class_mask)
        report.epochs.append(EpochRecord(
            epoch=epoch, target_acc=acc,
            l_cls=sums["cls"] / per_epoch, l_cpa=sums["cpa"] / per_epoch,
            l_cgi=sums["cgi"] / per_epoch,
            lambda2=last["lambda2"], lambda3=last["lambda3"], eta=last["eta"]))

    classes = pair.source.class_count
    final_mask = partial_set_mask(probs, config)
    final_pred = target_predictions(predict_proba(params, "task", pair.target.inputs), final_mask)
    report.final_target_accuracy = accuracy(final_pred, pair.eval_labels)
    report.final_prediction_counts = tuple(
        int(n) for n in np.bincount(final_pred, minlength=classes))
    report.final_admissible_classes = (
        classes if final_mask is None else int(np.count_nonzero(final_mask)))
    return report, params
