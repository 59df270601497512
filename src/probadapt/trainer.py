"""Adaptation training loop: three-group updates, schedules, and the
partial-set extension.

Each step computes three losses on one tape and backpropagates them
separately so gradients can be routed per parameter group:

* extractor        <- classification + alignment (and the target penalty
                      only when ``cgi_updates_backbone`` is set)
* pretrained head  <- alignment only
* task head        <- classification + target penalty, at 10x the base rate

The target penalty's transformed probabilities, calibration factors and
pseudo-label weights are all computed from detached values, so it cannot
touch the extractor or the pretrained head by construction. A parameter
group whose loss weights are all exactly zero is not stepped at all (weight
decay must not mutate groups with no objective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tape
from .data import DomainDataset, UdaPair, UnlabeledDataset, accuracy
from .errors import ContractViolationError, TrainingDivergedError
from .model import (ParamGroups, feature_graph, fig1_analog, head_graph,
                    learn_prototype, leaves_for, predict_proba, split_source)
from .optim import SgdState, sgd_step
from .seeding import rng_for


@dataclass
class ScheduleConfig:
    """Learning-rate annealing and loss-weight ramp constants."""

    eta0: float = 0.0075
    tau: float = 3e-4
    upsilon: float = 0.75
    head_lr_multiplier: float = 10.0
    lambda1: float = 1.0
    lambda2_a: float = 1.0
    lambda3_a: float = 0.25
    delta: float = 10.0
    lambda_form: str = "logistic"

    def __post_init__(self):
        if self.eta0 <= 0 or self.upsilon <= 0 or self.delta <= 0:
            raise ContractViolationError("eta0, upsilon and delta must be positive")
        if self.lambda_form != "logistic":
            raise ContractViolationError(f"unknown lambda_form {self.lambda_form!r}")


@dataclass
class PdaConfig:
    threshold: int = 14


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    seed: int = 0
    cgi_updates_backbone: bool = False
    beta_variant: str = "exp_neg_kl"
    penalty_variant: str = "CGI"
    pda: PdaConfig | None = None
    momentum: float = 0.9
    weight_decay: float = 5e-4
    label_smoothing: float = 0.1
    focal_gamma: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractViolationError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ContractViolationError("batch_size must be at least 1")
        if self.beta_variant not in losses.BETA_VARIANTS:
            raise ContractViolationError(f"unknown beta_variant {self.beta_variant!r}")
        if self.penalty_variant not in losses.PENALTY_VARIANTS:
            raise ContractViolationError(f"unknown penalty_variant {self.penalty_variant!r}")
        if self.pda is not None and self.pda.threshold < 0:
            raise ContractViolationError("pda threshold must be non-negative")


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
    feature_distance: float = 0.0
    probability_distance: float = 0.0
    # Final task-head predictions on the target: rows per class, and how many
    # classes the final partial-set mask keeps (all of them without one).
    final_prediction_counts: tuple[int, ...] = ()
    final_admissible_classes: int = 0


def lr_schedule(eta0: float, tau: float, upsilon: float, rho: float) -> float:
    """Annealed rate eta0 / (1 + tau * rho)^upsilon; rho is the iteration index."""
    if rho < 0:
        raise ContractViolationError("rho must be non-negative")
    return eta0 / (1.0 + tau * rho) ** upsilon


def lambda_schedule(a: float, delta: float, rho: float, form: str = "logistic") -> float:
    """Loss-weight ramp over normalised progress rho in [0, 1].

    The logistic form a * (2 / (1 + exp(-delta * rho)) - 1) starts at 0 and
    saturates at a; it is the only form.
    """
    if not (0.0 <= rho <= 1.0):
        raise ContractViolationError("rho must lie in [0, 1]")
    if form == "logistic":
        return a * (2.0 / (1.0 + math.exp(-delta * rho)) - 1.0)
    raise ContractViolationError(f"unknown lambda form {form!r}")


def pda_category_counts(p_h_t_full: np.ndarray) -> np.ndarray:
    """Number of target samples whose argmax falls on each class."""
    p = np.atleast_2d(np.asarray(p_h_t_full, dtype=np.float64))
    if p.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(np.argmax(p, axis=1), minlength=p.shape[1])


def pda_class_mask(counts: np.ndarray, threshold: int) -> np.ndarray:
    """0/1 row keeping classes whose predicted count meets the threshold."""
    if threshold < 0:
        raise ContractViolationError("threshold must be non-negative")
    mask = (np.asarray(counts) >= threshold).astype(np.float64)
    if not np.any(mask):
        raise ContractViolationError(
            "every class fell below the partial-set threshold; lower the threshold")
    return mask


def pda_mask(p_h_row: np.ndarray, counts: np.ndarray, threshold: int) -> np.ndarray:
    """Zero out the row's probabilities for classes below the threshold.

    The masked row is deliberately not renormalised; argmax and the
    column-normalised weights are unaffected by the missing mass.
    """
    return np.asarray(p_h_row, dtype=np.float64) * pda_class_mask(counts, threshold)


@dataclass
class StepComputation:
    """Losses, per-loss per-group gradients, and the detached penalty state."""

    losses: dict[str, float]
    grads: dict[str, dict[tuple[str, str], np.ndarray]]
    cgi_state: losses.CgiState | None


def step_losses_and_grads(params: ParamGroups, x_s: np.ndarray, y_s: np.ndarray,
                          x_t: np.ndarray, prototype: np.ndarray, config: TrainConfig,
                          class_mask: np.ndarray | None = None) -> StepComputation:
    """Forward all heads once and backpropagate each loss separately.

    ``class_mask`` is the partial-set 0/1 class row; when given it multiplies
    the task head's target probabilities before every consumer (pseudo-label
    weights, calibration factors, the penalty itself).
    """
    tape = Tape()
    theta_leaves = leaves_for(tape, params.theta)
    g_leaves = leaves_for(tape, params.theta_g)
    h_leaves = leaves_for(tape, params.theta_h)
    leaf_owner = {}
    for group, leaves in (("theta", theta_leaves), ("theta_g", g_leaves), ("theta_h", h_leaves)):
        for name, leaf in leaves.items():
            leaf_owner[leaf] = (group, name)

    f_s = feature_graph(theta_leaves, tape.leaf(x_s))
    f_t = feature_graph(theta_leaves, tape.leaf(x_t))
    p_h_s = head_graph(h_leaves, f_s)
    p_g_s = head_graph(g_leaves, f_s)
    p_g_t = head_graph(g_leaves, f_t)
    # The penalty reaches the extractor only when explicitly enabled; by
    # default the task head sees detached target features.
    f_t_for_h = f_t if config.cgi_updates_backbone else tape.constant(f_t.value)
    p_h_t = head_graph(h_leaves, f_t_for_h)
    if class_mask is not None:
        p_h_t = ad.mul(p_h_t, tape.constant(class_mask.reshape(1, -1)))

    p_h_t_val = p_h_t.value
    y_tilde = losses.pseudo_labels(p_h_t_val)
    alpha_st = losses.calibration_matrix(
        losses.source_weights(losses.one_hot(y_s, p_h_s.shape[1])),
        losses.target_weights(p_h_t_val, y_tilde))

    l_cls = losses.classification_loss(p_h_s, y_s, smoothing=config.label_smoothing,
                                       focal_gamma=config.focal_gamma)
    l_cpa = losses.cpa_loss(p_g_s, p_g_t, alpha_st, y_s, prototype)
    state = losses.cgi_state(p_h_t_val, p_g_t.value, prototype, config.beta_variant)
    l_cgi = losses.target_penalty_loss(p_h_t, state, config.penalty_variant)

    values = {"cls": l_cls.item(), "cpa": l_cpa.item(), "cgi": l_cgi.item()}
    for name, val in values.items():
        if not np.isfinite(val):
            raise TrainingDivergedError(f"loss {name} became non-finite")

    grads: dict[str, dict[tuple[str, str], np.ndarray]] = {}
    for name, node in (("cls", l_cls), ("cpa", l_cpa), ("cgi", l_cgi)):
        leaf_grads = ad.backward(node)
        grads[name] = {leaf_owner[leaf]: g for leaf, g in leaf_grads.items()
                       if leaf in leaf_owner}
    tape.nodes.clear()
    return StepComputation(losses=values, grads=grads, cgi_state=state)


# Which losses feed each group; the penalty joins "theta" only on request.
_GROUP_TERMS = {
    "theta": (("lambda1", "cls"), ("lambda2", "cpa")),
    "theta_g": (("lambda2", "cpa"),),
    "theta_h": (("lambda1", "cls"), ("lambda3", "cgi")),
}


def train_step(params: ParamGroups, opt_states: dict[str, SgdState],
               x_s: np.ndarray, y_s: np.ndarray, x_t: np.ndarray,
               prototype: np.ndarray, schedule: ScheduleConfig, config: TrainConfig,
               iteration: int, total_iterations: int,
               class_mask: np.ndarray | None = None) -> dict[str, float]:
    """One coupled update of all three groups; returns the loss record.

    Groups whose active loss weights are all zero are left untouched.
    """
    eta = lr_schedule(schedule.eta0, schedule.tau, schedule.upsilon, iteration)
    progress = iteration / max(1, total_iterations)
    lams = {
        "lambda1": schedule.lambda1,
        "lambda2": lambda_schedule(schedule.lambda2_a, schedule.delta, progress,
                                   schedule.lambda_form),
        "lambda3": lambda_schedule(schedule.lambda3_a, schedule.delta, progress,
                                   schedule.lambda_form),
    }
    comp = step_losses_and_grads(params, x_s, y_s, x_t, prototype, config, class_mask)

    for group, terms in _GROUP_TERMS.items():
        if group == "theta" and config.cgi_updates_backbone:
            terms = terms + (("lambda3", "cgi"),)
        active = [(lams[lam], loss) for lam, loss in terms if lams[lam] != 0.0]
        if not active:
            continue
        gdict: dict[str, np.ndarray] = {}
        for weight, loss_name in active:
            for (grp, pname), g in comp.grads[loss_name].items():
                if grp != group:
                    continue
                gdict[pname] = gdict.get(pname, 0.0) + weight * g
        lr = eta * (schedule.head_lr_multiplier if group == "theta_h" else 1.0)
        sgd_step(params.group(group), gdict, opt_states[group], lr)

    record = dict(comp.losses)
    record.update(eta=eta, lambda2=lams["lambda2"], lambda3=lams["lambda3"])
    return record


def _batch_stream(n: int, batch_size: int, need: int, seed: int, label: str,
                  epoch: int) -> np.ndarray:
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


def target_predictions(params: ParamGroups, target: UnlabeledDataset,
                       class_mask: np.ndarray | None = None) -> np.ndarray:
    """Task-head class of every target row, restricted to the masked classes."""
    probs = predict_proba(params, "task", target.inputs)
    if class_mask is not None:
        probs = probs * class_mask.reshape(1, -1)
    return np.argmax(probs, axis=1)


def evaluate_target(params: ParamGroups, target: UnlabeledDataset,
                    eval_labels: np.ndarray, class_mask: np.ndarray | None = None) -> float:
    """Target accuracy through the sealed evaluation channel only."""
    return accuracy(target_predictions(params, target, class_mask), eval_labels)


def train(pretrained: ParamGroups, pair: UdaPair, schedule: ScheduleConfig,
          config: TrainConfig, prototype_fn=learn_prototype) -> tuple[TrainReport, ParamGroups]:
    """Full adaptation run: split, prototype, epoch loop, per-epoch evaluation.

    The source is split 1:1; the prototype half never joins training. Batches
    iterate over the longer domain while the shorter one reshuffles and
    cycles. In partial-set mode the class mask is recomputed once per epoch
    from the full target set. The report keeps the class histogram of the
    final predictions, from the same evaluation that gives the final accuracy.
    ``prototype_fn(p_g_val, labels, classes)`` is a swappable estimator of the
    class centers; the default is the clamped class-conditional mean.
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
    for epoch in range(config.epochs):
        class_mask = None
        if config.pda is not None:
            counts = pda_category_counts(predict_proba(params, "task", pair.target.inputs))
            class_mask = pda_class_mask(counts, config.pda.threshold)
        need = per_epoch * config.batch_size
        src_stream = _batch_stream(n_s, config.batch_size, need, config.seed,
                                   "train/shuffle/source", epoch)
        tgt_stream = _batch_stream(n_t, config.batch_size, need, config.seed,
                                   "train/shuffle/target", epoch)
        sums = {"cls": 0.0, "cpa": 0.0, "cgi": 0.0}
        last = {}
        for b in range(per_epoch):
            lo, hi = b * config.batch_size, (b + 1) * config.batch_size
            si, ti = src_stream[lo:hi], tgt_stream[lo:hi]
            last = train_step(params, opt_states, train_half.inputs[si],
                              train_half.labels[si], pair.target.inputs[ti],
                              prototype, schedule, config, iteration,
                              total_iterations, class_mask)
            for k in sums:
                sums[k] += last[k]
            iteration += 1
        acc = evaluate_target(params, pair.target, pair.eval_labels, class_mask)
        report.epochs.append(EpochRecord(
            epoch=epoch, target_acc=acc,
            l_cls=sums["cls"] / per_epoch, l_cpa=sums["cpa"] / per_epoch,
            l_cgi=sums["cgi"] / per_epoch,
            lambda2=last["lambda2"], lambda3=last["lambda3"], eta=last["eta"]))

    classes = pair.source.class_count
    final_mask = None
    if config.pda is not None:
        counts = pda_category_counts(predict_proba(params, "task", pair.target.inputs))
        final_mask = pda_class_mask(counts, config.pda.threshold)
    final_pred = target_predictions(params, pair.target, final_mask)
    report.final_target_accuracy = accuracy(final_pred, pair.eval_labels)
    report.final_prediction_counts = tuple(
        int(n) for n in np.bincount(final_pred, minlength=classes))
    report.final_admissible_classes = (
        classes if final_mask is None else int(np.count_nonzero(final_mask)))
    distances = fig1_analog(params, pair.source, pair.target, config.seed)
    report.feature_distance = distances["feature_distance"]
    report.probability_distance = distances["probability_distance"]
    return report, params
