"""Alignment and pseudo-label losses plus the calibration quantities they share.

Two kinds of functions live here. Plain-numpy functions compute detached
quantities: per-sample class weights, pseudo-labels, transformed target
probabilities, calibration factors. Graph builders take taped tensors and
return scalar loss tensors: the calibrated probability alignment (CPA) loss,
the calibrated Gini impurity (CGI) family, and the classification loss.

Every log / KL call site clamps its argument at EPS first, and 0*log(0) is
treated as 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import EPS, Tensor
from .errors import ContractViolationError

BETA_VARIANTS = ("constant_half", "exp_neg_entropy", "max_prob", "exp_neg_kl")
PENALTY_VARIANTS = ("GE", "CGE", "GI", "CGI", "CGI_noreg")


def clamp_probs(p: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(p, dtype=np.float64), EPS)


def _check_label_range(labels: np.ndarray, classes: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ContractViolationError("label out of range")


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    _check_label_range(labels, classes)
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def pseudo_labels(p_h_t: np.ndarray) -> np.ndarray:
    """One-hot argmax per row; exact ties go to the lowest class index."""
    p = np.asarray(p_h_t, dtype=np.float64)
    out = np.zeros_like(p)
    out[np.arange(len(p)), np.argmax(p, axis=1)] = 1.0
    return out


def source_weights(y_s: np.ndarray) -> np.ndarray:
    """Per-sample class weights: each one-hot row divided by its class count.

    Classes absent from the batch get an all-zero column (their pairs simply
    contribute nothing downstream).
    """
    y = np.asarray(y_s, dtype=np.float64)
    col = y.sum(axis=0, keepdims=True)
    return np.divide(y, col, out=np.zeros_like(y), where=col > 0)


def target_weights(p_h_t: np.ndarray, y_tilde: np.ndarray) -> np.ndarray:
    """Pseudo-label-gated confidence weights, column-normalised over the batch."""
    p = np.asarray(p_h_t, dtype=np.float64)
    col = p.sum(axis=0, keepdims=True)
    return np.asarray(y_tilde, dtype=np.float64) * np.divide(
        p, col, out=np.zeros_like(p), where=col > 0)


def calibration_matrix(alpha_s: np.ndarray, alpha_t: np.ndarray) -> np.ndarray:
    """Pairwise coefficients: dot products of source and target weight rows."""
    a_s = np.asarray(alpha_s, dtype=np.float64)
    a_t = np.asarray(alpha_t, dtype=np.float64)
    if a_s.shape[1] != a_t.shape[1]:
        raise ContractViolationError("weight matrices must share a class dimension")
    return a_s @ a_t.T


def pair_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Cross-entropy-style distance -0.5 * sum((p+q) * log(p+q)).

    The Jensen-Shannon divergence with its entropy and constant terms removed;
    symmetric, may be negative.
    """
    s = clamp_probs(p).ravel() + clamp_probs(q).ravel()
    return float(-0.5 * np.sum(s * np.log(s)))


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    pc = clamp_probs(p).ravel()
    qc = clamp_probs(q).ravel()
    log_s = np.log(pc + qc)
    return float(0.5 * (np.sum(pc * (np.log(pc) - log_s))
                        + np.sum(qc * (np.log(qc) - log_s))) + math.log(2.0))


def gini_impurity(p: np.ndarray) -> float:
    """Sum over rows of 1 - sum(p^2); zero exactly at one-hot rows.

    Evaluated with the same operation order as the taped builders so the two
    paths agree bit-for-bit.
    """
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    rows = np.sum(p * p, axis=1, keepdims=True) * -1.0 + 1.0
    return float(np.sum(rows, axis=0, keepdims=True)[0, 0])


def _kl_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """KL(a_i || b_i) per row, both sides clamped.

    Floored at 0: the divergence is non-negative for distributions, and the
    clamp can otherwise push near-degenerate rows a hair below zero.
    """
    ac, bc = clamp_probs(a), clamp_probs(b)
    return np.maximum(np.sum(ac * (np.log(ac) - np.log(bc)), axis=1), 0.0)


def transform_probability(p_g_t: np.ndarray, prototype: np.ndarray) -> np.ndarray:
    """Task-class probabilities read off the pretrained head.

    Row j is the softmax over classes c of -KL(prototype_c || p_g_t[j]): the
    closer a target sample's pretrained-head distribution sits to a class
    center, the more mass that class receives.
    """
    p = clamp_probs(np.atleast_2d(p_g_t))
    m = clamp_probs(np.atleast_2d(prototype))
    # -KL(M_c || p_j) = sum_k M_ck log p_jk - sum_k M_ck log M_ck
    scores = np.log(p) @ m.T - np.sum(m * np.log(m), axis=1)
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=1, keepdims=True)


def beta_values(variant: str, p_h: np.ndarray, p_tilde: np.ndarray) -> np.ndarray:
    """Per-sample calibration factors in (0, 1], shape (n, 1); ``exp_neg_kl`` is
    exp(-KL(p_tilde || p_h)) per row, 1 where the two heads agree."""
    p_h = np.atleast_2d(p_h)
    if variant == "constant_half":
        return np.full((len(p_h), 1), 0.5)
    if variant == "exp_neg_entropy":
        ent = -np.sum(p_h * np.log(clamp_probs(p_h)), axis=1, keepdims=True)
        return np.exp(-ent)
    if variant == "max_prob":
        return p_h.max(axis=1, keepdims=True)
    if variant == "exp_neg_kl":
        return np.exp(-_kl_rows(np.atleast_2d(p_tilde), p_h)).reshape(-1, 1)
    raise ContractViolationError(f"unknown beta variant {variant!r}")


@dataclass
class CgiState:
    """Detached quantities behind one CGI evaluation."""

    p_tilde: np.ndarray
    beta: np.ndarray       # shape (n, 1)

    def __post_init__(self):
        if np.any(self.beta <= 0) or np.any(self.beta > 1.0 + 1e-12):
            raise ContractViolationError("beta must lie in (0, 1]")


def cgi_state(p_h_values: np.ndarray, p_g_values: np.ndarray, prototype: np.ndarray,
              beta_variant: str = "exp_neg_kl") -> CgiState:
    p_h_values = np.atleast_2d(np.asarray(p_h_values, dtype=np.float64))
    p_tilde = transform_probability(p_g_values, prototype)
    beta = beta_values(beta_variant, p_h_values, p_tilde)
    return CgiState(p_tilde=p_tilde, beta=beta)


def _gini_rows(p: Tensor) -> Tensor:
    return ad.scalar_affine(ad.row_sum(ad.mul(p, p)), -1.0, 1.0)


def _entropy_rows(p: Tensor) -> Tensor:
    return ad.scalar_affine(ad.row_sum(ad.mul(p, ad.log(ad.clamp_floor(p)))), -1.0, 0.0)


def target_penalty_loss(p_h_t: Tensor, state: CgiState | None, penalty: str = "CGI") -> Tensor:
    """Scalar penalty on target predictions, summed over the batch.

    GE / GI are the plain entropy / Gini penalties. The calibrated variants
    scale the per-sample penalty by the factor beta and, except for the
    no-regulariser form, add (1 - beta) times the penalty of the mixed
    distribution 0.5 * (p_tilde + p_h). Everything in ``state`` enters the
    tape as a detached array, so it receives no gradient.
    """
    if penalty not in PENALTY_VARIANTS:
        raise ContractViolationError(f"unknown penalty variant {penalty!r}")
    rows_fn = _entropy_rows if penalty in ("GE", "CGE") else _gini_rows
    if penalty in ("GE", "GI"):
        return ad.col_sum(rows_fn(p_h_t))
    if state is None:
        raise ContractViolationError(f"{penalty} needs a CgiState")
    scaled = ad.mul(state.beta, rows_fn(p_h_t))
    if penalty == "CGI_noreg":
        return ad.col_sum(scaled)
    p_m = ad.add(ad.scalar_affine(p_h_t, 0.5, 0.0), 0.5 * state.p_tilde)
    mixed = ad.mul(1.0 - state.beta, rows_fn(p_m))
    return ad.col_sum(ad.add(scaled, mixed))


def cgi_gradient_reference(p_h_t: np.ndarray, p_tilde: np.ndarray,
                           beta: np.ndarray) -> np.ndarray:
    """Exact analytic gradient of the CGI loss with respect to p_h.

    Per sample: -(2 * beta * p_h + (1 - beta) * p_m) with
    p_m = 0.5 * (p_h + p_tilde); beta and p_tilde held constant.
    """
    p = np.atleast_2d(np.asarray(p_h_t, dtype=np.float64))
    pt = np.atleast_2d(np.asarray(p_tilde, dtype=np.float64))
    b = np.asarray(beta, dtype=np.float64).reshape(-1, 1)
    p_m = 0.5 * (p + pt)
    return -(2.0 * b * p + (1.0 - b) * p_m)


def prototype_regularizer(p_g_s: Tensor, labels: np.ndarray, prototype: np.ndarray) -> Tensor:
    """Sum over source samples of KL(prototype row of its class || p_g row).

    Anchors the source side of the alignment to the learned class centers so
    the pairwise term cannot collapse both domains onto an average.
    """
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= prototype.shape[0]:
        raise ContractViolationError("label out of range for the prototype")
    m_rows = clamp_probs(prototype)[labels]
    const_term = float(np.sum(m_rows * np.log(m_rows)))
    cross = ad.col_sum(ad.weighted_log_rows(m_rows, p_g_s))
    return ad.scalar_affine(cross, -1.0, const_term)


def cpa_pairwise(p_g_s: Tensor, p_g_t: Tensor, alpha_st: np.ndarray) -> Tensor:
    """Coefficient-weighted sum of pair distances between all source/target rows.

    Equals sum_ij alpha[i, j] * pair_distance(p_g_s[i], p_g_t[j]), evaluated by
    the fused :func:`autodiff.pair_entropy` on the clamped rows. Only pairs
    with a nonzero coefficient are built; for :func:`calibration_matrix`
    those are the pairs whose source label equals the target pseudo-label, so
    time and memory are O(n_s * n_t + P * c) with P the number of same-class
    pairs. ``alpha`` receives no gradient.
    """
    alpha = np.asarray(alpha_st, dtype=np.float64)
    n_s, n_t = p_g_s.shape[0], p_g_t.shape[0]
    if alpha.shape != (n_s, n_t):
        raise ContractViolationError(f"alpha shape {alpha.shape} != ({n_s}, {n_t})")
    return ad.pair_entropy(ad.clamp_floor(p_g_s), ad.clamp_floor(p_g_t), alpha)


def cpa_loss(p_g_s: Tensor, p_g_t: Tensor, alpha_st: np.ndarray, labels: np.ndarray,
             prototype: np.ndarray) -> Tensor:
    """Calibrated probability alignment: weighted pair distances plus the
    prototype regulariser."""
    return ad.add(cpa_pairwise(p_g_s, p_g_t, alpha_st),
                  prototype_regularizer(p_g_s, labels, prototype))


def classification_loss(p_h_s: Tensor, labels: np.ndarray, smoothing: float = 0.0) -> Tensor:
    """Mean cross entropy against smoothed targets.

    Smoothing puts 1 - s on the true class and s / (c - 1) elsewhere.
    """
    labels = np.asarray(labels)
    n, c = p_h_s.shape
    if len(labels) != n:
        raise ContractViolationError("labels do not match the batch")
    if not (0.0 <= smoothing < 1.0):
        raise ContractViolationError("smoothing must lie in [0, 1)")
    _check_label_range(labels, c)
    targets = np.full((n, c), smoothing / (c - 1)) if smoothing > 0 else np.zeros((n, c))
    targets[np.arange(n), labels] = 1.0 - smoothing
    return ad.mean(ad.scalar_affine(ad.weighted_log_rows(targets, p_h_s), -1.0, 0.0))
