"""Mini-batch SGD with momentum and coupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, TrainingDivergedError


@dataclass
class SgdState:
    """Momentum/decay hyperparameters plus per-parameter velocity buffers."""

    momentum: float = 0.9
    weight_decay: float = 5e-4
    velocities: dict[str, np.ndarray] = field(default_factory=dict)


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             state: SgdState, lr: float) -> None:
    """In-place update: v <- momentum*v + grad + weight_decay*param; param -= lr*v.

    Weight decay enters the velocity as an additive gradient term (the
    classic coupled formulation). Raises TrainingDivergedError on any
    non-finite gradient.
    """
    if lr <= 0:
        raise ContractViolationError("learning rate must be positive")
    for name, param in params.items():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(param)
        if grad.shape != param.shape:
            raise ContractViolationError(
                f"gradient shape {grad.shape} does not match parameter {name} {param.shape}")
        if not np.all(np.isfinite(grad)):
            raise TrainingDivergedError(f"non-finite gradient for parameter {name}")
        vel = state.velocities.get(name)
        if vel is None:
            vel = state.velocities[name] = np.zeros_like(param)
        # Same operations in the same order as momentum*vel + grad + wd*param.
        vel *= state.momentum
        vel += grad
        vel += state.weight_decay * param
        params[name] = param - lr * vel
