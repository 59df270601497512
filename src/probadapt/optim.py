"""Mini-batch SGD with momentum and coupled weight decay on flat parameter groups."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractViolationError, TrainingDivergedError


class ParamGroup(dict):
    """Named float64 tensors stored as reshaped views of one contiguous vector.

    ``flat`` holds the tensors one after another, in the order they were
    given. :func:`sgd_step` updates ``flat`` in place, so every named view
    sees the step; the program never rebinds a name to another array.
    :meth:`views` lays the same names over another vector of this layout,
    such as a gradient or a velocity.
    """

    __slots__ = ("flat", "layout")

    def __init__(self, tensors: Mapping[str, np.ndarray]):
        arrays = {name: np.asarray(value, dtype=np.float64) for name, value in tensors.items()}
        layout, start = [], 0
        for name, arr in arrays.items():
            layout.append((name, start, start + arr.size, arr.shape))
            start += arr.size
        self.layout: tuple[tuple[str, int, int, tuple[int, ...]], ...] = tuple(layout)
        self.flat = np.empty(start)
        super().__init__(self.views(self.flat))
        for name, arr in arrays.items():
            self[name][...] = arr

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The named tensors of this layout as views of ``flat``."""
        return {name: flat[start:stop].reshape(shape)
                for name, start, stop, shape in self.layout}

    def name_at(self, index: int) -> str:
        """Name of the tensor that holds position ``index`` of ``flat``."""
        return next(name for name, start, stop, _ in self.layout if start <= index < stop)

    def copy(self) -> "ParamGroup":
        """A group with its own vector, holding the same values."""
        return ParamGroup(self)


@dataclass
class SgdState:
    """Momentum/decay hyperparameters plus one group's velocity.

    The velocity is a vector in the group's flat layout, created at the
    group's first step.
    """

    momentum: float
    weight_decay: float
    velocity: np.ndarray | None = None


def sgd_step(updates: Sequence[tuple[ParamGroup, np.ndarray, SgdState, float]]) -> None:
    """Step each ``(group, grad, state, lr)`` in place: v <- momentum*v + grad +
    weight_decay*param; param -= lr*v.

    ``grad`` is a vector in ``group``'s flat layout, and each group's update
    is one pass of four in-place operations over its vector. Weight decay
    enters the velocity as an additive gradient term (the classic coupled
    formulation). Every update is checked before any is applied, so a
    non-positive rate, a mismatched shape or a non-finite gradient
    (TrainingDivergedError, naming the parameter) leaves every group and
    velocity as it was.
    """
    for group, grad, state, lr in updates:
        if lr <= 0:
            raise ContractViolationError("learning rate must be positive")
        if grad.shape != group.flat.shape:
            raise ContractViolationError(
                f"gradient shape {grad.shape} does not match the group's {group.flat.shape}")
        if not np.isfinite(grad).all():
            bad = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise TrainingDivergedError(f"non-finite gradient for parameter {group.name_at(bad)}")
    for group, grad, state, lr in updates:
        param = group.flat
        vel = state.velocity
        if vel is None:
            vel = state.velocity = np.zeros_like(param)
        # Same operations in the same order as momentum*vel + grad + wd*param.
        vel *= state.momentum
        vel += grad
        vel += state.weight_decay * param
        param -= lr * vel
