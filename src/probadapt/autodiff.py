"""Reverse-mode differentiation over a small set of dense-matrix primitives.

Everything is float64 and strictly 2-D. Operations applied to :class:`Tensor`
values are recorded on their :class:`Tape` in creation order; because inputs
are always created before the results that consume them, walking the tape
backwards visits nodes in reverse topological order exactly once, which is
what :func:`backward` does.

The primitive set is deliberately tiny: matmul, broadcasting add (op name
"add_bias"), relu, row softmax, elementwise log / mul / pow, scalar affine
maps, the three reductions (row_sum, col_sum, mean) and the fused pairwise
entropy :func:`pair_entropy` behind the CPA loss, which builds only the pairs
with a nonzero weight. The losses in this package are all expressible in
these, plus :func:`clamp_floor` which is a composite.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, DomainError

# Clamp floor applied before every log / KL evaluation in the package.
EPS = 1e-12


def as_matrix(value) -> np.ndarray:
    """Coerce to a 2-D float64 array (scalars become 1x1)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ContractViolationError(f"expected at most 2 dimensions, got {arr.ndim}")
    return arr


class Tensor:
    """A 2-D value recorded on a tape.

    Leaves are created through :meth:`Tape.leaf`; every other tensor is the
    output of a primitive and carries a vector-Jacobian product closure used
    by :func:`backward`.
    """

    __slots__ = ("value", "tape", "index", "op", "inputs", "vjp")

    def __init__(self, value: np.ndarray, tape: "Tape", op: str,
                 inputs: tuple = (), vjp: Callable | None = None):
        self.value = value
        self.tape = tape
        self.op = op
        self.inputs = inputs
        self.vjp = vjp
        self.index = tape._register(self)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ContractViolationError(f"item() on non-scalar shape {self.value.shape}")
        return float(self.value[0, 0])

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of primitive applications for one computation.

    Every recorded :class:`Tensor` refers back to its tape, so a tape and its
    nodes form a reference cycle. A caller done with a tape, after its last
    :func:`backward` or a forward-only evaluation, clears ``nodes``; the
    values and VJP closures are then freed as soon as the caller drops its
    tensors, without waiting for the cyclic garbage collector.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []

    def _register(self, node: Tensor) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def leaf(self, value) -> Tensor:
        """Record a differentiable input (parameter or constant)."""
        return Tensor(as_matrix(value).copy(), self, "leaf")

    def constant(self, value) -> Tensor:
        """Alias of :meth:`leaf` used where a value is semantically detached.

        Constants still receive gradients during :func:`backward`; callers
        simply never apply them. Keeping them as leaves guarantees that no
        gradient can flow *through* them into upstream parameters. A large
        operand that never needs a gradient belongs in a primitive that takes
        it as a plain array instead, as :func:`pair_entropy` does with its
        weights.
        """
        return self.leaf(value)


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractViolationError("operands recorded on different tapes")
    return tape


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ContractViolationError(f"matmul shapes {a.shape} x {b.shape} do not conform")
    av, bv = a.value, b.value

    def vjp(g):
        return g @ bv.T, av.T @ g

    return Tensor(av @ bv, tape, "matmul", (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition with numpy broadcasting.

    Covers the bias-add case (1 x c row broadcast over a batch) as well as
    same-shape addition.
    """
    tape = _same_tape(a, b)
    try:
        value = a.value + b.value
    except ValueError as exc:
        raise ContractViolationError(f"add shapes {a.shape} + {b.shape}: {exc}") from exc
    ash, bsh = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return Tensor(value, tape, "add_bias", (a, b), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0.0

    def vjp(g):
        return (g * mask,)

    # np.maximum (not where) so NaN propagates instead of flushing to zero
    return Tensor(np.maximum(x.value, 0.0), x.tape, "relu", (x,), vjp)


def row_softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax over each row; rows sum to 1."""
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - inner),)

    return Tensor(s, x.tape, "row_softmax", (x,), vjp)


def log(x: Tensor) -> Tensor:
    if np.any(x.value <= 0.0):
        raise DomainError("log of a non-positive entry; clamp inputs first")
    xv = x.value

    def vjp(g):
        return (g / xv,)

    return Tensor(np.log(xv), x.tape, "elementwise_log", (x,), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    try:
        value = a.value * b.value
    except ValueError as exc:
        raise ContractViolationError(f"mul shapes {a.shape} * {b.shape}: {exc}") from exc
    av, bv, ash, bsh = a.value, b.value, a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g * bv, ash), _unbroadcast(g * av, bsh)

    return Tensor(value, tape, "elementwise_mul", (a, b), vjp)


def scalar_affine(x: Tensor, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    scale = float(scale)

    def vjp(g):
        return (g * scale,)

    return Tensor(x.value * scale + float(shift), x.tape, "scalar_affine", (x,), vjp)


def power(x: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent.

    Requires a non-negative base; for exponents below 1 the base must stay
    strictly positive so the derivative is finite.
    """
    exponent = float(exponent)
    if np.any(x.value < 0.0):
        raise DomainError("power of a negative base")
    if exponent < 1.0 and np.any(x.value == 0.0):
        raise DomainError("power with exponent < 1 at a zero base has no finite derivative")
    xv = x.value

    def vjp(g):
        return (g * exponent * xv ** (exponent - 1.0),)

    return Tensor(xv ** exponent, x.tape, "elementwise_pow", (x,), vjp)


def row_sum(x: Tensor) -> Tensor:
    n = x.shape[1]

    def vjp(g):
        return (np.repeat(g, n, axis=1),)

    return Tensor(x.value.sum(axis=1, keepdims=True), x.tape, "row_sum", (x,), vjp)


def col_sum(x: Tensor) -> Tensor:
    n = x.shape[0]

    def vjp(g):
        return (np.repeat(g, n, axis=0),)

    return Tensor(x.value.sum(axis=0, keepdims=True), x.tape, "col_sum", (x,), vjp)


def mean(x: Tensor) -> Tensor:
    count = x.value.size

    def vjp(g):
        return (np.full(x.value.shape, g[0, 0] / count),)

    return Tensor(np.array([[x.value.mean()]]), x.tape, "mean", (x,), vjp)


def pair_entropy(a: Tensor, b: Tensor, weights) -> Tensor:
    """-0.5 * sum_ij w_ij * sum_k s_ijk log s_ijk over all pairs s_ij = a_i + b_j.

    Only the P pairs with a nonzero weight are built, as one (P, c) array, so
    time is O(n_a * n_b + P * c) and memory O(n_a * n_b + P * c). With CPA's
    coefficients P is the number of same-class pairs. ``weights`` is a plain
    (n_a, n_b) array, never a tape node, and no gradient is computed for it.

    The checks still cover every pair: some s_ijk <= 0 exactly when
    min_i a_ik + min_j b_jk <= 0 for some k (rounded addition is monotone),
    and a NaN or inf anywhere in ``a`` or ``b`` makes the value NaN, as it
    would through 0 * NaN on a zero-weight pair.

    The VJP is closed form: dL/da_i = -0.5 * g * sum_j w_ij (log s_ij + 1), and
    symmetrically for b_j. Each operand's gradient is one flat ``bincount``,
    which adds the pairs in (i, j) order, the order a sum over the dense
    broadcast array takes, so both gradients equal the dense ones bit for bit.
    """
    tape = _same_tape(a, b)
    w = np.asarray(weights, dtype=np.float64)
    (n_a, c), (n_b, c_b) = a.shape, b.shape
    if c != c_b or w.shape != (n_a, n_b):
        raise ContractViolationError(
            f"pair_entropy shapes {a.shape}, {b.shape} need weights ({n_a}, {n_b}), "
            f"got {w.shape}")
    av, bv = a.value, b.value
    finite = True
    if n_a and n_b:
        if np.any(av.min(axis=0) + bv.min(axis=0) <= 0.0):
            raise DomainError("pair_entropy of a non-positive pair sum; clamp inputs first")
        finite = np.isfinite(av.max(axis=0) + bv.max(axis=0)).all()
    i, j = np.nonzero(w != 0.0)
    w_p = w[i, j]
    # (P, c) work arrays are updated in place: they are the memory peak.
    s = av[i]
    s += bv[j]
    log_s = np.log(s)
    s *= log_s
    # Per-pair sum over k, then the weighted sum over the pairs.
    per_pair = np.einsum("pk->p", s)
    total = (w_p * per_pair).sum(keepdims=True).reshape(1, 1)
    if not finite:
        total = np.full((1, 1), np.nan)

    def vjp(g):
        ds = log_s + 1.0
        ds *= ((g[0, 0] * -0.5) * w_p)[:, None]
        k = np.arange(c)
        ga = np.bincount(((i * c)[:, None] + k).ravel(), ds.ravel(), n_a * c)
        gb = np.bincount(((j * c)[:, None] + k).ravel(), ds.ravel(), n_b * c)
        return ga.reshape(n_a, c), gb.reshape(n_b, c)

    return Tensor(total * -0.5 + 0.0, tape, "pair_entropy", (a, b), vjp)


def clamp_floor(x: Tensor, floor: float = EPS) -> Tensor:
    """max(x, floor), composed from relu and scalar affine maps.

    Standard guard in front of log / KL evaluations; the subgradient is zero
    at and below the floor.
    """
    return scalar_affine(relu(scalar_affine(x, 1.0, -floor)), 1.0, floor)


def backward(output: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(output)/d(leaf) for every leaf that feeds ``output``.

    ``output`` must be scalar (1x1). Returns a mapping from leaf tensors to
    their gradients; leaves with no path to the output are absent (their
    gradient is identically zero).
    """
    if output.value.shape != (1, 1):
        raise ContractViolationError(f"backward needs a scalar output, got shape {output.value.shape}")
    grads: dict[int, np.ndarray] = {output.index: np.ones((1, 1))}
    leaf_grads: dict[Tensor, np.ndarray] = {}
    nodes = output.tape.nodes
    for idx in range(output.index, -1, -1):
        g = grads.pop(idx, None)
        if g is None:
            continue
        node = nodes[idx]
        if node.op == "leaf":
            leaf_grads[node] = g
            continue
        for parent, pg in zip(node.inputs, node.vjp(g)):
            if pg is None:
                continue
            acc = grads.get(parent.index)
            grads[parent.index] = pg if acc is None else acc + pg
    return leaf_grads


def grad_or_zero(grads: dict[Tensor, np.ndarray], leaf: Tensor) -> np.ndarray:
    """Gradient of a leaf, or a zero array when the leaf never fed the output."""
    g = grads.get(leaf)
    return np.zeros_like(leaf.value) if g is None else g


def finite_difference_check(build, params: Sequence[np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build(tape, leaves)`` must construct and return a scalar Tensor from the
    given leaves. Every coordinate of every parameter is perturbed by +-h and
    the analytic gradient is compared against the central difference with the
    relative error |analytic - numeric| / max(1e-8, |numeric|).
    """
    if h <= 0:
        raise ContractViolationError("h must be positive")
    base = [as_matrix(p).copy() for p in params]

    def value_at(values) -> float:
        tape = Tape()
        leaves = [tape.leaf(v) for v in values]
        return build(tape, leaves).item()

    tape = Tape()
    leaves = [tape.leaf(v) for v in base]
    grads = backward(build(tape, leaves))
    analytic = [grad_or_zero(grads, leaf) for leaf in leaves]

    worst = 0.0
    for pi in range(len(base)):
        for idx in np.ndindex(base[pi].shape):
            plus = [v.copy() for v in base]
            minus = [v.copy() for v in base]
            plus[pi][idx] += h
            minus[pi][idx] -= h
            numeric = (value_at(plus) - value_at(minus)) / (2.0 * h)
            err = abs(analytic[pi][idx] - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, err)
    return worst
