"""Reverse-mode differentiation over a small set of dense-matrix primitives.

Everything is float64 and strictly 2-D. Operations applied to :class:`Tensor`
values are recorded on their :class:`Tape` in creation order; because inputs
are always created before the results that consume them, walking the tape
backwards visits nodes in reverse topological order exactly once, which is
what :func:`backward` does.

The primitive set is deliberately tiny: matmul, broadcasting add (op name
"add_bias"), relu, row softmax, elementwise log / mul / pow, scalar affine
maps, the floor clamp :func:`clamp_floor` in front of every log, the three
reductions (row_sum, col_sum, mean) and the fused pairwise entropy
:func:`pair_entropy` behind the CPA loss, which builds only the pairs with a
nonzero weight. The losses in this package are all expressible in these.

Two more primitives fuse a composite of these into one node, because every
training step records and walks each node: :func:`dense` is
``relu(x @ w + b)`` or ``row_softmax(x @ w + b)`` (every model layer), and
:func:`weighted_log_rows` is ``row_sum(weights * log(clamp_floor(p)))``
(the cross-entropy terms). Each runs its composite's numpy operations in the
same order, through helpers it shares with the composite's primitives, so
values and gradients equal the composite's bit for bit.

Inputs enter a tape as leaves, which :func:`backward` differentiates, or as
plain arrays, which are detached: matmul, add, mul and dense take each
operand as a Tensor or an array, record no node for an array operand and
compute no VJP product for it. Both kinds are read in place, so no tape
input, leaf or array, may change while its tape is in use. A detached copy
of a tensor is its ``value``, and a detached input gives a detached result:
with array operands only, these four record nothing and return their value
as an array, so inference runs the training forward with no tape at all.

Most primitives allocate their result and keep the arrays their VJP reads.
:func:`pair_entropy` is the exception because its (P, c) pair arrays are the
memory peak of a large step: one call allocates one block for two float
buffers and one index buffer, works in place in it, and its VJP reuses the
forward's spent buffer without touching the one it reads, so repeating the
VJP is safe.
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
    output of a primitive, keeps its operands (Tensors or detached arrays) in
    ``inputs`` and carries a vector-Jacobian product closure used by
    :func:`backward`, which returns None for an array operand.
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

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of primitive applications for one computation.

    Inputs enter a tape as leaves (:meth:`leaf`) or as plain arrays passed to
    a primitive, which stay detached and are never recorded.

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
        """Record a differentiable input, such as a parameter.

        :func:`backward` returns a gradient for every leaf that feeds its
        output. A 2-D float64 value is read in place, not copied, so it must
        not change while the tape is in use: a caller finishes its
        :func:`backward` passes before it updates the parameters in place.
        """
        return Tensor(as_matrix(value), self, "leaf")


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ContractViolationError("operands recorded on different tapes")
    return tape


def _tape_of(*operands) -> Tape | None:
    """The tape of the Tensor operands, or None when all are detached arrays."""
    tensors = [x for x in operands if isinstance(x, Tensor)]
    return _same_tape(*tensors) if tensors else None


def _value(x) -> np.ndarray:
    """A Tensor's value, or an array operand itself (no copy for a 2-D float64 array)."""
    return x.value if isinstance(x, Tensor) else as_matrix(x)


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


def _matmul_value(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    if av.shape[1] != bv.shape[0]:
        raise ContractViolationError(f"matmul shapes {av.shape} x {bv.shape} do not conform")
    return av @ bv


def _matmul_vjp(g, av, bv, need_a, need_b):
    return (g @ bv.T if need_a else None), (av.T @ g if need_b else None)


def _add_value(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    try:
        return av + bv
    except ValueError as exc:
        raise ContractViolationError(f"add shapes {av.shape} + {bv.shape}: {exc}") from exc


def _add_vjp(g, ash, bsh, need_a, need_b):
    return ((_unbroadcast(g, ash) if need_a else None),
            (_unbroadcast(g, bsh) if need_b else None))


def _relu_value(x: np.ndarray) -> np.ndarray:
    # np.maximum (not where) so NaN propagates instead of flushing to zero
    return np.maximum(x, 0.0)


def _relu_vjp(g, x, value):
    return g * (x > 0.0)


def _softmax_value(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_vjp(g, x, s):
    inner = (g * s).sum(axis=1, keepdims=True)
    return s * (g - inner)


# Activation name -> (value(x), vjp(g, x, value)), shared by the standalone
# primitives and :func:`dense`.
_ACTIVATIONS = {"relu": (_relu_value, _relu_vjp),
                "row_softmax": (_softmax_value, _softmax_vjp)}


def matmul(a, b) -> Tensor | np.ndarray:
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    value = _matmul_value(av, bv)
    if tape is None:
        return value
    need_a, need_b = isinstance(a, Tensor), isinstance(b, Tensor)

    def vjp(g):
        return _matmul_vjp(g, av, bv, need_a, need_b)

    return Tensor(value, tape, "matmul", (a, b), vjp)


def add(a, b) -> Tensor | np.ndarray:
    """Elementwise addition with numpy broadcasting.

    Covers the bias-add case (1 x c row broadcast over a batch) as well as
    same-shape addition.
    """
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    value = _add_value(av, bv)
    if tape is None:
        return value
    ash, bsh = av.shape, bv.shape
    need_a, need_b = isinstance(a, Tensor), isinstance(b, Tensor)

    def vjp(g):
        return _add_vjp(g, ash, bsh, need_a, need_b)

    return Tensor(value, tape, "add_bias", (a, b), vjp)


def relu(x: Tensor) -> Tensor:
    xv = x.value
    value = _relu_value(xv)

    def vjp(g):
        return (_relu_vjp(g, xv, value),)

    return Tensor(value, x.tape, "relu", (x,), vjp)


def row_softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax over each row; rows sum to 1."""
    xv = x.value
    s = _softmax_value(xv)

    def vjp(g):
        return (_softmax_vjp(g, xv, s),)

    return Tensor(s, x.tape, "row_softmax", (x,), vjp)


def dense(x, w, b, activation: str) -> Tensor | np.ndarray:
    """``activation(x @ w + b)`` in one node; ``activation`` is "relu" or
    "row_softmax".

    Forward and VJP run the numpy operations of the composite
    ``activation(add(matmul(x, w), b))`` in the same order, through the
    helpers those primitives use, so value and gradients equal it bit for
    bit. As in matmul and add, an array operand gets no VJP product, and
    with array operands only the value is returned as an array.
    """
    if activation not in _ACTIVATIONS:
        raise ContractViolationError(f"unknown dense activation {activation!r}")
    act_value, act_vjp = _ACTIVATIONS[activation]
    tape = _tape_of(x, w, b)
    xv, wv, bv = _value(x), _value(w), _value(b)
    xw = _matmul_value(xv, wv)
    z = _add_value(xw, bv)
    value = act_value(z)
    if tape is None:
        return value
    xwsh, bsh = xw.shape, bv.shape
    need_x, need_w, need_b = (isinstance(t, Tensor) for t in (x, w, b))

    def vjp(g):
        g_xw, g_b = _add_vjp(act_vjp(g, z, value), xwsh, bsh, True, need_b)
        return (*_matmul_vjp(g_xw, xv, wv, need_x, need_w), g_b)

    return Tensor(value, tape, "dense", (x, w, b), vjp)


def log(x: Tensor) -> Tensor:
    if np.any(x.value <= 0.0):
        raise DomainError("log of a non-positive entry; clamp inputs first")
    xv = x.value

    def vjp(g):
        return (g / xv,)

    return Tensor(np.log(xv), x.tape, "elementwise_log", (x,), vjp)


def mul(a, b) -> Tensor | np.ndarray:
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    ash, bsh = av.shape, bv.shape
    try:
        value = av * bv
    except ValueError as exc:
        raise ContractViolationError(f"mul shapes {ash} * {bsh}: {exc}") from exc
    if tape is None:
        return value
    need_a, need_b = isinstance(a, Tensor), isinstance(b, Tensor)

    def vjp(g):
        return ((_unbroadcast(g * bv, ash) if need_a else None),
                (_unbroadcast(g * av, bsh) if need_b else None))

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

    Buffers: all (P, c) storage of a call is one (3, P, c) block, two float
    buffers and one index buffer, and the call computes in place in it. The
    forward gathers a_i into ``work`` and b_j into ``log_s``, then turns
    ``work`` into s and s log s and ``log_s`` into log s. Each VJP call
    writes log s + 1 into ``work``, which the forward no longer needs, scales
    it in place, and fills the index buffer with i*c + k for the first
    ``bincount`` and then with j*c + k for the second. ``log_s`` is only
    read, so a repeated VJP call returns the same gradients, and the arrays a
    call returns never alias the block. The block is freed with the tape's
    nodes.
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
    # The (P, c) buffers are the memory peak, so they are updated in place,
    # and they share one allocation: a heap that grows by a single block per
    # step stays under glibc's trim threshold (twice the largest block freed),
    # so the next step reuses its pages instead of faulting them in again.
    block = np.empty((3, i.size, c))
    # ``mode="clip"`` lets take write straight into ``out`` (``"raise"``
    # buffers it); nonzero's indices are in range, so it never clips.
    work = np.take(av, i, axis=0, out=block[0], mode="clip")
    log_s = np.take(bv, j, axis=0, out=block[1], mode="clip")
    work += log_s
    np.log(work, out=log_s)
    work *= log_s
    # Per-pair sum over k, then the weighted sum over the pairs.
    per_pair = np.einsum("pk->p", work)
    total = (w_p * per_pair).sum(keepdims=True).reshape(1, 1)
    if not finite:
        total = np.full((1, 1), np.nan)

    def vjp(g):
        # ds overwrites ``work``; ``log_s`` stays intact for a repeated call.
        ds = np.add(log_s, 1.0, out=work)
        ds *= ((g[0, 0] * -0.5) * w_p)[:, None]
        k = np.arange(c)
        flat = np.add((i * c)[:, None], k, out=block[2].view(np.int64))
        ga = np.bincount(flat.ravel(), ds.ravel(), n_a * c)
        np.add((j * c)[:, None], k, out=flat)
        gb = np.bincount(flat.ravel(), ds.ravel(), n_b * c)
        return ga.reshape(n_a, c), gb.reshape(n_b, c)

    return Tensor(total * -0.5 + 0.0, tape, "pair_entropy", (a, b), vjp)


def _clamp_floor_value(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max(x, EPS) as max(x - EPS, 0) + EPS, and the mask of entries above it."""
    shifted = x - EPS
    mask = shifted > 0.0
    # np.maximum (not where) so NaN propagates instead of flushing to zero
    value = np.maximum(shifted, 0.0, out=shifted)
    value += EPS
    return value, mask


def clamp_floor(x: Tensor) -> Tensor:
    """max(x, EPS) as max(x - EPS, 0) + EPS, in one node.

    Standard guard in front of log / KL evaluations; the subgradient is zero
    at and below the floor. The rounding steps are those of the composite
    ``scalar_affine(relu(scalar_affine(x, 1.0, -EPS)), 1.0, EPS)``, whose
    products with 1.0 are exact, so value and gradient equal it bit for bit.
    """
    value, mask = _clamp_floor_value(x.value)

    def vjp(g):
        return (g * mask,)

    return Tensor(value, x.tape, "clamp_floor", (x,), vjp)


def weighted_log_rows(weights, p: Tensor) -> Tensor:
    """Per-row sum of ``weights * log(max(p, EPS))``, shape (n, 1), in one node.

    Forward and VJP run the numpy operations of the composite
    ``row_sum(mul(weights, log(clamp_floor(p))))`` in the same order, so value
    and gradient equal it bit for bit. ``weights`` is a plain array of ``p``'s
    shape, read in place as every array operand is, and no gradient is
    computed for it. The clamp keeps every log argument at or above EPS, so no
    input raises the DomainError :func:`log` guards against.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != p.shape:
        raise ContractViolationError(
            f"weighted_log_rows weights shape {w.shape} != operand shape {p.shape}")
    clamped, mask = _clamp_floor_value(p.value)
    c = p.shape[1]

    def vjp(g):
        return (np.repeat(g, c, axis=1) * w / clamped * mask,)

    return Tensor((w * np.log(clamped)).sum(axis=1, keepdims=True), p.tape,
                  "weighted_log_rows", (p,), vjp)


def backward(output: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(output)/d(leaf) for every leaf that feeds ``output``.

    ``output`` must be scalar (1x1). Returns a mapping from leaf tensors to
    their gradients; leaves with no path to the output are absent (their
    gradient is identically zero). Array operands are detached: no
    gradient is computed for them, so the mapping holds Tensors only.
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


def finite_difference_check(build, params: Sequence[np.ndarray]) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build(tape, leaves)`` must construct and return a scalar Tensor from the
    given leaves. Every coordinate of every parameter is perturbed by
    +-h = 1e-5 and the analytic gradient is compared against the central
    difference with the relative error |analytic - numeric| / max(1e-8, |numeric|).
    """
    h = 1e-5
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
