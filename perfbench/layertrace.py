"""Outside-in layer tracing of the probadapt package.

The tracer replaces module-level functions of ``probadapt`` with timing
wrappers and puts the originals back on exit. A function is often reachable
under more than one binding: ``trainer`` imports ``predict_proba`` by name,
``runner`` imports ``pretrain`` by name, and ``trainer.train`` captures
``learn_prototype`` as a default argument. :class:`Patcher` therefore
replaces every binding that holds the same object, in every loaded
``probadapt`` module and in every module-level function's defaults.

Self time is a span's duration minus the durations of the traced spans
nested in it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from statistics import median

# Function name in ``probadapt.autodiff`` -> op name used in metric names.
PRIMITIVES = {
    "matmul": "matmul",
    "add": "add_bias",
    "relu": "relu",
    "row_softmax": "row_softmax",
    "log": "elementwise_log",
    "mul": "elementwise_mul",
    "scalar_affine": "scalar_affine",
    "power": "elementwise_pow",
    "row_sum": "row_sum",
    "col_sum": "col_sum",
    "mean": "mean",
}

# (module, function) pairs traced as plain spans.
SPANS = (
    ("autodiff", "backward"),
    ("optim", "sgd_step"),
    ("losses", "cpa_pairwise"),
    ("losses", "prototype_regularizer"),
    ("losses", "cgi_state"),
    ("losses", "target_penalty_loss"),
    ("losses", "classification_loss"),
    ("trainer", "train_step"),
    ("trainer", "step_losses_and_grads"),
    ("trainer", "evaluate_target"),
    ("model", "pretrain"),
    ("model", "predict_proba"),
    ("model", "learn_prototype"),
    ("model", "fig1_analog"),
    ("data", "make_pretrain_task"),
    ("data", "make_uda_pair"),
    ("data", "proxy_a_distance"),
    ("runner", "run_experiment"),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "probadapt" or name.startswith("probadapt."))]


class Patcher:
    """Replaces every binding of a function inside ``probadapt``; undoes it on restore."""

    def __init__(self):
        self._undo: list = []

    def replace(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` everywhere."""
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._undo.append(lambda m=module, n=name: setattr(m, n, original))
                elif inspect.isfunction(value) and value.__defaults__ and any(
                        d is original for d in value.__defaults__):
                    old = value.__defaults__
                    value.__defaults__ = tuple(replacement if d is original else d for d in old)
                    self._undo.append(lambda f=value, d=old: setattr(f, "__defaults__", d))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class LayerTracer:
    """Counts calls and sums inclusive and self time per traced name.

    Use as a context manager around the traced work, after ``probadapt`` has
    been imported.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.tape_nodes: list[int] = []
        self.tape_bytes: list[int] = []
        self._child_time: list[float] = []
        self._step_tapes: dict[int, tuple[int, int]] | None = None
        self._patcher = Patcher()

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is recorded under ``name``.

        ``after(result)`` runs on the result outside the timed interval.
        """
        child_time = self._child_time
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = child_time.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - nested
                if child_time:
                    child_time[-1] += elapsed
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    def _install(self) -> None:
        autodiff = importlib.import_module("probadapt.autodiff")
        for fn_name, op in PRIMITIVES.items():
            vjp_name = f"autodiff.{op}.vjp"

            def wrap_vjp(tensor, vjp_name=vjp_name):
                tensor.vjp = self.span(vjp_name, tensor.vjp)

            original = getattr(autodiff, fn_name)
            self._patcher.replace(original,
                                  self.span(f"autodiff.{op}.fwd", original, after=wrap_vjp))
        for module_name, fn_name in SPANS:
            original = getattr(importlib.import_module(f"probadapt.{module_name}"), fn_name)
            name = f"{module_name}.{fn_name}"
            if name == "autodiff.backward":
                wrapped = self._backward_span(original)
            elif name == "trainer.train_step":
                wrapped = self._step_span(original)
            else:
                wrapped = self.span(name, original)
            self._patcher.replace(original, wrapped)

    def _backward_span(self, original):
        traced = self.span("autodiff.backward", original)

        def backward(output, *args, **kwargs):
            tapes = self._step_tapes
            if tapes is not None and id(output.tape) not in tapes:
                # Counted before the pass; kept out of the caller's self time.
                start = time.perf_counter()
                nodes = output.tape.nodes
                tapes[id(output.tape)] = (len(nodes), sum(n.value.nbytes for n in nodes))
                if self._child_time:
                    self._child_time[-1] += time.perf_counter() - start
            return traced(output, *args, **kwargs)

        backward.__wrapped__ = original
        return backward

    def _step_span(self, original):
        traced = self.span("trainer.train_step", original)

        def train_step(*args, **kwargs):
            self._step_tapes = {}
            try:
                return traced(*args, **kwargs)
            finally:
                tapes, self._step_tapes = self._step_tapes, None
                self.tape_nodes.append(sum(n for n, _ in tapes.values()))
                self.tape_bytes.append(sum(b for _, b in tapes.values()))

        train_step.__wrapped__ = original
        return train_step

    def metrics(self) -> dict[str, float]:
        """The per-layer metric set, keyed by the names in BENCHMARK.json."""
        out: dict[str, float] = {}
        for op in PRIMITIVES.values():
            out[f"autodiff.{op}.calls"] = self.calls[f"autodiff.{op}.fwd"]
            out[f"autodiff.{op}.fwd_s"] = self.total[f"autodiff.{op}.fwd"]
            out[f"autodiff.{op}.vjp_s"] = self.total[f"autodiff.{op}.vjp"]
        out["autodiff.backward.calls"] = self.calls["autodiff.backward"]
        out["autodiff.backward.self_s"] = self.self_time["autodiff.backward"]
        out["autodiff.tape_nodes_per_step"] = median(self.tape_nodes) if self.tape_nodes else 0
        out["autodiff.tape_mb_per_step"] = (median(self.tape_bytes) / 2**20
                                            if self.tape_bytes else 0.0)
        out["optim.sgd_step.calls"] = self.calls["optim.sgd_step"]
        out["optim.sgd_step.s"] = self.total["optim.sgd_step"]
        for fn in ("cpa_pairwise", "prototype_regularizer", "cgi_state",
                   "target_penalty_loss", "classification_loss"):
            out[f"losses.{fn}.s"] = self.total[f"losses.{fn}"]
        out["trainer.train_step.calls"] = self.calls["trainer.train_step"]
        out["trainer.train_step.self_s"] = self.self_time["trainer.train_step"]
        out["trainer.step_losses_and_grads.self_s"] = \
            self.self_time["trainer.step_losses_and_grads"]
        out["trainer.evaluate_target.s"] = self.total["trainer.evaluate_target"]
        for fn in ("pretrain", "predict_proba"):
            out[f"model.{fn}.calls"] = self.calls[f"model.{fn}"]
            out[f"model.{fn}.s"] = self.total[f"model.{fn}"]
        out["model.learn_prototype.calls"] = self.calls["model.learn_prototype"]
        out["model.learn_prototype.s"] = self.total["model.learn_prototype"]
        out["model.fig1_analog.s"] = self.total["model.fig1_analog"]
        out["data.make_pretrain_task.s"] = self.total["data.make_pretrain_task"]
        out["data.make_uda_pair.s"] = self.total["data.make_uda_pair"]
        out["data.proxy_a_distance.calls"] = self.calls["data.proxy_a_distance"]
        out["data.proxy_a_distance.s"] = self.total["data.proxy_a_distance"]
        out["runner.run_experiment.calls"] = self.calls["runner.run_experiment"]
        return out
