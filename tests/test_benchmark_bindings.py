"""The names the benchmark harness binds still exist in the package.

``perfbench/layertrace.py`` looks up every traced function by name, and
``perfbench/child.py`` binds ``trainer.train_step``'s arguments by name. A
rename would otherwise show up only as a failed benchmark subprocess. Both
files are read here, never edited.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from probadapt import trainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace",
                                                  PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layertrace = load_layertrace()
    names = [("autodiff", fn) for fn in layertrace.PRIMITIVES] + list(layertrace.SPANS)
    assert len(names) == len(layertrace.PRIMITIVES) + len(layertrace.SPANS) > 0
    missing = [f"{module}.{fn}" for module, fn in names
               if not callable(getattr(importlib.import_module(f"probadapt.{module}"), fn, None))]
    assert missing == []


def test_train_step_has_the_parameters_the_step_timer_binds():
    params = set(inspect.signature(trainer.train_step).parameters)
    assert {"x_s", "x_t", "config", "iteration", "total_iterations"} <= params
    bound = set(re.findall(r'bound\["(\w+)"\]', (PERFBENCH / "child.py").read_text()))
    assert bound and bound <= params
