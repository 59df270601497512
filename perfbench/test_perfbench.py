"""The layer trace's call counts repeat exactly and match the code.

Each traced run is a fresh interpreter running ``child.py`` on seed 0. The
counts follow from ``configs/example.cfg``: 20 epochs of 13 steps at batch
16, 30 pretraining epochs of 50 batches, and three backward passes per
adaptation step. The ``predict_proba``, ``pretrain`` and ``learn_prototype``
counts fail when the tracer misses a name bound by value (``trainer``'s and
``runner``'s imports, ``train``'s ``prototype_fn`` default).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def traced_layers(workload: str, out_root: Path) -> dict:
    out_root.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), PROBADAPT_OUTPUT_ROOT=str(out_root),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", "0",
         "--trace", "1", "--spawned-at", "0"],
        env=env, cwd=out_root, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["layers"]


def counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith((".calls", "tape_nodes_per_step", "tape_mb_per_step"))}


def test_uda_default_counts_repeat_and_match_the_code(tmp_path):
    first = traced_layers("uda_default", tmp_path / "a")
    second = traced_layers("uda_default", tmp_path / "b")
    assert counts(first) == counts(second)
    assert first["trainer.train_step.calls"] == 260
    # 3 per adaptation step plus 1 per pretraining step (30 epochs x 50 batches)
    assert first["autodiff.backward.calls"] == 3 * 260 + 1500
    assert first["model.pretrain.calls"] == 1
    assert first["model.learn_prototype.calls"] == 1
    # held-out accuracy, prototype inputs, 20 per-epoch evaluations, final evaluation
    assert first["model.predict_proba.calls"] == 23
    assert first["runner.run_experiment.calls"] == 1
    assert first["data.proxy_a_distance.calls"] == 2


def test_components_grid_counts_match_the_code(tmp_path):
    layers = traced_layers("components_grid", tmp_path / "grid")
    assert layers["trainer.train_step.calls"] == 6 * 260
    assert layers["model.pretrain.calls"] == 6
    assert layers["model.learn_prototype.calls"] == 6
    assert layers["runner.run_experiment.calls"] == 6


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(SRC))
    try:
        from probadapt import model, runner, trainer
        from layertrace import LayerTracer

        before = (trainer.predict_proba, runner.pretrain, trainer.train.__defaults__)
        with LayerTracer():
            assert trainer.predict_proba is not before[0]
            assert runner.pretrain is not before[1]
            assert trainer.train.__defaults__ != before[2]
        assert (trainer.predict_proba, runner.pretrain, trainer.train.__defaults__) == before
        assert model.predict_proba is trainer.predict_proba
    finally:
        sys.path.remove(str(SRC))
