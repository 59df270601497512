"""Partial-set adaptation and the ablation grids.

When the target only contains a subset of the source classes, category
counting plus a threshold masks the absent classes out of every
target-probability consumer. The second half runs the component ablation
grid through the experiment runner and prints its comparison table.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from probadapt.config import ExperimentConfig, parse_config
from probadapt.data import make_pretrain_task, make_uda_pair
from probadapt.model import predict_proba, pretrain
from probadapt.runner import read_grid_summary, run_grid
from probadapt.trainer import partial_set_mask, train

cfg = replace(ExperimentConfig(), target_class_count=2, noise_scale=0.45)
task = make_pretrain_task(cfg)
params = pretrain(task, cfg.task_classes, cfg.pretrain_epochs, cfg.pretrain_lr,
                  cfg.seed, batch_size=cfg.batch_size,
                  momentum=cfg.momentum, weight_decay=cfg.weight_decay)
pair = make_uda_pair(cfg)
print(f"target holds only the first {math.ceil(cfg.task_classes / 2)} of "
      f"{cfg.task_classes} source classes")

pda_cfg = replace(cfg, mode="pda", pda_threshold=10)
probs = predict_proba(params, "task", pair.target.inputs)
counts = np.bincount(np.argmax(probs, axis=1), minlength=cfg.task_classes)
print("pre-adaptation category counts:", counts)
print("class mask at threshold 10:", partial_set_mask(probs, pda_cfg))

plain, _ = train(params, pair, cfg)
masked, _ = train(params, pair, pda_cfg)
print(f"plain adaptation on the subset pair: {plain.final_target_accuracy:.3f}")
print(f"with class masking (threshold 10):   {masked.final_target_accuracy:.3f}")

# --- component ablation grid via the runner --------------------------------
with tempfile.TemporaryDirectory() as tmp:
    grid_cfg = parse_config(
        "train.epochs = 8\n"
        "generator.samples_per_class = 30\n"
        f"outputs = {tmp}\n")
    run_grid(grid_cfg, "components")
    print("\ncomponent grid (8 epochs, reduced data):")
    for row in read_grid_summary(Path(tmp) / "components" / "grid_summary.csv"):
        acc = row["final_target_accuracy"]
        print(f"  {row['point']:24s} {acc:.3f}" if acc is not None
              else f"  {row['point']:24s} {row['status']}")
