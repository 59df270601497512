"""Pretrain the backbone on the synthetic cluster task and learn the
class prototype that anchors the alignment loss.

The prototype matrix has one row per adaptation class: the center of the
pretrained head's probability outputs over held-out source samples of that
class.
"""

import numpy as np

from probadapt.config import ExperimentConfig
from probadapt.data import make_pretrain_task, make_uda_pair
from probadapt.model import (heldout_accuracy, learn_prototype, predict_proba,
                             pretrain, split_source)

cfg = ExperimentConfig()

task = make_pretrain_task(cfg)
print(f"pretraining on {len(task.train)} samples, {cfg.pretrain_classes} clusters")
params = pretrain(task, cfg.task_classes, cfg.pretrain_epochs, cfg.pretrain_lr,
                  cfg.seed, batch_size=cfg.batch_size,
                  momentum=cfg.momentum, weight_decay=cfg.weight_decay)
print(f"held-out accuracy: {heldout_accuracy(params, task):.3f}")

pair = make_uda_pair(cfg)
proto_half, train_half = split_source(pair.source, cfg.seed)
print(f"source split: {len(proto_half)} prototype / {len(train_half)} training samples")

p_g_val = predict_proba(params, "pretrained", proto_half.inputs)
prototype = learn_prototype(p_g_val, proto_half.labels, cfg.task_classes)
print("prototype shape:", prototype.shape)
print("row sums:", prototype.sum(axis=1))
print("strongest pretrain cluster per adaptation class:", np.argmax(prototype, axis=1))
