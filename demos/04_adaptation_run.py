"""Full adaptation run on the default synthetic task, against the
source-only baseline and the two single-component variants.

Reproduces the headline desk-scale comparison: baseline < single component
< full method on the pinned default seed.
"""

from dataclasses import replace

from probadapt.config import ExperimentConfig
from probadapt.data import make_pretrain_task, make_uda_pair
from probadapt.model import pretrain
from probadapt.trainer import train

cfg = ExperimentConfig()
task = make_pretrain_task(cfg)
params = pretrain(task, cfg)
pair = make_uda_pair(cfg)

variants = {
    "baseline (classification only)": (0.0, 0.0),
    "alignment only": (cfg.lambda2_a, 0.0),
    "calibrated penalty only": (0.0, cfg.lambda3_a),
    "full method": (cfg.lambda2_a, cfg.lambda3_a),
}

for name, (l2, l3) in variants.items():
    report, _ = train(params, pair, replace(cfg, lambda2_a=l2, lambda3_a=l3))
    print(f"{name:32s} final target accuracy: {report.final_target_accuracy:.3f}")

print("\nper-epoch trace of the full method:")
report, _ = train(params, pair, cfg)
print("epoch  acc    l_cls    l_cpa    l_cgi    lambda2  eta")
for r in report.epochs:
    print(f"{r.epoch:5d}  {r.target_acc:.3f}  {r.l_cls:7.4f}  {r.l_cpa:7.4f}  "
          f"{r.l_cgi:7.4f}  {r.lambda2:.4f}  {r.eta:.5f}")
