"""Measure the domain gap in feature space versus probability space.

A linear probe tries to tell source from target rows; the proxy distance
2*(1 - 2*err) is near 0 for indistinguishable domains and near 2 for
perfectly separable ones. On the default shifted pair the pretrained head's
probability outputs show a markedly smaller gap than the raw features,
which is the observation the whole method builds on.
"""

import numpy as np

from probadapt.config import ExperimentConfig
from probadapt.data import make_pretrain_task, make_uda_pair, proxy_a_distance
from probadapt.model import fig1_analog, pretrain
from probadapt.seeding import rng_for

# sanity anchors for the probe itself
rng = rng_for(0, "demo/probe")
same = rng.normal(size=(400, 5))
far = rng.normal(size=(200, 5)) + 10.0
print(f"identical distributions  -> {proxy_a_distance(same[:200], same[200:], seed=0):.3f}")
print(f"far-separated clusters   -> {proxy_a_distance(same[:200], far, seed=0):.3f}")

cfg = ExperimentConfig()
task = make_pretrain_task(cfg)
params = pretrain(task, cfg)
pair = make_uda_pair(cfg)

distances = fig1_analog(params, pair.source, pair.target, cfg.seed)
print(f"\nshifted pair, feature space gap:     {distances['feature_distance']:.3f}")
print(f"shifted pair, probability space gap: {distances['probability_distance']:.3f}")
print("probability space smaller:", distances['probability_distance'] < distances['feature_distance'])

zero = ExperimentConfig(rotation=0.0, noise_scale=0.0)
zpair = make_uda_pair(zero)
ztask = make_pretrain_task(zero)
zparams = pretrain(ztask, zero)
zd = fig1_analog(zparams, zpair.source, zpair.target, zero.seed)
print(f"\nzero-shift pair distances: feature={zd['feature_distance']:.3f} "
      f"probability={zd['probability_distance']:.3f} (both near zero)")
