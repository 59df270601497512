"""Probability-space unsupervised domain adaptation on a deterministic numpy core.

A pretrained classification head is kept alive through adaptation: its output
distribution is aligned across domains with calibrated pairwise weights, and
in return it calibrates a Gini-impurity pseudo-label loss on the new task
head. Everything runs on an in-package reverse-mode autodiff substrate, so
runs are bit-reproducible from a single seed.
"""

__version__ = "0.1.0"
