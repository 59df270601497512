"""Probability-space unsupervised domain adaptation on a deterministic numpy core.

A pretrained classification head is kept alive through adaptation: its output
distribution is aligned across domains with calibrated pairwise weights, and
in return it calibrates a Gini-impurity pseudo-label loss on the new task
head. Everything runs on an in-package reverse-mode autodiff substrate, so
runs are bit-reproducible from a single seed.
"""

from .autodiff import EPS, Tape, Tensor, backward, finite_difference_check
from .config import ExperimentConfig, config_hash, parse_config, serialize_config
from .data import (DomainDataset, PretrainTask, UdaPair, UnlabeledDataset, accuracy,
                   make_pretrain_task, make_uda_pair, proxy_a_distance)
from .errors import (ConfigError, ContractViolationError, DomainError, EmptyPartialSetError,
                     MissingClassError, TrainingDivergedError)
from .losses import (CgiState, beta_values, calibration_matrix,
                     cgi_gradient_reference, classification_loss, cpa_loss,
                     gini_impurity, js_divergence, pair_distance, prototype_regularizer,
                     transform_probability)
from .model import (ParamGroups, feature_graph, fig1_analog, head_graph,
                    init_params, learn_prototype, predict_proba, pretrain, split_source)
from .optim import ParamGroup, SgdState, sgd_step
from .runner import RunRecord, run_experiment, run_grid
from .trainer import TrainReport, lambda_schedule, lr_schedule, train, train_step

__version__ = "0.1.0"
