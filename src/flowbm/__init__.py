"""Training engine and evaluation harness for binary Boltzmann machines
driven by probability-flow gradients inside a variational EM loop."""

from .model import BoltzmannMachine, LayerSpec, dense_weights, energy, new_machine, validate
from .mpf import (
    FlowTerms,
    Gradient,
    brute_force_flow,
    flow_terms,
    gradient,
    objective,
)
from .optim import AdamState, TrainConfig, init_adam, load_config, reset, step
from .sampling import (
    RngStream,
    async_gibbs,
    conditional_prob,
    e_step,
    generate,
    mean_activation_prior,
    sample_layer,
)
from .training import EpochLog, train_cd, train_vpf
from .metrics import (
    EvalReport,
    activation_stats,
    corrupt,
    parzen_ll,
    recon_error,
    reconstruct,
    squared_weight,
    weight_sparsity,
)
from .stdp import StdpPoint, emit_stdp_csv, stdp_curve, stdp_update
from .data import Dataset, binarize, load_idx, split
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BoltzmannMachine",
    "Checkpoint",
    "Dataset",
    "EpochLog",
    "EvalReport",
    "FlowTerms",
    "Gradient",
    "LayerSpec",
    "RngStream",
    "StdpPoint",
    "TrainConfig",
    "activation_stats",
    "async_gibbs",
    "binarize",
    "brute_force_flow",
    "conditional_prob",
    "corrupt",
    "dense_weights",
    "e_step",
    "emit_stdp_csv",
    "energy",
    "flow_terms",
    "generate",
    "gradient",
    "init_adam",
    "load_checkpoint",
    "load_config",
    "load_idx",
    "mean_activation_prior",
    "new_machine",
    "objective",
    "parzen_ll",
    "recon_error",
    "reconstruct",
    "reset",
    "sample_layer",
    "save_checkpoint",
    "split",
    "squared_weight",
    "stdp_curve",
    "stdp_update",
    "step",
    "train_cd",
    "train_vpf",
    "validate",
    "weight_sparsity",
]
