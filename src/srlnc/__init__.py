"""Sparse random linear network coding as an eavesdropping countermeasure.

The package models a source broadcasting a K-packet generation to a
legitimate receiver over erasure channels while an eavesdropper both listens
and jams the acknowledgment path.  Sparse coding vectors (each coefficient
zero with probability p) trade a little delivery speed for a large drop in
the eavesdropper's chance of ever reaching full rank.

Layers, bottom up:

* `gf` / `coding`: finite-field tables, the code and channel parameters,
  the biased coefficient law, and online Gaussian elimination.
* `rank`: innovation and full-rank probabilities of sparse matrices, exact
  classic-RLNC forms at p = 1/q, enumeration oracles and the delivery sum.
* `chain`: the labeled absorbing Markov chain of the intercept probability.
* `sim`: Monte Carlo simulation of the whole protocol.
* `optimize`: delivery-constrained sparsity choice and gain curves.
* `cli`: the `srlnc` command.
"""

from .errors import ConfigError, NumericalIntegrityError
from .gf import GF, get_field
from .coding import ChannelParams, CodeParams, DecoderState, sample_coding_matrix
from .rank import (
    RankTables,
    classic_full_rank_prob,
    classic_innovation_prob,
    delivery_probability,
    exact_full_rank_prob,
    exact_innovation_prob,
)
from .chain import (
    ChainState,
    TransitionMatrix,
    build_chain,
    chain_delivery_probability,
    initial_label,
    intercept_labels,
    intercept_probability,
    label_of,
    n_states,
    state_of,
)
from .sim import SimConfig, SimStats, TrialOutcome, estimate, run_trial
from .optimize import GainPoint, ImConfig, ImSolution, intercept_gain, solve_im

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "NumericalIntegrityError",
    "GF", "get_field",
    "ChannelParams", "CodeParams", "DecoderState", "sample_coding_matrix",
    "RankTables", "classic_full_rank_prob", "classic_innovation_prob",
    "delivery_probability", "exact_full_rank_prob", "exact_innovation_prob",
    "ChainState", "TransitionMatrix", "build_chain",
    "chain_delivery_probability", "initial_label", "intercept_labels",
    "intercept_probability", "label_of", "n_states", "state_of",
    "SimConfig", "SimStats", "TrialOutcome", "estimate", "run_trial",
    "GainPoint", "ImConfig", "ImSolution", "intercept_gain", "solve_im",
    "__version__",
]
