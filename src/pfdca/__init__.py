"""Solvers, baselines, sweeps, and numerical certificates for the
discrete privacy funnel: choose a stochastic code P(Z|X) trading the
utility I(Z;X) of released codes against leakage I(Z;Y) of a private
variable linked to X by a known channel.
"""

from .dca import DcaConfig, DcaResult, InnerKind, dca_run, pf_lagrangian, stationarity_gap
from .estimator import DcaPrivacyFunnel
from .probability import (
    CondDist,
    DiscreteDist,
    Encoder,
    InvalidDistributionError,
    JointXY,
    bayes_invert,
    entropy,
    joint_from_dict,
    joint_to_dict,
    load_joint,
    markov_compose,
    mutual_information,
)
from .sweep import SweepConfig, TradeoffPoint, pareto_frontier, run_sweep

__all__ = [
    "CondDist",
    "DcaConfig",
    "DcaPrivacyFunnel",
    "DcaResult",
    "DiscreteDist",
    "Encoder",
    "InnerKind",
    "InvalidDistributionError",
    "JointXY",
    "SweepConfig",
    "TradeoffPoint",
    "bayes_invert",
    "dca_run",
    "entropy",
    "joint_from_dict",
    "joint_to_dict",
    "load_joint",
    "markov_compose",
    "mutual_information",
    "pareto_frontier",
    "pf_lagrangian",
    "run_sweep",
    "stationarity_gap",
]

__version__ = "0.1.0"
