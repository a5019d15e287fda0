"""Small-gain analysis toolkit for interconnected hybrid (flow + jump) systems."""

from .expr import EvalDomainError, EvalOverflowError, Expr, ParseError, evaluate, parse, render
from .kfun import Classification, KFun, compose, invert, pointwise_max, pointwise_min
from .gains import GainMatrix, OmegaPath, SmallGainOptions, SmallGainVerdict, \
    build_omega_path, compose_phi, gamma_max_apply, small_gain_check
from .hybrid import HybridSignal, HybridTimeDomain, InputSignal, NetworkSpec, \
    SimOptions, SolutionPair, SubsystemSpec, compose_network, simulate
from .lyapunov import CompositeCertificate, SubsystemLyapunov, VerifyTolerances, \
    active_set, build_composite, verify_composite_flow, verify_composite_jump, verify_subsystem
from .equiv import WFormCertificate, majorize_lambda, to_v_form, to_w_form
from .trajectories import AGEstimate, BatchResult, Beta, ISSEstimate, PreGSEstimate, \
    TrajectoryGains, check_ag, check_iss, check_pre_gs, check_zero_input_prestability, \
    fit_empirical_gain, run_estimate_batch
from .config import ProjectConfig, build_config, load_config

__version__ = "0.1.0"
