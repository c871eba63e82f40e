"""Exact laboratory for mediator-coordinated tabular Markov games.

Builds finite-horizon Markov games where a mediator privately recommends a
joint action each step, evaluates in closed form how much any strategic
agent could gain by filtering those recommendations, and trains mediator
policies from demonstrations with losses that are robust to such
deviations.
"""

from .games import (
    COMPLETE,
    CoverageError,
    DemonstrationSet,
    Deviation,
    DeviationClass,
    MarkovGame,
    MediatorPolicy,
    induced_joint_policy,
    induced_tables,
    sample_demonstrations,
    validate_game,
    validate_policy,
    with_common_reward,
)
from .evaluate import (
    BestResponse,
    EvalReport,
    OccupancyBundle,
    RegretReport,
    advantage_tensor,
    best_response_deviation,
    coverage_constant,
    enumerate_stationary_best_response,
    evaluate_pair,
    is_approx_ce,
    is_time_layered,
    moment_matching_error,
    occupancy_bundle,
    recoverability_constant,
    regret,
    regret_gap,
    regret_report,
    value,
    value_functions,
    value_gap,
    values,
)
from .losses import (
    CompositeMaxLoss,
    OCORun,
    blades_loss,
    malice_loss,
    oco_run,
    weighted_tv_loss,
)
from .learners import (
    ExpertOracle,
    JIRLResult,
    TrainConfig,
    TrainResult,
    blades_train,
    j_bc,
    j_irl,
    malice_train,
)
from .fixtures import (
    Fixture,
    alice_lb_game,
    coverage_lb_game,
    fig1_game,
    multi_ce_nfg,
    random_deviation_class,
    random_mg,
)
from . import io

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
