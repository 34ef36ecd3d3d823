"""Exact solvers for contracts over two-stage delegation processes.

The principal observes the intermediate state and the final outcome but not
the agent's actions.  This package computes the agent's best response to a
contract, maximal welfare, and the optimal standard, linear, pay-halfway and
terminate-halfway contracts, all in exact rational arithmetic.
"""

from types import ModuleType as _ModuleType

from .agent import BestResponse, ProfileEvaluation, SimulationResult, best_response, evaluate_profile, simulate
from .contracts import (
    DEFAULT_PROFILES_CAP,
    EnumerationCapExceeded,
    SolveReport,
    min_payment_pay,
    min_payment_standard,
    min_payment_terminate,
    optimal_pay,
    optimal_standard,
    optimal_terminate,
    pay_to_standard_tree,
    reduce_deterministic,
)
from .generators import (
    FAMILIES,
    FamilyParams,
    cost_ladder_instance,
    generate,
    interim_review_instance,
    midterm_instance,
    payment_gap_instance,
    random_instance,
    state_markers_instance,
)
from .linear import BreakpointAnalysis, LinearOptimum, analyze, optimal_linear, state_breakpoints
from .lp import (
    Constraint,
    LinearProgram,
    LpInfeasible,
    LpOptimal,
    LpResult,
    LpUnbounded,
    SolverInvariantError,
    solve_lp,
)
from .model import (
    ActionProfile,
    Contract,
    FinalAction,
    InitialAction,
    Instance,
    InstanceFormatError,
    LinearContract,
    PayHalfwayContract,
    ProcessClass,
    StandardContract,
    State,
    TerminateHalfwayContract,
    ValidationReport,
    Violation,
    classify,
    contract_from_json,
    contract_to_json,
    expected_state_reward,
    instance_from_json,
    instance_to_json,
    parse_rational,
    validate,
)
from .welfare import StateBest, WelfareReport, max_welfare, profile_cost, profile_reward

# The names imported above; the submodules their imports bind are not exported.
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
)
