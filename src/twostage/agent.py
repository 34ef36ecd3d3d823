"""Agent best response under a contract, and a sampling cross-check.

The agent solves her sequential problem by backward induction: best final
action per intermediate state first, then the initial action given the state
values, any state transfers, and the risk of termination.  Ties are broken in
the principal's favor (the principal can steer an indifferent agent via
recommendations), and remaining ties go to the lowest action index so results
are deterministic.  ``backward_induction`` is that induction once, over the
transfer paid on each outcome and on reaching each state.
``_contract_pieces`` is the one reader of a contract against an instance: it
gives those transfers and the terminated states, which ``best_response`` and
``simulate`` hand the induction; ``welfare.max_welfare`` hands it the rewards
themselves as transfers.

All computations are exact; ``simulate`` is the only place floats appear, as
sample statistics over exactly-sampled episodes.  Every probability, cost
and reward comes from the instance's integer view, ``model.integers``, and
every expected value is one integer dot product of its row with the view's
rewards or with transfers from ``model.scale``, a given profile's from its
one outcome mixture through ``_profile_expectation``.  Each state's choice of
final compares integers over one denominator.  Each entry refuses an invalid
instance when it first reads the view.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .model import (
    ActionProfile,
    Contract,
    Instance,
    LinearContract,
    PayHalfwayContract,
    StandardContract,
    TerminateHalfwayContract,
    _check_final,
    _integer,
    _mixture,
    _view,
    dot,
    integers,
    scale,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class BestResponse:
    """The agent's optimal behavior and its value to both parties.

    ``profile.finals`` covers exactly the non-terminated states.
    ``per_state_utility[s]`` is the agent's continuation value at state s
    (zero for terminated states).
    """

    profile: ActionProfile
    agent_utility: Fraction
    expected_payment: Fraction
    principal_profit: Fraction
    per_state_utility: tuple[Fraction, ...]


@dataclass(frozen=True)
class ProfileEvaluation:
    agent_utility: Fraction
    expected_payment: Fraction
    principal_profit: Fraction


@dataclass(frozen=True)
class SimulationResult:
    empirical_profit: float
    empirical_payment: float
    std_error: float


def _check_linear_rewards(instance: Instance) -> None:
    if any(r < 0 for r in instance.rewards):
        raise ValueError("linear contracts require all rewards to be non-negative")


def _check_terminate_set(instance: Instance, terminate_set) -> None:
    if not all(0 <= s < instance.num_states for s in terminate_set):
        raise ValueError("terminate_set contains an out-of-range state index")


def _contract_pieces(instance: Instance, contract: Contract):
    """(outcome transfers, state transfers, terminated states) of any contract;
    a ``ValueError`` refuses one that does not fit the instance.  A linear
    contract pays ``alpha * r`` on each outcome."""
    m, s = instance.num_outcomes, instance.num_states
    state_transfers, terminated = (_ZERO,) * s, frozenset()
    if isinstance(contract, StandardContract):
        transfers = contract.transfers
    elif isinstance(contract, LinearContract):
        _check_linear_rewards(instance)
        transfers = tuple(contract.alpha * r for r in instance.rewards)
    elif isinstance(contract, PayHalfwayContract):
        if len(contract.state_transfers) != s:
            raise ValueError(
                f"contract has {len(contract.state_transfers)} state transfers, instance has {s} states"
            )
        transfers, state_transfers = contract.transfers, contract.state_transfers
    elif isinstance(contract, TerminateHalfwayContract):
        _check_terminate_set(instance, contract.terminate_set)
        transfers, terminated = contract.transfers, contract.terminate_set
    else:
        raise TypeError(f"not a contract: {contract!r}")
    if len(transfers) != m:
        raise ValueError(f"contract has {len(transfers)} transfers, instance has {m} outcomes")
    return transfers, state_transfers, terminated


def _check_profile(instance: Instance, profile: ActionProfile, surviving: set[int] | None = None) -> None:
    """Raise ``ValueError`` unless the profile gives an in-range final to exactly the surviving states,
    by default the states it names and every state its initial action reaches.  Every index must
    pass ``model._is_index`` before any range is checked."""
    named = [("initial action", profile.initial)]
    for s, j in profile.finals.items():
        named += [("state", s), ("final action", j)]
    for what, value in named:
        _integer(f"{what} index", value)
    if not 0 <= profile.initial < instance.num_initial_actions:
        raise ValueError(f"initial action index {profile.initial} is out of range")
    assigned = set(profile.finals)
    if surviving is None:
        surviving = assigned | {s for s, n in enumerate(_view(instance).transitions[profile.initial]) if n}
    num_states = instance.num_states
    outside = sorted(s for s in assigned if not 0 <= s < num_states)
    if outside:
        raise ValueError(f"profile assigns finals to states {outside}, instance has {num_states} states")
    if assigned - surviving:
        raise ValueError(f"profile assigns finals to terminated states {sorted(assigned - surviving)}")
    if surviving - assigned:
        raise ValueError(f"profile is missing finals for states {sorted(surviving - assigned)}")
    for s, j in profile.finals.items():
        _check_final(instance, s, j)


def best_response(instance: Instance, contract: Contract) -> BestResponse:
    """Agent-optimal profile under the contract, ties favoring the principal."""
    return backward_induction(instance, *_contract_pieces(instance, contract))


def backward_induction(instance: Instance, transfers, state_transfers, terminated) -> BestResponse:
    """Agent-optimal profile given the outcome transfers, the state transfers and the terminated states.

    A terminated state is worth zero to both parties and so must have a zero
    state transfer.  Per state the agent maximizes expected transfer minus
    cost; within that argmax the principal's conditional profit decides, then
    the lowest index.  Each final's expected transfer and reward is one
    integer dot product of its row in the view with the scaled transfers and
    rewards, so all three are compared as integers over one denominator per
    state.  The initial action maximizes expected continuation value (plus
    state transfers) minus its cost, with the same two-level tie-breaking.
    Greedy per-state selection is globally correct because tying final
    actions have equal utility by definition, so the initial argmax set does
    not depend on which tying final is picked.
    """
    view = integers(instance)
    (tn, td), (rn, rd) = scale(transfers), view.rewards
    unit = td * rd
    num_states = instance.num_states
    finals: dict[int, int] = {}
    state_utility = [_ZERO] * num_states
    state_profit = [_ZERO] * num_states  # principal's conditional profit at s
    state_payment = [_ZERO] * num_states  # expected transfer of the chosen final at s
    for s, (dists, costs, denominator) in enumerate(zip(view.outcome_dists, view.final_costs, view.state_scales)):
        if s in terminated:
            continue
        # Over denominator * unit: each final's expected transfer and reward.
        paid = [sum(map(mul, dist, tn)) * rd for dist in dists]
        earned = [sum(map(mul, dist, rn)) * td for dist in dists]
        utility, profit, minus_j = max((p - c * unit, e - p, -j) for j, (p, e, c) in enumerate(zip(paid, earned, costs)))
        finals[s], whole = -minus_j, denominator * unit
        state_utility[s], state_profit[s] = Fraction(utility, whole), Fraction(profit, whole)
        state_payment[s] = Fraction(paid[-minus_j], whole)

    agent_values = scale([u + st for u, st in zip(state_utility, state_transfers)])
    principal_values = scale([v - st for v, st in zip(state_profit, state_transfers)])
    agent_utility, principal_profit, minus_i = max(
        (dot((t, view.initial_scale), agent_values) - act.cost, dot((t, view.initial_scale), principal_values), -i)
        for i, (act, t) in enumerate(zip(instance.initial_actions, view.transitions))
    )
    chosen = -minus_i
    payments = scale([t + st for t, st in zip(state_payment, state_transfers)])
    return BestResponse(
        profile=ActionProfile(chosen, finals),
        agent_utility=agent_utility,
        expected_payment=dot((view.transitions[chosen], view.initial_scale), payments),
        principal_profit=principal_profit,
        per_state_utility=tuple(state_utility),
    )


def evaluate_profile(
    instance: Instance, contract: Contract, profile: ActionProfile
) -> ProfileEvaluation:
    """Utility, payment and profit of a given (not necessarily optimal) profile.

    For terminate-halfway contracts the profile must assign finals to exactly
    the surviving states; for every other contract it must be total.
    """
    transfers, state_transfers, terminated = _contract_pieces(instance, contract)
    view = integers(instance)  # an invalid instance is refused before the profile is checked
    _check_profile(instance, profile, set(range(instance.num_states)) - terminated)

    cost, payment, reward = _profile_expectation(instance, profile, scale(transfers), view.rewards)
    payment += dot((view.transitions[profile.initial], view.initial_scale), scale(state_transfers))
    cost += instance.initial_actions[profile.initial].cost
    return ProfileEvaluation(payment - cost, payment, reward - payment)


def _profile_expectation(instance: Instance, profile: ActionProfile, *vectors) -> tuple[Fraction, ...]:
    """The expected final cost, then each outcome vector's expectation, each vector as ``model.scale``
    gives it, under the profile's outcome mixture: one ``model._mixture`` of its finals, weighted by
    its initial action's transition, so a state it names that it never reaches adds nothing."""
    view = integers(instance)
    outcomes, cost, common = _mixture(view, profile.finals, instance.num_outcomes)(view.transitions[profile.initial])
    whole = view.initial_scale * common
    return (Fraction(cost, whole), *(dot((outcomes, whole), vector) for vector in vectors))


def _cdf_thresholds(numerators, denominator) -> list[int]:
    """64-bit integer thresholds for exact inverse-CDF sampling of ``numerators[k] / denominator``.

    A uniform draw u in [0, 2**64) selects the first category k with
    u < ceil(C_k * 2**64); comparisons against the exact rational CDF are
    thereby integer-exact, with per-category bias below 2**-64.
    """
    return [-((-cum << 64) // denominator) for cum in accumulate(numerators)]


def _float(value: Fraction, what: str, squared: bool = False) -> float:
    """``value`` as a float; a ``ValueError`` names it if it, or its square, is past float range."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if math.isfinite(result * result if squared else result):
        return result
    past = "is" if math.isinf(result) else "has a square"
    shown = Decimal(value.numerator) / Decimal(value.denominator)
    raise ValueError(f"{what} is {shown:.6E}, which {past} past float range; simulate samples in floats")


def simulate(
    instance: Instance, contract: Contract, episodes: int, seed: int
) -> SimulationResult:
    """Monte Carlo estimate of the best-response profit and payment.

    Episodes sample the intermediate state and then the outcome from the
    exact distributions of the agent's best-response profile.  The same seed
    always produces the same result.  ``episodes`` and ``seed`` must pass
    ``model._is_index``.  A profit, its square or a payment that an episode
    can draw, or a sum, past float range raises ``ValueError``.
    """
    episodes, seed = _integer("episodes", episodes), _integer("seed", seed)
    if episodes < 1:
        raise ValueError("episodes must be a positive integer")
    transfers, state_transfers, terminated = _contract_pieces(instance, contract)
    response = backward_induction(instance, transfers, state_transfers, terminated)
    view, chosen = integers(instance), response.profile.initial

    state_thresholds = _cdf_thresholds(view.transitions[chosen], view.initial_scale)
    # Per state, None if terminated: the outcome thresholds of the chosen final
    # and each outcome's (profit, profit squared, payment).  A category of
    # probability 0 shares the previous threshold, is never drawn, and is None.
    tables: list[tuple[list[int], list[tuple[float, float, float] | None]] | None] = []
    for s, (reach, state_transfer) in enumerate(zip(view.transitions[chosen], state_transfers)):
        if s in terminated or not reach:
            tables.append(None)
            continue
        dist = view.outcome_dists[s][response.profile.finals[s]]
        outcomes = []
        for k, (p, r, t) in enumerate(zip(dist, instance.rewards, transfers)):
            if not p:
                outcomes.append(None)
                continue
            where = f"outcome {k} at state {s}"
            profit = _float(r - t - state_transfer, f"the profit of {where}", squared=True)
            outcomes.append((profit, profit * profit, _float(t + state_transfer, f"the payment of {where}")))
        tables.append((_cdf_thresholds(dist, view.state_scales[s]), outcomes))

    draw = random.Random(seed).getrandbits
    bisect = bisect_right
    profit_sum = 0.0
    profit_sumsq = 0.0
    payment_sum = 0.0
    for _ in repeat(None, episodes):
        table = tables[bisect(state_thresholds, draw(64))]
        if table is None:
            continue  # a terminated state: zero profit, zero payment
        thresholds, outcomes = table
        profit, square, payment = outcomes[bisect(thresholds, draw(64))]
        profit_sum += profit
        profit_sumsq += square
        payment_sum += payment

    if not math.isfinite(profit_sumsq + abs(payment_sum)):
        raise ValueError("the sums over the episodes are past float range; simulate samples in floats")
    n = episodes
    mean = profit_sum / n
    variance = max(0.0, (profit_sumsq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return SimulationResult(
        empirical_profit=mean,
        empirical_payment=payment_sum / n,
        std_error=math.sqrt(variance / n),
    )
