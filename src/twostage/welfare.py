"""Expected reward, expected cost and maximal welfare of action profiles.

A profile's reward and cost are each read from its one outcome mixture by
``agent._profile_expectation``, after ``agent._check_profile`` has refused,
with a ``ValueError``, an initial action, state or final index outside the
instance, or a state left out that the initial action reaches (the states it
never reaches may be left out); the instance's integer view,
``model.integers``, then refuses an invalid instance.

Maximal welfare needs no search of its own: it is the agent's backward
induction (``agent.backward_induction``) when every outcome pays the agent
its own reward, nothing is paid on reaching a state and no state is
terminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .agent import _check_profile, _profile_expectation, backward_induction
from .model import ActionProfile, Instance, cached, integers


@dataclass(frozen=True)
class StateBest:
    """Best final action of one state by surplus (expected reward minus cost)."""

    final: int
    value: Fraction


@dataclass(frozen=True)
class WelfareReport:
    max_welfare: Fraction
    argmax_profile: ActionProfile
    per_state_best: tuple[StateBest, ...]


def profile_reward(instance: Instance, profile: ActionProfile) -> Fraction:
    """Expected reward of a total profile: sum over states of F[i,s] * R[s, j_s]."""
    _check_profile(instance, profile)
    return _profile_expectation(instance, profile, integers(instance).rewards)[1]


def profile_cost(instance: Instance, profile: ActionProfile) -> Fraction:
    """Expected cost of a total profile: c_i plus sum of F[i,s] * c[s, j_s]."""
    _check_profile(instance, profile)
    return instance.initial_actions[profile.initial].cost + _profile_expectation(instance, profile)[0]


def max_welfare(instance: Instance) -> WelfareReport:
    """Maximal welfare over all total profiles, by backward induction.

    Paid its own reward on every outcome, the agent's utility from any profile is its
    welfare and the principal's profit is zero, so the induction's tie rule
    leaves ties to the lowest action index and the argmax profile is
    deterministic.  The value equals the exhaustive maximum over all
    profiles (checked against a brute-force oracle in the test suite).
    The report is built on the first call for an instance and kept on it.
    """
    return cached(instance, "_max_welfare", _max_welfare)


def _max_welfare(instance: Instance) -> WelfareReport:
    response = backward_induction(instance, instance.rewards, (Fraction(0),) * instance.num_states, frozenset())
    finals = response.profile.finals
    per_state = tuple(StateBest(finals[s], value) for s, value in enumerate(response.per_state_utility))
    return WelfareReport(response.agent_utility, response.profile, per_state)
