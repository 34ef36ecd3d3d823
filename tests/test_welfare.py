import dataclasses
import random
from fractions import Fraction as F

import pytest

from twostage import (
    ActionProfile,
    LinearContract,
    PayHalfwayContract,
    StandardContract,
    TerminateHalfwayContract,
    best_response,
    max_welfare,
    profile_cost,
    profile_reward,
    random_instance,
)
from twostage import welfare
from twostage.generators import cost_ladder_instance

from oracles import brute_force_max_welfare, reference_max_welfare, tie_heavy_variants


def test_profile_reward_worked_example(midterm):
    assert profile_reward(midterm, ActionProfile(0, {0: 0, 1: 1})) == F(49, 10)
    # the null initial action goes to the fail state for sure, so the pass
    # state, which it never reaches, may be left out
    assert profile_reward(midterm, ActionProfile(1, {0: 1, 1: 1})) == F(1, 2)
    assert profile_reward(midterm, ActionProfile(1, {0: 1})) == F(1, 2)
    assert profile_cost(midterm, ActionProfile(1, {0: 0})) == 2


def test_profile_reward_zero_rewards():
    inst = random_instance("general", seed=3)
    zeroed = type(inst)((F(0),) * inst.num_outcomes, inst.initial_actions, inst.states)
    profile = ActionProfile(0, {s: 0 for s in range(zeroed.num_states)})
    assert profile_reward(zeroed, profile) == 0


def test_profile_cost_worked_examples(midterm, interim_review):
    assert profile_cost(midterm, ActionProfile(0, {0: 0, 1: 0})) == F(29, 10)
    assert profile_cost(midterm, ActionProfile(1, {0: 1, 1: 1})) == 0
    assert profile_cost(interim_review, ActionProfile(0, {0: 0, 1: 1})) == F(201, 25)  # 8.04


def test_max_welfare_worked_examples(midterm, interim_review):
    report = max_welfare(midterm)
    assert report.max_welfare == F(29, 10)
    assert report.argmax_profile == ActionProfile(0, {0: 0, 1: 1})
    assert report.per_state_best[0].value == F(2)  # fail state: effort surplus 4 - 2

    # The best plan skips the costly initial action entirely: its 1.92 surplus
    # loses to taking the bad state head on (surplus 2 for sure).
    report2 = max_welfare(interim_review)
    assert report2.max_welfare == F(2)
    assert report2.argmax_profile.initial == 1
    assert report2.argmax_profile.finals[0] == 0


def test_max_welfare_cost_ladder_closed_form():
    for n1, n2 in ((1, 1), (2, 2), (3, 2)):
        assert max_welfare(cost_ladder_instance(n1, n2)).max_welfare == (n1 + 1) * n2 + 1


def test_max_welfare_matches_brute_force():
    for seed in range(60):
        kind = ("general", "tree", "deterministic_first_stage", "stochastic_first_stage")[seed % 4]
        inst = random_instance(kind, seed=seed, max_states=4, max_final_actions=4)
        report = max_welfare(inst)
        assert report.max_welfare == brute_force_max_welfare(inst)
        recomputed = profile_reward(inst, report.argmax_profile) - profile_cost(
            inst, report.argmax_profile
        )
        assert recomputed == report.max_welfare
        assert report.max_welfare >= 0  # the all-null profile costs nothing


def _random_contract(inst, rng):
    m, s = inst.num_outcomes, inst.num_states
    kind = rng.randrange(4)
    if kind == 0:
        return StandardContract(tuple(F(rng.randint(0, 8), 2) for _ in range(m)))
    if kind == 1:
        return LinearContract(F(rng.randint(0, 4), 4))
    if kind == 2:
        return PayHalfwayContract(
            tuple(F(rng.randint(0, 4), 2) for _ in range(s)),
            tuple(F(rng.randint(0, 8), 2) for _ in range(m)),
        )
    blocked = frozenset(t for t in range(s) if rng.random() < 0.4)
    return TerminateHalfwayContract(tuple(F(rng.randint(0, 8), 2) for _ in range(m)), blocked)


def test_profit_never_exceeds_welfare():
    rng = random.Random(99)
    for seed in range(80):
        inst = random_instance("general", seed=seed)
        contract = _random_contract(inst, rng)
        response = best_response(inst, contract)
        assert response.principal_profit <= max_welfare(inst).max_welfare


def test_profile_reward_index_errors(midterm):
    # Both functions refuse what evaluate_profile refuses, with its message.
    # Negative indices would wrap to the last action or state.
    cases = [
        (ActionProfile(0, {0: 0}), r"profile is missing finals for states \[1\]"),  # a reached state
        (ActionProfile(5, {0: 0, 1: 0}), "initial action index 5 is out of range"),
        (ActionProfile(-1, {0: 0, 1: 0}), "initial action index -1 is out of range"),
        (ActionProfile(0, {0: -1, 1: 0}), "final action index -1 at state 0 is out of range"),
        (ActionProfile(0, {0: 0, 1: 2}), "final action index 2 at state 1 is out of range"),
        (ActionProfile(0, {0: 0, 1: 0, 5: 0}), r"profile assigns finals to states \[5\], instance has 2 states"),
        (ActionProfile(0, {-1: 0, 0: 0, 1: 0}), r"profile assigns finals to states \[-1\], instance has 2 states"),
    ]
    for profile, message in cases:
        for function in (profile_reward, profile_cost):
            with pytest.raises(ValueError, match=f"^{message}$"):
                function(midterm, profile)


def test_max_welfare_matches_the_reference_report_ties_included():
    # The whole report is compared: value, argmax profile, and each state's
    # best final and value, so a changed tie-break fails here.  Odd-indexed
    # outcomes lose 7 in the negative-reward copies.
    kinds = ("general", "tree", "deterministic_first_stage", "stochastic_first_stage")
    checked = 0
    for kind in kinds:
        for seed in range(60):
            inst = random_instance(kind, seed=seed, max_states=4, max_final_actions=4)
            for variant in [inst, *tie_heavy_variants(inst)]:
                negative = tuple(r - 7 * (m % 2) for m, r in enumerate(variant.rewards))
                for case in (variant, dataclasses.replace(variant, rewards=negative)):
                    assert max_welfare(case) == reference_max_welfare(case), (kind, seed, case)
                    checked += 1
    assert checked == 4 * 60 * 5 * 2


def test_max_welfare_report_is_kept_on_the_instance(interim_review, monkeypatch):
    calls = []
    induction = welfare.backward_induction
    monkeypatch.setattr(welfare, "backward_induction", lambda *args: calls.append(1) or induction(*args))
    instance = dataclasses.replace(interim_review)
    first = max_welfare(instance)
    assert max_welfare(instance) == first == reference_max_welfare(instance)
    assert max_welfare(instance) is first and len(calls) == 1
    # kept out of equality, hashing and repr, and not carried over by replace
    assert instance == interim_review and hash(instance) == hash(interim_review)
    assert repr(instance) == repr(interim_review)
    fresh = dataclasses.replace(instance)
    assert "_max_welfare" not in vars(fresh)
    assert max_welfare(fresh) == first and max_welfare(fresh) is not first
    assert len(calls) == 2
