"""Differential tests of the integer kernels against the ``Fraction`` forms
they replaced: parsing, validation, expectations, the agent's backward
induction, profile values, and the thresholds and sampling loop of
``simulate``."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import (
    ActionProfile,
    FinalAction,
    InitialAction,
    Instance,
    InstanceFormatError,
    LinearContract,
    PayHalfwayContract,
    StandardContract,
    State,
    TerminateHalfwayContract,
    classify,
    evaluate_profile,
    parse_rational,
    profile_cost,
    profile_reward,
    random_instance,
    simulate,
    validate,
)
from twostage.agent import _cdf_thresholds, backward_induction, best_response
from twostage.generators import state_markers_instance
from twostage.model import dot, integers, scale

from oracles import (
    EVALUATE_CAPS,
    contract_pieces,
    expected_per_final,
    profile_value,
    reference_backward_induction,
    reference_cdf_thresholds,
    reference_classify,
    reference_expectation,
    reference_profile_cost,
    reference_profile_reward,
    reference_simulate,
    reference_validate,
    tie_heavy_variants,
)

KINDS = ("tree", "stochastic_first_stage", "deterministic_first_stage", "general")


def fraction_or_error(text):
    """``Fraction(text)``, or the ``InstanceFormatError`` parse_rational must raise instead."""
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        return InstanceFormatError


def parsed_or_error(text):
    try:
        return parse_rational(text)
    except InstanceFormatError:
        return InstanceFormatError


@pytest.mark.parametrize(
    "text",
    ["-0", "007", "3/0", "0/0", "1/-2", "--1", "-", "/", "1/", "/2", " 1/2", "1/2 ", "1 / 2", "\t2\n",
     "+3", "1_0", "1__0", "_1", "0.5", "1e-5", "١", "²", "１", "-0/5", "00/01", "4/2", "1/2/3", ""],
)
def test_parse_rational_matches_fraction_on_edge_spellings(text):
    assert parsed_or_error(text) == fraction_or_error(text)


PLAIN = st.from_regex(r"\A-?[0-9]{1,40}(/[0-9]{1,40})?\Z")
ODD = st.text(alphabet="0123456789-+/_. \t\n١²１٣", max_size=12)
# Exponents stay small: a large one is refused by the digit limit, not by Fraction.
EXPONENT = st.from_regex(r"\A\s?[-+]?[0-9_]{0,3}\.?[0-9]{0,3}[eE][-+]?[0-9]{1,2}\s?\Z")


@settings(max_examples=400, deadline=None)
@given(st.one_of(PLAIN, ODD, EXPONENT))
def test_parse_rational_matches_fraction(text):
    assert parsed_or_error(text) == fraction_or_error(text)


def _replace_row(instance, which, index, row):
    """A copy with the ``index``-th transition (``which == 0``) or outcome row replaced."""
    if which == 0:
        actions = list(instance.initial_actions)
        actions[index] = dataclasses.replace(actions[index], transition=row)
        return dataclasses.replace(instance, initial_actions=tuple(actions))
    return _replace_final(instance, index, outcome_dist=row)


def _finals(instance):
    return [(s, j) for s, state in enumerate(instance.states) for j in range(len(state.final_actions))]


def _replace_final(instance, index, **fields):
    s, j = _finals(instance)[index]
    finals = list(instance.states[s].final_actions)
    finals[j] = dataclasses.replace(finals[j], **fields)
    states = list(instance.states)
    states[s] = State(states[s].name, tuple(finals))
    return dataclasses.replace(instance, states=tuple(states))


def mutations(instance, rng):
    """Copies of the instance, each with one invariant possibly broken."""
    rows = [(0, i, a.transition) for i, a in enumerate(instance.initial_actions)]
    rows += [(1, k, instance.states[s].final_actions[j].outcome_dist) for k, (s, j) in enumerate(_finals(instance))]
    which, index, row = rng.choice(rows)
    k = rng.randrange(len(row))
    yield _replace_row(instance, which, index, row[:k] + (F(-1, rng.randint(1, 5)),) + row[k + 1:])
    yield _replace_row(instance, which, index, row[:k] + (1 + F(1, rng.randint(1, 5)),) + row[k + 1:])
    yield _replace_row(instance, which, index, row[:k] + (row[k] + F(rng.choice((-1, 1)), 10**9),) + row[k + 1:])
    yield _replace_row(instance, which, index, ())
    final = rng.randrange(len(_finals(instance)))
    yield _replace_final(instance, final, cost=F(-rng.randint(1, 5), rng.randint(1, 3)))
    yield _replace_final(instance, final, cost=F(0))
    initials = tuple(dataclasses.replace(a, cost=a.cost or F(1, 2)) for a in instance.initial_actions)
    yield dataclasses.replace(instance, initial_actions=initials)  # no zero-cost initial action


@pytest.mark.parametrize("kind", KINDS)
def test_validate_and_classify_match_fraction_references(kind):
    rng = random.Random(f"validate:{kind}")
    broken = 0
    for seed in range(60):
        instance = random_instance(kind, seed=seed, max_states=4, max_final_actions=4)
        assert validate(instance) == reference_validate(instance) and validate(instance).ok
        assert classify(instance) == reference_classify(instance)
        for mutated in mutations(instance, rng):
            report = validate(mutated)
            assert report == reference_validate(mutated)
            assert classify(mutated) == reference_classify(mutated)
            broken += not report.ok
    assert broken == 60 * 6  # every mutation but the zero cost breaks an invariant


def structural_breaks(instance):
    """Copies of the instance with no outcomes, no states, no initial actions
    or a state without final actions."""
    yield dataclasses.replace(instance, rewards=())
    yield dataclasses.replace(instance, states=())
    yield dataclasses.replace(instance, initial_actions=())
    yield dataclasses.replace(instance, states=(State("empty", ()), *instance.states[1:]))


# An outcome row one entry longer than the rewards: its extra entry is an outcome of its own.
LONG_OUTCOME_ROW = Instance((1,), (InitialAction("a", 0, (1,)),), (State("s", (FinalAction("n", 0, (0, 1)),)),))


@pytest.mark.parametrize("kind", KINDS)
def test_structural_violations_match_the_fraction_reference(kind):
    rules = set()
    inputs = [b for seed in range(10) for b in structural_breaks(random_instance(kind, seed=seed))]
    for broken in [*inputs, LONG_OUTCOME_ROW]:
        report = validate(broken)
        assert report == reference_validate(broken) and not report.ok
        assert classify(broken) == reference_classify(broken)
        rules.update(str(v) for v in report.violations)
    assert {
        "rewards: at least one outcome is required",
        "states: at least one intermediate state is required",
        "initial_actions: at least one initial action is required",
        "states[0]: state has no final actions",
        "states[0].final_actions[0].outcome_dist: expected 1 entries, got 2",
    } <= rules


SIZED = state_markers_instance(3, 2, F(10), F(1, 1000))
SIZED_VALUES = sorted(
    set(SIZED.rewards)
    | {a.cost for s in SIZED.states for a in s.final_actions}
    | {p for s in SIZED.states for a in s.final_actions for p in a.outcome_dist}
)
RATIONALS = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
    st.sampled_from(SIZED_VALUES),
    st.sampled_from(SIZED_VALUES).map(lambda v: -v),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(RATIONALS, RATIONALS), max_size=12))
def test_expectation_matches_fraction_sum(pairs):
    probabilities = [p for p, _ in pairs]
    values = [v for _, v in pairs]
    numerators, denominator = scale(values)
    assert [F(n, denominator) for n in numerators] == values
    assert dot(scale(probabilities), (numerators, denominator)) == reference_expectation(probabilities, values)


def test_expectation_on_state_markers_rows():
    # Each final's row as the instance's integer view keeps it, over the
    # state's one denominator, as expected_state_reward takes it.
    rewards, view = scale(SIZED.rewards), integers(SIZED)
    for s, state in enumerate(SIZED.states):
        for act, dist in zip(state.final_actions, view.outcome_dists[s]):
            expected = reference_expectation(act.outcome_dist, SIZED.rewards)
            assert dot((dist, view.state_scales[s]), rewards) == expected


def _contract(rng, instance, kind):
    transfers = tuple(F(rng.randint(0, 20), rng.choice((1, 2, 3, 4))) for _ in range(instance.num_outcomes))
    if kind == "standard":
        return StandardContract(transfers)
    if kind == "linear":
        return LinearContract(F(rng.randint(0, 20), 20))
    if kind == "pay_halfway":
        return PayHalfwayContract(tuple(F(rng.randint(0, 8), 3) for _ in range(instance.num_states)), transfers)
    return TerminateHalfwayContract(transfers, frozenset(s for s in range(instance.num_states) if rng.random() < 0.3))


def test_simulate_matches_reference_loop_float_for_float():
    rng = random.Random("simulate-reference")
    for draw in range(20):
        instance = random_instance(KINDS[draw % 4], seed=draw, max_states=6, max_final_actions=5, max_outcomes=6)
        for kind in ("standard", "linear", "pay_halfway", "terminate_halfway"):
            contract = _contract(rng, instance, kind)
            seed = rng.randrange(2**31)
            assert simulate(instance, contract, 2000, seed) == reference_simulate(instance, contract, 2000, seed)


CONTRACT_KINDS = ("standard", "linear", "pay_halfway", "terminate_halfway")


@pytest.mark.parametrize("kind", KINDS)
def test_backward_induction_matches_fraction_reference(kind):
    # The reference takes each final's expected transfer from per-entry
    # Fraction sums; the induction takes the outcome transfers themselves.
    # Odd-indexed outcomes lose 7 in the negative-reward copies, so negative
    # reward numerators reach the integer compare.
    rng = random.Random(f"induction:{kind}")
    for seed in range(30):
        instance = random_instance(kind, seed=seed, **EVALUATE_CAPS)
        for tied in [instance, *tie_heavy_variants(instance)]:
            negative = tuple(r - 7 * (m % 2) for m, r in enumerate(tied.rewards))
            for variant in (tied, dataclasses.replace(tied, rewards=negative)):
                zeros = (F(0),) * variant.num_states
                welfare = reference_backward_induction(variant, expected_per_final(variant, variant.rewards), zeros)
                assert backward_induction(variant, variant.rewards, zeros, frozenset()) == welfare
                for contract_kind in CONTRACT_KINDS:
                    contract = _contract(rng, variant, contract_kind)
                    transfers, state_transfers, terminated = contract_pieces(variant, contract)
                    final_transfers = expected_per_final(variant, transfers, terminated)
                    expected = reference_backward_induction(variant, final_transfers, state_transfers)
                    assert backward_induction(variant, transfers, state_transfers, terminated) == expected
                    if contract_kind == "linear" and min(variant.rewards) < 0:
                        with pytest.raises(ValueError, match="non-negative"):
                            best_response(variant, contract)
                    else:
                        assert best_response(variant, contract) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_profile_values_match_fraction_references(kind):
    # evaluate_profile against the direct sums of oracles.profile_value, and
    # profile_reward/profile_cost against their former running sums, on random
    # profiles.  Unreached states come from sparse transitions and from the
    # tie-heavy variant with an unreachable copy of a state; the reward and
    # cost must not read a final there, so a profile may leave them out.
    rng = random.Random(f"profile-values:{kind}")
    unreached = 0
    for seed in range(30):
        instance = random_instance(kind, seed=seed, **EVALUATE_CAPS)
        for variant in (instance, tie_heavy_variants(instance)[-1]):
            states = range(variant.num_states)
            for contract_kind in CONTRACT_KINDS:
                contract = _contract(rng, variant, contract_kind)
                terminated = contract_pieces(variant, contract)[2]
                i = rng.randrange(variant.num_initial_actions)
                finals = {s: rng.randrange(len(variant.states[s].final_actions)) for s in states}
                profile = ActionProfile(i, {s: j for s, j in finals.items() if s not in terminated})
                got = evaluate_profile(variant, contract, profile)
                assert (got.agent_utility, got.expected_payment, got.principal_profit) == profile_value(
                    variant, contract, profile
                )
                total = ActionProfile(i, finals)
                reward, cost = reference_profile_reward(variant, total), reference_profile_cost(variant, total)
                assert (profile_reward(variant, total), profile_cost(variant, total)) == (reward, cost)
                transition = variant.initial_actions[i].transition
                reached = ActionProfile(i, {s: j for s, j in finals.items() if transition[s]})
                assert (profile_reward(variant, reached), profile_cost(variant, reached)) == (reward, cost)
                unreached += len(reached.finals) < variant.num_states
    assert unreached > 100


@pytest.mark.parametrize(
    "row",
    [
        (F(1),),
        (F(0),),
        (F(1, 3),),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(1, 2), F(0), F(1, 2)),
        (F(0), F(1, 3), F(0), F(2, 3), F(0)),
        (F(1, 7), F(2, 7), F(0), F(4, 7)),
        (F(1, 6), F(1, 3), F(1, 2)),
        (F(1, 10**20), F(10**20 - 1, 10**20)),
    ],
)
def test_cdf_thresholds_match_fraction_reference(row):
    assert _cdf_thresholds(*scale(row)) == reference_cdf_thresholds(row)


def test_cdf_thresholds_match_fraction_reference_on_instance_rows():
    # simulate samples from the rows of the instance's integer view, over the
    # denominator each row shares with its group's costs and rows, which need
    # not be the row's own least one; the thresholds must not depend on it.
    shared = 0
    for draw in range(40):
        instance = random_instance(KINDS[draw % 4], seed=draw, **EVALUATE_CAPS)
        view = integers(instance)
        rows = [(a.transition, row, view.initial_scale) for a, row in zip(instance.initial_actions, view.transitions)]
        for state, dists, denominator in zip(instance.states, view.outcome_dists, view.state_scales):
            rows += [(act.outcome_dist, row, denominator) for act, row in zip(state.final_actions, dists)]
        for fractions, row, denominator in rows:
            assert _cdf_thresholds(row, denominator) == reference_cdf_thresholds(fractions)
            shared += denominator != scale(fractions)[1]
    assert shared > 100
