import dataclasses
import random
import re
from fractions import Fraction as F

import pytest

from twostage import (
    ActionProfile,
    FinalAction,
    InitialAction,
    Instance,
    LinearContract,
    PayHalfwayContract,
    StandardContract,
    State,
    TerminateHalfwayContract,
    best_response,
    evaluate_profile,
    expected_state_reward,
    max_welfare,
    min_payment_pay,
    min_payment_standard,
    min_payment_terminate,
    profile_cost,
    profile_reward,
    random_instance,
    simulate,
    state_breakpoints,
)
from twostage import agent, model
from twostage.model import integers

from oracles import EVALUATE_CAPS, brute_force_best_response, profile_value

KINDS = ("tree", "stochastic_first_stage", "deterministic_first_stage", "general")


def test_pay_halfway_worked_example(midterm):
    contract = PayHalfwayContract((F(0), F(2)), (F(0), F(1, 10)))
    response = best_response(midterm, contract)
    assert response.profile == ActionProfile(0, {0: 1, 1: 1})
    assert response.agent_utility == F(91, 1000)
    assert response.principal_profit == F(2659, 1000)
    assert response.per_state_utility == (F(1, 100), F(1, 10))


def test_terminate_halfway_worked_example(interim_review):
    contract = TerminateHalfwayContract((F(0), F(41, 5)), frozenset({0}))
    response = best_response(interim_review, contract)
    assert response.profile == ActionProfile(0, {1: 1})
    assert response.principal_profit == F(891, 500)
    assert response.expected_payment == F(99, 100) * F(41, 5)


def test_all_zero_standard_contract_is_free(midterm):
    response = best_response(midterm, StandardContract((F(0), F(0))))
    assert response.agent_utility == 0
    assert response.expected_payment == 0
    from twostage import profile_cost

    assert profile_cost(midterm, response.profile) == 0


def test_initial_tie_breaks_toward_principal(midterm):
    # At t = (0, 20/9) both initial actions give the agent 2/9; effort earns
    # the principal 91/36 versus 5/18 for the null action.
    response = best_response(midterm, StandardContract((F(0), F(20, 9))))
    assert response.profile == ActionProfile(0, {0: 1, 1: 1})
    assert response.agent_utility == F(2, 9)
    assert response.principal_profit == F(91, 36)


def test_evaluate_profile_examples(midterm, interim_review):
    ev = evaluate_profile(midterm, StandardContract((F(0), F(0))), ActionProfile(0, {0: 1, 1: 1}))
    assert ev.agent_utility == F(-9, 5)
    assert ev.expected_payment == 0

    ev2 = evaluate_profile(
        interim_review,
        TerminateHalfwayContract((F(0), F(800, 99)), frozenset({0})),
        ActionProfile(0, {1: 1}),
    )
    assert ev2.agent_utility == 0
    assert ev2.principal_profit == F(19, 10)


def test_evaluate_profile_validates_state_coverage(interim_review):
    terminate = TerminateHalfwayContract((F(0), F(8)), frozenset({0}))
    with pytest.raises(ValueError):
        evaluate_profile(interim_review, terminate, ActionProfile(0, {0: 0, 1: 1}))
    with pytest.raises(ValueError):
        evaluate_profile(interim_review, terminate, ActionProfile(0, {}))


@pytest.mark.parametrize(
    "profile, named",
    [
        (ActionProfile(-1, {0: -1, 1: 0}), "initial action index -1"),
        (ActionProfile(2, {0: 0, 1: 0}), "initial action index 2"),
        (ActionProfile(0, {0: -1, 1: 0}), "final action index -1 at state 0"),
        (ActionProfile(1, {0: 0, 1: 2}), "final action index 2 at state 1"),
        (ActionProfile(0, {0: 0, 1: 1, 2: 0}), r"^profile assigns finals to states \[2\], instance has 2 states$"),
        (ActionProfile(1, {-1: 0, 0: 0, 1: 1}), r"^profile assigns finals to states \[-1\], instance has 2 states$"),
    ],
)
def test_evaluate_profile_rejects_out_of_range_indices(midterm, profile, named):
    for contract in (StandardContract((F(0), F(1))), LinearContract(F(1, 2))):
        with pytest.raises(ValueError, match=named):
            evaluate_profile(midterm, contract, profile)


# Each entry that reads a caller's index, with the index at each of its
# positions; ``bad`` is what stands there.  A float or a string used to fail
# deep inside with a TypeError, and a bool was read as 0 or 1.
INDEX_POSITIONS = {
    "initial action": lambda bad: ActionProfile(bad, {0: 1, 1: 1}),
    "state": lambda bad: ActionProfile(0, {0: 1, bad: 1}),
    "final action": lambda bad: ActionProfile(0, {0: bad, 1: 1}),
}
PROFILE_ENTRIES = {
    "min_payment_standard": min_payment_standard,
    "min_payment_pay": min_payment_pay,
    "min_payment_terminate": lambda instance, profile: min_payment_terminate(instance, frozenset(), profile),
    "profile_reward": profile_reward,
    "profile_cost": profile_cost,
    "evaluate_profile": lambda instance, profile: evaluate_profile(instance, StandardContract((F(0), F(1))), profile),
}
NOT_INDICES = {"float": 1.0, "bool": True, "string": "1"}


@pytest.mark.parametrize("entry", sorted(PROFILE_ENTRIES))
@pytest.mark.parametrize("position", sorted(INDEX_POSITIONS))
@pytest.mark.parametrize("kind", sorted(NOT_INDICES))
def test_a_profile_index_that_is_not_an_integer_is_refused(midterm, entry, position, kind):
    bad = NOT_INDICES[kind]
    message = re.escape(f"{position} index must be an integer, not {bad!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        PROFILE_ENTRIES[entry](midterm, INDEX_POSITIONS[position](bad))


@pytest.mark.parametrize("kind", sorted(NOT_INDICES))
def test_a_state_or_final_index_that_is_not_an_integer_is_refused(midterm, kind):
    bad = NOT_INDICES[kind]
    for position, call in [
        ("state", lambda: expected_state_reward(midterm, bad, 0)),
        ("final action", lambda: expected_state_reward(midterm, 0, bad)),
        ("state", lambda: state_breakpoints(midterm, bad)),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{position} index must be an integer, not {bad!r}')}$"):
            call()


def test_numpy_integer_indices_are_read_as_indices(midterm):
    numpy = pytest.importorskip("numpy")
    one = numpy.int64(1)
    profile = ActionProfile(0, {0: 1, 1: 1})
    assert profile_reward(midterm, ActionProfile(numpy.int64(0), {0: one, one: one})) == profile_reward(midterm, profile)
    assert min_payment_standard(midterm, ActionProfile(0, {numpy.int64(0): one, 1: one})) == min_payment_standard(
        midterm, profile
    )
    assert expected_state_reward(midterm, one, one) == expected_state_reward(midterm, 1, 1)
    assert state_breakpoints(midterm, one) == state_breakpoints(midterm, 1)


@pytest.mark.parametrize(
    "episodes, seed, message",
    [
        (True, 0, "episodes must be an integer, not True"),
        (2.5, 0, "episodes must be an integer, not 2.5"),
        ("10", 0, "episodes must be an integer, not '10'"),
        (10, None, "seed must be an integer, not None"),
        (10, 7.0, "seed must be an integer, not 7.0"),
        (10, False, "seed must be an integer, not False"),
    ],
)
def test_simulate_refuses_an_episode_count_or_seed_that_is_not_an_integer(midterm, episodes, seed, message):
    # True ran one episode, 2.5 raised a bare TypeError, and a None seed drew
    # a different sample on every call (0.77, then 0.63 on interim_review).
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate(midterm, StandardContract((F(0), F(3))), episodes, seed)


def test_simulate_reads_numpy_integers_as_python_ints(midterm):
    # numpy.int64 episodes gave numpy.float64 fields, and a numpy.int64 seed
    # raised random's TypeError.
    numpy = pytest.importorskip("numpy")
    contract = StandardContract((F(0), F(3)))
    expected = simulate(midterm, contract, 10, 7)
    for episodes, seed in [(numpy.int64(10), 7), (10, numpy.int64(7)), (numpy.int64(10), numpy.int64(7))]:
        result = simulate(midterm, contract, episodes, seed)
        assert result == expected
        assert all(type(value) is float for value in dataclasses.astuple(result))


def test_dimension_mismatch_raises(midterm):
    with pytest.raises(ValueError):
        best_response(midterm, StandardContract((F(0), F(1), F(2))))
    with pytest.raises(ValueError):
        best_response(midterm, PayHalfwayContract((F(0),), (F(0), F(0))))
    with pytest.raises(ValueError):
        best_response(midterm, TerminateHalfwayContract((F(0), F(0)), frozenset({9})))


def test_linear_contract_requires_nonnegative_rewards(midterm):
    negative = type(midterm)((F(-1), F(5)), midterm.initial_actions, midterm.states)
    with pytest.raises(ValueError):
        best_response(negative, LinearContract(F(1, 2)))


def _random_contract(inst, rng):
    m, s = inst.num_outcomes, inst.num_states
    kind = rng.randrange(4)
    if kind == 0:
        return StandardContract(tuple(F(rng.randint(0, 9), 3) for _ in range(m)))
    if kind == 1:
        return LinearContract(F(rng.randint(0, 6), 6))
    if kind == 2:
        return PayHalfwayContract(
            tuple(F(rng.randint(0, 5), 2) for _ in range(s)),
            tuple(F(rng.randint(0, 9), 3) for _ in range(m)),
        )
    blocked = frozenset(t for t in range(s) if rng.random() < 0.35)
    return TerminateHalfwayContract(tuple(F(rng.randint(0, 9), 3) for _ in range(m)), blocked)


def test_best_response_matches_exhaustive_search():
    rng = random.Random(17)
    for seed in range(80):
        inst = random_instance("general", seed=seed, max_states=4, max_final_actions=4)
        contract = _random_contract(inst, rng)
        response = best_response(inst, contract)
        utility, profit, _ = brute_force_best_response(inst, contract)
        assert response.agent_utility == utility
        assert response.principal_profit == profit
        assert response.agent_utility >= 0  # null actions guarantee participation
        check = profile_value(inst, contract, response.profile)
        assert check == (response.agent_utility, response.expected_payment, response.principal_profit)


def test_scaling_standard_transfers_never_hurts_agent():
    rng = random.Random(23)
    for seed in range(40):
        inst = random_instance("general", seed=seed)
        transfers = tuple(F(rng.randint(0, 6), 2) for _ in range(inst.num_outcomes))
        mu = F(rng.randint(3, 9), 2)
        base = best_response(inst, StandardContract(transfers))
        scaled = best_response(inst, StandardContract(tuple(mu * t for t in transfers)))
        assert scaled.agent_utility >= base.agent_utility


def test_terminate_everything_zeroes_everyone(midterm):
    contract = TerminateHalfwayContract((F(0), F(5)), frozenset({0, 1}))
    response = best_response(midterm, contract)
    assert response.agent_utility == 0
    assert response.expected_payment == 0
    assert response.principal_profit == 0
    assert response.profile.finals == {}


def test_pay_with_zero_state_transfers_equals_standard():
    for seed in range(30):
        inst = random_instance("general", seed=seed)
        transfers = tuple(F((seed * 7 + k) % 5, 2) for k in range(inst.num_outcomes))
        std = best_response(inst, StandardContract(transfers))
        pay = best_response(
            inst, PayHalfwayContract((F(0),) * inst.num_states, transfers)
        )
        assert std == pay


def test_simulate_is_deterministic(midterm):
    contract = PayHalfwayContract((F(0), F(2)), (F(0), F(1, 10)))
    one = simulate(midterm, contract, episodes=1, seed=99)
    again = simulate(midterm, contract, episodes=1, seed=99)
    assert one == again
    assert simulate(midterm, contract, episodes=500, seed=1) == simulate(
        midterm, contract, episodes=500, seed=1
    )


def test_simulate_tracks_exact_profit(midterm):
    contract = PayHalfwayContract((F(0), F(2)), (F(0), F(1, 10)))
    result = simulate(midterm, contract, episodes=200_000, seed=7)
    assert abs(result.empirical_profit - 2.659) <= 4 * result.std_error
    assert result.std_error > 0


def test_simulate_rejects_bad_episode_count(midterm):
    with pytest.raises(ValueError):
        simulate(midterm, StandardContract((F(0), F(0))), episodes=0, seed=1)


@pytest.mark.parametrize(
    "rewards, transfers, message",
    [
        (None, ("0", "1e400"), "the profit of outcome 1 at state 0 is -1.000000E+400, which is past float range"),
        (None, ("0", "1e200"), "the profit of outcome 1 at state 0 is -1.000000E+200, which has a square past float range"),
        (("0", "1e400"), ("0", "0"), "the profit of outcome 1 at state 0 is 1.000000E+400, which is past float range"),
        (None, ("0", "1e154"), "the sums over the episodes are past float range"),
    ],
    ids=["transfer-1e400", "transfer-1e200", "reward-1e400", "sums"],
)
def test_simulate_refuses_values_past_float_range(midterm, rewards, transfers, message):
    # These raised OverflowError, or returned a std_error of 0.0 from an
    # infinite sum of squares, before.
    instance = midterm if rewards is None else dataclasses.replace(midterm, rewards=tuple(map(F, rewards)))
    with pytest.raises(ValueError) as refused:
        simulate(instance, StandardContract(tuple(map(F, transfers))), episodes=50, seed=1)
    assert str(refused.value) == f"{message}; simulate samples in floats"


def _with_an_undrawn_outcome_and_state():
    """One free initial action that reaches state 0 only, whose one final never gives outcome 2."""
    final = FinalAction("null", F(0), (F(1, 2), F(1, 2), F(0)))
    states = (State("reached", (final,)), State("unreached", (final,)))
    return Instance((F(0), F(1), F(1)), (InitialAction("null", F(0), (F(1), F(0))),), states)


@pytest.mark.parametrize(
    "huge, small",
    [
        (StandardContract((F(0), F(1), F(10**200))), StandardContract((F(0), F(1), F(0)))),
        (PayHalfwayContract((F(0), F(10**200)), (F(0), F(1), F(0))), PayHalfwayContract((F(0), F(0)), (F(0), F(1), F(0)))),
    ],
    ids=["outcome-of-probability-0", "unreached-state"],
)
def test_simulate_ignores_values_no_episode_can_draw(huge, small):
    # Both raised ValueError when every outcome at every state was converted.
    instance = _with_an_undrawn_outcome_and_state()
    assert simulate(instance, huge, episodes=500, seed=3) == simulate(instance, small, episodes=500, seed=3)


def _one_contract_of_each_kind(instance):
    transfers = tuple(F(k % 3, 2) for k in range(instance.num_outcomes))
    return [
        StandardContract(transfers),
        LinearContract(F(1, 3)),
        PayHalfwayContract(tuple(F(s, 4) for s in range(instance.num_states)), transfers),
        TerminateHalfwayContract(transfers, frozenset({0})),
    ]


def _inductions(instance, seed):
    """``best_response`` and ``simulate`` under each kind of contract, and ``max_welfare``."""
    contracts = _one_contract_of_each_kind(instance)
    return [
        *(lambda inst, c=c: best_response(inst, c) for c in contracts),
        *(lambda inst, c=c: simulate(inst, c, 10, seed) for c in contracts),
        max_welfare,
    ]


def test_one_induction_scales_four_vectors_whatever_the_number_of_states(monkeypatch):
    # The transfers, then the initial action's agent values, principal values
    # and payments; no state scales anything of its own.  The view is built
    # first, so its own conversion, the rewards included, is not counted.
    calls = []
    for module in (model, agent):
        monkeypatch.setattr(module, "scale", lambda values, scale=module.scale: calls.append(1) or scale(values))
    for seed in range(8):
        instance = random_instance(KINDS[seed % 4], seed=seed, **EVALUATE_CAPS)
        for entry in _inductions(instance, seed)[:4] + [max_welfare]:
            fresh = dataclasses.replace(instance)
            integers(fresh)
            calls.clear()
            entry(fresh)
            assert len(calls) == 4
