from fractions import Fraction as F

import pytest

from twostage import (
    ActionProfile,
    FamilyParams,
    FinalAction,
    InitialAction,
    Instance,
    LinearContract,
    State,
    analyze,
    best_response,
    generate,
    optimal_linear,
    optimal_standard,
    random_instance,
    state_breakpoints,
)
from twostage.generators import cost_ladder_instance, interim_review_instance

from oracles import EVALUATE_CAPS, tie_heavy_variants


def _single_state(reward, actions):
    return Instance(
        rewards=(F(0), F(reward)),
        initial_actions=(InitialAction("null", F(0), (F(1),)),),
        states=(State("s", tuple(actions)),),
    )


def test_state_breakpoints_two_line_envelope():
    inst = _single_state(
        5,
        [
            FinalAction("effort", F(2), (F(0), F(1))),  # line 5a - 2
            FinalAction("null", F(0), (F(1), F(0))),  # line 0
        ],
    )
    assert state_breakpoints(inst, 0) == [F(2, 5)]


def test_state_breakpoints_worked_example(midterm):
    assert state_breakpoints(midterm, 0) == [F(4, 7)]
    assert state_breakpoints(midterm, 1) == []  # effort dominated: same reward, higher cost


@pytest.mark.parametrize("state", [-1, 2, 5])  # -1 would read state 1's knees
def test_state_breakpoints_refuses_a_state_outside_the_instance(midterm, state):
    with pytest.raises(ValueError, match=f"^state index {state} is out of range$"):
        state_breakpoints(midterm, state)


def test_analyze_worked_example(midterm):
    analysis = analyze(midterm)
    assert [bp.alpha for bp in analysis.breakpoints] == [F(4, 9), F(4, 7)]
    assert analysis.optimal.alpha == F(4, 9)
    assert analysis.optimal.profit == F(91, 36)
    # left of 4/9 everyone idles; right of it the costly initial action runs
    first = analysis.segments[0]
    assert first.profile == ActionProfile(1, {0: 1, 1: 1})
    assert (first.reward, first.cost) == (F(1, 2), F(0))
    second = analysis.segments[1]
    assert second.profile == ActionProfile(0, {0: 1, 1: 1})
    assert (second.reward, second.cost) == (F(91, 20), F(9, 5))


def test_optimal_linear_matches_optimal_standard_on_worked_example(midterm):
    assert optimal_linear(midterm).profit == optimal_standard(midterm).profit == F(91, 36)


def test_single_nontrivial_action_breakpoint_at_cost_over_reward():
    inst = _single_state(
        8,
        [
            FinalAction("work", F(3), (F(0), F(1))),
            FinalAction("null", F(0), (F(1), F(0))),
        ],
    )
    analysis = analyze(inst)
    assert [bp.alpha for bp in analysis.breakpoints] == [F(3, 8)]
    # at the breakpoint the tie goes to the action the principal prefers
    assert analysis.optimal == type(analysis.optimal)(F(3, 8), (1 - F(3, 8)) * 8)


def test_all_zero_rewards_profit_zero_at_alpha_zero():
    inst = _single_state(0, [FinalAction("null", F(0), (F(1), F(0)))])
    optimum = optimal_linear(inst)
    assert optimum.alpha == 0
    assert optimum.profit == 0


def test_negative_reward_rejected(midterm):
    negative = Instance((F(-1), F(5)), midterm.initial_actions, midterm.states)
    with pytest.raises(ValueError):
        analyze(negative)


def test_linear_never_beats_standard_on_interim_review():
    inst = interim_review_instance()
    assert optimal_linear(inst).profit <= optimal_standard(inst).profit == F(6, 5)


def test_cost_ladder_optimum_sits_at_the_null_breakpoint():
    # The first costly composite (cost 1110, expected reward 1113) becomes
    # worthwhile at alpha = 1110/1113, where the indifferent agent hands the
    # principal the full surplus 3 = (1 - alpha) * 1113.
    inst = cost_ladder_instance(2, 2, F(10))
    optimum = optimal_linear(inst)
    assert optimum.alpha == F(1110, 1113)
    assert optimum.profit == F(3)


def test_breakpoint_count_and_segment_rewards_on_random_instances():
    for seed in range(50):
        inst = random_instance("general", seed=seed, max_states=4, max_final_actions=4)
        analysis = analyze(inst)
        bound = inst.num_states * inst.num_initial_actions * inst.max_final_actions
        assert len(analysis.breakpoints) <= bound
        rewards = [seg.reward for seg in analysis.segments]
        assert rewards == sorted(rewards)


def test_segment_profiles_agree_with_best_response_at_midpoints():
    for seed in range(40):
        inst = random_instance("general", seed=seed)
        for seg in analyze(inst).segments:
            mid = (seg.alpha_low + seg.alpha_high) / 2
            response = best_response(inst, LinearContract(mid))
            assert response.profile == seg.profile


def test_telescoping_welfare_bound():
    # Welfare telescopes through the segment path: each profile switch at
    # breakpoint alpha adds at most (1 - alpha) * (reward after the switch),
    # anchored at the zero profile.
    from twostage import max_welfare

    for seed in range(50):
        inst = random_instance("general", seed=seed, max_states=4)
        analysis = analyze(inst)
        path = []
        for seg in analysis.segments:
            if not path or (seg.reward, seg.cost) != path[-1]:
                path.append((seg.reward, seg.cost))
        total = F(0)
        prev_reward, prev_cost = F(0), F(0)
        for reward, cost in path:
            assert reward > prev_reward or (reward, cost) == (F(0), F(0))
            if reward == prev_reward:
                continue
            alpha = (cost - prev_cost) / (reward - prev_reward)
            total += (1 - alpha) * reward
            prev_reward, prev_cost = reward, cost
        assert max_welfare(inst).max_welfare <= total


def assert_segments_predict_best_response(inst):
    """Each candidate alpha scores as the segments say, and so does the optimum.

    At a segment's left end the agent takes that segment's profile; at
    alpha = 1 the principal earns 0 and the agent the last segment's value.
    The optimum is the first candidate with the largest best-response profit.
    """
    analysis = analyze(inst)
    scored = []
    for seg in analysis.segments:
        response = best_response(inst, LinearContract(seg.alpha_low))
        assert response.profile == seg.profile, seg.alpha_low
        assert response.principal_profit == (1 - seg.alpha_low) * seg.reward, seg.alpha_low
        scored.append((seg.alpha_low, response.principal_profit))
    last = analysis.segments[-1]
    at_one = best_response(inst, LinearContract(1))
    assert at_one.principal_profit == 0
    assert at_one.agent_utility == last.reward - last.cost
    scored.append((F(1), at_one.principal_profit))
    alpha, profit = max(scored, key=lambda candidate: candidate[1])
    assert (analysis.optimal.alpha, analysis.optimal.profit) == (alpha, profit)


@pytest.mark.parametrize(
    "family,params",
    [
        ("midterm", {}),
        ("interim_review", {}),
        ("payment_gap", {"p": F(9, 10), "q": F(1, 2), "c": F(1), "x": F(20)}),
        ("payment_gap", {"p": F(3, 5), "q": F(1, 10), "c": F(1), "x": F(4)}),
        ("cost_ladder", {"n1": 2, "n2": 2}),
        ("cost_ladder", {"n1": 3, "n2": 3}),
        ("state_markers", {"s": 2, "n2": 2}),
        ("state_markers", {"s": 3, "n2": 2}),
        ("random_tree", {"seed": 3}),
        ("random_stochastic", {"seed": 3}),
        ("random_deterministic", {"seed": 3}),
        ("random_general", {"seed": 3, "s": 4, "n1": 4, "n2": 4}),
    ],
)
def test_segments_predict_best_response_on_families(family, params):
    inst = generate(FamilyParams(family, params))
    for variant in [inst, *tie_heavy_variants(inst)]:
        assert_segments_predict_best_response(variant)


@pytest.mark.parametrize(
    "kind", ["tree", "stochastic_first_stage", "deterministic_first_stage", "general"]
)
def test_segments_predict_best_response_on_random_instances(kind):
    for caps in ({"max_states": 4, "max_final_actions": 4}, EVALUATE_CAPS):
        for seed in range(60):
            inst = random_instance(kind, seed=seed, **caps)
            assert_segments_predict_best_response(inst)
            if seed % 5 == 0:
                for variant in tie_heavy_variants(inst):
                    assert_segments_predict_best_response(variant)
