from fractions import Fraction as F

import pytest

from twostage import (
    FamilyParams,
    classify,
    generate,
    max_welfare,
    random_instance,
    validate,
)
from twostage.generators import (
    FAMILIES,
    _geometric_sum,
    cost_ladder_instance,
    interim_review_instance,
    midterm_instance,
    payment_gap_instance,
    state_markers_instance,
)


def test_every_family_generates_a_valid_instance():
    params = {
        "payment_gap": {"p": "9/10", "q": "1/2", "c": 1, "x": 20},
        "cost_ladder": {"n1": 2, "n2": 2},
        "state_markers": {"s": 2, "n2": 2},
        "random_tree": {"seed": 3},
        "random_stochastic": {"seed": 3},
        "random_deterministic": {"seed": 3},
        "random_general": {"seed": 3},
    }
    for family in FAMILIES:
        inst = generate(FamilyParams(family, params.get(family, {})))
        assert validate(inst).ok, family


def test_unknown_family_and_extra_params_rejected():
    with pytest.raises(ValueError):
        generate(FamilyParams("mystery", {}))
    with pytest.raises(ValueError):
        generate(FamilyParams("midterm", {"p": 1}))
    with pytest.raises(ValueError):
        generate(FamilyParams("cost_ladder", {"n1": 2}))  # n2 missing


@pytest.mark.parametrize(
    "family, params, bad",
    [
        ("cost_ladder", {"n1": F(5, 2), "n2": 2}, "'n1'"),
        ("state_markers", {"s": "1.9", "n2": 2}, "'s'"),
        ("random_tree", {"seed": "7/2"}, "'seed'"),
        ("random_general", {"seed": 1, "m": 2.5}, "'m'"),
    ],
)
def test_non_integer_integer_parameters_are_rejected(family, params, bad):
    with pytest.raises(ValueError, match=f"parameter {bad} must be an integer, got "):
        generate(FamilyParams(family, params))


def test_integral_values_of_integer_parameters_are_accepted():
    expected = generate(FamilyParams("cost_ladder", {"n1": 2, "n2": 10}))
    for n1, n2 in ((F(2), 1e1), ("2.0", "1e1"), ("4/2", 10)):
        assert generate(FamilyParams("cost_ladder", {"n1": n1, "n2": n2})) == expected
    assert generate(FamilyParams("random_tree", {"seed": "3.0"})) == generate(FamilyParams("random_tree", {"seed": 3}))


def test_midterm_matches_its_story(midterm):
    assert midterm == midterm_instance()
    assert midterm.rewards == (F(0), F(5))
    assert midterm.initial_actions[0].cost == F(9, 5)
    assert midterm.initial_actions[0].transition == (F(1, 10), F(9, 10))
    assert midterm.states[0].final_actions[0].outcome_dist == (F(1, 5), F(4, 5))
    assert max_welfare(midterm).max_welfare == F(29, 10)


def test_interim_review_well_state_always_succeeds():
    inst = interim_review_instance()
    well = inst.states[1]
    assert well.name == "well"
    assert all(act.outcome_dist == (F(0), F(1)) for act in well.final_actions)
    bad = inst.states[0]
    assert bad.final_actions[0].cost == F(4)
    assert bad.final_actions[0].outcome_dist == (F(2, 5), F(3, 5))
    assert max_welfare(inst).max_welfare == F(2)


def test_payment_gap_shape_and_welfare():
    p, q, c, x = F(9, 10), F(1, 2), F(1), F(20)
    inst = payment_gap_instance(p, q, c, x)
    assert classify(inst).label == "general"
    report = max_welfare(inst)
    assert report.max_welfare == x - (1 - q) * c
    # under the parameter constraint the risky initial action plus the paid
    # finals is always the welfare argmax
    assert report.argmax_profile.initial == 1
    assert report.argmax_profile.finals == {0: 0, 1: 0, 2: 0}
    assert inst.initial_actions[0].transition == (p, F(0), 1 - p)
    assert inst.initial_actions[1].transition == (q, 1 - q, F(0))


@pytest.mark.parametrize(
    "p,q,c,x,message",
    [
        (F(1, 2), F(9, 10), F(1), F(20), "0 < q < p < 1"),
        (F(9, 10), F(1, 2), F(5), F(4), "0 < c < x"),
        (F(9, 10), F(1, 2), F(1), F(10), "x > (1+p-q)*c/(1-p)"),
    ],
)
def test_payment_gap_names_the_violated_inequality(p, q, c, x, message):
    with pytest.raises(ValueError, match=None) as err:
        payment_gap_instance(p, q, c, x)
    assert message in str(err.value)


@pytest.mark.parametrize("growth", [F(2), F(10), F(3, 2), F(10**30 + 1, 10**30)])
def test_geometric_sum_equals_its_definition(growth):
    for k in range(41):
        assert _geometric_sum(growth, k) == sum((growth**i for i in range(1, k + 1)), F(0)), k


def test_cost_ladder_shape():
    inst = cost_ladder_instance(2, 2, F(10))
    assert classify(inst).is_deterministic_first_stage
    assert inst.num_states == 3
    assert inst.num_initial_actions == 3
    assert inst.rewards == (F(0), F(10**8))  # smallest power of ten above the top reward
    assert inst.initial_actions[2].cost == sum(F(10) ** k for k in range(1, 8))
    assert max_welfare(inst).max_welfare == F(7)


def test_cost_ladder_parameter_checks():
    with pytest.raises(ValueError):
        cost_ladder_instance(0, 2)
    with pytest.raises(ValueError):
        cost_ladder_instance(2, 2, growth=F(1))
    with pytest.raises(ValueError):
        cost_ladder_instance(2, 2, r=F(100))  # probabilities would exceed 1
    explicit = cost_ladder_instance(2, 2, r=F(2 * 10**8))
    assert validate(explicit).ok


def test_state_markers_shape():
    s, n2 = 2, 2
    inst = state_markers_instance(s, n2, F(10), F(1, 1000))
    assert classify(inst).is_stochastic_first_stage
    assert inst.num_states == 2 * s + 1
    assert inst.num_outcomes == s + 3
    # sink state u leads deterministically to outcome u - s + 2 (1-based)
    for u in range(s + 1, 2 * s + 2):
        sink = inst.states[u - 1]
        for act in sink.final_actions:
            assert act.outcome_dist[(u - s + 2) - 1] == 1
    # top ladder rung marks the state-specific outcome, lower rungs the shared one
    work1 = inst.states[0]
    assert work1.final_actions[n2 - 1].outcome_dist[(1 + 2) - 1] == F(1, 1000)
    assert work1.final_actions[0].outcome_dist[(s + 3) - 1] == F(1, 1000)
    assert max_welfare(inst).max_welfare == F(2)


def test_state_markers_parameter_checks():
    with pytest.raises(ValueError):
        state_markers_instance(2, 2, epsilon=F(2))
    with pytest.raises(ValueError):
        state_markers_instance(2, 2, growth=F(1, 2))
    with pytest.raises(ValueError):
        state_markers_instance(2, 2, r=F(10))


def test_random_instance_is_deterministic_in_seed():
    assert random_instance("tree", seed=7) == random_instance("tree", seed=7)
    assert random_instance("general", seed=7) != random_instance("general", seed=8)


def test_random_instance_class_flags():
    for seed in range(20):
        assert classify(random_instance("tree", seed=seed)).is_tree
        stochastic = random_instance("stochastic_first_stage", seed=seed)
        assert stochastic.num_initial_actions == 1
        det = random_instance("deterministic_first_stage", seed=seed)
        assert classify(det).is_deterministic_first_stage
        assert validate(random_instance("general", seed=seed)).ok


def test_random_instance_rejects_unknown_kind():
    with pytest.raises(ValueError):
        random_instance("spooky", seed=1)


@pytest.mark.parametrize("family", ["random_tree", "random_stochastic", "random_deterministic", "random_general"])
@pytest.mark.parametrize(
    "param, cap", [("s", "max_states"), ("n1", "max_initial_actions"), ("n2", "max_final_actions"), ("m", "max_outcomes")]
)
@pytest.mark.parametrize("value", [0, -1])
def test_random_families_reject_caps_below_one(family, param, cap, value):
    # random_tree with m=0 and random_stochastic with n1=0 draw nothing from
    # that cap, yet are refused like the rest.
    with pytest.raises(ValueError, match=f"^{cap} must be at least 1, got {value}$"):
        generate(FamilyParams(family, {"seed": 1, param: value}))


def test_random_instance_accepts_caps_of_one():
    for kind in ("tree", "stochastic_first_stage", "deterministic_first_stage", "general"):
        inst = random_instance(kind, seed=5, max_states=1, max_initial_actions=1, max_final_actions=1, max_outcomes=1)
        assert validate(inst).ok
        assert (inst.num_states, inst.num_initial_actions, inst.max_final_actions, inst.num_outcomes) == (1, 1, 1, 1)
