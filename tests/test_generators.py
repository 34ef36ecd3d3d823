import hashlib
import inspect
import re
from fractions import Fraction as F
from pathlib import Path

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
    _CAP_NAMES,
    _FAMILIES,
    FAMILIES,
    _rung,
    cost_ladder_instance,
    interim_review_instance,
    midterm_instance,
    payment_gap_instance,
    state_markers_instance,
)
from twostage.model import instance_to_json

# One SHA-256 of the instance JSON per family with every parameter given,
# then three rows of defaults, so any change to a family's bytes shows here.
CAPS = {"s": 4, "n1": 2, "n2": 3, "m": 6}
PINNED = [
    ("midterm", {}, "b34494ba3ac193e9bbed4a78828dd304734d5056c14dde2c7b1e7d4012fa1c71"),
    ("interim_review", {}, "04539ff29c39ae15050736747ead3a859805168e737a184c42ff46d51be3df93"),
    ("payment_gap", {"p": "9/10", "q": "1/2", "c": "1", "x": "20"},
     "b7d70c46cce7c5fec1926176e589682f8e556f101682e3cd0de9b206e8364f1d"),
    ("cost_ladder", {"n1": 2, "n2": 3, "growth": "3/2", "r": "1e4"},
     "285df5d55817dd6c51b273984a097c06234adb91aa350b0ba4358c8c3f34a5b1"),
    ("state_markers", {"s": 2, "n2": 2, "growth": 3, "epsilon": "1/100", "r": "1e5"},
     "95d6fa2b727fe53fb5e3ca041055051c899053486a72b72c1fe03be2e6abcefb"),
    ("random_tree", {"seed": 11, **CAPS}, "4682594fd692df1331e6b039577fbf3ad5e1f1aeb6779924cede21378d3b64fe"),
    ("random_stochastic", {"seed": 11, **CAPS}, "840c079f38b967a0a526b2e1d2167119b3b9a60e8fc559337343b7fbc0bfbf87"),
    ("random_deterministic", {"seed": 11, **CAPS}, "aec38f7ea226d0664f61f096214e78f4d70656693a8a33026fb31687935d61e2"),
    ("random_general", {"seed": 11, **CAPS}, "8f2b32de7e0d9e085caabfd846b801669a467ba9e1b8cb612f9e71420b6c7963"),
    ("cost_ladder", {"n1": 2, "n2": 2}, "a90aa54464132a76dabf98a031b11d63c7f0ab2c11257e8195a8cddadf019863"),
    ("state_markers", {"s": 2, "n2": 1}, "bcd32ee215fe8dbb4434b785aac699552df6241c3f4db706f9482ebd35b7421f"),
    ("random_general", {"seed": 5}, "1cc5259bae06cd4f90474411e86e30a8bed16b8beaf656d058a84b7d8d108625"),
]


@pytest.mark.parametrize("family, params, digest", PINNED)
def test_every_family_is_pinned_byte_for_byte(family, params, digest):
    text = instance_to_json(generate(FamilyParams(family, params)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_the_pinned_table_covers_every_family():
    assert sorted({family for family, _, _ in PINNED}) == sorted(FAMILIES)


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
    with pytest.raises(ValueError, match="^missing required parameter 'p'$"):
        generate(FamilyParams("payment_gap", {"q": "1/2", "c": 1, "x": 20}))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: cost_ladder_instance(F(5, 2), 2), "n1"),
        (lambda: cost_ladder_instance(2, 2.5), "n2"),
        (lambda: state_markers_instance(1.9, 2), "s"),
        (lambda: state_markers_instance(1, "3/2"), "n2"),
        *((lambda cap=cap: random_instance("tree", seed=1, **{cap: 2.5}), cap)
          for cap in ("max_states", "max_initial_actions", "max_final_actions", "max_outcomes")),
        (lambda: random_instance("tree", seed="7/2"), "seed"),
    ],
)
def test_builders_refuse_non_integral_sizes(build, name):
    # These were truncated (or failed inside randrange) before.
    with pytest.raises(ValueError, match=f"^parameter '{name}' must be an integer, got "):
        build()


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: random_instance("tree", seed=True), "seed"),
        (lambda: cost_ladder_instance(True, 2), "n1"),
        (lambda: generate(FamilyParams("random_tree", {"seed": True})), "seed"),
    ],
    ids=["seed", "n1", "generate-seed"],
)
def test_builders_refuse_booleans_for_integer_parameters(build, name):
    # These built the instances of 1 before; the rational rule refuses True too.
    with pytest.raises(ValueError, match=f"^parameter '{name}' must be an integer, got True$"):
        build()


def test_builders_accept_integral_sizes_of_any_type():
    assert cost_ladder_instance(F(2), 2.0) == cost_ladder_instance("4/2", "2") == cost_ladder_instance(2, 2)
    assert state_markers_instance(2.0, F(1)) == state_markers_instance(2, 1)
    assert random_instance("tree", seed=1, max_states=2.0) == random_instance("tree", seed=1, max_states=2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: payment_gap_instance(0.9, F(1, 2), 1, 20),
        lambda: payment_gap_instance(F(9, 10), 0.5, 1, 20),
        lambda: payment_gap_instance(F(9, 10), F(1, 2), 1.0, 20),
        lambda: payment_gap_instance(F(9, 10), F(1, 2), 1, 20.0),
        lambda: cost_ladder_instance(1, 1, growth=1.1),
        lambda: cost_ladder_instance(1, 1, r=1e6),
        lambda: state_markers_instance(1, 1, growth=10.0),
        lambda: state_markers_instance(1, 1, epsilon=0.001),
        lambda: state_markers_instance(1, 1, r=1e6),
    ],
)
def test_builders_refuse_floats_for_rational_parameters(build):
    # Fraction(1.1) would be the binary float, a 47-digit value; generate refuses floats too.
    with pytest.raises(ValueError, match=r"^floating-point literal \S+ is not exact; write it as a string$"):
        build()


def test_builders_take_rational_parameters_as_generate_does():
    assert payment_gap_instance("9/10", "0.5", 1, F(20)) == generate(
        FamilyParams("payment_gap", {"p": "0.9", "q": "1/2", "c": "1", "x": "20"})
    )
    assert cost_ladder_instance(1, 1, growth="11/10", r=10**6) == generate(
        FamilyParams("cost_ladder", {"n1": 1, "n2": 1, "growth": "1.1", "r": "1e6"})
    )
    assert state_markers_instance(1, 1, growth=F(10), epsilon="1e-3") == generate(
        FamilyParams("state_markers", {"s": 1, "n2": 1, "epsilon": "1/1000"})
    )
    assert random_instance("tree", seed="7") == random_instance("tree", seed=7) == random_instance("tree", seed=F(7))


def test_state_markers_needs_a_work_state():
    with pytest.raises(ValueError, match=r"^requires s >= 1 and n2 >= 1; got s=0, n2=1$"):
        state_markers_instance(0, 1)


# ``random_instance``'s keyword for each size cap's name in a parameter map.
CAP_KEYWORDS = {"s": "max_states", "n1": "max_initial_actions", "n2": "max_final_actions", "m": "max_outcomes"}


@pytest.mark.parametrize(
    "family, params, bad",
    [
        ("cost_ladder", {"n1": F(5, 2), "n2": 2}, "'n1'"),
        ("state_markers", {"s": "1.9", "n2": 2}, "'s'"),
        ("random_tree", {"seed": "7/2"}, "'seed'"),
        ("random_general", {"seed": 1, "m": 2.5}, "'m'"),
        ("random_tree", {"seed": 1, "s": F(5, 2)}, "'s'"),
    ],
)
def test_non_integer_integer_parameters_are_rejected(family, params, bad):
    name = bad.strip("'")
    if family.startswith("random_"):  # a size cap is named by random_instance's keyword
        name = CAP_KEYWORDS.get(name, name)
    with pytest.raises(ValueError, match=f"^parameter '{name}' must be an integer, got "):
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
        cost = sum((growth**i for i in range(1, k + 1)), F(0))
        assert _rung(growth, k) == (cost, cost + k), k


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
@pytest.mark.parametrize("param, cap", list(CAP_KEYWORDS.items()))
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


def _readme_generator_table():
    """{family: {parameter: default text or None}} from README's generator table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("### Generator families", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        params = dict(re.findall(r"`(\w+)`(?: \(default ([^)]+)\))?", cells[1]))
        for family in re.findall(r"`(\w+)`", cells[0]):
            table[family] = {name: default or None for name, default in params.items()}
    return table


def test_readme_generator_table_matches_the_builders():
    table = _readme_generator_table()
    assert list(table) == list(FAMILIES)
    for family, documented in table.items():
        parameters = inspect.signature(_FAMILIES[family]).parameters.values()
        accepted = {_CAP_NAMES.get(p.name, p.name): p.default for p in parameters}
        assert set(documented) == set(accepted), family
        for name, default in documented.items():
            builder_default = accepted[name]
            if builder_default in (inspect.Parameter.empty, None):
                assert default is None, (family, name)
            else:
                assert default is not None and F(default) == builder_default, (family, name)
