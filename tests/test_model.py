import dataclasses
import inspect
import json
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twostage
from twostage import (
    ActionProfile,
    Constraint,
    FamilyParams,
    FinalAction,
    InitialAction,
    Instance,
    InstanceFormatError,
    LinearContract,
    LinearProgram,
    PayHalfwayContract,
    StandardContract,
    State,
    TerminateHalfwayContract,
    classify,
    contract_from_json,
    contract_to_json,
    best_response,
    expected_state_reward,
    generate,
    instance_from_json,
    instance_to_json,
    parse_rational,
    random_instance,
    validate,
)
from twostage.generators import cost_ladder_instance, state_markers_instance
from twostage import model
from twostage.model import contract_to_dict, scale

from oracles import tie_heavy_variants
from test_contracts import SEPARATION_FAMILIES


def test_parse_rational_decimal_and_ratio():
    assert parse_rational("0.9") == F(9, 10)
    assert parse_rational("9/10") == F(9, 10)
    assert parse_rational("5") == F(5)
    assert parse_rational(7) == F(7)
    assert parse_rational("-1.25") == F(-5, 4)
    assert parse_rational("2.5e3") == F(2500)
    assert parse_rational("1e-5") == F(1, 100000)
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == F(10) ** (limit - 1)


@pytest.mark.parametrize("bad", [0.9, True, "abc", "1/0", None, [1]])
def test_parse_rational_rejects_inexact_and_garbage(bad):
    with pytest.raises(InstanceFormatError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "text",
    ["1e1000000", "1e-1000000", "2.5e{limit}", "1" * 5000],
    ids=["exponent", "negative-exponent", "digits-and-exponent", "digits"],
)
def test_parse_rational_bounds_digits_plus_exponent(text):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InstanceFormatError, match=f"limit of {limit}"):
        parse_rational(text.format(limit=limit))


@pytest.mark.parametrize("text", ["9" * 100_000 + "x", "x" * 100_001], ids=["digits", "letters"])
def test_rejected_literal_is_echoed_as_a_bounded_prefix(text):
    with pytest.raises(InstanceFormatError) as err:
        parse_rational(text)
    message = str(err.value)
    assert len(message) < 300
    assert "(100001 characters)" in message


class _FractionSubclass(F):
    """A ``Fraction`` subclass: a constructor stores it as a plain ``Fraction``."""


def test_parse_rational_reads_numpy_integers_and_fraction_subclasses_as_plain_fractions():
    numpy = pytest.importorskip("numpy")
    for value, expected in [(numpy.int64(-4), F(-4)), (numpy.uint8(7), F(7)), (_FractionSubclass(1, 3), F(1, 3))]:
        read = parse_rational(value)
        assert type(read) is F and read == expected
        assert type(read.numerator) is int and type(read.denominator) is int


# Every rational field of every constructor: (build from a value at that
# field, read the stored value back).  A tuple field gets the value after a
# plain Fraction, so the inline reader meets both.
_RATIONAL_FIELDS = {
    "InitialAction.cost": (lambda v: InitialAction("a", v, (F(1),)), lambda o: o.cost),
    "InitialAction.transition": (lambda v: InitialAction("a", F(0), (F(0), v)), lambda o: o.transition[1]),
    "FinalAction.cost": (lambda v: FinalAction("j", v, (F(1),)), lambda o: o.cost),
    "FinalAction.outcome_dist": (lambda v: FinalAction("j", F(0), (F(0), v)), lambda o: o.outcome_dist[1]),
    "Instance.rewards": (lambda v: Instance((F(0), v), (), ()), lambda o: o.rewards[1]),
    "StandardContract.transfers": (lambda v: StandardContract((F(0), v)), lambda o: o.transfers[1]),
    "LinearContract.alpha": (LinearContract, lambda o: o.alpha),
    "PayHalfwayContract.state_transfers": (lambda v: PayHalfwayContract((F(0), v), (F(0),)), lambda o: o.state_transfers[1]),
    "PayHalfwayContract.transfers": (lambda v: PayHalfwayContract((F(0),), (F(0), v)), lambda o: o.transfers[1]),
    "TerminateHalfwayContract.transfers": (lambda v: TerminateHalfwayContract((F(0), v), ()), lambda o: o.transfers[1]),
    "Constraint.coeffs": (lambda v: Constraint((F(0), v), ">=", F(0)), lambda o: o.coeffs[1]),
    "Constraint.rhs": (lambda v: Constraint((F(0),), ">=", v), lambda o: o.rhs),
    "LinearProgram.objective": (lambda v: LinearProgram((F(0), v), ()), lambda o: o.objective[1]),
}

_REFUSED_RATIONALS = {
    "float": lambda: 0.1,
    "bool": lambda: True,
    "numpy-float64": lambda: pytest.importorskip("numpy").float64(0.5),
    "Decimal": lambda: Decimal("0.1"),
    "None": lambda: None,
}

# 1 rather than a larger integer, so that it is a valid LinearContract alpha too.
_ACCEPTED_RATIONALS = {
    "int": (lambda: 1, F(1)),
    "numpy-int64": (lambda: pytest.importorskip("numpy").int64(1), F(1)),
    "string": (lambda: "9/10", F(9, 10)),
    "Fraction-subclass": (lambda: _FractionSubclass(9, 10), F(9, 10)),
}


@pytest.mark.parametrize("value", _REFUSED_RATIONALS)
@pytest.mark.parametrize("field", _RATIONAL_FIELDS)
def test_constructors_refuse_what_parse_rational_refuses(field, value):
    # A float was stored as its binary value, a bool as 0 or 1, and a
    # Decimal was read as Fraction(Decimal); None raised a bare TypeError.
    build, _ = _RATIONAL_FIELDS[field]
    with pytest.raises(InstanceFormatError):
        build(_REFUSED_RATIONALS[value]())


@pytest.mark.parametrize("value", _ACCEPTED_RATIONALS)
@pytest.mark.parametrize("field", _RATIONAL_FIELDS)
def test_constructors_store_every_accepted_value_as_a_plain_fraction(field, value):
    build, read = _RATIONAL_FIELDS[field]
    make, expected = _ACCEPTED_RATIONALS[value]
    stored = read(build(make()))
    assert type(stored) is F and stored == expected


def test_validate_accepts_worked_example(midterm):
    assert validate(midterm).ok


def test_validate_flags_bad_transition_sum(midterm):
    broken = Instance(
        rewards=midterm.rewards,
        initial_actions=(
            InitialAction("effort", F(9, 5), (F(1, 10), F(8, 10))),
            midterm.initial_actions[1],
        ),
        states=midterm.states,
    )
    report = validate(broken)
    assert not report.ok
    assert any("does not sum to 1" in v.rule for v in report.violations)
    assert any("initial_actions[0]" in v.location for v in report.violations)


def test_validate_flags_missing_null_initial(midterm):
    broken = Instance(
        rewards=midterm.rewards,
        initial_actions=(midterm.initial_actions[0],),  # only the costly one
        states=midterm.states,
    )
    report = validate(broken)
    assert any("missing null initial action" in v.rule for v in report.violations)


def test_validate_flags_missing_null_final(midterm):
    costly_only = State("fail", (midterm.states[0].final_actions[0],))
    broken = Instance(midterm.rewards, midterm.initial_actions, (costly_only, midterm.states[1]))
    report = validate(broken)
    assert any("missing null final action" in v.rule for v in report.violations)


def test_validate_flags_negative_cost_and_bad_probability(midterm):
    broken = Instance(
        rewards=midterm.rewards,
        initial_actions=(
            InitialAction("weird", F(-1), (F(3, 2), F(-1, 2))),
            midterm.initial_actions[1],
        ),
        states=midterm.states,
    )
    rules = [v.rule for v in validate(broken).violations]
    assert any("non-negative" in r for r in rules)
    assert any("[0, 1]" in r for r in rules)


def test_classify_worked_example_is_general(midterm):
    pc = classify(midterm)
    assert not pc.is_tree
    assert not pc.is_stochastic_first_stage
    assert not pc.is_deterministic_first_stage
    assert pc.label == "general"


def test_classify_families():
    assert classify(cost_ladder_instance(2, 2)).is_deterministic_first_stage
    assert classify(state_markers_instance(2, 2)).is_stochastic_first_stage


def test_classify_random_classes_carry_their_flag():
    for seed in range(25):
        assert classify(random_instance("tree", seed=seed)).is_tree
        assert classify(random_instance("stochastic_first_stage", seed=seed)).is_stochastic_first_stage
        det = random_instance("deterministic_first_stage", seed=seed)
        assert classify(det).is_deterministic_first_stage


def test_classify_stable_under_final_action_permutation(midterm):
    shuffled = Instance(
        midterm.rewards,
        midterm.initial_actions,
        (
            State("fail", tuple(reversed(midterm.states[0].final_actions))),
            midterm.states[1],
        ),
    )
    assert classify(shuffled) == classify(midterm)


def test_expected_state_reward_worked_example(midterm):
    assert expected_state_reward(midterm, 0, 0) == F(4)  # fail, effort
    assert expected_state_reward(midterm, 1, 1) == F(5)  # pass, null
    with pytest.raises(ValueError, match="^state index 5 is out of range$"):
        expected_state_reward(midterm, 5, 0)


@pytest.mark.parametrize(
    "state, final, message",
    [
        (2, 0, "state index 2 is out of range"),
        (-1, 0, "state index -1 is out of range"),  # indexing would read state 1
        (0, -1, "final action index -1 at state 0 is out of range"),  # state 0's last final
        (0, 2, "final action index 2 at state 0 is out of range"),
    ],
)
def test_expected_state_reward_refuses_an_index_outside_the_instance(midterm, state, final, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        expected_state_reward(midterm, state, final)


def test_expected_state_reward_zero_reward_mass():
    inst = Instance(
        rewards=(F(0), F(7)),
        initial_actions=(InitialAction("null", F(0), (F(1),)),),
        states=(State("s", (FinalAction("null", F(0), (F(1), F(0))),)),),
    )
    assert expected_state_reward(inst, 0, 0) == 0


def test_expected_state_rewards_match_outcome_sums():
    kinds = ("general", "tree", "deterministic_first_stage", "stochastic_first_stage")
    for seed in range(40):
        inst = random_instance(kinds[seed % 4], seed=seed, max_states=4, max_final_actions=4)
        for s, state in enumerate(inst.states):
            for j, act in enumerate(state.final_actions):
                total = F(0)
                for m in range(inst.num_outcomes):
                    total += act.outcome_dist[m] * inst.rewards[m]
                assert expected_state_reward(inst, s, j) == total


def _view_groups(inst, view):
    """(actions, their probability rows, the view's rows, costs and denominator) per group."""
    yield (inst.initial_actions, [a.transition for a in inst.initial_actions], view.transitions, view.initial_costs,
           view.initial_scale)
    for state, rows, costs, denominator in zip(inst.states, view.outcome_dists, view.final_costs, view.state_scales):
        yield state.final_actions, [a.outcome_dist for a in state.final_actions], rows, costs, denominator


def test_the_integer_view_is_every_probability_and_cost_over_its_least_denominator():
    instances = [generate(FamilyParams(family, params)) for family, params in SEPARATION_FAMILIES]
    for seed in range(20):
        for kind in ("general", "tree", "deterministic_first_stage", "stochastic_first_stage"):
            inst = random_instance(kind, seed=seed)
            instances += [inst, *tie_heavy_variants(inst)]
    for inst in instances:
        view = model.integers(inst)
        assert model.integers(inst) is view  # kept on the instance
        assert len(view.outcome_dists) == inst.num_states
        for actions, fractions, rows, costs, denominator in _view_groups(inst, view):
            assert denominator == scale([a.cost for a in actions] + [p for row in fractions for p in row])[1]
            assert [F(c, denominator) for c in costs] == [a.cost for a in actions]
            assert [tuple(F(p, denominator) for p in row) for row in rows] == fractions


def test_the_integer_view_leaves_equality_hash_repr_and_json_alone():
    for seed in range(8):
        inst = random_instance("general", seed=seed)
        twin = instance_from_json(instance_to_json(inst))
        before = (hash(inst), repr(inst), instance_to_json(inst))
        assert model.integers(inst) is model.integers(inst)  # built once
        assert (hash(inst), repr(inst), instance_to_json(inst)) == before
        assert inst == twin and twin == inst and hash(twin) == hash(inst)
        assert "_integers" not in repr(inst)


def _expected_state_rewards(inst):
    return [[expected_state_reward(inst, s, j) for j in range(len(state.final_actions))] for s, state in enumerate(inst.states)]


def test_replaced_instance_reads_its_own_rewards(midterm):
    assert _expected_state_rewards(midterm) == [[F(4), F(1, 2)], [F(5), F(5)]]
    doubled = dataclasses.replace(midterm, rewards=(F(0), F(10)))
    assert _expected_state_rewards(doubled) == [[F(8), F(1)], [F(10), F(10)]]
    assert _expected_state_rewards(midterm) == [[F(4), F(1, 2)], [F(5), F(5)]]


def test_instance_round_trip_examples(midterm, interim_review):
    for inst in (midterm, interim_review, cost_ladder_instance(2, 2), state_markers_instance(1, 2)):
        assert instance_from_json(instance_to_json(inst)) == inst


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["tree", "general", "deterministic_first_stage"]))
def test_instance_round_trip_random(seed, kind):
    inst = random_instance(kind, seed=seed)
    assert instance_from_json(instance_to_json(inst)) == inst


def test_contract_round_trips():
    contracts = [
        StandardContract((F(0), F(20, 9))),
        LinearContract(F(4, 9)),
        PayHalfwayContract((F(0), F(2)), (F(0), F(1, 10))),
        TerminateHalfwayContract((F(0), F(41, 5)), frozenset({0})),
    ]
    for contract in contracts:
        assert contract_from_json(contract_to_json(contract)) == contract


def test_contract_parsing_rejects_bad_documents():
    with pytest.raises(InstanceFormatError):
        contract_from_json('{"kind": "mystery"}')
    with pytest.raises(InstanceFormatError):
        contract_from_json('{"t": ["1"]}')
    with pytest.raises(InstanceFormatError):
        contract_from_json('{"kind": "standard", "t": ["-1"]}')
    with pytest.raises(InstanceFormatError):
        contract_from_json("not json")


def test_instance_parsing_rejects_floats_and_shapes():
    with pytest.raises(InstanceFormatError):
        instance_from_json('{"rewards": [0.9], "initial_actions": [], "states": []}')
    with pytest.raises(InstanceFormatError):
        instance_from_json('[1, 2]')
    with pytest.raises(InstanceFormatError):
        instance_from_json('{"rewards": ["1"], "initial_actions": [5], "states": []}')


@pytest.mark.parametrize(
    "value,message",
    [(True, "not a rational number: True"), ([1], "not a rational number: [1]"), (1.0, "floating-point literal 1.0")],
    ids=["bool", "list", "float"],
)
def test_instance_documents_read_a_repeated_value_like_its_first(value, message):
    # A document reads each distinct string once; every other value still
    # goes to parse_rational, so True does not pass as the 1 read before it,
    # and a list is not a rational rather than a malformed document.
    doc = {"rewards": [1, "1", "1", "0"], "initial_actions": [], "states": []}
    assert instance_from_json(json.dumps(doc)).rewards == (F(1), F(1), F(1), F(0))
    doc["rewards"].append(value)
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}"):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "path,value",
    [
        (("rewards",), "05"),
        (("initial_actions",), {"effort": 1}),
        (("initial_actions", 0, "transition"), "01"),
        (("states",), "s"),
        (("states", 1, "final_actions"), {}),
        (("states", 0, "final_actions", 1, "outcome_dist"), {"0.2": 1, "0.8": 2}),
    ],
)
def test_instance_parsing_requires_arrays(midterm, path, value):
    doc = json.loads(instance_to_json(midterm))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(InstanceFormatError, match=f"{path[-1]} must be a JSON array"):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "path,value",
    [(("initial_actions", 0), None), (("states", 0), {"a": [1, 2]}), (("states", 1, "final_actions", 0), 5)],
)
def test_instance_parsing_requires_string_names(midterm, path, value):
    # A name that is present is kept as written, so anything but a string is
    # refused, naming its field, where str() once turned null into "None".
    # A missing name keeps its default.
    doc = json.loads(instance_to_json(midterm))
    target = doc
    for key in path:
        target = target[key]
    target["name"] = value
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]
    message = f"{where}.name must be a JSON string, not {value!r}"
    with pytest.raises(InstanceFormatError, match="^" + re.escape(message)):
        instance_from_json(json.dumps(doc))
    del target["name"]
    parsed = model.instance_to_dict(instance_from_json(json.dumps(doc)))
    for key in path:
        parsed = parsed[key]
    assert parsed["name"] == {"initial_actions": "i", "states": "s", "final_actions": "j"}[path[-2]] + str(path[-1])


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"kind": "standard", "t": "05"}, "t"),
        ({"kind": "pay_halfway", "s": "02", "t": ["0", "1"]}, "s"),
        ({"kind": "pay_halfway", "s": ["0", "2"], "t": {"0": 1, "1": 2}}, "t"),
        ({"kind": "terminate_halfway", "t": "05", "terminate_set": [0]}, "t"),
        ({"kind": "terminate_halfway", "t": ["0", "5"], "terminate_set": {}}, "terminate_set"),
    ],
)
def test_contract_parsing_requires_arrays(doc, field):
    with pytest.raises(InstanceFormatError, match=f"^{field} must be a JSON array"):
        contract_from_json(json.dumps(doc))


def test_contract_invariants():
    with pytest.raises(ValueError):
        StandardContract((F(-1),))
    with pytest.raises(ValueError):
        LinearContract(F(3, 2))
    with pytest.raises(ValueError):
        PayHalfwayContract((F(-1),), (F(0),))
    with pytest.raises(ValueError):
        TerminateHalfwayContract((F(0), F(-1)), frozenset())


@pytest.mark.parametrize("blocked", [{1.7}, {True}, {"1"}, [[0]]], ids=["float", "bool", "string", "unhashable"])
def test_a_terminate_set_refuses_what_is_not_a_state_index(blocked):
    # The first three were truncated to {1} by int(s).
    with pytest.raises(ValueError, match="^terminate_set must contain state indices$"):
        TerminateHalfwayContract((F(0), F(1)), blocked)


def test_a_terminate_set_keeps_state_indices_as_python_ints():
    numpy = pytest.importorskip("numpy")
    assert TerminateHalfwayContract((F(0), F(1)), {1}).terminate_set == frozenset({1})
    assert TerminateHalfwayContract((F(0), F(1)), frozenset()).terminate_set == frozenset()
    (entry,) = TerminateHalfwayContract((F(0), F(1)), {numpy.int64(1)}).terminate_set
    assert type(entry) is int and entry == 1


@pytest.mark.parametrize("contract", [object(), None, {"kind": "standard", "t": ["0", "1"]}])
def test_a_non_contract_is_a_type_error(midterm, contract):
    with pytest.raises(TypeError, match="^not a contract: "):
        contract_to_dict(contract)
    with pytest.raises(TypeError, match="^not a contract: "):
        best_response(midterm, contract)


# --- the library boundary -------------------------------------------------------


def _one_entry_transition(midterm):
    """``midterm`` whose costly initial action has a 1-entry transition for its
    2 states.  Before every entry checked validity, ``zip`` dropped the missing
    state: ``best_response`` under t = (0, 1) answered a profit of 2/5,
    ``max_welfare`` 2 and ``optimal_linear`` 12/7."""
    effort, null = midterm.initial_actions
    return dataclasses.replace(midterm, initial_actions=(dataclasses.replace(effort, transition=(F(1, 10),)), null))


_ONE_ENTRY_VIOLATION = "invalid instance: initial_actions[0].transition: expected 2 entries, got 1"
_TOTAL = ActionProfile(0, {0: 0, 1: 0})
_ZEROS = (F(0), F(0))

# Each public entry that takes an instance first: the rest of its arguments, valid for midterm.
BOUNDARY_ARGUMENTS = {
    "analyze": (),
    "best_response": (StandardContract((F(0), F(1))),),
    "evaluate_profile": (StandardContract(_ZEROS), _TOTAL),
    "expected_state_reward": (0, 0),
    "max_welfare": (),
    "min_payment_pay": (_TOTAL,),
    "min_payment_standard": (_TOTAL,),
    "min_payment_terminate": ({1}, ActionProfile(0, {0: 0})),
    "optimal_linear": (),
    "optimal_pay": (),
    "optimal_standard": (),
    "optimal_terminate": (),
    "pay_to_standard_tree": (PayHalfwayContract(_ZEROS, _ZEROS),),
    "profile_cost": (_TOTAL,),
    "profile_reward": (_TOTAL,),
    "reduce_deterministic": (),
    "simulate": (StandardContract(_ZEROS), 10, 1),
    "state_breakpoints": (0,),
}
# The entries that report on an instance rather than compute with it.
REPORTING_ENTRIES = {"classify", "instance_to_json", "validate"}


def test_the_package_exports_no_submodule():
    # ``from twostage import *`` binds only the public names, not agent, lp, ...
    assert twostage.__all__ and not [name for name in twostage.__all__ if inspect.ismodule(getattr(twostage, name))]


def _entries_taking_an_instance():
    names = set()
    for name in twostage.__all__:
        entry = getattr(twostage, name)
        if inspect.isfunction(entry):
            first = next(iter(inspect.signature(entry).parameters.values()), None)
            if first is not None and first.annotation in ("Instance", Instance):
                names.add(name)
    return names


def test_every_public_entry_taking_an_instance_refuses_an_invalid_one(midterm, monkeypatch):
    entries = _entries_taking_an_instance()
    assert entries == set(BOUNDARY_ARGUMENTS) | REPORTING_ENTRIES, "a new entry needs its arguments listed"
    builds = []
    build = model._validate
    monkeypatch.setattr(model, "_validate", lambda instance: builds.append(1) or build(instance))
    instance = _one_entry_transition(midterm)
    assert not validate(instance).ok  # validate and classify build the integer view, unchecked
    classify(instance)
    for name, arguments in BOUNDARY_ARGUMENTS.items():
        with pytest.raises(ValueError) as refused:
            getattr(twostage, name)(instance, *arguments)
        assert str(refused.value) == _ONE_ENTRY_VIOLATION, name
    assert len(builds) == 1  # every entry read the report the instance keeps
    valid = dataclasses.replace(midterm)
    for name, arguments in BOUNDARY_ARGUMENTS.items():
        try:
            getattr(twostage, name)(valid, *arguments)
        except ValueError as refused:  # midterm is neither a tree nor of a deterministic first stage
            assert name in ("pay_to_standard_tree", "reduce_deterministic"), (name, refused)
    assert len(builds) == 2


def test_an_invalid_instance_is_refused_under_python_o(midterm, child_env):
    script = (
        "import dataclasses, sys\n"
        "from fractions import Fraction as F\n"
        "import twostage as ts\n"
        "m = ts.midterm_instance()\n"
        "effort, null = m.initial_actions\n"
        "bad = dataclasses.replace(m, initial_actions=(dataclasses.replace(effort, transition=(F(1, 10),)), null))\n"
        "ts.validate(bad), ts.classify(bad)  # both build the integer view, unchecked\n"
        "zeros, total = ts.StandardContract((F(0), F(0))), ts.ActionProfile(0, {0: 0, 1: 0})\n"
        "for entry in (\n"
        "    lambda: ts.best_response(bad, ts.StandardContract((F(0), F(1)))),\n"
        "    lambda: ts.max_welfare(bad),\n"
        "    lambda: ts.optimal_standard(bad),\n"
        "    lambda: ts.analyze(bad),\n"
        "    lambda: ts.simulate(bad, zeros, 10, 1),\n"
        "    lambda: ts.min_payment_standard(bad, total),\n"
        "):\n"
        "    try:\n"
        "        entry()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    child = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env)
    assert (child.returncode, child.stdout, child.stderr) == (0, (_ONE_ENTRY_VIOLATION + "\n") * 6, "")


def test_the_validation_report_is_kept_on_the_instance(midterm):
    instance = dataclasses.replace(midterm)
    report = validate(instance)
    assert validate(instance) is report and report.ok
    assert instance == midterm and repr(instance) == repr(midterm)
    assert "_validation" not in vars(dataclasses.replace(instance))
