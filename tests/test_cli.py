import contextlib
import copy
import dataclasses
import decimal
import importlib.util
import io
import json
import operator
import random
import re
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twostage import (
    FamilyParams,
    FinalAction,
    InitialAction,
    Instance,
    LinearContract,
    StandardContract,
    State,
    analyze,
    best_response,
    generate,
    instance_from_json,
    instance_to_json,
    interim_review_instance,
    max_welfare,
    midterm_instance,
    optimal_standard,
    random_instance,
    reduce_deterministic,
)
from twostage import agent, cli, contracts, linear, model
from twostage.cli import _decimal_str, main
from twostage.generators import cost_ladder_instance

from oracles import tie_heavy_variants
from test_contracts import SEPARATION_FAMILIES
from test_generators import PINNED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def instance_file(tmp_path, capsys):
    path = tmp_path / "interim_review.json"
    code, out, _ = run_cli(capsys, "generate", "--family", "interim_review", "--out", str(path))
    assert code == 0 and out == ""
    return str(path)


def test_generate_validate_classify_welfare_pipeline(tmp_path, capsys, instance_file):
    code, out, _ = run_cli(capsys, "validate", instance_file)
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run_cli(capsys, "classify", instance_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["label"] == "general"

    code, out, _ = run_cli(capsys, "welfare", instance_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["max_welfare"]["exact"] == "2"
    assert doc["max_welfare"]["decimal"] == "2"


def test_generate_to_stdout_round_trips(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "midterm")
    assert code == 0
    doc = json.loads(out)
    assert doc["rewards"] == ["0", "5"]


def test_generate_with_params(capsys):
    code, out, _ = run_cli(
        capsys,
        "generate",
        "--family",
        "payment_gap",
        "--param", "p=9/10",
        "--param", "q=0.5",
        "--param", "c=1",
        "--param", "x=20",
    )
    assert code == 0
    assert json.loads(out)["rewards"] == ["0", "20"]


def test_generate_bad_params_exit_one(capsys):
    code, _, err = run_cli(
        capsys,
        "generate",
        "--family", "payment_gap",
        "--param", "p=1/2", "--param", "q=9/10", "--param", "c=1", "--param", "x=20",
    )
    assert code == 1
    assert "0 < q < p < 1" in err


@pytest.mark.parametrize(
    "family, params",
    [
        ("cost_ladder", ["n1=2.5", "n2=2"]),
        ("state_markers", ["s=1.9", "n2=2"]),
        ("random_tree", ["seed=7/2"]),
    ],
)
def test_generate_non_integer_integer_parameter_exits_one(capsys, family, params):
    argv = ["generate", "--family", family, *(arg for p in params for arg in ("--param", p))]
    code, out, err = run_cli(capsys, *argv)
    name, value = params[0].split("=")
    assert code == 1 and out == ""
    assert f"parameter {name!r} must be an integer, got {F(value)}" in err


@pytest.mark.parametrize(
    "param, cap", [("s", "max_states"), ("n1", "max_initial_actions"), ("n2", "max_final_actions"), ("m", "max_outcomes")]
)
def test_generate_random_cap_below_one_exits_one_naming_it(capsys, param, cap):
    code, out, err = run_cli(capsys, "generate", "--family", "random_general", "--param", "seed=1", "--param", f"{param}=0")
    assert (code, out) == (1, "")
    assert err == f"twostage: {cap} must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "param, cap", [("s", "max_states"), ("n1", "max_initial_actions"), ("n2", "max_final_actions"), ("m", "max_outcomes")]
)
def test_generate_random_non_integral_cap_exits_one_naming_it(capsys, param, cap):
    # Named by the same keyword as a cap below one.
    code, out, err = run_cli(capsys, "generate", "--family", "random_general", "--param", "seed=1", "--param", f"{param}=2.5")
    assert (code, out) == (1, "")
    assert err == f"twostage: parameter '{cap}' must be an integer, got 5/2\n"


@pytest.mark.parametrize("to_file", [True, False])
def test_generate_refuses_an_instance_it_could_not_read_back(tmp_path, capsys, to_file):
    # With n2=11 a probability's "p/q" has more digits than parsing allows;
    # n2=10 still fits.
    out_path = tmp_path / "ladder.json"

    def ladder(n2: int) -> list[str]:
        return ["generate", "--family", "cost_ladder", "--param", "n1=1", "--param", f"n2={n2}", "--param", "growth=1e100"]

    code, out, err = run_cli(capsys, *ladder(11), *(["--out", str(out_path)] if to_file else []))
    assert (code, out) == (1, "")
    assert err.startswith("twostage: the family parameters give an unreadable instance: number too large:")
    assert f"over the limit of {sys.get_int_max_str_digits()}" in err
    assert not out_path.exists()
    assert run_cli(capsys, *ladder(10), "--out", str(out_path))[0] == 0
    assert run_cli(capsys, "validate", str(out_path))[0] == 0


def _huge_instance(seed: int, transfer: bool) -> dict:
    """A valid one-state instance whose integers have 2100 digits.

    Its welfare (``transfer`` false) or, with a paid final whose distribution
    and cost have their own denominators, its minimal standard transfer
    (``transfer`` true) has a part of more than 4300 digits, which ``str`` refuses.
    """
    rng = random.Random(seed)

    def big() -> int:
        return rng.randrange(10**2099, 10**2100)

    def dist(c: int, b: int) -> list[str]:
        return [f"{c - b}/{c}", f"{b}/{c}"]

    if transfer:
        c1, c2, k = big(), big(), big()
        rewards = ["0", "10"]
        finals = [
            {"name": "null", "cost": "0", "outcome_dist": dist(c1, c1 // 10 + rng.randrange(c1 // 100))},
            {"name": "work", "cost": f"{k}/{2 * k + 1}", "outcome_dist": dist(c2, c2 * 9 // 10)},
        ]
    else:
        c = big()
        rewards = [f"{big()}/{big()}", f"{big()}/{big()}"]
        finals = [{"name": "null", "cost": "0", "outcome_dist": dist(c, rng.randrange(1, c))}]
    return {
        "rewards": rewards,
        "initial_actions": [{"name": "null", "cost": "0", "transition": ["1"]}],
        "states": [{"name": "s", "final_actions": finals}],
    }


def _exact(pair: dict) -> F:
    """The value of an ``{"exact", "decimal"}`` pair, read without ``str``'s digit limit."""
    return F(*(int(Decimal(part)) for part in pair["exact"].split("/")))


@pytest.mark.parametrize("transfer", [False, True])
def test_results_longer_than_the_digit_limit_print(tmp_path, capsys, transfer):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_instance(7, transfer)))
    contract = tmp_path / "contract.json"
    contract.write_text('{"kind": "standard", "t": ["0", "1"]}')
    instance = instance_from_json(path.read_text())
    outputs = {}
    for argv in (["welfare"], ["solve", "--contract", "standard"], ["breakpoints"],
                 ["best-response", "--contract-file", str(contract)]):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (0, ""), argv
        outputs[argv[0]] = json.loads(out)
    welfare = outputs["welfare"]["max_welfare"]
    assert _exact(welfare) == max_welfare(instance).max_welfare
    result = outputs["solve"]["result"]
    transfers = [_exact(t) for t in result["contract"]["t"]]
    response = best_response(instance, StandardContract(transfers))
    assert response.profile.finals == {0: int(transfer)}
    assert _exact(result["profit"]) == response.principal_profit
    longest = result["contract"]["t"][1] if transfer else welfare
    assert max(map(len, longest["exact"].split("/"))) > sys.get_int_max_str_digits()


BROKEN = {
    "rewards": ["0", "5"],
    "initial_actions": [
        {"name": "a", "cost": "1", "transition": ["9/10", "0"]},
    ],
    "states": [
        {"name": "s0", "final_actions": [{"name": "n", "cost": "0", "outcome_dist": ["1", "0"]}]},
        {"name": "s1", "final_actions": [{"name": "n", "cost": "0", "outcome_dist": ["1", "0"]}]},
    ],
}


def test_validate_reports_violations_with_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    rules = [v["rule"] for v in report["violations"]]
    assert any("does not sum to 1" in r for r in rules)
    assert any("missing null initial action" in r for r in rules)
    assert out == """{
  "command": "validate",
  "ok": false,
  "violations": [
    {
      "location": "initial_actions[0].transition",
      "rule": "distribution does not sum to 1"
    },
    {
      "location": "initial_actions",
      "rule": "missing null initial action (zero cost)"
    }
  ]
}
"""


def test_other_commands_refuse_an_invalid_instance_with_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN))
    code, out, err = run_cli(capsys, "welfare", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "invalid instance: initial_actions[0].transition: distribution does not sum to 1\n"
        "invalid instance: initial_actions: missing null initial action (zero cost)\n"
    )


@pytest.mark.parametrize("family, params", [(family, params) for family, params, _ in PINNED])
def test_generate_prints_what_the_library_builds(capsys, family, params):
    # The command line hands each value on as text; the builder reads it.
    code, out, err = run_cli(capsys, "generate", "--family", family, *_param_args(params))
    assert (code, out, err) == (0, instance_to_json(generate(FamilyParams(family, params))) + "\n", "")


@pytest.mark.parametrize(
    "family, params, spelled",
    [
        ("cost_ladder", {"n1": 2, "n2": 10}, {"n2": "1e1"}),
        ("cost_ladder", {"n1": 2, "n2": 2}, {"n1": "2.0"}),
        ("random_general", {"seed": 10}, {"seed": "1_0"}),
        ("random_general", {"seed": 7}, {"seed": " 7"}),
    ],
)
def test_generate_reads_an_integer_in_any_spelling_of_parse_rational(capsys, family, params, spelled):
    plain = run_cli(capsys, "generate", "--family", family, *_param_args(params))
    assert plain[0] == 0
    assert run_cli(capsys, "generate", "--family", family, *_param_args({**params, **spelled})) == plain


def test_generate_parameter_without_a_value_exits_three(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "cost_ladder", "--param", "n1", "--param", "n2=2")
    assert (code, out) == (3, "")
    assert err == "twostage: parameters take the form name=value, got 'n1'\n"


@pytest.mark.parametrize(
    "contract, message",
    [
        ({"kind": "terminate_halfway", "t": ["0", "1"], "terminate_set": ["0"]}, "terminate_set must contain state indices"),
        ({"kind": "terminate_halfway", "terminate_set": [0]}, "malformed contract document: KeyError('t')"),
        ({"kind": "standard"}, "malformed contract document: KeyError('t')"),
        ({"kind": "terminate_halfway", "t": ["0", "1"], "terminate_set": [1.5]}, "terminate_set must contain state indices"),
        ({"kind": "terminate_halfway", "t": ["0", "1"], "terminate_set": [True]}, "terminate_set must contain state indices"),
        ({"kind": "terminate_halfway", "t": ["0", "1"], "terminate_set": [[0]]}, "terminate_set must contain state indices"),
    ],
)
def test_best_response_with_a_malformed_contract_exits_three(tmp_path, capsys, instance_file, contract, message):
    contract_path = tmp_path / "contract.json"
    contract_path.write_text(json.dumps(contract))
    code, out, err = run_cli(capsys, "best-response", instance_file, "--contract-file", str(contract_path))
    assert (code, out) == (3, "")
    assert err == f"twostage: {message}\n"


def test_a_terminate_set_entry_is_refused_under_python_o(tmp_path, instance_file, child_env):
    contract_path = tmp_path / "contract.json"
    contract_path.write_text(json.dumps({"kind": "terminate_halfway", "t": ["0", "1"], "terminate_set": [1.5]}))
    argv = ["best-response", instance_file, "--contract-file", str(contract_path)]
    child = subprocess.run([sys.executable, "-O", "-m", "twostage", *argv], capture_output=True, text=True, env=child_env)
    assert (child.returncode, child.stdout, child.stderr) == (3, "", "twostage: terminate_set must contain state indices\n")


def test_parse_error_exits_three(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3 and "invalid JSON" in err

    code, _, err = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 3


@pytest.mark.parametrize("kind", ["instance", "contract"])
def test_a_file_that_is_not_utf8_exits_three(tmp_path, capsys, instance_file, kind):
    path = tmp_path / "not-utf8.json"
    path.write_bytes(b"\xff" + json.dumps(_CONTRACT_DOCUMENTS["standard"]).encode())
    if kind == "instance":
        argv = ["validate", str(path)]
    else:
        argv = ["best-response", instance_file, "--contract-file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "") and "can't decode byte 0xff" in err


def test_huge_exponent_exits_three_quickly(tmp_path, capsys, instance_file):
    with open(instance_file) as handle:
        doc = json.load(handle)
    doc["rewards"][1] = "1e1000000"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "compare", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 3 and out == ""
    assert f"limit of {sys.get_int_max_str_digits()}" in err


@pytest.mark.parametrize("document", ["instance", "contract"])
def test_oversized_json_integer_exits_three(tmp_path, capsys, instance_file, document):
    # json.loads itself refuses an integer literal over Python's digit limit
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    contract_path = tmp_path / "contract.json"
    contract_path.write_text('{"kind": "standard", "t": ["0", "1"]}')
    if document == "instance":
        with open(instance_file) as handle:
            doc = json.load(handle)
        doc["rewards"][1] = "HUGE"
        instance_file = tmp_path / "huge.json"
        instance_file.write_text(json.dumps(doc).replace('"HUGE"', digits))
    else:
        contract_path.write_text('{"kind": "standard", "t": [0, %s]}' % digits)
    code, out, err = run_cli(
        capsys, "best-response", str(instance_file), "--contract-file", str(contract_path)
    )
    assert code == 3 and out == ""
    assert "invalid JSON" in err and "digits" in err


@pytest.mark.parametrize("document", ["instance", "contract"])
def test_deeply_nested_json_exits_three(tmp_path, capsys, instance_file, document):
    # json.loads raises RecursionError, not ValueError, on nesting this deep
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    if document == "instance":
        argv = ["validate", str(nested)]
    else:
        argv = ["best-response", instance_file, "--contract-file", str(nested)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "invalid JSON" in err and "recursion" in err
    assert "Traceback" not in err


def test_non_array_fields_exit_three(tmp_path, capsys, instance_file):
    with open(instance_file) as handle:
        original = handle.read()
    path = tmp_path / "bad.json"

    doc = json.loads(original)
    doc["rewards"] = "05"  # once read as the rewards (0, 5)
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "compare", str(path))
    assert code == 3 and out == ""
    assert "rewards must be a JSON array" in err

    doc = json.loads(original)
    doc["states"][0]["final_actions"][1]["outcome_dist"] = {"0.2": 1, "0.8": 2}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 3 and out == ""
    assert "states[0].final_actions[1].outcome_dist must be a JSON array" in err

    doc = json.loads(original)
    doc["states"][0]["name"] = None  # once read as the name "None"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 3 and out == ""
    assert "states[0].name must be a JSON string, not None" in err

    contract_path = tmp_path / "contract.json"
    contract_path.write_text('{"kind": "standard", "t": "05"}')
    code, out, err = run_cli(
        capsys, "best-response", instance_file, "--contract-file", str(contract_path)
    )
    assert code == 3 and out == ""
    assert "t must be a JSON array" in err


def test_compare_solves_a_reduced_one_state_instance(tmp_path, capsys):
    inst = cost_ladder_instance(2, 2)
    path = tmp_path / "reduced.json"
    path.write_text(instance_to_json(reduce_deterministic(inst)))
    code, out, _ = run_cli(capsys, "compare", str(path))
    assert code == 0
    standard = json.loads(out)["results"]["standard"]
    assert F(standard["profit"]["exact"]) == optimal_standard(inst).profit


def test_solve_standard_and_terminate(capsys, instance_file):
    code, out, _ = run_cli(capsys, "solve", instance_file, "--contract", "standard")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["profit"]["exact"] == "6/5"
    assert doc["result"]["contract"]["t"][1]["exact"] == "8"

    code, out, _ = run_cli(capsys, "solve", instance_file, "--contract", "terminate")
    doc = json.loads(out)
    assert doc["result"]["profit"]["exact"] == "19/10"
    assert doc["result"]["contract"]["terminate_set"] == [0]

    code, out, _ = run_cli(capsys, "solve", instance_file, "--contract", "linear")
    doc = json.loads(out)
    assert F(doc["result"]["profit"]["exact"]) <= F(6, 5)

    code, out, _ = run_cli(capsys, "solve", instance_file, "--contract", "pay")
    assert json.loads(out)["result"]["profit"]["exact"] == "191/100"


def test_solve_pay_on_cost_ladder(tmp_path, capsys):
    path = tmp_path / "ladder.json"
    run_cli(
        capsys,
        "generate", "--family", "cost_ladder",
        "--param", "n1=2", "--param", "n2=2",
        "--out", str(path),
    )
    code, out, _ = run_cli(capsys, "solve", str(path), "--contract", "pay")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["profit"]["exact"] == "7"
    assert doc["welfare"]["exact"] == "7"


def test_solve_cap_exceeded_exits_two(capsys, instance_file):
    code, _, err = run_cli(
        capsys, "solve", instance_file, "--contract", "standard", "--profiles-cap", "1"
    )
    assert code == 2
    assert "exceeds the cap" in err


def _one_final_per_state(num_states):
    """One free initial action reaching each of ``num_states`` states, each with one free final."""
    final = FinalAction("null", F(0), (F(1, 2), F(1, 2)))
    states = tuple(State(f"s{k}", (final,)) for k in range(num_states))
    return Instance((F(0), F(1)), (InitialAction("null", F(0), (F(1, num_states),) * num_states),), states)


def test_terminate_on_fifteen_states_answers_within_the_one_cap(tmp_path, capsys):
    # Exit 2 while a separate cap refused every termination-set space past 2**14.
    path = tmp_path / "fifteen.json"
    path.write_text(instance_to_json(_one_final_per_state(15)))
    code, out, err = run_cli(capsys, "solve", str(path), "--contract", "terminate")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["contract"]["terminate_set"] == [] and result["profit"]["exact"] == "1/2"
    assert (result["profiles_enumerated"], result["termination_sets_enumerated"]) == (2**15, 2**15)
    assert result["programs_solved"] == 1
    assert run_cli(capsys, "solve", str(path), "--contract", "terminate", "--profiles-cap", str(2**15 - 1))[0] == 2


@pytest.mark.parametrize("command", [["solve", "--contract", "terminate"], ["compare"]])
def test_the_removed_subsets_cap_option_exits_three(capsys, instance_file, command):
    with pytest.raises(SystemExit) as usage:
        main([command[0], instance_file, *command[1:], "--subsets-cap", "16384"])
    assert usage.value.code == 3
    assert "unrecognized arguments: --subsets-cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["solve", "--contract", kind] for kind in ("standard", "linear", "pay", "terminate")] + [["compare"]]
)
def test_each_command_builds_the_validation_report_once(capsys, monkeypatch, instance_file, command):
    builds = []
    build = model._validate
    monkeypatch.setattr(model, "_validate", lambda instance: builds.append(1) or build(instance))
    assert run_cli(capsys, command[0], instance_file, *command[1:])[0] == 0
    assert len(builds) == 1


_CONTRACT_DOCUMENTS = {
    "standard": {"kind": "standard", "t": ["0", "41/5"]},
    "linear": {"kind": "linear", "alpha": "1/2"},
    "pay_halfway": {"kind": "pay_halfway", "s": ["1", "0"], "t": ["0", "3"]},
    "terminate_halfway": {"kind": "terminate_halfway", "t": ["0", "41/5"], "terminate_set": [0]},
}


def _commands_reading_probabilities(tmp_path, instance_file):
    """Each command that reads the instance's probabilities, as ``main`` takes it."""
    commands = [["compare", instance_file], ["breakpoints", instance_file], ["welfare", instance_file]]
    for kind, document in _CONTRACT_DOCUMENTS.items():
        contract_file = tmp_path / f"{kind}.json"
        contract_file.write_text(json.dumps(document))
        commands.append(["best-response", instance_file, "--contract-file", str(contract_file)])
    simulate = ["simulate", instance_file, "--contract-file", str(contract_file), "--episodes", "100", "--seed", "1"]
    return commands + [simulate]


def _commands_checking_the_instance(tmp_path, instance_file):
    """``validate`` on a valid and on an invalid file, and ``classify``, each with its exit code."""
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(BROKEN))
    return [(["validate", instance_file], 0), (["validate", str(broken)], 1), (["classify", instance_file], 0)]


def test_each_command_builds_the_integer_view_once(tmp_path, capsys, monkeypatch, instance_file):
    builds = []
    build = model._Integers.__init__
    monkeypatch.setattr(model._Integers, "__init__", lambda view, instance: builds.append(1) or build(view, instance))
    commands = [(command, 0) for command in _commands_reading_probabilities(tmp_path, instance_file)]
    for command, code in commands + _commands_checking_the_instance(tmp_path, instance_file):
        assert run_cli(capsys, *command)[0] == code, command
        assert len(builds) == 1, command
        builds.clear()


_CACHES = {"_validation", "_integers", "_max_welfare", "_compiled_programs"}


def test_every_command_leaves_only_the_documented_caches_on_its_instance(tmp_path, capsys, monkeypatch, instance_file):
    # What an instance derives is kept in vars(instance) by model.cached, and
    # only under these names: no command builds a table of its own there.
    instances = []
    parse = cli.instance_from_json
    monkeypatch.setattr(cli, "instance_from_json", lambda text: instances.append(parse(text)) or instances[-1])
    commands = _commands_reading_probabilities(tmp_path, instance_file)
    commands += [["solve", instance_file, "--contract", kind] for kind in ("standard", "linear", "pay", "terminate")]
    commands += [command for command, _ in _commands_checking_the_instance(tmp_path, instance_file)]
    commands.append(["breakpoints", instance_file, "--csv", str(tmp_path / "plot.csv")])
    left = set()
    for command in commands:
        run_cli(capsys, *command)
        instance = instances[-1]
        kept = set(vars(instance)) - {field.name for field in dataclasses.fields(instance)}
        assert kept <= _CACHES, command
        left |= kept
    assert len(instances) == len(commands) and left == _CACHES


def test_no_layer_scales_a_probability_row_of_the_instance(tmp_path, capsys, monkeypatch, instance_file):
    # Every layer, validate included, reads the instance's probabilities from
    # its integer view, so no call of model.scale, at any module attribute it
    # is looked up by, gets a transition or an outcome distribution itself.
    instances, handed = [], []
    parse = cli.instance_from_json
    monkeypatch.setattr(cli, "instance_from_json", lambda text: instances.append(parse(text)) or instances[-1])
    for module in (model, agent, linear, contracts):

        def watched(values, scale=module.scale, name=module.__name__):
            handed.append((name, values))
            return scale(values)

        monkeypatch.setattr(module, "scale", watched)
    for command in _commands_reading_probabilities(tmp_path, instance_file):
        assert run_cli(capsys, *command)[0] == 0, command
    rows = [a.transition for inst in instances for a in inst.initial_actions]
    rows += [a.outcome_dist for inst in instances for state in inst.states for a in state.final_actions]
    assert len(instances) == 8
    assert {name for name, _ in handed} == {"twostage.model", "twostage.agent", "twostage.linear", "twostage.contracts"}
    assert not [(name, values) for name, values in handed if any(values is row for row in rows)]


def test_the_rewards_are_scaled_once_and_a_search_reads_each_reward_from_its_program(
    tmp_path, capsys, monkeypatch, instance_file
):
    # The view converts the rewards once; only max_welfare hands them on
    # again, as its induction's transfers.  A search builds one outcome
    # mixture per program it builds, the program's own, and reads the
    # candidate's reward from it, so a program from the memo builds none.
    instances, handed, mixtures, built = [], [], [], []
    parse = cli.instance_from_json
    monkeypatch.setattr(cli, "instance_from_json", lambda text: instances.append(parse(text)) or instances[-1])
    for module in (model, agent, linear, contracts):

        def watched(values, scale=module.scale):
            if values is instances[-1].rewards:
                caller = sys._getframe(1)
                handed.append((caller.f_code.co_name, caller.f_back.f_code.co_name))
            return scale(values)

        monkeypatch.setattr(module, "scale", watched)
    for module in (agent, contracts):
        monkeypatch.setattr(module, "_mixture", lambda *a, mixture=module._mixture: mixtures.append(1) or mixture(*a))
    program = contracts._Compiled.program
    monkeypatch.setattr(contracts._Compiled, "program", lambda *a: built.append(1) or program(*a))
    commands = _commands_reading_probabilities(tmp_path, instance_file)
    commands += [["solve", instance_file, "--contract", kind] for kind in ("standard", "linear", "pay", "terminate")]
    programs = solved = 0
    for command in commands:
        code, out, _ = run_cli(capsys, *command)
        assert code == 0, command
        assert handed[0] == ("__init__", "cached") and set(handed[1:]) <= {("backward_induction", "_max_welfare")}
        assert len(mixtures) == len(built), command
        doc = json.loads(out)
        results = [*doc.get("results", {}).values(), doc.get("result", {})]
        solved += sum(result.get("programs_solved", 0) for result in results)
        programs += len(built)
        handed.clear(), mixtures.clear(), built.clear()
    # compare's terminate search finds most of its programs in the memo.
    assert len(instances) == len(commands) and 0 < programs < solved


def test_compare_report_is_deterministic_and_consistent(capsys, instance_file):
    code, first, _ = run_cli(capsys, "compare", instance_file)
    assert code == 0
    code, second, _ = run_cli(capsys, "compare", instance_file)

    def strip_clock(text):
        doc = json.loads(text)
        doc.pop("duration_seconds")
        return doc

    assert strip_clock(first) == strip_clock(second)
    assert json.dumps(strip_clock(first), sort_keys=True) == json.dumps(
        strip_clock(second), sort_keys=True
    )

    doc = strip_clock(first)
    results = doc["results"]
    standard = F(results["standard"]["profit"]["exact"])
    assert standard == F(6, 5)
    assert F(results["terminate"]["profit"]["exact"]) == F(19, 10)
    assert F(results["pay"]["profit"]["exact"]) >= standard
    assert F(results["linear"]["profit"]["exact"]) <= standard
    assert F(doc["ratios"]["terminate_over_standard"]["exact"]) == F(19, 10) / F(6, 5)
    assert F(doc["ratios"]["profit_over_welfare"]["exact"]) <= 1


def test_decimal_strings_do_not_follow_the_callers_decimal_context(instance_file):
    values = [F(2, 3), F(-2, 3), F(1, 8), F(10**20, 3), F(1, 3 * 10**20), F(0), F(5)]
    expected = ["0.666666666667", "-0.666666666667", "0.125", "3.33333333333E+19", "3.33333333333E-21", "0", "5"]
    assert [_decimal_str(v) for v in values] == expected
    first = run_golden(["compare", instance_file])
    with decimal.localcontext() as context:
        context.prec, context.rounding, context.capitals = 3, decimal.ROUND_DOWN, 0
        context.traps[decimal.Inexact] = True
        assert [_decimal_str(v) for v in values] == expected
        assert run_golden(["compare", instance_file]) == first


def test_best_response_command(tmp_path, capsys, instance_file):
    contract_path = tmp_path / "terminate.json"
    contract_path.write_text(
        json.dumps({"kind": "terminate_halfway", "t": ["0", "8.2"], "terminate_set": [0]})
    )
    code, out, _ = run_cli(
        capsys, "best-response", instance_file, "--contract-file", str(contract_path)
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["principal_profit"]["exact"] == "891/500"
    assert doc["principal_profit"]["decimal"] == "1.782"
    assert doc["profile"] == {"initial": 0, "finals": {"1": 1}}


def test_breakpoints_command_with_csv(tmp_path, capsys):
    instance_path = tmp_path / "midterm.json"
    run_cli(capsys, "generate", "--family", "midterm", "--out", str(instance_path))
    csv_path = tmp_path / "plot.csv"
    code, out, _ = run_cli(
        capsys, "breakpoints", str(instance_path), "--csv", str(csv_path)
    )
    doc = json.loads(out)
    assert code == 0
    assert [bp["alpha"]["exact"] for bp in doc["breakpoints"]] == ["4/9", "4/7"]
    assert doc["optimal"]["alpha"]["exact"] == "4/9"

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "alpha_exact,alpha_decimal,profit_exact,profit_decimal,profile"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "4/9", "4/7", "1"]
    by_alpha = {r[0]: r for r in rows}
    assert by_alpha["4/9"][2] == "91/36"
    assert by_alpha["4/9"][4] == "0|1;1"


def test_breakpoints_csv_write_failure_prints_nothing(tmp_path, capsys, instance_file):
    code, out, err = run_cli(
        capsys, "breakpoints", instance_file, "--csv", str(tmp_path / "missing" / "plot.csv")
    )
    assert code == 3 and out == ""
    assert err.startswith("twostage: [Errno 2] No such file or directory") and err.count("\n") == 1


def csv_by_best_response(instance):
    """The ``breakpoints --csv`` text with a best response at every candidate alpha."""
    analysis = analyze(instance)
    lines = ["alpha_exact,alpha_decimal,profit_exact,profit_decimal,profile"]
    for alpha in sorted({F(0), F(1), *(bp.alpha for bp in analysis.breakpoints)}):
        response = best_response(instance, LinearContract(alpha))
        profit = response.principal_profit
        finals = ";".join(str(j) for _, j in sorted(response.profile.finals.items()))
        profile = f"{response.profile.initial}|{finals}"
        lines.append(",".join([str(alpha), _decimal_str(alpha), str(profit), _decimal_str(profit), profile]))
    return "\n".join(lines) + "\n"


def test_breakpoints_csv_matches_best_response_at_every_candidate(tmp_path, capsys):
    # At alpha = 1 the work line (3a - 2) meets the null line (a), and the
    # lowest index breaks that tie, not the segment left of 1 (null).
    tied_at_one = Instance(
        (F(1), F(3)),
        (InitialAction("null", F(0), (F(1),)),),
        (State("s", (FinalAction("work", F(2), (F(0), F(1))), FinalAction("null", F(0), (F(1), F(0))))),),
    )
    instances = [midterm_instance(), cost_ladder_instance(2, 2), tied_at_one]
    for kind in ("tree", "stochastic_first_stage", "deterministic_first_stage", "general"):
        instances += [random_instance(kind, seed=seed, max_states=4, max_final_actions=4) for seed in range(10)]
    instances += [variant for inst in instances[:5] for variant in tie_heavy_variants(inst)]
    instance_path, csv_path = tmp_path / "instance.json", tmp_path / "plot.csv"
    for instance in instances:
        instance_path.write_text(instance_to_json(instance))
        code, _, _ = run_cli(capsys, "breakpoints", str(instance_path), "--csv", str(csv_path))
        assert code == 0
        assert csv_path.read_text() == csv_by_best_response(instance)


def test_simulate_command(tmp_path, capsys, instance_file):
    contract_path = tmp_path / "terminate.json"
    contract_path.write_text(
        json.dumps({"kind": "terminate_halfway", "t": ["0", "41/5"], "terminate_set": [0]})
    )
    code, out, _ = run_cli(
        capsys,
        "simulate", instance_file,
        "--contract-file", str(contract_path),
        "--episodes", "20000",
        "--seed", "5",
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["empirical_profit"] - 1.782) <= 4 * doc["std_error"]

    code2, out2, _ = run_cli(
        capsys,
        "simulate", instance_file,
        "--contract-file", str(contract_path),
        "--episodes", "20000",
        "--seed", "5",
    )
    assert out2 == out


@pytest.mark.parametrize(
    "reward, transfer, value",
    [("5", "1e400", "-1.000000E+400"), ("5", "1e200", "-1.000000E+200"), ("1e400", "0", "1.000000E+400")],
)
def test_simulate_past_float_range_exits_one(tmp_path, capsys, child_env, reward, transfer, value):
    # The first raised OverflowError and the second printed a std_error of 0.0.
    instance = tmp_path / "midterm.json"
    instance.write_text(instance_to_json(dataclasses.replace(midterm_instance(), rewards=(F(0), F(reward)))))
    contract = tmp_path / "contract.json"
    contract.write_text(json.dumps({"kind": "standard", "t": ["0", transfer]}))
    argv = ["simulate", str(instance), "--contract-file", str(contract), "--episodes", "50", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"twostage: the profit of outcome 1 at state 0 is {value}, which ")
    child = subprocess.run(
        [sys.executable, "-O", "-m", "twostage", *argv], capture_output=True, text=True, env=child_env
    )
    assert (child.returncode, child.stdout, child.stderr) == (1, "", err)


def test_simulate_prints_the_estimate_when_the_large_value_is_never_drawn(tmp_path, capsys):
    # Exited 1 while simulate converted outcomes of probability 0 too.
    instance = tmp_path / "one_state.json"
    final = FinalAction("null", F(0), (F(1, 2), F(1, 2), F(0)))
    instance.write_text(instance_to_json(Instance((F(0), F(1), F(1)), (InitialAction("null", F(0), (F(1),)),), (State("s", (final,)),))))
    outs = []
    for transfer in ("1e200", "0"):
        contract = tmp_path / f"contract-{transfer}.json"
        contract.write_text(json.dumps({"kind": "standard", "t": ["0", "1", transfer]}))
        argv = ["simulate", str(instance), "--contract-file", str(contract), "--episodes", "50", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        outs.append(json.loads(out))
    huge, zero = outs
    assert huge.pop("contract") != zero.pop("contract") and huge == zero


def test_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve"])  # missing required arguments
    assert err.value.code == 3


def test_the_package_imports_only_the_standard_library(child_env):
    # The README promises no dependency beyond the standard library.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import twostage, twostage.cli\n"
        "print(json.dumps(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env, check=True)
    added = json.loads(child.stdout)
    assert "twostage" in added
    assert [name for name in added if name != "twostage" and name not in sys.stdlib_module_names] == []


def test_module_entry_point(child_env):
    result = subprocess.run(
        [sys.executable, "-m", "twostage", "generate", "--family", "midterm"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["rewards"] == ["0", "5"]



def test_compare_rejects_a_negative_reward_before_any_search(tmp_path, capsys, monkeypatch):
    from twostage import contracts

    called = []
    for name in ("optimal_standard", "optimal_pay", "optimal_terminate"):
        real = getattr(contracts, name)
        monkeypatch.setattr(
            contracts, name, lambda *args, _name=name, _real=real, **kw: called.append(_name) or _real(*args, **kw)
        )
    path = tmp_path / "negative.json"
    path.write_text(instance_to_json(dataclasses.replace(midterm_instance(), rewards=(F(-1), F(5)))))
    code, out, err = run_cli(capsys, "compare", str(path))
    assert (code, out, called) == (1, "", [])
    assert "non-negative" in err
    # Exceeding a cap as well no longer gets to exit 2: the reward check comes first.
    code, out, _ = run_cli(capsys, "compare", str(path), "--profiles-cap", "1")
    assert (code, out, called) == (1, "", [])


def test_solver_results_report_programs_solved(capsys, instance_file):
    code, out, _ = run_cli(capsys, "compare", instance_file)
    assert code == 0
    results = json.loads(out)["results"]
    for kind in ("standard", "pay", "terminate"):
        doc = results[kind]
        assert 0 <= doc["infeasible_profiles"] <= doc["programs_solved"] <= doc["profiles_enumerated"]
        assert doc["programs_solved"] >= 1


def test_failed_self_check_exits_four_without_traceback(capsys, monkeypatch, instance_file):
    import dataclasses

    from twostage import contracts

    real = contracts.best_response

    def off_by_one(instance, contract):
        response = real(instance, contract)
        return dataclasses.replace(response, principal_profit=response.principal_profit + 1)

    monkeypatch.setattr(contracts, "best_response", off_by_one)
    code, out, err = run_cli(capsys, "solve", instance_file, "--contract", "standard")
    assert code == 4
    assert out == ""
    assert err.startswith("twostage: internal error:")
    assert "Traceback" not in err


def test_self_check_survives_optimize_flag(instance_file, child_env):
    script = (
        "import dataclasses, sys\n"
        "from twostage import cli, contracts\n"
        "real = contracts.best_response\n"
        "def off_by_one(instance, contract):\n"
        "    response = real(instance, contract)\n"
        "    return dataclasses.replace(response, principal_profit=response.principal_profit + 1)\n"
        "contracts.best_response = off_by_one\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, "solve", instance_file, "--contract", "pay"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert result.returncode == 4
    assert "Traceback" not in result.stderr


def test_parser_is_reused_across_calls(capsys, instance_file):
    code, first, _ = run_cli(capsys, "welfare", instance_file)
    assert code == 0
    with pytest.raises(SystemExit) as err:
        main(["welfare", instance_file, "--no-such-flag"])
    assert err.value.code == 3
    capsys.readouterr()
    code, again, _ = run_cli(capsys, "welfare", instance_file)
    assert (code, again) == (0, first)


# Each entry forces one self-check to fail: the command line that reaches it,
# the module attribute to replace, the replacement (a Python expression that
# sees the module's names, ``real``, the attribute's value, and
# ``dataclasses``), and a phrase of the check's error message.
FORCED_FAILURES = {
    "generated instance is valid": (
        ["generate", "--family", "midterm"],
        "twostage.generators", "validate",
        "lambda instance: dataclasses.replace(real(instance), violations=('forced',))",
        "generator produced an invalid instance",
    ),
    "state envelopes cover [0, 1]": (
        ["breakpoints", "{instance}"],
        "twostage.linear", "_upper_envelope",
        "lambda lines, lo=_ZERO, hi=_ONE: ([], [])",
        "no final-action segment",
    ),
    "best response realizes the linear optimum (breakpoints)": (
        ["breakpoints", "{instance}"],
        "twostage.linear", "best_response",
        "lambda instance, contract: dataclasses.replace(real(instance, contract), profile=ActionProfile(0, {}))",
        "does not realize its segment",
    ),
    "best response realizes the linear optimum (solve)": (
        ["solve", "{instance}", "--contract", "linear"],
        "twostage.linear", "best_response",
        "lambda instance, contract: dataclasses.replace(real(instance, contract), profile=ActionProfile(0, {}))",
        "does not realize its segment",
    ),
    "the winner's re-solve equals its searched value": (
        ["compare", "{instance}"],
        "twostage.contracts", "_dual_value",
        "lambda *program: (lambda value, x: (value, x) if value is None else (value + 1, None))(*real(*program))",
        "disagree on a minimal payment",
    ),
    "a stored Farkas certificate proves its program infeasible": (
        ["compare", "{instance}"],
        "twostage.contracts", "_dual_value",
        "lambda *program: (lambda value, y: (value, y) if value is not None else (None, (-1, *y[1:])))(*real(*program))",
        "Farkas certificate does not prove",
    ),
    "breakpoints are at most S*N1*N2": (
        ["breakpoints", "{instance}"],
        "twostage.linear", "_upper_envelope",
        "lambda lines, lo=_ZERO, hi=_ONE: ([], [(lo + (hi - lo) * k / 64, lo + (hi - lo) * (k + 1) / 64,"
        " lines[0][2]) for k in range(64)])",
        "breakpoints exceed",
    ),
}


def replacement_source(module_name, attribute, expression):
    """Source that binds ``module`` and ``replacement`` for one forced failure."""
    return (
        "import dataclasses, importlib\n"
        f"module = importlib.import_module({module_name!r})\n"
        f"names = {{**vars(module), 'real': module.{attribute}, 'dataclasses': dataclasses}}\n"
        f"replacement = eval({expression!r}, names)\n"
    )


@pytest.mark.parametrize("check", sorted(FORCED_FAILURES))
def test_forced_self_check_failure_exits_four(capsys, monkeypatch, instance_file, check):
    argv, module_name, attribute, expression, message = FORCED_FAILURES[check]
    bound = {}
    exec(replacement_source(module_name, attribute, expression), bound)
    monkeypatch.setattr(bound["module"], attribute, bound["replacement"])
    code, out, err = run_cli(capsys, *(a.format(instance=instance_file) for a in argv))
    assert code == 4
    assert out == ""
    assert err.startswith("twostage: internal error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("check", sorted(FORCED_FAILURES))
def test_forced_self_check_failure_exits_four_under_optimize_flag(instance_file, check, child_env):
    argv, module_name, attribute, expression, message = FORCED_FAILURES[check]
    script = (
        replacement_source(module_name, attribute, expression)
        + f"setattr(module, {attribute!r}, replacement)\n"
        + "import sys\nfrom twostage import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, *(a.format(instance=instance_file) for a in argv)],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr.startswith("twostage: internal error:") and message in result.stderr
    assert "Traceback" not in result.stderr


# Whole stdout of every command on each instance of GOLDEN_INSTANCES (among
# them one draw at the caps of the benchmark's evaluate workload), pinned byte
# for byte apart from the wall-clock ``duration_seconds`` line.  After an
# intended output change, rewrite the files with
#   PYTHONPATH=src:tests python -c "import test_cli; test_cli.write_golden()"
GOLDEN = Path(__file__).parent / "golden"
# Subdirectory of GOLDEN -> the generator family and parameters of its instance.
# Each subdirectory holds the contract.json that best-response and simulate read.
GOLDEN_INSTANCES = {
    "": ("interim_review", {}),
    "random_general_6": ("random_general", {"seed": 6, "s": 10, "n1": 5, "n2": 8, "m": 8}),
    "state_markers_5_1": ("state_markers", {"s": 5, "n2": 1}),  # 11 states: finals keys "10" < "2"
    "midterm": ("midterm", {}),
    "cost_ladder_3_3": ("cost_ladder", {"n1": 3, "n2": 3}),  # most candidates are infeasible
}
GOLDEN_COMMANDS = {
    "validate": ["validate", "{instance}"],
    "classify": ["classify", "{instance}"],
    "welfare": ["welfare", "{instance}"],
    "solve_standard": ["solve", "{instance}", "--contract", "standard"],
    "solve_linear": ["solve", "{instance}", "--contract", "linear"],
    "solve_pay": ["solve", "{instance}", "--contract", "pay"],
    "solve_terminate": ["solve", "{instance}", "--contract", "terminate"],
    "compare": ["compare", "{instance}"],
    "breakpoints": ["breakpoints", "{instance}", "--csv", "{csv}"],
    "best_response": ["best-response", "{instance}", "--contract-file", "{contract}"],
    "simulate": ["simulate", "{instance}", "--contract-file", "{contract}", "--episodes", "500", "--seed", "7"],
    "generate": ["generate", "--family", "{family}", "{params}"],
}


def _param_args(params) -> list[str]:
    return [arg for name, value in params.items() for arg in ("--param", f"{name}={value}")]


def golden_commands(directory: str, scratch: Path) -> tuple[list[tuple[str, list[str]]], Path]:
    """(golden file name, argv) of every command on the directory's instance,
    and the breakpoints CSV they write.  The instance is written to scratch."""
    family, params = GOLDEN_INSTANCES[directory]
    folder = scratch / (directory or "top")
    folder.mkdir()
    paths = {
        "instance": folder / "instance.json",
        "contract": GOLDEN / directory / "contract.json",
        "csv": folder / "plot.csv",
        "family": family,
    }
    paths["instance"].write_text(instance_to_json(generate(FamilyParams(family, params))))
    param_args = _param_args(params)
    commands = [
        (
            str(Path(directory) / f"{name}.out"),
            [new for arg in argv for new in (param_args if arg == "{params}" else [arg.format(**paths)])],
        )
        for name, argv in GOLDEN_COMMANDS.items()
    ]
    return commands, paths["csv"]


def run_golden(argv: list[str]) -> str:
    """Stdout of one successful in-process command, without ``duration_seconds``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return re.sub(r'^  "duration_seconds": .*\n', "", out.getvalue(), flags=re.M)


def golden_outputs() -> dict:
    """Golden file name -> text for every command on every instance (and the breakpoints CSVs)."""
    outputs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for directory in GOLDEN_INSTANCES:
            commands, csv = golden_commands(directory, Path(scratch))
            for name, argv in commands:
                outputs[name] = run_golden(argv)
            outputs[str(Path(directory) / "breakpoints.csv")] = csv.read_text()
    return outputs


def write_golden() -> None:
    for name, text in golden_outputs().items():
        (GOLDEN / name).write_text(text)


def test_every_command_matches_its_golden_output():
    outputs = golden_outputs()
    assert "duration_seconds" not in outputs["compare.out"] + outputs["solve_standard.out"]
    for name, text in outputs.items():
        assert text == (GOLDEN / name).read_text(), name


def test_every_golden_file_is_a_contract_or_a_checked_output():
    # A pinned file that no command produces would be checked by nothing.
    pinned = {str(path.relative_to(GOLDEN)) for path in GOLDEN.rglob("*") if path.is_file()}
    contracts = {str(Path(directory) / "contract.json") for directory in GOLDEN_INSTANCES}
    assert pinned == contracts | set(golden_outputs())


def test_golden_commands_give_the_same_output_twice_when_interleaved(tmp_path):
    # A fault that some inputs reach only after others, or state kept between
    # commands in one process, would show as a difference from a fresh run.
    runs = [golden_commands(directory, tmp_path) for directory in GOLDEN_INSTANCES]
    interleaved = [command for group in zip(*(commands for commands, _ in runs)) for command in group]
    assert len(interleaved) == len(GOLDEN_INSTANCES) * len(GOLDEN_COMMANDS)
    for _ in range(2):
        for name, argv in interleaved:
            assert run_golden(argv) == (GOLDEN / name).read_text(), name
        for directory, (_, csv) in zip(GOLDEN_INSTANCES, runs):
            assert csv.read_text() == (GOLDEN / directory / "breakpoints.csv").read_text(), directory


def test_benchmark_trace_hooks_see_every_required_layer(tmp_path):
    # bench/run.py --trace 1 wraps names looked up on twostage modules at call
    # time; a refactor that moves one lookup leaves its layer without spans.
    # The commands are those of the benchmark's workloads: compare on the
    # separation families, and the evaluate commands on midterm.
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    files = []
    for family, params in SEPARATION_FAMILIES:
        files.append(tmp_path / f"{family}.json")
        files[-1].write_text(instance_to_json(generate(FamilyParams(family, params))))
    instance = str(tmp_path / "midterm.json")
    contract = str(GOLDEN / "contract.json")

    def hooked():
        return [getattr(importlib.import_module(module), attribute) for module, attribute, _, _ in spans.HOOKS]

    originals = hooked()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (
            *(["compare", str(file)] for file in files),
            ["best-response", instance, "--contract-file", contract],
            ["welfare", instance],
            ["breakpoints", instance],
            ["simulate", instance, "--contract-file", contract, "--episodes", "50", "--seed", "1"],
        ):
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    assert all(map(operator.is_, hooked(), originals))  # uninstall put every name back
    recorded = {span.name for span in tracer.spans}
    for workload, layers in spans.REQUIRED.items():
        assert set(layers) <= recorded, (workload, set(layers) - recorded)


# --- a bounded fuzz of the command line ----------------------------------------

# Leaves swapped into an instance or contract document, or _DROP to delete the
# entry: numbers past float range or of the wrong sign, a division by zero, a
# float and wrong types.  Hypothesis draws the earlier entries of a list more
# often, so the numbers, and the commands that read a contract, come first.
FUZZ_LEAVES = ["1e400", "1e200", "-1", "0", "7/3", 2, "1/0", 1.5, None, True, [], {}]
_DROP = object()
FUZZ_CONTRACTS = [
    {"kind": "standard", "t": ["0", "41/5"]},
    {"kind": "linear", "alpha": "1/2"},
    {"kind": "pay_halfway", "s": ["1/2", "0"], "t": ["0", "3"]},
    {"kind": "terminate_halfway", "t": ["0", "41/5"], "terminate_set": [0]},
]
FUZZ_COMMANDS = [
    ["simulate", "--contract-file", "{contract}", "--episodes", "50", "--seed", "1"],
    ["best-response", "--contract-file", "{contract}"],
    ["compare"],
    *(["solve", "--contract", kind] for kind in ("standard", "linear", "pay", "terminate")),
    ["breakpoints"], ["welfare"], ["classify"], ["validate"],
]


def _paths(node, path=()):
    """The path of every node of a JSON document, each after its children's."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))
    yield path


@st.composite
def _mutated(draw, document):
    """``document`` after one to three swaps of a node for a leaf or deletions."""
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(document))))
        leaf = draw(st.sampled_from(FUZZ_LEAVES + ([_DROP] if path else [])))
        if not path:
            document = leaf
            continue
        document = copy.deepcopy(document)
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if leaf is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = leaf
    return document


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _check_a_mutated_run(data, command, base: Instance) -> None:
    """Run ``command`` on ``base`` and a ``FUZZ_CONTRACTS`` file after mutating
    one of the two, and check that it exits with a documented code."""
    # Each run mutates one document: the contract, if the command reads one
    # and a coin says so, or else the instance.
    instance = json.loads(instance_to_json(base))
    contract = data.draw(st.sampled_from(FUZZ_CONTRACTS))
    if "{contract}" in command and data.draw(st.booleans()):
        contract = data.draw(_mutated(contract))
    else:
        instance = data.draw(_mutated(instance))
    _check_a_run(command, instance, contract)


def _check_a_run(command, instance, contract) -> int:
    """Run ``command`` on the two documents; check that it exits with a
    documented code, with no traceback, and with JSON or nothing on stdout."""
    with tempfile.TemporaryDirectory() as scratch:
        paths = {"instance": Path(scratch) / "instance.json", "contract": Path(scratch) / "contract.json"}
        paths["instance"].write_text(json.dumps(instance))
        paths["contract"].write_text(json.dumps(contract))
        argv = [command[0], str(paths["instance"]), *(a.format(contract=paths["contract"]) for a in command[1:])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4) and "Traceback" not in err.getvalue()
    if code == 0 or command == ["validate"] and code == 1:
        _strict_json(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue()
    return code


@settings(derandomize=True, deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_documents_exit_with_a_documented_code(data, command):
    _check_a_mutated_run(data, command, midterm_instance())


@settings(derandomize=True, deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_interim_review_documents_exit_with_a_documented_code(data, command):
    # FUZZ_CONTRACTS fit interim_review too: 2 outcomes and 2 states.
    _check_a_mutated_run(data, command, interim_review_instance())


@pytest.mark.parametrize("base", [midterm_instance, interim_review_instance])
@pytest.mark.parametrize("command", FUZZ_COMMANDS[:2], ids=["simulate", "best-response"])
@pytest.mark.parametrize("leaf", [*FUZZ_LEAVES, _DROP], ids=[*map(repr, FUZZ_LEAVES), "deleted"])
def test_a_mutated_terminate_set_entry_exits_with_a_documented_code(base, command, leaf):
    # The derandomized fuzz above mutates no terminate_set entry, so each leaf,
    # and a deletion, takes the place of the terminate-halfway contract's one
    # entry, state 0.  With none left it is a contract, state 2 lies outside
    # both bases (exit 1), and every other leaf, a string included, is no
    # state index (exit 3).
    contract = copy.deepcopy(FUZZ_CONTRACTS[3])
    if leaf is _DROP:
        del contract["terminate_set"][0]
    else:
        contract["terminate_set"][0] = leaf
    expected = 0 if leaf is _DROP else 1 if leaf == 2 else 3
    assert _check_a_run(command, json.loads(instance_to_json(base())), contract) == expected
