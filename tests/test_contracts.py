import contextlib
import dataclasses
import io
import itertools
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from twostage import (
    ActionProfile,
    EnumerationCapExceeded,
    FamilyParams,
    FinalAction,
    InitialAction,
    Instance,
    LinearContract,
    LinearProgram,
    LpInfeasible,
    LpOptimal,
    PayHalfwayContract,
    SolverInvariantError,
    StandardContract,
    TerminateHalfwayContract,
    best_response,
    classify,
    evaluate_profile,
    max_welfare,
    midterm_instance,
    min_payment_pay,
    min_payment_standard,
    min_payment_terminate,
    optimal_linear,
    optimal_pay,
    optimal_standard,
    optimal_terminate,
    pay_to_standard_tree,
    profile_cost,
    profile_reward,
    random_instance,
    reduce_deterministic,
    State,
    generate,
    instance_to_json,
    interim_review_instance,
    validate,
)
from twostage import contracts
from twostage.cli import main
from twostage.model import scale
from twostage.generators import (
    cost_ladder_instance,
    payment_gap_instance,
    state_markers_instance,
)

from oracles import (
    BLOCKED,
    distinct_finals,
    dual_form,
    exhaustive_optimum,
    fraction_simplex,
    incentive_program,
    iter_profiles,
    lattice_min_payment_standard,
    profile_value,
    proves_infeasible,
    reference_bound_table,
    reference_min_payment_program,
    scipy_lp_min,
    tie_heavy_variants,
)


# --- minimal-payment programs -------------------------------------------------


def test_min_payment_standard_worked_example(midterm):
    profile = ActionProfile(0, {0: 1, 1: 1})
    contract = min_payment_standard(midterm, profile)
    assert contract.transfers == (F(0), F(20, 9))
    assert evaluate_profile(midterm, contract, profile).expected_payment == F(91, 45)


def test_min_payment_standard_interim_review(interim_review):
    profile = ActionProfile(1, {0: 0, 1: 1})
    contract = min_payment_standard(interim_review, profile)
    assert contract.transfers == (F(0), F(8))
    assert evaluate_profile(interim_review, contract, profile).principal_profit == F(6, 5)


def test_min_payment_standard_all_null_is_free(midterm):
    contract = min_payment_standard(midterm, ActionProfile(1, {0: 1, 1: 1}))
    assert contract.transfers == (F(0), F(0))


def test_min_payment_standard_infeasible_profile(midterm):
    # asking the agent to waste effort at the pass state cannot be incentivized
    assert min_payment_standard(midterm, ActionProfile(0, {0: 1, 1: 0})) is None


def test_min_payment_pay_worked_example(midterm):
    profile = ActionProfile(0, {0: 1, 1: 1})
    contract = min_payment_pay(midterm, profile)
    assert contract.state_transfers == (F(0), F(2))
    assert contract.transfers == (F(0), F(0))
    ev = evaluate_profile(midterm, contract, profile)
    assert ev.expected_payment == F(9, 5)
    assert ev.principal_profit == F(11, 4)


def test_min_payment_pay_covers_the_costly_state():
    p, q, c = F(9, 10), F(1, 2), F(1)
    inst = payment_gap_instance(p, q, c, F(20))
    profile = max_welfare(inst).argmax_profile
    contract = min_payment_pay(inst, profile)
    ev = evaluate_profile(inst, contract, profile)
    assert ev.expected_payment == (1 + p - q) * c
    standard = min_payment_standard(inst, profile)
    ev_std = evaluate_profile(inst, standard, profile)
    assert ev_std.expected_payment == (1 - q) * c / (1 - p) == F(5)
    ratio = ev_std.expected_payment / ev.expected_payment
    assert ratio == F(25, 7) >= (1 - q) / (1 - p * p)


def test_min_payment_terminate_worked_example(interim_review):
    contract = min_payment_terminate(interim_review, {0}, ActionProfile(0, {1: 1}))
    assert contract.transfers == (F(0), F(800, 99))
    ev = evaluate_profile(interim_review, contract, ActionProfile(0, {1: 1}))
    assert ev.principal_profit == F(19, 10)


def test_min_payment_terminate_blocking_everything_is_free(midterm):
    contract = min_payment_terminate(midterm, {0, 1}, ActionProfile(1, {}))
    assert contract.transfers == (F(0), F(0))
    ev = evaluate_profile(midterm, contract, ActionProfile(1, {}))
    assert (ev.agent_utility, ev.expected_payment, ev.principal_profit) == (0, 0, 0)


def test_min_payment_terminate_validates_profile_coverage(interim_review):
    with pytest.raises(ValueError):
        min_payment_terminate(interim_review, {0}, ActionProfile(0, {0: 0, 1: 1}))


MALFORMED_PROFILES = [
    (ActionProfile(0, {}), r"profile is missing finals for states \[0, 1\]"),
    (ActionProfile(0, {0: 0, 1: 1, 2: 0}), r"profile assigns finals to states \[2\], instance has 2 states"),
    (ActionProfile(5, {0: 0, 1: 1}), "initial action index 5 is out of range"),
    (ActionProfile(-2, {0: -2, 1: -1}), "initial action index -2 is out of range"),
    (ActionProfile(0, {0: 0, 1: 2}), "final action index 2 at state 1 is out of range"),
    (ActionProfile(1, {0: -1, 1: 0}), "final action index -1 at state 0 is out of range"),
    (ActionProfile(0, {-1: 0, 0: 0, 1: 1}), r"profile assigns finals to states \[-1\], instance has 2 states"),
]


@pytest.mark.parametrize("profile, message", MALFORMED_PROFILES)
def test_min_payment_standard_and_pay_reject_malformed_profiles(midterm, profile, message):
    for solve in (min_payment_standard, min_payment_pay):
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(midterm, profile)


@pytest.mark.parametrize(
    "terminate_set, profile, message",
    [
        ({5}, ActionProfile(0, {0: 0, 1: 1}), "terminate_set contains an out-of-range state index"),
        ({-1}, ActionProfile(0, {0: 0, 1: 1}), "terminate_set contains an out-of-range state index"),
        ({0}, ActionProfile(0, {0: 0, 1: 1}), r"profile assigns finals to terminated states \[0\]"),
        ({0}, ActionProfile(0, {}), r"profile is missing finals for states \[1\]"),
        ({0}, ActionProfile(5, {1: 0}), "initial action index 5 is out of range"),
        ({0}, ActionProfile(-2, {1: -1}), "initial action index -2 is out of range"),
        ({0}, ActionProfile(0, {1: 2}), "final action index 2 at state 1 is out of range"),
        ({0}, ActionProfile(0, {0: 0, 1: 1, 5: 0}), r"profile assigns finals to states \[5\], instance has 2 states"),
        # Entries are read by the contract's rule before anything else, so
        # whether the program is feasible (initial action 0 or 1) cannot
        # decide between an answer and an error.
        *(
            (blocked, ActionProfile(initial, {0: 0}), "terminate_set must contain state indices")
            for blocked in ({1.0}, {True}, {"1"})
            for initial in (0, 1)
        ),
    ],
)
def test_min_payment_terminate_rejects_malformed_input(midterm, terminate_set, profile, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        min_payment_terminate(midterm, terminate_set, profile)


SEPARATION_FAMILIES = [
    ("midterm", {}),
    ("interim_review", {}),
    ("payment_gap", {"p": F(9, 10), "q": F(1, 2), "c": F(1), "x": F(20)}),
    ("cost_ladder", {"n1": 3, "n2": 3}),
    ("state_markers", {"s": 3, "n2": 2}),
]


def _random_profile(rng, inst, surviving):
    return ActionProfile(
        rng.randrange(inst.num_initial_actions),
        {s: rng.randrange(len(inst.states[s].final_actions)) for s in surviving},
    )


def test_min_payment_programs_match_the_reference_row_for_row(monkeypatch, record_programs):
    # Every program built for a solver -- the searches' candidates and the
    # public wrappers' profiles under every blocked set -- must equal the
    # Fraction-summing builder's.  Its LinearProgram form, which solve_lp
    # gets and _linear_program makes from the integer form and the rows'
    # units, must equal it coefficient for coefficient.  Its integer form,
    # which _dual_value gets, must have the reference objective in least
    # integers, and each row must be a positive multiple of the reference
    # row's <= form with no entry wider than that row by model.scale.
    # Each goes to _dual_value once, and to solve_lp right after it only
    # where the dual simplex gave no x.  Every contract a wrapper returns
    # carries the reference simplex's x for the reference program, so the
    # wrappers keep that simplex's tie rule although the dual simplex values
    # them first.
    handed = record_programs("_dual_value", "solve_lp")
    build = contracts._Compiled.program
    built = []
    checked = []
    current = None  # the instance being solved

    def checked_program(compiled, profile, with_state_transfers):
        program, units = built_program = build(compiled, profile, with_state_transfers)
        surviving = sorted(profile.finals)
        reference = reference_min_payment_program(current, profile, surviving, with_state_transfers)
        lp = contracts._linear_program(program, units)
        assert lp == reference
        objective, obj_scale, rows, n = program
        assert (objective, obj_scale) == scale(reference.objective) and n == reference.num_variables
        scaled_rows = dual_form(reference)[2]
        assert len(rows) == len(scaled_rows)
        for row, scaled in zip(rows, scaled_rows):
            assert len(row) == n + 1
            k = max(range(n + 1), key=lambda k: abs(scaled[k]))
            assert scaled[k] * row[k] > 0 or not any(scaled) and not any(row)
            assert all(a * row[k] == b * scaled[k] for a, b in zip(scaled, row))
            assert all(abs(b).bit_length() <= abs(a).bit_length() for a, b in zip(scaled, row))
        built.append((program, lp))
        checked.append((with_state_transfers, len(surviving)))
        return built_program

    def reference_x(instance, profile, with_state_transfers):
        program = reference_min_payment_program(instance, profile, sorted(profile.finals), with_state_transfers)
        result = fraction_simplex(program)
        return result.x if isinstance(result, LpOptimal) else None

    monkeypatch.setattr(contracts._Compiled, "program", checked_program)
    instances = [generate(FamilyParams(family, params)) for family, params in SEPARATION_FAMILIES]
    for kind in ("tree", "stochastic_first_stage", "deterministic_first_stage", "general"):
        for seed in range(20):
            inst = random_instance(kind, seed=seed)
            instances += [inst, *tie_heavy_variants(inst)]
    rng = random.Random("min-payment-rows")
    wrapped = 0
    for inst in instances:
        current = inst
        for solver in (optimal_standard, optimal_pay, optimal_terminate):
            solver(inst)
        every_state = range(inst.num_states)
        profile = _random_profile(rng, inst, every_state)
        contract = min_payment_standard(inst, profile)
        assert (contract and contract.transfers) == reference_x(inst, profile, False)
        profile = _random_profile(rng, inst, every_state)
        contract = min_payment_pay(inst, profile)
        assert (contract and contract.transfers + contract.state_transfers) == reference_x(inst, profile, True)
        wrapped += 2
        for size in range(inst.num_states + 1):
            for blocked in itertools.combinations(every_state, size):
                surviving = [s for s in every_state if s not in blocked]
                profile = _random_profile(rng, inst, surviving)
                contract = min_payment_terminate(inst, blocked, profile)
                assert (contract and contract.transfers) == reference_x(inst, profile, False)
                assert contract is None or contract.terminate_set == frozenset(blocked)
                wrapped += 1
    assert len(instances) == 5 + 4 * 20 * 5
    # Each built program went to _dual_value once, in order, and then its
    # LinearProgram form went to solve_lp exactly when _dual_value gave it a
    # value but no x.
    duals = [(program, result) for name, program, result in handed if name == "_dual_value"]
    assert len(duals) == len(built)
    assert all(a is b for (program, _), (integer, _) in zip(duals, built) for a, b in zip(program, integer))
    expected = []
    for (program, result), (_, lp) in zip(duals, built):
        expected.append(("_dual_value", program))
        if result[0] is not None and result[1] is None:
            expected.append(("solve_lp", lp))
    assert [(name, program) for name, program, _ in handed] == expected
    assert len(expected) > len(built)
    assert (False, 0) in checked  # every state blocked: m zero coefficients per row
    assert any(with_state_transfers for with_state_transfers, _ in checked)
    assert wrapped > 1000


def _stored(compiled):
    """The set of every nogood ``compiled`` keeps."""
    return {nogood for group in compiled.nogoods.values() for nogood in group}


def test_a_program_is_skipped_only_when_a_checked_certificate_refutes_it(monkeypatch):
    # A Farkas certificate zero on every initial row stores the (state,
    # final) pairs owning its support as a nogood, and a later program with
    # those pairs is not built but taken as infeasible, by any search or
    # wrapper.  Each stored certificate must prove its program infeasible, by
    # the oracle's own check, and name exactly the pairs owning its support,
    # whose final rows alone must be infeasible under the reference simplex;
    # and each skipped program, built by the reference builder, must be
    # infeasible under that simplex.
    learnt, skipped, refutations = [], [], []
    learn, refuted, minimal_payment = contracts._Compiled.learn, contracts._Compiled.refuted, contracts._minimal_payment
    current = None  # the instance being solved

    def recording_learn(compiled, pairs, rows, y):
        stored = _stored(compiled)
        learn(compiled, pairs, rows, y)
        learnt.extend((current, pairs, rows, y, nogood) for nogood in _stored(compiled) - stored)

    def recording_refuted(compiled, pairs):
        refutes = refuted(compiled, pairs)
        if refutes:
            refutations.append(pairs)
        return refutes

    def recording_minimal_payment(instance, profile, with_state_transfers):
        seen = len(refutations)
        solution = minimal_payment(instance, profile, with_state_transfers)
        if len(refutations) > seen:
            assert solution is None
            skipped.append((instance, profile, with_state_transfers))
        return solution

    monkeypatch.setattr(contracts._Compiled, "learn", recording_learn)
    monkeypatch.setattr(contracts._Compiled, "refuted", recording_refuted)
    monkeypatch.setattr(contracts, "_minimal_payment", recording_minimal_payment)
    instances = [generate(FamilyParams(family, params)) for family, params in SEPARATION_FAMILIES]
    instances.append(cost_ladder_instance(4, 4))
    for kind in KINDS:
        for seed in range(20):
            inst = random_instance(kind, seed=seed)
            instances += [inst, *tie_heavy_variants(inst)]
    rng = random.Random("nogood-skips")
    wrapped = 0
    for inst in instances:
        current = inst
        for solver in (optimal_standard, optimal_pay, optimal_terminate):
            solver(inst)
        searched = len(skipped)
        every_state = range(inst.num_states)
        for _ in range(4):
            min_payment_standard(inst, _random_profile(rng, inst, every_state))
            min_payment_pay(inst, _random_profile(rng, inst, every_state))
            blocked = [s for s in every_state if rng.random() < 0.5]
            surviving = [s for s in every_state if s not in blocked]
            min_payment_terminate(inst, blocked, _random_profile(rng, inst, surviving))
        wrapped += len(skipped) - searched
    for inst, pairs, rows, y, nogood in learnt:
        assert proves_infeasible(rows, y)
        owners = [(s, j) for s, j in pairs for _ in inst.states[s].final_actions[1:]]
        assert not any(y[len(owners) :])
        assert nogood == {pair for pair, c in zip(owners, y) if c}
        states = sorted(s for s, _ in nogood)
        reference = reference_min_payment_program(inst, ActionProfile(0, dict(nogood)), states, False)
        final_rows = reference.constraints[: sum(len(inst.states[s].final_actions) - 1 for s in states)]
        assert isinstance(fraction_simplex(LinearProgram([F(0)] * inst.num_outcomes, final_rows)), LpInfeasible)
    for inst, profile, with_state_transfers in skipped:
        program = reference_min_payment_program(inst, profile, sorted(profile.finals), with_state_transfers)
        assert isinstance(fraction_simplex(program), LpInfeasible), (inst, profile)
    assert len(learnt) > 300 and len(skipped) > 2000, (len(learnt), len(skipped))
    assert any(with_state_transfers for _, _, with_state_transfers in skipped)
    assert wrapped > 20


# (multipliers, <= rows over two columns then the right-hand side): the final
# rows of the pairs (0, 0) and (1, 1) of midterm, then one initial row.  Each
# certificate breaks exactly one of y >= 0, y.A >= 0 and y.b < 0, or all-zero
# multipliers prove nothing.
_BAD_CERTIFICATES = {
    "negative multiplier": ((1, -1, 0), [[1, 0, -1], [0, 0, 1], [0, 0, 0]]),
    "negative column": ((1, 1, 0), [[1, 0, -1], [0, -1, 0], [0, 0, 0]]),
    "right-hand side not negative": ((1, 0, 0), [[1, 0, 0], [0, 1, -1], [0, 0, 0]]),
    "all zero": ((0, 0, 0), [[1, 0, -1], [0, 1, -1], [0, 0, 0]]),
}


@pytest.mark.parametrize("name", sorted(_BAD_CERTIFICATES))
def test_a_certificate_that_proves_nothing_is_refused(midterm, name):
    y, rows = _BAD_CERTIFICATES[name]
    compiled = contracts._Compiled(midterm)
    with pytest.raises(SolverInvariantError, match="^a Farkas certificate does not prove its program infeasible$"):
        compiled.learn(((0, 0), (1, 1)), rows, y)
    assert compiled.nogoods == {}


def test_a_certificate_stores_the_pairs_owning_its_final_support(midterm):
    compiled = contracts._Compiled(midterm)
    rows = [[1, 0, -1], [0, 1, 1], [5, -7, 2]]
    compiled.learn(((0, 0), (1, 1)), rows, (0, 0, 3))  # an initial row: not stored, not checked
    compiled.learn(((0, 0), (1, 1)), rows, (2, 1, 0))
    compiled.learn(((0, 0), (1, 1)), rows, (1, 0, 0))
    assert compiled.nogoods == {(0, 0): [{(0, 0), (1, 1)}, {(0, 0)}]}
    assert compiled.refuted(((0, 0), (1, 0))) and not compiled.refuted(((0, 1), (1, 1)))


# Replaces contracts._dual_value: the first multiplier of every infeasible
# program's certificate becomes -1.
_CORRUPTED_CERTIFICATE = (
    "lambda *program: (lambda value, y: (value, y) if value is not None else (None, (-1, *y[1:])))(*real(*program))"
)


def test_a_corrupted_certificate_raises(monkeypatch):
    # interim_review stores a nogood from a certificate on final rows alone,
    # so the check sees the corrupted multiplier before anything is skipped.
    real = contracts._dual_value
    monkeypatch.setattr(contracts, "_dual_value", eval(_CORRUPTED_CERTIFICATE, {"real": real}))
    with pytest.raises(SolverInvariantError, match="^a Farkas certificate does not prove its program infeasible$"):
        optimal_standard(interim_review_instance())


def test_a_corrupted_certificate_raises_under_optimize_flag(child_env):
    script = (
        "from twostage import contracts, interim_review_instance, optimal_standard\n"
        f"contracts._dual_value = eval({_CORRUPTED_CERTIFICATE!r}, {{'real': contracts._dual_value}})\n"
        "try:\n"
        "    optimal_standard(interim_review_instance())\n"
        "except contracts.SolverInvariantError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60, env=child_env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "a Farkas certificate does not prove its program infeasible\n"


def test_searches_build_a_linear_program_only_to_re_solve(monkeypatch, record_programs, tmp_path):
    # The searches value every candidate in integers: compare on the
    # separation families builds a LinearProgram only for each program that
    # solve_lp re-solves, 8 of them, as many as before the integer build.
    handed = record_programs("solve_lp")
    built = []
    post_init = LinearProgram.__post_init__
    monkeypatch.setattr(LinearProgram, "__post_init__", lambda self: built.append(self) or post_init(self))
    solved = 0
    for family, params in SEPARATION_FAMILIES:
        path = tmp_path / f"{family}.json"
        path.write_text(instance_to_json(generate(FamilyParams(family, params))))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compare", str(path)]) == 0
        results = json.loads(out.getvalue())["results"]
        solved += sum(results[kind]["programs_solved"] for kind in ("standard", "pay", "terminate"))
    assert len(built) == len(handed) == 8 and all(a is b for a, (_, b, _) in zip(built, handed))
    assert solved > 300


def test_searches_report_the_same_after_other_searches_on_the_instance():
    # An instance keeps the rows and the programs its searches and the
    # min_payment_* wrappers built, so a search that runs after others reuses
    # them.  What it reports, counters included, must equal what it reports
    # on a fresh copy of the instance.
    instances = [generate(FamilyParams(family, params)) for family, params in SEPARATION_FAMILIES]
    for kind in ("tree", "stochastic_first_stage", "deterministic_first_stage", "general"):
        for seed in range(20):
            inst = random_instance(kind, seed=seed)
            instances += [inst, *tie_heavy_variants(inst)]
    solvers = (optimal_standard, optimal_pay, optimal_terminate)
    rng = random.Random("earlier-wrappers")
    checked = 0
    for inst in instances:
        cold = {solver: solver(dataclasses.replace(inst)) for solver in solvers}
        for order in itertools.permutations(solvers):
            warm = dataclasses.replace(inst)
            for solver in order:
                assert solver(warm) == cold[solver], (solver.__name__, order, inst)
                checked += 1
        warm = dataclasses.replace(inst)
        every_state = range(inst.num_states)
        for _ in range(4):
            min_payment_standard(warm, _random_profile(rng, warm, every_state))
            min_payment_pay(warm, _random_profile(rng, warm, every_state))
            blocked = [s for s in every_state if rng.random() < 0.5]
            surviving = [s for s in every_state if s not in blocked]
            min_payment_terminate(warm, blocked, _random_profile(rng, warm, surviving))
        for solver in solvers:
            assert solver(warm) == cold[solver], (solver.__name__, "after min_payment_*", inst)
            checked += 1
    assert checked == (5 + 4 * 20 * 5) * 7 * 3


def test_compare_reuses_the_programs_its_standard_search_solved(monkeypatch, record_programs, tmp_path):
    # A search counts every program it asks for: each is valued by
    # _dual_value, refuted by a stored nogood or, after another search on the
    # instance, taken from the memo.  Cold, and for compare's standard and pay
    # searches, whose programs no earlier search asked for, the first two
    # make up the count exactly; compare's terminate search also reuses the
    # standard search's programs, and reports what it reports cold.
    handed = record_programs("_dual_value")
    skipped = []
    refuted = contracts._Compiled.refuted

    def counted_refuted(compiled, pairs):
        skip = refuted(compiled, pairs)
        if skip:
            skipped.append(pairs)
        return skip

    monkeypatch.setattr(contracts._Compiled, "refuted", counted_refuted)
    cold = optimal_terminate(cost_ladder_instance(3, 3))
    assert skipped and len(handed) + len(skipped) == cold.programs_solved

    asked = {}
    for kind in ("standard", "pay", "terminate"):

        def counted(instance, search=getattr(contracts, f"optimal_{kind}"), kind=kind, **caps):
            start = len(handed), len(skipped)
            report = search(instance, **caps)
            asked[kind] = (len(handed) - start[0], len(skipped) - start[1], report.programs_solved)
            return report

        monkeypatch.setattr(contracts, f"optimal_{kind}", counted)
    path = tmp_path / "ladder.json"
    path.write_text(instance_to_json(cost_ladder_instance(3, 3)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compare", str(path)]) == 0
    terminate_doc = json.loads(out.getvalue())["results"]["terminate"]
    for kind in ("standard", "pay"):
        calls, skips, solved = asked[kind]
        assert calls + skips == solved, kind
    calls, skips, solved = asked["terminate"]
    assert 0 < calls + skips < solved == cold.programs_solved
    assert terminate_doc["programs_solved"] == cold.programs_solved
    assert terminate_doc["infeasible_profiles"] == cold.infeasible_profiles


def test_the_memo_keeps_each_searched_program_s_expected_reward():
    # A search reads a candidate's profit as the reward the memo keeps, read
    # off its program's objective, minus its value.  That reward must be the
    # profile's expected reward for every program the three searches value:
    # profile_reward's, or, where a blocked state is one the initial action
    # reaches, the oracle's under a zero contract that blocks those states.
    instances = [generate(FamilyParams(family, params)) for family, params in SEPARATION_FAMILIES]
    for kind in KINDS:
        for seed in range(20):
            inst = random_instance(kind, seed=seed)
            instances += [inst, *tie_heavy_variants(inst)]
    checked = blocked = 0
    for inst in instances:
        for solver in (optimal_standard, optimal_pay, optimal_terminate):
            solver(inst)
        zero = (F(0),) * inst.num_outcomes
        for (_, initial, finals), solution in vars(inst)[contracts._COMPILED].programs.items():
            if solution is None:
                continue
            profile = ActionProfile(initial, dict(finals))
            reached = {s for s, p in enumerate(inst.initial_actions[initial].transition) if p}
            if reached <= set(profile.finals):
                assert solution[2] == profile_reward(inst, profile), (profile, inst)
            else:
                terminated = frozenset(range(inst.num_states)) - set(profile.finals)
                assert solution[2] == profile_value(inst, TerminateHalfwayContract(zero, terminated), profile)[2]
                blocked += 1
            checked += 1
    assert len(instances) == 5 + 4 * 20 * 5
    assert checked > 1000 and blocked > 20


def _midterm_with(initial_cost=F(0), fail_effort=(F(1, 5), F(4, 5))):
    """midterm with ``initial_cost`` added to each initial action's cost and the
    given outcome distribution for effort at the fail state."""
    midterm = midterm_instance()
    initial = tuple(InitialAction(a.name, a.cost + initial_cost, a.transition) for a in midterm.initial_actions)
    fail, passed = midterm.states
    effort, null = fail.final_actions
    fail = State(fail.name, (FinalAction(effort.name, effort.cost, fail_effort), null))
    return Instance(midterm.rewards, initial, (fail, passed))


# Each invalid instance, and the violation it is refused for.
INVALID_INSTANCES = {
    "negative_probability": (
        lambda: _midterm_with(fail_effort=(F(-1, 5), F(6, 5))),
        "states[0].final_actions[0].outcome_dist: distribution entries must lie in [0, 1]",
    ),
    "no_null_action": (
        lambda: _midterm_with(initial_cost=F(1)),
        "initial_actions: missing null initial action (zero cost)",
    ),
}

# Each entry that compiles an instance's programs, called with valid arguments.
COMPILING_ENTRIES = {
    "optimal_standard": optimal_standard,
    "optimal_pay": optimal_pay,
    "optimal_terminate": optimal_terminate,
    "min_payment_standard": lambda inst: min_payment_standard(inst, ActionProfile(0, {0: 0, 1: 0})),
    "min_payment_pay": lambda inst: min_payment_pay(inst, ActionProfile(0, {0: 0, 1: 0})),
    "min_payment_terminate": lambda inst: min_payment_terminate(inst, {1}, ActionProfile(0, {0: 0})),
}


@pytest.mark.parametrize("instance", sorted(INVALID_INSTANCES))
@pytest.mark.parametrize("entry", sorted(COMPILING_ENTRIES))
def test_every_compiling_entry_refuses_an_invalid_instance(entry, instance):
    build, violation = INVALID_INSTANCES[instance]
    inst = build()
    with pytest.raises(ValueError, match=f"^invalid instance: {re.escape(violation)}$"):
        COMPILING_ENTRIES[entry](inst)
    assert contracts._COMPILED not in vars(inst)


def test_pay_to_standard_tree_checks_dimensions_like_best_response():
    inst = random_instance("tree", seed=3)
    s, m = inst.num_states, inst.num_outcomes
    cases = [
        (PayHalfwayContract((F(0),) * (s + 1), (F(0),) * m), f"contract has {s + 1} state transfers, instance has {s} states"),
        (PayHalfwayContract((F(0),) * s, (F(0),) * (m + 1)), f"contract has {m + 1} transfers, instance has {m} outcomes"),
    ]
    for pay, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            pay_to_standard_tree(inst, pay)
        with pytest.raises(ValueError, match=f"^{message}$"):
            best_response(inst, pay)


def test_pay_to_standard_tree_refuses_every_other_contract_kind():
    # The contract's kind is checked before the contract is read, so a tree
    # with a negative reward refuses a linear contract by its kind too.
    tree = random_instance("tree", seed=3)
    negated = dataclasses.replace(tree, rewards=tuple(-r for r in tree.rewards))
    assert any(r < 0 for r in negated.rewards)
    for inst in (random_instance("tree", seed=1), negated):
        m = inst.num_outcomes
        others = [
            StandardContract((F(0),) * m),
            LinearContract(F(1, 2)),
            TerminateHalfwayContract((F(0),) * m, frozenset({0})),
        ]
        for contract in others:
            name = type(contract).__name__
            with pytest.raises(TypeError, match=f"^pay_to_standard_tree folds a PayHalfwayContract, not a {name}$"):
                pay_to_standard_tree(inst, contract)


def test_state_marker_contract_extracts_full_welfare():
    # Paying cost/epsilon on each state's marker outcome while blocking the
    # sink states makes every top-rung action exactly break even, so the
    # principal keeps each state's whole surplus.
    s, n2, eps = 2, 2, F(1, 1000)
    inst = state_markers_instance(s, n2, F(10), eps)
    transfers = [F(0)] * inst.num_outcomes
    for t in range(1, s + 1):
        top_cost = inst.states[t - 1].final_actions[n2 - 1].cost
        transfers[t + 2 - 1] = top_cost / eps
    blocked = frozenset(range(s, 2 * s + 1))
    response = best_response(inst, TerminateHalfwayContract(tuple(transfers), blocked))
    assert response.principal_profit == max_welfare(inst).max_welfare == F(2)
    assert response.agent_utility == 0


# --- optimal-contract searches --------------------------------------------------


def test_optimal_standard_worked_examples(midterm, interim_review):
    report = optimal_standard(midterm)
    assert report.profit == F(91, 36)
    assert report.best_contract.transfers == (F(0), F(20, 9))
    # the whole space counts; the bound leaves two programs to solve
    assert report.profiles_enumerated == 8
    assert report.programs_solved == 2
    assert report.infeasible_profiles == 0
    assert optimal_standard(interim_review).profit == F(6, 5)


def test_optimal_standard_on_payment_gap_rides_the_free_profile():
    # The zero contract already nets p*x through favorable tie-breaking, which
    # beats paying 5 to run the costly state (profit 15).
    inst = payment_gap_instance(F(9, 10), F(1, 2), F(1), F(20))
    report = optimal_standard(inst)
    assert report.profit == F(18)
    assert report.best_response.profile.initial == 0


def test_optimal_pay_worked_examples(midterm):
    report = optimal_pay(midterm)
    assert report.profit == F(11, 4)
    assert report.profit > F(2659, 1000)  # the illustrative contract is a lower bound
    assert report.welfare == F(29, 10)


def test_optimal_pay_extracts_ladder_welfare():
    report = optimal_pay(cost_ladder_instance(2, 2, F(10)))
    assert report.profit == F(7) == report.welfare


def test_optimal_terminate_worked_example(interim_review):
    report = optimal_terminate(interim_review)
    assert report.profit == F(19, 10)
    assert report.best_contract.terminate_set == frozenset({0})
    assert report.profit > optimal_standard(interim_review).profit
    assert report.termination_sets_enumerated == 4


def test_optimal_terminate_extracts_ladder_welfare():
    report = optimal_terminate(cost_ladder_instance(2, 2, F(10)))
    assert report.profit == F(7) == report.welfare


def test_pay_beats_terminate_when_reward_is_high():
    p, q, c, x = F(9, 10), F(1, 2), F(1), F(20)
    assert x > (p / q) * c
    inst = payment_gap_instance(p, q, c, x)
    pay = optimal_pay(inst).profit
    terminate = optimal_terminate(inst).profit
    standard = optimal_standard(inst).profit
    assert pay == x - (1 + p - q) * c == F(93, 5)
    assert pay > terminate
    assert terminate == max((1 - q) * (x - c), standard)


def test_terminate_beats_pay_when_reward_is_low():
    # the comparison flips on the other side of the x = (p/q)c boundary:
    # blocking the free state and paying c at the costly one wins
    p, q, c, x = F(3, 5), F(1, 10), F(1), F(4)
    assert x < (p / q) * c
    inst = payment_gap_instance(p, q, c, x)
    pay = optimal_pay(inst).profit
    terminate = optimal_terminate(inst).profit
    assert pay == x - (1 + p - q) * c == F(5, 2)
    assert terminate == (1 - q) * (x - c) == F(27, 10)
    assert terminate > pay


def test_enumeration_caps(midterm):
    # The space is initial actions times, per state, its distinct finals, plus
    # blocking for terminate: a cap equal to it runs, one less refuses.
    for search, may_block in ((optimal_standard, False), (optimal_pay, False), (optimal_terminate, True)):
        space = midterm.num_initial_actions * math.prod(
            len({(a.cost, a.outcome_dist) for a in state.final_actions}) + may_block for state in midterm.states
        )
        assert search(midterm, profiles_cap=space) == search(midterm)
        with pytest.raises(EnumerationCapExceeded, match=f"^{space} profiles to enumerate exceeds the cap of {space - 1}$"):
            search(midterm, profiles_cap=space - 1)


@pytest.mark.parametrize("cap", [True, "5", 2.5, None])
@pytest.mark.parametrize("search", [optimal_standard, optimal_pay, optimal_terminate])
def test_a_profiles_cap_that_is_not_an_integer_is_refused(midterm, search, cap):
    # True was compared as 1 ("exceeds the cap of True"), and "5" raised a
    # bare TypeError.
    with pytest.raises(ValueError, match=f"^{re.escape(f'profiles_cap must be an integer, not {cap!r}')}$"):
        search(midterm, profiles_cap=cap)


def test_a_numpy_profiles_cap_is_read_as_an_int(midterm):
    numpy = pytest.importorskip("numpy")
    assert optimal_standard(midterm, profiles_cap=numpy.int64(100)) == optimal_standard(midterm)
    with pytest.raises(EnumerationCapExceeded, match="exceeds the cap of 1$"):
        optimal_standard(midterm, profiles_cap=numpy.int64(1))


def test_dominance_and_bounds_on_random_instances():
    kinds = ("tree", "stochastic_first_stage", "deterministic_first_stage", "general")
    for kind, seed in itertools.product(kinds, range(40)):
        inst = random_instance(kind, seed=seed)
        standard = optimal_standard(inst)
        pay = optimal_pay(inst)
        terminate = optimal_terminate(inst)
        linear = optimal_linear(inst)
        welfare = standard.welfare
        assert pay.profit >= standard.profit >= linear.profit, (kind, seed)
        assert terminate.profit >= standard.profit, (kind, seed)
        assert max(pay.profit, terminate.profit) <= welfare, (kind, seed)
        assert standard.profit == standard.best_response.principal_profit, (kind, seed)
        # welfare-to-profit ratio bound with constant 1: the telescoping path
        # has at most S*N1*N2 steps, each worth at most the standard optimum
        bound = inst.num_states * inst.num_initial_actions * inst.max_final_actions
        assert welfare <= bound * standard.profit, (kind, seed)


def test_tree_processes_gain_nothing_from_either_contract():
    for seed in range(30):
        inst = random_instance("tree", seed=seed)
        standard = optimal_standard(inst).profit
        assert optimal_pay(inst).profit == standard
        assert optimal_terminate(inst).profit == standard


def test_single_initial_action_makes_pay_useless():
    for seed in range(30):
        inst = random_instance("stochastic_first_stage", seed=seed)
        assert optimal_pay(inst).profit == optimal_standard(inst).profit


def test_duplicate_final_actions_change_nothing(midterm):
    # collapsing identical finals is an internal optimization; cloning an
    # action must leave every optimum and tie-break untouched
    fail = midterm.states[0]
    cloned = type(midterm)(
        midterm.rewards,
        midterm.initial_actions,
        (
            type(fail)("fail", fail.final_actions + (fail.final_actions[0],)),
            midterm.states[1],
        ),
    )
    for solver in (optimal_standard, optimal_pay, optimal_terminate):
        base = solver(midterm)
        doubled = solver(cloned)
        assert doubled.profit == base.profit
        assert doubled.best_response.profile == base.best_response.profile


def test_optimal_terminate_matches_per_subset_programs():
    # independent route: call the public per-subset program for every
    # termination set and surviving profile, then take the best profit
    import itertools

    for seed in (0, 4, 9, 15, 21):
        inst = random_instance("general", seed=seed, max_states=3)
        states = range(inst.num_states)
        best = None
        for size in range(inst.num_states + 1):
            for subset in itertools.combinations(states, size):
                blocked = frozenset(subset)
                surviving = [s for s in states if s not in blocked]
                ranges = [range(len(inst.states[s].final_actions)) for s in surviving]
                for combo in itertools.product(*ranges):
                    for i in range(inst.num_initial_actions):
                        profile = ActionProfile(i, dict(zip(surviving, combo)))
                        contract = min_payment_terminate(inst, blocked, profile)
                        if contract is None:
                            continue
                        profit = evaluate_profile(inst, contract, profile).principal_profit
                        if best is None or profit > best:
                            best = profit
        assert optimal_terminate(inst).profit == best


def test_lattice_search_never_beats_the_program(midterm):
    # Known-value regression: with a 1/9 lattice the optimum is a grid point,
    # so the grid finds exactly the program's payment.
    profile = ActionProfile(0, {0: 1, 1: 1})
    grid_best = lattice_min_payment_standard(midterm, profile, F(1, 9), F(3))
    assert grid_best == F(91, 45)

    rng = random.Random(31)
    for _ in range(12):
        inst = random_instance("general", seed=rng.randrange(10**6), max_states=2, max_outcomes=2)
        profile = max_welfare(inst).argmax_profile
        contract = min_payment_standard(inst, profile)
        grid = lattice_min_payment_standard(inst, profile, F(1, 3), F(8))
        if contract is None:
            continue
        payment = evaluate_profile(inst, contract, profile).expected_payment
        if grid is not None:
            assert grid >= payment


@pytest.mark.parametrize("kind", ["pay", "terminate"])
def test_halfway_programs_match_an_independent_float_solve(kind):
    # Every profile of every blocked set (only the empty one for pay-halfway)
    # on small random instances of all four classes: the exact program is
    # infeasible exactly when the float program is, and otherwise it costs
    # the same and the contract makes the profile a best response.
    with_state_transfers = kind == "pay"
    checked = feasible = 0
    for process_class in ("tree", "stochastic_first_stage", "deterministic_first_stage", "general"):
        for seed in range(6):
            inst = random_instance(process_class, seed=seed)
            states = range(inst.num_states)
            sizes = range(1) if with_state_transfers else range(inst.num_states + 1)
            for blocked in (b for size in sizes for b in itertools.combinations(states, size)):
                surviving = [s for s in states if s not in blocked]
                for profile in iter_profiles(inst, surviving):
                    if with_state_transfers:
                        contract = min_payment_pay(inst, profile)
                    else:
                        contract = min_payment_terminate(inst, blocked, profile)
                    reference = scipy_lp_min(
                        incentive_program(inst, profile, surviving, with_state_transfers)
                    )
                    checked += 1
                    if contract is None:
                        assert reference.status == 2, (process_class, seed, blocked, profile)
                        continue
                    assert reference.status == 0, (process_class, seed, blocked, profile)
                    feasible += 1
                    ev = evaluate_profile(inst, contract, profile)
                    assert math.isclose(
                        float(ev.expected_payment), reference.fun, rel_tol=1e-9, abs_tol=1e-9
                    ), (process_class, seed, blocked, profile)
                    assert ev.agent_utility == best_response(inst, contract).agent_utility
    assert 0 < feasible < checked


# --- the pruned search against the exhaustive oracle ------------------------------


def assert_matches_exhaustive_search(inst):
    for kind, solver in (
        ("standard", optimal_standard),
        ("pay", optimal_pay),
        ("terminate", optimal_terminate),
    ):
        contract, profit = exhaustive_optimum(inst, kind)
        report = solver(inst)
        assert report.best_contract == contract, kind
        assert report.best_response.profile == best_response(inst, contract).profile, kind
        assert report.profit == profit, kind


@pytest.mark.parametrize(
    "family,params",
    [
        ("midterm", {}),
        ("interim_review", {}),
        ("payment_gap", {"p": F(9, 10), "q": F(1, 2), "c": F(1), "x": F(20)}),
        ("payment_gap", {"p": F(3, 5), "q": F(1, 10), "c": F(1), "x": F(4)}),
        ("cost_ladder", {"n1": 2, "n2": 2}),
        ("state_markers", {"s": 2, "n2": 2}),
        ("random_tree", {"seed": 3}),
        ("random_stochastic", {"seed": 3}),
        ("random_deterministic", {"seed": 3}),
        ("random_general", {"seed": 3}),
    ],
)
def test_search_matches_exhaustive_oracle_on_families(family, params):
    inst = generate(FamilyParams(family, params))
    for variant in [inst, *tie_heavy_variants(inst)]:
        assert_matches_exhaustive_search(variant)


@pytest.mark.parametrize(
    "kind", ["tree", "stochastic_first_stage", "deterministic_first_stage", "general"]
)
def test_search_matches_exhaustive_oracle_on_random_instances(kind):
    for seed in range(25):
        inst = random_instance(kind, seed=seed)
        assert_matches_exhaustive_search(inst)
        if seed % 5 == 0:
            for variant in tie_heavy_variants(inst):
                assert_matches_exhaustive_search(variant)


def test_pay_search_keeps_the_earlier_of_two_tied_candidates():
    # From the grid of every instance with two outcomes, two states, two
    # initial actions and two finals per state, probabilities in {0, 1/2, 1}.
    # Initial action a reaches s0 alone, b each state half the time.  With w
    # at both states, a earns 3/2 under a state transfer of 1/2 at s0, and b
    # earns 3/2 with no state transfer.  The tie goes to a, first in the
    # order; a search that let a later candidate of equal profit replace the
    # incumbent would return b's contract.
    def final(name, cost, dist):
        return FinalAction(name, F(cost), tuple(map(F, dist)))

    inst = Instance(
        (F(0), F(3)),
        (InitialAction("a", F(0), (F(1), F(0))), InitialAction("b", F(0), (F(1, 2), F(1, 2)))),
        (
            State("s0", (final("n", 0, (1, 0)), final("w", 1, (0, 1)))),
            State("s1", (final("n", 0, (1, 0)), final("w", 0, ("1/2", "1/2")))),
        ),
    )
    report = optimal_pay(inst)
    assert report.best_contract == PayHalfwayContract((F(1, 2), F(0)), (F(0), F(1)))
    assert report.best_response.profile == ActionProfile(0, {0: 1, 1: 1}) and report.profit == F(3, 2)
    assert exhaustive_optimum(inst, "pay") == (report.best_contract, report.profit)
    assert_matches_exhaustive_search(inst)


def _scaled_instance(inst, factor):
    """``inst`` with every reward and every action cost multiplied by ``factor``."""
    return Instance(
        tuple(r * factor for r in inst.rewards),
        tuple(InitialAction(a.name, a.cost * factor, a.transition) for a in inst.initial_actions),
        tuple(
            State(s.name, tuple(FinalAction(a.name, a.cost * factor, a.outcome_dist) for a in s.final_actions))
            for s in inst.states
        ),
    )


def _scaled_contract(contract, factor):
    """``contract`` with every transfer multiplied by ``factor``, its terminate set kept."""
    names = [f.name for f in dataclasses.fields(contract) if f.name != "terminate_set"]
    return dataclasses.replace(contract, **{name: tuple(factor * t for t in getattr(contract, name)) for name in names})


@pytest.mark.parametrize("factor", [F(7, 3), F(1, 1000)], ids=["7/3", "1/1000"])
def test_scaling_rewards_and_costs_scales_every_optimum(factor):
    # Every incentive row's right-hand side, every objective value and every
    # term of the search's bound scales by the factor, and nothing else does:
    # profits, welfare and transfers scale, while the profile, the terminate
    # set, linear's alpha and the programs the search solves stay the same.
    checked = 0
    for kind in ("tree", "stochastic_first_stage", "deterministic_first_stage", "general"):
        for seed in range(15):
            base = random_instance(kind, seed=seed)
            for inst in [base, *tie_heavy_variants(base)]:
                scaled = _scaled_instance(inst, factor)
                for solver in (optimal_standard, optimal_pay, optimal_terminate):
                    report, scaled_report = solver(inst), solver(scaled)
                    assert scaled_report.best_contract == _scaled_contract(report.best_contract, factor)
                    assert scaled_report.best_response.profile == report.best_response.profile
                    assert (scaled_report.profit, scaled_report.welfare) == (factor * report.profit, factor * report.welfare)
                    assert scaled_report.programs_solved == report.programs_solved
                    assert scaled_report.infeasible_profiles == report.infeasible_profiles
                    checked += 1
                linear, scaled_linear = optimal_linear(inst), optimal_linear(scaled)
                assert (scaled_linear.alpha, scaled_linear.profit) == (linear.alpha, factor * linear.profit)
    assert checked == 4 * 15 * 5 * 3


KINDS = ("tree", "stochastic_first_stage", "deterministic_first_stage", "general")


def _bound_table(inst, may_block):
    """The search's table for ``inst``, as a fresh ``_Compiled`` builds it."""
    return contracts._Compiled(inst).bound_table(inst, may_block)


def test_bound_table_matches_the_fraction_reference():
    # Every term and seed is the Fraction bound times the one denominator,
    # an int, and the options come in the Fraction table's order.
    instances = [generate(FamilyParams(family, params)) for family, params in SEPARATION_FAMILIES]
    for kind in KINDS:
        for seed in range(20):
            inst = random_instance(kind, seed=seed)
            instances += [inst, *tie_heavy_variants(inst)]
    checked = 0
    for inst in instances:
        for may_block in (False, True):
            options, seeds, denominator = _bound_table(inst, may_block)
            reference_options, reference_seeds = reference_bound_table(inst, may_block)
            assert type(denominator) is int and denominator > 0
            assert all(type(seed) is int for seed in seeds)
            assert seeds == [seed * denominator for seed in reference_seeds]
            assert len(options) == len(reference_options)
            for rows, reference_rows in zip(options, reference_options):
                assert [[j for _, j in row] for row in rows] == [[j for _, j in row] for row in reference_rows]
                for row, reference_row in zip(rows, reference_rows):
                    assert all(type(term) is int for term, _ in row)
                    assert [term for term, _ in row] == [term * denominator for term, _ in reference_row]
            checked += 1
    assert checked == 2 * (5 + 4 * 20 * 5)


def test_every_candidate_bound_is_its_welfare_and_at_least_its_profit():
    # Enumerate every candidate of the three searches: the table's bound for
    # it, its seed plus each state's step down from its first option, over
    # the denominator, is its welfare (a blocked state adds 0), and where
    # its program is feasible it is at least the candidate's profit.
    instances = []
    for kind in KINDS:
        for seed in range(20):
            inst = random_instance(kind, seed=seed)
            instances += [inst, *(tie_heavy_variants(inst) if seed % 5 == 0 else [])]
    candidates = feasible = 0
    for inst, search in itertools.product(instances, ("standard", "pay", "terminate")):
        states = range(inst.num_states)
        zero = (F(0),) * inst.num_outcomes
        options, seeds, denominator = _bound_table(inst, search == "terminate")
        picks_by_state = [finals + ([BLOCKED] if search == "terminate" else []) for finals in distinct_finals(inst)]
        for i, rows in enumerate(options):
            steps = [{j: term - row[0][0] for term, j in row} for row in rows]
            for picks in itertools.product(*picks_by_state):
                bound = seeds[i] + sum(steps[s][j] for s, j in enumerate(picks))
                blocked = frozenset(s for s in states if picks[s] == BLOCKED)
                profile = ActionProfile(i, {s: j for s, j in enumerate(picks) if j != BLOCKED})
                utility, _, reward = profile_value(inst, TerminateHalfwayContract(zero, blocked), profile)
                assert F(bound, denominator) == utility + reward, (search, profile, inst)
                if not blocked:
                    assert utility + reward == profile_reward(inst, profile) - profile_cost(inst, profile)
                if search == "standard":
                    contract = min_payment_standard(inst, profile)
                elif search == "pay":
                    contract = min_payment_pay(inst, profile)
                else:
                    contract = min_payment_terminate(inst, blocked, profile)
                candidates += 1
                if contract is not None:
                    assert bound >= profile_value(inst, contract, profile)[2] * denominator, (search, profile, inst)
                    feasible += 1
    assert candidates > feasible > 4000


def test_compare_builds_two_bound_tables_per_instance(monkeypatch, tmp_path):
    # The standard and pay searches share one table, the terminate search
    # builds the other, and the min_payment_* wrappers build none.
    built = []
    build = contracts._Compiled.bound_table
    monkeypatch.setattr(
        contracts._Compiled, "bound_table", lambda self, inst, may_block: built.append(may_block) or build(self, inst, may_block)
    )
    for family, params in SEPARATION_FAMILIES:
        inst = generate(FamilyParams(family, params))
        every_state = range(inst.num_states)
        rng = random.Random(family)
        min_payment_standard(inst, _random_profile(rng, inst, every_state))
        min_payment_pay(inst, _random_profile(rng, inst, every_state))
        min_payment_terminate(inst, [0], _random_profile(rng, inst, every_state[1:]))
        assert built == []
        path = tmp_path / f"{family}.json"
        path.write_text(instance_to_json(inst))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compare", str(path)]) == 0
        assert built == [False, True], family
        built.clear()


def _permuted(inst, rng):
    """``inst`` with its outcomes, states, initial actions and each state's
    finals relabelled by permutations drawn from ``rng``."""

    def order(n):
        return rng.sample(range(n), n)

    outcomes, states = order(inst.num_outcomes), order(inst.num_states)
    return Instance(
        tuple(inst.rewards[k] for k in outcomes),
        tuple(
            InitialAction(a.name, a.cost, tuple(a.transition[s] for s in states))
            for a in (inst.initial_actions[i] for i in order(inst.num_initial_actions))
        ),
        tuple(
            State(
                state.name,
                tuple(
                    FinalAction(a.name, a.cost, tuple(a.outcome_dist[k] for k in outcomes))
                    for a in (state.final_actions[j] for j in order(len(state.final_actions)))
                ),
            )
            for state in (inst.states[s] for s in states)
        ),
    )


def test_relabelling_keeps_every_optimal_profit():
    # Profits do not depend on the labels, though the tie-broken contracts may.
    rng = random.Random("relabel")
    checked = 0
    for kind in KINDS:
        for seed in range(15):
            base = random_instance(kind, seed=seed)
            for inst in [base, *tie_heavy_variants(base)]:
                permuted = _permuted(inst, rng)
                for solver in (optimal_standard, optimal_pay, optimal_terminate):
                    report, permuted_report = solver(inst), solver(permuted)
                    assert (permuted_report.profit, permuted_report.welfare) == (report.profit, report.welfare)
                    checked += 1
                assert optimal_linear(permuted).profit == optimal_linear(inst).profit
    assert checked == 4 * 15 * 5 * 3


# --- reductions -----------------------------------------------------------------


def test_pay_to_standard_identity_when_state_transfers_zero():
    inst = random_instance("tree", seed=5)
    pay = PayHalfwayContract((F(0),) * inst.num_states, (F(1, 2),) * inst.num_outcomes)
    assert pay_to_standard_tree(inst, pay).transfers == pay.transfers


def test_pay_to_standard_adds_predecessor_transfer():
    inst = random_instance("tree", seed=8)
    state_transfers = tuple(F(s + 1) for s in range(inst.num_states))
    transfers = tuple(F(1, 4) for _ in range(inst.num_outcomes))
    merged = pay_to_standard_tree(inst, PayHalfwayContract(state_transfers, transfers))
    for m in range(inst.num_outcomes):
        owners = [
            s
            for s, state in enumerate(inst.states)
            if any(a.outcome_dist[m] > 0 for a in state.final_actions)
        ]
        assert len(owners) <= 1
        expected = transfers[m] + (state_transfers[owners[0]] if owners else 0)
        assert merged.transfers[m] == expected


def test_pay_to_standard_preserves_behavior_on_random_trees():
    rng = random.Random(13)
    for seed in range(30):
        inst = random_instance("tree", seed=seed)
        pay = PayHalfwayContract(
            tuple(F(rng.randint(0, 5), 2) for _ in range(inst.num_states)),
            tuple(F(rng.randint(0, 6), 3) for _ in range(inst.num_outcomes)),
        )
        merged = pay_to_standard_tree(inst, pay)
        before = best_response(inst, pay)
        after = best_response(inst, merged)
        assert before.profile == after.profile
        assert before.expected_payment == after.expected_payment
        assert before.principal_profit == after.principal_profit


def test_pay_to_standard_requires_tree(midterm):
    pay = PayHalfwayContract((F(0), F(2)), (F(0), F(1, 10)))
    with pytest.raises(ValueError):
        pay_to_standard_tree(midterm, pay)


def test_reduce_deterministic_counts_composites():
    reduced = reduce_deterministic(cost_ladder_instance(2, 2, F(10)))
    assert reduced.initial_actions == (InitialAction("start", F(0), (F(1),)),)
    assert [state.name for state in reduced.states] == ["composite"]
    composites = reduced.states[0].final_actions
    assert len(composites) == 9  # 3 initial actions x 3 finals at their states
    assert any(a.cost == 0 for a in composites)


def test_reduce_deterministic_requires_deterministic(midterm):
    with pytest.raises(ValueError):
        reduce_deterministic(midterm)


def test_reduction_preserves_optimal_standard_profit():
    targets = [cost_ladder_instance(2, 2, F(10)), cost_ladder_instance(1, 2, F(10))]
    targets += [random_instance("deterministic_first_stage", seed=s) for s in range(20)]
    for inst in targets:
        reduced = reduce_deterministic(inst)
        assert validate(reduced).ok
        report = optimal_standard(reduced)
        assert report.profit == optimal_standard(inst).profit
        contract, profit = exhaustive_optimum(reduced, "standard")
        assert report.best_contract == contract
        assert report.best_response.profile == best_response(reduced, contract).profile
        assert report.profit == profit


def test_single_initial_deterministic_reduction_is_that_state():
    inst = random_instance("deterministic_first_stage", seed=2, max_initial_actions=1)
    composites = reduce_deterministic(inst).states[0].final_actions
    init = inst.initial_actions[0]
    dest = init.transition.index(F(1))
    finals = inst.states[dest].final_actions
    assert [a.name for a in composites] == [f"{init.name}/{a.name}" for a in finals]
    assert [a.cost for a in composites] == [init.cost + a.cost for a in finals]
    assert [a.outcome_dist for a in composites] == [a.outcome_dist for a in finals]


def one_state_instance(rewards, *finals):
    """A one-shot problem: one free initial action leading to one state."""
    return Instance(rewards, (InitialAction("start", F(0), (F(1),)),), (State("only", finals),))


def test_one_state_instance_closed_form():
    inst = one_state_instance(
        (F(0), F(5)),
        FinalAction("null", F(0), (F(9, 10), F(1, 10))),
        FinalAction("work", F(1), (F(1, 5), F(4, 5))),
    )
    report = optimal_standard(inst)
    assert report.best_response.profile.finals[0] == 1
    assert report.best_contract.transfers == (F(0), F(10, 7))
    assert report.best_response.expected_payment == F(8, 7)
    assert report.profit == F(20, 7)


def test_one_state_instance_null_only():
    report = optimal_standard(one_state_instance((F(3),), FinalAction("null", F(0), (F(1),))))
    assert report.best_contract.transfers == (F(0),)
    assert report.profit == F(3)
