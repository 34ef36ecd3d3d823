import collections
import itertools
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from twostage import (
    Constraint,
    FamilyParams,
    LinearProgram,
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    SolverInvariantError,
    contracts,
    generate,
    lp as lp_module,
    optimal_pay,
    optimal_standard,
    optimal_terminate,
    random_instance,
    solve_lp,
)
from twostage.model import scale

from oracles import dual_form, fraction_simplex, scipy_lp_min, tie_heavy_variants


def test_single_lower_bound():
    result = solve_lp(LinearProgram((F(1),), (Constraint((F(1),), ">=", F(3)),)))
    assert isinstance(result, LpOptimal)
    assert result.x == (F(3),)
    assert result.objective_value == F(3)


@pytest.mark.parametrize("relation", ["<", "=", "=>", ""])
def test_constraint_rejects_an_unknown_relation(relation):
    with pytest.raises(ValueError, match=f"^unknown relation {relation!r}$"):
        Constraint((F(1),), relation, F(0))


def test_the_tableau_and_the_answers_are_plain_ints():
    # minimize x1 + 2 x2 with x1/2 + x2/3 >= 5/6, x1 <= 1 and x1 - x2 == 0.
    rows = (
        Constraint((F(1, 2), F(1, 3)), ">=", F(5, 6)),
        Constraint((F(1), F(0)), "<=", F(1)),
        Constraint((F(1), F(-1)), "==", F(0)),
    )
    for row in rows:
        numerators, denominator = scale((*row.coeffs, row.rhs))
        assert all(type(v) is int for v in (*numerators, denominator))
    program = LinearProgram((F(1), F(2)), rows)
    result = solve_lp(program)
    value, x = lp_module._dual_value(*dual_form(program))
    assert (result.x, result.objective_value) == (x, value) == ((F(1), F(1)), F(3))
    answers = [*result.x, result.objective_value, *result.dual, value, *x]
    assert all(type(a) is F and type(a.numerator) is int and type(a.denominator) is int for a in answers)


def test_incentive_program_regression():
    # minimize 0.91 t subject to 0.81 t >= 1.8 and 0.7 t <= 2
    lp = LinearProgram(
        (F(91, 100),),
        (
            Constraint((F(81, 100),), ">=", F(9, 5)),
            Constraint((F(7, 10),), "<=", F(2)),
        ),
    )
    result = solve_lp(lp)
    assert result.x == (F(20, 9),)
    assert result.objective_value == F(91, 45)


def test_infeasible():
    lp = LinearProgram((F(1),), (Constraint((F(1),), "<=", F(-1)),))
    assert isinstance(solve_lp(lp), LpInfeasible)


def test_unbounded():
    assert isinstance(solve_lp(LinearProgram((F(-1),), ())), LpUnbounded)


def test_empty_program_is_zero():
    result = solve_lp(LinearProgram((F(2), F(3)), ()))
    assert result.x == (F(0), F(0))


def test_equality_constraint():
    lp = LinearProgram(
        (F(1), F(1)),
        (
            Constraint((F(1), F(1)), "==", F(4)),
            Constraint((F(1), F(0)), ">=", F(1)),
        ),
    )
    result = solve_lp(lp)
    assert result.objective_value == F(4)
    assert sum(result.x) == F(4)
    assert result.x[0] >= 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram((F(1),), (Constraint((F(1), F(2)), ">=", F(0)),))


def _random_lp(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 10)
    rows = rng.randint(1, 20)
    objective = tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in range(n))
    constraints = []
    for _ in range(rows):
        coeffs = tuple(F(rng.randint(-4, 6), rng.choice((1, 2, 3))) for _ in range(n))
        relation = rng.choice(("<=", "<=", ">=", ">=", "=="))
        if relation == "<=":
            rhs = F(rng.randint(0, 12), rng.choice((1, 2)))
        elif relation == ">=":
            rhs = F(rng.randint(-5, 6), rng.choice((1, 2)))
        else:
            rhs = F(rng.randint(0, 4), rng.choice((1, 2)))
        constraints.append(Constraint(coeffs, relation, rhs))
    return LinearProgram(objective, tuple(constraints))


def _boxed_lp(rng: random.Random) -> LinearProgram:
    """A ``_random_lp`` with costs of both signs and a ``<=`` box row on each
    variable, so it is never unbounded and phase 2 has pivots to take."""
    lp = _random_lp(rng)
    n = lp.num_variables
    objective = [F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
    objective[rng.randrange(n)] = F(-rng.randint(1, 9), rng.choice((1, 2, 3)))
    boxes = tuple(
        Constraint(tuple(F(int(k == j)) for k in range(n)), "<=", F(rng.randint(0, 12), rng.choice((1, 2))))
        for j in range(n)
    )
    return LinearProgram(tuple(objective), lp.constraints + boxes)


def _satisfies(lp: LinearProgram, x) -> bool:
    for row in lp.constraints:
        lhs = sum((c * v for c, v in zip(row.coeffs, x)), F(0))
        if row.relation == "<=" and not lhs <= row.rhs:
            return False
        if row.relation == ">=" and not lhs >= row.rhs:
            return False
        if row.relation == "==" and lhs != row.rhs:
            return False
    return all(v >= 0 for v in x)


def test_optimal_solutions_are_exactly_feasible():
    rng = random.Random(42)
    solved = negative = 0
    for k in range(240):
        lp = _random_lp(rng) if k < 120 else _boxed_lp(rng)
        result = solve_lp(lp)
        if isinstance(result, LpOptimal):
            solved += 1
            assert _satisfies(lp, result.x)
            value = sum((c * v for c, v in zip(lp.objective, result.x)), F(0))
            assert value == result.objective_value
            negative += value < 0
    assert solved > 30  # the generator must actually exercise the solver
    assert negative > 10  # and the boxed programs must reach negative optima


def test_duality_certificates():
    # Dual feasibility plus strong duality: y.b == c.x with y >= 0 on >= rows,
    # y <= 0 on <= rows, free on == rows, and y.A <= c componentwise.
    rng = random.Random(7)
    checked = 0
    for _ in range(120):
        lp = _random_lp(rng)
        result = solve_lp(lp)
        if not isinstance(result, LpOptimal):
            continue
        checked += 1
        for y, row in zip(result.dual, lp.constraints):
            if row.relation == ">=":
                assert y >= 0
            elif row.relation == "<=":
                assert y <= 0
        dual_value = sum((y * row.rhs for y, row in zip(result.dual, lp.constraints)), F(0))
        assert dual_value == result.objective_value
        for j in range(lp.num_variables):
            column = sum(
                (y * row.coeffs[j] for y, row in zip(result.dual, lp.constraints)), F(0)
            )
            assert column <= lp.objective[j]
    assert checked > 30


def test_agreement_with_float_reference():
    rng = random.Random(2024)
    agreements = 0
    for _ in range(80):
        lp = _random_lp(rng)
        exact = solve_lp(lp)
        approx = scipy_lp_min(lp)
        if isinstance(exact, LpOptimal):
            assert approx.status == 0
            reference = approx.fun
            scale = max(1.0, abs(reference))
            assert abs(float(exact.objective_value) - reference) <= 1e-9 * scale
            agreements += 1
        elif isinstance(exact, LpInfeasible):
            assert approx.status == 2
        else:
            assert approx.status == 3
    assert agreements > 25


def test_redundant_equality_rows():
    # a duplicated equality leaves a degenerate artificial in the basis,
    # which must not disturb phase 2
    lp = LinearProgram(
        (F(1), F(2)),
        (
            Constraint((F(1), F(1)), "==", F(2)),
            Constraint((F(1), F(1)), "==", F(2)),
            Constraint((F(2), F(2)), "==", F(4)),
        ),
    )
    result = solve_lp(lp)
    assert isinstance(result, LpOptimal)
    assert result.x == (F(2), F(0))
    assert result.objective_value == F(2)


def test_zero_rhs_inequalities():
    lp = LinearProgram(
        (F(0), F(1)),
        (
            Constraint((F(1), F(-1)), ">=", F(0)),
            Constraint((F(1), F(0)), ">=", F(3)),
            Constraint((F(0), F(1)), ">=", F(0)),
        ),
    )
    result = solve_lp(lp)
    assert result.x == (F(3), F(0))


def test_rows_shared_by_programs_are_scaled_once_and_never_written():
    # Programs that share a Constraint must not change one another: solve_lp
    # negates, splits and pads copies of its scaled row, whatever the order.
    def build():
        flipped = Constraint((F(-1, 2), F(-1, 3)), "<=", F(-3, 4))  # negated on entry
        equal = Constraint((F(2, 3), F(-1)), "==", F(-1, 6))  # split, then negated
        return [
            LinearProgram((F(1), F(1)), (flipped,)),
            LinearProgram((F(2), F(1)), (flipped, equal)),
            LinearProgram((F(1), F(3)), (equal,)),
        ]

    expected = [fraction_simplex(lp) for lp in build()]
    assert all(isinstance(result, LpOptimal) for result in expected)
    for order in itertools.permutations(range(3)):
        programs = build()
        for _ in range(2):
            for k in order:
                assert solve_lp(programs[k]) == expected[k], order


def test_determinism():
    rng = random.Random(5)
    lp = _random_lp(rng)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first == second


# --- the integer simplex against the Fraction reference ------------------------


def test_random_programs_match_the_fraction_simplex():
    # Same status, x, objective value and duals: the integer tableau must take
    # exactly the pivots of the Fraction tableau.
    rng = random.Random(4)
    statuses = set()
    equalities = negative_rhs = 0
    for _ in range(2000):
        lp = _random_lp(rng)
        result = solve_lp(lp)
        assert result == fraction_simplex(lp), lp
        statuses.add(type(result))
        equalities += any(row.relation == "==" for row in lp.constraints)
        negative_rhs += any(row.rhs < 0 for row in lp.constraints)
    assert statuses == {LpOptimal, LpInfeasible}  # the objectives are non-negative
    assert equalities > 500 and negative_rhs > 500


def test_boxed_programs_with_costs_of_both_signs_match_the_fraction_simplex():
    # The objective value is read off the reduced-cost row, which negative
    # costs move in phase 2; the reference sums c.x.
    rng = random.Random(11)
    optimal = negative = 0
    for _ in range(200):
        lp = _boxed_lp(rng)
        result = solve_lp(lp)
        assert result == fraction_simplex(lp), lp
        if isinstance(result, LpOptimal):
            optimal += 1
            negative += result.objective_value < 0
    assert optimal > 50 and negative > 50


SEARCHED_FAMILIES = [
    ("midterm", {}),
    ("interim_review", {}),
    ("payment_gap", {"p": F(9, 10), "q": F(1, 2), "c": F(1), "x": F(20)}),
    ("cost_ladder", {"n1": 3, "n2": 3}),
    ("state_markers", {"s": 3, "n2": 2}),
    ("random_tree", {"seed": 3}),
    ("random_stochastic", {"seed": 3}),
    ("random_deterministic", {"seed": 3}),
    ("random_general", {"seed": 3}),
]


def _assert_dual_value_agrees(lp, result, expected):
    """``lp._dual_value``'s ``result`` against the two-phase simplex's: the
    same feasibility and value, and the same x wherever it gives one."""
    if result is None:
        assert isinstance(expected, LpInfeasible), lp
        return "infeasible"
    value, x = result
    assert isinstance(expected, LpOptimal) and value == expected.objective_value, lp
    if x is None:
        return "no x"
    assert x == expected.x, lp
    return "x given"


def _valued_programs(handed, built):
    """Each program ``_dual_value`` valued, as the ``LinearProgram`` built from
    it, with ``_dual_value``'s result: the programs were built in the order
    they were valued, one ``_dual_value`` call each."""
    results = [result for name, _, result in handed if name == "_dual_value"]
    assert len(results) == len(built)
    return list(zip(built, results))


def _assert_optimizer_programs_match(record_programs, record_linear_programs, instances):
    handed = record_programs("_dual_value", "solve_lp")
    built = record_linear_programs()
    for inst in instances:
        for solver in (optimal_standard, optimal_pay, optimal_terminate):
            solver(inst)
    valued = _valued_programs(handed, built)
    assert valued
    for lp, result in valued:
        _assert_dual_value_agrees(lp, result, fraction_simplex(lp))
    for name, lp, result in handed:
        if name == "solve_lp":
            assert result == fraction_simplex(lp), lp


@pytest.mark.parametrize("family,params", SEARCHED_FAMILIES)
def test_optimizer_programs_on_families_match_the_fraction_simplex(
    record_programs, record_linear_programs, family, params
):
    _assert_optimizer_programs_match(record_programs, record_linear_programs, [generate(FamilyParams(family, params))])


@pytest.mark.parametrize(
    "kind", ["tree", "stochastic_first_stage", "deterministic_first_stage", "general"]
)
def test_optimizer_programs_on_random_instances_match_the_fraction_simplex(record_programs, record_linear_programs, kind):
    instances = [random_instance(kind, seed=seed) for seed in range(10)]
    _assert_optimizer_programs_match(record_programs, record_linear_programs, instances)


# --- the dual simplex against the two-phase simplex ----------------------------


def _nonnegative_cost_lp(rng: random.Random) -> LinearProgram:
    """A small program with rows of every relation, right-hand sides of both
    signs, and a non-negative objective a third of whose costs are zero, so
    that many optima are degenerate or not unique."""
    n = rng.randint(1, 6)
    objective = tuple(F(0) if rng.random() < 1 / 3 else F(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(n))
    constraints = tuple(
        Constraint(
            tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)),
            rng.choice(("<=", ">=", ">=", "==")),
            F(rng.randint(-5, 5), rng.choice((1, 2))),
        )
        for _ in range(rng.randint(0, 8))
    )
    return LinearProgram(objective, constraints)


def test_dual_value_matches_both_simplexes_on_random_programs():
    rng = random.Random(16)
    seen = collections.Counter()
    for _ in range(1500):
        lp = _nonnegative_cost_lp(rng)
        expected = solve_lp(lp)
        assert expected == fraction_simplex(lp), lp
        seen[_assert_dual_value_agrees(lp, lp_module._dual_value(*dual_form(lp)), expected)] += 1
    assert min(seen.values()) > 100, seen


def test_dual_value_does_not_depend_on_the_row_scale(monkeypatch):
    # The searches hand _dual_value each row in lowest integers, not as
    # model.scale gives it.  A positive row scale must not change a pivot, so
    # the value, x and infeasibility stay the same with each row as
    # model.scale gives it, divided by its gcd, or times a random factor.
    pivots = []
    pivot = lp_module._pivot
    monkeypatch.setattr(lp_module, "_pivot", lambda *args: pivots.append(args[2:4]) or pivot(*args))
    rng = random.Random(16)
    reduced = 0
    for _ in range(1500):
        lp = _nonnegative_cost_lp(rng)
        objective, obj_scale, rows, n = scaled = dual_form(lp)
        lowest = dual_form(lp, lowest=True)
        reduced += lowest != scaled
        factors = [rng.randint(1, 6) for _ in rows]
        multiplied = (objective, obj_scale, [[v * f for v in row] for row, f in zip(rows, factors)], n)
        runs = []
        for form in (scaled, lowest, multiplied):
            pivots.clear()
            runs.append((lp_module._dual_value(*form), list(pivots)))
        assert runs[0] == runs[1] == runs[2], lp
    assert reduced > 200, reduced


def test_dual_value_matches_both_simplexes_on_every_searched_program(record_programs, record_linear_programs):
    handed = record_programs("_dual_value", "solve_lp")
    built = record_linear_programs()
    instances = [generate(FamilyParams(family, params)) for family, params in SEARCHED_FAMILIES[:5]]
    for kind in ("tree", "stochastic_first_stage", "deterministic_first_stage", "general"):
        for seed in range(20):
            inst = random_instance(kind, seed=seed)
            instances += [inst, *tie_heavy_variants(inst)]
    for inst in instances:
        for solver in (optimal_standard, optimal_pay, optimal_terminate):
            solver(inst)
    # solve_lp sees exactly the programs the dual simplex valued without an
    # x, each once, in order; each is the integer form it was valued in,
    # row for row up to a positive scale per row.
    valued = _valued_programs(handed, built)
    resolves = [lp for name, lp, _ in handed if name == "solve_lp"]
    assert resolves == [lp for lp, result in valued if result and result[1] is None]
    without_x = [program for name, program, result in handed if name == "_dual_value" and result and result[1] is None]
    for lp, (objective, obj_scale, rows, n) in zip(resolves, without_x):
        assert dual_form(lp, lowest=True) == (objective, obj_scale, [list(row) for row in rows], n)
    resolved = len(resolves)
    seen = collections.Counter()
    for lp, result in dict(valued).items():
        expected = solve_lp(lp)
        assert expected == fraction_simplex(lp), lp
        seen[_assert_dual_value_agrees(lp, result, expected)] += 1
    assert len(instances) == 5 + 4 * 20 * 5
    assert min(seen.values()) > 100 and resolved > 20, (seen, resolved)


def test_dual_value_gives_x_zero_wherever_it_is_feasible(monkeypatch):
    # x0 costs nothing, so the optimum x = 0 is not unique.  solve_lp's
    # phase 1 still pivots x0 into the basis of the x0 - x1 >= 0 row, but at
    # step length 0, so its x stays 0 too.
    pivots = []
    pivot = lp_module._pivot
    monkeypatch.setattr(lp_module, "_pivot", lambda *args: pivots.append(args[2:4]) or pivot(*args))
    lp = LinearProgram(
        (F(0), F(1)),
        (Constraint((F(1), F(-1)), ">=", F(0)), Constraint((F(1), F(1)), "<=", F(4)), Constraint((F(1), F(0)), ">=", F(-2))),
    )
    assert lp_module._dual_value(*dual_form(lp)) == (F(0), (F(0), F(0)))
    assert not pivots
    assert solve_lp(lp).x == (F(0), F(0))
    assert pivots


def test_dual_value_refuses_a_negative_cost():
    # x = 0 is dual feasible only when no cost is negative.
    lp = LinearProgram((F(1), F(-1, 2)), (Constraint((F(1), F(1)), ">=", F(1)),))
    with pytest.raises(SolverInvariantError, match="^the dual simplex needs a non-negative objective$"):
        lp_module._dual_value(*dual_form(lp))


def test_negative_drive_out_pivot_keeps_the_denominator_positive(monkeypatch):
    # x0 == x1 leaves its artificial basic at zero after phase 1; the first
    # column that can replace it holds -1 there, so the tableau is negated.
    pivots = []
    pivot = lp_module._pivot

    def recording_pivot(tableau, basis, row, col, denom):
        pivots.append(tableau[row][col])
        return pivot(tableau, basis, row, col, denom)

    monkeypatch.setattr(lp_module, "_pivot", recording_pivot)
    lp = LinearProgram((F(1), F(1)), (Constraint((F(-1), F(1)), "==", F(0)),))
    result = solve_lp(lp)
    assert any(p < 0 for p in pivots)
    assert result == LpOptimal((F(0), F(0)), F(0), (F(1),))
    assert result == fraction_simplex(lp)


def test_phase_one_self_check_raises_under_optimize_flag(child_env):
    # Phase 1 minimizes a non-negative sum, so "unbounded" there is a solver
    # fault; the check must raise even when asserts are stripped.
    script = (
        "from fractions import Fraction as F\n"
        "from twostage import lp\n"
        "lp._bland = lambda tableau, basis, num_priced, denom: ('unbounded', denom)\n"
        "program = lp.LinearProgram((F(1),), (lp.Constraint((F(1),), '>=', F(1)),))\n"
        "try:\n"
        "    lp.solve_lp(program)\n"
        "except lp.SolverInvariantError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60, env=child_env
    )
    assert result.returncode == 0, result.stderr
    assert "phase 1 came out unbounded" in result.stdout
