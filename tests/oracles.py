"""Independent oracles: exhaustive enumeration and direct formula evaluation.

Everything here deliberately avoids the package's backward-induction,
decomposition and LP code paths, so agreement is a real cross-check and not
a tautology.  The one exception is ``exhaustive_optimum``: it replays the
exhaustive search over the public per-profile programs, so it checks the
optimizers' search and tie-break, not the programs themselves.  The programs
are checked against ``lattice_min_payment_standard`` and against
``incentive_program`` solved by ``scipy_lp_min``.  ``fraction_simplex`` is
the former ``Fraction``-tableau simplex, the reference for the integer
simplex in ``twostage.lp``: both take the same Bland pivots.
``reference_max_welfare`` is the former per-state decomposition of
``max_welfare``, the reference for its argmax and tie-break now that it runs
the agent's backward induction.  ``reference_expectation`` is the former
``Fraction`` sum that ``model.dot`` replaced, and ``expected_per_final`` is
that sum for every final of every state, which the references that need each
final's expected reward or transfer take; ``reference_validate`` and
``reference_classify`` the former ``Fraction`` forms of those functions, the
references for the integer kernels in ``twostage.model``.
``reference_simulate`` is the former sampling loop of ``simulate``: the
faster loop must draw the same numbers and add the same floats in the same
order.  ``reference_backward_induction`` and ``reference_cdf_thresholds``
are the former per-entry ``Fraction`` sums of ``agent.backward_induction``
and ``agent._cdf_thresholds``, the references for their forms over
the integer view ``model.integers``.  ``reference_min_payment_program``,
``reference_profile_reward`` and ``reference_profile_cost`` are likewise the
former ``Fraction`` sums of the ``contracts`` minimal-payment program and of
``welfare.profile_reward``/``profile_cost``, and ``reference_bound_table``
of ``contracts._Compiled.bound_table``.  ``dual_form`` is the former
``LinearProgram`` entry of ``lp._dual_value``, which tests use to hand it a
program, and ``full_tableau_dual_value`` its former tableau with every slack
column, the reference for its condensed tableau: both take the same pivots.
``proves_infeasible`` checks a Farkas certificate of an integer program.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction
from fractions import Fraction as F

from twostage.agent import BestResponse, SimulationResult, best_response

from twostage.contracts import min_payment_pay, min_payment_standard, min_payment_terminate
from twostage.lp import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    Constraint,
    LinearProgram,
    LpInfeasible,
    LpOptimal,
    LpResult,
    LpUnbounded,
    SolverInvariantError,
)
from twostage.model import (
    ActionProfile,
    FinalAction,
    InitialAction,
    Instance,
    LinearContract,
    PayHalfwayContract,
    StandardContract,
    State,
    ProcessClass,
    TerminateHalfwayContract,
    ValidationReport,
    Violation,
    scale,
)
from twostage.welfare import StateBest, WelfareReport

ZERO = Fraction(0)


def contract_pieces(instance, contract):
    """(outcome transfers, state transfers, terminated states) of any contract."""
    s = instance.num_states
    if isinstance(contract, StandardContract):
        return contract.transfers, (ZERO,) * s, frozenset()
    if isinstance(contract, LinearContract):
        return tuple(contract.alpha * r for r in instance.rewards), (ZERO,) * s, frozenset()
    if isinstance(contract, PayHalfwayContract):
        return contract.transfers, contract.state_transfers, frozenset()
    if isinstance(contract, TerminateHalfwayContract):
        return contract.transfers, (ZERO,) * s, contract.terminate_set
    raise TypeError(contract)


def iter_profiles(instance: Instance, surviving=None):
    """All action profiles over the surviving states, lexicographic order."""
    if surviving is None:
        surviving = list(range(instance.num_states))
    ranges = [range(len(instance.states[s].final_actions)) for s in surviving]
    for i in range(instance.num_initial_actions):
        for combo in itertools.product(*ranges):
            yield ActionProfile(i, dict(zip(surviving, combo)))


def profile_value(instance, contract, profile):
    """(agent utility, expected payment, principal profit) by direct summation."""
    transfers, state_transfers, terminated = contract_pieces(instance, contract)
    init = instance.initial_actions[profile.initial]
    utility = -init.cost
    payment = ZERO
    reward = ZERO
    for s, j in profile.finals.items():
        p = init.transition[s]
        act = instance.states[s].final_actions[j]
        expected_t = sum((q * t for q, t in zip(act.outcome_dist, transfers)), ZERO)
        expected_r = sum((q * r for q, r in zip(act.outcome_dist, instance.rewards)), ZERO)
        utility += p * (expected_t + state_transfers[s] - act.cost)
        payment += p * (expected_t + state_transfers[s])
        reward += p * expected_r
    assert terminated.isdisjoint(profile.finals)
    return utility, payment, reward - payment


def brute_force_best_response(instance, contract):
    """Agent-optimal profile by exhaustive search: max utility, then max
    principal profit, then lexicographically first."""
    _, _, terminated = contract_pieces(instance, contract)
    surviving = [s for s in range(instance.num_states) if s not in terminated]
    best = None
    best_profile = None
    for profile in iter_profiles(instance, surviving):
        utility, _, profit = profile_value(instance, contract, profile)
        if best is None or (utility, profit) > best:
            best = (utility, profit)
            best_profile = profile
    return best[0], best[1], best_profile


def brute_force_max_welfare(instance) -> Fraction:
    """Exhaustive maximum of expected reward minus expected cost."""
    best = None
    for profile in iter_profiles(instance):
        init = instance.initial_actions[profile.initial]
        value = -init.cost
        for s, j in profile.finals.items():
            act = instance.states[s].final_actions[j]
            expected_r = sum((q * r for q, r in zip(act.outcome_dist, instance.rewards)), ZERO)
            value += init.transition[s] * (expected_r - act.cost)
        if best is None or value > best:
            best = value
    return best


def reference_max_welfare(instance) -> WelfareReport:
    """Maximal welfare by per-state decomposition, ties to the lowest index.

    Each state takes the final with the best expected reward minus cost, then
    the initial action maximizing expected state value minus its own cost.
    Expected rewards are summed over outcomes here, not read from the
    integer view.
    """
    per_state = []
    for state in instance.states:
        best_j, best_value = 0, None
        for j, act in enumerate(state.final_actions):
            expected_r = sum((q * r for q, r in zip(act.outcome_dist, instance.rewards)), ZERO)
            value = expected_r - act.cost
            if best_value is None or value > best_value:
                best_j, best_value = j, value
        per_state.append(StateBest(best_j, best_value))

    best_i, best_welfare = 0, None
    for i, act in enumerate(instance.initial_actions):
        welfare = sum((p * sb.value for p, sb in zip(act.transition, per_state)), ZERO) - act.cost
        if best_welfare is None or welfare > best_welfare:
            best_i, best_welfare = i, welfare

    profile = ActionProfile(best_i, {s: sb.final for s, sb in enumerate(per_state)})
    return WelfareReport(best_welfare, profile, tuple(per_state))


def distinct_finals(instance):
    """Each state's lowest final index of each (cost, distribution), ascending."""
    distinct = []
    for state in instance.states:
        seen = {}
        for j, act in enumerate(state.final_actions):
            seen.setdefault((act.cost, act.outcome_dist), j)
        distinct.append(sorted(seen.values()))
    return distinct


def exhaustive_optimum(instance, kind):
    """(contract, profit) of the first best candidate in enumeration order.

    Termination sets smallest first, then lexicographically (only the empty
    set unless ``kind`` is "terminate"); then initial actions; then profiles
    in lexicographic order over each state's distinct finals (lowest index of
    each cost and distribution).  Strict ``>`` keeps the first of equals.
    """
    distinct = distinct_finals(instance)
    states = range(instance.num_states)
    best = None
    for size in range(instance.num_states + 1 if kind == "terminate" else 1):
        for blocked in itertools.combinations(states, size):
            surviving = [s for s in states if s not in blocked]
            for i in range(instance.num_initial_actions):
                for combo in itertools.product(*(distinct[s] for s in surviving)):
                    profile = ActionProfile(i, dict(zip(surviving, combo)))
                    if kind == "standard":
                        contract = min_payment_standard(instance, profile)
                    elif kind == "pay":
                        contract = min_payment_pay(instance, profile)
                    else:
                        contract = min_payment_terminate(instance, blocked, profile)
                    if contract is not None:
                        profit = profile_value(instance, contract, profile)[2]
                        if best is None or profit > best[1]:
                            best = (contract, profit)
    return best


def is_incentive_compatible(instance, profile, transfers) -> bool:
    """Weak incentive compatibility of a standard contract for a total profile.

    Final rows at every state, then initial rows using the designated
    continuation values; mirrors the tie-in-the-principal's-favor semantics.
    """
    for s, state in enumerate(instance.states):
        designated = state.final_actions[profile.finals[s]]
        value = sum((q * t for q, t in zip(designated.outcome_dist, transfers)), ZERO)
        for other in state.final_actions:
            other_value = sum((q * t for q, t in zip(other.outcome_dist, transfers)), ZERO)
            if value - designated.cost < other_value - other.cost:
                return False
    values = []
    for s, state in enumerate(instance.states):
        designated = state.final_actions[profile.finals[s]]
        values.append(
            sum((q * t for q, t in zip(designated.outcome_dist, transfers)), ZERO)
            - designated.cost
        )
    init = instance.initial_actions[profile.initial]
    own = sum((p * u for p, u in zip(init.transition, values)), ZERO) - init.cost
    for other in instance.initial_actions:
        alt = sum((p * u for p, u in zip(other.transition, values)), ZERO) - other.cost
        if own < alt:
            return False
    return True


def lattice_min_payment_standard(instance, profile, step: Fraction, bound: Fraction):
    """Cheapest IC standard contract on the lattice {0, step, .., bound}^M."""
    ticks = []
    t = ZERO
    while t <= bound:
        ticks.append(t)
        t += step
    init = instance.initial_actions[profile.initial]
    best = None
    for transfers in itertools.product(ticks, repeat=instance.num_outcomes):
        if not is_incentive_compatible(instance, profile, transfers):
            continue
        payment = ZERO
        for s, j in profile.finals.items():
            act = instance.states[s].final_actions[j]
            payment += init.transition[s] * sum(
                (q * t for q, t in zip(act.outcome_dist, transfers)), ZERO
            )
        if best is None or payment < best:
            best = payment
    return best


def incentive_program(instance, profile, surviving, with_state_transfers) -> LinearProgram:
    """A profile's minimal-payment program, written from the incentive definitions.

    Variables are the outcome transfers, then one transfer per state when
    ``with_state_transfers``.  Every utility is an affine function of them,
    kept as (coefficients, constant).  At each surviving state the designated
    final must be worth at least every final there, and the designated
    profile at least every initial action followed by the designated finals.
    The objective is the expected transfer, which is the profile's utility
    without its costs.
    """
    m = instance.num_outcomes
    n = m + (instance.num_states if with_state_transfers else 0)

    def final_utility(s, act):
        coeffs = list(act.outcome_dist) + [ZERO] * (n - m)
        if with_state_transfers:
            coeffs[m + s] = Fraction(1)
        return coeffs, -act.cost

    def profile_utility(i):
        init = instance.initial_actions[i]
        coeffs, constant = [ZERO] * n, -init.cost
        for s in surviving:
            act = instance.states[s].final_actions[profile.finals[s]]
            u_coeffs, u_constant = final_utility(s, act)
            coeffs = [c + init.transition[s] * u for c, u in zip(coeffs, u_coeffs)]
            constant += init.transition[s] * u_constant
        return coeffs, constant

    def at_least(better, worse):
        coeffs = [b - w for b, w in zip(better[0], worse[0])]
        return Constraint(coeffs, ">=", worse[1] - better[1])

    rows = []
    for s in surviving:
        state = instance.states[s]
        designated = final_utility(s, state.final_actions[profile.finals[s]])
        rows += [at_least(designated, final_utility(s, other)) for other in state.final_actions]
    own = profile_utility(profile.initial)
    rows += [at_least(own, profile_utility(i)) for i in range(instance.num_initial_actions)]
    return LinearProgram(own[0], tuple(rows))


def scipy_lp_min(lp):
    """Float reference solve via scipy.optimize.linprog (HiGHS)."""
    from scipy.optimize import linprog

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in lp.constraints:
        coeffs = [float(c) for c in row.coeffs]
        if row.relation == "<=":
            a_ub.append(coeffs)
            b_ub.append(float(row.rhs))
        elif row.relation == ">=":
            a_ub.append([-c for c in coeffs])
            b_ub.append(-float(row.rhs))
        else:
            a_eq.append(coeffs)
            b_eq.append(float(row.rhs))
    result = linprog(
        [float(c) for c in lp.objective],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=(0, None),
        method="highs",
    )
    return result


def _fraction_bland(tableau, rhs, basis, costs, banned, num_rows):
    """Run primal simplex steps in place until optimal or unbounded."""
    num_cols = len(costs)
    while True:
        # y[k] = cost of the basic variable of row k; reduced costs from scratch.
        entering = -1
        for j in range(num_cols):
            if j in banned or j in basis:
                continue
            r = costs[j]
            for k in range(num_rows):
                ck = costs[basis[k]]
                if ck:
                    r -= ck * tableau[k][j]
            if r < 0:
                entering = j
                break
        if entering < 0:
            return "optimal"

        leaving = -1
        best_ratio = None
        for k in range(num_rows):
            a = tableau[k][entering]
            if a > 0:
                ratio = rhs[k] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[k] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = k
        if leaving < 0:
            return "unbounded"

        _fraction_pivot(tableau, rhs, basis, leaving, entering, num_rows)


def _fraction_pivot(tableau, rhs, basis, row, col, num_rows):
    piv = tableau[row][col]
    inv = 1 / piv
    tableau[row] = [v * inv for v in tableau[row]]
    rhs[row] *= inv
    prow = tableau[row]
    for k in range(num_rows):
        if k == row:
            continue
        f = tableau[k][col]
        if f:
            tableau[k] = [a - f * b for a, b in zip(tableau[k], prow)]
            rhs[k] -= f * rhs[row]
    basis[row] = col


def fraction_simplex(lp: LinearProgram) -> LpResult:
    """Reference two-phase Bland simplex on a Fraction tableau.

    This is the package's former ``solve_lp``, kept unchanged so that the
    integer simplex in ``twostage.lp`` can be checked for equal results:
    the same status, ``x``, objective value and duals.
    """
    n = lp.num_variables
    zero = Fraction(0)

    # Expand equalities, normalize right-hand sides to be non-negative.
    rows: list[tuple[list[Fraction], str, Fraction, int]] = []  # coeffs, rel, rhs, origin
    for idx, c in enumerate(lp.constraints):
        if c.relation == EQUAL:
            rows.append((list(c.coeffs), LESS_EQUAL, c.rhs, idx))
            rows.append((list(c.coeffs), GREATER_EQUAL, c.rhs, idx))
        else:
            rows.append((list(c.coeffs), c.relation, c.rhs, idx))

    flips: list[Fraction] = []
    for k, (coeffs, rel, rhs, origin) in enumerate(rows):
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rel = GREATER_EQUAL if rel == LESS_EQUAL else LESS_EQUAL
            rows[k] = (coeffs, rel, -rhs, origin)
            flips.append(Fraction(-1))
        else:
            flips.append(Fraction(1))

    m = len(rows)
    num_aux = m
    art_cols = [k for k, row in enumerate(rows) if row[1] == GREATER_EQUAL]
    num_cols = n + num_aux + len(art_cols)

    tableau = []
    rhs_col = []
    basis = [0] * m
    init_col = [0] * m  # column that starts as the identity column of each row
    art_of_row = {}
    next_art = n + num_aux
    for k, (coeffs, rel, rhs, _origin) in enumerate(rows):
        trow = [Fraction(v) for v in coeffs] + [Fraction(0)] * (num_cols - n)
        if rel == LESS_EQUAL:
            trow[n + k] = Fraction(1)  # slack
            basis[k] = n + k
        else:
            trow[n + k] = Fraction(-1)  # surplus
            trow[next_art] = Fraction(1)
            basis[k] = next_art
            art_of_row[k] = next_art
            next_art += 1
        init_col[k] = basis[k]
        tableau.append(trow)
        rhs_col.append(Fraction(rhs))

    artificial = set(range(n + num_aux, num_cols))
    banned: set[int] = set()

    if artificial:
        costs1 = [Fraction(0)] * num_cols
        for j in artificial:
            costs1[j] = Fraction(1)
        if _fraction_bland(tableau, rhs_col, basis, costs1, banned, m) != "optimal":
            raise SolverInvariantError("phase 1 came out unbounded, yet its objective is at least zero")
        phase1_value = sum((rhs_col[k] for k in range(m) if basis[k] in artificial), Fraction(0))
        if phase1_value > 0:
            return LpInfeasible()
        # Drive degenerate artificials out of the basis where possible.
        for k in range(m):
            if basis[k] in artificial:
                for j in range(n + num_aux):
                    if j not in basis and tableau[k][j] != 0:
                        _fraction_pivot(tableau, rhs_col, basis, k, j, m)
                        break
        banned = artificial

    costs2 = [Fraction(0)] * num_cols
    for j in range(n):
        costs2[j] = Fraction(lp.objective[j])
    status = _fraction_bland(tableau, rhs_col, basis, costs2, banned, m)
    if status == "unbounded":
        return LpUnbounded()

    def to_fraction(v) -> Fraction:
        return Fraction(int(v.numerator), int(v.denominator))

    x = [zero] * n
    for k in range(m):
        if basis[k] < n:
            x[basis[k]] = to_fraction(rhs_col[k])
    value = sum((cj * xj for cj, xj in zip(lp.objective, x)), zero)

    # Duals: the initial identity column of row i reads off column i of the
    # basis inverse, so y_i = sum_k cost(basic_k) * tableau[k][init_col[i]].
    dual = [zero] * len(lp.constraints)
    for i in range(m):
        col = init_col[i]
        y = Fraction(0)
        for k in range(m):
            ck = costs2[basis[k]]
            if ck:
                y += ck * tableau[k][col]
        dual[rows[i][3]] += flips[i] * to_fraction(y)

    return LpOptimal(tuple(x), value, tuple(dual))


def dual_form(lp: LinearProgram, lowest: bool = False):
    """``lp`` in ``lp._dual_value``'s integer form, as that function read a
    ``LinearProgram`` before the searches built the form themselves: the
    objective by ``scale``, then each row's coefficients and right-hand side
    by ``scale``, in ``<=`` form (``>=`` rows negated, ``==`` rows as both),
    then the column count.  With ``lowest`` each row is divided by the gcd of
    its entries."""
    objective, obj_scale = scale(lp.objective)
    rows = []
    for c in lp.constraints:
        values, _ = scale((*c.coeffs, c.rhs))
        if c.relation != GREATER_EQUAL:
            rows.append(list(values))
        if c.relation != LESS_EQUAL:
            rows.append([-v for v in values])
    if lowest:
        rows = [[v // divisor for v in row] if (divisor := math.gcd(*row)) else row for row in rows]
    return objective, obj_scale, rows, lp.num_variables


def full_tableau_dual_value(objective, obj_scale, rows, n):
    """``lp._dual_value``'s former full-tableau dual simplex, the reference
    for its condensed tableau: ``(result, pivots)``, the result as
    ``_dual_value`` gives it, an infeasible program's ``y`` read from the
    leaving row's slack columns, and the pivots as (leaving, entering) variable
    labels, x being 0..n-1 and row k's slack n+k.  Every slack column is kept,
    so a label is a column; ties go to the least column."""
    if any(c < 0 for c in objective):
        raise SolverInvariantError("the dual simplex needs a non-negative objective")
    if all(values[-1] >= 0 for values in rows):
        return (ZERO, (ZERO,) * n), []
    m = len(rows)
    tableau = []
    for k, values in enumerate(rows):
        trow = [*values[:-1], *[0] * m, values[-1]]
        trow[n + k] = 1
        tableau.append(trow)
    tableau.append([*objective, *[0] * m, 0])
    basis = list(range(n, n + m))
    denom = 1
    pivots = []
    while True:
        leaving = -1
        for k, b in enumerate(basis):
            if tableau[k][-1] < 0 and (leaving < 0 or b < basis[leaving]):
                leaving = k
        if leaving < 0:
            break
        trow, costs = tableau[leaving], tableau[-1]
        entering = -1
        for j in range(n + m):
            a = trow[j]
            if a < 0 and (entering < 0 or costs[j] * best_a > best_cost * a):
                entering, best_cost, best_a = j, costs[j], a
        if entering < 0:  # the row's slack columns are its Farkas multipliers
            return (None, tuple(trow[n : n + m])), pivots
        pivots.append((basis[leaving], entering))
        # Bareiss pivot on the negative entry: negate the pivot row, then D = p.
        prow = tableau[leaving] = [-a for a in trow]
        p = prow[entering]
        for k, other in enumerate(tableau):
            if k != leaving:
                f = other[entering]
                tableau[k] = [(a * p - f * b) // denom for a, b in zip(other, prow)]
        basis[leaving] = entering
        denom = p
    value = Fraction(-tableau[-1][-1], denom * obj_scale)
    if tableau[-1][:-1].count(0) != m:
        return (value, None), pivots
    x = [ZERO] * n
    for k, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[k][-1], denom)
    return (value, tuple(x)), pivots


def proves_infeasible(rows, y) -> bool:
    """Whether ``y`` is a Farkas certificate for ``rows``, each a ``<=`` row's
    coefficients then its right-hand side: ``y >= 0``, ``y.A >= 0`` in every
    column and ``y.b < 0``, so that no ``x >= 0`` has ``A x <= b``."""
    if not rows or len(y) != len(rows) or any(c < 0 for c in y):
        return False
    *columns, rhs = (sum(Fraction(c) * row[j] for c, row in zip(y, rows)) for j in range(len(rows[0])))
    return all(v >= 0 for v in columns) and rhs < 0


# The size caps of the benchmark's ``evaluate`` workload (bench/inputs.py).
EVALUATE_CAPS = {"max_states": 10, "max_initial_actions": 5, "max_final_actions": 8, "max_outcomes": 8}


def tie_heavy_variants(inst):
    """Duplicated initial actions, reversed action orders, mirrored outcomes,
    and an unreachable copy of a state with a duplicated final action."""
    mirrored_states = tuple(
        State(s.name, tuple(FinalAction(a.name, a.cost, a.outcome_dist[::-1]) for a in s.final_actions))
        for s in inst.states
    )
    first = inst.states[0]
    return [
        Instance(inst.rewards, inst.initial_actions * 2, inst.states),
        Instance(
            inst.rewards,
            inst.initial_actions[::-1],
            tuple(State(s.name, s.final_actions[::-1]) for s in inst.states),
        ),
        Instance(inst.rewards[::-1], inst.initial_actions, mirrored_states),
        Instance(
            inst.rewards,
            tuple(InitialAction(a.name, a.cost, a.transition + (F(0),)) for a in inst.initial_actions),
            inst.states + (State("copy", first.final_actions + first.final_actions[:1]),),
        ),
    ]


def reference_expectation(probabilities, values) -> Fraction:
    """Sum of p * v over the entries, one ``Fraction`` addition at a time."""
    total = Fraction(0)
    for p, v in zip(probabilities, values):
        if p:
            total += p * v
    return total


def expected_per_final(instance, values, terminated=()):
    """``[s][j]``: the expectation of ``values`` under final j's outcome distribution at
    state s, by ``reference_expectation``; None in place of each terminated state's row."""
    return [
        None if s in terminated else [reference_expectation(act.outcome_dist, values) for act in state.final_actions]
        for s, state in enumerate(instance.states)
    ]


def _reference_distribution(row, location, out) -> None:
    if any(p < 0 or p > 1 for p in row):
        out.append(Violation(location, "distribution entries must lie in [0, 1]"))
    if sum(row, Fraction(0)) != 1:
        out.append(Violation(location, "distribution does not sum to 1"))


def reference_validate(instance: Instance) -> ValidationReport:
    """Every model invariant, checked with ``Fraction`` comparisons and sums."""
    v = []
    m = instance.num_outcomes
    s = instance.num_states
    if m < 1:
        v.append(Violation("rewards", "at least one outcome is required"))
    if s < 1:
        v.append(Violation("states", "at least one intermediate state is required"))
    if instance.num_initial_actions < 1:
        v.append(Violation("initial_actions", "at least one initial action is required"))
    for i, act in enumerate(instance.initial_actions):
        loc = f"initial_actions[{i}]"
        if act.cost < 0:
            v.append(Violation(loc + ".cost", "cost must be non-negative"))
        if len(act.transition) != s:
            v.append(Violation(loc + ".transition", f"expected {s} entries, got {len(act.transition)}"))
        else:
            _reference_distribution(act.transition, loc + ".transition", v)
    if instance.initial_actions and not any(a.cost == 0 for a in instance.initial_actions):
        v.append(Violation("initial_actions", "missing null initial action (zero cost)"))
    for si, state in enumerate(instance.states):
        loc = f"states[{si}]"
        if not state.final_actions:
            v.append(Violation(loc, "state has no final actions"))
            continue
        for j, act in enumerate(state.final_actions):
            aloc = f"{loc}.final_actions[{j}]"
            if act.cost < 0:
                v.append(Violation(aloc + ".cost", "cost must be non-negative"))
            if len(act.outcome_dist) != m:
                v.append(Violation(aloc + ".outcome_dist", f"expected {m} entries, got {len(act.outcome_dist)}"))
            else:
                _reference_distribution(act.outcome_dist, aloc + ".outcome_dist", v)
        if not any(a.cost == 0 for a in state.final_actions):
            v.append(Violation(loc, "missing null final action (zero cost)"))
    return ValidationReport(tuple(v))


def reference_classify(instance: Instance) -> ProcessClass:
    """The process class flags, from ``Fraction`` comparisons."""
    reachable_from = {}  # by outcome index, so an entry past the rewards is an outcome of its own
    for si, state in enumerate(instance.states):
        for act in state.final_actions:
            for mi, p in enumerate(act.outcome_dist):
                if p > 0:
                    reachable_from.setdefault(mi, set()).add(si)
    is_tree = all(len(src) <= 1 for src in reachable_from.values())

    def unit_row(row):
        return sum(1 for p in row if p == 1) == 1 and all(p in (0, 1) for p in row)

    is_deterministic = all(unit_row(a.transition) for a in instance.initial_actions)
    return ProcessClass(is_tree, instance.num_initial_actions == 1, is_deterministic)


def reference_simulate(instance, contract, episodes: int, seed: int) -> SimulationResult:
    """The sampling loop ``simulate`` had before its tables were flattened."""
    transfers, state_transfers, terminated = contract_pieces(instance, contract)
    response = best_response(instance, contract)
    init = instance.initial_actions[response.profile.initial]

    state_thresholds = reference_cdf_thresholds(init.transition)
    outcome_thresholds = []
    profit_of = []
    payment_of = []
    for s in range(instance.num_states):
        if s in terminated:
            outcome_thresholds.append(None)
            profit_of.append(None)
            payment_of.append(None)
            continue
        act = instance.states[s].final_actions[response.profile.finals[s]]
        outcome_thresholds.append(reference_cdf_thresholds(act.outcome_dist))
        profit_of.append([float(r - t - state_transfers[s]) for r, t in zip(instance.rewards, transfers)])
        payment_of.append([float(t + state_transfers[s]) for t in transfers])

    rng = random.Random(seed)
    profit_sum = 0.0
    profit_sumsq = 0.0
    payment_sum = 0.0
    for _ in range(episodes):
        state = bisect_right(state_thresholds, rng.getrandbits(64))
        if state in terminated:
            continue
        outcome = bisect_right(outcome_thresholds[state], rng.getrandbits(64))
        profit = profit_of[state][outcome]
        profit_sum += profit
        profit_sumsq += profit * profit
        payment_sum += payment_of[state][outcome]

    n = episodes
    mean = profit_sum / n
    variance = max(0.0, (profit_sumsq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return SimulationResult(mean, payment_sum / n, math.sqrt(variance / n))


def reference_backward_induction(instance, final_transfers, state_transfers) -> BestResponse:
    """The agent's backward induction, summing ``Fraction`` products one at a time.

    ``final_transfers[s]`` is each final's expected transfer at s, or None at a
    terminated state; each final's expected reward is summed here per entry.
    ``agent.backward_induction`` takes the outcome transfers instead.
    """
    num_states = instance.num_states
    finals = {}
    state_utility = [ZERO] * num_states
    state_profit = [ZERO] * num_states
    state_payment = [ZERO] * num_states
    for s, (state, row) in enumerate(zip(instance.states, final_transfers)):
        if row is None:
            continue
        best = None
        for j, (act, transfer) in enumerate(zip(state.final_actions, row)):
            reward = reference_expectation(act.outcome_dist, instance.rewards)
            candidate = (transfer - act.cost, reward - transfer)
            if best is None or candidate > best:
                best = candidate
                finals[s] = j
                state_payment[s] = transfer
        state_utility[s], state_profit[s] = best

    best_i = None
    for i, act in enumerate(instance.initial_actions):
        utility = -act.cost
        profit = ZERO
        for p, u, v, st in zip(act.transition, state_utility, state_profit, state_transfers):
            if p:
                utility += p * (u + st)
                profit += p * (v - st)
        if best_i is None or (utility, profit) > (best_i[1], best_i[2]):
            best_i = (i, utility, profit)

    chosen, agent_utility, principal_profit = best_i
    transition = instance.initial_actions[chosen].transition
    payment = sum((p * (t + st) for p, t, st in zip(transition, state_payment, state_transfers)), ZERO)
    return BestResponse(
        profile=ActionProfile(chosen, finals),
        agent_utility=agent_utility,
        expected_payment=payment,
        principal_profit=principal_profit,
        per_state_utility=tuple(state_utility),
    )


def reference_cdf_thresholds(probabilities) -> list[int]:
    """ceil(C_k * 2**64) for each prefix sum C_k, kept as a running ``Fraction``."""
    thresholds = []
    cum = ZERO
    for p in probabilities:
        cum += p
        thresholds.append(-((-cum.numerator << 64) // cum.denominator))
    return thresholds


def reference_min_payment_program(instance, profile, surviving, with_state_transfers) -> LinearProgram:
    """The minimal-payment program as ``contracts`` built it in ``Fraction``s
    before its sums went through the integer kernel, adding one
    ``Fraction`` product at a time.

    Same rows in the same order: final rows by surviving state, then
    alternative final; then initial rows by alternative initial action.
    """
    m = instance.num_outcomes
    n = m + (instance.num_states if with_state_transfers else 0)
    designated = [(s, instance.states[s].final_actions[profile.finals[s]]) for s in surviving]

    def value(weights):
        coeffs = [ZERO] * n
        cost = ZERO
        for s, act in designated:
            w = weights[s]
            if w:
                for k, p in enumerate(act.outcome_dist):
                    coeffs[k] += w * p
                if with_state_transfers:
                    coeffs[m + s] = w
                cost += w * act.cost
        return coeffs, cost

    rows = []
    for s, act in designated:
        for j, other in enumerate(instance.states[s].final_actions):
            if j != profile.finals[s]:
                coeffs = [p - q for p, q in zip(act.outcome_dist, other.outcome_dist)]
                rows.append(Constraint(coeffs + [ZERO] * (n - m), ">=", act.cost - other.cost))
    chosen = instance.initial_actions[profile.initial]
    for k, other in enumerate(instance.initial_actions):
        if k != profile.initial:
            coeffs, cost = value([p - q for p, q in zip(chosen.transition, other.transition)])
            rows.append(Constraint(coeffs, ">=", chosen.cost - other.cost + cost))
    objective, _ = value(chosen.transition)
    return LinearProgram(objective, tuple(rows))


def reference_profile_reward(instance, profile) -> Fraction:
    """``welfare.profile_reward`` as a running ``Fraction`` sum over the reached states."""
    initial = instance.initial_actions[profile.initial]
    total = ZERO
    for s, rewards in enumerate(expected_per_final(instance, instance.rewards)):
        p = initial.transition[s]
        if p:
            total += p * rewards[profile.finals[s]]
    return total


def reference_profile_cost(instance, profile) -> Fraction:
    """``welfare.profile_cost`` as a running ``Fraction`` sum over the reached states."""
    initial = instance.initial_actions[profile.initial]
    total = initial.cost
    for s in range(instance.num_states):
        p = initial.transition[s]
        if p:
            total += p * instance.states[s].final_actions[profile.finals[s]].cost
    return total


BLOCKED = -1  # a blocked state's option in ``reference_bound_table``


def reference_bound_table(instance, may_block):
    """The search's bound table as ``contracts._search`` built it in
    ``Fraction``s before ``_Compiled`` kept it in integers: ``options[i][s]``
    lists initial action i's options at state s, (F[i,s] * (R[s,j] - c[s,j]),
    distinct final j), plus (0, ``BLOCKED``) when ``may_block``, by descending
    term, then option; ``seeds[i]`` is each state's first term summed, minus
    c_i.  Each expected reward is summed per entry."""
    reward = expected_per_final(instance, instance.rewards)
    distinct = distinct_finals(instance)
    options = []
    for act in instance.initial_actions:
        rows = []
        for s, state in enumerate(instance.states):
            p = act.transition[s]
            row = [(p * (reward[s][j] - state.final_actions[j].cost), j) for j in distinct[s]]
            if may_block:
                row.append((ZERO, BLOCKED))
            row.sort(key=lambda option: (-option[0], option[1]))
            rows.append(row)
        options.append(rows)
    seeds = [sum((row[0][0] for row in rows), ZERO) - act.cost for rows, act in zip(options, instance.initial_actions)]
    return options, seeds
