"""Minimal-payment incentive programs and optimal-contract search.

For a fixed action profile the cheapest contract incentivizing it is a linear
program: final-stage incentive rows keep the designated final action optimal
at every (surviving) state, and initial-stage rows compare the designated
initial action against each alternative using the designated continuation
values, which is valid exactly because the final rows hold everywhere.  Weak
inequalities suffice since the agent breaks ties in the principal's favor.

Every entry here refuses an instance that ``model.validate`` does not pass
with ``model.require_valid``'s ``ValueError``, read from the report the
instance keeps.  Every program, a search's candidate or a ``min_payment_*``
wrapper's, is valued by ``_minimal_payment``, through ``lp._dual_value``: the
objective's coefficients are expected transfers, none negative on a valid
instance.  ``_Compiled.program`` builds it in the integer form that
``_dual_value`` takes, with no ``Fraction``: the expected-value coefficients
come from the profile's outcome mixture, ``model._mixture``, over the integer
view, ``model.integers``, and the memo reads the expected reward off them.
Each row is divided by its entries' gcd and keeps its unit, the factor that
turns it back into its ``>=`` row in ``Fraction``s.  A program
``_dual_value`` gives no ``x`` is built from that form and those units as a
``LinearProgram`` by ``_linear_program``, the one place a program's
``Fraction``s are made, and solved by ``solve_lp``, once per instance; the
two values must agree, so every caller reports ``solve_lp``'s ``x``.

All three optimal-contract searches share one best-first branch and bound.
A candidate is a termination set (always empty but for terminate-halfway
contracts), an initial action and one final action per surviving state;
duplicate final actions (identical cost and distribution) collapse to their
lowest index, which preserves both the optimum and the tie-break.  Because
transfers are non-negative and the null profile costs nothing, incentive
compatibility leaves the agent at least zero, so a candidate's profit is at
most its welfare.  Candidates are visited lazily in descending order of that
bound, and the search stops at the first bound strictly below the best profit
found.  Equal profits go to the candidate first in the order (termination-set
size, termination set, initial action, finals by state), which is the one an
exhaustive enumeration in that order keeps.  One cap, ``profiles_cap``,
counts the whole candidate space, pruned or not, every termination set
included.

Each instance keeps one private ``_Compiled`` (``model.cached``): each state's
distinct finals, each (state, designated final, column count)'s final-stage
rows and the search's bound table with and without blocking, in integers and
each built once (the standard and pay searches share a table), and the value
and expected reward of every program solved on it, by a search or a wrapper,
so a program taken from it builds nothing.  A program is named by its profile,
whose finals name the surviving states, and whether it has state transfers.
A terminate candidate that blocks no state is the standard program of the
same initial action and finals, so ``compare``'s terminate search finds most
of its programs already solved by its standard search.  A program taken from
that memo still counts in ``programs_solved`` and ``infeasible_profiles``, so
a report, counters included, does not depend on what ran before on the
instance.  The memo holds at most the programs solved on that instance, and
it goes with the instance (with each command, in the CLI).

A one-shot contracting problem is the instance with one free initial action
leading to one state whose finals are the one-shot actions;
``reduce_deterministic`` builds it from a deterministic first stage, and
``optimal_standard`` solves it with the same program and tie rule as any other.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .agent import BestResponse, _check_profile, _check_terminate_set, _contract_pieces, best_response
from .lp import Constraint, LinearProgram, LpOptimal, SolverInvariantError, _dual_value, solve_lp
from .model import (
    ActionProfile,
    Contract,
    FinalAction,
    InitialAction,
    Instance,
    PayHalfwayContract,
    StandardContract,
    State,
    TerminateHalfwayContract,
    _integer,
    _mixture,
    _terminate_set,
    cached,
    classify,
    integers,
    dot,
    scale,
)
from .welfare import max_welfare

_ZERO = Fraction(0)

DEFAULT_PROFILES_CAP = 200_000


class EnumerationCapExceeded(RuntimeError):
    """The candidate enumeration would exceed its cap."""


@dataclass(frozen=True)
class SolveReport:
    """Result of an optimal-contract search.

    ``profiles_enumerated`` is the size of the candidate space: profiles after
    duplicate final actions are collapsed, summed over termination sets, and
    counted whether or not the bound pruned them.
    ``termination_sets_enumerated`` is zero except for the terminate-halfway
    search, where it is 2**S.  ``programs_solved`` counts the minimal-payment
    programs actually solved, and ``infeasible_profiles`` those of them that
    were infeasible.
    """

    best_contract: Contract
    best_response: BestResponse
    profit: Fraction
    welfare: Fraction
    profiles_enumerated: int
    termination_sets_enumerated: int
    infeasible_profiles: int
    programs_solved: int


# --- what every search on one instance reuses ---------------------------------


class _Compiled:
    """An instance's distinct finals, rows, bounds and solved programs.

    ``view`` is the instance's integer view, ``model.integers``, which
    refuses an invalid instance, and ``finals[s]`` lists state ``s``'s
    distinct final indices, grouped by the view's integers (see
    ``_distinct_final_indices``).  ``rows`` maps (state, designated final,
    column count) to that final's incentive rows and their units, and
    ``bounds[may_block]`` is ``_search``'s ``bound_table``, each built on
    first use.  ``programs`` maps a program, named by (with state transfers,
    initial action, sorted (state, final) pairs), to ``_minimal_payment``'s
    ``(value, x, reward)``, or to None when infeasible.  Every entry is set
    once, and whoever sets it sets an equal value.
    """

    __slots__ = ("view", "finals", "num_outcomes", "rows", "programs", "bounds")

    def __init__(self, instance):
        self.view = integers(instance)
        self.finals = tuple(map(_distinct_final_indices, self.view.final_costs, self.view.outcome_dists))
        self.num_outcomes = instance.num_outcomes
        self.rows = {}
        self.programs = {}
        self.bounds = [None, None]

    def final_rows(self, s, j, n):
        """Rows keeping final ``j`` optimal at state ``s``, over ``n`` columns:
        one per alternative final, in index order, zero past the outcomes.
        Each is the ``>=`` row negated into ``<=`` form, in lowest integers.
        Returned with each row's unit (see ``program``)."""
        key = (s, j, n)
        built = self.rows.get(key)
        if built is None:
            dists, costs = self.view.outcome_dists[s], self.view.final_costs[s]
            act, cost, pad = dists[j], costs[j], [0] * (n - self.num_outcomes)
            rows = [
                _lowest([q - p for p, q in zip(act, other)] + pad + [other_cost - cost], self.view.state_scales[s])
                for other, other_cost in zip(dists[:j] + dists[j + 1 :], costs[:j] + costs[j + 1 :])
            ]
            built = self.rows[key] = tuple(tuple(row) for row, _ in rows), tuple(unit for _, unit in rows)
        return built

    def program(self, profile, with_state_transfers):
        """The profile's minimal-payment program in ``lp._dual_value``'s integer
        form: the objective's integers and their scale, the ``<=`` rows and the
        column count; and each row's unit.

        The states the profile gives a final are the surviving ones.  Columns
        are the outcome transfers, followed by one transfer per state when
        ``with_state_transfers``.  The rows are the final-stage incentive rows
        by surviving state, then alternative final; then the initial-stage
        rows by alternative initial action, each ``>=`` row negated and in
        lowest integers.  A row times its unit ``(divisor, scale)``, that is
        times ``divisor / scale``, is minus the ``>=`` row in ``Fraction``s.
        The objective is the expected transfer of the profile, in least
        integers, as ``model.scale`` gives it.
        """
        m, view = self.num_outcomes, self.view
        n = m + (len(view.state_scales) if with_state_transfers else 0)
        mixture = _mixture(view, profile.finals, m)

        def value(weights):
            """``mixture(weights)``, with each state's weight times ``common`` as its state-transfer column."""
            coeffs, cost, common = mixture(weights)
            if with_state_transfers:
                coeffs += [v * common for v in weights]
            return coeffs, cost, common

        rows, units = [], []
        for s in sorted(profile.finals):
            final_rows, final_units = self.final_rows(s, profile.finals[s], n)
            rows += final_rows
            units += final_units
        chosen = view.transitions[profile.initial]
        chosen_cost = view.initial_costs[profile.initial]
        for k, (other, other_cost) in enumerate(zip(view.transitions, view.initial_costs)):
            if k != profile.initial:
                coeffs, cost, common = value([p - q for p, q in zip(chosen, other)])
                row, unit = _lowest(
                    [-c for c in coeffs] + [(other_cost - chosen_cost) * common - cost], view.initial_scale * common
                )
                rows.append(row)
                units.append(unit)
        coeffs, _, common = value(chosen)
        objective_scale = view.initial_scale * common
        divisor = gcd(objective_scale, *coeffs)
        return ([c // divisor for c in coeffs], objective_scale // divisor, rows, n), units

    def bound_table(self, instance, may_block):
        """``_search``'s ``(options, seeds, denominator)``: ``options[i][s]`` lists
        initial action ``i``'s (bound term, final or ``_BLOCKED``) at state ``s``
        by descending term, then option, and ``seeds[i]`` is ``-c_i`` plus each
        first term, all over ``initial_scale`` times the finals' welfare scale."""
        states, view = instance.states, self.view
        welfare, welfare_scale = scale([
            dot((view.outcome_dists[s][j], view.state_scales[s]), view.rewards) - states[s].final_actions[j].cost
            for s, finals in enumerate(self.finals) for j in finals
        ])
        welfare = iter(welfare)
        per_state = [[(next(welfare), j) for j in finals] + [(0, _BLOCKED)] * may_block for finals in self.finals]
        options = [
            [sorted([(p * w, j) for w, j in row], key=lambda o: (-o[0], o[1])) for p, row in zip(transition, per_state)]
            for transition in view.transitions
        ]
        seeds = [sum(row[0][0] for row in rows) - cost * welfare_scale for rows, cost in zip(options, view.initial_costs)]
        return options, seeds, view.initial_scale * welfare_scale


def _lowest(row, row_scale):
    """``row`` divided by the gcd of its entries (an all-zero row as it is),
    and its unit: that gcd and ``row_scale``."""
    divisor = gcd(*row) or 1
    return (row if divisor == 1 else [v // divisor for v in row]), (divisor, row_scale)


_COMPILED = "_compiled_programs"  # the instance attribute that holds its ``_Compiled``


# --- minimal-payment programs -------------------------------------------------


def _linear_program(form, units) -> LinearProgram:
    """The program ``_Compiled.program`` gives as ``(form, units)``, as the
    ``LinearProgram`` that ``solve_lp`` re-solves: the objective over its
    scale, and each row times its unit, negated back into its ``>=`` row."""
    objective, obj_scale, rows, n = form
    return LinearProgram(
        [Fraction(c, obj_scale) for c in objective],
        tuple(
            Constraint([Fraction(-v * divisor, row_scale) for v in row[:n]], ">=", Fraction(-row[n] * divisor, row_scale))
            for row, (divisor, row_scale) in zip(rows, units)
        ),
    )


def _minimal_payment(instance, profile, with_state_transfers):
    """``(value, x, reward)`` of the profile's program, ``x`` the transfers
    every caller reports and ``reward`` the profile's expected reward, read
    off the objective, or None when it is infeasible; kept in the memo.

    ``lp._dual_value`` values the program in integers.  Only where it gives no
    ``x`` is the program built as a ``LinearProgram`` and solved by
    ``solve_lp``, and the two values must agree.
    """
    compiled = cached(instance, _COMPILED, _Compiled)
    programs = compiled.programs
    name = (with_state_transfers, profile.initial, tuple(sorted(profile.finals.items())))
    if name in programs:
        return programs[name]
    form, units = compiled.program(profile, with_state_transfers)
    solution = _dual_value(*form)
    if solution is not None and solution[1] is None:
        result = solve_lp(_linear_program(form, units))
        if not isinstance(result, LpOptimal) or result.objective_value != solution[0]:
            raise SolverInvariantError("the simplex and the dual simplex disagree on a minimal payment")
        solution = (solution[0], result.x)
    if solution is not None:
        solution = (*solution, dot((form[0][: compiled.num_outcomes], form[1]), compiled.view.rewards))
    programs[name] = solution
    return solution


def min_payment_standard(instance: Instance, profile: ActionProfile) -> StandardContract | None:
    """Cheapest standard contract incentivizing the total profile, or None."""
    _check_profile(instance, profile, set(range(instance.num_states)))
    solution = _minimal_payment(instance, profile, False)
    return None if solution is None else StandardContract(solution[1])


def min_payment_pay(instance: Instance, profile: ActionProfile) -> PayHalfwayContract | None:
    """Cheapest pay-halfway contract incentivizing the total profile, or None."""
    _check_profile(instance, profile, set(range(instance.num_states)))
    solution = _minimal_payment(instance, profile, True)
    m = instance.num_outcomes
    return None if solution is None else PayHalfwayContract(solution[1][m:], solution[1][:m])


def min_payment_terminate(
    instance: Instance, terminate_set: frozenset[int] | set[int], profile: ActionProfile
) -> TerminateHalfwayContract | None:
    """Cheapest terminate-halfway contract with the given blocked states, or None.

    The profile must assign finals to exactly the surviving states.
    """
    terminate_set = _terminate_set(terminate_set)
    _check_terminate_set(instance, terminate_set)
    _check_profile(instance, profile, set(range(instance.num_states)) - terminate_set)
    solution = _minimal_payment(instance, profile, False)
    return None if solution is None else TerminateHalfwayContract(solution[1], terminate_set)


# --- search -------------------------------------------------------------------

_BLOCKED = -1  # the option of terminating at a state instead of picking a final


def _distinct_final_indices(costs, dists) -> list[int]:
    """Lowest index of each (cost, distribution) group, in index order, by one state's integers
    in the view: they share the state's denominator, so equal exactly when the ``Fraction``s are."""
    seen = {}
    for j, (cost, dist) in enumerate(zip(costs, dists)):
        seen.setdefault((cost, *dist), j)
    return list(seen.values())


def _search(instance, profiles_cap, with_state_transfers, may_block, make_contract) -> SolveReport:
    """Best contract by best-first branch and bound (see the module docstring).

    A candidate is an initial action ``i`` plus one option per state: a
    distinct final ``j`` or, when ``may_block``, termination.  Its bound is
    separable: ``-c_i + sum_s F[i,s] * (R[s,j] - c[s,j])``, a blocked state
    adding zero, in ``_Compiled.bound_table``'s integers.  With each state's
    options sorted by descending term, the k-best successor rule (increment
    only positions at or after the last one incremented) reaches every
    candidate exactly once and never before a candidate with a larger bound,
    so one heap seeded with each initial action's best candidate yields the
    space lazily in descending bound order.
    """
    profiles_cap = _integer("profiles_cap", profiles_cap)
    compiled = cached(instance, _COMPILED, _Compiled)
    space = instance.num_initial_actions * prod(len(finals) + may_block for finals in compiled.finals)
    if space > profiles_cap:
        raise EnumerationCapExceeded(f"{space} profiles to enumerate exceeds the cap of {profiles_cap}")

    bounds = compiled.bounds
    options, seeds, denominator = bounds[may_block] = bounds[may_block] or compiled.bound_table(instance, may_block)

    # Entries are (-bound, key, positions, last incremented); keys are unique
    # and order candidates as an exhaustive enumeration visits them.
    heap = []

    def push(bound, i, positions, last):
        picks = [options[i][s][k][1] for s, k in enumerate(positions)]
        blocked = tuple(s for s, j in enumerate(picks) if j == _BLOCKED)
        finals = tuple(j for j in picks if j != _BLOCKED)
        heapq.heappush(heap, (-bound, (len(blocked), blocked, i, finals), positions, last))

    for i, seed in enumerate(seeds):
        push(seed, i, (0,) * instance.num_states, 0)

    best = None  # (profit, key, x); the profit times the denominator is numerator / divisor
    solved = infeasible = 0
    while heap:
        neg_bound, key, positions, last = heapq.heappop(heap)
        bound = -neg_bound
        if best is not None and bound * divisor < numerator:
            break
        _, blocked, i, finals = key
        rows = options[i]
        for s in range(last, len(rows)):
            k = positions[s] + 1
            if k < len(rows[s]):
                step = rows[s][k][0] - rows[s][k - 1][0]
                push(bound + step, i, positions[:s] + (k,) + positions[s + 1 :], s)
        if best is not None and bound * divisor == numerator and key > best[1]:
            continue  # it can at best tie, and ties keep the earlier candidate
        surviving = [s for s in range(instance.num_states) if s not in blocked]
        profile = ActionProfile(i, dict(zip(surviving, finals)))
        solution = _minimal_payment(instance, profile, with_state_transfers)
        solved += 1
        if solution is None:
            infeasible += 1
            continue
        profit = solution[2] - solution[0]
        if best is None or profit > best[0] or (profit == best[0] and key < best[1]):
            best = (profit, key, solution[1])
            numerator, divisor = (profit * denominator).as_integer_ratio()

    if best is None:
        raise SolverInvariantError("no candidate profile is incentivizable")
    profit, key, x = best
    contract = make_contract(x, frozenset(key[1]))
    response = best_response(instance, contract)
    if response.principal_profit != profit:
        raise SolverInvariantError("tie-broken best response does not realize the searched optimum")
    return SolveReport(
        best_contract=contract,
        best_response=response,
        profit=profit,
        welfare=max_welfare(instance).max_welfare,
        profiles_enumerated=space,
        termination_sets_enumerated=2 ** instance.num_states if may_block else 0,
        infeasible_profiles=infeasible,
        programs_solved=solved,
    )


def optimal_standard(instance: Instance, *, profiles_cap: int = DEFAULT_PROFILES_CAP) -> SolveReport:
    """Best standard contract."""
    return _search(instance, profiles_cap, False, False, lambda x, _: StandardContract(x))


def optimal_pay(instance: Instance, *, profiles_cap: int = DEFAULT_PROFILES_CAP) -> SolveReport:
    """Best pay-halfway contract."""
    m = instance.num_outcomes
    return _search(instance, profiles_cap, True, False, lambda x, _: PayHalfwayContract(x[m:], x[:m]))


def optimal_terminate(instance: Instance, *, profiles_cap: int = DEFAULT_PROFILES_CAP) -> SolveReport:
    """Best terminate-halfway contract over all termination sets and profiles.

    Equal-profit ties resolve to the smallest blocked set (then the
    lexicographically first), so the empty set makes the result dominate the
    optimal standard contract by construction.
    """
    return _search(instance, profiles_cap, False, True, TerminateHalfwayContract)


# --- reductions ---------------------------------------------------------------


def pay_to_standard_tree(instance: Instance, pay: PayHalfwayContract) -> StandardContract:
    """Fold a pay-halfway contract into an equivalent standard one on a tree.

    On a tree process each outcome has at most one predecessor state, so the
    state transfer can ride on that state's outcomes: t'_m = t_m + s_pred(m).
    The best response under the result has the same profile, payment and
    profit (outcomes no state can reach keep their transfer unchanged).
    """
    view = integers(instance)
    if not classify(instance).is_tree:
        raise ValueError("instance is not a tree process")
    if not isinstance(pay, PayHalfwayContract):
        raise TypeError(f"pay_to_standard_tree folds a PayHalfwayContract, not a {type(pay).__name__}")
    transfers, state_transfers, _ = _contract_pieces(instance, pay)
    pred = {m: s for s, dists in enumerate(view.outcome_dists) for dist in dists for m, n in enumerate(dist) if n > 0}
    merged = tuple(t + (state_transfers[pred[m]] if m in pred else _ZERO) for m, t in enumerate(transfers))
    return StandardContract(merged)


def reduce_deterministic(instance: Instance) -> Instance:
    """Collapse a deterministic first stage into a one-shot, one-state instance.

    The result has one free initial action, ``start``, leading to one state,
    ``composite``, whose finals are the (initial action, final action at its
    destination) pairs in order, named ``"init/final"``, with the summed cost
    and the final action's distribution.  Under a standard contract each
    composite gives both parties what its pair gives them in the original, so
    ``optimal_standard`` of the reduction earns the original's optimal
    standard profit.
    """
    view = integers(instance)
    if not classify(instance).is_deterministic_first_stage:
        raise ValueError("instance is not a deterministic first-stage process")
    composites = tuple(
        FinalAction(f"{init.name}/{final.name}", init.cost + final.cost, final.outcome_dist)
        for init, transition in zip(instance.initial_actions, view.transitions)
        for final in instance.states[transition.index(view.initial_scale)].final_actions
    )
    start = InitialAction("start", _ZERO, (Fraction(1),))
    return Instance(instance.rewards, (start,), (State("composite", composites),))
