"""Self-contained exact-rational linear programming.

Minimizes c.x subject to rows of the form a.x {<=, >=, ==} b with the
implicit bound x >= 0, exactly and deterministically: the instances this
package cares about contain coefficients like lambda**k that destroy
floating-point conditioning.  A ``Constraint`` and a ``LinearProgram``
read their numbers by ``model.parse_rational``'s rule, as every constructor
does.  There are two entries.

``solve_lp`` is a dense two-phase primal simplex with Bland's anti-cycling
rule; it gives any program's status, optimal basic ``x`` and duals.
Equality rows are handled as a <= / >= pair; rows with a negative
right-hand side are negated first, and phase 1 uses artificial variables.

``_dual_value`` is a dual simplex (Lemke 1954) for programs with c >= 0.
With every row in <= form and its slack basic, that basis is then dual
feasible whatever the right-hand sides, so no phase 1 is needed.  Bland's
rule in its dual form (Bland 1977) pivots until no right-hand side is
negative, or until a row with none of its entries negative proves the
program infeasible.  It gives ``x`` only where that is certain to be
``solve_lp``'s: at a unique optimum, and at x = 0, from which no step of
``solve_lp`` can lower the objective below its bound 0, so none moves.
It takes a program in integer form, with no ``LinearProgram``: the
objective's integers and their scale, then every row already in <= form as
integers (coefficients, then right-hand side), then the column count.
``contracts._minimal_payment`` is the one caller of each: it values a
program's integer form with ``_dual_value``, and builds the program as a
``LinearProgram`` for ``solve_lp`` only where that gives no ``x``.  Both
read the basic ``x`` with ``_basic_x``.

Both keep the tableau as Python ints over one common denominator ``D``, the
determinant of the current basis.  ``solve_lp`` scales each row
(coefficients and right-hand side), and the objective, by the least common
multiple of its denominators with ``model.scale``, the package's one
common-denominator kernel, anew on every solve (nothing keeps a scaled row).
``_dual_value``'s caller gives each row in integers; ``contracts`` gives it
in lowest terms, divided by the gcd of its entries, so never wider than
``solve_lp``'s row.  The slack and artificial columns start as
the identity, so ``D`` starts at 1.  A pivot on entry ``p`` updates every
other row by the Bareiss (Edmonds) rule ``a' = (a*p - f*b) // D``, where
``f`` is the row's entry in the pivot column and ``b`` the pivot row's
entry; the division is exact.  Then ``D = p``; when ``p`` is negative, the
pivot row is negated first so that ``D`` stays positive.  The reduced costs
are one more row of the tableau, updated by the same rule.  Its right-hand
side is minus ``D`` times the scaled objective value, so the optimal value
is read from there.

Positive row scales leave the structural columns of the basis-inverse
tableau unchanged and multiply each slack, surplus and artificial variable
by a positive factor; phase 1 weights each artificial by the reciprocal of
its row's scale to match.  So every reduced cost keeps its sign, every ratio
test its minimum and every tie-break its order, and Bland's rule takes
exactly the pivots of the unscaled rational tableau: the same basis, ``x``
and duals, whichever positive multiple of each row it is given.  The
integers are Python ints, and the answers ``Fraction``s of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .model import _rational, _rational_tuple, scale

_scalar = int  # the tableau's one integer type; bench/run.py records it

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="
_RELATIONS = (LESS_EQUAL, GREATER_EQUAL, EQUAL)
_FLIPPED = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL}
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _rational_tuple(self.coeffs))
        object.__setattr__(self, "rhs", _rational(self.rhs))
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x subject to constraints, x >= 0 implicit."""

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", _rational_tuple(self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = len(self.objective)
        for k, row in enumerate(self.constraints):
            if len(row.coeffs) != n:
                raise ValueError(f"constraint {k} has {len(row.coeffs)} coefficients, expected {n}")

    @property
    def num_variables(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpOptimal:
    """Exact optimal basic solution.

    ``dual`` holds one multiplier per input constraint: >= rows have dual
    >= 0, <= rows dual <= 0, == rows are free.  At the optimum the duals
    certify the objective: dual . rhs == objective_value and the dual row
    never exceeds the objective coefficients.
    """

    x: tuple[Fraction, ...]
    objective_value: Fraction
    dual: tuple[Fraction, ...]


@dataclass(frozen=True)
class LpInfeasible:
    pass


@dataclass(frozen=True)
class LpUnbounded:
    pass


LpResult = LpOptimal | LpInfeasible | LpUnbounded


class SolverInvariantError(RuntimeError):
    """A self-check of the solvers failed.

    The checks raise this instead of using ``assert`` so that they still run
    under ``python -O``.
    """


def _pivot(tableau, basis, row, col, denom):
    """Bareiss pivot on ``tableau[row][col]`` in place; return the new ``D``.

    Every row, the reduced-cost row included, carries its right-hand side as
    the last entry.  The new ``D`` is the pivot entry; when that is negative
    (driving artificials out, and every pivot of ``_dual_value``), the pivot
    row is negated first so that ``D`` stays positive.
    """
    prow = tableau[row]
    p = prow[col]
    if p < 0:
        prow = tableau[row] = [-a for a in prow]
        p = -p
    for k, trow in enumerate(tableau):
        if k == row:
            continue
        f = trow[col]
        if f:
            tableau[k] = [(a * p - f * b) // denom for a, b in zip(trow, prow)]
        elif p != denom:
            tableau[k] = [a * p // denom for a in trow]
    basis[row] = col
    return p


def _basic_x(tableau, basis, n, denom) -> tuple[Fraction, ...]:
    """The first ``n`` entries of the basic solution: each basic one is its
    row's right-hand side over ``D``, every other one 0."""
    x = [_ZERO] * n
    for k, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[k][-1], denom)
    return tuple(x)


def _bland(tableau, basis, num_priced, denom):
    """Run Bland's rule in place until optimal or unbounded.

    Columns from ``num_priced`` on may not enter.  Returns the status and the
    new ``D``.
    """
    while True:
        # Basic columns have reduced cost exactly 0, so they never enter.
        costs = tableau[-1]
        for entering in range(num_priced):
            if costs[entering] < 0:
                break
        else:
            return "optimal", denom

        leaving = -1
        for k, b in enumerate(basis):
            trow = tableau[k]
            a = trow[entering]
            if a > 0:
                r = trow[-1]
                if leaving < 0:
                    leaving, best_r, best_a = k, r, a
                    continue
                # r / a against best_r / best_a; both denominators are positive.
                lhs = r * best_a
                rhs = best_r * a
                if lhs < rhs or (lhs == rhs and b < basis[leaving]):
                    leaving, best_r, best_a = k, r, a
        if leaving < 0:
            return "unbounded", denom

        denom = _pivot(tableau, basis, leaving, entering, denom)


def _price(tableau, basis, costs, denom):
    """Set the last tableau row to ``D`` times the reduced costs of ``costs``."""
    priced = [denom * c for c in costs] + [0]
    for k, b in enumerate(basis):
        cb = costs[b]
        if cb:
            priced = [r - cb * t for r, t in zip(priced, tableau[k])]
    tableau[-1] = priced


def solve_lp(lp: LinearProgram) -> LpResult:
    """Exact optimum via two-phase simplex with Bland's pivot rule.

    Deterministic: identical programs produce identical basic solutions.
    """
    n = lp.num_variables

    # Expand equalities into a <= / >= pair, scale each constraint to
    # integers, and negate rows with a negative right-hand side.
    rows = []  # (integer coefficients then rhs, relation, origin, scale times sign)
    for idx, c in enumerate(lp.constraints):
        values, row_scale = scale((*c.coeffs, c.rhs))
        for rel in (LESS_EQUAL, GREATER_EQUAL) if c.relation == EQUAL else (c.relation,):
            if c.rhs < 0:
                rows.append(([-v for v in values], _FLIPPED[rel], idx, -row_scale))
            else:
                rows.append((values, rel, idx, row_scale))

    m = len(rows)
    num_cols = n + m + sum(row[1] == GREATER_EQUAL for row in rows)
    zeros = [0] * (num_cols - n)

    # One row per constraint: coefficients, then slack or surplus, then
    # artificials, then the right-hand side.  The initial basis is the slack
    # or artificial of each row, the identity, so D = 1.
    tableau = []
    basis = []
    art_scales = {}  # artificial column -> its row's scale
    for k, (values, rel, _origin, signed_scale) in enumerate(rows):
        trow = [*values[:-1], *zeros, values[-1]]
        if rel == LESS_EQUAL:
            trow[n + k] = 1  # slack
            basis.append(n + k)
        else:
            trow[n + k] = -1  # surplus
            art = n + m + len(art_scales)
            trow[art] = 1
            basis.append(art)
            art_scales[art] = abs(signed_scale)
        tableau.append(trow)
    init_col = list(basis)
    tableau.append(None)  # the reduced-cost row, set by _price
    denom = 1

    if art_scales:
        # Weight each artificial by 1 / (its row's scale), times their LCM.
        common = lcm(*art_scales.values())
        costs1 = [0] * num_cols
        for j, row_scale in art_scales.items():
            costs1[j] = common // row_scale
        _price(tableau, basis, costs1, denom)
        status, denom = _bland(tableau, basis, num_cols, denom)
        if status != "optimal":
            raise SolverInvariantError("phase 1 came out unbounded, yet its objective is at least zero")
        first_art = n + m
        if any(tableau[k][-1] > 0 for k, b in enumerate(basis) if b >= first_art):
            return LpInfeasible()
        # Drive degenerate artificials out of the basis where possible.
        basic = set(basis)
        for k in range(m):
            if basis[k] >= first_art:
                trow = tableau[k]
                for j in range(first_art):
                    if j not in basic and trow[j] != 0:
                        basic.discard(basis[k])
                        basic.add(j)
                        denom = _pivot(tableau, basis, k, j, denom)
                        break

    objective, obj_scale = scale(lp.objective)
    _price(tableau, basis, [*objective, *zeros], denom)
    status, denom = _bland(tableau, basis, n + m, denom)
    if status == "unbounded":
        return LpUnbounded()

    # The reduced-cost row's right-hand side is minus D times the scaled
    # objective value.  Row k's slack or artificial started as the identity
    # column e_k and costs nothing in phase 2, so its reduced cost is minus
    # the scaled dual of row k.  Undo the row scale, the sign flip and the
    # objective scale.
    reduced = tableau[-1]
    dual_denom = denom * obj_scale
    dual = [_ZERO] * len(lp.constraints)
    for k, (_values, _rel, origin, signed_scale) in enumerate(rows):
        dual[origin] += Fraction(-reduced[init_col[k]] * signed_scale, dual_denom)
    return LpOptimal(_basic_x(tableau, basis, n, denom), Fraction(-reduced[-1], dual_denom), tuple(dual))


def _dual_value(objective, obj_scale, rows, n) -> tuple[Fraction, tuple[Fraction, ...] | None] | None:
    """``(value, x)`` of a program with a non-negative objective, or None when
    infeasible (see the module docstring).  The program comes in integer form:
    the objective is ``objective[k] / obj_scale``, and each row of ``rows``
    holds ``n`` coefficients, then its right-hand side, of one ``<=`` row.
    ``x`` is None where it might not be ``solve_lp``'s: where a non-basic
    reduced cost is 0 at an optimum other than x = 0.  A negative cost raises
    ``SolverInvariantError``."""
    if any(c < 0 for c in objective):
        raise SolverInvariantError("the dual simplex needs a non-negative objective")
    if all(values[-1] >= 0 for values in rows):
        return _ZERO, (_ZERO,) * n  # x = 0 is feasible, so optimal, and solve_lp's
    m = len(rows)
    zeros = [0] * m
    tableau = []
    for k, values in enumerate(rows):
        trow = [*values[:-1], *zeros, values[-1]]
        trow[n + k] = 1  # slack
        tableau.append(trow)
    tableau.append([*objective, *zeros, 0])
    basis = list(range(n, n + m))
    denom = 1

    while True:
        # Dual Bland: the least basic index with a negative right-hand side
        # leaves; of the row's negative entries, the least ratio (reduced
        # cost) / |entry|, then the least index, enters.
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
        if entering < 0:
            return None  # the row is a sum of non-negative terms equal to a negative number
        denom = _pivot(tableau, basis, leaving, entering, denom)

    value = Fraction(-tableau[-1][-1], denom * obj_scale)
    unique = tableau[-1][:-1].count(0) == m  # no non-basic reduced cost is 0
    return value, _basic_x(tableau, basis, n, denom) if unique else None
