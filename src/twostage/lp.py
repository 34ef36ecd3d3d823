"""Self-contained exact-rational linear programming.

Minimizes c.x subject to rows of the form a.x {<=, >=, ==} b with the
implicit bound x >= 0.  The solver is a dense two-phase primal simplex with
Bland's anti-cycling rule, so results are exact, deterministic and
reproducible: the instances this package cares about contain coefficients
like lambda**k that destroy floating-point conditioning.

Equality rows are handled as a <= / >= pair; phase 1 uses artificial
variables for feasibility.  The tableau runs on gmpy2.mpq when available
(exact, several times faster) and falls back to fractions.Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

try:  # pragma: no cover - exercised implicitly on hosts with gmpy2
    from gmpy2 import mpq as _scalar
except ImportError:  # pragma: no cover
    _scalar = Fraction

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="
_RELATIONS = (LESS_EQUAL, GREATER_EQUAL, EQUAL)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", Fraction(self.rhs))
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x subject to constraints, x >= 0 implicit."""

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(Fraction(c) for c in self.objective))
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


def _bland(tableau, rhs, basis, costs, banned, num_rows):
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

        _pivot(tableau, rhs, basis, leaving, entering, num_rows)


def _pivot(tableau, rhs, basis, row, col, num_rows):
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


def solve_lp(lp: LinearProgram) -> LpResult:
    """Exact optimum via two-phase simplex with Bland's pivot rule.

    Deterministic: identical programs produce identical basic solutions.
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
        trow = [_scalar(v) for v in coeffs] + [_scalar(0)] * (num_cols - n)
        if rel == LESS_EQUAL:
            trow[n + k] = _scalar(1)  # slack
            basis[k] = n + k
        else:
            trow[n + k] = _scalar(-1)  # surplus
            trow[next_art] = _scalar(1)
            basis[k] = next_art
            art_of_row[k] = next_art
            next_art += 1
        init_col[k] = basis[k]
        tableau.append(trow)
        rhs_col.append(_scalar(rhs))

    artificial = set(range(n + num_aux, num_cols))
    banned: set[int] = set()

    if artificial:
        costs1 = [_scalar(0)] * num_cols
        for j in artificial:
            costs1[j] = _scalar(1)
        if _bland(tableau, rhs_col, basis, costs1, banned, m) != "optimal":
            raise SolverInvariantError("phase 1 came out unbounded, yet its objective is at least zero")
        phase1_value = sum((rhs_col[k] for k in range(m) if basis[k] in artificial), _scalar(0))
        if phase1_value > 0:
            return LpInfeasible()
        # Drive degenerate artificials out of the basis where possible.
        for k in range(m):
            if basis[k] in artificial:
                for j in range(n + num_aux):
                    if j not in basis and tableau[k][j] != 0:
                        _pivot(tableau, rhs_col, basis, k, j, m)
                        break
        banned = artificial

    costs2 = [_scalar(0)] * num_cols
    for j in range(n):
        costs2[j] = _scalar(lp.objective[j])
    status = _bland(tableau, rhs_col, basis, costs2, banned, m)
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
        y = _scalar(0)
        for k in range(m):
            ck = costs2[basis[k]]
            if ck:
                y += ck * tableau[k][col]
        dual[rows[i][3]] += flips[i] * to_fraction(y)

    return LpOptimal(tuple(x), value, tuple(dual))
