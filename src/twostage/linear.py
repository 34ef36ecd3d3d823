"""Linear-contract analysis via exact upper envelopes of utility lines.

Under a linear contract the agent's utility from a final action is a line
alpha * R - c in the fraction alpha, so her behavior on [0, 1] is piecewise
constant: per-state envelopes give the final-action switch points, and within
each final-fixed interval an envelope over initial actions gives the rest.
Principal profit (1 - alpha) * R_a is decreasing on each piece, so the
optimum sits at the left end of a segment.  There the principal-favoring
tie-break hands the principal that segment's profile, whose line has the
largest slope (reward) of those tied, so each segment scores itself; one
best response at the winning alpha checks that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .agent import _check_linear_rewards, best_response
from .lp import SolverInvariantError
from .model import ActionProfile, Instance, LinearContract, _check_state, dot, integers, scale

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Segment:
    """Open interval of alpha on which the agent's profile is constant."""

    alpha_low: Fraction
    alpha_high: Fraction
    profile: ActionProfile
    reward: Fraction
    cost: Fraction

    @property
    def profit_at_low(self) -> Fraction:
        """Principal profit at alpha_low, where the agent takes this profile."""
        return (1 - self.alpha_low) * self.reward


@dataclass(frozen=True)
class Breakpoint:
    alpha: Fraction
    profile_left: ActionProfile
    profile_right: ActionProfile


@dataclass(frozen=True)
class LinearOptimum:
    alpha: Fraction
    profit: Fraction


@dataclass(frozen=True)
class BreakpointAnalysis:
    breakpoints: tuple[Breakpoint, ...]
    segments: tuple[Segment, ...]
    optimal: LinearOptimum


def _upper_envelope(lines, lo=_ZERO, hi=_ONE):
    """Upper envelope of lines (slope, intercept, key) over [lo, hi].

    Returns (knees, segments): interior switch points, and (left, right, key)
    pieces partitioning [lo, hi].  Exact rational pairwise-intersection sweep;
    identical lines collapse to the lowest key.
    """
    best_by_slope: dict[Fraction, tuple[Fraction, int]] = {}
    for slope, intercept, key in lines:
        cur = best_by_slope.get(slope)
        if cur is None or intercept > cur[0] or (intercept == cur[0] and key < cur[1]):
            best_by_slope[slope] = (intercept, key)
    items = sorted((slope, ic, key) for slope, (ic, key) in best_by_slope.items())

    hull: list[tuple[Fraction, Fraction, int]] = []
    knees: list[Fraction] = []  # knees[i] separates hull[i] and hull[i+1]
    for line in items:
        while True:
            if not hull:
                hull.append(line)
                break
            slope1, ic1, _ = hull[-1]
            slope2, ic2, _ = line
            x = (ic1 - ic2) / (slope2 - slope1)
            if knees and x <= knees[-1]:
                hull.pop()
                knees.pop()
                continue
            hull.append(line)
            knees.append(x)
            break

    interior: list[Fraction] = []
    segments: list[tuple[Fraction, Fraction, int]] = []
    left = lo
    for i, (_slope, _ic, key) in enumerate(hull):
        knee = knees[i] if i < len(knees) else None
        right = hi if knee is None or knee > hi else knee
        if right > left:
            segments.append((left, right, key))
            if knee is not None and lo < right < hi:
                interior.append(right)
            left = right
        if left >= hi:
            break
    return interior, segments


def _state_lines(instance: Instance, s: int):
    """State ``s``'s lines (expected reward, -cost, final), each reward from the view's integers."""
    view = integers(instance)
    finals = zip(view.outcome_dists[s], instance.states[s].final_actions)
    return [(dot((dist, view.state_scales[s]), view.rewards), -act.cost, j) for j, (dist, act) in enumerate(finals)]


def state_breakpoints(instance: Instance, state: int) -> list[Fraction]:
    """Alphas in (0, 1) where the agent's best final action at a state changes.

    Dominated actions contribute none; a state whose actions share one
    envelope line has no breakpoints.
    """
    _check_state(instance, state)
    knees, _ = _upper_envelope(_state_lines(instance, state))
    return knees


def analyze(instance: Instance) -> BreakpointAnalysis:
    """Full piecewise structure of the agent's response to linear contracts.

    Requires all rewards non-negative.  Candidate alphas are each segment's
    left end plus 1.  At a left end the agent, ties favoring the principal,
    takes that segment's profile, so its profit is ``profit_at_low``; at
    alpha = 1 it is 0, which never beats alpha = 0.  The smallest alpha
    wins ties.  The winner is then checked against one backward-induction
    best response; a mismatch raises ``SolverInvariantError``.
    """
    _check_linear_rewards(instance)
    num_states = instance.num_states
    state_lines = [_state_lines(instance, s) for s in range(num_states)]
    state_envelopes = []
    final_knees: set[Fraction] = set()
    for lines in state_lines:
        knees, segs = _upper_envelope(lines)
        state_envelopes.append(segs)
        final_knees.update(knees)

    def final_choice(segs, alpha):
        for left, right, key in segs:
            if left <= alpha <= right:
                return key
        raise SolverInvariantError(f"no final-action segment of a state contains alpha {alpha}")

    boundaries = [_ZERO, *sorted(final_knees), _ONE]
    view = integers(instance)
    segments: list[Segment] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        mid = (lo + hi) / 2
        finals = {s: final_choice(state_envelopes[s], mid) for s in range(num_states)}
        chosen = [state_lines[s][j] for s, j in finals.items()]
        rewards, neg_costs = scale([line[0] for line in chosen]), scale([line[1] for line in chosen])
        lines = [
            (dot((t, view.initial_scale), rewards), dot((t, view.initial_scale), neg_costs) - act.cost, i)
            for i, (act, t) in enumerate(zip(instance.initial_actions, view.transitions))
        ]
        _, initial_segs = _upper_envelope(lines, lo, hi)
        for seg_lo, seg_hi, i in initial_segs:
            reward, neg_cost, _ = lines[i]
            segments.append(Segment(seg_lo, seg_hi, ActionProfile(i, finals), reward, -neg_cost))

    breakpoints = tuple(
        Breakpoint(right.alpha_low, left.profile, right.profile)
        for left, right in zip(segments, segments[1:])
    )
    bound = num_states * instance.num_initial_actions * instance.max_final_actions
    if len(breakpoints) > bound:
        raise SolverInvariantError(f"{len(breakpoints)} breakpoints exceed S*N1*N2 = {bound}")

    winner = max(segments, key=lambda seg: seg.profit_at_low)  # the first on ties
    best = LinearOptimum(winner.alpha_low, winner.profit_at_low)
    response = best_response(instance, LinearContract(best.alpha))
    if response.principal_profit != best.profit or response.profile != winner.profile:
        raise SolverInvariantError(
            f"best response at the optimal alpha {best.alpha} does not realize its segment:"
            f" profit {response.principal_profit} for {best.profit}"
        )
    return BreakpointAnalysis(breakpoints, tuple(segments), best)


def optimal_linear(instance: Instance) -> LinearOptimum:
    """Best linear contract: the profit-maximizing candidate alpha."""
    return analyze(instance).optimal
