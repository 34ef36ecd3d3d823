"""Programmatic construction of worked examples, parameterized separation
families, and seeded random instances for property tests.

Every builder returns an instance that passes ``validate``; parameter
constraints are checked up front and violations name the failed inequality.
Each builder alone reads its parameters, by ``_param``: a rational one by
``parse_rational``'s rule, as every constructor does, so a float is refused;
an integer one (the seed too) refuses a non-integral value.
"""

from __future__ import annotations

import functools
import inspect
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .lp import SolverInvariantError
from .model import (
    FinalAction,
    InitialAction,
    Instance,
    State,
    _rational,
    parse_rational,
    validate,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FamilyParams:
    """A named instance family plus its parameter assignment."""

    family: str
    params: Mapping[str, object] = None

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params or {}))


def _checked(instance: Instance) -> Instance:
    report = validate(instance)
    if not report.ok:
        raise SolverInvariantError(f"generator produced an invalid instance: {report.violations}")
    return instance


def _param(name: str, value, integer: bool):
    """A parameter's value as a Fraction by ``parse_rational``'s rule (``_rational``), or with
    ``integer`` as an int, accepting any integral value but a bool (``2.0``, ``"1e1"``, ``"4/2"``)."""
    if not integer:
        return _rational(value)
    exact = Fraction(value) if isinstance(value, (int, float, Fraction)) else parse_rational(value)
    if exact.denominator != 1 or isinstance(value, bool):
        raise ValueError(f"parameter {name!r} must be an integer, got {value if exact.denominator == 1 else exact}")
    return int(exact)


def midterm_instance() -> Instance:
    """Programming task with a pass/fail midterm check before the outcome.

    Initial effort costs 1.8 and passes the midterm with probability 0.9;
    skipping it fails for sure.  After a failed midterm, final effort (cost 2)
    succeeds with probability 0.8 versus 0.1 for doing nothing; after a pass,
    either final action succeeds, effort just wastes its cost 1.  Success is
    worth 5 to the principal.
    """
    fr = Fraction
    return _checked(
        Instance(
            rewards=(fr(0), fr(5)),
            initial_actions=(
                InitialAction("effort", fr(9, 5), (fr(1, 10), fr(9, 10))),
                InitialAction("null", fr(0), (fr(1), fr(0))),
            ),
            states=(
                State(
                    "fail",
                    (
                        FinalAction("effort", fr(2), (fr(1, 5), fr(4, 5))),
                        FinalAction("null", fr(0), (fr(9, 10), fr(1, 10))),
                    ),
                ),
                State(
                    "pass",
                    (
                        FinalAction("effort", fr(1), (fr(0), fr(1))),
                        FinalAction("null", fr(0), (fr(0), fr(1))),
                    ),
                ),
            ),
        )
    )


def interim_review_instance() -> Instance:
    """Delegated task with an interim review the principal may act on.

    Initial effort costs 8 and reaches the "well" review with probability
    0.99; the null initial action lands on "bad" for sure.  At "well" every
    final action succeeds (effort only adds cost 1); at "bad" the costly
    final action (cost 4) succeeds with probability 0.6 while the null one
    succeeds with probability 0.1.  Success is worth 10.
    """
    fr = Fraction
    return _checked(
        Instance(
            rewards=(fr(0), fr(10)),
            initial_actions=(
                InitialAction("effort", fr(8), (fr(1, 100), fr(99, 100))),
                InitialAction("null", fr(0), (fr(1), fr(0))),
            ),
            states=(
                State(
                    "bad",
                    (
                        FinalAction("effort", fr(4), (fr(2, 5), fr(3, 5))),
                        FinalAction("null", fr(0), (fr(9, 10), fr(1, 10))),
                    ),
                ),
                State(
                    "well",
                    (
                        FinalAction("effort", fr(1), (fr(0), fr(1))),
                        FinalAction("null", fr(0), (fr(0), fr(1))),
                    ),
                ),
            ),
        )
    )


def payment_gap_instance(p: Fraction, q: Fraction, c: Fraction, x: Fraction) -> Instance:
    """Three-state family where paying at the costly state is far cheaper
    than incentivizing through outcomes alone.

    Two zero-cost initial actions: the first reaches the free high-reward
    state with probability p (dead state otherwise), the second reaches it
    with probability q < p and the costly state otherwise.  The costly
    state's paid action (cost c) secures the reward x for sure.
    """
    p, q, c, x = (_param(name, value, integer=False) for name, value in zip("pqcx", (p, q, c, x)))
    if not 0 < q < p < 1:
        raise ValueError(f"requires 0 < q < p < 1; got p={p}, q={q}")
    if not 0 < c < x:
        raise ValueError(f"requires 0 < c < x; got c={c}, x={x}")
    bound = (1 + p - q) * c / (1 - p)
    if not x > bound:
        raise ValueError(f"requires x > (1+p-q)*c/(1-p) = {bound}; got x={x}")
    win = (_ZERO, _ONE)
    lose = (_ONE, _ZERO)
    return _checked(
        Instance(
            rewards=(_ZERO, x),
            initial_actions=(
                InitialAction("safe", _ZERO, (p, _ZERO, 1 - p)),
                InitialAction("risky", _ZERO, (q, 1 - q, _ZERO)),
            ),
            states=(
                State("free", (FinalAction("high", _ZERO, win), FinalAction("null", _ZERO, lose))),
                State("costly", (FinalAction("high", c, win), FinalAction("null", _ZERO, lose))),
                State("dead", (FinalAction("a", _ZERO, lose), FinalAction("null", _ZERO, lose))),
            ),
        )
    )


def _rung(growth: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Cost and expected reward of ladder rung k: growth + growth**2 + ...
    + growth**k exactly (requires growth != 1), and that plus k."""
    cost = growth * (growth ** k - 1) / (growth - 1)
    return cost, cost + k


def _reward_scale(r: Fraction | None, bound: Fraction, requirement: str) -> Fraction:
    """The success reward: ``r``, checked against ``bound``, or by default the
    least power of ten at least ``bound``.  ``requirement`` is the message's
    inequality with ``{}`` for the bound, formatted only on failure."""
    if r is None:
        r = _ONE
        while r < bound:
            r *= 10
        return r
    r = _param("r", r, integer=False)
    if not r >= bound:
        raise ValueError(f"requires {requirement.format(bound)}; got r={r}")
    return r


def cost_ladder_instance(
    n1: int, n2: int, growth: Fraction = Fraction(10), r: Fraction | None = None
) -> Instance:
    """Deterministic first-stage family with geometrically exploding costs.

    n1 free initial actions each lead to their own state whose paid final
    actions sit on a geometric cost ladder (cost of rung k is the geometric
    sum up to growth**k) and return their cost plus a small bonus in
    expectation.  One expensive initial action (cost = the tallest rung)
    leads to a state where every final action is free and worth cost plus
    the largest bonus, so its welfare dwarfs what outcome-based incentives
    can extract from the ladder.
    """
    n1, n2 = _param("n1", n1, integer=True), _param("n2", n2, integer=True)
    growth = _param("growth", growth, integer=False)
    if n1 < 1 or n2 < 1:
        raise ValueError(f"requires n1 >= 1 and n2 >= 1; got n1={n1}, n2={n2}")
    if not growth > 1:
        raise ValueError(f"requires growth > 1; got growth={growth}")
    big_cost, big_reward = _rung(growth, (n1 + 1) * n2 + 1)
    r = _reward_scale(r, big_reward, "r >= {} so probabilities stay in [0,1]")

    states = []
    initials = []
    for s in range(1, n1 + 1):
        unit = [_ZERO] * (n1 + 1)
        unit[s - 1] = _ONE
        initials.append(InitialAction(f"go{s}", _ZERO, tuple(unit)))
        finals = []
        for j in range(1, n2 + 1):
            cost, reward = _rung(growth, s * n2 + j)
            finals.append(
                FinalAction(f"rung{j}", cost, (1 - reward / r, reward / r))
            )
        finals.append(FinalAction("null", _ZERO, (_ONE, _ZERO)))
        states.append(State(f"s{s}", tuple(finals)))

    unit = [_ZERO] * (n1 + 1)
    unit[n1] = _ONE
    initials.append(InitialAction("invest", big_cost, tuple(unit)))
    top_finals = tuple(
        FinalAction(f"f{j}", _ZERO, (1 - big_reward / r, big_reward / r))
        for j in range(1, n2 + 2)
    )
    states.append(State("top", top_finals))

    return _checked(Instance((_ZERO, r), tuple(initials), tuple(states)))


def state_markers_instance(
    s: int,
    n2: int,
    growth: Fraction = Fraction(10),
    epsilon: Fraction = Fraction(1, 1000),
    r: Fraction | None = None,
) -> Instance:
    """Stochastic first-stage family whose paid actions leave a state marker.

    A single free initial action lands uniformly on 2s+1 states.  States
    1..s carry a geometric cost ladder as in the cost-ladder family, but each
    paid action diverts probability epsilon to a marker outcome: the top rung
    marks a state-specific outcome (s+2 for state s), lower rungs mark a
    shared junk outcome.  States s+1..2s+1 are sinks leading deterministically
    to the marker outcomes with zero reward, so transfers on markers leak
    there unless those states are blocked.
    """
    s, n2 = _param("s", s, integer=True), _param("n2", n2, integer=True)
    growth, epsilon = _param("growth", growth, integer=False), _param("epsilon", epsilon, integer=False)
    if s < 1 or n2 < 1:
        raise ValueError(f"requires s >= 1 and n2 >= 1; got s={s}, n2={n2}")
    if not growth > 1:
        raise ValueError(f"requires growth > 1; got growth={growth}")
    if not 0 < epsilon < 1:
        raise ValueError(f"requires 0 < epsilon < 1; got epsilon={epsilon}")
    num_outcomes = s + 3
    bound = _rung(growth, (s + 1) * n2)[1] / (1 - epsilon)
    r = _reward_scale(r, bound, "r >= R_max/(1-epsilon) = {} so outcome 1 keeps non-negative probability")

    rewards = [_ZERO] * num_outcomes
    rewards[1] = r

    num_states = 2 * s + 1
    uniform = tuple(Fraction(1, num_states) for _ in range(num_states))
    initials = (InitialAction("null", _ZERO, uniform),)

    states = []
    for t in range(1, s + 1):
        finals = []
        for j in range(1, n2 + 1):
            cost, reward = _rung(growth, t * n2 + j)
            dist = [_ZERO] * num_outcomes
            dist[0] = 1 - epsilon - reward / r
            dist[1] = reward / r
            marker = (t + 2) - 1 if j == n2 else (s + 3) - 1
            dist[marker] += epsilon
            finals.append(FinalAction(f"rung{j}", cost, tuple(dist)))
        null_dist = [_ZERO] * num_outcomes
        null_dist[0] = _ONE
        finals.append(FinalAction("null", _ZERO, tuple(null_dist)))
        states.append(State(f"work{t}", tuple(finals)))

    for u in range(s + 1, 2 * s + 2):
        dist = [_ZERO] * num_outcomes
        dist[(u - s + 2) - 1] = _ONE
        finals = tuple(
            FinalAction(f"f{j}", _ZERO, tuple(dist)) for j in range(1, n2 + 2)
        )
        states.append(State(f"sink{u}", finals))

    return _checked(Instance(tuple(rewards), initials, tuple(states)))


# --- random instances ---------------------------------------------------------


def _random_rational(rng: random.Random, numerator_max: int) -> Fraction:
    return Fraction(rng.randint(0, numerator_max), rng.choice((1, 2, 3, 4)))


def _random_dist(rng: random.Random, size: int, support: list[int]) -> tuple[Fraction, ...]:
    weights = [0] * size
    for idx in support:
        weights[idx] = rng.randint(0, 3)
    if not any(weights[idx] for idx in support):
        weights[rng.choice(support)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_instance(
    kind: str,
    *,
    seed: int,
    max_states: int = 3,
    max_initial_actions: int = 3,
    max_final_actions: int = 3,
    max_outcomes: int = 4,
) -> Instance:
    """Seeded random instance of a given process class.

    ``kind`` is one of "tree", "stochastic_first_stage",
    "deterministic_first_stage" or "general".  Sizes are drawn uniformly up
    to the given caps, probabilities are small-denominator rationals, rewards
    are non-negative, and the required null actions are always present.
    Identical seeds produce identical instances.  The seed must be an
    integer, and every cap an integer of at least 1.
    """
    kinds = ("tree", "stochastic_first_stage", "deterministic_first_stage", "general")
    if kind not in kinds:
        raise ValueError(f"unknown process class {kind!r}; expected one of {kinds}")
    caps = {"max_states": max_states, "max_initial_actions": max_initial_actions,
            "max_final_actions": max_final_actions, "max_outcomes": max_outcomes}
    for name, cap in caps.items():
        caps[name] = _param(name, cap, integer=True)
        if caps[name] < 1:
            raise ValueError(f"{name} must be at least 1, got {caps[name]}")
    max_states, max_initial_actions, max_final_actions, max_outcomes = caps.values()
    seed = _param("seed", seed, integer=True)
    rng = random.Random(f"{kind}:{seed}")

    num_states = rng.randint(1, max_states)
    num_initial = 1 if kind == "stochastic_first_stage" else rng.randint(1, max_initial_actions)
    if kind == "tree":
        num_outcomes = rng.randint(num_states, max(num_states, max_outcomes))
        cuts = sorted(rng.sample(range(1, num_outcomes), num_states - 1)) if num_states > 1 else []
        blocks = []
        start = 0
        for cut in cuts + [num_outcomes]:
            blocks.append(list(range(start, cut)))
            start = cut
    else:
        num_outcomes = rng.randint(1, max_outcomes)
        blocks = [list(range(num_outcomes))] * num_states

    rewards = tuple(_random_rational(rng, 20) for _ in range(num_outcomes))

    initials = []
    null_initial = rng.randrange(num_initial)
    for i in range(num_initial):
        cost = _ZERO if i == null_initial else _random_rational(rng, 10)
        if kind == "deterministic_first_stage":
            row = [_ZERO] * num_states
            row[rng.randrange(num_states)] = _ONE
            transition = tuple(row)
        else:
            transition = _random_dist(rng, num_states, list(range(num_states)))
        initials.append(InitialAction(f"i{i}", cost, transition))

    states = []
    for s in range(num_states):
        count = rng.randint(1, max_final_actions)
        null_final = rng.randrange(count)
        finals = []
        for j in range(count):
            cost = _ZERO if j == null_final else _random_rational(rng, 10)
            finals.append(FinalAction(f"a{j}", cost, _random_dist(rng, num_outcomes, blocks[s])))
        states.append(State(f"s{s}", tuple(finals)))

    return _checked(Instance(rewards, tuple(initials), tuple(states)))


# --- dispatch -----------------------------------------------------------------


_FAMILIES = {
    "midterm": midterm_instance,
    "interim_review": interim_review_instance,
    "payment_gap": payment_gap_instance,
    "cost_ladder": cost_ladder_instance,
    "state_markers": state_markers_instance,
    "random_tree": functools.partial(random_instance, "tree"),
    "random_stochastic": functools.partial(random_instance, "stochastic_first_stage"),
    "random_deterministic": functools.partial(random_instance, "deterministic_first_stage"),
    "random_general": functools.partial(random_instance, "general"),
}
FAMILIES = tuple(_FAMILIES)

# ``random_instance``'s size caps go by these shorter names in a parameter map;
# messages name them by the keyword, as ``random_instance`` itself does.
_CAP_NAMES = {"max_states": "s", "max_initial_actions": "n1", "max_final_actions": "n2", "max_outcomes": "m"}


def generate(family_params: FamilyParams) -> Instance:
    """Build the instance described by a family name and parameter map.

    A family's parameters, which of them are required and their defaults
    are those of its builder's signature; the builder reads each value as given."""
    family = family_params.family
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    builder = _FAMILIES[family]
    params = dict(family_params.params)
    arguments = {}
    for name, parameter in inspect.signature(builder).parameters.items():
        key = _CAP_NAMES.get(name, name)
        if key in params:
            arguments[name] = params.pop(key)
        elif parameter.default is parameter.empty:
            raise ValueError(f"missing required parameter {key!r}")
    instance = builder(**arguments)
    if params:
        raise ValueError(f"unknown parameters for family {family!r}: {sorted(params)}")
    return instance
