"""Exact-arithmetic domain model for two-stage delegation processes.

A process has M outcomes, S intermediate states, N1 initial actions and up to
N2 final actions per state.  The agent picks an initial action (stochastic
transition to a state), observes the state, then picks a final action
(stochastic transition to an outcome).  All probabilities, costs and rewards
are exact rationals; nothing in this package ever rounds.

Everything here is immutable after construction and safe to share across
threads.  Instances are plain containers: ``validate`` reports invariant
violations as data instead of refusing to construct; ``require_valid`` is
the ``ValueError`` every computing entry raises from that report.  What an
instance derives is built once and kept on it by ``cached`` (the validation
and welfare reports, the integer view, ``contracts``' rows and solved
programs), all outside equality, hashing, repr and JSON.

The fields are ``Fraction`` tuples, but the per-entry work runs on integers.
``parse_rational`` is the one reader of a rational: a file's values, a
family's parameters and every constructor's field that is not exactly a
``Fraction`` (``_rational``, ``_rational_tuple``) go through it, so a
float, bool, ``Decimal`` or None is refused everywhere alike.  It reads a
plain ``[-]digits[/digits]`` string with ``int`` and accepts or rejects
every other spelling exactly as ``Fraction`` does.
An instance's rewards, probabilities and costs are converted once, for any
instance, into its integer view ``_Integers``.  ``validate`` and ``classify``
read it: a row sums to 1 when its numerators sum to its group's denominator.
An expected value is one integer dot product over common denominators,
reduced once; ``scale`` and ``dot`` are the only such kernel, and every
computing layer reads the view through ``integers``, which refuses an invalid
instance.  A profile's every expectation, a minimal-payment program's
objective and rows included, is read from one outcome mixture, ``_mixture``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import index, mul
from typing import Iterable, Mapping, Sequence, Union


class InstanceFormatError(ValueError):
    """An instance or contract document could not be parsed."""


_SHOWN_CHARS = 100


def _shown(value: object) -> str:
    """``repr(value)``, cut to a bounded prefix plus the length for long input."""
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:_SHOWN_CHARS]}... ({size} characters)"


# CPython releases before 3.10.7 have no digit limit; use its later default.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 4300)


def _oversize(text: str) -> str | None:
    """Why a decimal literal is too large to parse, or None if it is not.

    Its digits plus the magnitude of its exponent may not exceed the limit.
    A malformed exponent is left for ``Fraction`` to report.
    """
    limit = _max_str_digits()
    if not limit or (len(text) <= limit and "e" not in text and "E" not in text):
        return None
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(ch.isdigit() for ch in mantissa)
    if exponent:
        try:
            size += abs(int(exponent))
        except ValueError:
            return None
    if size <= limit:
        return None
    return (
        f"{_shown(text)} has {size} digits counting its exponent,"
        f" over the limit of {limit} (sys.get_int_max_str_digits())"
    )


def parse_rational(value: object) -> Fraction:
    """Read ``"0.9"``, ``"9/10"``, ``"5"``, ``"2.5e3"``, an integer or a Fraction as a plain Fraction.

    The one reader of a rational: every constructor hands it each field value
    whose type is not exactly ``Fraction``.  An integer is one that passes
    ``_is_index`` (an int or a numpy integer, not a bool); a ``Fraction``
    subclass is read as a plain ``Fraction``.  Floats are rejected: a JSON
    ``0.9`` is a binary approximation, not the rational 9/10, and silent
    conversion would corrupt exact regressions.  Every other type (a bool,
    a ``Decimal``, None) is refused as well, with ``InstanceFormatError``.
    A string whose digits plus the magnitude of its exponent exceed
    ``sys.get_int_max_str_digits()`` is rejected too, the limit Python
    already puts on a plain digit string: ``"1e1000000"`` would otherwise
    become a 3.3-million-bit integer.
    """
    if isinstance(value, str):
        reason = _oversize(value)
        if reason is not None:
            raise InstanceFormatError(f"number too large: {reason}")
        if value.isascii():  # ASCII [-]digits[/digits] with a non-zero denominator
            numerator, slash, denominator = value.partition("/")
            digits = numerator[1:] if numerator[:1] == "-" else numerator
            if digits.isdigit():
                if not slash:
                    return Fraction(int(numerator))
                if denominator.isdigit() and denominator.strip("0"):
                    return Fraction(int(numerator), int(denominator))
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"not a rational number: {_shown(value)}") from exc
    if isinstance(value, Fraction):
        return Fraction(value)
    if _is_index(value):
        return Fraction(index(value))
    if isinstance(value, float):
        raise InstanceFormatError(
            f"floating-point literal {value!r} is not exact; write it as a string"
        )
    raise InstanceFormatError(f"not a rational number: {_shown(value)}")


def format_rational(value: Fraction) -> str:
    """Canonical string form, ``"p/q"`` or ``"p"``; round-trips exactly within the digit limit.

    ``str`` refuses an integer past ``sys.get_int_max_str_digits()``; ``Decimal`` prints any.
    """
    try:
        return str(value)
    except ValueError:
        numerator, denominator = value.as_integer_ratio()
        text = str(Decimal(numerator))
        return text if denominator == 1 else f"{text}/{Decimal(denominator)}"


def _rational(value: object) -> Fraction:
    """``value`` itself if its type is exactly ``Fraction``, else ``parse_rational(value)``."""
    return value if type(value) is Fraction else parse_rational(value)


def _rational_tuple(values: Iterable[object]) -> tuple[Fraction, ...]:
    """``_rational`` of each value, inline: a ``Fraction`` costs no call."""
    return tuple(v if type(v) is Fraction else parse_rational(v) for v in values)


@dataclass(frozen=True)
class InitialAction:
    name: str
    cost: Fraction
    transition: tuple[Fraction, ...]  # probability of each state, length S

    def __post_init__(self):
        object.__setattr__(self, "cost", _rational(self.cost))
        object.__setattr__(self, "transition", _rational_tuple(self.transition))


@dataclass(frozen=True)
class FinalAction:
    name: str
    cost: Fraction
    outcome_dist: tuple[Fraction, ...]  # probability of each outcome, length M

    def __post_init__(self):
        object.__setattr__(self, "cost", _rational(self.cost))
        object.__setattr__(self, "outcome_dist", _rational_tuple(self.outcome_dist))


@dataclass(frozen=True)
class State:
    name: str
    final_actions: tuple[FinalAction, ...]

    def __post_init__(self):
        object.__setattr__(self, "final_actions", tuple(self.final_actions))


@dataclass(frozen=True)
class Instance:
    """A two-stage delegation process.

    ``rewards[m]`` is the principal's reward for outcome m.  Rewards may be
    any rational; probabilities and costs are constrained by ``validate``.
    """

    rewards: tuple[Fraction, ...]
    initial_actions: tuple[InitialAction, ...]
    states: tuple[State, ...]

    def __post_init__(self):
        object.__setattr__(self, "rewards", _rational_tuple(self.rewards))
        object.__setattr__(self, "initial_actions", tuple(self.initial_actions))
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def num_outcomes(self) -> int:
        return len(self.rewards)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_initial_actions(self) -> int:
        return len(self.initial_actions)

    @property
    def max_final_actions(self) -> int:
        return max((len(s.final_actions) for s in self.states), default=0)


@dataclass(frozen=True)
class ActionProfile:
    """One initial action plus one final action per (surviving) state.

    ``finals`` maps state index -> final-action index.  It is total for
    standard, linear and pay-halfway contracts; for terminate-halfway
    contracts it is defined exactly on the states that are not terminated.
    """

    initial: int
    finals: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "finals", dict(self.finals))


# --- contracts ---------------------------------------------------------------


@dataclass(frozen=True)
class StandardContract:
    """Non-negative transfer per final outcome."""

    transfers: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "transfers", _rational_tuple(self.transfers))
        if any(t < 0 for t in self.transfers):
            raise ValueError("transfers must be non-negative")


@dataclass(frozen=True)
class LinearContract:
    """Standard contract with transfer alpha * reward per outcome.

    Only meaningful on instances whose rewards are all non-negative;
    operations taking an instance enforce that.
    """

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", _rational(self.alpha))
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class PayHalfwayContract:
    """Outcome transfers plus a non-negative transfer per intermediate state."""

    state_transfers: tuple[Fraction, ...]
    transfers: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "state_transfers", _rational_tuple(self.state_transfers))
        object.__setattr__(self, "transfers", _rational_tuple(self.transfers))
        if any(t < 0 for t in self.state_transfers) or any(t < 0 for t in self.transfers):
            raise ValueError("transfers must be non-negative")


@dataclass(frozen=True)
class TerminateHalfwayContract:
    """Outcome transfers plus a set of states at which the process ends.

    Reaching a terminated state gives both parties zero payoff.
    """

    transfers: tuple[Fraction, ...]
    terminate_set: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "transfers", _rational_tuple(self.transfers))
        object.__setattr__(self, "terminate_set", _terminate_set(self.terminate_set))
        if any(t < 0 for t in self.transfers):
            raise ValueError("transfers must be non-negative")


Contract = Union[StandardContract, LinearContract, PayHalfwayContract, TerminateHalfwayContract]


def _is_index(value: object) -> bool:
    """The rule for every index a caller supplies: an int or a numpy integer,
    which ``operator.index`` reads, and not a bool."""
    return hasattr(type(value), "__index__") and not isinstance(value, bool)


def _integer(name: str, value: object) -> int:
    """``operator.index(value)``; ``ValueError`` naming ``name`` unless ``value`` passes ``_is_index``."""
    if not _is_index(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return index(value)


def _terminate_set(entries: Iterable[object]) -> frozenset[int]:
    """The entries as ints; ``ValueError`` unless each passes ``_is_index``."""
    entries = tuple(entries)
    if not all(map(_is_index, entries)):
        raise ValueError("terminate_set must contain state indices")
    return frozenset(map(index, entries))


# --- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    location: str
    rule: str

    def __str__(self) -> str:
        return f"{self.location}: {self.rule}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_distribution(numerators: Sequence[int], denominator: int, location: str, out: list[Violation]) -> None:
    if any(n < 0 or n > denominator for n in numerators):
        out.append(Violation(location, "distribution entries must lie in [0, 1]"))
    if sum(numerators) != denominator:
        out.append(Violation(location, "distribution does not sum to 1"))


def cached(instance: Instance, name: str, build):
    """``build(instance)``, built on first use and kept in ``vars(instance)[name]``: out of
    equality, hashing, repr and JSON, and not copied by ``dataclasses.replace``.  Builds
    racing in two threads give equal values; the first stays."""
    kept = vars(instance)
    value = kept.get(name)
    if value is None:
        value = kept.setdefault(name, build(instance))
    return value


def validate(instance: Instance) -> ValidationReport:
    """Check every model invariant; violations are data, not exceptions.  Kept on the instance."""
    return cached(instance, "_validation", _validate)


def require_valid(instance: Instance) -> None:
    """Raise ``ValueError("invalid instance: <first violation>")`` unless ``validate`` passes."""
    report = validate(instance)
    if not report.ok:
        raise ValueError(f"invalid instance: {report.violations[0]}")


def _validate(instance: Instance) -> ValidationReport:
    v: list[Violation] = []
    view = _view(instance)
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
        if act.cost.numerator < 0:
            v.append(Violation(loc + ".cost", "cost must be non-negative"))
        if len(act.transition) != s:
            v.append(Violation(loc + ".transition", f"expected {s} entries, got {len(act.transition)}"))
        else:
            _check_distribution(view.transitions[i], view.initial_scale, loc + ".transition", v)
    if instance.initial_actions and all(a.cost.numerator for a in instance.initial_actions):
        v.append(Violation("initial_actions", "missing null initial action (zero cost)"))

    for si, state in enumerate(instance.states):
        loc = f"states[{si}]"
        if not state.final_actions:
            v.append(Violation(loc, "state has no final actions"))
            continue
        for j, act in enumerate(state.final_actions):
            aloc = f"{loc}.final_actions[{j}]"
            if act.cost.numerator < 0:
                v.append(Violation(aloc + ".cost", "cost must be non-negative"))
            if len(act.outcome_dist) != m:
                v.append(Violation(aloc + ".outcome_dist", f"expected {m} entries, got {len(act.outcome_dist)}"))
            else:
                _check_distribution(view.outcome_dists[si][j], view.state_scales[si], aloc + ".outcome_dist", v)
        if all(a.cost.numerator for a in state.final_actions):
            v.append(Violation(loc, "missing null final action (zero cost)"))

    return ValidationReport(tuple(v))


# --- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ProcessClass:
    """Structural flags of a process; non-exclusive, recomputable from the instance."""

    is_tree: bool
    is_stochastic_first_stage: bool
    is_deterministic_first_stage: bool

    @property
    def label(self) -> str:
        names = []
        if self.is_tree:
            names.append("tree")
        if self.is_stochastic_first_stage:
            names.append("stochastic_first_stage")
        if self.is_deterministic_first_stage:
            names.append("deterministic_first_stage")
        return ",".join(names) if names else "general"


def classify(instance: Instance) -> ProcessClass:
    """Classify by the reachability structure of states and outcomes.

    * tree: each outcome (each entry index, even past ``rewards``) is
      reachable from at most one state;
    * stochastic first stage: exactly one initial action;
    * deterministic first stage: every transition row is a unit vector.
    """
    view, first_state = _view(instance), {}  # first_state[m]: the first state reaching outcome m
    is_tree = all(
        first_state.setdefault(m, s) == s
        for s, dists in enumerate(view.outcome_dists) for dist in dists for m, n in enumerate(dist) if n > 0
    )
    one = view.initial_scale
    is_deterministic = all(row.count(one) == 1 and row.count(0) == len(row) - 1 for row in view.transitions)
    return ProcessClass(is_tree, instance.num_initial_actions == 1, is_deterministic)


def scale(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(numerators, denominator)`` with ``values[k] == numerators[k] / denominator``.

    The denominator is the least common one.  ``dot`` takes its vectors in
    this form, so a caller that takes many expectations of one value vector
    scales it once.
    """
    pairs = [v.as_integer_ratio() for v in values]
    denominator = lcm(*[d for _, d in pairs])
    return [n and n * (denominator // d) for n, d in pairs], denominator  # zeros skip the division


def dot(weights: tuple[Sequence[int], int], values: tuple[Sequence[int], int]) -> Fraction:
    """Sum of w * v, each given as integers over one denominator: one integer dot product, reduced once."""
    return Fraction(sum(map(mul, weights[0], values[0])), weights[1] * values[1])


class _Integers:
    """An instance's numbers as ``scale`` integers, each group over its least denominator:
    ``rewards``; ``transitions[i]`` and ``initial_costs[i]`` over ``initial_scale``; and at
    state ``s``, ``outcome_dists[s][j]`` and ``final_costs[s][j]`` over ``state_scales[s]``.
    Converted from any instance, valid or not, and kept on it by ``_view``."""

    __slots__ = ("rewards", "transitions", "initial_costs", "initial_scale", "outcome_dists", "final_costs", "state_scales")

    def __init__(self, instance: Instance):
        self.rewards = scale(instance.rewards)
        actions = instance.initial_actions
        self.transitions, self.initial_costs, self.initial_scale = _scaled(actions, [a.transition for a in actions])
        groups = [_scaled(state.final_actions, [a.outcome_dist for a in state.final_actions]) for state in instance.states]
        self.outcome_dists, self.final_costs, self.state_scales = zip(*groups) if groups else ((), (), ())


def _scaled(actions, vectors):
    """``(vectors, costs, denominator)``: the vectors and the actions' costs over their least denominator."""
    numerators, denominator = scale([*(a.cost for a in actions), *(v for vector in vectors for v in vector)])
    rest = iter(numerators[len(actions) :])
    return [list(islice(rest, len(vector))) for vector in vectors], numerators[: len(actions)], denominator


def _view(instance: Instance) -> _Integers:
    """The instance's ``_Integers``, built on first use and kept; unchecked."""
    return cached(instance, "_integers", _Integers)


def integers(instance: Instance) -> _Integers:
    """The instance's ``_Integers`` for a computing layer: ``require_valid``, then ``_view``."""
    require_valid(instance)
    return _view(instance)


def _mixture(view: _Integers, finals: Mapping[int, int], m: int):
    """The outcome mixture of ``finals[s]`` at each state ``s`` that ``finals`` names: the
    function from integer state weights ``w`` over ``view.initial_scale`` to ``(outcomes,
    cost, common)``, sum_s w_s * P[s, finals[s]] (``m`` entries) and sum_s w_s * c[s,
    finals[s]], each over ``initial_scale * common``, ``common`` the lcm of the scales of
    the named states that ``w`` reaches.  The designated rows are transposed once."""
    named = sorted(finals)
    scales = view.state_scales
    columns = list(zip(*[view.outcome_dists[s][finals[s]] for s in named])) or [()] * m
    costs = [view.final_costs[s][finals[s]] for s in named]

    def mixture(weights):
        common = lcm(*[scales[s] for s in named if weights[s]])
        w = [weights[s] * (common // scales[s]) for s in named]
        return [sum(map(mul, w, column)) for column in columns], sum(map(mul, w, costs)), common

    return mixture


def _check_state(instance: Instance, state: int) -> None:
    """Raise ``ValueError`` for a state index that fails ``_is_index`` or lies
    outside the instance; indexing would wrap a negative one."""
    if not 0 <= _integer("state index", state) < instance.num_states:
        raise ValueError(f"state index {state} is out of range")


def _check_final(instance: Instance, state: int, final: int) -> None:
    """Raise ``ValueError`` for a final action index that fails ``_is_index``
    or lies outside the finals of the (in-range) state."""
    if not 0 <= _integer("final action index", final) < len(instance.states[state].final_actions):
        raise ValueError(f"final action index {final} at state {state} is out of range")


def expected_state_reward(instance: Instance, state: int, final: int) -> Fraction:
    """Expected reward of taking the given final action at the given state."""
    _check_state(instance, state)
    _check_final(instance, state, final)
    view = integers(instance)
    return dot((view.outcome_dists[state][final], view.state_scales[state]), view.rewards)


# --- serialization ------------------------------------------------------------


def instance_to_dict(instance: Instance) -> dict:
    return {
        "rewards": [format_rational(r) for r in instance.rewards],
        "initial_actions": [
            {
                "name": a.name,
                "cost": format_rational(a.cost),
                "transition": [format_rational(p) for p in a.transition],
            }
            for a in instance.initial_actions
        ],
        "states": [
            {
                "name": s.name,
                "final_actions": [
                    {
                        "name": a.name,
                        "cost": format_rational(a.cost),
                        "outcome_dist": [format_rational(p) for p in a.outcome_dist],
                    }
                    for a in s.final_actions
                ],
            }
            for s in instance.states
        ],
    }


def _array(doc: dict, key: str, where: str = "") -> list:
    """``doc[key]``, which the format requires to be a JSON array."""
    value = doc[key]
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where}{key} must be a JSON array, not {_shown(value)}")
    return value


def _name(doc: dict, default: str, where: str) -> str:
    """``doc["name"]``, which the format requires to be a JSON string, or ``default`` if absent."""
    name = doc.get("name", default)
    if not isinstance(name, str):
        raise InstanceFormatError(f"{where}name must be a JSON string, not {_shown(name)}")
    return name


def _rationals(doc: dict, key: str, where: str = "", read=parse_rational) -> list[Fraction]:
    return [read(v) for v in _array(doc, key, where)]


def instance_from_dict(doc: object) -> Instance:
    """The instance a document describes.  Each distinct rational string is
    read once per call: most values of a document repeat (0, 1, a few costs
    and probabilities), and ``parse_rational`` of a string depends only on
    the string.  Only values whose type is exactly ``str`` are kept, so a
    bool never meets the cached 1, and a value that cannot be a dict key
    still gets ``parse_rational``'s error."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    read = {}

    def rational(value):
        if type(value) is not str:
            return parse_rational(value)
        number = read.get(value)
        if number is None:
            number = read[value] = parse_rational(value)
        return number

    try:
        rewards = _rationals(doc, "rewards", read=rational)
        initials = [
            InitialAction(
                name=_name(a, f"i{idx}", f"initial_actions[{idx}]."),
                cost=rational(a["cost"]),
                transition=_rationals(a, "transition", f"initial_actions[{idx}].", rational),
            )
            for idx, a in enumerate(_array(doc, "initial_actions"))
        ]
        states = [
            State(
                name=_name(s, f"s{idx}", f"states[{idx}]."),
                final_actions=tuple(
                    FinalAction(
                        name=_name(a, f"j{jdx}", f"states[{idx}].final_actions[{jdx}]."),
                        cost=rational(a["cost"]),
                        outcome_dist=_rationals(
                            a, "outcome_dist", f"states[{idx}].final_actions[{jdx}].", rational
                        ),
                    )
                    for jdx, a in enumerate(_array(s, "final_actions", f"states[{idx}]."))
                ),
            )
            for idx, s in enumerate(_array(doc, "states"))
        ]
    except (KeyError, TypeError, AttributeError) as exc:
        raise InstanceFormatError(f"malformed instance document: {exc!r}") from exc
    return Instance(tuple(rewards), tuple(initials), tuple(states))


def instance_to_json(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)


def _json(text: str) -> object:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, an over-long integer, or too deep
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc


def instance_from_json(text: str) -> Instance:
    return instance_from_dict(_json(text))


def contract_to_dict(contract: Contract, rational=format_rational) -> dict:
    """The contract-file document, each rational written by ``rational``."""
    if isinstance(contract, StandardContract):
        return {"kind": "standard", "t": [rational(t) for t in contract.transfers]}
    if isinstance(contract, LinearContract):
        return {"kind": "linear", "alpha": rational(contract.alpha)}
    if isinstance(contract, PayHalfwayContract):
        return {
            "kind": "pay_halfway",
            "s": [rational(t) for t in contract.state_transfers],
            "t": [rational(t) for t in contract.transfers],
        }
    if isinstance(contract, TerminateHalfwayContract):
        return {
            "kind": "terminate_halfway",
            "t": [rational(t) for t in contract.transfers],
            "terminate_set": sorted(contract.terminate_set),
        }
    raise TypeError(f"not a contract: {contract!r}")


def contract_from_dict(doc: object) -> Contract:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InstanceFormatError("contract document must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "standard":
            return StandardContract(_rationals(doc, "t"))
        if kind == "linear":
            return LinearContract(parse_rational(doc["alpha"]))
        if kind == "pay_halfway":
            return PayHalfwayContract(_rationals(doc, "s"), _rationals(doc, "t"))
        if kind == "terminate_halfway":
            return TerminateHalfwayContract(_rationals(doc, "t"), _array(doc, "terminate_set"))
    except (KeyError, TypeError, AttributeError) as exc:
        raise InstanceFormatError(f"malformed contract document: {exc!r}") from exc
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    raise InstanceFormatError(f"unknown contract kind: {kind!r}")


def contract_to_json(contract: Contract) -> str:
    return json.dumps(contract_to_dict(contract), indent=2, sort_keys=True)


def contract_from_json(text: str) -> Contract:
    return contract_from_dict(_json(text))
