"""Answer checks for the benchmark's command outputs.

Only answer fields are compared (contract, profile, payment, profit,
welfare), never whole documents, so counters such as
``profiles_enumerated`` or ``duration_seconds`` may change freely.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from twostage.agent import best_response, evaluate_profile
from twostage.model import (
    ActionProfile,
    LinearContract,
    contract_from_json,
    expected_state_reward,
    instance_from_json,
)
from twostage.welfare import profile_cost, profile_reward

KINDS = ("standard", "linear", "pay", "terminate")

# Exact optima of the separation instances at the commit that added the
# benchmark.  They include the values the test suite pins (interim_review
# standard 6/5 and terminate 19/10, payment_gap standard = terminate = 18)
# and the family properties: cost_ladder(3,3) pay = terminate = welfare = 13
# and state_markers(3,2) terminate = welfare = 18/7.
SEPARATION_OPTIMA = {
    "midterm": {"standard": "91/36", "linear": "91/36", "pay": "11/4", "terminate": "27/10", "welfare": "29/10"},
    "interim_review": {"standard": "6/5", "linear": "6/5", "pay": "191/100", "terminate": "19/10", "welfare": "2"},
    "payment_gap": {"standard": "18", "linear": "18", "pay": "93/5", "terminate": "18", "welfare": "39/2"},
    "cost_ladder": {"standard": "4", "linear": "4", "pay": "13", "terminate": "13", "welfare": "13"},
    "state_markers": {
        "standard": "12233347/11111117",
        "linear": "12233347/11111117",
        "pay": "12233347/11111117",
        "terminate": "18/7",
        "welfare": "18/7",
    },
}

SIMULATE_STD_ERRORS = 4


class CheckFailed(Exception):
    pass


def exact_values(node):
    """Replace every ``{"exact": ..., "decimal": ...}`` pair by its exact string."""
    if isinstance(node, dict):
        if set(node) == {"exact", "decimal"}:
            return node["exact"]
        return {key: exact_values(value) for key, value in node.items()}
    if isinstance(node, list):
        return [exact_values(value) for value in node]
    return node


def compare_answers(doc: dict) -> dict:
    """The answer fields of a ``compare`` document."""
    results = doc["results"]
    return {
        "welfare": exact_values(doc["welfare"]),
        **{
            kind: {
                field: exact_values(results[kind][field])
                for field in ("contract", "profile", "payment", "profit")
            }
            for kind in KINDS
        },
    }


def differences(actual, expected, path="") -> list[str]:
    """Paths at which two answer trees differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual or key not in expected:
                out.append(f"{path}/{key}")
            else:
                out.extend(differences(actual[key], expected[key], f"{path}/{key}"))
        return out
    return [] if actual == expected else [f"{path or '/'}: {actual!r} != {expected!r}"]


def canonical_digest(text: str) -> str:
    """Digest of a JSON document that ignores its formatting."""
    canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _profile(doc) -> ActionProfile:
    return ActionProfile(doc["initial"], {int(s): j for s, j in doc["finals"].items()})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Checker:
    """Checks the outputs of one workload's command list.

    ``pins`` maps a command index to ``{"input": digest, "answers": fields}``
    for ``compare`` commands whose exact answers are known.
    """

    def __init__(self, inputs: Path, commands: list[list[str]], pins: dict | None = None):
        self.inputs = inputs
        self.commands = commands
        self.pins = pins or {}
        self._parsed = {}

    def _load(self, name, parse):
        key = (name, parse)
        if key not in self._parsed:
            self._parsed[key] = parse((self.inputs / name).read_text(encoding="utf-8"))
        return self._parsed[key]

    def check(self, index: int, code, stdout: str) -> str | None:
        """None when the output is right, else why it is not."""
        argv = self.commands[index]
        if isinstance(code, str):  # the command raised
            return code
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(stdout)
            getattr(self, "_" + argv[0].replace("-", "_"))(index, argv, doc)
        except CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"
        return None

    def _compare(self, index, argv, doc):
        answers = compare_answers(doc)
        profit = {kind: Fraction(answers[kind]["profit"]) for kind in KINDS}
        welfare = Fraction(answers["welfare"])
        _require(profit["linear"] <= profit["standard"] <= profit["pay"], f"linear <= standard <= pay fails: {profit}")
        _require(profit["standard"] <= profit["terminate"], f"standard <= terminate fails: {profit}")
        _require(all(p <= welfare for p in profit.values()), f"a profit exceeds welfare {welfare}: {profit}")

        family = Path(argv[1]).stem
        if family in SEPARATION_OPTIMA:
            got = {**{kind: answers[kind]["profit"] for kind in KINDS}, "welfare": answers["welfare"]}
            _require(got == SEPARATION_OPTIMA[family], f"{family} optima {got} != {SEPARATION_OPTIMA[family]}")

        pin = self.pins.get(index)
        if pin is not None:
            digest = self._load(argv[1], canonical_digest)
            _require(digest == pin["input"], f"{argv[1]} is not the pinned input; pins need regenerating")
            diff = differences(answers, pin["answers"])
            _require(not diff, f"answers differ from the pinned ones at {diff[:3]}")

    def _best_response(self, index, argv, doc):
        instance = self._load(argv[1], instance_from_json)
        contract = self._load(argv[3], contract_from_json)
        again = evaluate_profile(instance, contract, _profile(doc["profile"]))
        got = (
            Fraction(doc["agent_utility"]["exact"]),
            Fraction(doc["expected_payment"]["exact"]),
            Fraction(doc["principal_profit"]["exact"]),
        )
        want = (again.agent_utility, again.expected_payment, again.principal_profit)
        _require(got == want, f"(utility, payment, profit) {got} != evaluate_profile {want}")

    def _welfare(self, index, argv, doc):
        instance = self._load(argv[1], instance_from_json)
        profile = _profile(doc["argmax_profile"])
        value = Fraction(doc["max_welfare"]["exact"])
        again = profile_reward(instance, profile) - profile_cost(instance, profile)
        _require(value == again, f"max_welfare {value} != welfare {again} of its argmax profile")
        for s, state in enumerate(instance.states):
            best = max(expected_state_reward(instance, s, j) - a.cost for j, a in enumerate(state.final_actions))
            stated = Fraction(doc["per_state_best"][s]["value"]["exact"])
            _require(stated == best, f"state {s} best surplus {stated} != {best}")

    def _breakpoints(self, index, argv, doc):
        instance = self._load(argv[1], instance_from_json)
        alpha = Fraction(doc["optimal"]["alpha"]["exact"])
        profit = Fraction(doc["optimal"]["profit"]["exact"])
        realized = best_response(instance, LinearContract(alpha)).principal_profit
        _require(profit == realized, f"optimal profit {profit} != {realized} realized at alpha {alpha}")
        alphas = [Fraction(bp["alpha"]["exact"]) for bp in doc["breakpoints"]]
        _require(alphas == sorted(set(alphas)) and all(0 < a < 1 for a in alphas), "breakpoints not increasing in (0, 1)")
        for candidate in {Fraction(0), Fraction(1), *alphas}:
            other = best_response(instance, LinearContract(candidate)).principal_profit
            _require(other <= profit, f"alpha {candidate} earns {other} > optimal {profit}")

    def _simulate(self, index, argv, doc):
        instance = self._load(argv[1], instance_from_json)
        contract = self._load(argv[3], contract_from_json)
        exact = float(best_response(instance, contract).principal_profit)
        empirical = doc["empirical_profit"]
        band = SIMULATE_STD_ERRORS * doc["std_error"] + 1e-9 * max(1.0, abs(exact))
        _require(math.isfinite(empirical) and abs(empirical - exact) <= band,
                 f"simulated profit {empirical} is not within {band} of {exact}")
