"""Generate one workload's input files and command list, and time it.

Run by ``run.py`` in a fresh interpreter, so that the measured set-up time
includes importing ``twostage``:

    python3 bench/inputs.py <workload> <seed> <out-dir>

Writes the instance and contract files under ``<out-dir>/inputs/`` and the
command list to ``<out-dir>/commands.json``, then prints one JSON line with
``setup_s`` (import, generation, serialization and writes), ``generate_s``
(time inside the generator functions alone), the ``speed`` sampled while they
ran (see ``speed.py``; both times are unscaled) and a digest of everything
written.  The seed is the only source of randomness: random_mix and
evaluate regenerate the instances listed in ``<out-dir>/draws.json``, which
``run.py`` chooses from the seed with ``DRAWS`` before the set-up.
"""

if __name__ == "__main__":  # start timing before ``twostage`` is imported
    from speed import SpeedSampler

    _SAMPLER = SpeedSampler().__enter__()
    _STARTED = _SAMPLER.now()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twostage.generators import FamilyParams, generate, random_instance  # noqa: E402
from twostage.linear import state_breakpoints  # noqa: E402
from twostage.model import (  # noqa: E402
    LinearContract,
    PayHalfwayContract,
    StandardContract,
    TerminateHalfwayContract,
    contract_to_json,
    instance_to_json,
)

KINDS = ("tree", "stochastic_first_stage", "deterministic_first_stage", "general")

# The paper's separation families; none depends on the seed.
SEPARATION = (
    ("midterm", {}),
    ("interim_review", {}),
    ("payment_gap", {"p": "9/10", "q": "1/2", "c": "1", "x": "20"}),
    ("cost_ladder", {"n1": 3, "n2": 3}),
    ("state_markers", {"s": 3, "n2": 2}),
)

RANDOM_MIX_INSTANCES = 200
# Candidates drawn per process class at least: the stream of draws, and so
# the chosen instances, stay those that expected/random_mix-0.json was made from.
RANDOM_MIX_POOL = 3000
DRAWS_FILE = "draws.json"  # the workload's DRAWS(seed), written before the set-up
# Size caps of the evaluate instances: too big to optimize, cheap to evaluate.
EVALUATE_CAPS = {"max_states": 10, "max_initial_actions": 5, "max_final_actions": 8, "max_outcomes": 8}
EVALUATE_INSTANCES = 600
EVALUATE_CANDIDATES = 4  # seeded draws per evaluate instance; see evaluate_draws
EVALUATE_WELFARE_EVERY = 6  # one welfare command per this many instances
# Breakpoints on every second instance: its times fill most of the tail, and
# fewer of them left cmd_p95_ms resting on a handful of seed-drawn sizes.
EVALUATE_BREAKPOINTS_EVERY = 2
EVALUATE_SIMULATIONS = 8
SIMULATE_EPISODES = 100_000


class _Timer:
    """Sums the time spent inside generator calls, on the given clock."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        started = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += self.clock() - started


def shape(instance) -> tuple:
    """The sizes that set how much work ``compare`` does on an instance."""
    return (
        instance.num_states,
        instance.num_initial_actions,
        tuple(sorted(len(state.final_actions) for state in instance.states)),
        instance.num_outcomes,
    )


def _separation(timer):
    files = {}
    commands = []
    for family, params in SEPARATION:
        files[f"{family}.json"] = instance_to_json(timer(generate, FamilyParams(family, params)))
        commands.append(["compare", f"{family}.json"])
    return files, commands


def random_mix_draws(seed: int) -> list[list]:
    """The ``[process class, instance seed]`` of each random_mix instance.

    The mix of shapes comes from one fixed reference draw at the default
    caps; the seed draws the contents.  Without this the luck of a few
    300-program instances moves a pass by a third from seed to seed.  The
    choice discards thousands of candidates, so ``run.py`` makes it once,
    untimed, and the set-up regenerates only the chosen instances.
    """
    reference = random.Random("random_mix-shapes")
    wanted = {}
    for k in range(RANDOM_MIX_INSTANCES):
        kind = KINDS[k % len(KINDS)]
        key = (kind, shape(random_instance(kind, seed=reference.randrange(2**31))))
        wanted[key] = wanted.get(key, 0) + 1

    rng = random.Random(f"random_mix:{seed}")
    draws = []
    for kind in KINDS:
        need = {key[1]: count for key, count in sorted(wanted.items()) if key[0] == kind}
        drawn = 0
        while need or drawn < RANDOM_MIX_POOL:
            drawn += 1
            instance_seed = rng.randrange(2**31)
            key = shape(random_instance(kind, seed=instance_seed))
            if key not in need:
                continue
            need[key] -= 1
            if not need[key]:
                del need[key]
            draws.append([kind, instance_seed])
    return draws


def _random_mix(draws, timer):
    files = {}
    commands = []
    for kind, instance_seed in draws:
        name = f"{kind}-{len(files):03d}.json"
        files[name] = instance_to_json(timer(random_instance, kind, seed=instance_seed))
        commands.append(["compare", name])
    return files, commands


def _rational(rng, numerator_max=20):
    return Fraction(rng.randint(0, numerator_max), rng.choice((1, 2, 3, 4)))


CONTRACT_KINDS = ("standard", "linear", "pay_halfway", "terminate_halfway")


def random_contract(rng, instance, kind):
    """A contract of the given kind that fits the instance's dimensions."""
    transfers = tuple(_rational(rng) for _ in range(instance.num_outcomes))
    if kind == "standard":
        return StandardContract(transfers)
    if kind == "linear":
        return LinearContract(Fraction(rng.randint(0, 20), 20))
    if kind == "pay_halfway":
        return PayHalfwayContract(tuple(_rational(rng, 8) for _ in range(instance.num_states)), transfers)
    terminated = frozenset(s for s in range(instance.num_states) if rng.random() < 0.25)
    return TerminateHalfwayContract(transfers, terminated)


def _has_breakpoints(k: int) -> bool:
    return k % EVALUATE_BREAKPOINTS_EVERY == 1


def _evaluate_size(k: int, kind: str, instance_seed: int) -> int:
    """What a pass's time on evaluate instance ``k`` follows: the length of
    its JSON text, times one more than its breakpoint count if it gets a
    ``breakpoints`` command (that count sets how many best responses
    ``analyze`` computes)."""
    instance = random_instance(kind, seed=instance_seed, **EVALUATE_CAPS)
    size = len(instance_to_json(instance))
    if _has_breakpoints(k):
        size *= 1 + sum(len(state_breakpoints(instance, s)) for s in range(instance.num_states))
    return size


def evaluate_draws(seed: int) -> list[list]:
    """The ``[process class, instance seed]`` of each evaluate instance.

    Each is the one of ``EVALUATE_CANDIDATES`` seeded draws whose
    ``_evaluate_size`` is nearest to that of a fixed reference draw, so the
    work follows the reference and the seed draws the contents.  With sizes
    left to the seed, ``wall_s`` moved by a tenth from seed to seed and
    ``cmd_p95_ms`` (mostly ``breakpoints`` commands) by more.
    """
    reference = random.Random("evaluate-sizes")
    rng = random.Random(f"evaluate:{seed}")
    draws = []
    for k in range(EVALUATE_INSTANCES):
        kind = KINDS[k % len(KINDS)]
        target = _evaluate_size(k, kind, reference.randrange(2**31))
        candidates = [rng.randrange(2**31) for _ in range(EVALUATE_CANDIDATES)]
        draws.append([kind, min(candidates, key=lambda c: abs(_evaluate_size(k, kind, c) - target))])
    return draws


def _evaluate(seed, draws, timer):
    rng = random.Random(f"evaluate-contracts:{seed}")
    files = {}
    commands = []
    for k, (kind, instance_seed) in enumerate(draws):
        instance = timer(random_instance, kind, seed=instance_seed, **EVALUATE_CAPS)
        name = f"{kind}-{k:03d}.json"
        contract_name = f"{kind}-{k:03d}.contract.json"
        contract_kind = CONTRACT_KINDS[(k // len(KINDS)) % len(CONTRACT_KINDS)]
        files[name] = instance_to_json(instance)
        files[contract_name] = contract_to_json(random_contract(rng, instance, contract_kind))
        commands.append(["best-response", name, "--contract-file", contract_name])
        if k % EVALUATE_WELFARE_EVERY == 0:
            commands.append(["welfare", name])
        if _has_breakpoints(k):
            commands.append(["breakpoints", name])
        if k < EVALUATE_SIMULATIONS:
            commands.append(
                ["simulate", name, "--contract-file", contract_name,
                 "--episodes", str(SIMULATE_EPISODES), "--seed", str(rng.randrange(2**31))]
            )
    return files, commands


# Workloads whose instances are chosen from the seed before the set-up.
DRAWS = {"random_mix": random_mix_draws, "evaluate": evaluate_draws}


def write_inputs(workload: str, seed: int, out: Path, clock=time.perf_counter) -> dict:
    timer = _Timer(clock)
    if workload == "separation":
        files, commands = _separation(timer)
    else:
        draws = json.loads((out / DRAWS_FILE).read_text(encoding="utf-8"))
        if workload == "random_mix":
            files, commands = _random_mix(draws, timer)
        else:
            files, commands = _evaluate(seed, draws, timer)
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name, text in sorted(files.items()):
        (inputs / name).write_text(text + "\n", encoding="utf-8")
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    listing = json.dumps({"workload": workload, "seed": seed, "commands": commands}, indent=1)
    (out / "commands.json").write_text(listing + "\n", encoding="utf-8")
    digest.update(listing.encode())
    return {"generate_s": timer.seconds, "inputs_sha256": digest.hexdigest(), "commands": len(commands)}


if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    report = write_inputs(workload, seed, out, _SAMPLER.now)
    report["setup_s"] = _SAMPLER.now() - _STARTED
    _SAMPLER.__exit__(None, None, None)
    report["speed"] = _SAMPLER.speed()
    print(json.dumps(report))
