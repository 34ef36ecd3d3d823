"""Benchmark of the twostage command line.

    python3 bench/run.py --workload separation|random_mix|evaluate \
        --seed N --seconds S --trace 0|1

Builds the workload's input files from the seed in fresh interpreters (the
set-up, timed), then drives ``twostage.cli.main(argv)`` in this process one
command at a time: a closed loop with one client, no threads.  Passes over
the command list repeat until the measured time is as near to ``--seconds``
as whole passes allow (there is always one), and every output of every pass
is checked (see ``checks.py``).  With ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics come from the traced ones.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment and how each figure was taken.
``README.md`` beside this file says why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("separation", "random_mix", "evaluate")
SEED_FREE = ("separation",)  # workloads whose inputs do not depend on the seed
# Set-ups run at least SETUP_RUNS times and until SETUP_SECONDS have gone: a
# set-up of a tenth of a second varies by a quarter from one run to the next,
# so the short ones need more runs for a steady median.
SETUP_RUNS = 5
SETUP_SECONDS = 6.0
TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it
LOCAL_SAMPLES = 5  # calibrations a command needs to be scaled by its own speed

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.s", "s"),
    ("lp.solve_lp.p50_us", "us"),
    ("lp.solve_lp.p99_us", "us"),
    ("lp.rows_max", "count"),
    ("lp.cols_max", "count"),
    ("lp.io_bits_max", "bits"),
    ("contracts.programs", "count"),
    ("contracts.programs_infeasible_frac", "ratio"),
    ("contracts.termination_sets", "count"),
    ("contracts.optimal_standard.self_s", "s"),
    ("contracts.optimal_pay.self_s", "s"),
    ("contracts.optimal_terminate.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("model.parse_s", "s"),
    ("model.validate_s", "s"),
    ("model.classify_s", "s"),
    ("welfare.max_welfare.calls", "count"),
    ("welfare.max_welfare.s", "s"),
    ("agent.best_response.calls", "count"),
    ("agent.best_response.s", "s"),
    ("agent.simulate.s", "s"),
    ("agent.simulate.episodes_per_s", "1/s"),
    ("linear.analyze.calls", "count"),
    ("linear.analyze.s", "s"),
    ("linear.breakpoints", "count"),
    ("generators.generate_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def harrell_davis(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile: a Beta-weighted mean
    of the order statistics, steadier than any single one of them when few
    samples lie in the tail."""
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule inside each order statistic's interval
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            total += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(total / (steps * n))
    # The density is unbounded at an end where its parameter is below 1; the
    # weights sum to exactly 1, so that end's weight is what the rest leave.
    if b < 1 <= a:
        weights[-1] = max(0.0, 1 - sum(weights[:-1]))
    elif a < 1 <= b:
        weights[0] = max(0.0, 1 - sum(weights[1:]))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(samples, q: float, beyond: int = TAIL_SAMPLES):
    """The ``q``-th percentile, lowered until ``beyond`` samples lie above it.

    Returns ``(percentile used, Harrell-Davis estimate, samples above its
    nearest rank)``.  With ``beyond`` or fewer samples no percentile
    qualifies; ``q`` is kept and the count above it says so.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n / 100))
    if n - rank < beyond < n:
        rank = n - beyond
        q = 100 * rank / n
    return q, harrell_davis(samples, q), n - rank


def _git_sha():
    if not (ROOT / ".git").exists():  # a bare checkout, or one nested in another repository
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    from twostage import lp

    scalar = lp._scalar
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "lp_scalar": f"{scalar.__module__}.{scalar.__qualname__}",
        "machine": platform.machine(),
    }


def set_up(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Generate the inputs repeatedly, each time in a fresh interpreter."""
    reports = []
    started = time.perf_counter()
    while len(reports) < SETUP_RUNS or time.perf_counter() - started < SETUP_SECONDS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{done.stderr}")
        reports.append(json.loads(done.stdout.splitlines()[-1]))
    return reports


def run_pass(cli, commands, sampler, tracer=None, first_id=0):
    """Run every command once.

    Returns (wall seconds, per-command seconds, outputs, speed).  Each
    command's time is scaled by the speed sampled while it ran, or by the
    pass's ``speed`` when it ran for fewer than ``LOCAL_SAMPLES`` samples.
    The wall time is the sum of the commands' times, without calibration.
    """
    spans = []
    outputs = []
    with sampler:
        for index, argv in enumerate(commands):
            if tracer is not None:
                tracer.command = first_id + index
            out, err = io.StringIO(), io.StringIO()
            first = len(sampler.samples)
            begun = sampler.now()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad command lines this way
                    code = exc.code
                except Exception as exc:  # a crash fails this command, not the benchmark
                    code = f"raised {exc!r}"
            spans.append((sampler.now() - begun, first, len(sampler.samples)))
            outputs.append((code, out.getvalue()))
    speed = sampler.speed()
    latencies = [
        seconds * (sampler.speed(first, last) if last - first >= LOCAL_SAMPLES else speed)
        for seconds, first, last in spans
    ]
    return sum(latencies), latencies, outputs, speed


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def layer_metrics(spans, passes: int, speed: float) -> tuple[dict, dict]:
    """Per-pass layer figures from the spans of ``passes`` traced passes,
    with times scaled by ``speed``."""
    from spans import OPTIMIZERS, self_seconds
    from twostage.lp import LpInfeasible, LpOptimal

    selfs = self_seconds(spans)
    by_name: dict[str, list] = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append((span.seconds * speed, own * speed, span))

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def total_s(name):
        return sum(seconds for seconds, _, _ in by_name.get(name, ())) / passes

    def self_s(name):
        return sum(own for _, own, _ in by_name.get(name, ())) / passes

    def spans_of(name):
        return [span for _, _, span in by_name.get(name, ())]

    lps = spans_of("lp.solve_lp")
    lp_us = [seconds * 1e6 for seconds, _, _ in by_name.get("lp.solve_lp", ())] or [0.0]
    rows = cols = bits = infeasible_lps = programs = infeasible_programs = 0
    for span in lps:
        (program,), result = span.call[0], span.call[1]
        rows = max(rows, len(program.constraints))
        cols = max(cols, program.num_variables)
        values = list(program.objective) + [c.rhs for c in program.constraints]
        for constraint in program.constraints:
            values.extend(constraint.coeffs)
        if isinstance(result, LpOptimal):
            values.extend(result.x + result.dual + (result.objective_value,))
        infeasible_lps += isinstance(result, LpInfeasible)
        bits = max(bits, _bits(values))
        # The search's programs are the LPs solved inside an optimizer's own
        # span, counted here rather than read from the program's counters.
        if span.parent >= 0 and spans[span.parent].name in OPTIMIZERS:
            programs += 1
            infeasible_programs += isinstance(result, LpInfeasible)

    reports = [span.call[1] for name in OPTIMIZERS for span in spans_of(name) if span.call[1] is not None]
    episodes = sum(span.call[0][2] for span in spans_of("agent.simulate"))
    simulate_s = total_s("agent.simulate") * passes
    analyses = [span.call[1] for span in spans_of("linear.analyze") if span.call[1] is not None]

    p50 = tail_percentile(lp_us, 50)
    p99 = tail_percentile(lp_us, 99)
    metrics = {
        "lp.solve_lp.calls": calls("lp.solve_lp"),
        "lp.solve_lp.s": total_s("lp.solve_lp"),
        "lp.solve_lp.p50_us": p50[1],
        "lp.solve_lp.p99_us": p99[1],
        "lp.rows_max": rows,
        "lp.cols_max": cols,
        "lp.io_bits_max": bits,
        "contracts.programs": programs / passes,
        "contracts.programs_infeasible_frac": infeasible_programs / programs if programs else 0.0,
        "contracts.termination_sets": sum(r.termination_sets_enumerated for r in reports) / passes,
        "contracts.optimal_standard.self_s": self_s("contracts.optimal_standard"),
        "contracts.optimal_pay.self_s": self_s("contracts.optimal_pay"),
        "contracts.optimal_terminate.self_s": self_s("contracts.optimal_terminate"),
        "cli.main.self_s": self_s("cli.main"),
        "model.parse_s": total_s("model.parse"),
        "model.validate_s": total_s("model.validate"),
        "model.classify_s": total_s("model.classify"),
        "welfare.max_welfare.calls": calls("welfare.max_welfare"),
        "welfare.max_welfare.s": total_s("welfare.max_welfare"),
        "agent.best_response.calls": calls("agent.best_response"),
        "agent.best_response.s": total_s("agent.best_response"),
        "agent.simulate.s": simulate_s / passes,
        "agent.simulate.episodes_per_s": episodes / simulate_s if simulate_s else 0.0,
        "linear.analyze.calls": calls("linear.analyze"),
        "linear.analyze.s": total_s("linear.analyze"),
        "linear.breakpoints": sum(len(a.breakpoints) for a in analyses) / passes,
    }
    details = {
        "lp_solve_lp_samples": len(lps),
        "lp_solve_lp_p99": {"percentile": p99[0], "samples_beyond": p99[2]},
        "lp_infeasible_results": infeasible_lps / passes,
        "layer_calls": {name: calls(name) for name in sorted(by_name)},
    }
    return metrics, details


def _load_pins(workload: str, seed: int):
    name = f"{workload}.json" if workload in SEED_FREE else f"{workload}-{seed}.json"
    path = BENCH / "expected" / name
    if not path.is_file():
        return path, {}
    return path, {pin["index"]: pin for pin in json.loads(path.read_text(encoding="utf-8"))["pins"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twostage" / "__init__.py").is_file():
        print(f"bench: no twostage package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import Checker
    from spans import REQUIRED, Tracer
    from twostage import cli

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    from inputs import DRAWS, DRAWS_FILE

    if args.workload in DRAWS:  # the choice of instances is not part of the set-up
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / DRAWS_FILE).write_text(json.dumps(DRAWS[args.workload](args.seed)) + "\n", encoding="utf-8")
    setups = set_up(args.workload, args.seed, workdir)
    listing = json.loads((workdir / "commands.json").read_text(encoding="utf-8"))
    inputs = workdir / "inputs"
    names = listing["commands"]
    commands = [[str(inputs / a) if a.endswith(".json") else a for a in argv] for argv in names]
    pin_path, pins = _load_pins(args.workload, args.seed)
    checker = Checker(inputs, names, pins)

    problems = []
    if len({s["inputs_sha256"] for s in setups}) != 1:
        problems.append("the same seed generated different inputs")
    attempted = failed = 0
    failures = []
    check_s = 0.0

    def check(outputs):
        nonlocal attempted, failed, check_s
        begun = time.perf_counter()
        for index, (code, stdout) in enumerate(outputs):
            attempted += 1
            why = checker.check(index, code, stdout)
            if why is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{' '.join(names[index])}: {why}")
        check_s += time.perf_counter() - begun

    sampler = SpeedSampler()
    tracer = Tracer(sampler.now_ns) if args.trace else None
    walls, traced_walls, speeds, traced_speeds = [], [], [], []
    per_command = [[] for _ in commands]
    started = time.perf_counter()
    while True:
        wall, latencies, outputs, speed = run_pass(cli, commands, sampler)
        walls.append(wall)
        speeds.append(speed)
        for samples, seconds in zip(per_command, latencies):
            samples.append(seconds)
        if len(walls) == 1:  # before the answer checks add their own memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check(outputs)
        if tracer is not None:
            tracer.install()
            try:
                wall, _, outputs, speed = run_pass(cli, commands, sampler, tracer, len(traced_walls) * len(commands))
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            traced_speeds.append(speed)
            check(outputs)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(walls) / 2 >= args.seconds:
            break  # another round would end further from the budget than stopping now

    command_ms = [statistics.median(samples) * 1e3 for samples in per_command]
    p95 = tail_percentile(command_ms, 95)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "loop": "closed, one client, in-process",
        "commands": len(commands),
        "passes": len(walls),
        "times": "scaled to the reference speed: raw time * speed",
        "pass_wall_s": walls,
        "pass_speed": speeds,
        "setup_runs_s": [s["setup_s"] * s["speed"] for s in setups],
        "setup_speed": [s["speed"] for s in setups],
        "inputs_sha256": setups[0]["inputs_sha256"],
        "cmd_latency": {
            "samples": len(command_ms),
            "per_command": "median over passes",
            "p95_percentile": p95[0],
            "p95_samples_beyond": p95[2],
        },
        "failed_frac": failed / attempted,
        "check_s": check_s,
        "failures": failures,
        "pins": pin_path.name if pins else None,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in setups),
            "wall_s": statistics.median(walls),
            "cmd_p50_ms": harrell_davis(command_ms, 50),
            "cmd_p95_ms": p95[1],
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        metrics, layer_details = layer_metrics(tracer.spans, len(traced_walls), statistics.median(traced_speeds))
        metrics["generators.generate_s"] = statistics.median(s["generate_s"] * s["speed"] for s in setups)
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        units = dict(PER_LAYER)
        details.update(layer_details, traced_passes=len(traced_walls), traced_pass_wall_s=traced_walls,
                       traced_pass_speed=traced_speeds)
        missing = [name for name in REQUIRED[args.workload] if not layer_details["layer_calls"].get(name)]
        if missing:
            problems.append(f"traced run recorded no calls into {missing}")
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
    details["problems"] = problems

    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {"details": details, "command_ms": dict(zip((" ".join(a) for a in names), command_ms)), "result": result}
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
