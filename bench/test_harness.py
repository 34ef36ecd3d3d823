"""Self-tests of the benchmark harness: percentile rule, self time, answer checks.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from checks import Checker, canonical_digest, compare_answers, differences  # noqa: E402
from run import END_TO_END, PER_LAYER, harrell_davis, tail_percentile  # noqa: E402
from spans import Span, covered_ns, self_seconds  # noqa: E402
from speed import REFERENCE_CALIBRATION_S, SpeedSampler  # noqa: E402
from twostage import cli  # noqa: E402
from twostage.generators import midterm_instance  # noqa: E402
from twostage.model import StandardContract, contract_to_json, instance_to_json  # noqa: E402


# --- the "highest percentile with ten samples beyond it" rule ------------------


def test_p95_of_200_samples_has_ten_beyond():
    percentile, value, beyond = tail_percentile(range(1, 201), 95)
    assert (percentile, beyond) == (95, 10)
    assert value == pytest.approx(190.5, abs=0.1)


def test_percentile_is_lowered_until_ten_samples_lie_beyond():
    percentile, value, beyond = tail_percentile(range(1, 151), 95)
    assert (percentile, beyond) == (pytest.approx(100 * 140 / 150), 10)
    assert value == pytest.approx(140.5, abs=0.1)
    assert tail_percentile(range(1, 1001), 99)[::2] == (99, 10)
    assert tail_percentile(range(1, 501), 99)[::2] == (98, 10)


def test_too_few_samples_keep_the_percentile_and_say_so():
    assert tail_percentile([5, 1, 4, 2, 3], 95)[::2] == (95, 0)
    assert tail_percentile(range(1, 11), 95)[::2] == (95, 0)
    assert tail_percentile([3, 1, 2, 4], 50)[::2] == (50, 2)


def test_harrell_davis_matches_the_beta_weights_of_scipy():
    beta = pytest.importorskip("scipy.stats").beta
    rng = random.Random(7)
    for n in (5, 11, 200):
        xs = sorted(rng.expovariate(1) for _ in range(n))
        for q in (1, 50, 95, 99):
            a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
            want = sum((beta.cdf((i + 1) / n, a, b) - beta.cdf(i / n, a, b)) * x for i, x in enumerate(xs))
            assert harrell_davis(xs, q) == pytest.approx(want, rel=1e-3)
    assert harrell_davis([4, 4, 4], 95) == pytest.approx(4)


# --- machine speed ---------------------------------------------------------------


def test_sampler_clock_stops_while_calibrating():
    sampler = SpeedSampler()
    with sampler:
        begun, raw = sampler.now(), time.perf_counter()
        while time.perf_counter() - raw < 0.4:
            pass
        measured, elapsed = sampler.now() - begun, time.perf_counter() - raw
    assert len(sampler.samples) >= 3
    assert elapsed * 0.5 < measured < elapsed - sum(sampler.samples[:-1])
    assert sampler.speed() > 0
    assert sampler.speed(0, 1) == pytest.approx(REFERENCE_CALIBRATION_S / sampler.samples[0])


# --- self time -----------------------------------------------------------------


def test_covered_is_the_clipped_union_of_child_intervals():
    assert covered_ns([], 0, 100) == 0
    assert covered_ns([(10, 20), (30, 45)], 0, 100) == 25
    assert covered_ns([(10, 30), (20, 40)], 0, 100) == 30  # overlap counted once
    assert covered_ns([(-5, 10), (90, 120)], 0, 100) == 20  # clipped to the parent
    assert covered_ns([(10, 50), (20, 30)], 0, 100) == 40  # nested


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0, 1_000, -1, 0),
        Span("contracts.optimal_pay", 100, 700, 0, 0),
        Span("lp.solve_lp", 200, 300, 1, 0),
        Span("lp.solve_lp", 400, 600, 1, 0),
        Span("model.parse", 800, 900, 0, 0),
    ]
    assert self_seconds(spans) == pytest.approx([300e-9, 300e-9, 100e-9, 200e-9, 100e-9])


# --- answer checks --------------------------------------------------------------


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture()
def midterm_files(tmp_path):
    (tmp_path / "midterm.json").write_text(instance_to_json(midterm_instance()))
    contract = StandardContract(("0", "3"))
    (tmp_path / "c.json").write_text(contract_to_json(contract))
    return tmp_path


def test_compare_check_accepts_the_right_answer_and_ignores_counters(midterm_files):
    code, text = _run(["compare", str(midterm_files / "midterm.json")])
    doc = json.loads(text)
    checker = Checker(midterm_files, [["compare", "midterm.json"]])
    assert checker.check(0, code, text) is None
    doc["results"]["terminate"]["profiles_enumerated"] = 1
    doc["duration_seconds"] = 99.0
    assert checker.check(0, code, json.dumps(doc)) is None


def test_a_wrong_profit_is_a_failure(midterm_files):
    code, text = _run(["compare", str(midterm_files / "midterm.json")])
    doc = json.loads(text)
    doc["results"]["standard"]["profit"]["exact"] = "92/36"
    checker = Checker(midterm_files, [["compare", "midterm.json"]])
    assert "midterm optima" in checker.check(0, code, json.dumps(doc))


def test_pinned_answers_catch_a_different_contract(midterm_files):
    code, text = _run(["compare", str(midterm_files / "midterm.json")])
    doc = json.loads(text)
    digest = canonical_digest((midterm_files / "midterm.json").read_text())
    pins = {0: {"input": digest, "answers": compare_answers(doc)}}
    checker = Checker(midterm_files, [["compare", "midterm.json"]], pins)
    assert checker.check(0, code, text) is None
    doc["results"]["pay"]["contract"]["t"][0]["exact"] = "12345"
    assert "pinned" in checker.check(0, code, json.dumps(doc))
    assert checker.check(0, 2, text) == "exit code 2"


def test_differences_names_the_path():
    assert differences({"a": {"b": "1"}}, {"a": {"b": "1"}}) == []
    assert differences({"a": {"b": "1"}}, {"a": {"b": "2"}}) == ["/a/b: '1' != '2'"]
    assert differences({"a": 1}, {"a": 1, "c": 2}) == ["/c"]


def test_best_response_check_recomputes_the_profit(midterm_files):
    argv = ["best-response", "midterm.json", "--contract-file", "c.json"]
    code, text = _run([argv[0], str(midterm_files / argv[1]), argv[2], str(midterm_files / argv[3])])
    checker = Checker(midterm_files, [argv])
    assert checker.check(0, code, text) is None
    doc = json.loads(text)
    doc["principal_profit"]["exact"] = "100"
    assert "evaluate_profile" in checker.check(0, code, json.dumps(doc))


def test_simulate_check_uses_a_four_standard_error_band(midterm_files):
    argv = ["simulate", "midterm.json", "--contract-file", "c.json", "--episodes", "2000", "--seed", "3"]
    code, text = _run([argv[0], str(midterm_files / argv[1]), argv[2], str(midterm_files / argv[3]), *argv[4:]])
    checker = Checker(midterm_files, [argv])
    assert checker.check(0, code, text) is None
    doc = json.loads(text)
    doc["empirical_profit"] += 5 * doc["std_error"]
    assert "not within" in checker.check(0, code, json.dumps(doc))


# --- the benchmark definition ---------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["separation", "random_mix", "evaluate"]
