"""The benchmark's own tests: a tiny pass of every workload, and the gate.

Each workload runs through ``perfbench/run.py`` exactly as the
benchmark is invoked, with ``--tiny`` job sizes; the checks are that
every metric ``BENCHMARK.json`` names is printed with its unit, that
the correctness gate passes, and that the gate catches a corrupted
result.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gate, loadgen

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_metric_and_passes_the_gate(workload, trace):
    report, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"])
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in report
        ), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert "seed=3" in report[0] and "failed_frac=0" in report[0]


def test_unknown_workload_and_missing_program_exit_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nope"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "yield_lot"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


# ----------------------------------------------------------------------
# The gate catches corrupted results
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fault_runs():
    from repro.api import ExecutionPolicy, Session

    spec = next(loadgen.fault_jobs(5, tiny=True))
    subset = loadgen.fault_gate_spec(spec, tiny=True)
    with Session(policy=loadgen.fault_policy()) as session:
        measured = session.run_scenario(spec).raw
        subset_vectorized = session.run_scenario(subset).raw
    with Session(policy=ExecutionPolicy(backend="reference")) as session:
        subset_reference = session.run_scenario(subset).raw
    return measured, subset_vectorized, subset_reference


def _flip_first_signature(steps):
    steps = copy.deepcopy(list(steps))
    prbist = next(s for s in steps if s.kind == "pseudorandom")
    prbist.exact["signatures"][0] ^= 1
    return steps


def test_fault_gate_passes_on_real_results(fault_runs):
    measured, vectorized, reference = fault_runs
    assert gate.same_exact("subset", reference.steps, vectorized.steps) == []
    assert gate.fault_aligned(measured.steps, reference.steps) == []


def test_fault_gate_catches_one_flipped_signature(fault_runs):
    measured, vectorized, reference = fault_runs
    flipped = _flip_first_signature(measured.steps)
    assert gate.fault_aligned(flipped, reference.steps)
    flipped = _flip_first_signature(vectorized.steps)
    assert gate.same_exact("subset", reference.steps, flipped)


def test_yield_gate_catches_one_flipped_verdict():
    from repro.api import ExecutionPolicy, Session

    spec = loadgen.yield_lot_spec(11, 40, 16)
    prefix = loadgen.yield_lot_spec(11, 10, None)
    with Session(policy=loadgen.yield_lot_policy(True)) as session:
        lot = session.run_scenario(spec).raw.steps[0].exact
    with Session(policy=ExecutionPolicy(backend="reference")) as session:
        reference = session.run_scenario(prefix).raw.steps[0].exact
    assert gate.yield_prefix(lot, reference) == []
    corrupted = copy.deepcopy(lot)
    corrupted["verdicts"][3] = "fail" if corrupted["verdicts"][3] != "fail" else "pass"
    assert gate.yield_prefix(corrupted, reference)


def test_service_gate_catches_one_changed_byte():
    text = json.dumps({"signatures": [12345]})
    assert gate.same_bytes("job", text, text) == []
    assert gate.same_bytes("job", text, text.replace("12345", "12344"))


def test_load_generator_is_a_function_of_the_seed():
    first = loadgen.service_jobs(7, 120)
    again = loadgen.service_jobs(7, 120)
    other = loadgen.service_jobs(8, 120)
    key = lambda jobs: [(k, s.spec_key(), r) for k, s, r in jobs]  # noqa: E731
    assert key(first) == key(again) != key(other)
    assert 0.2 < sum(r for _, _, r in first) / len(first) <= 0.25
    seen = set()
    for _, spec, repeat in first:
        assert (spec.spec_key() in seen) == repeat
        seen.add(spec.spec_key())
