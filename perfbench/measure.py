"""Measuring the three workloads end to end and layer by layer.

One *job* is one scenario spec in and one canonical result out
(:func:`repro.reporting.export.baseline_to_json`).  The two Session
workloads run jobs back to back through
:meth:`repro.api.Session.run_scenario` in this process; ``service_mix``
submits them to a ``repro serve`` subprocess from two closed-loop
client threads through :class:`repro.service.ServiceClient`.

End-to-end figures come from untraced phases.  With ``trace=True`` the
same job stream runs twice, back to back: untraced, then under
:class:`~perfbench.layers.Tracer`; the difference between the two gives
``trace.overhead_frac``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.api import Session
from repro.errors import ReproError, ServiceError
from repro.reporting import export
from repro.service import ServiceClient, wire

from . import gate, layers, loadgen
from .layers import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
RUN_PY = Path(__file__).resolve().parent / "run.py"
SERVE_TRACED_PY = Path(__file__).resolve().parent / "serve_traced.py"

WORKLOADS = ("yield_lot", "fault_campaign_noisy", "service_mix")
#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``repro serve --max-running`` and the closed-loop client count: both
#: match the two CPUs the benchmark was sized on.
SERVICE_CLIENTS = 2
#: Devices of the yield lot re-run on the reference backend by the gate.
YIELD_GATE_PREFIX = 200
#: Layer groups whose self time is reported as a share of thread time.
GROUPS = (
    "dut", "engine", "generator", "evaluator", "bist", "faults",
    "prbist", "scenarios", "api", "reporting", "service",
)
#: Client-side service phases (frame arrival times, submit to result).
SERVICE_PHASES = ("service.ack", "service.queue_wait", "service.execute", "service.result")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong result)."""


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM is not reported for this process")


def measurements_of(spec, result) -> int:
    """Gain/phase measurements a job produced (device x tone or pattern)."""
    total = 0
    for step, out in zip(spec.steps, result.steps):
        if step.kind == "yield":
            total += step.n_devices * len(step.frequency_ratios)
        elif step.kind == "sweep":
            total += step.n_points
        elif step.kind == "coverage":
            total += (len(out.exact["fault_labels"]) + 1) * len(step.frequency_ratios)
        elif step.kind == "pseudorandom":
            total += (len(out.exact["fault_labels"]) + 1) * step.n_patterns
        else:
            raise BenchError(f"no measurement count for step kind {step.kind!r}")
    return total


@dataclass
class Phase:
    """What one timed phase produced.

    ``sequential`` phases run one job at a time, so each job's own rate
    is a sample of the phase's rate; their throughput figures are the
    median over jobs, which a burst of load from outside the benchmark
    moves less than a ratio of totals does.  Concurrent phases (the
    service) report completed work over the phase's wall time.
    """

    sequential: bool
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    job_measurements: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    threads: list[int] = field(default_factory=list)
    start_s: float = 0.0
    result_bytes: int = 0
    frames: int = 0
    frame_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)

    def end_to_end(self) -> dict[str, float]:
        if not self.latencies:
            raise BenchError(f"no job completed: {self.failures[:3]}")
        p50 = statistics.median(self.latencies)
        if self.sequential:
            rates = [m / t for m, t in zip(self.job_measurements, self.latencies)]
            measurements_per_s, jobs_per_s = statistics.median(rates), 1.0 / p50
        else:
            measurements_per_s = sum(self.job_measurements) / self.wall_s
            jobs_per_s = len(self.latencies) / self.wall_s
        return {
            "measurements_per_s": measurements_per_s,
            "jobs_per_s": jobs_per_s,
            "job_latency_p50_s": p50,
            "job_latency_p95_s": percentile(self.latencies, 0.95),
        }


def layer_metrics(spans, thread_s: float, root_s: float) -> dict[str, float]:
    """Per-layer calls, self and inclusive time, and group shares.

    ``thread_s`` is the measuring threads' summed wall time and
    ``root_s`` the part of it covered by outermost spans; the rest is
    ``trace.unattributed_s``.
    """
    totals = {
        name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        for name in {t[0] for t in TARGETS} | set(SERVICE_PHASES)
    }
    totals.update(layers.totals(spans))
    metrics: dict[str, float] = {}
    for name, entry in totals.items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.s"] = entry["total_s"]
    for phase in SERVICE_PHASES:
        metrics[f"{phase}_s"] = totals[phase]["total_s"]
    metrics["service.reassemble_s"] = totals["service.reassemble"]["self_s"]
    for group in GROUPS:
        self_s = sum(
            entry["self_s"]
            for name, entry in totals.items()
            # Server-side layers decompose the execute phase.
            if name.split(".")[0] == group and name != "service.execute"
        )
        metrics[f"{group}.share"] = self_s / thread_s
    metrics["trace.unattributed_s"] = max(0.0, thread_s - root_s)
    return metrics


def _write_record(record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)


# ----------------------------------------------------------------------
# Session workloads (yield_lot, fault_campaign_noisy)
# ----------------------------------------------------------------------

def _session_jobs(workload: str, seed: int, tiny: bool):
    if workload == "yield_lot":
        return loadgen.yield_lot_jobs(seed, tiny), loadgen.yield_lot_policy(tiny)
    return loadgen.fault_jobs(seed, tiny), loadgen.fault_policy()


def probe_setup(workload: str, tiny: bool) -> None:
    """Cold start in a fresh process: the session and its first calibration."""
    jobs, policy = _session_jobs(workload, 0, tiny)
    spec = next(jobs)
    from repro.scenarios import compile_scenario

    with Session(policy=policy) as session:
        config = compile_scenario(spec).config
        session.runner.calibration_for(config, spec.dut.cutoff, spec.analyzer.m_periods)
    print("ready", flush=True)


def session_setup_s(workload: str, tiny: bool) -> float:
    times = []
    for _ in range(1 if tiny else SETUP_REPEATS):
        command = [sys.executable, str(RUN_PY), "--probe-setup", "--workload", workload]
        if tiny:
            command.append("--tiny")
        start = perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times)


def session_phase(session: Session, jobs, seconds: float, keep_first: bool = False):
    """Run jobs back to back for ``seconds``; the phase and its first result."""
    phase = Phase(sequential=True, threads=[threading.get_ident()])
    first = None
    start = phase.start_s = perf_counter()
    deadline = start + seconds
    while True:
        spec = next(jobs)
        begin = perf_counter()
        try:
            result = session.run_scenario(spec).raw
            text = export.baseline_to_json(spec, result)
        except ReproError as error:
            phase.failures.append(f"{spec.name}: {error}")
        else:
            phase.latencies.append(perf_counter() - begin)
            phase.result_bytes += len(text.encode("utf-8"))
            phase.job_measurements.append(measurements_of(spec, result))
            if keep_first and first is None:
                first = (spec, result)
        if perf_counter() >= deadline:
            break
    phase.wall_s = perf_counter() - start
    return phase, first


def session_gate(workload: str, spec, result, tiny: bool) -> list[list[str]]:
    """Re-run part of the first measured job on the reference backend.

    One list of mismatches per check (an empty list is a pass).
    """
    from repro.api import ExecutionPolicy

    reference = ExecutionPolicy(backend="reference")
    if workload == "yield_lot":
        step = spec.steps[0]
        prefix = loadgen.yield_lot_spec(spec.seed, min(YIELD_GATE_PREFIX, step.n_devices), None)
        with Session(policy=reference) as session:
            expected = session.run_scenario(prefix).raw
        return [gate.yield_prefix(result.steps[0].exact, expected.steps[0].exact)]
    subset = loadgen.fault_gate_spec(spec, tiny)
    with Session(policy=reference) as session:
        by_reference = session.run_scenario(subset).raw
    with Session(policy=loadgen.fault_policy()) as session:
        by_vectorized = session.run_scenario(subset).raw
    return [
        gate.same_exact(
            "fault sub-catalog (reference vs vectorized)",
            by_reference.steps,
            by_vectorized.steps,
        ),
        gate.fault_aligned(result.steps, by_reference.steps),
    ]


def run_session_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    metrics: dict[str, float] = {}
    notes: dict[str, object] = {}
    if not trace:
        metrics["setup_s"] = session_setup_s(workload, tiny)
    jobs, policy = _session_jobs(workload, seed, tiny)
    with Session(policy=policy) as session:
        # Warm-up: the first calibration and lazy imports are set-up.
        warm, _ = _session_jobs(workload, seed + 1, True)
        session.run_scenario(next(warm))
        phase, first = session_phase(session, jobs, seconds, keep_first=True)
        metrics.update(phase.end_to_end())
        metrics["peak_rss_mb"] = vm_hwm_mb()
        phases = [phase]
        if trace:
            tracer = Tracer().install()
            try:
                jobs, _ = _session_jobs(workload, seed, tiny)
                hits0, misses0 = session.cache.hits, session.cache.misses
                traced, _ = session_phase(session, jobs, seconds)
                hits, misses = session.cache.hits - hits0, session.cache.misses - misses0
            finally:
                tracer.uninstall()
            phases.append(traced)
            metrics.update(
                layer_metrics(tracer.spans, traced.wall_s, tracer.root_time(traced.threads))
            )
            # No service on this path: its server-side counters read zero.
            metrics.update(_status_metrics({}, {}))
            metrics.update(_cache_metrics(hits, misses))
            metrics["service.frames"] = metrics["service.bytes"] = 0
            metrics["trace.overhead_frac"] = 1.0 - (
                traced.end_to_end()["measurements_per_s"] / metrics["measurements_per_s"]
            )
            metrics["reporting.serialize.bytes"] = traced.result_bytes
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(str(OUT_DIR / f"spans-{workload}-seed{seed}.json"))
            notes["untraced_targets"] = tracer.missing
    checks = session_gate(workload, *first, tiny)
    return _report(workload, seed, trace, metrics, phases, checks, notes)


def _cache_metrics(hits: int, misses: int) -> dict[str, float]:
    lookups = hits + misses
    return {
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.cache.hit_ratio": hits / lookups if lookups else 0.0,
    }


def _report(workload, seed, trace, metrics, phases, checks, notes=None) -> dict:
    """The run's record; each job and each gate check is one operation."""
    attempted = sum(p.attempted for p in phases) + len(checks)
    failed = sum(len(p.failures) for p in phases) + sum(1 for c in checks if c)
    metrics["failed_frac"] = failed / attempted
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in phases for f in p.failures] + [m for c in checks for m in c],
        "samples": len(phases[0].latencies),
        "latencies_s": [p.latencies for p in phases],
        "metrics": metrics,
        "notes": notes or {},
    }
    _write_record(record)
    return record


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

class Server:
    """A ``repro serve`` subprocess, from spawn until its first status reply.

    ``trace_out`` runs the same command under the layer tracer
    (``perfbench/serve_traced.py``), which writes its spans there when
    the server stops.
    """

    def __init__(self, trace_out: Path | None = None) -> None:
        serve_args = ["--port", "0", "--max-running", str(SERVICE_CLIENTS)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable, str(SERVE_TRACED_PY), str(trace_out), *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        start = perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise BenchError(f"server did not announce its port: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            self.status = ServiceClient(port=self.port, timeout=60).status
            self.status()
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - start

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def close(self) -> None:
        """Interrupt the server (as Ctrl-C would) and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class JobRecord:
    kind: str
    spec: object
    repeat: bool
    text: str | None = None


def _run_service_job(client: ServiceClient, kind, spec, repeat, phase: Phase, tracer) -> JobRecord:
    record = JobRecord(kind, spec, repeat)
    frames, arrivals = [], []
    submit = perf_counter()
    try:
        for frame in client.stream(spec, policy=loadgen.service_policy(spec)):
            arrivals.append(perf_counter())
            frames.append(frame)
    except (OSError, ServiceError) as error:
        phase.failures.append(f"{spec.name}: {error}")
        return record
    if not frames or frames[-1]["type"] != "result":
        message = frames[-1].get("message") if frames else "no frames"
        phase.failures.append(f"{spec.name}: {message}")
        return record
    done = arrivals[-1]
    if tracer is not None:
        ack = arrivals[0]
        running = next(
            (t for f, t in zip(frames, arrivals) if f["type"] == "state" and f.get("state") == "running"),
            ack,
        )
        steps = [t for f, t in zip(frames, arrivals) if f["type"] == "step"]
        last_step = steps[-1] if steps else running
        for name, begin, end in zip(SERVICE_PHASES, (submit, ack, running, last_step), (ack, running, last_step, done)):
            tracer.record(name, begin, end)
        phase.frames += len(frames)
        phase.frame_bytes += sum(len(wire.encode_frame(f).encode("utf-8")) + 1 for f in frames)
    try:
        result = wire.result_from_frames(frames)
        record.text = export.baseline_to_json(spec, result)
    except ReproError as error:
        phase.failures.append(f"{spec.name}: reassembly failed: {error}")
        return record
    phase.latencies.append(done - submit)
    phase.job_measurements.append(measurements_of(spec, result))
    phase.result_bytes += len(record.text.encode("utf-8"))
    return record


def service_phase(port: int, jobs, seconds: float, tracer=None, min_jobs: int = 0):
    """Closed loop: each client thread submits its next job when one returns.

    The phase lasts ``seconds`` and at least until ``min_jobs`` jobs
    completed, so the p95 latency has ten samples beyond it.
    """
    phase = Phase(sequential=False)
    records: list[JobRecord] = []
    lock = threading.Lock()
    cursor = iter(jobs)
    start = phase.start_s = perf_counter()
    deadline = start + seconds

    def client_loop() -> None:
        client = ServiceClient(port=port, timeout=120)
        phase.threads.append(threading.get_ident())
        while perf_counter() < deadline or len(phase.latencies) < min_jobs:
            with lock:
                job = next(cursor, None)
            if job is None:
                raise BenchError("the load generator ran out of jobs")
            records.append(_run_service_job(client, *job, phase, tracer))

    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            client_loop()
        except BaseException as error:  # reported below, after join
            errors.append(error)

    threads = [threading.Thread(target=guarded) for _ in range(SERVICE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150)
        if thread.is_alive():
            raise BenchError("a client thread did not finish")
    phase.wall_s = perf_counter() - start
    if errors:
        raise BenchError(f"client thread failed: {errors[0]!r}")
    return phase, records


def service_setup_s(tiny: bool) -> tuple[float, Server]:
    """Median of cold server starts; the last server stays up for the run."""
    times = []
    repeats = 1 if tiny else SETUP_REPEATS
    for k in range(repeats):
        server = Server()
        times.append(server.setup_s)
        if k < repeats - 1:
            server.close()
    return statistics.median(times), server


def _service_warmup(port: int, seed: int, tiny: bool) -> None:
    """One job of each kind, so calibrations and lazy imports are paid."""
    client = ServiceClient(port=port, timeout=120)
    seen = set()
    for kind, spec, _ in loadgen.service_jobs(seed + 1, 12, tiny):
        if kind not in seen:
            seen.add(kind)
            client.run_scenario(spec, policy=loadgen.service_policy(spec))


def _status_metrics(after: dict, before: dict) -> dict[str, float]:
    """Server-side counters accumulated between two ``status`` snapshots."""

    def counter(status: dict, name: str) -> int:
        return status.get("metrics", {}).get(name, {}).get("value", 0)

    def cache(key: str) -> int:
        return after.get("cache", {}).get(key, 0) - before.get("cache", {}).get(key, 0)

    metrics = _cache_metrics(cache("hits"), cache("misses"))
    for metric, name in (
        ("service.shards", "service.shards"),
        ("service.retries", "service.retries"),
        ("service.worker_deaths", "service.worker_deaths"),
        ("service.deduped", "service.jobs.deduped"),
        ("service.jobs_failed", "service.jobs.failed"),
    ):
        metrics[metric] = counter(after, name) - counter(before, name)
    metrics["service.cache_hit_ratio"] = metrics["engine.cache.hit_ratio"]
    return metrics


def service_gate(records: list[JobRecord]) -> list[list[str]]:
    """In-process re-runs of one job per kind, plus repeat consistency."""
    problems: list[str] = []
    digests: dict[str, str] = {}
    for record in records:
        if record.text is None:
            continue
        digest = hashlib.sha256(record.text.encode("utf-8")).hexdigest()
        key = record.spec.spec_key()
        if key in digests and digests[key] != digest:
            problems.append(f"service: repeat of {record.spec.name!r} returned a different result")
        digests.setdefault(key, digest)
    checks = [problems]
    first_of_kind: dict[str, JobRecord] = {}
    for record in records:
        if record.text is not None and not record.repeat:
            first_of_kind.setdefault(record.kind, record)
    for kind, record in sorted(first_of_kind.items()):
        with Session(policy=loadgen.service_policy(record.spec)) as session:
            result = session.run_scenario(record.spec).raw
        checks.append(
            gate.same_bytes(
                f"service {kind} job {record.spec.name!r} vs Session.run_scenario",
                record.text,
                export.baseline_to_json(record.spec, result),
            )
        )
    return checks


#: Submissions generated per run: more than two clients finish in the
#: longest run the contract allows.
SERVICE_QUEUE = 20000
#: Completed jobs a service phase waits for: p95 then has ten beyond it.
MIN_SERVICE_JOBS = 220
MIN_SERVICE_JOBS_TINY = 12


def run_service_workload(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    metrics: dict[str, float] = {}
    jobs = loadgen.service_jobs(seed, SERVICE_QUEUE, tiny)
    min_jobs = MIN_SERVICE_JOBS_TINY if tiny else MIN_SERVICE_JOBS
    if trace:
        server = Server()
    else:
        metrics["setup_s"], server = service_setup_s(tiny)
    try:
        _service_warmup(server.port, seed, tiny)
        phase, records = service_phase(server.port, jobs, seconds, min_jobs=min_jobs)
        metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.close()
    metrics.update(phase.end_to_end())
    phases = [phase]
    notes: dict[str, object] = {
        "repeat_share": sum(r.repeat for r in records) / len(records),
        "kinds": {k: sum(r.kind == k for r in records) for k in sorted({r.kind for r in records})},
    }
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-service_mix-seed{seed}-server.json"
        tracer = Tracer().install()
        try:
            server = Server(trace_out=span_file)
            try:
                _service_warmup(server.port, seed, tiny)
                status0 = server.status()
                tracer.reset()
                traced, _ = service_phase(server.port, jobs, seconds, tracer, min_jobs)
                status = server.status()
            finally:
                server.close()
        finally:
            tracer.uninstall()
        with open(span_file, encoding="utf-8") as handle:
            server_spans = json.load(handle)["spans"]
        server_spans = [s for s in server_spans if s[2] >= traced.start_s]
        phases.append(traced)
        metrics.update(
            layer_metrics(
                tracer.spans + server_spans,
                traced.wall_s * SERVICE_CLIENTS,
                tracer.root_time(traced.threads),
            )
        )
        metrics.update(_status_metrics(status, status0))
        metrics["trace.overhead_frac"] = 1.0 - (
            traced.end_to_end()["measurements_per_s"] / metrics["measurements_per_s"]
        )
        metrics["service.frames"] = traced.frames
        metrics["service.bytes"] = traced.frame_bytes
        metrics["reporting.serialize.bytes"] = traced.result_bytes
        tracer.dump(str(OUT_DIR / f"spans-service_mix-seed{seed}-client.json"))
        notes["untraced_targets"] = tracer.missing
    return _report("service_mix", seed, trace, metrics, phases, service_gate(records), notes)
