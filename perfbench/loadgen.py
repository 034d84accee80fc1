"""The seeded load generator: every spec the benchmark submits comes from here.

Each workload's specs, job order and repeat choices are a function of
the workload seed alone (``random.Random(seed)``); the program under
test only ever sees the generated :class:`~repro.scenarios.ScenarioSpec`
objects.  Sizes that decide how much work one job is stay fixed across
seeds, so the figures of two seeds differ by input values, not by load.

``tiny=True`` shrinks every job for the benchmark's own tests.
"""

from __future__ import annotations

import random

from repro.api import ExecutionPolicy
from repro.core.sweep import PAPER_MAX_FREQUENCY
from repro.scenarios import (
    AnalyzerSettings,
    CoverageStep,
    PseudorandomStep,
    ScenarioSpec,
    SweepStep,
    YieldStep,
)

BACKEND = "vectorized"

#: Fault magnitudes of the campaign workload: five deviations, each
#: signed both ways, plus every short and open (``catastrophic``).
FAULT_DEVIATIONS = (0.1, 0.2, 0.3, 0.4, 0.5)

#: Each block of service submissions holds these fresh kinds and these
#: repeats of earlier specs, in a seeded order: every run sends the same
#: mix (one job in six a yield lot, one in four a repeat) however long
#: it lasts, so the figures of two seeds differ by values, not by mix.
SERVICE_FRESH = ("yield", "sweep", "sweep", "sweep", "sweep", "coverage", "coverage", "coverage", "coverage")
SERVICE_REPEATS = ("yield", "sweep", "coverage")
#: A repeat picks among the latest specs of its kind, so some repeats
#: are still in flight on the other client (the dedupe path).
REPEAT_WINDOW = 3


def _scenario_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# ----------------------------------------------------------------------
# yield_lot
# ----------------------------------------------------------------------

def yield_lot_size(tiny: bool) -> tuple[int, int]:
    """``(devices per lot, chunk size)``."""
    return (60, 25) if tiny else (1000, 250)


def yield_lot_policy(tiny: bool) -> ExecutionPolicy:
    return ExecutionPolicy(backend=BACKEND, chunk_size=yield_lot_size(tiny)[1])


def yield_lot_spec(seed: int, n_devices: int, chunk_size: int | None) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"yield-lot-{seed}",
        seed=seed,
        steps=(
            YieldStep(
                name="lot",
                n_devices=n_devices,
                component_sigma=0.03,
                frequency_ratios=(1.0,),
                m_periods=2,
            ),
        ),
        analyzer=AnalyzerSettings(m_periods=2),
        backend=BACKEND,
        chunk_size=chunk_size,
    )


def yield_lot_jobs(seed: int, tiny: bool = False):
    """An endless stream of Monte-Carlo lots, each on its own lot seed."""
    rng = random.Random(seed)
    n_devices, chunk = yield_lot_size(tiny)
    while True:
        yield yield_lot_spec(_scenario_seed(rng), n_devices, chunk)


# ----------------------------------------------------------------------
# fault_campaign_noisy
# ----------------------------------------------------------------------

def fault_policy() -> ExecutionPolicy:
    return ExecutionPolicy(backend=BACKEND)


def fault_spec(
    seed: int,
    deviations: tuple[float, ...] = FAULT_DEVIATIONS,
    catastrophic: bool = True,
    tiny: bool = False,
) -> ScenarioSpec:
    """The pseudorandom campaign plus a coverage step over one catalog.

    The patterns span the paper's whole band.  A 4-bit LFSR has period
    15, and 15 patterns visit each of its 15 tone placements once
    whatever the seed: the seed moves the order and the noise, not the
    amount of work (the settling lead-in, most of a slot's cost, grows
    with the tone frequency).
    """
    return ScenarioSpec(
        name=f"fault-campaign-{seed}",
        seed=seed,
        steps=(
            PseudorandomStep(
                name="prbist",
                lfsr_width=4,
                n_patterns=4 if tiny else 15,
                f_hi=1000.0 if tiny else PAPER_MAX_FREQUENCY,
                deviations=deviations,
                catastrophic=catastrophic,
            ),
            CoverageStep(
                name="coverage",
                deviations=deviations,
                catastrophic=catastrophic,
                frequency_ratios=(1.0,),
            ),
        ),
        analyzer=AnalyzerSettings(
            m_periods=4 if tiny else 20,
            generator_noise_rms=5e-5,
            evaluator_noise_rms=1e-4,
        ),
        backend=BACKEND,
    )


def fault_jobs(seed: int, tiny: bool = False):
    """An endless stream of noisy campaigns, each on its own seed."""
    rng = random.Random(seed)
    deviations = FAULT_DEVIATIONS[:1] if tiny else FAULT_DEVIATIONS
    while True:
        yield fault_spec(_scenario_seed(rng), deviations, True, tiny)


def fault_gate_spec(spec: ScenarioSpec, tiny: bool = False) -> ScenarioSpec:
    """A small sub-catalog of ``spec``: one magnitude, no shorts/opens.

    Its golden device (job 0) and first fault (the largest negative
    deviation of the first component, job 1) sit at the same lot
    positions as in the full campaign.
    """
    return fault_spec(spec.seed, (max(spec.steps[0].deviations),), False, tiny)


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------

def service_policy(spec: ScenarioSpec) -> ExecutionPolicy:
    return ExecutionPolicy(backend=BACKEND, seed=spec.seed, chunk_size=spec.chunk_size)


def _service_spec(kind: str, index: int, rng: random.Random, tiny: bool) -> ScenarioSpec:
    seed = _scenario_seed(rng)
    if kind == "yield":
        step = YieldStep(
            name="lot",
            n_devices=30 if tiny else 400,
            component_sigma=round(rng.uniform(0.02, 0.05), 3),
            frequency_ratios=(0.3, 1.0, 2.0),
        )
    elif kind == "sweep":
        step = SweepStep(name="sweep", n_points=8)
    else:
        step = CoverageStep(
            name="coverage",
            deviations=(rng.choice((0.2, 0.3, 0.5)),),
            catastrophic=True,
            frequency_ratios=(1.0,),
        )
    return ScenarioSpec(
        name=f"mix-{index}-{kind}",
        seed=seed,
        steps=(step,),
        analyzer=AnalyzerSettings(m_periods=4 if tiny else 20),
        backend=BACKEND,
        chunk_size=10 if tiny else 100,
    )


def service_jobs(seed: int, n_jobs: int, tiny: bool = False):
    """``n_jobs`` submissions as ``(kind, spec, is_repeat)``, in order."""
    rng = random.Random(seed)
    jobs: list[tuple[str, ScenarioSpec, bool]] = []
    recent: dict[str, list[ScenarioSpec]] = {}
    while len(jobs) < n_jobs:
        block = [(k, False) for k in SERVICE_FRESH] + [(k, True) for k in SERVICE_REPEATS]
        rng.shuffle(block)
        for kind, repeat in block:
            earlier = recent.get(kind)
            if repeat and earlier:
                jobs.append((kind, rng.choice(earlier[-REPEAT_WINDOW:]), True))
                continue
            spec = _service_spec(kind, len(jobs), rng, tiny)
            recent.setdefault(kind, []).append(spec)
            jobs.append((kind, spec, False))
    return jobs[:n_jobs]
