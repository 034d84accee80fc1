"""Device-axis chunking: sharded batches change nothing but the footprint.

The contract under test (see :class:`repro.engine.runner.BatchRunner`):
``chunk_size`` shards a batch along its population axis to bound peak
memory, and must be invisible everywhere else — the exact channel
(integer signatures, verdicts) is bit-identical for every chunk size on
every backend, per-job substreams stay pinned to absolute job indices,
and an unchunked run's trace is byte-identical to the pre-chunking
layout (chunk spans appear only when chunking is requested).
"""

import numpy as np
import pytest

from repro.bist.limits import SpecMask
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.faults import fault_catalog
from repro.engine import BatchRunner
from repro.errors import ConfigError
from repro.obs import TraceRecorder
from repro.sc.opamp import OpAmpModel

M = 8
FREQS = (300.0, 1000.0)
GOLDEN = ActiveRCLowpass.from_specs(cutoff=1000.0)

#: Both noise sources on: every measurement consumes its job's private
#: substream, so any chunking slip that shifts a substream shows up as
#: a changed integer signature.
NOISY = AnalyzerConfig.ideal(
    m_periods=M,
    generator_opamp=OpAmpModel(noise_rms=50e-6),
    evaluator_opamp=OpAmpModel(noise_rms=100e-6),
    noise_seed=3,
)


def catalog():
    deviations = [-0.4, -0.2, 0.2, 0.4]
    return [GOLDEN] + [f.apply(GOLDEN) for f in fault_catalog(deviations)]


def fault_signatures(trials):
    return [[m.output.signature for m in trial] for trial in trials]


class TestExactChannelInvariance:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_fault_trials_chunking_invariant(self, backend):
        duts = catalog()
        unchunked = fault_signatures(
            BatchRunner(backend=backend).run_fault_trials(
                duts, NOISY, FREQS, m_periods=M
            )
        )
        for chunk in (1, 2, 3, len(duts), 100):
            chunked = fault_signatures(
                BatchRunner(backend=backend, chunk_size=chunk).run_fault_trials(
                    duts, NOISY, FREQS, m_periods=M
                )
            )
            assert chunked == unchunked

    def test_fault_trials_cross_backend_cross_chunk(self):
        """Any (backend, chunk) pair lands on the same exact channel."""
        duts = catalog()
        reference = fault_signatures(
            BatchRunner(chunk_size=4).run_fault_trials(
                duts, NOISY, FREQS, m_periods=M
            )
        )
        vectorized = fault_signatures(
            BatchRunner(backend="vectorized", chunk_size=3).run_fault_trials(
                duts, NOISY, FREQS, m_periods=M
            )
        )
        assert reference == vectorized

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_sweep_chunking_invariant(self, backend):
        frequencies = [200.0, 500.0, 1000.0, 2000.0, 4000.0]
        unchunked = [
            m.output.signature
            for m in BatchRunner(backend=backend).run_sweep(
                GOLDEN, NOISY, frequencies, m_periods=M
            )
        ]
        for chunk in (1, 2, 3):
            chunked = [
                m.output.signature
                for m in BatchRunner(backend=backend, chunk_size=chunk).run_sweep(
                    GOLDEN, NOISY, frequencies, m_periods=M
                )
            ]
            assert chunked == unchunked

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_monte_carlo_lot_chunking_invariant(self, backend):
        nominal = design_mfb_lowpass(1000.0)
        frequencies = [1000.0]
        mask = SpecMask.from_golden(
            ActiveRCLowpass(nominal), frequencies, tolerance_db=2.0
        )
        program = BISTProgram(mask, frequencies, m_periods=M)
        kwargs = dict(
            n_devices=14, component_sigma=0.05, seed=11, config=NOISY
        )

        def key(trials):
            return [(t.device_index, t.verdict, t.truly_good) for t in trials]

        unchunked = key(
            BatchRunner(backend=backend).run_trials(
                nominal, mask, program, **kwargs
            )
        )
        for chunk in (1, 5, 14, 50):
            chunked = key(
                BatchRunner(backend=backend, chunk_size=chunk).run_trials(
                    nominal, mask, program, **kwargs
                )
            )
            assert chunked == unchunked

    def test_start_index_offsets_compose_with_chunking(self):
        """A sharded campaign slice stays on its absolute substreams."""
        duts = catalog()
        whole = fault_signatures(
            BatchRunner(backend="vectorized", chunk_size=2).run_fault_trials(
                duts, NOISY, FREQS, m_periods=M
            )
        )
        tail = fault_signatures(
            BatchRunner(backend="vectorized", chunk_size=2).run_fault_trials(
                duts[2:], NOISY, FREQS, m_periods=M, start_index=2
            )
        )
        assert tail == whole[2:]


def trial_key(trials):
    return [(t.device_index, t.verdict, t.truly_good) for t in trials]


class TestYieldLotPopulationPath:
    """Yield lots run as stacked populations drawn one array per chunk.

    The lot is a function of its seed alone: chunk boundaries, the
    ``start_index`` of a slice and the backend change nothing in the
    exact channel (verdicts and golden classification).
    """

    NOMINAL = design_mfb_lowpass(1000.0)
    FREQUENCIES = (1000.0,)

    def program(self, m_periods, tolerance_db):
        mask = SpecMask.from_golden(
            ActiveRCLowpass(self.NOMINAL), self.FREQUENCIES,
            tolerance_db=tolerance_db,
        )
        return mask, BISTProgram(mask, self.FREQUENCIES, m_periods=m_periods)

    def test_chunk_sizes_leave_the_lot_unchanged(self):
        mask, program = self.program(2, 1.0)
        kwargs = dict(
            n_devices=300, component_sigma=0.05, seed=5,
            config=AnalyzerConfig.ideal(m_periods=2),
        )

        def run(chunk):
            return trial_key(
                BatchRunner(backend="vectorized", chunk_size=chunk).run_trials(
                    self.NOMINAL, mask, program, **kwargs
                )
            )

        unchunked = run(None)
        for chunk in (1, 7, 250):
            assert run(chunk) == unchunked

    def test_start_index_slices_compose(self):
        from repro.engine.vectorized import run_trials_vectorized

        mask, program = self.program(M, 2.0)
        runner = BatchRunner(backend="vectorized")
        calibration = runner.calibration_for(NOISY, 1000.0, M)
        components = self.NOMINAL.tolerance_spread(
            0.05, np.random.default_rng(8), 30
        )
        whole = trial_key(
            run_trials_vectorized(components, mask, program, NOISY, calibration)
        )
        pieces = []
        for start, stop in ((0, 11), (11, 12), (12, 30)):
            pieces += trial_key(
                run_trials_vectorized(
                    components[start:stop], mask, program, NOISY, calibration,
                    start_index=start,
                )
            )
        assert pieces == whole
        lot = trial_key(
            BatchRunner(backend="vectorized", chunk_size=7).run_trials(
                self.NOMINAL, mask, program, n_devices=30,
                component_sigma=0.05, seed=8, config=NOISY,
            )
        )
        assert lot == whole

    def test_large_spread_lot_matches_the_reference_backend(self):
        """2000 devices at sigma 0.05 against a 0.5 dB mask: most
        verdicts sit near a limit, so a one-ulp slip in the DUT model
        would flip some of them."""
        mask, program = self.program(20, 0.5)
        kwargs = dict(
            n_devices=2000, component_sigma=0.05, seed=2024,
            config=AnalyzerConfig.ideal(m_periods=20),
        )
        vectorized = trial_key(
            BatchRunner(backend="vectorized", chunk_size=250).run_trials(
                self.NOMINAL, mask, program, **kwargs
            )
        )
        reference = trial_key(
            BatchRunner().run_trials(self.NOMINAL, mask, program, **kwargs)
        )
        assert vectorized == reference
        verdicts = {verdict for _, verdict, _ in vectorized}
        assert verdicts == {"pass", "fail", "ambiguous"}
        assert {good for _, _, good in vectorized} == {True, False}


class TestChunkSpans:
    def chunk_payloads(self, chunk_size):
        recorder = TraceRecorder()
        runner = BatchRunner(
            backend="vectorized", chunk_size=chunk_size, obs=recorder
        )
        runner.run_fault_trials(catalog()[:5], NOISY, FREQS, m_periods=M)
        return [
            (s["exact"]["index"], s["exact"]["start"], s["exact"]["n_jobs"])
            for s in recorder.trace().spans
            if s["kind"] == "engine.chunk"
        ]

    def test_chunked_batch_emits_chunk_spans(self):
        assert self.chunk_payloads(chunk_size=2) == [
            (0, 0, 2),
            (1, 2, 2),
            (2, 4, 1),
        ]

    def test_unchunked_trace_has_no_chunk_spans(self):
        """chunk_size=None reproduces the pre-chunking trace layout."""
        assert self.chunk_payloads(chunk_size=None) == []

    def test_oversized_chunk_covers_batch_in_one_span(self):
        assert self.chunk_payloads(chunk_size=100) == [(0, 0, 5)]


class TestValidation:
    @pytest.mark.parametrize("chunk", [0, -1, 2.5, "8", True])
    def test_runner_rejects_bad_chunk_size(self, chunk):
        with pytest.raises(ConfigError, match="chunk_size"):
            BatchRunner(chunk_size=chunk)

    def test_none_means_unchunked(self):
        assert BatchRunner().chunk_size is None
