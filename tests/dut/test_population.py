"""Population DUT model: stacked results equal the per-device calls bit for bit.

The per-device references here are written out independently of
:mod:`repro.dut.population` — the scalar MFB nodal equations, an
augmented-matrix ``expm`` per device, :func:`scipy.signal.ss2tf`, the
sequential scalar component draws — so a drift in the stacked
arithmetic cannot hide behind a shared helper.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.signal import ss2tf

from repro.clocking.master import OVERSAMPLING_RATIO
from repro.dut import ActiveRCLowpass, FilterComponents, design_mfb_lowpass
from repro.dut.nonlinear import PolynomialNonlinearity, WienerDUT
from repro.dut.population import (
    DeviceList,
    LTIPopulation,
    population_of,
    zoh_discretize,
)
from repro.dut.statespace import StateSpaceDUT
from repro.errors import ConfigError

NAMES = ("r1", "r2", "r3", "c1", "c2")
#: Stimulus frequencies spanning the paper band (sample rate = f * N).
TONES = (100.0, 1000.0, 20_000.0)
GOLDEN_FREQUENCIES = (0.0, 100.0, 1000.0, 3000.0, 20_000.0)


def reference_matrices(values, polarity):
    """The MFB nodal equations in scalar arithmetic (one device)."""
    r1, r2, r3, c1, c2 = (float(v) for v in values)
    g1, g2, g3 = 1.0 / r1, 1.0 / r2, 1.0 / r3
    a = np.array([[-(g1 + g2 + g3) / c1, g2 / c1], [-g3 / c2, 0.0]])
    b = np.array([g1 / c1, 0.0])
    c = np.array([0.0, -float(polarity)])
    return a, b, c


def reference_zoh(a, b, dt):
    block = np.zeros((3, 3))
    block[:2, :2] = a * dt
    block[:2, 2] = b * dt
    ed = expm(block)
    return ed[:2, :2], ed[:2, 2]


def reference_transfer(a, b, c, dt):
    ad, bd = reference_zoh(a, b, dt)
    num, den = ss2tf(ad, bd.reshape(-1, 1), c.reshape(1, -1), [[0.0]])
    return num[0], den


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: One device's per-component multipliers: manufacturing spread within
#: +/-50 %, optionally with one catastrophic short/open (100x / 0.01x).
spread = st.lists(
    st.floats(0.5, 1.5, allow_nan=False), min_size=5, max_size=5
)
catastrophe = st.one_of(
    st.none(), st.tuples(st.integers(0, 4), st.sampled_from((100.0, 0.01)))
)
device = st.tuples(spread, catastrophe)
#: Nominal designs: Butterworth, under- and overdamped (real poles).
designs = st.sampled_from(
    (
        design_mfb_lowpass(1000.0),
        design_mfb_lowpass(1000.0, q=0.3),
        design_mfb_lowpass(1000.0, q=2.0),
    )
)


def lot_values(nominal, devices):
    rows = []
    for multipliers, fault in devices:
        row = np.array(nominal.values()) * np.array(multipliers)
        if fault is not None:
            row[fault[0]] *= fault[1]
        rows.append(row)
    return np.array(rows)


lots = st.tuples(designs, st.lists(device, min_size=1, max_size=12)).map(
    lambda pair: lot_values(*pair)
)
polarities = st.sampled_from((1, -1))


# ----------------------------------------------------------------------
# Bit-identity properties
# ----------------------------------------------------------------------


class TestStackedEqualsPerDevice:
    @settings(max_examples=60, deadline=None)
    @given(values=lots, polarity=polarities)
    def test_build_matches_the_scalar_nodal_equations(self, values, polarity):
        population = LTIPopulation.from_components(values, polarity)
        for i, row in enumerate(values):
            a, b, c = reference_matrices(row, polarity)
            assert np.array_equal(population.a[i], a)
            assert np.array_equal(population.b[i], b)
            assert np.array_equal(population.c, c)

    @settings(max_examples=60, deadline=None)
    @given(values=lots, polarity=polarities, tone=st.sampled_from(TONES))
    def test_zoh_transfer_matches_ss2tf(self, values, polarity, tone):
        dt = 1.0 / (tone * OVERSAMPLING_RATIO)
        num, den = LTIPopulation.from_components(values, polarity).zoh_transfer(dt)
        for i, row in enumerate(values):
            ref_num, ref_den = reference_transfer(*reference_matrices(row, polarity), dt)
            assert np.array_equal(num[i], ref_num)
            assert np.array_equal(den[i], ref_den)

    @settings(max_examples=40, deadline=None)
    @given(values=lots, tone=st.sampled_from(TONES))
    def test_stacked_expm_matches_looped_expm(self, values, tone):
        dt = 1.0 / (tone * OVERSAMPLING_RATIO)
        population = LTIPopulation.from_components(values)
        ad, bd = zoh_discretize(population.a, population.b, dt)
        for i in range(len(values)):
            ref_ad, ref_bd = reference_zoh(population.a[i], population.b[i], dt)
            assert np.array_equal(ad[i], ref_ad)
            assert np.array_equal(bd[i], ref_bd)

    @settings(max_examples=60, deadline=None)
    @given(values=lots, polarity=polarities)
    def test_settling_and_golden_gain_match_each_device(self, values, polarity):
        population = LTIPopulation.from_components(values, polarity)
        settle = population.settling_time(1e-6)
        gains = population.gain_db_at(GOLDEN_FREQUENCIES)
        for i, row in enumerate(values):
            dut = ActiveRCLowpass(FilterComponents(*row), polarity=polarity)
            assert settle[i] == dut.settling_time(1e-6)
            expected = [dut.gain_db_at(f) for f in GOLDEN_FREQUENCIES]
            assert np.array_equal(gains[i], expected)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sigma=st.sampled_from((0.0, 0.01, 0.05, 0.2)),
        n=st.integers(1, 40),
    )
    def test_array_draw_matches_sequential_scalar_draws(self, seed, sigma, n):
        nominal = design_mfb_lowpass(1000.0)
        drawn = nominal.tolerance_spread(sigma, np.random.default_rng(seed), n)
        rng = np.random.default_rng(seed)
        expected = [
            [getattr(nominal, name) * (1.0 + rng.normal(0.0, sigma)) for name in NAMES]
            for _ in range(n)
        ]
        assert np.array_equal(drawn, np.array(expected))
        rng = np.random.default_rng(seed)
        sequential = [nominal.with_tolerance(sigma, rng).values() for _ in range(n)]
        assert np.array_equal(drawn, np.array(sequential))


class TestCoverage:
    """The strategies above reach the regimes the contract names."""

    def test_overdamped_design_has_real_poles_and_still_matches(self):
        values = np.array([design_mfb_lowpass(1000.0, q=0.3).values()])
        population = LTIPopulation.from_components(values)
        assert not np.iscomplexobj(np.linalg.eigvals(population.a))
        dt = 1.0 / (1000.0 * OVERSAMPLING_RATIO)
        num, den = population.zoh_transfer(dt)
        ref_num, ref_den = reference_transfer(*reference_matrices(values[0], 1), dt)
        assert np.array_equal(num[0], ref_num) and np.array_equal(den[0], ref_den)

    def test_mixed_real_and_complex_poles_in_one_stack(self):
        values = np.array(
            [
                design_mfb_lowpass(1000.0, q=0.3).values(),
                design_mfb_lowpass(1000.0, q=2.0).values(),
            ]
        )
        population = LTIPopulation.from_components(values)
        assert np.iscomplexobj(np.linalg.eigvals(population.a))
        dt = 1.0 / (20_000.0 * OVERSAMPLING_RATIO)
        num, den = population.zoh_transfer(dt)
        for i, row in enumerate(values):
            ref_num, ref_den = reference_transfer(*reference_matrices(row, 1), dt)
            assert np.array_equal(num[i], ref_num)
            assert np.array_equal(den[i], ref_den)


# ----------------------------------------------------------------------
# One routine for both backends
# ----------------------------------------------------------------------


class TestSharedRoutine:
    def test_statespace_zoh_transfer_is_ss2tf_for_two_states(self):
        dut = ActiveRCLowpass.from_specs(cutoff=1000.0)
        core = dut.state_space()
        dt = 1.0 / (1000.0 * OVERSAMPLING_RATIO)
        num, den = core._zoh_transfer(dt)
        ref_num, ref_den = reference_transfer(core.a, core.b, core.c, dt)
        assert np.array_equal(num, ref_num) and np.array_equal(den, ref_den)

    def test_windowed_responses_match_batch_response(self):
        values = lot_values(
            design_mfb_lowpass(1000.0),
            [([1.0, 1.1, 0.9, 1.05, 0.95], None), ([1.0] * 5, (3, 100.0))],
        )
        duts = [ActiveRCLowpass(FilterComponents(*row)) for row in values]
        stimulus = np.sin(np.linspace(0.0, 40.0, 2000))
        rates = np.array([96_000.0, 960_000.0])
        starts = np.array([100, 300])
        stacked = population_of(duts).windowed_responses(
            [stimulus, stimulus[:1500]], rates, starts, 500
        )
        listed = DeviceList(duts).windowed_responses(
            [stimulus, stimulus[:1500]], rates, starts, 500
        )
        assert np.array_equal(stacked, listed)

    def test_process_uses_the_same_transfer_as_batch_response(self):
        from repro.signals.waveform import Waveform

        dut = ActiveRCLowpass.from_specs(cutoff=1000.0)
        samples = np.cos(np.linspace(0.0, 30.0, 960))
        dut.reset()
        processed = dut.process(Waveform(samples, 96_000.0)).samples
        assert np.array_equal(processed, dut.batch_response(samples, 96_000.0))


class TestPopulationOf:
    def test_two_state_lti_devices_stack(self):
        duts = [ActiveRCLowpass.from_specs(1000.0), ActiveRCLowpass.from_specs(2000.0)]
        assert isinstance(population_of(duts), LTIPopulation)

    def test_nonlinear_or_higher_order_devices_stay_a_device_list(self):
        linear = ActiveRCLowpass.from_specs(1000.0)
        wiener = WienerDUT(linear, PolynomialNonlinearity([0.0, 1.0, 0.1]))
        assert isinstance(population_of([linear, wiener]), DeviceList)
        third = StateSpaceDUT.from_transfer_function([1.0], [1.0, 3.0, 3.0, 1.0])
        assert isinstance(population_of([third]), DeviceList)

    def test_mixed_polarity_does_not_share_c(self):
        duts = [ActiveRCLowpass(polarity=1), ActiveRCLowpass(polarity=-1)]
        assert isinstance(population_of(duts), DeviceList)

    def test_device_list_answers_through_each_device(self):
        linear = ActiveRCLowpass.from_specs(1000.0)
        wiener = WienerDUT(linear, PolynomialNonlinearity([0.0, 1.0]))
        population = DeviceList([linear, wiener])
        settle = population.settling_time(1e-6)
        assert settle[0] == settle[1] == linear.settling_time(1e-6)
        assert list(population.responds_continuous) == [True, True]


class TestValidation:
    def test_rejects_bad_shapes_and_empty(self):
        with pytest.raises(ConfigError, match="population matrices"):
            LTIPopulation(np.zeros((1, 3, 3)), np.zeros((1, 3)), [0.0, 1.0])
        with pytest.raises(ConfigError, match="empty"):
            LTIPopulation(np.zeros((0, 2, 2)), np.zeros((0, 2)), [0.0, 1.0])
        with pytest.raises(ConfigError, match="empty"):
            DeviceList([])

    def test_rejects_an_unstable_row_naming_it(self):
        a = np.array([[[-1.0, 0.0], [0.0, -2.0]], [[1.0, 0.0], [0.0, -2.0]]])
        with pytest.raises(ConfigError, match="device 1"):
            LTIPopulation(a, np.ones((2, 2)), [0.0, 1.0])

    def test_rejects_bad_polarity_and_tolerance(self):
        values = np.array([design_mfb_lowpass(1000.0).values()])
        with pytest.raises(ConfigError, match="polarity"):
            LTIPopulation.from_components(values, polarity=0)
        with pytest.raises(ConfigError, match="tolerance"):
            LTIPopulation.from_components(values).settling_time(1.0)

    def test_non_positive_draw_names_the_component(self):
        nominal = design_mfb_lowpass(1000.0)
        with pytest.raises(ConfigError, match="component .* must be positive"):
            nominal.tolerance_spread(5.0, np.random.default_rng(0), 50)
        with pytest.raises(ConfigError, match="sigma"):
            nominal.tolerance_spread(-0.1, np.random.default_rng(0), 1)

    def test_settling_time_is_the_slowest_mode(self):
        a = np.array([[[-1.0, 0.0], [0.0, -2.0]]])
        population = LTIPopulation(a, np.ones((1, 2)), [0.0, 1.0])
        assert population.settling_time(math.exp(-3.0))[0] == pytest.approx(3.0)
