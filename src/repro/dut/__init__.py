"""Devices under test.

The analyzer characterizes analog blocks; this package provides them:

* :class:`~repro.dut.statespace.StateSpaceDUT` — any continuous-time LTI
  block, discretized *exactly* (zero-order-hold matrix exponential) on
  the evaluator clock.  Exactness is not an approximation here: the
  generator output is a held staircase, i.e. genuinely piecewise-constant
  per master-clock sample.
* :class:`~repro.dut.active_rc.ActiveRCLowpass` — the paper's
  demonstrator DUT: a 2nd-order active-RC (multiple-feedback) low-pass
  built from actual R/C component values, with tolerance and fault
  injection hooks.
* :mod:`~repro.dut.biquads` — a catalog of generic 2nd-order responses
  (LP/HP/BP/notch) for examples and tests.
* :mod:`~repro.dut.nonlinear` — static polynomial nonlinearity wrappers
  (Wiener/Hammerstein) used for the harmonic-distortion experiment.
* :mod:`~repro.dut.faults` — parametric fault models for the BIST
  application layer.
* :mod:`~repro.dut.population` — whole device lots as one stacked
  population (the vectorized backend's DUT model), bit-identical to
  the per-device calls.
"""

from .base import DUT, PassthroughDUT
from .statespace import StateSpaceDUT
from .active_rc import ActiveRCLowpass, FilterComponents, design_mfb_lowpass
from .biquads import bandpass, highpass, lowpass, notch, first_order_lowpass
from .nonlinear import (
    HammersteinDUT,
    PolynomialNonlinearity,
    WienerDUT,
    polynomial_for_distortion,
)
from .faults import (
    CatastrophicFault,
    Fault,
    MultiFault,
    ParametricFault,
    catastrophic_catalog,
    fault_catalog,
    full_catalog,
)

__all__ = [
    "DUT",
    "PassthroughDUT",
    "StateSpaceDUT",
    "ActiveRCLowpass",
    "FilterComponents",
    "design_mfb_lowpass",
    "lowpass",
    "highpass",
    "bandpass",
    "notch",
    "first_order_lowpass",
    "PolynomialNonlinearity",
    "WienerDUT",
    "HammersteinDUT",
    "polynomial_for_distortion",
    "Fault",
    "ParametricFault",
    "CatastrophicFault",
    "MultiFault",
    "fault_catalog",
    "catastrophic_catalog",
    "full_catalog",
]
