"""Device populations: one circuit, many component vectors.

A Monte-Carlo lot, a fault catalog and a sweep grid all measure the
*same* circuit at many parameter points.  :class:`LTIPopulation` holds
such a set of 2-state LTI devices as stacked arrays — ``(n, 2, 2)`` A,
``(n, 2)`` B, and one shared C and D — and answers every question the
analyzer asks of a device for the whole stack at once:

* :meth:`LTIPopulation.zoh_transfer` — the exact zero-order-hold
  discretization as z-domain ``(num, den)`` rows;
* :meth:`LTIPopulation.settling_time` — the analyzer's settling lead-in;
* :meth:`LTIPopulation.gain_db_at` — the analytic (golden) gain;
* :meth:`LTIPopulation.windowed_responses` — per-row ``lfilter``
  responses to held stimuli.

Bit-identity contract
---------------------
Every stacked result is bit-identical to the per-device call it
replaces, by construction rather than by tolerance:

* The ZOH step is one stacked :func:`scipy.linalg.expm`, which runs the
  very same per-slice Padé code as a 2-D call.
* :func:`scipy.signal.ss2tf` builds ``den = np.poly(Ad)`` and
  ``num = np.poly(Ad - Bd C) + (D - 1) den``.  ``np.poly`` takes the
  LAPACK eigenvalues and multiplies out ``[1, -e0] * [1, -e1]`` with
  ``np.convolve``; for two roots that is one sum and one complex
  product.  Stacked ``eigvals`` runs the same ``geev`` per matrix, and
  the product is spelled out as ``(ar*br - ai*bi) + i(ar*bi + ai*br)``,
  the arithmetic ``convolve``'s complex dot performs.  Real roots are
  the ``ai = bi = 0`` case of the same expression.
* Settling times and golden gains reuse the per-device expressions
  elementwise (stacked ``eigvals`` and ``solve`` run the same LAPACK
  routine per matrix).

:class:`~repro.dut.statespace.StateSpaceDUT` discretizes 2-state
systems through this module as a population of one, so the reference
and the vectorized backends share one discretization routine.

Devices that are not 2-state LTI (nonlinear wrappers, the calibration
bypass, higher-order systems) form a :class:`DeviceList`, which answers
the same questions one device at a time through each device's own
methods.  :func:`population_of` picks the form.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt
from scipy.linalg import expm
from scipy.signal import lfilter

from ..errors import ConfigError

if TYPE_CHECKING:
    from .base import DUT
    from .statespace import StateSpaceDUT

#: Column order of a component array: the MFB low-pass's parts.
MFB_COMPONENTS = ("r1", "r2", "r3", "c1", "c2")


def mfb_state_matrices(components: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Continuous A ``(n, 2, 2)`` and B ``(n, 2)`` of MFB low-passes.

    ``components`` is an ``(n, 5)`` array in :data:`MFB_COMPONENTS`
    order (ohms and farads).  The one place the MFB nodal equations are
    written down: :class:`~repro.dut.active_rc.ActiveRCLowpass` builds
    its core from a one-row array.
    """
    values = np.asarray(components, dtype=float)
    r1, r2, r3, c1, c2 = values.T
    g1 = 1.0 / r1
    g2 = 1.0 / r2
    g3 = 1.0 / r3
    a = np.zeros((len(values), 2, 2))
    a[:, 0, 0] = -(g1 + g2 + g3) / c1
    a[:, 0, 1] = g2 / c1
    a[:, 1, 0] = -g3 / c2
    b = np.zeros((len(values), 2))
    b[:, 0] = g1 / c1
    return a, b


def zoh_discretize(
    a: npt.ArrayLike, b: npt.ArrayLike, dt: npt.ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ZOH ``(Ad, Bd)`` of (stacked) continuous systems.

    ``a`` is ``(..., k, k)``, ``b`` is ``(..., k)`` and ``dt`` a scalar
    or an array broadcasting against the stack.  One augmented-matrix
    exponential ``expm([[A dt, B dt], [0, 0]])`` per system, taken as a
    single stacked :func:`scipy.linalg.expm` call.
    """
    a_ = np.asarray(a, dtype=float)
    b_ = np.asarray(b, dtype=float)
    dt_ = np.asarray(dt, dtype=float)
    k = a_.shape[-1]
    block = np.zeros(np.broadcast_shapes(a_.shape[:-2], dt_.shape) + (k + 1, k + 1))
    block[..., :k, :k] = a_ * dt_[..., None, None]
    block[..., :k, k] = b_ * dt_[..., None]
    ed = expm(block)
    return ed[..., :k, :k], ed[..., :k, k]


def _poly2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.poly`` of stacked 2x2 matrices: the ``s^1`` and ``s^0`` rows.

    ``np.poly`` convolves ``[1, -e0]`` with ``[1, -e1]``, giving
    ``[1, r0 + r1, r0 * r1]`` with ``r = -e``.  The sum is exact in any
    order; the product is the complex product ``convolve`` computes,
    whose real part (the coefficient, since a real matrix's roots come
    in exact conjugate pairs) is ``ar*br - ai*bi``.  For real roots
    ``ai*bi`` is a signed zero and the expression is the real product.
    """
    r = -np.linalg.eigvals(m).astype(complex)
    ar, ai = r[:, 0].real, r[:, 0].imag
    br, bi = r[:, 1].real, r[:, 1].imag
    return ar + br, ar * br - ai * bi


class LTIPopulation:
    """A stack of 2-state continuous LTI devices sharing C and D.

    Parameters
    ----------
    a, b:
        ``(n, 2, 2)`` state and ``(n, 2)`` input matrices, one row per
        device.
    c, d:
        The shared output row ``(2,)`` and scalar feedthrough.
    responds_continuous:
        See :attr:`repro.dut.base.DUT.responds_continuous`.
    """

    def __init__(
        self,
        a: npt.ArrayLike,
        b: npt.ArrayLike,
        c: npt.ArrayLike,
        d: float = 0.0,
        responds_continuous: bool = True,
    ) -> None:
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float).reshape(-1)
        n = len(self.a)
        shapes = (self.a.shape, self.b.shape, self.c.shape)
        if shapes != ((n, 2, 2), (n, 2), (2,)):
            raise ConfigError(
                f"population matrices must be A (n, 2, 2), B (n, 2), C (2,); "
                f"got {shapes[0]}, {shapes[1]}, {shapes[2]}"
            )
        if n == 0:
            raise ConfigError("population is empty")
        eigs = np.linalg.eigvals(self.a)
        unstable = np.flatnonzero(np.any(eigs.real >= 0, axis=1))
        if len(unstable):
            i = int(unstable[0])
            raise ConfigError(
                f"continuous system must be strictly stable; device {i} "
                f"has eigenvalues {eigs[i]}"
            )
        self.d = float(d)
        self.responds_continuous: np.ndarray = np.full(n, bool(responds_continuous))
        self._slowest: np.ndarray = np.min(-eigs.real, axis=1)

    @classmethod
    def from_components(
        cls, components: npt.ArrayLike, polarity: int = 1
    ) -> "LTIPopulation":
        """MFB low-passes from an ``(n, 5)`` component array.

        The stacked form of :class:`~repro.dut.active_rc.ActiveRCLowpass`
        (same matrices, same polarity convention: the MFB output
        inverts, and ``polarity`` folds the board's sign into C).
        """
        if polarity not in (1, -1):
            raise ConfigError(f"polarity must be +1 or -1, got {polarity!r}")
        a, b = mfb_state_matrices(components)
        return cls(a, b, [0.0, -float(polarity)])

    @classmethod
    def from_duts(cls, duts: Sequence["DUT"]) -> "LTIPopulation | None":
        """Stack devices whose exact core is a 2-state LTI system.

        ``None`` when any device has no such core (see
        :meth:`repro.dut.base.DUT.state_space`) or the cores do not
        share C, D and ``responds_continuous``.
        """
        cores: list[StateSpaceDUT] = []
        for dut in duts:
            core = dut.state_space()
            if core is None or core.order != 2:
                return None
            cores.append(core)
        if not cores:
            return None
        first = cores[0]
        continuous = {bool(dut.responds_continuous) for dut in duts}
        if len(continuous) != 1 or any(
            not np.array_equal(core.c, first.c) or core.d != first.d
            for core in cores
        ):
            return None
        return cls(
            np.stack([core.a for core in cores]),
            np.stack([core.b for core in cores]),
            first.c,
            first.d,
            responds_continuous=continuous.pop(),
        )

    def __len__(self) -> int:
        return len(self.a)

    # ------------------------------------------------------------------
    def zoh_transfer(self, dt: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """z-domain ``(num, den)``, each ``(n, 3)``, of the exact ZOH.

        ``dt`` is one sample period or one per device.  Row ``i`` equals
        ``scipy.signal.ss2tf`` of device ``i``'s discretization bit for
        bit (see the module docstring).
        """
        ad, bd = zoh_discretize(self.a, self.b, dt)
        den1, den2 = _poly2(ad)
        num1, num2 = _poly2(ad - bd[:, :, None] * self.c)
        ones = np.ones(len(ad))
        den = np.stack([ones, den1, den2], axis=1)
        num: np.ndarray = np.stack([ones, num1, num2], axis=1) + (self.d - 1.0) * den
        return num, den

    def settling_time(self, tolerance: float = 1e-6) -> np.ndarray:
        """Per-device time for the slowest mode to decay to ``tolerance``."""
        if not 0 < tolerance < 1:
            raise ConfigError(f"tolerance must be in (0, 1), got {tolerance!r}")
        settle: np.ndarray = np.log(1.0 / tolerance) / self._slowest
        return settle

    def gain_db_at(self, frequencies: npt.ArrayLike) -> np.ndarray:
        """Analytic gain in dB, ``(n, len(frequencies))`` (golden values)."""
        freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
        eye = np.eye(2)
        rhs = self.b[:, :, None]
        c = self.c.astype(complex)
        out = np.empty((len(self), len(freqs)))
        for j, f in enumerate(freqs):
            s = 2j * np.pi * f
            x = np.linalg.solve(s * eye - self.a, rhs)[:, :, 0]
            gain = np.abs(x @ c + self.d)
            with np.errstate(divide="ignore"):
                out[:, j] = np.where(gain > 0, 20.0 * np.log10(gain), -np.inf)
        return out

    def windowed_responses(
        self,
        inputs: Sequence[np.ndarray],
        sample_rates: npt.ArrayLike,
        starts: npt.ArrayLike,
        length: int,
    ) -> np.ndarray:
        """Zero-state responses, row ``i`` cut to ``[starts[i], +length)``.

        Row ``i`` filters ``inputs[i]`` (held samples at
        ``sample_rates[i]``) with its own ZOH transfer function — the
        lean ``lfilter`` evaluation of
        :meth:`repro.dut.statespace.StateSpaceDUT.batch_response`.
        """
        rates = np.asarray(sample_rates, dtype=float)
        offsets = np.asarray(starts)
        num, den = self.zoh_transfer(1.0 / rates)
        out = np.empty((len(self), length))
        for i, samples in enumerate(inputs):
            start = int(offsets[i])
            out[i] = lfilter(num[i], den[i], samples)[start : start + length]
        return out


class DeviceList:
    """Any devices, answered one at a time by their own methods.

    The population form of a device list that does not stack (see
    :func:`population_of`): the slot questions the measurer asks
    (settling times and windowed responses), delegated per device.
    """

    def __init__(self, duts: Iterable["DUT"]) -> None:
        self.duts = list(duts)
        if not self.duts:
            raise ConfigError("population is empty")
        self.responds_continuous = np.array(
            [bool(dut.responds_continuous) for dut in self.duts]
        )
        self._settle: dict[float, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.duts)

    def settling_time(self, tolerance: float = 1e-6) -> np.ndarray:
        """Each device's own settling time (memoized per tolerance)."""
        if tolerance not in self._settle:
            self._settle[tolerance] = np.array(
                [dut.settling_time(tolerance) for dut in self.duts]
            )
        return self._settle[tolerance]

    def windowed_responses(
        self,
        inputs: Sequence[np.ndarray],
        sample_rates: npt.ArrayLike,
        starts: npt.ArrayLike,
        length: int,
    ) -> np.ndarray:
        rates = np.asarray(sample_rates, dtype=float)
        offsets = np.asarray(starts)
        out = np.empty((len(self), length))
        for i, (dut, samples) in enumerate(zip(self.duts, inputs)):
            start = int(offsets[i])
            response = dut.batch_response(samples, float(rates[i]))
            out[i] = response[start : start + length]
        return out


def population_of(duts: Iterable["DUT"]) -> LTIPopulation | DeviceList:
    """The stacked form of ``duts`` when they stack, else a device list."""
    duts = list(duts)
    stacked = LTIPopulation.from_duts(duts)
    return stacked if stacked is not None else DeviceList(duts)
