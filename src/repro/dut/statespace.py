"""Continuous-time LTI device with exact zero-order-hold simulation.

The continuous system ``x' = A x + B u``, ``y = C x + D u`` is advanced on
the evaluator clock using the exact matrix-exponential ZOH discretization
``Ad = expm(A T)``, ``Bd = (integral_0^T expm(A tau) dtau) B`` (computed
via the standard augmented-matrix exponential).  Because the stimulus is a
held staircase — constant within each master-clock period by construction
— this is an *exact* simulation of the analog response at the sample
instants, not a numerical approximation.

Output convention: ``y[n]`` is taken at the sample instant *before* the
interval's state update, i.e. ``y[n] = C x(t_n) + D u[n]``.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter, ss2tf

from ..errors import ConfigError
from ..signals.waveform import Waveform
from .base import DUT
from .population import LTIPopulation, zoh_discretize


class StateSpaceDUT(DUT):
    """A DUT defined by continuous state-space matrices.

    Parameters
    ----------
    a, b, c, d:
        Continuous-time matrices; ``b`` and ``c`` may be 1-D vectors for
        the single-input single-output case.  ``d`` is the scalar
        feedthrough.
    name:
        Report label.
    """

    def __init__(self, a, b, c, d: float = 0.0, name: str = "state-space DUT") -> None:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        c = np.asarray(c, dtype=float).reshape(-1)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ConfigError(f"A must be square, got shape {a.shape}")
        if b.shape != (n,) or c.shape != (n,):
            raise ConfigError(
                f"B and C must have length {n}, got {b.shape} and {c.shape}"
            )
        eigs = np.linalg.eigvals(a)
        if np.any(eigs.real >= 0):
            raise ConfigError(
                f"continuous system must be strictly stable; eigenvalues {eigs}"
            )
        self.a = a
        self.b = b
        self.c = c
        self.d = float(d)
        self.name = name
        self._x = np.zeros(n)
        self._disc_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._tf_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_transfer_function(
        cls, num, den, name: str = "transfer-function DUT"
    ) -> "StateSpaceDUT":
        """Build from an s-domain transfer function (controllable form).

        ``num``/``den`` are polynomial coefficients, highest power first.
        The transfer function must be proper (deg num <= deg den).
        """
        num = np.atleast_1d(np.asarray(num, dtype=float))
        den = np.atleast_1d(np.asarray(den, dtype=float))
        num = np.trim_zeros(num, "f")
        den = np.trim_zeros(den, "f")
        if len(den) < 2:
            raise ConfigError("denominator must have degree >= 1")
        if len(num) > len(den):
            raise ConfigError("transfer function must be proper")
        if len(num) == 0:
            raise ConfigError("numerator is zero")
        den0 = den[0]
        den = den / den0
        num = num / den0
        n = len(den) - 1
        num_full = np.concatenate([np.zeros(n + 1 - len(num)), num])
        d = num_full[0]
        # Controllable canonical form.
        a = np.zeros((n, n))
        a[0, :] = -den[1:]
        if n > 1:
            a[1:, :-1] = np.eye(n - 1)
        b = np.zeros(n)
        b[0] = 1.0
        c = num_full[1:] - d * den[1:]
        return cls(a, b, c, d, name=name)

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of states."""
        return self.a.shape[0]

    def reset(self) -> None:
        self._x = np.zeros(self.order)

    def state_space(self) -> "StateSpaceDUT":
        return self

    def _discretize(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        key = round(dt, 18)
        cached = self._disc_cache.get(key)
        if cached is not None:
            return cached
        ad, bd = zoh_discretize(self.a, self.b, dt)
        self._disc_cache[key] = (ad, bd)
        return ad, bd

    def _zoh_transfer(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Cached z-domain ``(num, den)`` of the exact ZOH discretization.

        A 2-state system is discretized as a population of one
        (:meth:`repro.dut.population.LTIPopulation.zoh_transfer`), the
        routine the vectorized backend runs on whole lots — so both
        backends share one discretization.  Other orders use
        :func:`scipy.signal.ss2tf`, which that routine reproduces bit
        for bit.
        """
        key = round(dt, 18)
        cached = self._tf_cache.get(key)
        if cached is not None:
            return cached
        if self.order == 2:
            num, den = LTIPopulation(
                self.a[None], self.b[None], self.c, self.d
            ).zoh_transfer(dt)
            result = (num[0], den[0])
        else:
            ad, bd = self._discretize(dt)
            num, den = ss2tf(
                ad, bd.reshape(-1, 1), self.c.reshape(1, -1), [[self.d]]
            )
            result = (num[0], den)
        self._tf_cache[key] = result
        return result

    def batch_response(self, samples: np.ndarray, sample_rate: float) -> np.ndarray:
        """Zero-state ZOH output samples, final state not recovered.

        Sample-identical to :meth:`process` from a reset state (the same
        ``ss2tf`` + :func:`scipy.signal.lfilter` evaluation), but skips
        the state-recovery replay the stateful contract pays for — the
        population backend measures each device from reset every time
        and never observes the carried state.
        """
        num, den = self._zoh_transfer(1.0 / sample_rate)
        return lfilter(num, den, np.asarray(samples, dtype=float))

    def process(self, waveform: Waveform) -> Waveform:
        """Exact ZOH response to a (held) input waveform.

        From a zero initial state (the common case: ``reset()`` then one
        run) the response is computed via the equivalent z-domain transfer
        function with :func:`scipy.signal.lfilter` — identical output at
        C speed.  With a non-zero carried-over state the explicit
        state-space recursion is used.
        """
        ad, bd = self._discretize(waveform.dt)
        u = waveform.samples
        n = len(u)
        if not np.any(self._x):
            num, den = self._zoh_transfer(waveform.dt)
            out = lfilter(num, den, u)
            # Recover the final physical state for contract consistency:
            # replay only matters for subsequent stateful calls, which are
            # rare; do it only when the caller could observe it (short
            # tail replay would be wrong, so recompute exactly).
            x = np.zeros(self.order)
            if n:
                # Final state via the lfilter of each state component.
                eye = np.eye(self.order)
                for j in range(self.order):
                    numj, denj = ss2tf(ad, bd.reshape(-1, 1), eye[j].reshape(1, -1), [[0.0]])
                    # state x[n] after consuming all inputs = one more update
                    xj = lfilter(numj[0], denj, u)
                    x[j] = xj[-1]
                x = ad @ x + bd * u[-1]
            self._x = x
            return Waveform(out, waveform.sample_rate, waveform.t0)
        x = self._x
        c = self.c
        d = self.d
        out = np.empty(n)
        for i in range(n):
            ui = u[i]
            out[i] = c @ x + d * ui
            x = ad @ x + bd * ui
        self._x = x
        return Waveform(out, waveform.sample_rate, waveform.t0)

    def frequency_response(self, frequencies) -> np.ndarray:
        frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
        out = np.empty(len(frequencies), dtype=complex)
        eye = np.eye(self.order)
        for i, f in enumerate(frequencies):
            s = 2j * np.pi * f
            out[i] = self.c @ np.linalg.solve(s * eye - self.a, self.b) + self.d
        return out

    def dc_gain(self) -> float:
        """Response at DC."""
        return float(self.frequency_response([0.0])[0].real)

    def settling_time(self, tolerance: float = 1e-6) -> float:
        """Time for the slowest mode to decay to ``tolerance`` (seconds).

        The analyzer discards this much lead-in before integrating
        signatures, mirroring the lab practice of waiting for the DUT to
        reach steady state.
        """
        if not 0 < tolerance < 1:
            raise ConfigError(f"tolerance must be in (0, 1), got {tolerance!r}")
        eigs = np.linalg.eigvals(self.a)
        slowest = np.min(-eigs.real)
        return float(np.log(1.0 / tolerance) / slowest)
