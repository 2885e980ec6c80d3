"""Fixed-step integrators: classic RK4, explicit Euler, Euler-Maruyama.

RK4 is the cheap, predictable-cost method for noise injected as a
piecewise-constant process (the mesh aligns with the refresh interval)
and the reference of the adaptive solver's convergence tests.
Euler-Maruyama treats the process-local noise ``zeta_i(t)`` as genuine
white-noise forcing: for ``dy = f(t, y) dt + g(t, y) dW`` it steps
``y_{n+1} = y_n + f dt + g sqrt(dt) xi`` with ``xi ~ N(0, I)`` (strong
order 1/2, weak order 1).  The three solvers share one march
(:class:`_March`) and supply only their step update.  RK4's stage
arguments and update and Euler's step run through
:func:`repro.kernels.rk4_stage` / :func:`repro.kernels.rk4_update`: one
compiled memory pass each where cc loads, with the bits of the NumPy
formula they fall back to.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..kernels import rk4_stage, rk4_update
from .solution import Solution, SolverStats, record_stride

__all__ = ["solve_rk4", "solve_euler", "solve_euler_maruyama"]


class _March:
    """The mesh and the bookkeeping the fixed-step solvers share.

    Iterating yields ``(t, h)`` per step: ``dt`` long, the last one
    shortened to land exactly on ``t_end``.  The solver reports each new
    state through :meth:`advance`, which keeps the record stride, calls
    the observer and ``step_callback`` and counts the stats.  The step
    update stays in the solver's own loop, so its stage arrays live
    until the next step overwrites them; freeing them all at once on
    return from a step function let glibc trim and re-fault the heap
    every step (rk4 on an (8, 1e4) state, 2-core x86-64 host: ~8x the
    page faults, ~20% slower).  At that size an (R, N) array outgrows
    L2, so a step costs its number of passes over the state: each stage
    argument and the update is one pass (:func:`rk4_stage`,
    :func:`rk4_update`), where NumPy's operator chain takes two and
    seven.
    """

    def __init__(self, t_span: Sequence[float], y: np.ndarray, dt: float,
                 observer: Callable[[float, np.ndarray], None] | None,
                 step_callback: Callable[[float, np.ndarray], None] | None,
                 record: str | int) -> None:
        t0, t_end = float(t_span[0]), float(t_span[1])
        if not t_end > t0:
            raise ValueError(f"need t_end > t0, got {t_span!r}")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._stride = record_stride(record)
        self._observer, self._step_callback = observer, step_callback
        self._stats = SolverStats()
        self._dt = dt
        self._n_full = int(np.floor((t_end - t0) / dt + 1e-12))
        self._remainder = (t_end - t0) - self._n_full * dt
        self._n_steps = self._n_full + (1 if self._remainder > 1e-15 else 0)
        self._ts = [t0]
        self._ys = [y.copy()]
        if observer is not None:
            observer(t0, y)
        self._t = t0

    def __iter__(self):
        for i in range(self._n_steps):
            self._i = i
            self._h = self._dt if i < self._n_full else self._remainder
            yield self._t, self._h

    def advance(self, y: np.ndarray, n_rhs: int) -> None:
        """Take ``y`` as the state at the end of the current step."""
        t = self._t = self._t + self._h
        self._stats.n_rhs += n_rhs
        self._stats.n_steps += 1
        i, stride = self._i, self._stride
        if stride is None or (stride and (i + 1) % stride == 0) \
                or i == self._n_steps - 1:
            self._ts.append(t)
            self._ys.append(y.copy())
        if self._observer is not None:
            self._observer(t, y)
        if self._step_callback is not None:
            self._step_callback(t, y)

    def solution(self) -> Solution:
        return Solution(ts=np.asarray(self._ts), ys=np.asarray(self._ys),
                        stats=self._stats)


def solve_rk4(
    f: Callable[[float, np.ndarray], np.ndarray],
    t_span: Sequence[float],
    y0: Sequence[float] | np.ndarray,
    *,
    dt: float,
    step_callback: Callable[[float, np.ndarray], None] | None = None,
    observer: Callable[[float, np.ndarray], None] | None = None,
    record: str | int = "full",
) -> Solution:
    """Integrate ``dy/dt = f(t, y)`` with the classic RK4 scheme.

    Each stage argument ``y + c*k`` and the update ``y + (h/6)*(k1 +
    2k2 + 2k3 + k4)`` is one elementwise pass
    (:func:`repro.kernels.rk4_stage` / :func:`repro.kernels.rk4_update`)
    with the bits of the NumPy formula, so the result does not depend on
    whether cc loads.

    Parameters
    ----------
    f:
        Right-hand side.
    t_span:
        ``(t0, t_end)``, forward only.
    y0:
        Initial state.
    dt:
        Fixed step; the final step is shortened to land exactly on
        ``t_end``.
    step_callback:
        Called after each step with ``(t, y)``.
    observer:
        Streaming-metrics hook, called with ``(t, y)`` at ``t0`` and
        after *every* step regardless of ``record``.
    record:
        Which states the returned mesh retains: ``"full"`` | ``"none"``
        | stride ``K`` (see
        :func:`repro.integrate.solution.record_stride`).
    """
    y = np.asarray(y0, dtype=float).copy()
    march = _March(t_span, y, dt, observer, step_callback, record)
    for t, h in march:
        k1 = np.asarray(f(t, y), dtype=float)
        k2 = np.asarray(f(t + 0.5 * h, rk4_stage(y, k1, 0.5 * h)),
                        dtype=float)
        k3 = np.asarray(f(t + 0.5 * h, rk4_stage(y, k2, 0.5 * h)),
                        dtype=float)
        k4 = np.asarray(f(t + h, rk4_stage(y, k3, h)), dtype=float)
        y = rk4_update(y, k1, k2, k3, k4, h)
        march.advance(y, 4)
    return march.solution()


def solve_euler(
    f: Callable[[float, np.ndarray], np.ndarray],
    t_span: Sequence[float],
    y0: Sequence[float] | np.ndarray,
    *,
    dt: float,
    step_callback: Callable[[float, np.ndarray], None] | None = None,
    observer: Callable[[float, np.ndarray], None] | None = None,
    record: str | int = "full",
) -> Solution:
    """Integrate with the explicit (forward) Euler scheme, fixed step.

    ``observer`` is called with ``(t, y)`` at ``t0`` and after every
    step — the streaming-metrics hook, independent of which states
    ``record`` retains (``"full"`` | ``"none"`` | stride ``K``, see
    :func:`repro.integrate.solution.record_stride`).
    """
    y = np.asarray(y0, dtype=float).copy()
    march = _March(t_span, y, dt, observer, step_callback, record)
    for t, h in march:
        y = rk4_stage(y, np.asarray(f(t, y), dtype=float), h)
        march.advance(y, 1)
    return march.solution()


def solve_euler_maruyama(
    f: Callable[[float, np.ndarray], np.ndarray],
    g: Callable[[float, np.ndarray], np.ndarray],
    t_span: Sequence[float],
    y0: Sequence[float] | np.ndarray,
    *,
    dt: float,
    rng: np.random.Generator | Sequence | None = None,
    step_callback: Callable[[float, np.ndarray], None] | None = None,
    observer: Callable[[float, np.ndarray], None] | None = None,
    record: str | int = "full",
) -> Solution:
    """Integrate the Itô SDE ``dy = f dt + g dW`` (diagonal noise).

    Parameters
    ----------
    f:
        Drift term ``f(t, y) -> (n,)``.
    g:
        Diffusion term ``g(t, y) -> (n,)`` — per-component noise
        amplitude (diagonal diffusion; off-diagonal correlations are not
        needed for the paper's process-local jitter).
    dt:
        Fixed time step.
    rng:
        NumPy generator (or seed); a fresh default generator is used if
        omitted (pass one for reproducibility).  For batched ``(R, N)``
        states a *sequence* of R generators/seeds draws each member's
        Wiener increments from its own stream, in the exact order the
        sequential one-member-at-a-time solve would — a batched ensemble
        therefore reproduces the per-seed runs bit for bit.
    """
    y = np.asarray(y0, dtype=float).copy()
    if isinstance(rng, (list, tuple)):
        gens = [r if isinstance(r, np.random.Generator)
                else np.random.default_rng(r) for r in rng]
        if y.ndim < 2 or len(gens) != y.shape[0]:
            raise ValueError(
                f"got {len(gens)} generators for a state of shape "
                f"{y.shape}; a generator sequence needs one entry per "
                "member row"
            )

        def draw() -> np.ndarray:
            return np.stack([gen.standard_normal(y.shape[1:])
                             for gen in gens])
    else:
        gen = rng if isinstance(rng, np.random.Generator) \
            else np.random.default_rng(rng)

        def draw() -> np.ndarray:
            return gen.standard_normal(y.shape)

    march = _March(t_span, y, dt, observer, step_callback, record)
    for t, h in march:
        drift = np.asarray(f(t, y), dtype=float)
        diff = np.asarray(g(t, y), dtype=float)
        dw = draw() * np.sqrt(h)
        y = y + h * drift + diff * dw
        march.advance(y, 1)
    return march.solution()
