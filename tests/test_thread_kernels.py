"""Thread-parallel kernel suite: bit-equality with serial, knob plumbing.

The PR-5 contract: the in-kernel thread count (``threads=`` /
``POM_NUM_THREADS``) steers wall-clock only — the compiled ``cc``
kernel (single and batched, edge-list and ring entries, on ring, torus
and random topologies) must produce *bit-identical* results for any
thread count, because each thread accumulates disjoint output rows in
the serial per-row order.  Also covers the one-time ``CustomPotential``
compiled-kernel fallback warning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.backends import make_batched_backend
from repro.core import (
    BottleneckPotential,
    CustomPotential,
    GaussianJitter,
    KuramotoPotential,
    LinearPotential,
    PhysicalOscillatorModel,
    TanhPotential,
    random_topology,
    ring,
    simulate,
    torus2d,
)

needs_cc = pytest.mark.skipif(not kernels.cc_available(),
                              reason="no working C compiler")
COMPILED = [pytest.param("cc", marks=needs_cc)]

TOPOLOGIES = [
    pytest.param(lambda: ring(96, (1, -1)), id="ring"),
    pytest.param(lambda: ring(97, (1, -1, -2)), id="ring-asym"),
    pytest.param(lambda: torus2d(8, 7), id="torus"),
    pytest.param(lambda: random_topology(
        60, 0.08, rng=np.random.default_rng(5)), id="edges"),
]

POTENTIALS = [
    pytest.param(lambda: TanhPotential(1.3), id="tanh"),
    pytest.param(lambda: BottleneckPotential(0.8), id="bottleneck"),
    pytest.param(lambda: KuramotoPotential(), id="kuramoto"),
    pytest.param(lambda: LinearPotential(0.6), id="linear"),
]


def _model(topo, pot, **kw):
    return PhysicalOscillatorModel(topology=topo, potential=pot,
                                   t_comp=0.9, t_comm=0.1, **kw)


def _realize(topo, pot, seed=0, **kw):
    return _model(topo, pot).realize(10.0, rng=seed, **kw)


# ----------------------------------------------------------------------
# knob resolution
# ----------------------------------------------------------------------
class TestResolveThreads:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(kernels.THREADS_ENV_VAR, raising=False)
        assert kernels.resolve_threads() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "8")
        assert kernels.resolve_threads(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "5")
        assert kernels.resolve_threads() == 5

    @pytest.mark.parametrize("bad", ["0", "-2", "four", "2.5"])
    def test_invalid_env_raises(self, monkeypatch, bad):
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, bad)
        with pytest.raises(ValueError, match=kernels.THREADS_ENV_VAR):
            kernels.resolve_threads()

    def test_invalid_explicit_raises(self):
        with pytest.raises(ValueError):
            kernels.resolve_threads(0)

    def test_read_at_call_time(self, monkeypatch):
        # The worker-initializer pinning contract: no import-time cache.
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "2")
        assert kernels.resolve_threads() == 2
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "6")
        assert kernels.resolve_threads() == 6


# ----------------------------------------------------------------------
# bit-equality: threads=K vs serial
# ----------------------------------------------------------------------
class TestThreadInvariance:
    @pytest.mark.parametrize("kernel", COMPILED)
    @pytest.mark.parametrize("topo_f", TOPOLOGIES)
    @pytest.mark.parametrize("pot_f", POTENTIALS)
    def test_single_state_bits(self, kernel, topo_f, pot_f):
        topo, pot = topo_f(), pot_f()
        rng = np.random.default_rng(11)
        serial = _realize(topo, pot, kernel=kernel, threads=1)
        parallel = _realize(topo, pot, kernel=kernel, threads=4)
        for _ in range(5):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, topo.n)
            np.testing.assert_array_equal(serial.coupling_term(0.0, theta),
                                          parallel.coupling_term(0.0, theta))

    @pytest.mark.parametrize("kernel", COMPILED)
    @pytest.mark.parametrize("topo_f", TOPOLOGIES)
    def test_batched_bits(self, kernel, topo_f):
        topo = topo_f()
        # Mixed potential families: per-member coefficient dispatch.
        members = [_realize(topo, TanhPotential(1.0 + 0.1 * i), seed=i)
                   for i in range(3)]
        members += [_realize(topo, BottleneckPotential(0.9), seed=7)]
        serial = make_batched_backend(members, kernel=kernel, threads=1)
        parallel = make_batched_backend(members, kernel=kernel, threads=4)
        rng = np.random.default_rng(13)
        for _ in range(5):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, (4, topo.n))
            np.testing.assert_array_equal(
                serial.coupling(0.0, theta), parallel.coupling(0.0, theta))

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_fork_after_parallel_region(self, kernel):
        # libgomp is not fork-safe: a process forked after this one ran a
        # parallel region must still finish its own threads=2 call (run
        # serially, same bits) instead of hanging in it.
        import multiprocessing
        import os

        topo = ring(96, (1, -1))
        theta = np.random.default_rng(29).uniform(-np.pi, np.pi, topo.n)
        want = _realize(topo, TanhPotential(), kernel=kernel,
                        threads=2).coupling_term(0.0, theta)

        def child():
            got = _realize(topo, TanhPotential(), kernel=kernel,
                           threads=2).coupling_term(0.0, theta)
            os._exit(0 if np.array_equal(got, want) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(30)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_odd_thread_counts(self, kernel):
        topo = ring(101, (1, -1, 2))
        be = {t: _realize(topo, TanhPotential(), kernel=kernel, threads=t)
              for t in (1, 3, 7, 16)}
        theta = np.random.default_rng(17).uniform(-np.pi, np.pi, topo.n)
        ref = be[1].coupling_term(0.0, theta)
        for t in (3, 7, 16):
            np.testing.assert_array_equal(ref, be[t].coupling_term(0.0, theta))

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_torus_matches_numpy(self, kernel):
        # The edge-list entry on a torus against the reference segment sum.
        topo = torus2d(9, 6)
        pot = BottleneckPotential(0.7)
        compiled = _realize(topo, pot, kernel=kernel, threads=2)
        reference = _realize(topo, pot, kernel="numpy")
        theta = np.random.default_rng(19).uniform(-np.pi, np.pi, topo.n)
        np.testing.assert_allclose(compiled.coupling_term(0.0, theta),
                                   reference.coupling_term(0.0, theta),
                                   rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_concurrent_python_threads_match_serial(self, kernel):
        # The extension's run() releases the GIL during a kernel call, so
        # Python threads run kernels at once: each needs its own scratch.
        # Two threads share each backend and step through different noise
        # intervals, so they also race on its one-slot frequency memo.
        import sys
        import threading

        def members(topo, pot):
            return [_model(topo, pot, local_noise=GaussianJitter(
                std=0.05, refresh=0.5)).realize(10.0, rng=i)
                for i in range(2)]

        backends = [
            make_batched_backend(members(ring(2000, (1, -1, 3)),
                                         TanhPotential()), kernel=kernel),
            make_batched_backend(members(random_topology(
                400, 0.05, rng=np.random.default_rng(3)),
                BottleneckPotential(0.8)), kernel=kernel),
        ]
        rng = np.random.default_rng(23)
        jobs = []   # (backend, [(t, theta, serial rhs)]) per thread
        for k in range(4):
            be = backends[k % 2]
            cases = []
            for _ in range(6):
                t = float(rng.uniform(0.0, 10.0))
                th = rng.uniform(-np.pi, np.pi, (2, be.n))
                cases.append((t, th, be.rhs(t, th).copy()))
            jobs.append((be, cases))
        start = threading.Barrier(len(jobs))
        mismatches = []

        def worker(be, cases):
            start.wait()
            for _ in range(30):
                for t, th, want in cases:
                    if not np.array_equal(be.rhs(t, th), want):
                        mismatches.append(t)

        threads = [threading.Thread(target=worker, args=job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert mismatches == []

    @needs_cc
    @pytest.mark.parametrize("shape", [(1, 65), (3, 10_000), (8, 10_000)])
    def test_mean_cos_sin_bits(self, shape):
        # The order-parameter reduction splits rows over threads, never
        # a row: any team size, one larger than the row count included,
        # gives the serial bits.
        from repro.kernels.cc import mean_cos_sin

        theta = np.random.default_rng(31).uniform(-50.0, 50.0, shape)
        want = mean_cos_sin(theta, np.empty((2, shape[0])), 1)
        for threads in (2, 3, 16):
            got = mean_cos_sin(theta, np.empty((2, shape[0])), threads)
            np.testing.assert_array_equal(got, want)

    @needs_cc
    def test_mean_cos_sin_after_fork(self):
        # A child forked after a parallel reduction must still return
        # from its own threads=2 call (run serially, same bits).
        import multiprocessing
        import os

        from repro.kernels.cc import mean_cos_sin

        theta = np.random.default_rng(37).uniform(-np.pi, np.pi, (4, 500))
        want = mean_cos_sin(theta, np.empty((2, 4)), 2)

        def child():
            got = mean_cos_sin(theta, np.empty((2, 4)), 2)
            os._exit(0 if np.array_equal(got, want) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(30)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0

    @needs_cc
    def test_simulate_end_to_end_bits(self):
        model = _model(ring(64, (1, -1)), TanhPotential())
        t1 = simulate(model, 5.0, seed=3, kernel="cc", threads=1)
        t4 = simulate(model, 5.0, seed=3, kernel="cc", threads=4)
        np.testing.assert_array_equal(t1.thetas, t4.thetas)

    @needs_cc
    def test_env_knob_reaches_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "3")
        be = make_batched_backend(
            [_realize(ring(32, (1, -1)), TanhPotential())], kernel="cc")
        assert be.threads == 3
        assert be.describe()["threads"] == 3


# ----------------------------------------------------------------------
# CustomPotential compiled-kernel fallback warning
# ----------------------------------------------------------------------
class TestCoefficientFallbackWarning:
    @pytest.fixture(autouse=True)
    def _reset_once_flag(self, monkeypatch):
        monkeypatch.setattr(kernels, "_warned_coefficient_fallback", False)

    @needs_cc
    def test_warns_once_per_process(self):
        pot = CustomPotential(np.sin, name="sin")
        with pytest.warns(RuntimeWarning, match="CustomPotential"):
            make_batched_backend([_realize(ring(16, (1, -1)), pot)])
        # Second resolution stays silent (flag already tripped).
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            make_batched_backend([_realize(ring(16, (1, -1)), pot)])

    def test_no_warning_with_coefficients(self):
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            make_batched_backend(
                [_realize(ring(16, (1, -1)), TanhPotential())])
