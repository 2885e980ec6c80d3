"""Tests for the fixed-step integrators (RK4, Euler, Euler-Maruyama)."""

import numpy as np
import pytest

from repro import kernels
from repro.core import (BottleneckPotential, ConstantInteractionNoise,
                        GaussianJitter, PhysicalOscillatorModel, ring,
                        simulate_grid)
from repro.integrate import solve_euler, solve_euler_maruyama, solve_rk4


def decay(t, y):
    return -y


class TestRK4:
    def test_exact_for_exponential(self):
        sol = solve_rk4(decay, (0.0, 2.0), [1.0], dt=0.01)
        np.testing.assert_allclose(sol.y_end[0], np.exp(-2.0), rtol=1e-8)

    def test_fourth_order_convergence(self):
        errors = []
        for dt in (0.2, 0.1, 0.05):
            sol = solve_rk4(decay, (0.0, 1.0), [1.0], dt=dt)
            errors.append(abs(sol.y_end[0] - np.exp(-1.0)))
        # Halving dt must reduce the error by ~2^4 = 16.
        assert errors[0] / errors[1] > 10.0
        assert errors[1] / errors[2] > 10.0

    def test_lands_exactly_on_t_end(self):
        sol = solve_rk4(decay, (0.0, 1.0), [1.0], dt=0.3)   # 1.0 % 0.3 != 0
        assert sol.ts[-1] == pytest.approx(1.0, abs=1e-12)

    def test_mesh_is_uniform_except_final(self):
        sol = solve_rk4(decay, (0.0, 1.0), [1.0], dt=0.25)
        np.testing.assert_allclose(np.diff(sol.ts), 0.25, atol=1e-12)

    def test_vector_state(self):
        sol = solve_rk4(lambda t, y: np.array([y[1], -y[0]]),
                        (0.0, np.pi), [1.0, 0.0], dt=0.001)
        np.testing.assert_allclose(sol.y_end, [-1.0, 0.0], atol=1e-8)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            solve_rk4(decay, (0.0, 1.0), [1.0], dt=0.0)

    def test_rejects_reversed_span(self):
        with pytest.raises(ValueError, match="t_end > t0"):
            solve_rk4(decay, (1.0, 0.0), [1.0], dt=0.1)

    def test_callback_invoked_per_step(self):
        calls = []
        solve_rk4(decay, (0.0, 1.0), [1.0], dt=0.1,
                  step_callback=lambda t, y: calls.append(t))
        assert len(calls) == 10

    def test_stats_count_rhs_evaluations(self):
        sol = solve_rk4(decay, (0.0, 1.0), [1.0], dt=0.1)
        assert sol.stats.n_rhs == 4 * sol.stats.n_steps


class TestEuler:
    def test_first_order_convergence(self):
        errors = []
        for dt in (0.1, 0.05, 0.025):
            sol = solve_euler(decay, (0.0, 1.0), [1.0], dt=dt)
            errors.append(abs(sol.y_end[0] - np.exp(-1.0)))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.2)

    def test_matches_hand_computation(self):
        sol = solve_euler(decay, (0.0, 0.2), [1.0], dt=0.1)
        # y1 = 1 - 0.1 = 0.9; y2 = 0.9 - 0.09 = 0.81
        np.testing.assert_allclose(sol.ys[:, 0], [1.0, 0.9, 0.81],
                                   atol=1e-14)


class TestEulerMaruyama:
    def test_zero_noise_reduces_to_euler(self, rng):
        sol_em = solve_euler_maruyama(decay, lambda t, y: np.zeros(1),
                                      (0.0, 1.0), [1.0], dt=0.05, rng=rng)
        sol_e = solve_euler(decay, (0.0, 1.0), [1.0], dt=0.05)
        np.testing.assert_allclose(sol_em.ys, sol_e.ys, atol=1e-14)

    def test_reproducible_with_seed(self):
        kw = dict(dt=0.05)
        a = solve_euler_maruyama(decay, lambda t, y: np.full(1, 0.3),
                                 (0.0, 1.0), [1.0],
                                 rng=np.random.default_rng(5), **kw)
        b = solve_euler_maruyama(decay, lambda t, y: np.full(1, 0.3),
                                 (0.0, 1.0), [1.0],
                                 rng=np.random.default_rng(5), **kw)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_variance_growth_of_brownian_motion(self):
        # dy = 0 dt + 1 dW: Var[y(T)] = T.
        finals = []
        for seed in range(200):
            sol = solve_euler_maruyama(
                lambda t, y: np.zeros(1), lambda t, y: np.ones(1),
                (0.0, 1.0), [0.0], dt=0.05,
                rng=np.random.default_rng(seed))
            finals.append(sol.y_end[0])
        assert np.var(finals) == pytest.approx(1.0, rel=0.3)

    def test_mean_of_ou_process(self):
        # dy = -y dt + 0.5 dW has zero-mean stationary distribution.
        finals = []
        for seed in range(200):
            sol = solve_euler_maruyama(
                decay, lambda t, y: np.full(1, 0.5),
                (0.0, 5.0), [2.0], dt=0.05,
                rng=np.random.default_rng(seed))
            finals.append(sol.y_end[0])
        assert abs(np.mean(finals)) < 0.15


class TestCompiledStagePasses:
    """The march's stage helpers give the NumPy formulas' bits: a
    campaign solved through cc's loops equals the same campaign with the
    helpers forced to their NumPy branch."""

    @staticmethod
    def _campaign(method, **model_kw):
        noise = GaussianJitter(std=0.05, refresh=0.5)
        models = [PhysicalOscillatorModel(
            topology=ring(300, (1, -1, 2, -2, 5)),
            potential=BottleneckPotential(sigma), t_comp=0.9, t_comm=0.1,
            local_noise=noise, **model_kw) for sigma in (0.5, 1.0, 2.0)]
        trajs = simulate_grid(models, 3.0, seeds=[1, 2, 3], method=method,
                              dt=0.01)
        return np.stack([tr.thetas for tr in trajs])

    @pytest.mark.parametrize("method, model_kw", [
        pytest.param("rk4", {}, id="rk4"),
        pytest.param("euler", {}, id="euler"),
        pytest.param("rk4", {"interaction_noise":
                             ConstantInteractionNoise(tau=0.05)}, id="dde"),
    ])
    def test_campaign_bits_match_numpy_branch(self, monkeypatch, method,
                                              model_kw):
        calls = []
        stage = kernels.cc.rk4_stage

        def counted(*args):
            calls.append(1)
            return stage(*args)

        monkeypatch.setattr(kernels.cc, "rk4_stage", counted)
        compiled = self._campaign(method, **model_kw)
        if kernels.cc_available():
            assert calls, "the compiled stage loop never ran"
        monkeypatch.setattr(kernels, "_compiled", lambda y: False)
        np.testing.assert_array_equal(compiled,
                                      self._campaign(method, **model_kw))
