"""Regression tests for stacked parameter grids and stacked EM.

``simulate_grid`` (and ``grid_sweep`` and the claim sweeps on top of it)
stack all grid points into one (R, N) super-state; the reference is
:func:`repro.core.simulate`, one point at a time.  With a fixed-step
method every point performs exactly the same arithmetic as its
individual solve, so phases must agree to machine precision; the
adaptive method agrees within integrator tolerance.  The stacked
Euler-Maruyama must reproduce the sequential per-seed draws bit for bit.
"""

import numpy as np
import pytest

from repro.core import (
    BottleneckPotential,
    GaussianJitter,
    OneOffDelay,
    PhysicalOscillatorModel,
    TanhPotential,
    grid_sweep,
    ring,
    simulate,
    simulate_grid,
)
from repro.experiments import sweeps
from repro.experiments.sweeps import sweep_beta_kappa, sweep_sigma
from repro.viz.export import read_csv

N = 12
TOPO = ring(N, (1, -1))


def sigma_model(sigma, **kw):
    defaults = dict(
        topology=TOPO,
        potential=BottleneckPotential(sigma=float(sigma)),
        t_comp=0.9, t_comm=0.1,
        delays=(OneOffDelay(rank=2, t_start=2.0, delay=2.0),),
    )
    defaults.update(kw)
    return PhysicalOscillatorModel(**defaults)


def bk_model(bk):
    return PhysicalOscillatorModel(
        topology=TOPO, potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1, v_p_override=bk,
    )


class TestSimulateGrid:
    def test_rk4_grid_matches_looped_exactly(self):
        models = [sigma_model(s) for s in (0.5, 1.0, 2.0)]
        trajs = simulate_grid(models, 8.0, seeds=0, method="rk4", dt=0.02)
        for model, traj in zip(models, trajs):
            ref = simulate(model, 8.0, seed=0, method="rk4", dt=0.02)
            np.testing.assert_allclose(traj.thetas, ref.thetas,
                                       rtol=1e-12, atol=1e-12)
            assert traj.model is model

    def test_mixed_vp_grid_matches_looped_exactly(self):
        models = [bk_model(v) for v in (0.0, 0.5, 2.0, 8.0)]
        theta0 = np.random.default_rng(1).normal(0.0, 0.3, N)
        trajs = simulate_grid(models, 6.0, seeds=0, theta0=theta0,
                              method="rk4", dt=0.02)
        for model, traj in zip(models, trajs):
            ref = simulate(model, 6.0, theta0=theta0, seed=0,
                           method="rk4", dt=0.02)
            np.testing.assert_allclose(traj.thetas, ref.thetas,
                                       rtol=1e-12, atol=1e-12)

    def test_dopri_grid_within_tolerance(self):
        # Smooth models (no full-stall kink): two different adaptive
        # meshes agree to integrator tolerance everywhere.  The kinked
        # one-off-delay case is covered at machine precision by the
        # fixed-step tests above.
        models = [
            sigma_model(s, delays=(),
                        local_noise=GaussianJitter(std=0.02, refresh=0.5))
            for s in (0.8, 1.5)
        ]
        trajs = simulate_grid(models, 8.0, seeds=0, rtol=1e-8, atol=1e-10,
                              n_samples=300)
        for model, traj in zip(models, trajs):
            ref = simulate(model, 8.0, seed=0, rtol=1e-8, atol=1e-10,
                           n_samples=300)
            np.testing.assert_allclose(traj.thetas, ref.thetas,
                                       rtol=1e-4, atol=1e-5)

    def test_per_seed_grid(self):
        models = [sigma_model(s) for s in (0.5, 1.0)]
        trajs = simulate_grid(models, 4.0, seeds=(3, 7), method="rk4",
                              dt=0.02)
        assert [tr.seed for tr in trajs] == [3, 7]
        for model, seed, traj in zip(models, (3, 7), trajs):
            ref = simulate(model, 4.0, seed=seed, method="rk4", dt=0.02)
            np.testing.assert_allclose(traj.thetas, ref.thetas,
                                       rtol=1e-12, atol=1e-12)

    def test_em_grid_matches_looped_seed_for_seed(self):
        models = [
            sigma_model(s, local_noise=GaussianJitter(std=0.02, refresh=0.5),
                        delays=())
            for s in (0.5, 1.0, 2.0)
        ]
        trajs = simulate_grid(models, 4.0, seeds=0, method="em", dt=0.01)
        for model, traj in zip(models, trajs):
            ref = simulate(model, 4.0, seed=0, method="em", dt=0.01)
            np.testing.assert_allclose(traj.thetas, ref.thetas,
                                       rtol=1e-12, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one model"):
            simulate_grid([], 4.0)
        models = [sigma_model(1.0),
                  sigma_model(1.0, topology=ring(N + 2, (1, -1)))]
        with pytest.raises(ValueError, match="disagree on N"):
            simulate_grid(models, 4.0)
        with pytest.raises(ValueError, match="seeds"):
            simulate_grid([sigma_model(1.0)], 4.0, seeds=(1, 2))
        with pytest.raises(ValueError, match="positive"):
            simulate_grid([sigma_model(1.0)], 0.0)


class TestGridSweep:
    def test_batched_matches_looped_per_point(self):
        grid = {"sigma": [0.5, 1.0, 2.0]}
        res = grid_sweep(grid, model_factory=sigma_model, t_end=6.0,
                         method="rk4", dt=0.02)
        assert res.points == [{"sigma": s} for s in grid["sigma"]]
        for point, b in zip(res.points, res.results):
            ref = simulate(sigma_model(**point), 6.0, seed=0, method="rk4",
                           dt=0.02)
            np.testing.assert_allclose(b.thetas, ref.thetas,
                                       rtol=1e-12, atol=1e-12)

    def test_runner_mode_unchanged(self):
        res = grid_sweep({"x": [1.0, 2.0]}, lambda x: x * x)
        assert res.results == [1.0, 4.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            grid_sweep({"x": [1]}, lambda x: x, model_factory=sigma_model)
        with pytest.raises(ValueError, match="exactly one"):
            grid_sweep({"x": [1]})
        with pytest.raises(ValueError, match="method"):
            grid_sweep({"x": [1]}, lambda x: x, method="rk4")
        with pytest.raises(ValueError, match="t_end"):
            grid_sweep({"sigma": [1.0]}, model_factory=sigma_model)

    def test_as_table_write_csv_round_trip(self, tmp_path):
        res = grid_sweep({"sigma": [0.5, 1.0]}, model_factory=sigma_model,
                         t_end=4.0, method="rk4", dt=0.05)
        extractors = {
            "spread": lambda tr: float(np.ptp(tr.final_phases)),
            "seed": lambda tr: tr.seed,
        }
        table = res.as_table(extractors)
        assert list(table) == ["sigma", "spread", "seed"]
        path = res.write_csv(tmp_path / "grid.csv", extractors,
                             meta={"experiment": "test"})
        data = read_csv(path)
        np.testing.assert_allclose(data["sigma"], table["sigma"])
        np.testing.assert_allclose(data["spread"], table["spread"],
                                   rtol=1e-9)
        np.testing.assert_allclose(data["seed"], table["seed"])


class _SimulateLoop:
    """Stand-in for ``run_spec``: one ``simulate()`` per spec member."""

    def __init__(self, spec, **_orchestration):
        self._trajs = []
        for m in spec.members():
            model = m.build_model()
            self._trajs.append(simulate(model, m.t_end,
                                        theta0=m.build_theta0(model.n),
                                        seed=m.seed))

    def trajectories(self):
        return self._trajs


def _assert_same_bits(a, b):
    for name, value in vars(a).items():
        np.testing.assert_array_equal(value, getattr(b, name), err_msg=name)


class TestClaimSweepsReference:
    """``shard_members=1`` solves each claim sweep point by point; every
    result array must be the bits of a loop of ``simulate()`` over the
    sweep's spec members."""

    def test_sweep_sigma_point_by_point_is_simulate(self, monkeypatch):
        kw = dict(sigmas=[0.5, 1.5], n_ranks=12, t_end=40.0)
        one = sweep_sigma(shard_members=1, **kw)
        monkeypatch.setattr(sweeps, "run_spec", _SimulateLoop)
        _assert_same_bits(one, sweep_sigma(**kw))

    def test_sweep_beta_kappa_point_by_point_is_simulate(self, monkeypatch):
        kw = dict(values=[0.5, 4.0], n_ranks=12, t_end=40.0)
        one = sweep_beta_kappa(shard_members=1, **kw)
        monkeypatch.setattr(sweeps, "run_spec", _SimulateLoop)
        _assert_same_bits(one, sweep_beta_kappa(**kw))


class TestClaimSweepsBatched:
    def test_sweep_sigma_batched_matches_looped(self):
        kw = dict(sigmas=[0.5, 1.5], n_ranks=12, t_end=120.0)
        fast = sweep_sigma(**kw)
        slow = sweep_sigma(shard_members=1, **kw)
        np.testing.assert_allclose(fast.mean_abs_gap, slow.mean_abs_gap,
                                   rtol=5e-2, atol=5e-3)
        np.testing.assert_allclose(fast.phase_spread, slow.phase_spread,
                                   rtol=5e-2, atol=5e-3)

    def test_sweep_beta_kappa_batched_matches_looped(self):
        kw = dict(values=[0.5, 4.0], n_ranks=12, t_end=120.0)
        fast = sweep_beta_kappa(**kw)
        slow = sweep_beta_kappa(shard_members=1, **kw)
        np.testing.assert_allclose(fast.spread_peak, slow.spread_peak,
                                   rtol=5e-2, atol=5e-3)


class TestPerMemberStepControl:
    def test_stiff_member_substeps_alone(self):
        # One member is far stiffer than the rest; with the subset-RHS
        # hook the shared mesh follows the easy members while the stiff
        # row re-steps on its own, and the bookkeeping records it.
        from repro.integrate import solve_dopri45

        a = np.array([1.0, 1.0, 80.0])[:, None]   # per-member frequency

        def f(t, y):
            return a * np.cos(a * t) + 0.0 * y

        def subset_rhs(idx):
            sub = a[list(idx)]
            return lambda t, y: sub * np.cos(sub * t) + 0.0 * y

        y0 = np.zeros((3, 4))
        sol = solve_dopri45(f, (0.0, 2.0), y0, rtol=1e-7, atol=1e-9,
                            subset_rhs=subset_rhs)
        assert sol.success
        exact = np.broadcast_to(np.sin(2.0 * a), (3, 4))
        np.testing.assert_allclose(sol.ys[-1], exact, rtol=1e-5, atol=1e-6)
        rej = sol.stats.member_rejections
        assert rej is not None
        assert rej[2] > 0
        # The easy members must not have been the bottleneck.
        assert rej[2] >= rej[0] and rej[2] >= rej[1]

    def test_member_rejections_tracked_without_subset_hook(self):
        from repro.integrate import solve_dopri45

        a = np.array([1.0, 50.0])[:, None]
        sol = solve_dopri45(lambda t, y: -a * y, (0.0, 1.0),
                            np.ones((2, 3)), rtol=1e-9, atol=1e-12)
        assert sol.success
        assert sol.stats.member_rejections is not None

    def test_grid_solve_succeeds_with_wildly_mixed_stiffness(self):
        models = [bk_model(v) for v in (0.0, 0.1, 30.0)]
        theta0 = np.random.default_rng(0).normal(0.0, 0.5, N)
        trajs = simulate_grid(models, 10.0, seeds=0, theta0=theta0)
        for model, traj in zip(models, trajs):
            ref = simulate(model, 10.0, theta0=theta0, seed=0,
                           n_samples=200)
            np.testing.assert_allclose(traj.resample(200).thetas, ref.thetas,
                                       rtol=1e-3, atol=1e-4)

    def test_stats_merge_sums_member_rejections(self):
        from repro.integrate import SolverStats

        a = SolverStats(n_rhs=1, member_rejections=np.array([1, 2]))
        b = SolverStats(n_rhs=2, member_rejections=np.array([3, 4]))
        m = a.merge(b)
        np.testing.assert_array_equal(m.member_rejections, [4, 6])
        assert a.merge(SolverStats()).member_rejections is not None
