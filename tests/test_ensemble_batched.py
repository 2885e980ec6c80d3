"""Regression tests: ``run_ensemble``'s stacked solve vs. ``simulate()``.

``run_ensemble`` integrates every seed as one member of a single
``simulate_grid`` super-state; the reference is a loop of
:func:`repro.core.simulate`, one seed at a time.  With a fixed-step
method the stacked solve performs exactly the same arithmetic per member
as the reference, so per-seed metrics must agree to machine precision.
With the adaptive method the members share a mesh chosen by the worst
member's error norm, so metrics agree within integrator tolerance.
"""

import numpy as np
import pytest

from repro.core import (
    BottleneckPotential,
    ConstantInteractionNoise,
    GaussianJitter,
    PhysicalOscillatorModel,
    TanhPotential,
    random_phases,
    ring,
    run_ensemble,
    simulate,
    simulate_grid,
)

METRICS = {
    "final_spread": lambda tr: float(np.ptp(tr.final_phases)),
    "mean_gap": lambda tr: float(np.abs(tr.asymptotic_gaps()).mean()),
    "mean_freq": lambda tr: float(tr.mean_frequency().mean()),
}


def noisy_model(n=16, **kw):
    defaults = dict(
        topology=ring(n, (1, -1)),
        potential=BottleneckPotential(sigma=1.0),
        t_comp=0.9, t_comm=0.1,
        local_noise=GaussianJitter(std=0.02, refresh=0.5),
    )
    defaults.update(kw)
    return PhysicalOscillatorModel(**defaults)


def looped(model, t_end, seeds, metrics=METRICS, theta0_factory=None, **kw):
    """The reference: one ``simulate()`` per seed, metrics per trajectory."""
    trajs = [simulate(model, t_end, seed=seed,
                      theta0=(theta0_factory(seed) if theta0_factory
                              else None), **kw)
             for seed in seeds]
    return {name: np.array([fn(tr) for tr in trajs])
            for name, fn in metrics.items()}


class TestBatchedEnsembleRegression:
    def test_rk4_batched_reproduces_sequential_exactly(self):
        model = noisy_model()
        seeds = tuple(range(6))
        seq = looped(model, 8.0, seeds, method="rk4", dt=0.02)
        bat = run_ensemble(model, 8.0, METRICS, seeds=seeds,
                           method="rk4", dt=0.02)
        assert bat.seeds == seeds
        for name in METRICS:
            np.testing.assert_allclose(bat.values[name], seq[name],
                                       rtol=1e-12, atol=1e-12)

    def test_dopri_batched_within_tolerance(self):
        model = noisy_model()
        seeds = tuple(range(4))
        # The adaptive meshes differ between the two paths, and
        # sample-window metrics (asymptotic_gaps) are mesh-sensitive —
        # resample both onto the same uniform mesh before comparing.
        seq = looped(model, 8.0, seeds, rtol=1e-8, atol=1e-10,
                     n_samples=400)
        bat = run_ensemble(model, 8.0, METRICS, seeds=seeds, rtol=1e-8,
                           atol=1e-10, n_samples=400)
        for name in METRICS:
            np.testing.assert_allclose(bat.values[name], seq[name],
                                       rtol=1e-4, atol=1e-5)

    def test_theta0_factory_is_per_seed(self):
        model = noisy_model(potential=TanhPotential())
        seeds = (0, 1, 2)

        def factory(seed):
            return random_phases(model.n, spread=0.5,
                                 rng=np.random.default_rng(seed))

        # One metric per oscillator: the full final state per seed.
        metrics = {f"phase{i}": (lambda tr, i=i: float(tr.final_phases[i]))
                   for i in range(model.n)}
        bat = run_ensemble(model, 4.0, metrics, seeds=seeds,
                           theta0_factory=factory, method="rk4", dt=0.02)
        seq = looped(model, 4.0, seeds, metrics, theta0_factory=factory,
                     method="rk4", dt=0.02)
        for name in metrics:
            np.testing.assert_allclose(bat.values[name], seq[name],
                                       rtol=1e-12, atol=1e-12)

    def test_batched_dde_reproduces_sequential(self):
        model = noisy_model(
            n=10,
            local_noise=GaussianJitter(std=0.01, refresh=0.5),
            interaction_noise=ConstantInteractionNoise(tau=0.05),
        )
        seeds = (0, 1, 2)
        seq = looped(model, 4.0, seeds, dt=0.02)
        bat = run_ensemble(model, 4.0, METRICS, seeds=seeds, dt=0.02)
        for name in METRICS:
            np.testing.assert_allclose(bat.values[name], seq[name],
                                       rtol=1e-10, atol=1e-10)

    def test_trajectories_are_per_seed_objects(self):
        model = noisy_model()
        seeds = (3, 5, 8)
        trajs = simulate_grid([model] * len(seeds), 3.0, seeds=seeds)
        assert [tr.seed for tr in trajs] == list(seeds)
        assert all(tr.thetas.shape[1] == model.n for tr in trajs)
        # Shared mesh across members.
        for tr in trajs[1:]:
            np.testing.assert_array_equal(tr.ts, trajs[0].ts)
        # Different noise realisations actually differ.
        assert not np.allclose(trajs[0].thetas, trajs[1].thetas)

    def test_n_samples_resamples_members(self):
        model = noisy_model()
        trajs = simulate_grid([model] * 2, 3.0, seeds=(0, 1), n_samples=50)
        assert all(tr.n_samples == 50 for tr in trajs)

    def test_em_batched_matches_sequential_seed_for_seed(self):
        # The stacked Euler-Maruyama draws each member's (N,) Wiener
        # increments from its own seeded generator in the same order as
        # the sequential per-seed solve, so at equal dt the phases must
        # agree to machine precision.
        model = noisy_model()
        seeds = (0, 1, 5)
        trajs = simulate_grid([model] * len(seeds), 4.0, seeds=seeds,
                              method="em", dt=0.01)
        for seed, traj in zip(seeds, trajs):
            ref = simulate(model, 4.0, seed=seed, method="em", dt=0.01)
            np.testing.assert_allclose(traj.thetas, ref.thetas,
                                       rtol=1e-12, atol=1e-12)

    def test_em_ensemble_metrics_match(self):
        model = noisy_model()
        seeds = tuple(range(4))
        seq = looped(model, 4.0, seeds, method="em", dt=0.01)
        bat = run_ensemble(model, 4.0, METRICS, seeds=seeds, method="em",
                           dt=0.01)
        for name in METRICS:
            np.testing.assert_allclose(bat.values[name], seq[name],
                                       rtol=1e-12, atol=1e-12)

    def test_em_with_interaction_delays_rejected(self):
        # Delays switch to the deterministic DDE path, which has no
        # diffusion term — that must fail loudly, not silently drop the
        # white noise.
        model = noisy_model(
            interaction_noise=ConstantInteractionNoise(tau=0.05))
        with pytest.raises(ValueError, match="interaction delays"):
            simulate_grid([model] * 2, 2.0, seeds=(0, 1), method="em",
                          dt=0.01)

    def test_em_requires_gaussian_noise(self):
        model = PhysicalOscillatorModel(
            topology=ring(16, (1, -1)),
            potential=BottleneckPotential(sigma=1.0),
            t_comp=0.9, t_comm=0.1,
        )
        with pytest.raises(ValueError, match="GaussianJitter"):
            simulate_grid([model] * 2, 2.0, seeds=(0, 1), method="em",
                          dt=0.01)

    def test_empty_seed_list_rejected(self):
        model = noisy_model()
        with pytest.raises(ValueError, match="need at least one seed"):
            run_ensemble(model, 2.0, METRICS, seeds=())
