"""Equivalence and validation tests for the heterogeneous batched backend.

Each row of a :class:`HeteroBatchedBackend` evaluation must match the
corresponding single-member backend to machine precision even when the
members disagree on ``v_p``, period, potential, noise realisation, and
one-off delay schedule — only the topology is shared.
"""

import numpy as np
import pytest

from repro.backends import (
    HeteroBatchedBackend,
    make_batched_backend,
)
from repro.core import (
    BottleneckPotential,
    GaussianJitter,
    OneOffDelay,
    PhysicalOscillatorModel,
    RandomInteractionNoise,
    TanhPotential,
    chain,
    ring,
)
from repro.integrate import HistoryBuffer

TIGHT = dict(rtol=1e-13, atol=1e-13)


def make_model(**kw):
    defaults = dict(topology=ring(16, (1, -1)), potential=TanhPotential(),
                    t_comp=0.9, t_comm=0.1)
    defaults.update(kw)
    return PhysicalOscillatorModel(**defaults)


def hetero_members():
    """A deliberately mixed grid: v_p, period, potential, delays differ."""
    topo = ring(16, (1, -1))
    models = [
        make_model(topology=topo, v_p_override=0.0),
        make_model(topology=topo, v_p_override=2.5),
        make_model(topology=topo, potential=BottleneckPotential(sigma=0.7),
                   t_comp=0.5, t_comm=0.5),
        make_model(topology=topo, potential=BottleneckPotential(sigma=1.4),
                   delays=(OneOffDelay(rank=3, t_start=1.0, delay=2.0),)),
        make_model(topology=topo,
                   local_noise=GaussianJitter(std=0.02, refresh=0.5)),
    ]
    return models, [m.realize(10.0, rng=i) for i, m in enumerate(models)]


class TestHeteroEquivalence:
    def test_rows_match_single_member_backends(self):
        models, members = hetero_members()
        stacked = HeteroBatchedBackend(members)
        rng = np.random.default_rng(0)
        for t in (0.0, 1.5, 7.3):
            thetas = rng.normal(0.0, 2.0, (len(members), models[0].n))
            got = stacked.rhs(t, thetas)
            ref = np.stack([
                models[i].realize(10.0, rng=i).rhs(t, thetas[i])
                for i in range(len(members))
            ])
            np.testing.assert_allclose(got, ref, **TIGHT)

    def test_potential_groups_share_vectorised_calls(self):
        topo = ring(12, (1, -1))
        # Separately-constructed-but-equal potentials must merge into
        # one group; distinct sigmas must not.
        models = [make_model(topology=topo, potential=TanhPotential()),
                  make_model(topology=topo, potential=TanhPotential()),
                  make_model(topology=topo,
                             potential=BottleneckPotential(sigma=1.0)),
                  make_model(topology=topo,
                             potential=BottleneckPotential(sigma=2.0))]
        stacked = HeteroBatchedBackend(
            [m.realize(5.0, rng=i) for i, m in enumerate(models)])
        assert stacked.describe()["potential_groups"] == 3

    def test_mixed_delay_schedules_evaluate_per_member(self):
        topo = ring(8, (1, -1))
        delayed = make_model(topology=topo,
                             delays=(OneOffDelay(rank=2, t_start=1.0,
                                                 delay=2.0),))
        free = make_model(topology=topo)
        stacked = HeteroBatchedBackend([delayed.realize(5.0, rng=0),
                                        free.realize(5.0, rng=1)])
        freq = stacked.intrinsic_frequency(1.5)   # inside member 0's stall
        assert freq[0, 2] == 0.0
        assert freq[1, 2] > 0.0

    def test_scratch_buffers_do_not_leak_between_calls(self):
        models, members = hetero_members()
        stacked = HeteroBatchedBackend(members)
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, (len(members), models[0].n))
        b = rng.normal(0.0, 1.0, (len(members), models[0].n))
        ra1 = stacked.rhs(0.5, a).copy()
        stacked.rhs(0.5, b)
        ra2 = stacked.rhs(0.5, a)
        np.testing.assert_array_equal(ra1, ra2)

    def test_subset_matches_full_rows(self):
        models, members = hetero_members()
        stacked = HeteroBatchedBackend(members)
        idx = (1, 3)
        sub = stacked.subset(idx)
        thetas = np.random.default_rng(2).normal(
            0.0, 1.0, (len(members), models[0].n))
        full = stacked.rhs(2.0, thetas)
        part = sub.rhs(2.0, thetas[list(idx)])
        np.testing.assert_allclose(part, full[list(idx)], **TIGHT)

    def test_delayed_dde_rows_match_single_member(self):
        topo = ring(10, (1, -1))
        models = [
            make_model(topology=topo, potential=BottleneckPotential(sigma=1.0),
                       interaction_noise=RandomInteractionNoise(
                           lo=0.0, hi=0.3, refresh=1.0)),
            make_model(topology=topo, v_p_override=3.0,
                       interaction_noise=RandomInteractionNoise(
                           lo=0.0, hi=0.2, refresh=1.0)),
        ]
        members = [m.realize(5.0, rng=i) for i, m in enumerate(models)]
        stacked = HeteroBatchedBackend(members)
        assert stacked.has_delays

        rng = np.random.default_rng(4)
        r, n = len(members), topo.n
        hist = HistoryBuffer(0.0, rng.normal(0, 1, (r, n)))
        for t in (0.4, 0.8, 1.2):
            hist.append(t, rng.normal(0, 1, (r, n)),
                        f=rng.normal(0, 0.1, (r, n)))
        thetas = rng.normal(0, 1, (r, n))
        got = stacked.coupling(1.2, thetas, hist)
        for i, m in enumerate(members):
            class _Slice:
                def __call__(self, t, _i=i):
                    return hist(t)[_i]

            ref = m.coupling_term(1.2, thetas[i], _Slice())
            np.testing.assert_allclose(got[i], ref, **TIGHT)

    def test_em_drift_matches_sequential_formula(self):
        from repro.backends import frequency_from_period
        models, members = hetero_members()
        # Drop the delayed member: EM drift is ODE-only in spirit but the
        # one-off (zeta-channel) schedules stay in.
        stacked = HeteroBatchedBackend(members)
        drift = stacked.make_em_drift()
        thetas = np.random.default_rng(5).normal(
            0.0, 1.0, (len(members), models[0].n))
        got = drift(1.5, thetas)
        for i, m in enumerate(members):
            freq = frequency_from_period(
                models[i].period + m.delay_schedule(1.5, models[i].n))
            ref = freq + m.coupling_term(1.5, thetas[i])
            np.testing.assert_allclose(got[i], ref, **TIGHT)


class TestHeteroValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            HeteroBatchedBackend([])

    def test_mismatched_n_rejected(self):
        a = make_model(topology=ring(8, (1, -1))).realize(5.0, rng=0)
        b = make_model(topology=ring(10, (1, -1))).realize(5.0, rng=0)
        with pytest.raises(ValueError, match="disagree on N"):
            HeteroBatchedBackend([a, b])

    def test_mixed_same_n_topologies_accepted(self):
        # Same-N mixed topologies are a supported machine-design batch
        # (topology-axis fusion).
        a = make_model(topology=ring(8, (1, -1))).realize(5.0, rng=0)
        b = make_model(topology=chain(8, (1, -1))).realize(5.0, rng=0)
        backend = HeteroBatchedBackend([a, b], kernel="numpy")
        assert backend.describe()["mixed_topologies"]

    def test_hetero_accepts_what_batched_rejects(self):
        # Members of one batch may disagree on the coupling strength.
        topo = ring(8, (1, -1))
        a = make_model(topology=topo, v_p_override=1.0).realize(5.0, rng=0)
        b = make_model(topology=topo, v_p_override=4.0).realize(5.0, rng=0)
        assert HeteroBatchedBackend([a, b]).n_members == 2


class TestBatchedBackendFactory:
    def test_auto_falls_back_to_hetero_for_grids(self):
        topo = ring(8, (1, -1))
        members = [
            make_model(topology=topo, v_p_override=v).realize(5.0, rng=0)
            for v in (0.5, 2.0)
        ]
        assert isinstance(make_batched_backend(members), HeteroBatchedBackend)

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            make_batched_backend([])
