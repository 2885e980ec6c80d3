"""Equivalence and validation tests for the heterogeneous batched backend.

Each row of a :class:`HeteroBatchedBackend` evaluation must match the
corresponding single-member backend to machine precision even when the
members disagree on ``v_p``, period, potential, noise realisation, and
one-off delay schedule — only the topology is shared.
"""

import numpy as np
import pytest

from repro.backends import (
    DenseBackend,
    HeteroBatchedBackend,
    make_batched_backend,
)
from repro.core import (
    BottleneckPotential,
    ConstantInteractionNoise,
    GaussianJitter,
    KuramotoPotential,
    LinearPotential,
    OneOffDelay,
    PhysicalOscillatorModel,
    RandomInteractionNoise,
    TanhPotential,
    chain,
    hypercube,
    ring,
    torus2d,
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
            # The dense backend is the independent reference: a
            # realisation's own edge-list RHS is itself an R=1 stack.
            ref = np.stack([
                DenseBackend(models[i].realize(10.0, rng=i))
                .rhs(t, thetas[i])
                for i in range(len(members))
            ])
            np.testing.assert_allclose(got, ref, **TIGHT)

    def test_mixed_potential_rows_equal_single_member_coupling(self):
        topo = ring(12, (1, -1))
        # Equal tanh potentials, two bottleneck sigmas, linear and
        # kuramoto: three coefficient kinds with several rows each.
        pots = [TanhPotential(), TanhPotential(),
                BottleneckPotential(sigma=1.0),
                BottleneckPotential(sigma=2.0),
                LinearPotential(0.4), KuramotoPotential()]
        members = [make_model(topology=topo, potential=p)
                   .realize(5.0, rng=i, kernel="numpy")
                   for i, p in enumerate(pots)]
        stacked = HeteroBatchedBackend(members, kernel="numpy")
        thetas = np.random.default_rng(6).normal(0.0, 2.0,
                                                 (len(pots), topo.n))
        got = stacked.coupling(0.0, thetas)
        for i, m in enumerate(members):
            np.testing.assert_array_equal(
                got[i], m.coupling_term(0.0, thetas[i]))

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
        dense = [DenseBackend(m.realize(5.0, rng=i))
                 for i, m in enumerate(models)]

        rng = np.random.default_rng(4)
        r, n = len(members), topo.n
        hist = HistoryBuffer(0.0, rng.normal(0, 1, (r, n)))
        for t in (0.4, 0.8, 1.2):
            hist.append(t, rng.normal(0, 1, (r, n)),
                        f=rng.normal(0, 0.1, (r, n)))
        thetas = rng.normal(0, 1, (r, n))
        got = stacked.coupling(1.2, thetas, hist)
        for i, m in enumerate(dense):
            class _Slice:
                def __call__(self, t, _i=i):
                    return hist(t)[_i]

            ref = m.coupling(1.2, thetas[i], _Slice())
            np.testing.assert_allclose(got[i], ref, **TIGHT)

    @pytest.mark.parametrize("kernel", ["numpy", "auto"])
    def test_padded_delayed_rows_match_single_member(self, kernel):
        # A topology-axis batch pads the 32-edge rings to the 64-edge
        # torus/hypercube rows; one member is undelayed.
        models = [
            make_model(topology=ring(16, (1, -1)),
                       interaction_noise=ConstantInteractionNoise(tau=0.3)),
            make_model(topology=torus2d(4, 4),
                       potential=BottleneckPotential(sigma=1.2),
                       interaction_noise=RandomInteractionNoise(
                           lo=0.0, hi=0.3, refresh=1.0)),
            make_model(topology=hypercube(4), v_p_override=2.0),
            make_model(topology=ring(16, (1, -1)),
                       potential=LinearPotential(0.5),
                       interaction_noise=RandomInteractionNoise(
                           lo=0.0, hi=0.2, refresh=1.0)),
        ]
        members = [m.realize(5.0, rng=i, kernel=kernel)
                   for i, m in enumerate(models)]
        stacked = HeteroBatchedBackend(members, kernel=kernel)
        assert stacked.has_delays and not members[2].has_delays

        rng = np.random.default_rng(7)
        r, n = len(members), 16
        hist = HistoryBuffer(0.0, rng.normal(0, 1, (r, n)))
        for t in (0.4, 0.8, 1.2):
            hist.append(t, rng.normal(0, 1, (r, n)),
                        f=rng.normal(0, 0.1, (r, n)))
        thetas = rng.normal(0, 1, (r, n))
        got = stacked.coupling(1.2, thetas, hist)
        for i, m in enumerate(members):
            def row(t, _i=i):
                return hist(t)[_i]

            np.testing.assert_array_equal(
                got[i], m.coupling_term(1.2, thetas[i], row))
            dense = DenseBackend(models[i].realize(5.0, rng=i))
            np.testing.assert_allclose(
                got[i], dense.coupling(1.2, thetas[i], row), **TIGHT)

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


#: times that cross refresh-interval boundaries (refresh 0.5), enter and
#: leave the stall windows [1.2, 2.7) and [2.1, 2.6) inside one refresh
#: interval, run past the noise horizon, and step backwards the way
#: dopri rejections and subset() re-steps do
MEMO_TIMES = (0.0, 0.1, 0.49, 0.5, 0.51, 0.99, 1.0, 1.1, 1.2, 1.3, 1.7,
              2.0, 2.05, 2.1, 2.2, 2.55, 2.6, 2.65, 2.7, 2.75, 2.62, 2.58,
              1.25, 1.15, 0.3, 9.99, 12.0, 2.1, 0.0)


def memo_members(stack_zeta: bool, shared_schedule: bool):
    """Jittered members with one-off delays on a shared ring."""
    topo = ring(12, (1, -1))
    stall = (OneOffDelay(rank=3, t_start=1.2, delay=1.5),
             OneOffDelay(rank=5, t_start=2.1, delay=0.25, window=0.5))
    models = []
    for i in range(3):
        refresh = 0.5 if stack_zeta or i == 0 else 0.3 + 0.1 * i
        delays = stall if shared_schedule or i == 1 else ()
        models.append(make_model(
            topology=topo, t_comp=0.9 + 0.05 * i, delays=delays,
            local_noise=GaussianJitter(std=0.05, refresh=refresh)))
    return models, [m.realize(10.0, rng=i) for i, m in enumerate(models)]


def fresh_frequency(models, members, t):
    """``2*pi/(T + zeta + schedule)`` per member, evaluated from scratch."""
    from repro.backends import frequency_from_period
    return np.stack([
        frequency_from_period(mod.period + m.zeta(t)
                              + m.delay_schedule(t, mod.n))
        for mod, m in zip(models, members)])


class TestFrequencyMemo:
    @pytest.mark.parametrize("stack_zeta", [True, False],
                             ids=["stacked-zeta", "per-member-zeta"])
    @pytest.mark.parametrize("shared_schedule", [True, False],
                             ids=["shared-schedule", "per-member-schedule"])
    def test_bits_equal_fresh_evaluation(self, stack_zeta, shared_schedule):
        models, members = memo_members(stack_zeta, shared_schedule)
        stacked = HeteroBatchedBackend(members)
        assert (stacked._zeta_stack is not None) == stack_zeta
        for t in MEMO_TIMES:
            np.testing.assert_array_equal(
                stacked.intrinsic_frequency(t),
                fresh_frequency(models, members, t), err_msg=f"t={t}")

    def test_stall_window_entered_and_left(self):
        _, members = memo_members(True, True)
        stacked = HeteroBatchedBackend(members)
        # 1.1/1.3 and 2.6/2.8 share a refresh interval each.
        assert np.all(stacked.intrinsic_frequency(1.1)[:, 3] > 0.0)
        assert np.all(stacked.intrinsic_frequency(1.3)[:, 3] == 0.0)
        assert np.all(stacked.intrinsic_frequency(2.6)[:, 3] == 0.0)
        assert np.all(stacked.intrinsic_frequency(2.8)[:, 3] > 0.0)
        assert np.all(stacked.intrinsic_frequency(1.3)[:, 3] == 0.0)

    def test_repeat_call_hits_the_memo(self):
        _, members = memo_members(True, True)
        stacked = HeteroBatchedBackend(members)
        a = stacked.intrinsic_frequency(1.05)
        assert stacked.intrinsic_frequency(1.15) is a      # same interval
        assert stacked.intrinsic_frequency(1.25) is not a  # stall begins

    def test_returned_array_is_read_only(self):
        _, members = memo_members(True, False)
        stacked = HeteroBatchedBackend(members)
        freq = stacked.intrinsic_frequency(0.7)
        assert not freq.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            freq[0, 0] = 1.0

    def test_subset_re_steps_see_fresh_bits(self):
        models, members = memo_members(False, False)
        stacked = HeteroBatchedBackend(members)
        sub = stacked.subset((2, 0))
        for t in MEMO_TIMES:
            stacked.intrinsic_frequency(t)
            np.testing.assert_array_equal(
                sub.intrinsic_frequency(t),
                fresh_frequency([models[2], models[0]],
                                [members[2], members[0]], t))

    def test_copies_keep_bits_and_read_only_result(self):
        import copy
        import pickle
        models, members = memo_members(True, False)
        stacked = HeteroBatchedBackend(members)
        stacked.intrinsic_frequency(1.5)
        for clone in (copy.deepcopy(stacked),
                      pickle.loads(pickle.dumps(stacked))):
            freq = clone.intrinsic_frequency(1.5)
            assert not freq.flags.writeable
            np.testing.assert_array_equal(
                freq, fresh_frequency(models, members, 1.5))

    def test_dopri_solve_matches_unmemoised_rhs(self):
        from repro.integrate import solve_dopri45
        models, members = memo_members(True, True)
        stacked = HeteroBatchedBackend(members)
        y0 = np.random.default_rng(4).normal(0.0, 0.5, (3, 12))

        def fresh_rhs(t, y):
            return (fresh_frequency(models, members, t)
                    + stacked.coupling(t, y, None))

        args = dict(rtol=1e-8, atol=1e-10, dense_output=False)
        got = solve_dopri45(stacked.make_ode_rhs(), (0.0, 4.0), y0, **args)
        ref = solve_dopri45(fresh_rhs, (0.0, 4.0), y0, **args)
        assert got.stats.n_rejected > 0   # the mesh stepped backwards
        np.testing.assert_array_equal(got.ts, ref.ts)
        np.testing.assert_array_equal(got.ys, ref.ys)

    @pytest.mark.parametrize("with_delays", [True, False])
    def test_em_drift_bits_unchanged(self, with_delays):
        from repro.backends import frequency_from_period
        models, members = memo_members(True, with_delays)
        if not with_delays:
            models, members = models[:1] + models[2:], members[:1] + members[2:]
        stacked = HeteroBatchedBackend(members)
        drift = stacked.make_em_drift()
        thetas = np.random.default_rng(6).normal(
            0.0, 1.0, (len(members), models[0].n))
        for t in MEMO_TIMES:
            ref = np.stack([
                frequency_from_period(mod.period
                                      + m.delay_schedule(t, mod.n))
                if with_delays else frequency_from_period(
                    np.array([mod.period]))
                for mod, m in zip(models, members)])
            ref = ref + stacked.coupling(t, thetas, None)
            np.testing.assert_array_equal(drift(t, thetas), ref)


class TestDelayGroups:
    """Delayed couplings patch each distinct delay level once per call."""

    @staticmethod
    def counting(history):
        calls = []

        def wrapped(t):
            calls.append(t)
            return history(t)

        return wrapped, calls

    @staticmethod
    def history(r, n, seed=0):
        rng = np.random.default_rng(seed)
        hist = HistoryBuffer(0.0, rng.normal(0.0, 0.5, (r, n)))
        hist.append(1.0, rng.normal(0.0, 0.5, (r, n)), f=np.ones((r, n)))
        return hist

    def test_one_history_call_per_coupling_for_a_shared_delay(self):
        model = make_model(topology=ring(64),
                           interaction_noise=ConstantInteractionNoise(tau=0.3))
        stacked = HeteroBatchedBackend(
            [model.realize(5.0, rng=s) for s in range(8)])
        history, calls = self.counting(self.history(8, 64))
        theta = np.random.default_rng(1).normal(0.0, 0.5, (8, 64))
        for t in (1.1, 1.2, 1.3):
            stacked.coupling(t, theta, history)
        assert calls == [1.1 - 0.3, 1.2 - 0.3, 1.3 - 0.3]

    def test_one_history_call_per_distinct_level(self):
        topo = ring(16)
        stacked = HeteroBatchedBackend([
            make_model(topology=topo, interaction_noise=(
                ConstantInteractionNoise(tau=tau))).realize(5.0, rng=i)
            for i, tau in enumerate((0.2, 0.0, 0.4, 0.2))])
        history, calls = self.counting(self.history(4, 16))
        theta = np.random.default_rng(2).normal(0.0, 0.5, (4, 16))
        got = stacked.coupling(1.5, theta, history)
        assert sorted(calls) == [1.5 - 0.4, 1.5 - 0.2]
        hist = self.history(4, 16)
        for r, member in enumerate(stacked.members):
            np.testing.assert_array_equal(got[r], member.coupling_term(
                1.5, theta[r], lambda s, r=r: hist(s)[r]))

    def test_groups_follow_the_tau_interval(self):
        model = make_model(topology=ring(12, (1, -1, 2)),
                           interaction_noise=RandomInteractionNoise(
                               lo=0.0, hi=0.3, refresh=0.5))
        members = [model.realize(5.0, rng=s) for s in range(3)]
        stacked = HeteroBatchedBackend(members)
        hist = self.history(3, 12)
        theta = np.random.default_rng(3).normal(0.0, 0.5, (3, 12))
        for t in (0.2, 0.3, 0.7, 1.9, 0.2):
            fresh = HeteroBatchedBackend(members).coupling(t, theta, hist)
            np.testing.assert_array_equal(
                stacked.coupling(t, theta, hist), fresh)

    def test_large_ring_constant_delay_stays_per_edge(self):
        # Per-edge storage: a dense (N, N) field would need 80 GB here.
        topo = ring(100_000)
        model = make_model(topology=topo, v_p_override=1.0,
                           interaction_noise=ConstantInteractionNoise(tau=0.3))
        realized = model.realize(5.0, rng=0, kernel="numpy")
        assert realized.tau.values.shape == (1, topo.n_edges)
        assert realized.has_delays
        theta = np.random.default_rng(4).normal(0.0, 0.5, (1, topo.n))
        history, calls = self.counting(HistoryBuffer(0.0, theta))
        stacked = realized.backend
        # The history before t = 0 is the frozen initial state, so the
        # delayed coupling equals the undelayed one bit for bit.
        np.testing.assert_array_equal(stacked.coupling(0.1, theta, history),
                                      stacked.coupling(0.1, theta))
        assert len(calls) == 1
