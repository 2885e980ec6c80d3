"""Equivalence tests for the RHS compute backends.

The dense backend is the ground truth (it is the original
implementation); the edge-list coupling — a realisation's own one-member
stack (``RealizedModel.rhs``) and the batched backend — must agree with
it to machine precision on every shipped topology factory and
potential, including the delayed (DDE) path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import DenseBackend, HeteroBatchedBackend
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
    all_to_all,
    chain,
    random_topology,
    ring,
    torus2d,
)
from repro.integrate import HistoryBuffer

TOPOLOGY_FACTORIES = {
    "ring": lambda: ring(24, (1, -1)),
    "ring-asym": lambda: ring(24, (1, -1, -2)),
    "chain": lambda: chain(17, (1, -1)),
    "torus2d": lambda: torus2d(4, 5),
    "random": lambda: random_topology(
        20, 0.3, rng=np.random.default_rng(7)),
    "all-to-all": lambda: all_to_all(12),
}

POTENTIALS = {
    "tanh": TanhPotential(),
    "bottleneck": BottleneckPotential(sigma=1.0),
    "kuramoto": KuramotoPotential(),
    "linear": LinearPotential(k=0.7),
}

TIGHT = dict(rtol=1e-13, atol=1e-13)


def make_model(topology, potential, **kw):
    defaults = dict(topology=topology, potential=potential,
                    t_comp=0.9, t_comm=0.1)
    defaults.update(kw)
    return PhysicalOscillatorModel(**defaults)


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGY_FACTORIES))
@pytest.mark.parametrize("pot_name", sorted(POTENTIALS))
class TestSparseMatchesDense:
    def test_rhs_equivalence(self, topo_name, pot_name):
        model = make_model(TOPOLOGY_FACTORIES[topo_name](),
                           POTENTIALS[pot_name],
                           local_noise=GaussianJitter(std=0.02, refresh=0.5))
        dense = DenseBackend(model.realize(10.0, rng=3))
        sparse = model.realize(10.0, rng=3)
        rng = np.random.default_rng(0)
        for t in (0.0, 1.3, 7.9):
            theta = rng.normal(0.0, 2.0, model.n)
            np.testing.assert_allclose(sparse.rhs(t, theta),
                                       dense.rhs(t, theta), **TIGHT)

    def test_batched_matches_dense_per_member(self, topo_name, pot_name):
        model = make_model(TOPOLOGY_FACTORIES[topo_name](),
                           POTENTIALS[pot_name],
                           local_noise=GaussianJitter(std=0.02, refresh=0.5))
        seeds = range(5)
        members = [model.realize(10.0, rng=s) for s in seeds]
        stacked = HeteroBatchedBackend(members)
        thetas = np.random.default_rng(1).normal(0.0, 2.0,
                                                 (len(members), model.n))
        got = stacked.rhs(1.3, thetas)
        ref = np.stack([
            DenseBackend(model.realize(10.0, rng=s)).rhs(1.3, thetas[i])
            for i, s in enumerate(seeds)
        ])
        np.testing.assert_allclose(got, ref, **TIGHT)


class TestDelayedPathEquivalence:
    @pytest.mark.parametrize("noise", [
        ConstantInteractionNoise(tau=0.25),
        RandomInteractionNoise(lo=0.0, hi=0.4, refresh=1.0),
    ], ids=["constant-tau", "random-tau"])
    def test_sparse_matches_dense_dde(self, noise):
        model = make_model(ring(16, (1, -1)), TanhPotential(),
                           interaction_noise=noise)
        sparse = model.realize(10.0, rng=5)
        dense = DenseBackend(model.realize(10.0, rng=5))
        assert sparse.has_delays

        rng = np.random.default_rng(2)
        hist = HistoryBuffer(0.0, rng.normal(0, 1, model.n))
        for t in (0.5, 1.0, 1.5):
            y = rng.normal(0, 1, model.n)
            hist.append(t, y, f=rng.normal(0, 0.1, model.n))
        theta = rng.normal(0, 1, model.n)
        np.testing.assert_allclose(
            sparse.coupling_term(1.5, theta, hist),
            dense.coupling(1.5, theta, hist), **TIGHT)

    def test_batched_matches_dense_dde(self):
        model = make_model(ring(12, (1, -1)), BottleneckPotential(sigma=1.0),
                           interaction_noise=RandomInteractionNoise(
                               lo=0.0, hi=0.3, refresh=1.0))
        seeds = (0, 1, 2)
        members = [model.realize(10.0, rng=s) for s in seeds]
        stacked = HeteroBatchedBackend(members)
        assert stacked.has_delays

        rng = np.random.default_rng(4)
        r, n = len(seeds), model.n
        hist = HistoryBuffer(0.0, rng.normal(0, 1, (r, n)))
        for t in (0.4, 0.8, 1.2):
            hist.append(t, rng.normal(0, 1, (r, n)),
                        f=rng.normal(0, 0.1, (r, n)))
        thetas = rng.normal(0, 1, (r, n))
        got = stacked.coupling(1.2, thetas, hist)
        for i, m in enumerate(members):
            # Per-member reference through the dense kernel on the
            # member's own slice of the batched history.
            dense = DenseBackend(m)

            class _Slice:
                def __call__(self, t, _i=i):
                    return hist(t)[_i]

            np.testing.assert_allclose(got[i],
                                       dense.coupling(1.2, thetas[i],
                                                      _Slice()), **TIGHT)

    def test_one_off_delays_equivalent(self):
        model = make_model(
            ring(10, (1, -1)), TanhPotential(),
            delays=(OneOffDelay(rank=3, t_start=1.0, delay=2.0),))
        dense = DenseBackend(model.realize(10.0, rng=0))
        sparse = model.realize(10.0, rng=0)
        theta = np.random.default_rng(0).normal(0, 1, model.n)
        for t in (0.5, 2.0, 4.0):   # before / inside / after the stall
            np.testing.assert_allclose(sparse.rhs(t, theta),
                                       dense.rhs(t, theta), **TIGHT)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.floats(min_value=0.01, max_value=20.0))
def test_property_sparse_equals_dense_on_random_states(seed, scale):
    """Property: for arbitrary phase states the kernels agree."""
    model = make_model(ring(24, (1, -1, -2)), BottleneckPotential(sigma=1.3))
    dense = DenseBackend(model.realize(5.0, rng=11))
    sparse = model.realize(5.0, rng=11)
    theta = np.random.default_rng(seed).normal(0.0, scale, model.n)
    np.testing.assert_allclose(sparse.rhs(0.0, theta),
                               dense.rhs(0.0, theta), **TIGHT)


class TestTopologyViews:
    def test_edge_list_matches_matrix(self):
        topo = torus2d(3, 4)
        rows, cols = topo.edge_list()
        assert rows.shape == cols.shape == (topo.n_edges,)
        m = np.zeros_like(topo.matrix)
        m[rows, cols] = 1.0
        np.testing.assert_array_equal(m, topo.matrix)

    def test_edge_list_is_cached_and_readonly(self):
        topo = ring(12, (1, -1))
        a = topo.edge_list()
        b = topo.edge_list()
        assert a[0] is b[0] and a[1] is b[1]
        with pytest.raises(ValueError):
            a[0][0] = 5

    def test_csr_matches_neighbors(self):
        topo = chain(9, (1, -1))
        indptr, indices = topo.csr()
        assert indptr[0] == 0 and indptr[-1] == topo.n_edges
        for i in range(topo.n):
            np.testing.assert_array_equal(
                indices[indptr[i]:indptr[i + 1]], topo.neighbors(i))

    def test_density(self):
        assert all_to_all(4).density == pytest.approx(12 / 16)
        assert ring(100, (1, -1)).density == pytest.approx(200 / 10000)


class TestBatchedBackendValidation:
    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            HeteroBatchedBackend([])

    def test_mismatched_n_rejected(self):
        a = make_model(ring(8, (1, -1)), TanhPotential()).realize(5.0, rng=0)
        b = make_model(ring(10, (1, -1)), TanhPotential()).realize(5.0, rng=0)
        with pytest.raises(ValueError, match="disagree on N"):
            HeteroBatchedBackend([a, b])

    def test_shared_delay_schedule_accepted_and_applied(self):
        model = make_model(ring(8, (1, -1)), TanhPotential(),
                           delays=(OneOffDelay(rank=2, t_start=1.0,
                                               delay=2.0),))
        members = [model.realize(5.0, rng=s) for s in range(3)]
        stacked = HeteroBatchedBackend(members)
        freq = stacked.intrinsic_frequency(1.5)    # inside the stall
        assert np.all(freq[:, 2] == 0.0)
        assert np.all(freq[:, [0, 1, 3]] > 0.0)

    def test_equal_models_accepted_without_shared_objects(self):
        # Two separately-constructed but identical models batch fine.
        a = make_model(ring(8, (1, -1)), TanhPotential()).realize(5.0, rng=0)
        b = make_model(ring(8, (1, -1)), TanhPotential()).realize(5.0, rng=1)
        assert HeteroBatchedBackend([a, b]).n_members == 2

    def test_single_state_backend_compiles_lazily(self):
        # The batched path stacks many realisations and never touches
        # their single-state backends — they must not be compiled.
        model = make_model(ring(8, (1, -1)), TanhPotential())
        members = [model.realize(5.0, rng=s) for s in range(3)]
        HeteroBatchedBackend(members)
        assert all(m._backend is None for m in members)
        members[0].rhs(0.0, np.zeros(8))   # first use compiles
        assert members[0]._backend is not None

    def test_zeta_stack_used_for_shared_grid(self):
        model = make_model(ring(8, (1, -1)), TanhPotential(),
                           local_noise=GaussianJitter(std=0.01, refresh=0.5))
        members = [model.realize(5.0, rng=s) for s in range(3)]
        stacked = HeteroBatchedBackend(members)
        assert stacked._zeta_stack is not None
        got = stacked.intrinsic_frequency(1.3)
        ref = np.stack([m.intrinsic_frequency(1.3) for m in members])
        np.testing.assert_allclose(got, ref, **TIGHT)


#: refresh-interval crossings (refresh 0.5), entering and leaving the
#: stall window [1.2, 2.8) inside one refresh interval, the noise
#: horizon, and backward steps (dopri rejections)
MEMO_TIMES = (0.0, 0.2, 0.49, 0.5, 0.51, 1.0, 1.1, 1.3, 2.6, 2.75, 2.85,
              2.7, 1.25, 1.15, 0.1, 9.99, 12.0, 2.0)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
class TestSingleFrequencyMemo:
    """The dense reference and a realisation's one-member edge-list
    stack both memoise the single-state frequency."""

    def realize(self, backend):
        model = make_model(ring(10, (1, -1)), TanhPotential(),
                           local_noise=GaussianJitter(std=0.05, refresh=0.5),
                           delays=(OneOffDelay(rank=4, t_start=1.2,
                                               delay=1.6),))
        realized = model.realize(10.0, rng=2)
        freq = (DenseBackend(realized).intrinsic_frequency
                if backend == "dense" else realized.intrinsic_frequency)
        return model, realized, freq

    def test_bits_equal_fresh_evaluation(self, backend):
        from repro.backends import frequency_from_period
        model, realized, freq = self.realize(backend)
        for t in MEMO_TIMES:
            ref = frequency_from_period(model.period + realized.zeta(t)
                                        + realized.delay_schedule(t, model.n))
            np.testing.assert_array_equal(freq(t), ref, err_msg=f"t={t}")

    def test_returned_array_is_read_only(self, backend):
        _, _, freq_at = self.realize(backend)
        freq = freq_at(1.5)
        assert freq[4] == 0.0                       # inside the stall
        with pytest.raises(ValueError, match="read-only"):
            freq[4] = 1.0
        assert freq_at(1.5)[4] == 0.0


class TestShapeAgnosticIntegration:
    def test_error_norm_reduces_per_member(self):
        from repro.integrate import error_norm
        # Member 0 has zero error, member 1 a large one: the batched
        # norm must be the worst member's, not the pooled RMS.
        err = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.zeros((2, 2))
        batched = error_norm(err, y, y, rtol=0.0, atol=1.0)
        single = error_norm(err[1], y[1], y[1], rtol=0.0, atol=1.0)
        assert batched == pytest.approx(single)

    def test_dopri_batched_matches_member_solves(self):
        from repro.integrate import solve_dopri45
        a = np.array([0.5, 1.0, 2.0])

        def f(t, y):
            return -a * y          # broadcasts over (R, 3)

        y0 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        sol = solve_dopri45(f, (0.0, 2.0), y0, rtol=1e-9, atol=1e-12)
        assert sol.success
        np.testing.assert_allclose(sol.ys[-1], y0 * np.exp(-2.0 * a),
                                   rtol=1e-7)

    def test_dense_output_works_for_batched_states(self):
        from repro.integrate import solve_dopri45
        y0 = np.ones((3, 4))
        sol = solve_dopri45(lambda t, y: -y, (0.0, 1.0), y0)
        mid = sol(0.5)
        assert mid.shape == (3, 4)
        np.testing.assert_allclose(mid, np.exp(-0.5) * y0, rtol=1e-6)
