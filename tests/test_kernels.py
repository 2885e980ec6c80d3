"""Kernel-equivalence suite: the numpy reference vs the compiled cc kernel.

The ``cc`` kernel must produce the same coupling term (to ~1e-12) as the
reference NumPy edge-list path, on ring/torus/random topologies, for
one-member (single-state), homogeneous-batched and heterogeneous-batched
stacks — including the ``CustomPotential`` per-group fallback that the
coefficient-based compiled kernel cannot express.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro import kernels
from repro.backends import HeteroBatchedBackend, make_batched_backend
from repro.core import (
    BottleneckPotential,
    CustomPotential,
    KuramotoPotential,
    LinearPotential,
    PhysicalOscillatorModel,
    TanhPotential,
    chain,
    random_topology,
    ring,
    simulate,
    torus2d,
)
from repro.kernels import cc as cc_kernels
from repro.kernels.coeffs import eval_coefficients, family_coefficients

needs_cc = pytest.mark.skipif(not kernels.cc_available(),
                              reason="no working C compiler")


def _kernel_params():
    return [pytest.param("numpy", id="numpy"),
            pytest.param("cc", id="cc", marks=needs_cc)]


TOPOLOGIES = [
    pytest.param(lambda: ring(96, (1, -1)), id="ring"),
    pytest.param(lambda: ring(97, (1, -1, -2)), id="ring-asym"),
    pytest.param(lambda: torus2d(8, 7), id="torus"),
    pytest.param(lambda: random_topology(
        60, 0.08, rng=np.random.default_rng(5)), id="random"),
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


def _single(model, kernel):
    """A realisation whose one-member edge-list stack runs ``kernel``."""
    return model.realize(5.0, rng=0, kernel=kernel)


# ----------------------------------------------------------------------
# registry / resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_available_names(self):
        assert kernels.available_kernels() == ("auto", "numpy", "cc")

    def test_unknown_kernel_rejected_everywhere(self):
        # "tiled" and "numba" were removed kernels; specs naming them
        # must fail with the same pointed error as any unknown name.
        listing = "available: auto, numpy, cc"
        for name in ("fortran", "tiled", "numba"):
            with pytest.raises(ValueError, match=listing):
                kernels.normalize_kernel_name(name)
            with pytest.raises(ValueError, match=listing):
                _model(ring(8), TanhPotential(), kernel=name)
            with pytest.raises(ValueError, match=listing):
                simulate(_model(ring(8), TanhPotential()), 1.0, kernel=name)

    def test_auto_prefers_compiled_with_coefficients(self):
        resolved = kernels.resolve_kernel(
            "auto", has_coefficients=True, n_edges=16)
        assert resolved == ("cc" if kernels.cc_available() else "numpy")

    def test_auto_custom_potential_falls_back(self):
        # n_edges is accepted but no longer steers the resolution
        for n_edges in (16, 1 << 20):
            assert kernels.resolve_kernel(
                "auto", has_coefficients=False, n_edges=n_edges) == "numpy"

    def test_explicit_compiled_without_coefficients_raises(self):
        with pytest.raises((ValueError, RuntimeError)):
            kernels.resolve_kernel("cc", has_coefficients=False,
                                   n_edges=16)

    def test_model_field_and_describe(self):
        model = _model(ring(16), TanhPotential(), kernel="numpy")
        assert model.describe()["kernel"] == "numpy"
        backend = model.realize(1.0, rng=0).backend
        assert backend.kernel == "numpy"
        assert backend.describe()["kernel"] == "numpy"


# ----------------------------------------------------------------------
# coefficients
# ----------------------------------------------------------------------
class TestCoefficients:
    @pytest.mark.parametrize("make_pot", POTENTIALS)
    def test_eval_matches_potential(self, make_pot):
        pot = make_pot()
        kind, p0, p1 = pot.kernel_coefficients()
        d = np.linspace(-4.0, 4.0, 513)
        np.testing.assert_array_equal(
            eval_coefficients(kind, p0, p1, d.copy()),
            np.asarray(pot(d), dtype=float))

    @pytest.mark.parametrize("pots", [
        pytest.param([BottleneckPotential(s) for s in (0.3, 0.8, 1.0, 2.5)],
                     id="sigma-grid"),
        pytest.param([TanhPotential(g) for g in (0.5, 1.0, 1.3, 4.0)],
                     id="gain-grid"),
        pytest.param([LinearPotential(k) for k in (-0.5, 0.1, 0.6, 2.0)],
                     id="k-grid"),
    ])
    def test_eval_coefficient_columns_match_rows(self, pots):
        """(k, 1) parameter columns give each row its member's bits."""
        kinds, p0, p1 = family_coefficients(pots)
        d = np.random.default_rng(8).normal(0.0, 2.0, (len(pots), 257))
        got = eval_coefficients(int(kinds[0]), p0[:, None], p1[:, None], d)
        for r, pot in enumerate(pots):
            np.testing.assert_array_equal(got[r],
                                          np.asarray(pot(d[r]), dtype=float))

    def test_custom_potential_has_no_coefficients(self):
        pot = CustomPotential(lambda d: np.tanh(d), "wrapped-tanh")
        assert pot.kernel_coefficients() is None
        assert family_coefficients([TanhPotential(), pot]) is None

    def test_family_coefficients_mixes_families(self):
        pots = [TanhPotential(2.0), BottleneckPotential(1.5),
                KuramotoPotential(), LinearPotential(0.3)]
        kinds, p0, p1 = family_coefficients(pots)
        assert kinds.tolist() == [0, 1, 2, 3]
        assert p0[0] == 2.0 and p0[1] == 1.5 and p0[3] == 0.3


# ----------------------------------------------------------------------
# single-state equivalence
# ----------------------------------------------------------------------
class TestSingleEquivalence:
    @pytest.mark.parametrize("kernel", _kernel_params())
    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    @pytest.mark.parametrize("make_pot", POTENTIALS)
    def test_coupling_matches_numpy(self, make_topo, make_pot, kernel):
        topo = make_topo()
        model = _model(topo, make_pot())
        theta = np.random.default_rng(1).normal(0.0, 1.0, topo.n)
        ref = _single(model, kernel="numpy").coupling_term(0.0, theta)
        out = _single(model, kernel=kernel).coupling_term(0.0, theta)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel", _kernel_params())
    def test_custom_potential(self, kernel):
        pot = CustomPotential(lambda d: np.tanh(d) + 0.05 * d, "mix")
        model = _model(ring(64), pot)
        theta = np.random.default_rng(2).normal(0.0, 1.0, 64)
        ref = _single(model, kernel="numpy").coupling_term(0.0, theta)
        if kernel == "cc":
            with pytest.raises(ValueError, match="kernel coefficients"):
                _single(model, kernel=kernel).backend
            return
        out = _single(model, kernel=kernel).coupling_term(0.0, theta)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)


# ----------------------------------------------------------------------
# batched / hetero equivalence
# ----------------------------------------------------------------------
class TestBatchedEquivalence:
    @pytest.mark.parametrize("kernel", _kernel_params())
    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    def test_homogeneous_batch(self, make_topo, kernel):
        from repro.core import GaussianJitter

        topo = make_topo()
        model = _model(topo, TanhPotential(),
                       local_noise=GaussianJitter(std=0.02, refresh=0.5))
        members = [model.realize(5.0, rng=s) for s in range(5)]
        thetas = np.random.default_rng(3).normal(0.0, 1.0, (5, topo.n))
        ref = np.stack([m.coupling_term(0.0, thetas[i])
                        for i, m in enumerate(members)])
        out = HeteroBatchedBackend(members, kernel=kernel).coupling(
            0.0, thetas)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel", _kernel_params())
    def test_hetero_mixed_families(self, kernel):
        topo = ring(80, (1, -1))
        pots = [TanhPotential(0.5), BottleneckPotential(1.1),
                KuramotoPotential(), LinearPotential(0.8),
                BottleneckPotential(2.0)]
        models = [_model(topo, p, v_p_override=0.05 * (i + 1))
                  for i, p in enumerate(pots)]
        members = [m.realize(5.0, rng=7) for m in models]
        thetas = np.random.default_rng(4).normal(0.0, 1.0, (5, 80))
        ref = np.stack([m.coupling_term(0.0, thetas[i])
                        for i, m in enumerate(members)])
        backend = HeteroBatchedBackend(members, kernel=kernel)
        np.testing.assert_allclose(backend.coupling(0.0, thetas), ref,
                                   rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel", ["auto", "numpy"])
    def test_hetero_custom_potential_fallback(self, kernel):
        """CustomPotential members (no coefficients) call their own potential."""
        topo = ring(48, (1, -1))
        pots = [TanhPotential(),
                CustomPotential(lambda d: 0.5 * np.sin(d), "half-sin"),
                CustomPotential(lambda d: np.arctan(d), "atan")]
        models = [_model(topo, p) for p in pots]
        members = [m.realize(5.0, rng=2) for m in models]
        thetas = np.random.default_rng(5).normal(0.0, 1.0, (3, 48))
        ref = np.stack([m.coupling_term(0.0, thetas[i])
                        for i, m in enumerate(members)])
        backend = HeteroBatchedBackend(members, kernel=kernel)
        assert backend.kernel == "numpy"
        np.testing.assert_allclose(backend.coupling(0.0, thetas), ref,
                                   rtol=1e-12, atol=1e-13)

    def test_hetero_custom_potential_compiled_raises(self):
        topo = ring(48, (1, -1))
        members = [_model(topo, CustomPotential(np.sin, "sin")).realize(
            5.0, rng=0)]
        with pytest.raises((ValueError, RuntimeError)):
            HeteroBatchedBackend(members, kernel="cc")

    def test_subset_propagates_kernel(self):
        topo = ring(48, (1, -1))
        members = [_model(topo, TanhPotential()).realize(5.0, rng=s)
                   for s in range(4)]
        backend = HeteroBatchedBackend(members, kernel="numpy")
        sub = backend.subset([1, 3])
        assert sub.kernel == "numpy"

    def test_make_batched_backend_kernel_knob(self):
        topo = ring(48, (1, -1))
        members = [_model(topo, TanhPotential()).realize(5.0, rng=s)
                   for s in range(3)]
        backend = make_batched_backend(members, kernel="numpy")
        assert backend.kernel == "numpy"


# ----------------------------------------------------------------------
# ring specialisation (cc kernel)
# ----------------------------------------------------------------------
class TestRingOffsets:
    def test_detects_rings(self):
        for dists in ((1, -1), (1, -1, -2), (3, 5)):
            topo = ring(37, dists)
            rows, cols = topo.edge_list()
            offs = cc_kernels.ring_offsets(rows, cols, topo.n)
            assert offs is not None
            assert sorted(offs.tolist()) == sorted(
                {d % 37 for d in set(dists) | {-d for d in dists}})

    def test_rejects_non_rings(self):
        for topo in (chain(24, (1, -1)),
                     random_topology(24, 0.2,
                                     rng=np.random.default_rng(1))):
            rows, cols = topo.edge_list()
            assert cc_kernels.ring_offsets(rows, cols, topo.n) is None

    @pytest.mark.parametrize("rows,cols", [(8, 7), (5, 5), (2, 6), (6, 2),
                                           (16, 3), (3, 16)])
    def test_rejects_torus(self, rows, cols):
        # The within-row wrap gives a torus no shared flat offset set, so
        # it runs the edge-list entry, not the ring entry.
        topo = torus2d(rows, cols)
        r, c = topo.edge_list()
        assert cc_kernels.ring_offsets(r, c, topo.n) is None

    def test_accepts_nearest_neighbour_ring(self):
        topo = ring(24, (1, -1))
        r, c = topo.edge_list()
        assert cc_kernels.ring_offsets(r, c, topo.n).tolist() == [1, 23]


# ----------------------------------------------------------------------
# 2-D tori run the edge-list entry in row-major order
# ----------------------------------------------------------------------
class TestTorusEdgeOrder:
    @needs_cc
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("r_count", [1, 3])
    @pytest.mark.parametrize("shape", [(8, 8), (9, 6)], ids=["8x8", "9x6"])
    def test_linear_torus_equals_numpy(self, shape, r_count, threads):
        # No transcendentals: the compiled row sums equal the bincount
        # reference bit for bit only if they accumulate in the same
        # row-major edge order.
        topo = torus2d(*shape)
        members = [_model(topo, LinearPotential(0.6 + 0.1 * i),
                          v_p_override=1.0 + 0.5 * i).realize(5.0, rng=i)
                   for i in range(r_count)]
        compiled = make_batched_backend(members, kernel="cc", threads=threads)
        reference = make_batched_backend(members, kernel="numpy")
        assert compiled._cc_call.entry == "fused_batched"
        rng = np.random.default_rng(23)
        for _ in range(3):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, (r_count, topo.n))
            assert np.array_equal(compiled.coupling(0.0, theta),
                                  reference.coupling(0.0, theta))


# ----------------------------------------------------------------------
# cc build cache key
# ----------------------------------------------------------------------
class TestPreboundCalls:
    """Backends bind their static kernel arguments once, as raw addresses."""

    @staticmethod
    def _backends(topo):
        single = make_batched_backend(
            [_model(topo, BottleneckPotential(0.8)).realize(5.0, rng=0)],
            kernel="cc")
        batched = HeteroBatchedBackend(
            [_model(topo, TanhPotential(1.3), v_p_override=1.0 + i)
             .realize(5.0, rng=i) for i in range(3)], kernel="cc")
        return single, batched

    @needs_cc
    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_give_same_bits(self, make_topo, how):
        import copy
        import gc
        import pickle

        topo = make_topo()
        rng = np.random.default_rng(8)
        for backend in self._backends(topo):
            shape = (backend.n_members, topo.n)
            thetas = [rng.normal(0.0, 2.0, shape) for _ in range(3)]
            ref = [backend.coupling(0.0, th) for th in thetas]
            clone = (copy.deepcopy(backend) if how == "deepcopy"
                     else pickle.loads(pickle.dumps(backend)))
            # The clone's capsule is bound on its own arrays ...
            call = clone._cc_call
            assert call._capsule is not backend._cc_call._capsule
            assert not np.shares_memory(call.static[0],
                                        backend._cc_call.static[0])
            # ... so it stays valid once the original's buffers are gone.
            del backend
            gc.collect()
            for th, want in zip(thetas, ref):
                np.testing.assert_array_equal(clone.coupling(0.0, th), want)

    @needs_cc
    def test_specialised_entries_are_bound(self):
        # Only a distance ring is specialised; a torus runs the
        # edge-list entry like any other list.
        entries = (("ring", ring(40, (1, -1))),
                   ("fused", torus2d(6, 5)),
                   ("fused", random_topology(
                       30, 0.2, rng=np.random.default_rng(1))))
        for entry, topo in entries:
            single, batched = self._backends(topo)
            # A single state runs the batched entry as a (1, N) stack.
            n = single.n
            assert single._cc_call.entry == f"{entry}_batched"
            assert single._cc_call.shape == (1, n)
            assert batched._cc_call.entry == f"{entry}_batched"
            assert batched._cc_call.shape == (3, n)

    @needs_cc
    def test_mismatched_call_rejected(self):
        single, batched = self._backends(ring(40, (1, -1)))
        theta = np.zeros((3, 40))
        with pytest.raises(ValueError, match="bound for ring_batched"):
            cc_kernels.fused_batched(batched._cc_call, theta,
                                     np.empty_like(theta))
        with pytest.raises(ValueError, match="bound shape"):
            cc_kernels.ring_batched(batched._cc_call, theta[:2],
                                    np.empty((2, 40)))
        with pytest.raises(ValueError, match="bound shape"):
            cc_kernels.ring_batched(single._cc_call, np.zeros((1, 41)),
                                    np.empty((1, 41)))
        with pytest.raises(ValueError, match="C-contiguous float64"):
            cc_kernels.ring_batched(batched._cc_call, theta.astype(np.float32),
                                    np.empty_like(theta))
        with pytest.raises(ValueError, match="C-contiguous float64"):
            cc_kernels.ring_batched(batched._cc_call, np.zeros((40, 3)).T,
                                    np.empty_like(theta))
        with pytest.raises(ValueError, match="unknown kernel entry"):
            cc_kernels.KernelCall("ring_stacked", (), (0, 1.0, 0.0, 1.0),
                                  (40,))

    @needs_cc
    @pytest.mark.parametrize("lo, hi", [
        ([0, 0], [4, 4]),        # wrong length (R = 3)
        ([0, -1, 0], [4, 4, 4]),  # negative start
        ([0, 0, 0], [4, 5, 4]),   # past the end of the edge list
        ([0, 3, 0], [4, 2, 4]),   # start after its end
    ])
    def test_bad_edge_ranges_rejected(self, lo, hi):
        rows = np.array([0, 0, 1, 1], dtype=np.int32)
        cols = np.array([1, 2, 0, 2], dtype=np.int32)
        coeffs = ([1] * 3, [1.0] * 3, [0.0] * 3, [0.5] * 3)
        with pytest.raises(ValueError, match="edge ranges"):
            cc_kernels.KernelCall("fused_batched", (rows, cols, lo, hi),
                                  coeffs, (3, 3))
        # the same call with in-range edges binds and runs
        call = cc_kernels.KernelCall("fused_batched",
                                     (rows, cols, [0, 0, 2], [4, 2, 4]),
                                     coeffs, (3, 3))
        theta = np.random.default_rng(2).normal(size=(3, 3))
        out = cc_kernels.fused_batched(call, theta, np.empty_like(theta))
        assert out[1, 2] == 0.0 and out[2, 0] == 0.0

    @needs_cc
    def test_read_only_out_rejected(self):
        _, batched = self._backends(ring(40, (1, -1)))
        theta = np.zeros((3, 40))
        out = np.empty_like(theta)
        out.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            cc_kernels.ring_batched(batched._cc_call, theta, out)

    @needs_cc
    def test_overlapping_out_rejected(self):
        _, batched = self._backends(ring(40, (1, -1)))
        buf = np.random.default_rng(4).normal(size=(4, 40))
        before = buf.copy()
        for theta, out in ((buf[:3], buf[:3]), (buf[:3], buf[1:])):
            with pytest.raises(ValueError, match="overlaps"):
                cc_kernels.ring_batched(batched._cc_call, theta, out)
        np.testing.assert_array_equal(buf, before)

    @needs_cc
    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    def test_call_pickled_into_spawned_process_gives_same_bits(self,
                                                               make_topo):
        import multiprocessing

        topo = make_topo()
        _, batched = self._backends(topo)
        call = batched._cc_call
        run = getattr(cc_kernels, call.entry)
        theta = np.random.default_rng(6).normal(0.0, 2.0, (3, topo.n))
        want = run(call, theta, np.empty_like(theta))
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            got = pool.apply(run, (call, theta, np.empty_like(theta)))
        np.testing.assert_array_equal(got, want)

    @needs_cc
    def test_loading_keeps_subnormals(self):
        # The library is linked without -ffast-math: its crtfastmath.o
        # would set flush-to-zero for the whole process when loaded.
        assert cc_kernels.load_library() is not None
        assert np.float64(1e-310) * 0.5 != 0.0


class TestMeanCosSin:
    """The compiled order-parameter reduction against the numpy branch of
    the one helper, ``repro.metrics.streaming.mean_cos_sin``."""

    @needs_cc
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 10_000])
    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_matches_numpy(self, n, rows):
        from repro.metrics.streaming import mean_cos_sin

        rng = np.random.default_rng(n + rows)
        # Scattered phases, and a synchronised state (every cosine and
        # sine near one value: the worst case for summation order).
        states = [rng.uniform(-scale, scale, (rows, n))
                  for scale in (np.pi, 1e3)]
        states.append(rng.uniform(-1e3, 1e3, (rows, 1))
                      + rng.normal(0.0, 1e-3, (rows, n)))
        for theta in states:
            got = mean_cos_sin(theta, kernel="cc")
            want = mean_cos_sin(theta, kernel="numpy")
            for g, w in zip(got, want):
                assert g.shape == w.shape == (rows,)
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-15)

    @needs_cc
    @pytest.mark.parametrize("shape", [(65,), (3, 65), (2, 4, 65)])
    def test_any_leading_shape(self, shape):
        # Rows are reduced independently: each lands where the numpy
        # branch puts it, with the bits it has alone.
        from repro.metrics.streaming import mean_cos_sin

        theta = np.random.default_rng(1).uniform(-10.0, 10.0, shape)
        got = mean_cos_sin(theta, kernel="cc")
        want = mean_cos_sin(theta, kernel="numpy")
        flat = theta.reshape(-1, shape[-1])
        for part, (g, w) in enumerate(zip(got, want)):
            assert np.shape(g) == np.shape(w) == shape[:-1]
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-15)
            alone = [mean_cos_sin(row, kernel="cc")[part] for row in flat]
            np.testing.assert_array_equal(np.reshape(g, -1), alone)
        if len(shape) == 1:
            assert isinstance(got[0], np.float64)

    @needs_cc
    def test_rejects_bad_arguments(self):
        theta = np.random.default_rng(2).normal(size=(3, 40))
        for bad_out, match in ((np.empty((2, 4)), "shape \\(2, 3\\)"),
                               (np.empty((3, 2)), "shape \\(2, 3\\)"),
                               (np.empty(6), "shape \\(2, 3\\)"),
                               (np.empty((2, 3), np.float32), "float64"),
                               (np.empty((3, 2)).T, "C-contiguous")):
            with pytest.raises(ValueError, match=match):
                cc_kernels.mean_cos_sin(theta, bad_out)
        for bad_theta in (theta.astype(np.float32), theta.T, theta[0],
                          np.empty((3, 2, 4))):
            with pytest.raises(ValueError, match="theta must be"):
                cc_kernels.mean_cos_sin(bad_theta, np.empty((2, 3)))
        with pytest.raises(ValueError, match="no phases"):
            cc_kernels.mean_cos_sin(np.empty((3, 0)), np.empty((2, 3)))
        with pytest.raises(ValueError, match="threads"):
            cc_kernels.mean_cos_sin(theta, np.empty((2, 3)), 0)
        out = np.empty((2, 3))
        out.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            cc_kernels.mean_cos_sin(theta, out)

    @needs_cc
    def test_overlapping_out_rejected(self):
        buf = np.random.default_rng(3).normal(size=(4, 2))
        before = buf.copy()
        for theta, out in ((buf[:2], buf[:2]), (buf[:2], buf[1:3]),
                           (buf[2:], buf[1:3])):
            with pytest.raises(ValueError, match="overlaps"):
                cc_kernels.mean_cos_sin(theta, out)
        np.testing.assert_array_equal(buf, before)
        # adjacent, not overlapping
        cc_kernels.mean_cos_sin(buf[:2], buf[2:])

    def test_numpy_branch_is_the_reference_formula(self):
        from repro.metrics.streaming import mean_cos_sin

        theta = np.random.default_rng(4).normal(size=(5, 33))
        c, s = mean_cos_sin(theta, kernel="numpy")
        np.testing.assert_array_equal(c, np.cos(theta).mean(axis=-1))
        np.testing.assert_array_equal(s, np.sin(theta).mean(axis=-1))


class TestBuildCache:
    @pytest.fixture(autouse=True)
    def _private_tempdir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "cache"))
        (tmp_path / "cache").mkdir()

    @staticmethod
    def _fake_compiler(path, banner):
        path.write_text(f"#!/bin/sh\necho '{banner}'\n")
        path.chmod(0o755)
        return str(path)

    def test_compiler_changes_cache_path(self, tmp_path, monkeypatch):
        paths = []
        for name in ("cc-a", "cc-b"):
            exe = self._fake_compiler(tmp_path / name, "cc 1.0")
            monkeypatch.setattr(cc_kernels, "_compiler", lambda exe=exe: exe)
            paths.append(cc_kernels._cache_path())
        assert paths[0] != paths[1]

    def test_replaced_compiler_changes_cache_path(self, tmp_path, monkeypatch):
        paths = []
        for mtime, banner in ((1_000_000, "cc 1.0"), (2_000_000, "cc 10.0")):
            exe = self._fake_compiler(tmp_path / "cc", banner)
            os.utime(exe, (mtime, mtime))
            monkeypatch.setattr(cc_kernels, "_compiler", lambda exe=exe: exe)
            paths.append(cc_kernels._cache_path())
        assert paths[0] != paths[1]

    def test_flag_sets_change_cache_path(self, monkeypatch):
        before = cc_kernels._cache_path()
        monkeypatch.setattr(cc_kernels, "_FLAG_SETS", ((["-O1", "-fPIC"], []),))
        assert cc_kernels._cache_path() != before


# ----------------------------------------------------------------------
# edge-list topologies at (moderately) large N
# ----------------------------------------------------------------------
class TestEdgeBackedTopology:
    def test_large_n_never_densifies(self):
        topo = ring(100_000, (1, -1))
        assert topo.n_edges == 200_000
        assert topo.degree()[0] == 2.0
        assert topo.is_symmetric
        with pytest.raises(MemoryError):
            _ = topo.matrix

    def test_batched_validation_never_densifies(self):
        """Equal large topologies (distinct objects) must batch."""
        models = [
            PhysicalOscillatorModel(
                topology=ring(100_000, (1, -1)),
                potential=TanhPotential(),
                t_comp=0.9, t_comm=0.1, v_p_override=0.1 * (i + 1))
            for i in range(2)
        ]
        members = [m.realize(1.0, rng=0) for m in models]
        backend = HeteroBatchedBackend(members)   # must not raise MemoryError
        assert backend.n == 100_000
        small = ring(50, (1, -1))
        other = ring(50, (1, -1, -2))
        mixed = [
            PhysicalOscillatorModel(topology=t, potential=TanhPotential(),
                                    t_comp=0.9, t_comm=0.1).realize(1.0, rng=0)
            for t in (small, other)
        ]
        # Same-N mixed topologies now batch as a topology-axis group
        # (still comparing edge lists, never densifying).
        assert HeteroBatchedBackend(
            mixed, kernel="numpy").describe()["mixed_topologies"]

    def test_large_n_rhs_evaluates(self):
        topo = ring(50_000, (1, -1))
        model = _model(topo, TanhPotential())
        realized = model.realize(1.0, rng=0)
        theta = np.random.default_rng(0).normal(0.0, 1.0, topo.n)
        out = realized.rhs(0.0, theta)
        assert out.shape == (50_000,)
        assert np.all(np.isfinite(out))


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------
class TestEndToEnd:
    @pytest.mark.parametrize("kernel", _kernel_params())
    def test_simulate_kernel_knob(self, kernel):
        from repro.core import GaussianJitter

        model = _model(ring(32), BottleneckPotential(1.0),
                       local_noise=GaussianJitter(std=0.01, refresh=0.5))
        ref = simulate(model, 20.0, seed=0, kernel="numpy")
        traj = simulate(model, 20.0, seed=0, kernel=kernel)
        np.testing.assert_allclose(traj.thetas, ref.thetas,
                                   rtol=1e-8, atol=1e-8)

    def test_simulate_grid_honours_model_kernel_field(self, monkeypatch):
        from repro.core import simulate_grid
        from repro.core import simulation as sim_mod

        captured = {}
        orig = sim_mod.make_batched_backend

        def spy(members, kernel="auto", threads=None):
            captured["kernel"] = kernel
            return orig(members, kernel=kernel, threads=threads)

        monkeypatch.setattr(sim_mod, "make_batched_backend", spy)
        topo = ring(24)
        models = [_model(topo, TanhPotential(), kernel="numpy")
                  for _ in range(3)]
        simulate_grid(models, 5.0, method="rk4")
        assert captured["kernel"] == "numpy"
        # disagreeing fields fall back to auto
        models[1] = _model(topo, TanhPotential(), kernel="auto")
        simulate_grid(models, 5.0, method="rk4")
        assert captured["kernel"] == "auto"

    def test_cli_kernel_flag(self, capsys):
        from repro.cli import main

        assert main(["model", "--n", "16", "--t-end", "5",
                     "--kernel", "numpy", "--view", "summary"]) == 0
        out = capsys.readouterr().out
        assert "kernel=numpy" in out

    def test_cli_kernel_auto_reports_resolved(self, capsys):
        from repro.cli import main

        assert main(["model", "--n", "16", "--t-end", "5",
                     "--view", "summary"]) == 0
        out = capsys.readouterr().out
        assert "kernel=" in out
