"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro import kernels
from repro.cli import build_parser, main
from repro.experiments.registry import REGISTRY


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_args(self):
        args = build_parser().parse_args(["run", "fig1a", "--out", "/tmp/x"])
        assert args.experiment == "fig1a"
        assert args.out == "/tmp/x"

    def test_model_defaults(self):
        args = build_parser().parse_args(["model"])
        assert args.n == 24
        assert args.potential == "tanh"
        assert args.view == "phases"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.kernel == "pisolver"
        assert args.ranks == 40

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out
        assert "fig2" in out

    def test_run_fig1a(self, capsys, tmp_path):
        assert main(["run", "fig1a", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig1a_potentials.csv").exists()
        assert "FIG1A" in capsys.readouterr().out

    def test_model_summary_view(self, capsys):
        rc = main(["model", "--n", "8", "--t-end", "20",
                   "--view", "summary"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "beta*kappa=2" in out

    def test_model_circle_view(self, capsys):
        rc = main(["model", "--n", "8", "--t-end", "10",
                   "--view", "circle"])
        assert rc == 0
        assert "asymptotic phases" in capsys.readouterr().out

    def test_model_bottleneck_with_delay(self, capsys):
        rc = main(["model", "--n", "8", "--potential", "bottleneck",
                   "--sigma", "1.0", "--t-end", "30", "--delay-rank", "2",
                   "--view", "summary"])
        assert rc == 0

    def test_model_rendezvous_waitall(self, capsys):
        rc = main(["model", "--n", "8", "--t-end", "10",
                   "--protocol", "rendezvous", "--waitall",
                   "--distances", "1,-1,-2", "--view", "summary"])
        assert rc == 0
        # beta=2, kappa=max=2 under waitall.
        assert "beta*kappa=4" in capsys.readouterr().out

    def test_trace_with_delay(self, capsys):
        rc = main(["trace", "--kernel", "pisolver", "--ranks", "8",
                   "--iters", "10", "--delay-rank", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_bad_distances_message(self):
        with pytest.raises(SystemExit, match="bad distance set"):
            main(["model", "--distances", "1,x"])

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig77"])


SPEC_JSON = """
{
  "name": "cli-grid",
  "model": {
    "topology": {"kind": "ring", "n": 10, "distances": [1, -1]},
    "potential": {"kind": "bottleneck", "sigma": 1.0},
    "t_comp": 0.9,
    "t_comm": 0.1
  },
  "t_end": 6.0,
  "solver": {"method": "rk4"},
  "initial": {"kind": "normal", "std": 0.001, "seed": 0},
  "axes": [["potential.sigma", [0.5, 1.0, 1.5]], ["seed", [0, 1]]]
}
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(SPEC_JSON)
    return str(path)


class TestPlanCommand:
    def test_plan_spec_file(self, capsys, spec_file):
        assert main(["plan", spec_file, "--shard-members", "2"]) == 0
        out = capsys.readouterr().out
        assert "6 members -> 3 shard(s)" in out
        assert "method=rk4" in out
        kernel = "cc" if kernels.cc_available() else "numpy"
        assert f"kernel={kernel}" in out

    def test_plan_registry_spec(self, capsys):
        assert main(["plan", "sigma", "--quick"]) == 0
        assert "sweep-sigma" in capsys.readouterr().out

    def test_plan_with_cache_state(self, capsys, spec_file, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["plan", spec_file, "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "[pending]" in out
        assert "0 entries" in out

    def test_plan_speclesss_experiment_rejected(self):
        with pytest.raises(SystemExit, match="no declarative scenario"):
            main(["plan", "fig1a"])


class TestRunSpecFile:
    def test_run_writes_artifacts(self, capsys, spec_file, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["run", spec_file, "--shard-members", "2",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "cli-grid.csv").exists()
        assert (out_dir / "cli-grid.npz").exists()
        assert "3 shard(s) solved" in capsys.readouterr().out

    def test_jobs_equality_and_cache_replay(self, capsys, spec_file,
                                            tmp_path):
        cache = str(tmp_path / "cache")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", spec_file, "--jobs", "2", "--shard-members",
                     "2", "--cache", cache, "--out", str(out1)]) == 0
        assert main(["run", spec_file, "--jobs", "1", "--shard-members",
                     "2", "--out", str(out2)]) == 0
        with np.load(out1 / "cli-grid.npz") as a, \
                np.load(out2 / "cli-grid.npz") as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key])
        capsys.readouterr()
        # warm replay: pure cache hit
        assert main(["run", spec_file, "--jobs", "2", "--shard-members",
                     "2", "--cache", cache]) == 0
        assert "0 shard(s) solved, 3 from cache" in capsys.readouterr().out


class TestQueueInspect:
    def test_missing_queue_prints_empty_ledger(self, capsys, tmp_path):
        """Inspection must not create the database as a side effect."""
        path = tmp_path / "nope" / "q.db"
        assert main(["queue", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no such queue file" in out
        assert "pending=0" in out and "quarantined=0" in out
        assert not path.exists()
        assert not path.parent.exists()


class TestRegistrySmoke:
    """Every REGISTRY entry must run end-to-end through ``pom run``.

    Quick configurations (the entry's ``quick_kwargs``) into a tmpdir,
    so registry entries can never silently rot.
    """

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_pom_run_quick(self, name, capsys, tmp_path):
        assert main(["run", name, "--quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"[{REGISTRY[name].id}]" in out
        # every experiment writes at least one CSV artefact
        assert list(tmp_path.glob("*.csv")), f"{name} wrote no CSV"

    def test_orchestrated_sweep_through_pom_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["run", "sigma", "--quick", "--cache", cache]) == 0
        capsys.readouterr()
        # the sweep's campaign is cached: replay hits the cache
        assert main(["run", "sigma", "--quick", "--cache", cache]) == 0

    def test_point_by_point_sweep_through_pom_run(self, capsys):
        # --shard-members 1 is the point-by-point cross-check of a sweep
        assert main(["run", "sigma", "--quick", "--shard-members", "1"]) == 0
        assert "SigmaSweep" in capsys.readouterr().out

    def test_orchestration_flags_noop_notice(self, capsys, tmp_path):
        assert main(["run", "fig1a", "--jobs", "2",
                     "--out", str(tmp_path)]) == 0
        assert "no effect" in capsys.readouterr().out
