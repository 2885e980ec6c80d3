"""FIG2 bench — regenerate Fig. 2: the four-panel MPI-vs-model analogy.

Paper artefact: for {scalable, bottlenecked} x {d=±1, d=±1,-2}, the
oscillator model's asymptotic state must match the MPI (here: DES)
phenomenology — resynchronisation for the scalable panels, a residual
computational wavefront for the bottlenecked ones — and the stiffer
topology must propagate delays faster (paper: ~3x from (b) to (d))
with a smaller asymptotic phase spread.
"""

import pytest

from repro.experiments import run_fig2


@pytest.fixture(scope="module")
def fig2_result():
    # Reduced but fully-featured configuration, same qualitative content.
    # On a 2-core x86-64 host (Python 3.11, NumPy 2.4, cc kernel) it takes
    # 8.6-8.9 s and the defaults (N=40, 50 iterations) 8.1-8.7 s.
    return run_fig2(n_ranks=24, n_iterations=40, sigma_b=1.5,
                    t_end=None, seed=0)


@pytest.mark.benchmark(group="fig2")
def test_fig2_four_panels(benchmark, fig2_result, reports):
    # Benchmark one representative panel solve (model side dominates).
    from repro.experiments import run_panel

    benchmark.pedantic(
        lambda: run_panel("bench2b", scalable=False, distances=(1, -1),
                          sigma=1.5, n_ranks=24, n_iterations=30,
                          t_end=800.0, seed=0),
        rounds=3, iterations=1,
    )

    res = fig2_result
    # --- the figure's verdicts -----------------------------------------
    assert res.panels["fig2a"].model_verdict.is_synchronized
    assert res.panels["fig2c"].model_verdict.is_synchronized
    assert res.panels["fig2b"].model_verdict.is_desynchronized
    assert res.panels["fig2d"].model_verdict.is_desynchronized
    assert res.all_panels_agree()

    # Bottleneck gaps at the potential zero (2*sigma/3).
    assert res.panels["fig2b"].model_gap == pytest.approx(1.0, rel=0.1)

    # Stiffer topology: faster trace wave, proportionally smaller
    # asymptotic gaps (the spread itself is dominated by the domain
    # pattern the ring freezes into — see EXPERIMENTS.md).
    assert res.trace_speed_ratio_d_over_b > 1.4
    assert (res.panels["fig2b"].model_gap
            > 2.5 * res.panels["fig2d"].model_gap)

    for name, p in res.panels.items():
        reports.append(
            f"FIG2   {name}: model={p.model_verdict.state.value:<15} "
            f"spread={p.model_spread:5.2f}/{p.model_spread_clean:5.2f} "
            f"|gap|={p.model_gap:5.2f} "
            f"trace_wave={p.trace_wave.speed_ranks_per_iteration:4.2f} r/it "
            f"desync_idx={p.trace_desync.desync_index:5.2f} "
            f"agree={p.agrees_with_paper}")
    reports.append(
        f"FIG2   speed ratio (d)/(b): trace "
        f"{res.trace_speed_ratio_d_over_b:.2f}x (paper ~3x), model "
        f"{res.model_speed_ratio_d_over_b:.2f}x; spread ratio (b)/(d): "
        f"{res.model_spread_ratio_b_over_d:.2f}x")
