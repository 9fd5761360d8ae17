"""Figure 4: responsiveness of flow cutting.

(a) traffic reduction rate vs traffic volume under Pd in {70, 80, 90}%;
(b) victim-arrival bandwidth vs time for Vt in {10, 30, 50}.

Paper shape: the victim's arrival rate collapses within ~2 x RTT of the
trigger; reduction tracks Pd (the paper reports ~95/85/80% for
Pd = 90/80/70%); after the cut, legitimate flows regain bandwidth.
"""

from conftest import run_once, series_mean

from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_figure


class TestFig4a:
    def test_fig4a(self, benchmark, scale):
        figure = run_once(benchmark, run_figure, "fig4a", scale=scale)
        print()
        print(format_figure(figure))

        # Reduction tracks Pd.
        assert (
            series_mean(figure, "Pd=90%")
            > series_mean(figure, "Pd=80%")
            > series_mean(figure, "Pd=70%")
        )
        # All series show a substantial cut.  The paper's band is
        # 70-100%; ours sits lower because our workload's legitimate-TCP
        # share of the flood peak is larger (recovered TCP raises the
        # post-cut floor) — see EXPERIMENTS.md.
        for name in figure.series:
            assert all(50.0 <= y <= 100.0 for y in figure.ys(name)), name
        # Pd=90% stays in the paper's band.
        assert all(y >= 70.0 for y in figure.ys("Pd=90%"))


class TestFig4b:
    def test_fig4b(self, benchmark, scale):
        figure = run_once(benchmark, run_figure, "fig4b", scale=scale)
        print()
        # The full time series is long; print a decimated view.
        for name, points in figure.series.items():
            decimated = points[:: max(1, len(points) // 24)]
            print(f"# fig4b series {name}")
            for t, kbps in decimated:
                print(f"  {t:6.2f}s {kbps:10.1f} kbps")

        for name, runs in figure.runs.items():
            run = runs[0]
            t0 = run.activation_time
            assert t0 is not None, f"{name}: defence never engaged"
            series = run.series
            peak = series.mean_total_kbps(t0 - 0.3, t0)
            dip = series.mean_total_kbps(t0 + 0.1, t0 + 0.4)
            late = series.mean_total_kbps(
                run.config.duration - 0.6, run.config.duration
            )
            # The cut: arrival collapses right after the trigger...
            assert dip < 0.55 * peak, name
            # ...and stays below the flood peak while nice TCP returns.
            assert late < peak, name
            assert late > 0, name
