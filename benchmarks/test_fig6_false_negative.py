"""Figure 6: false negative rate (theta_n).

(a) theta_n vs traffic volume under Pd in {70, 80, 90}%;
(b) theta_n vs TCP share for Vt in {30, 70, 100};
(c) theta_n vs domain size N for TCP share in {35, 55, 75, 95}%.

Paper shape: theta_n is small (sub-1% at Pd = 90% on the default axis,
a few percent at lower Pd), and decreases as Pd rises — the leakage is
the (1 - Pd) slip-through during the 2 x RTT probing phase.
"""

from conftest import run_once, series_mean

from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_figure


class TestFig6a:
    def test_fig6a(self, benchmark, scale):
        figure = run_once(benchmark, run_figure, "fig6a", scale=scale)
        print()
        print(format_figure(figure))
        # Leakage shrinks as Pd grows.
        assert (
            series_mean(figure, "Pd=90%")
            < series_mean(figure, "Pd=80%")
            < series_mean(figure, "Pd=70%")
        )
        # Pd=90% stays around the paper's sub-1% band.
        assert all(y < 1.5 for y in figure.ys("Pd=90%"))
        # Everything bounded by a few percent.
        for name in figure.series:
            assert all(0.0 <= y < 6.0 for y in figure.ys(name)), name


class TestFig6b:
    def test_fig6b(self, benchmark, scale):
        figure = run_once(benchmark, run_figure, "fig6b", scale=scale)
        print()
        print(format_figure(figure))
        # Paper's Fig 6(b) tops out around 4%.
        for name in figure.series:
            assert all(0.0 <= y < 6.0 for y in figure.ys(name)), name


class TestFig6c:
    def test_fig6c(self, benchmark, scale):
        figure = run_once(benchmark, run_figure, "fig6c", scale=scale)
        print()
        print(format_figure(figure))
        # Domain size does not break detection: bounded everywhere.
        for name in figure.series:
            assert all(0.0 <= y < 6.0 for y in figure.ys(name)), name
