"""Figure 3: attack-packet dropping accuracy.

(a) accuracy vs total traffic volume under Pd in {70, 80, 90}%;
(b) accuracy vs total traffic volume under R in {100k, 500k, 1M} bps.

Paper shape: accuracy consistently high (99.2-99.8% in the paper's
setup) across traffic volumes, ordered by Pd, and insensitive to the
source rate.
"""

from conftest import run_once, series_mean

from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_figure


class TestFig3a:
    def test_fig3a(self, benchmark, scale):
        figure = run_once(benchmark, run_figure, "fig3a", scale=scale)
        print()
        print(format_figure(figure))

        # Every point stays in a high-accuracy band.
        for name in figure.series:
            assert all(y > 94.0 for y in figure.ys(name)), name
        # Higher Pd -> higher accuracy (averaged over the axis).
        assert (
            series_mean(figure, "Pd=90%")
            > series_mean(figure, "Pd=80%")
            > series_mean(figure, "Pd=70%")
        )
        # The headline claim: Pd=90% accuracy ~ 99%.
        assert series_mean(figure, "Pd=90%") > 98.5


class TestFig3b:
    def test_fig3b(self, benchmark, scale):
        figure = run_once(benchmark, run_figure, "fig3b", scale=scale)
        print()
        print(format_figure(figure))

        # Accuracy stays high at every source rate...
        for name in figure.series:
            assert all(y > 96.0 for y in figure.ys(name)), name
        # ...and is roughly rate-insensitive: all three series within a
        # small band of each other.
        means = [series_mean(figure, name) for name in figure.series]
        assert max(means) - min(means) < 2.0
