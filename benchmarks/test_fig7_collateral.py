"""Figure 7: legitimate-packet dropping rate (Lr).

Lr vs traffic volume under Pd in {70, 80, 90}%.

Paper shape: even at high Pd the probing cost on well-behaved flows is
small — the published curves sit under ~3% and flatten toward ~1% as
volume grows.  Our substrate's Lr scales with RTT / active-time (see
EXPERIMENTS.md), landing in the same few-percent band.
"""

from conftest import run_once

from repro.experiments.figures import run_figure
from repro.experiments.reporting import format_figure


class TestFig7:
    def test_fig7(self, benchmark, scale):
        figure = run_once(benchmark, run_figure, "fig7", scale=scale)
        print()
        print(format_figure(figure))

        for name in figure.series:
            ys = figure.ys(name)
            # The collateral band: a few percent, never runaway.
            assert all(0.0 <= y < 8.0 for y in ys), name
            # Stability claim: Lr does not blow up with traffic volume
            # (paper: converges as Vt grows).
            assert ys[-1] < ys[0] + 3.0, name

        # All three Pd series live in the same band: the probing cost is
        # dominated by the one-window probe, not by Pd itself.
        means = {
            name: sum(figure.ys(name)) / len(figure.ys(name))
            for name in figure.series
        }
        assert max(means.values()) - min(means.values()) < 3.0
