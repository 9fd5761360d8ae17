"""Traffic-matrix estimation by set-union counting.

Implements Section II's estimator over the per-link LogLog sketches:
``a_ij = |Si ∩ Dj| = |Si| + |Dj| - |Si ∪ Dj|``, where ``Si`` is the set of
packets injected at ingress router i and ``Dj`` the set of packets leaving
the core at router j.  Registering one :class:`LogLogLinkCounter` per
ingress uplink and per egress access link gives the estimator everything
it needs; unions are register-wise max-merges, so the computation is
exactly the "distributed max-merge" of the paper.
"""

from __future__ import annotations

from repro.counting.loglog import LogLogLinkCounter


class TrafficMatrixEstimator:
    """Maintains the registered sketches and computes ``A = {a_ij}``."""

    def __init__(self) -> None:
        self._ingress: dict[str, LogLogLinkCounter] = {}
        self._egress: dict[str, LogLogLinkCounter] = {}

    # -------------------------------------------------------- registration

    def register_ingress(self, counter: LogLogLinkCounter) -> None:
        """Register the sketch of one ingress router's uplink (set Si)."""
        name = counter.router_name
        if name in self._ingress:
            raise ValueError(f"ingress {name} already registered")
        self._ingress[name] = counter

    def register_egress(self, counter: LogLogLinkCounter) -> None:
        """Register the sketch of one egress access link (set Dj)."""
        name = counter.router_name
        if name in self._egress:
            raise ValueError(f"egress {name} already registered")
        self._egress[name] = counter

    @property
    def ingress_names(self) -> list[str]:
        """Registered ingress router names, sorted."""
        return sorted(self._ingress)

    @property
    def egress_names(self) -> list[str]:
        """Registered egress router names, sorted."""
        return sorted(self._egress)

    # ---------------------------------------------------------- estimation

    def ingress_totals(self) -> dict[str, float]:
        """``|Si|`` estimates per ingress router."""
        return {name: c.sketch.estimate() for name, c in self._ingress.items()}

    def egress_totals(self) -> dict[str, float]:
        """``|Dj|`` estimates per egress router."""
        return {name: c.sketch.estimate() for name, c in self._egress.items()}

    def pair_estimate(self, ingress: str, egress: str) -> float:
        """``a_ij`` for one (ingress, egress) pair."""
        si = self._ingress[ingress].sketch
        dj = self._egress[egress].sketch
        return si.intersection_estimate(dj)

    def traffic_matrix(self) -> tuple[list[str], list[str], list[list[float]]]:
        """The full estimated matrix (one row list per source) with its
        row/column labels; ``matrix[i][j]`` is ``a_ij``."""
        sources = self.ingress_names
        destinations = self.egress_names
        matrix = [[self.pair_estimate(src, dst) for dst in destinations]
                  for src in sources]
        return sources, destinations, matrix

    def reset(self) -> None:
        """Clear every registered sketch (new epoch)."""
        for counter in self._ingress.values():
            counter.reset()
        for counter in self._egress.values():
            counter.reset()
