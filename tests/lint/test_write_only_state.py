"""Fixture tests for the ``write-only-state`` rule.

It is project-wide (an attribute grown in one module may be read in
another), so each case writes a small ``repro`` tree and runs the real
analyzer over it: one list it must flag, the reads that must silence
it, and an inline ``# repro: allow[write-only-state]``.
"""

import textwrap

from repro.experiments.cli import main
from repro.lint.analyzer import analyze

RULE = "write-only-state"

SENDER = """
    class Sender:
        def __init__(self):
            self.cwnd = 1.0
            self.cwnd_history: list[tuple[float, float]] = []
            self.acked = list()

        def on_ack(self, now):
            self.cwnd += 1.0
            self.cwnd_history.append((now, self.cwnd))
            self.acked.extend([now])
"""


def _findings(tmp_path, **modules):
    for dotted, text in modules.items():
        path = tmp_path.joinpath("repro", *dotted.split(".")).with_suffix(".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return analyze([tmp_path], rules=[RULE], root=tmp_path)


def test_flags_lists_only_ever_grown(tmp_path):
    report = _findings(tmp_path, **{"transport.tcp": SENDER})
    assert [(f.path, f.line) for f in report.findings] == [
        ("repro/transport/tcp.py", 5), ("repro/transport/tcp.py", 6),
    ]
    assert "Sender.cwnd_history is appended to but never read" in (
        report.findings[0].message
    )


def test_growth_from_another_module_counts(tmp_path):
    report = _findings(tmp_path, **{
        "experiments.workload": """
            class Workload:
                def __init__(self):
                    self.senders = []
        """,
        "experiments.spawn": """
            def spawn(workload, sender):
                workload.senders.append(sender)
        """,
    })
    assert [f.message.split(" ")[0] for f in report.findings] == [
        "Workload.senders"
    ]


def test_a_read_anywhere_silences_it(tmp_path):
    report = _findings(tmp_path, **{
        "transport.tcp": SENDER,
        "analysis.plot": """
            def last(sender):
                return sender.cwnd_history[-1], getattr(sender, "acked")
        """,
    })
    assert report.findings == []


def test_a_list_never_grown_is_not_write_only(tmp_path):
    report = _findings(tmp_path, **{"sim.node": """
        class Node:
            def __init__(self):
                self.spare = []
    """})
    assert report.findings == []


def test_an_inline_allow_suppresses_it(tmp_path):
    report = _findings(tmp_path, **{"counting.pushback": """
        class Coordinator:
            def __init__(self):
                # repro: allow[write-only-state] one per epoch, for callers
                self.reports = []

            def on_epoch(self, report):
                self.reports.append(report)
    """})
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == [RULE]


def test_the_gate_fails_on_a_seeded_history(tmp_path, capsys):
    _findings(tmp_path, **{"transport.tcp": SENDER})
    assert main(["lint", "--check", str(tmp_path)]) == 1
    assert "[write-only-state]" in capsys.readouterr().out
