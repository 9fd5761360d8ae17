"""The finding record every lint rule produces.

A :class:`Finding` is deliberately plain: rule id, file, line and
message.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # POSIX-style, repo-relative where possible
    line: int
    message: str

    #: Ordering key findings sort by: file, then position, then rule.
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sort_key", (self.path, self.line, self.rule, self.message)
        )

    def render(self) -> str:
        """One human-readable ``path:line: [rule] message`` line."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"
