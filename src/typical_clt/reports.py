"""Inequality-check records and the shared CSV writer.

A BoundCheck is one verified inequality: the two sides, the slack, the
margin rhs + slack - lhs (the check passes iff it is nonnegative) and
sampling metadata.  BoundCheckReport aggregates checks and serializes
them to the versioned CSV format used by the CLI.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

from .errors import ConfigurationError

CSV_VERSION_COMMENT = "# typical-clt v1"

# Standard errors of slack granted to the Monte Carlo side of every check.
SLACK_SE = 3.0


def format_value(x) -> str:
    """Stable, locale-independent cell formatting (round-trippable floats)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def format_row(row) -> str:
    """One CSV line (without the newline) of formatted cells."""
    return ",".join(format_value(v) for v in row)


@dataclass
class BoundCheck:
    name: str               # short machine identifier of the inequality
    statement: str          # human-readable form, e.g. "Var|X| <= sigma4^2"
    lhs: float
    rhs: float
    slack: float            # allowed slack (SLACK_SE * SE for Monte Carlo checks)
    spec_id: str = ""
    n: int = 0
    seed: int = 0
    budget: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        """rhs + slack - lhs; nonnegative iff the inequality held."""
        return self.rhs + self.slack - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


@dataclass
class BoundCheckReport:
    checks: list[BoundCheck] = field(default_factory=list)

    def add(self, check: BoundCheck) -> None:
        self.checks.append(check)

    def extend(self, other: "BoundCheckReport") -> None:
        self.checks.extend(other.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[BoundCheck]:
        return [c for c in self.checks if not c.passed]

    def csv_rows(self):
        header = [
            "check", "statement", "spec_id", "n",
            "lhs", "rhs", "slack", "margin", "passed", "seed", "budget",
        ]
        rows = [
            [
                c.name, c.statement, c.spec_id, c.n,
                c.lhs, c.rhs, c.slack, c.margin, c.passed, c.seed, c.budget,
            ]
            for c in self.checks
        ]
        return header, rows


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_VERSION_COMMENT + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(format_row(row) + "\n")
    return buf.getvalue()


def check_output(path) -> None:
    """ConfigurationError if `path` is a directory or under a file; touches nothing."""
    above = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(above):
        above = os.path.dirname(above)
    if os.path.isdir(path) or not os.path.isdir(above):
        raise ConfigurationError(f"cannot write {path}: a directory, or under a file")


def write_csv(path, header, rows) -> None:
    """Write the CSV, creating its directory; ConfigurationError if it cannot."""
    text = render_csv(header, rows)
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
