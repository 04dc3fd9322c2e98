"""Paper claims as data: each harness declares its claims once.

A harness lists what its experiment must show in a module-level
``CLAIMS``: one :class:`Claim` row per checked statement, carrying the
paper's value where the paper gives one.  ``report()`` renders the rows
(:func:`claim_lines`), the benchmark suite asserts every bound and
records each measured value under ``benchmarks/out/claims/``, and
``python -m repro claims`` prints those records as the markdown tables
EXPERIMENTS.md carries (:func:`claims_markdown`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Bound:
    """What a measurement may be: above ``lo`` and below ``hi`` (either
    may be open), limits included when ``inclusive``.  Without limits a
    claim only reports (:data:`INFO`)."""

    lo: Any = None
    hi: Any = None
    inclusive: bool = False

    def admits(self, value) -> bool:
        over, under = ((operator.ge, operator.le) if self.inclusive
                       else (operator.gt, operator.lt))
        return ((self.lo is None or over(value, self.lo))
                and (self.hi is None or under(value, self.hi)))

    def render(self, show: Callable[[Any], str]) -> str:
        lo, hi = self.lo, self.hi
        sign = "=" if self.inclusive else ""
        if lo is None and hi is None:
            return "-"
        if hi is None:
            return f">{sign} {show(lo)}"
        if lo is None:
            return f"<{sign} {show(hi)}"
        if lo == hi:
            return f"= {show(lo)}"
        left, right = "[]" if self.inclusive else "()"
        return f"{left}{show(lo)}, {show(hi)}{right}"


#: No bound: the row reports a value and checks nothing.
INFO = Bound()


def above(lo) -> Bound:
    return Bound(lo=lo)


def below(hi) -> Bound:
    return Bound(hi=hi)


def at_least(lo) -> Bound:
    return Bound(lo=lo, inclusive=True)


def at_most(hi) -> Bound:
    return Bound(hi=hi, inclusive=True)


def between(lo, hi) -> Bound:
    return Bound(lo, hi)


def exactly(value) -> Bound:
    return Bound(value, value, inclusive=True)


def within(reference: float, rel: float) -> Bound:
    """``reference`` give or take ``rel`` of it, limits included."""
    return Bound(reference * (1 - rel), reference * (1 + rel), True)


@dataclass(frozen=True)
class Claim:
    """One checked statement about an experiment's result."""

    #: ``<experiment>.<name>``, the experiment as named on the CLI.
    id: str
    text: str
    #: The paper's value, ``None`` where the paper gives none.
    paper: Any
    #: result -> number or bool; ``None`` when the run's scale does not
    #: measure it (a thread count only ``--full`` reaches).
    measure: Callable[[Any], Any]
    bound: Bound
    #: Format of the paper value, the measurement and the bound.
    fmt: str = "{:.2f}x"

    def value(self, result):
        """The measurement as a plain Python value (JSON-ready)."""
        value = self.measure(result)
        return value.item() if hasattr(value, "item") else value

    def show(self, value) -> str:
        if isinstance(value, bool):
            return str(value)
        return "-" if value is None else self.fmt.format(value)

    def verdict(self, value) -> str:
        if self.bound == INFO:
            return "info"
        if value is None:
            return "n/a"
        return "ok" if self.bound.admits(value) else "FAIL"

    def row(self, value) -> tuple[str, ...]:
        """(id, text, paper, measured, bound, verdict), rendered."""
        return (self.id, self.text, self.show(self.paper),
                "n/a" if value is None else self.show(value),
                self.bound.render(self.show), self.verdict(value))


def claim_lines(claims: list[Claim], result) -> str:
    """A report's claim block: one line per claim."""
    return "\n".join(
        "{}: {} -> paper {}, measured {}, bound {} [{}]".format(
            *claim.row(claim.value(result))) for claim in claims)


def claims_markdown(name: str, claims: list[Claim],
                    measured: dict[str, Any]) -> str:
    """Experiment ``name``'s claims as a markdown table between marker
    lines, from the values a benchmark run recorded."""
    rows = ["| `{}` | {} | {} | {} | {} | {} |".format(
        *claim.row(measured.get(claim.id))) for claim in claims]
    return "\n".join([f"<!-- claims:{name} -->",
                      "| id | claim | paper | measured | bound | verdict |",
                      "|---|---|---|---|---|---|", *rows,
                      f"<!-- /claims:{name} -->"])
