"""Structured pass/fail reports for inequality batteries."""

from __future__ import annotations

import math


class CheckEntry:
    """One checked row, equal to another with the same fields; mutable, so a
    battery can relabel it, and so unhashable."""

    __slots__ = ("label", "lhs", "rhs", "tol", "ok")
    __hash__ = None

    def __init__(self, label: str, lhs: float, rhs: float, tol: float, ok: bool):
        self.label, self.lhs, self.rhs, self.tol, self.ok = label, lhs, rhs, tol, ok

    def _fields(self) -> tuple:
        return (self.label, self.lhs, self.rhs, self.tol, self.ok)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()


class CheckReport:
    """A named collection of checked inequalities or identities."""

    __slots__ = ("name", "entries")

    def __init__(self, name: str):
        self.name = name
        self.entries: list[CheckEntry] = []

    def check_leq(self, label: str, lhs: float, rhs: float, tol: float = 0.0) -> bool:
        lhs, rhs = float(lhs), float(rhs)
        if math.isnan(lhs) or math.isnan(rhs):
            ok = False
        else:
            ok = lhs <= rhs + tol
        self.entries.append(CheckEntry(label, lhs, rhs, tol, ok))
        return ok

    def check_close(self, label: str, lhs: float, rhs: float, tol: float) -> bool:
        lhs, rhs = float(lhs), float(rhs)
        if math.isinf(lhs) or math.isinf(rhs):
            ok = lhs == rhs
        elif math.isnan(lhs) or math.isnan(rhs):
            ok = False
        else:
            ok = abs(lhs - rhs) <= tol
        self.entries.append(CheckEntry(label, lhs, rhs, tol, ok))
        return ok

    def note(self, label: str, value: float = math.nan) -> None:
        """Informational row; never counts as a violation."""
        self.entries.append(CheckEntry(label, float(value), float(value), 0.0, True))

    @property
    def violations(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        bad = self.violations
        if not bad:
            return f"{self.name}: PASS ({len(self.entries)} checks)"
        head = "; ".join(e.label for e in bad[:3])
        return f"{self.name}: FAIL ({len(bad)}/{len(self.entries)} violations: {head})"
