"""Law-by-law check reports shared by the checker modules.

A verdict is either a hard assertion (failure when false), a finding
(recorded when false but never a failure), or informational (excluded
from aggregation entirely).

A law that quantifies over a family of sets names the first failing set
in family order as its witness, whether a scan finds it
(``CheckReport.law`` stops at the first counterexample) or the lanes of
``approx`` decide the whole family at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


def exit_code_of(failures, findings) -> int:
    """The CLI's exit code for a report or a run: 1 for a failure, 3 for a finding, else 0."""
    return 1 if failures else 3 if findings else 0


@dataclass
class LawVerdict:
    law: str
    passed: bool
    witness: dict | None = None
    finding: bool = False
    informational: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {"law": self.law, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.finding:
            out["finding"] = True
        if self.informational:
            out["informational"] = True
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class CheckReport:
    subject: str
    scope: str
    verdicts: list[LawVerdict] = field(default_factory=list)

    def add(
        self,
        law: str,
        passed: bool,
        witness: dict | None = None,
        finding: bool = False,
        informational: bool = False,
        note: str = "",
    ) -> "CheckReport":
        self.verdicts.append(
            LawVerdict(law, passed, witness, finding, informational, note)
        )
        return self

    def law(self, law: str, counterexamples: Iterable[dict], **kw) -> "CheckReport":
        """Add ``law``, failed by the first of the lazy ``counterexamples``,
        which is its witness; keywords go to ``add``."""
        witness = next(iter(counterexamples), None)
        return self.add(law, witness is None, witness, **kw)

    @property
    def failures(self) -> list[LawVerdict]:
        return [
            v
            for v in self.verdicts
            if not v.passed and not v.finding and not v.informational
        ]

    @property
    def findings(self) -> list[LawVerdict]:
        return [v for v in self.verdicts if v.finding and not v.passed]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return exit_code_of(self.failures, self.findings)

    def verdict(self, law: str) -> LawVerdict:
        for v in self.verdicts:
            if v.law == law:
                return v
        raise KeyError(law)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "scope": self.scope,
            "ok": self.ok,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
