"""Law-by-law check reports shared by the checker modules.

A verdict is either a hard assertion (failure when false), a finding
(recorded when false but never a failure), or informational (excluded
from aggregation entirely).

A law that quantifies over a family of sets is decided by scanning the
family for a counterexample (``CheckReport.law``).  Its witness is the
first counterexample in scan order, and the scan stops there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


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
