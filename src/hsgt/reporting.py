"""Verification reports: violations, margin statistics, and JSON rendering."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

MAX_LISTED_VIOLATIONS = 20  # a report lists the first ones; violation_count counts all


@dataclass
class Violation:
    sample_index: int  # position in the sample list of its check
    point: dict
    measured: float
    required: float
    detail: str = ""
    check: str = ""  # which sampled check failed: flow | jump | sandwich

    def to_json(self) -> dict:
        return {"check": self.check, "sample_index": self.sample_index,
                "point": self.point, "measured": self.measured,
                "required": self.required, "detail": self.detail}


@dataclass
class VerificationReport:
    condition: str
    samples_tested: int = 0
    samples_checked: int = 0  # samples where the condition's premise applied
    violations: List[Violation] = field(default_factory=list)
    margin_min: Optional[float] = None
    margin_mean: Optional[float] = None
    verdict: str = "pass"  # pass | fail | inconclusive
    notes: List[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def finalize(self, unchecked: Optional[str] = None) -> "VerificationReport":
        """Sort the violations and set the verdict: ``fail`` with any violation,
        else ``inconclusive`` after an empty draw or with ``unchecked`` (why no
        sample met the premise, kept as a note), else ``pass``."""
        self.violations.sort(key=lambda v: (v.check, v.sample_index))
        if unchecked is not None:
            self.notes.append(unchecked)
        if self.violations:
            self.verdict = "fail"
        elif self.verdict != "inconclusive":
            self.verdict = "inconclusive" if unchecked is not None else "pass"
        return self

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {
            "condition": self.condition,
            "verdict": self.verdict,
            "samples_tested": self.samples_tested,
            "samples_checked": self.samples_checked,
            "violation_count": len(self.violations),
            "violations": [v.to_json() for v in self.violations[:MAX_LISTED_VIOLATIONS]],
        }
        if self.margin_min is not None and math.isfinite(self.margin_min):
            out["margin_min"] = self.margin_min
        if self.margin_mean is not None and math.isfinite(self.margin_mean):
            out["margin_mean"] = self.margin_mean
        if self.notes:
            out["notes"] = list(self.notes)
        if self.extras:
            out["extras"] = self.extras
        return out

    def summary_line(self) -> str:
        flag = self.verdict.upper()
        extra = f", {len(self.violations)} violation(s)" if self.violations else ""
        margin = (f", min margin {self.margin_min:.3e}"
                  if self.margin_min is not None and math.isfinite(self.margin_min) else "")
        return f"[{flag}] {self.condition}: {self.samples_checked}/{self.samples_tested} samples checked{extra}{margin}"
