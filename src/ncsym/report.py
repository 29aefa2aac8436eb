"""Structured verification results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional


@dataclass
class CheckResult:
    """One named check.  samples counts the residuals it judged and
    resamples the singular draws replaced on the way; neither is part of
    the JSON form."""

    name: str
    passed: bool
    residual: float = 0.0
    witness: Optional[Any] = None  # JSON-serializable description, if any
    samples: int = 0
    resamples: int = 0

    def to_json_dict(self) -> dict:
        residual = float(self.residual)
        out = {"name": self.name, "pass": bool(self.passed),
               "residual": residual if math.isfinite(residual) else None}
        out["witness-ref"] = self.witness
        return out


@dataclass
class Report:
    checks: list = field(default_factory=list)
    seed: Optional[int] = None
    tolerances: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, residual: float = 0.0,
            witness=None) -> CheckResult:
        result = CheckResult(name, bool(passed), float(residual), witness)
        self.checks.append(result)
        return result

    def add_worst(self, name: str, measured: Iterable[tuple],
                  tol: float) -> CheckResult:
        """One check over (where, residual) pairs; where is a dict.

        Passes iff every residual is within tol, so a NaN fails.  Records
        the worst residual, a NaN or an infinity included, as witness the
        where of the first failure with its residual added, null when it
        is not finite, and the number of pairs as samples.
        """
        worst, witness, samples = 0.0, None, 0
        for samples, (where, r) in enumerate(measured, 1):
            if r > worst or math.isnan(r):  # a NaN, once met, stays worst
                worst = r
            if not r <= tol and witness is None:
                witness = {**where,
                           "residual": float(r) if math.isfinite(r) else None}
        result = self.add(name, witness is None, worst, witness)
        result.samples = samples
        return result

    def merge(self, other: "Report", prefix: str = "") -> None:
        self.checks.extend(replace(c, name=prefix + c.name)
                           for c in other.checks)
        self.tolerances.update(other.tolerances)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "checks": [c.to_json_dict() for c in self.checks],
            "passed": self.passed,
            "seed": self.seed,
            "tolerances": self.tolerances,
        }
