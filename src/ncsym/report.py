"""Structured verification results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float = 0.0
    witness: Optional[Any] = None  # JSON-serializable description, if any

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
        the worst residual, a NaN or an infinity included, and as witness
        the where of the first failure with its residual added, null when
        it is not finite.
        """
        worst, witness = 0.0, None
        for where, r in measured:
            if r > worst or math.isnan(r):  # a NaN, once met, stays worst
                worst = r
            if not r <= tol and witness is None:
                witness = {**where,
                           "residual": float(r) if math.isfinite(r) else None}
        return self.add(name, witness is None, worst, witness)

    def merge(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.passed,
                                           c.residual, c.witness))
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
