"""Machine-readable run reports: JSON document plus CSV residual histories.

The JSON schema and the CSV column order are frozen; see docs/report_schema.md.
Complex numbers serialize as [re, im], exact rationals as "p/q" strings.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

SCHEMA_VERSION = 1
CSV_COLUMNS = ("iteration", "sup_R1", "sup_R2")


def encode_number(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


@dataclass
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool

    def to_dict(self):
        return {"name": self.name, "value": self.value, "tolerance": self.tolerance, "passed": self.passed}


def make_check(name: str, value: float, tolerance: float) -> Check:
    return Check(name, float(value), float(tolerance), bool(value <= tolerance))


@dataclass
class Report:
    command: str
    constants: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    solver: Optional[dict] = None
    stability: Optional[dict] = None
    verification: Optional[dict] = None
    provenance: dict = field(default_factory=dict)
    seed: Optional[int] = None
    schema_version: int = SCHEMA_VERSION

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "seed": self.seed,
            "provenance": self.provenance,
            "constants": {k: encode_number(v) for k, v in self.constants.items()},
            "checks": [c.to_dict() for c in self.checks],
            "solver": self.solver,
            "stability": self.stability,
            "verification": self.verification,
        }

    def to_json(self) -> str:
        # strict JSON: a NaN or infinity raises instead of writing NaN/Infinity
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def provenance_block(config_text: str) -> dict:
    import numpy

    from . import __version__

    return {
        "config_sha256": config_digest(config_text),
        "package_version": __version__,
        "numpy_version": numpy.__version__,
    }


def write_history_csv(path: Path, history) -> None:
    """Rows are (iteration, sup_R1, sup_R2); format is frozen and deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for it, s1, s2 in history:
            writer.writerow([it, repr(float(s1)), repr(float(s2))])
