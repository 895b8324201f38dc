"""The four benchmark workloads and the correctness gate of each operation.

An operation is one or more in-process calls of ``dcvortex.cli.main``, each
writing into the operation's fresh output directory.  A gate turns the
calls' exit codes and reports into a verdict plus *facts*: exact counts and
output digests that must repeat exactly across the operations of a run (and
across runs).  This module imports neither numpy nor dcvortex, so the
parent process can read it before any child sets the thread caps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Call:
    """Outcome of one CLI call inside an operation."""

    command: str
    code: int
    report: dict
    out: Path


@dataclass(frozen=True)
class Workload:
    calls: tuple[tuple[str, str], ...]          # (CLI command, config file name)
    gate: Callable[[list[Call]], tuple[list[str], dict]]

    @property
    def configs(self) -> list[Path]:
        return sorted({CONFIG_DIR / name for _, name in self.calls})


def _checks(call: Call) -> dict:
    return {c["name"]: c for c in call.report.get("checks", [])}


def _history_facts(call: Call) -> dict:
    data = (call.out / "history.csv").read_bytes()
    return {
        "report.history_rows": data.count(b"\n") - 1,
        "history_csv_sha256": hashlib.sha256(data).hexdigest(),
    }


def _all_passed(call: Call) -> list[str]:
    problems = [] if call.code == 0 else [f"{call.command} exited {call.code}"]
    checks = _checks(call)
    failed = [name for name, c in checks.items() if not c["passed"]]
    if failed or not checks:
        problems.append(f"{call.command} failed checks {failed}")
    return problems


def gate_stable_solve(calls: list[Call]) -> tuple[list[str], dict]:
    (solve,) = calls
    problems = [] if solve.code == 0 else [f"solve exited {solve.code}"]
    residual = _checks(solve)["final_sup_residual"]["value"]
    if not residual <= 1e-8:
        problems.append(f"final_sup_residual {residual:.3e} > 1e-8")
    facts = {"vortex.iterations": solve.report["solver"]["iterations"], **_history_facts(solve)}
    return problems, facts


def gate_unstable(calls: list[Call]) -> tuple[list[str], dict]:
    stab, solve = calls
    problems = [] if stab.code == 0 else [f"stability exited {stab.code}"]
    verdicts = [stab.report["stability"][k]["verdict"] for k in ("tau_verdict", "sigma_verdict")]
    if verdicts != ["unstable", "unstable"]:
        problems.append(f"verdicts {verdicts}, expected unstable twice")
    if solve.code != 2 or solve.report["solver"]["converged"] is not False:
        problems.append(f"solve exited {solve.code}, converged={solve.report['solver']['converged']}")
    facts = {
        "stability.catalog_entries": len(stab.report["stability"]["catalog"]),
        "vortex.iterations": solve.report["solver"]["iterations"],
        **_history_facts(solve),
    }
    return problems, facts


def gate_reduction(calls: list[Call]) -> tuple[list[str], dict]:
    (red,) = calls
    facts = {
        "reduction.points": red.report["verification"]["n_product_points"],
        **_history_facts(red),
    }
    return _all_passed(red), facts


def gate_hk(calls: list[Call]) -> tuple[list[str], dict]:
    (hk,) = calls
    return _all_passed(hk), {}


WORKLOADS = {
    "stable-solve-n64": Workload((("solve", "solve_psi_stable.ini"),), gate_stable_solve),
    "unstable-rank2-n16": Workload(
        (("stability", "unstable_rank2.ini"), ("solve", "unstable_rank2.ini")), gate_unstable
    ),
    "reduction-4k": Workload((("verify-reduction", "verify_reduction_4k.ini"),), gate_reduction),
    "hk-verify": Workload((("verify-hk", "verify_hk.ini"),), gate_hk),
}
