"""In-memory span recorder for the traced benchmark run, and the per-layer
metrics derived from its spans.

For the length of one traced operation, each function in ``TARGETS`` is
replaced at the attribute its caller resolves: ``dcvortex.cli.parse_config``
is the name ``cli.main`` looks up, ``dcvortex.vortex.residual`` the name
``vortex.solve`` looks up, ``dcvortex.geometry.del_`` the name
``higgs.chern_curvature`` looks up.  A span records its name, start, end,
parent span, operation id and, for some functions, a count read off the
call.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int          # -1 for a span opened directly by the operation
    op: int
    name: str
    start_ns: int
    end_ns: int
    count: int           # work the call reports, see TARGETS; 0 otherwise


# (module, attribute its caller looks up, span name, count of work done)
TARGETS = (
    ("dcvortex.cli", "parse_config", "config.parse_config", None),
    ("dcvortex.config", "RunConfig.quadruplet", "config.quadruplet", None),
    ("dcvortex.cli", "write_history_csv", "report.write_history_csv", lambda args, r: len(args[1])),
    ("dcvortex.geometry", "del_", "geometry.del_", None),
    ("dcvortex.geometry", "dbar", "geometry.dbar", None),
    ("dcvortex.geometry", "p1_quadrature", "geometry.p1_quadrature", None),
    ("dcvortex.higgs", "chern_curvature", "higgs.chern_curvature", None),
    ("dcvortex.higgs", "expm_hermitian", "higgs.expm_hermitian", None),
    ("dcvortex.higgs", "higgs_adjoint", "higgs.higgs_adjoint", None),
    ("dcvortex.higgs", "bracket_theta", "higgs.bracket_theta", None),
    ("dcvortex.higgs", "coupling_terms", "higgs.coupling_terms", None),
    ("dcvortex.higgs", "holomorphy_residuals", "higgs.holomorphy_residuals", None),
    ("dcvortex.vortex", "solve", "vortex.solve", lambda args, r: r[1].iterations),
    ("dcvortex.vortex", "residual", "vortex.residual", None),
    ("dcvortex.stability", "coordinate_subquadruplets", "stability.coordinate_subquadruplets",
     lambda args, r: len(r.entries)),
    ("dcvortex.stability", "verdict_tau", "stability.verdict_tau", None),
    ("dcvortex.stability", "verdict_sigma", "stability.verdict_sigma", None),
    ("dcvortex.stability", "equivalence_check", "stability.equivalence_check", None),
    ("dcvortex.reduction", "assemble_F", "reduction.assemble_F", lambda args, r: len(r.points)),
    ("dcvortex.reduction", "he_residual_product", "reduction.he_residual_product", None),
    ("dcvortex.reduction", "integrability_residual", "reduction.integrability_residual", None),
    ("dcvortex.reduction", "calibrate_alpha_beta", "reduction.calibrate_alpha_beta", None),
    ("dcvortex.reduction", "deg_p1", "reduction.deg_p1", None),
    ("dcvortex.reduction", "fs_contraction_constant", "reduction.fs_contraction_constant", None),
    ("dcvortex.hyperkahler", "random_tangent", "hyperkahler.random_tangent", None),
    ("dcvortex.hyperkahler", "apply_I", "hyperkahler.apply_I", None),
    ("dcvortex.hyperkahler", "apply_J", "hyperkahler.apply_J", None),
    ("dcvortex.hyperkahler", "apply_K", "hyperkahler.apply_K", None),
    ("dcvortex.hyperkahler", "moment_map_property_check", "hyperkahler.moment_map_property_check", None),
    ("dcvortex.hyperkahler", "moment_mu_I", "hyperkahler.moment_mu_I", None),
    ("dcvortex.hyperkahler", "gauge_transform", "hyperkahler.gauge_transform", None),
)


class SpanRecorder:
    """Collects spans in memory; patches are in place only inside ``operation``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def operation(self, op_id: int):
        self._op = op_id
        undo = []
        try:
            for module, path, name, count in TARGETS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name, count))
                undo.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, returned = None, False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                n = count(args, result) if count is not None and returned else 0
                spans[index] = Span(index, parent, self._op, name, start, end, n)

        return traced

    def write_csv(self, path: Path, origin_ns: int) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(Span._fields)
            for s in self.spans:
                writer.writerow((s.id, s.parent, s.op, s.name, s.start_ns - origin_ns, s.end_ns - origin_ns, s.count))


def op_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer metrics of one traced operation taking ``wall_s`` seconds."""
    names = {s.id: s.name for s in spans}
    child_ns = Counter()
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns
    calls, work, self_s, total_s = Counter(), Counter(), defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        work[s.name] += s.count
        self_s[s.name] += (s.end_ns - s.start_ns - child_ns[s.id]) / 1e9
        total_s[s.name] += (s.end_ns - s.start_ns) / 1e9
    top_s = sum(s.end_ns - s.start_ns for s in spans if s.parent < 0) / 1e9

    def self_of(*short):
        return sum(self_s[n] for n in short)

    solve_residuals = sum(1 for s in spans if s.name == "vortex.residual" and names.get(s.parent) == "vortex.solve")
    iterations = work["vortex.solve"]
    # each solve evaluates the residual once at its start, then once per step tried
    rejected = solve_residuals - calls["vortex.solve"] - iterations
    points = work["reduction.assemble_F"]
    residual_calls = calls["vortex.residual"]
    return {
        "geometry.del_.calls": calls["geometry.del_"],
        "geometry.del_.self_s": self_of("geometry.del_"),
        "geometry.dbar.calls": calls["geometry.dbar"],
        "geometry.dbar.self_s": self_of("geometry.dbar"),
        "geometry.p1_quadrature.self_s": self_of("geometry.p1_quadrature"),
        "higgs.chern_curvature.calls": calls["higgs.chern_curvature"],
        "higgs.chern_curvature.self_s": self_of("higgs.chern_curvature"),
        "higgs.expm_hermitian.self_s": self_of("higgs.expm_hermitian"),
        "higgs.higgs_adjoint.self_s": self_of("higgs.higgs_adjoint"),
        "higgs.bracket_theta.self_s": self_of("higgs.bracket_theta"),
        "higgs.coupling_terms.self_s": self_of("higgs.coupling_terms"),
        "higgs.holomorphy_residuals.self_s": self_of("higgs.holomorphy_residuals"),
        "vortex.solve.self_s": self_of("vortex.solve"),
        "vortex.residual.calls": residual_calls,
        "vortex.residual.self_s": self_of("vortex.residual"),
        "vortex.residual.ms_per_call": 1e3 * total_s["vortex.residual"] / residual_calls if residual_calls else 0.0,
        "vortex.iterations": iterations,
        "vortex.rejected_steps": rejected,
        "vortex.step_accept_ratio": iterations / (iterations + rejected) if iterations + rejected else 0.0,
        "stability.coordinate_subquadruplets.self_s": self_of("stability.coordinate_subquadruplets"),
        "stability.catalog_entries": work["stability.coordinate_subquadruplets"],
        "stability.verdicts.self_s": self_of(
            "stability.verdict_tau", "stability.verdict_sigma", "stability.equivalence_check"
        ),
        "reduction.assemble_F.self_s": self_of("reduction.assemble_F"),
        "reduction.he_residual_product.self_s": self_of("reduction.he_residual_product"),
        "reduction.us_per_point": (
            1e6 * self_of("reduction.assemble_F", "reduction.he_residual_product") / points if points else 0.0
        ),
        "reduction.integrability_residual.self_s": self_of("reduction.integrability_residual"),
        "reduction.checks.self_s": self_of(
            "reduction.calibrate_alpha_beta", "reduction.deg_p1", "reduction.fs_contraction_constant"
        ),
        "reduction.points": points,
        "hyperkahler.random_tangent.calls": calls["hyperkahler.random_tangent"],
        "hyperkahler.random_tangent.self_s": self_of("hyperkahler.random_tangent"),
        "hyperkahler.quaternion_ops.self_s": self_of(
            "hyperkahler.apply_I", "hyperkahler.apply_J", "hyperkahler.apply_K"
        ),
        "hyperkahler.moment_map_property_check.self_s": self_of("hyperkahler.moment_map_property_check"),
        "hyperkahler.moment_mu_I.self_s": self_of("hyperkahler.moment_mu_I"),
        "hyperkahler.gauge_transform.self_s": self_of("hyperkahler.gauge_transform"),
        "config.parse_config.self_s": self_of("config.parse_config"),
        "config.quadruplet.self_s": self_of("config.quadruplet"),
        "report.write_history_csv.self_s": self_of("report.write_history_csv"),
        "report.history_rows": work["report.write_history_csv"],
        "cli.unaccounted_s": wall_s - top_s,
    }


# counts that must repeat exactly across operations and runs
EXACT = (
    "vortex.iterations",
    "vortex.residual.calls",
    "stability.catalog_entries",
    "reduction.points",
    "hyperkahler.random_tangent.calls",
    "report.history_rows",
)
