"""Batch front door: solve / stability / verify-reduction / verify-hk / deg-p1.

Exit codes: 0 all checks passed, 2 a check failed or the solver did not
converge (report still written), 1 usage or configuration error.
DCVORTEX_THREADS caps the BLAS/FFT thread pools.  It takes effect only if
numpy is first imported after this module starts, as in the dcvortex script
and `python -m dcvortex.cli`; a program that imports numpy before this
module must set OPENBLAS_NUM_THREADS (or OMP_/MKL_NUM_THREADS) itself.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

if "DCVORTEX_THREADS" in os.environ:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, os.environ["DCVORTEX_THREADS"])

import numpy as np

from . import geometry as geo
from . import hyperkahler, reduction, stability, vortex
from .config import ConfigError, RunConfig, parse_config
from .errors import ConstraintError, DomainError
from .report import Report, make_check, provenance_block, write_history_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


def _constants_block(c: vortex.VortexConstants) -> dict:
    return {
        "tau": c.tau,
        "tau_prime": c.tau_prime,
        "sigma": c.sigma,
        "lambda_he": c.lambda_he if c.reduction_enabled else None,
    }


def _write_report(report: Report, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(report.to_json())
    return path


def _solve_pipeline(cfg: RunConfig, out_dir: Path):
    q = cfg.quadruplet()
    c = cfg.constants()
    h, rep = vortex.solve(q, c, cfg.solver)
    csv_path = out_dir / "history.csv"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_history_csv(csv_path, rep.history)
    return q, c, h, rep, csv_path


def cmd_solve(cfg: RunConfig, out_dir: Path, seed, check_tol) -> Report:
    q, c, h, rep, csv_path = _solve_pipeline(cfg, out_dir)
    target = check_tol or cfg.check_tol or cfg.solver.target_residual
    report = Report(
        command="solve",
        seed=seed,
        constants=_constants_block(c),
        provenance=provenance_block(cfg.raw_text),
    )
    report.checks.append(make_check("final_sup_residual", rep.sup(), target))
    identity = vortex.trace_identity_check(q, h, c)
    report.checks.append(make_check("trace_identity", identity, 1e-8))
    report.solver = {
        "converged": rep.converged,
        "iterations": rep.iterations,
        "final_sup_r1": rep.final_sup_r1,
        "final_sup_r2": rep.final_sup_r2,
        "message": rep.message,
        "history_csv": csv_path.name,
    }
    return report


def cmd_stability(cfg: RunConfig, out_dir: Path, seed, check_tol) -> Report:
    q = cfg.quadruplet()
    c = cfg.constants()
    if cfg.catalog_path:
        catalog = stability.catalog_from_text(Path(cfg.catalog_path).read_text())
        ambient = stability.QuadInvariants(q.r1, q.r2, q.d1, q.d2)
        if catalog.ambient != ambient:
            raise ConstraintError(
                f"catalog ambient {tuple(catalog.ambient)} is not the configured quadruplet's "
                f"(r1, r2, d1, d2) = {tuple(ambient)}"
            )
    else:
        catalog = stability.coordinate_subquadruplets(q)
    for r1, r2, d1, d2 in cfg.user_subobjects:
        catalog.add(stability.QuadInvariants(r1, r2, d1, d2), "user-supplied")
    vt = stability.verdict_tau(catalog, c.tau)
    vs = stability.verdict_sigma(catalog, c.sigma)
    equiv = stability.equivalence_check(catalog, c.sigma)
    report = Report(
        command="stability",
        seed=seed,
        constants=_constants_block(c),
        provenance=provenance_block(cfg.raw_text),
    )
    report.checks.append(make_check("theta_mu_equivalence_identity", 0.0 if equiv else 1.0, 0.5))
    report.checks.append(
        make_check("tau_sigma_verdicts_agree", 0.0 if vt.verdict == vs.verdict else 1.0, 0.5)
    )

    def verdict_dict(v):
        return {
            "verdict": v.verdict,
            "vacuous": v.vacuous,
            "witness_value": str(v.witness_value) if v.witness_value is not None else None,
            "witnesses": [
                {"invariants": list(e.invariants), "provenance": e.provenance} for e in v.witnesses
            ],
            "note": v.note,
        }

    report.stability = {
        "catalog": [
            {"invariants": list(e.invariants), "provenance": e.provenance} for e in catalog.entries
        ],
        "tau_verdict": verdict_dict(vt),
        "sigma_verdict": verdict_dict(vs),
    }
    return report


def cmd_verify_reduction(cfg: RunConfig, out_dir: Path, seed, check_tol) -> Report:
    q, c, h, rep, csv_path = _solve_pipeline(cfg, out_dir)
    rng = np.random.default_rng(seed if seed is not None else 0)
    disk = geo.p1_quadrature(cfg.n_radial, cfg.n_angular)
    sigma = float(c.sigma)
    samples = reduction.random_product_points(q.grid, cfg.n_product_points, rng)
    assembled = reduction.assemble_F(q, h, sigma, samples)
    he = reduction.he_residual_product(assembled, c)
    integ = reduction.integrability_residual(q, sigma, samples)
    report = Report(
        command="verify-reduction",
        seed=seed,
        constants=_constants_block(c),
        provenance=provenance_block(cfg.raw_text),
    )
    report.checks.append(make_check("solver_converged", rep.sup(), cfg.solver.target_residual))
    report.checks.append(make_check("he_product_residual", he.sup_diagonal, check_tol or cfg.check_tol or 1e-6))
    report.checks.append(make_check("he_offdiagonal", he.sup_offdiagonal, 1e-8))
    report.checks.append(make_check("integrability", integ.total, 1e-9))
    for n in range(-4, 5):
        report.checks.append(make_check(f"deg_p1({n})", abs(reduction.deg_p1(n, disk) - n), 1e-6))
    fs_const = reduction.fs_contraction_constant(2, disk)
    report.checks.append(make_check("fs_contraction_constant", abs(fs_const + 4j * np.pi), 1e-8))
    report.verification = {
        "lambda_used": [he.lambda_used.real, he.lambda_used.imag],
        "rescale_constant": he.rescale_constant,
        "n_product_points": he.n_points,
        "calibration": {
            "c_alpha": assembled.forms.c_alpha,
            "c_beta": assembled.forms.c_beta,
            "raw_ratio": assembled.forms.raw_ratio,
        },
        "history_csv": csv_path.name,
    }
    return report


def cmd_verify_hk(cfg: RunConfig, out_dir: Path, seed, check_tol) -> Report:
    rng = np.random.default_rng(seed if seed is not None else 0)
    grid = cfg.grid()
    r1, r2 = len(cfg.block_degrees1), len(cfg.block_degrees2)
    c = cfg.constants()
    quat_worst = max(
        hyperkahler.quaternion_defect(hyperkahler.random_tangent(grid, r1, r2, rng)) for _ in range(cfg.hk_draws)
    )
    x = hyperkahler.random_configuration(grid, r1, r2, rng)
    moment_worst = 0.0
    for _ in range(5):
        a = hyperkahler.random_tangent(grid, r1, r2, rng)
        xi = hyperkahler.random_gauge_direction(grid, r1, r2, rng)
        moment_worst = max(moment_worst, hyperkahler.moment_map_property_check(x, a, xi))
    g1 = hyperkahler.random_unitary_gauge(grid, r1, rng)
    g2 = hyperkahler.random_unitary_gauge(grid, r2, rng)
    gx = hyperkahler.gauge_transform(x, g1, g2)
    mu = hyperkahler.moment_mu_I(x)
    mu_g = hyperkahler.moment_mu_I(gx)
    adj, mm = geo.adjoint_values, geo.matmul
    equin = max(
        geo.sup_norm(mu_g[0] - mm(mm(g1, mu[0]), adj(g1))),
        geo.sup_norm(mu_g[1] - mm(mm(g2, mu[1]), adj(g2))),
    )
    report = Report(
        command="verify-hk",
        seed=seed,
        constants=_constants_block(c),
        provenance=provenance_block(cfg.raw_text),
    )
    report.checks.append(make_check("quaternion_relations", quat_worst, 1e-12))
    report.checks.append(make_check("moment_map_identity", moment_worst, check_tol or cfg.check_tol or 1e-6))
    report.checks.append(make_check("moment_equivariance", equin, 1e-10))
    return report


def cmd_deg_p1(n: int, tol: float) -> Report:
    value = reduction.deg_p1(n)
    report = Report(command="deg-p1", constants={"n": n}, provenance={})
    report.checks.append(make_check(f"deg_p1({n})", abs(value - n), tol))
    report.verification = {"value": value}
    return report


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit EXIT_USAGE; argparse's own 2 would read as a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcvortex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "stability", "verify-reduction", "verify-hk"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to an INI run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--tol", type=float, default=None, help="override the check tolerance (finite, > 0)")
        p.add_argument("--seed", type=int, default=None)
    p = sub.add_parser("deg-p1")
    p.add_argument("n", type=int)
    p.add_argument("--out", default="out")
    p.add_argument("--tol", type=float, default=1e-6)
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "stability": cmd_stability,
    "verify-reduction": cmd_verify_reduction,
    "verify-hk": cmd_verify_hk,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    # deg-p1's --tol is its only check tolerance, not an override; a negative one forces a FAIL
    if args.command != "deg-p1":
        if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
            print(f"usage error: --tol must be finite and positive, got {args.tol!r}", file=sys.stderr)
            return EXIT_USAGE
        if args.seed is not None and args.seed < 0:
            print(f"usage error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
            return EXIT_USAGE
    try:
        if args.command == "deg-p1":
            report = cmd_deg_p1(args.n, args.tol)
        else:
            cfg = parse_config(args.config)
            report = _COMMANDS[args.command](cfg, out_dir, args.seed, args.tol)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConstraintError, DomainError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE

    path = _write_report(report, out_dir, f"{report.command.replace('-', '_')}_report.json")
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: value={check.value:.3e} tol={check.tolerance:.3e}")
    if report.solver is not None:
        print(f"solver: {report.solver['message']} after {report.solver['iterations']} iterations")
    if report.stability is not None:
        for kind in ("tau_verdict", "sigma_verdict"):
            v = report.stability[kind]
            print(f"{kind}: {v['verdict']} (witnesses {v['witnesses']})")
    print(f"report: {path}")
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
