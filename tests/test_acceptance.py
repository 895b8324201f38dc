"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs, hyperkahler as hk, reduction, stability, vortex

from conftest import (
    phi_entry,
    psi_entry,
    random_admissible_quadruplet,
    random_fraction,
    random_metric_pair,
)


def report_line(name, value, tol, extra=""):
    ok = value <= tol
    print(f"{'PASS' if ok else 'FAIL'} {name}: value={value:.3e} tolerance={tol:.3e} {extra}")
    return ok


@pytest.fixture(scope="module")
def disk():
    return geo.p1_quadrature()


@pytest.fixture(scope="module")
def solved_entry():
    """Criterion-5 configuration: stable psi entry solved at n = 64."""
    grid = geo.TorusGrid(64)
    q = psi_entry(grid)
    c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
    start = time.monotonic()
    h, rep = vortex.solve(q, c, vortex.SolveOptions(target_residual=1e-8))
    elapsed = time.monotonic() - start
    return q, c, h, rep, elapsed


def test_criterion_1_p1_degree_quadrature(disk):
    start = time.monotonic()
    worst = max(abs(reduction.deg_p1(n, disk) - n) for n in range(-4, 5))
    elapsed = time.monotonic() - start
    assert report_line("criterion 1: deg_p1(n) = n for |n| <= 4", worst, 1e-6,
                       f"(runtime {elapsed:.3f}s)")
    assert elapsed < 1.0


def test_criterion_2_fs_contraction_constant(disk):
    value = reduction.fs_contraction_constant(2, disk)
    err = abs(value + 4j * np.pi)
    assert report_line("criterion 2: Lambda F_h(2) = -4 pi i", err, 1e-8)


def test_criterion_3_trace_identity_suite():
    rng = np.random.default_rng(2024)
    grid = geo.TorusGrid(16)
    worst = 0.0
    for _ in range(100):
        q = random_admissible_quadruplet(grid, rng)
        h = random_metric_pair(q, rng)
        c = vortex.constants_from_tau(random_fraction(rng), q.r1, q.r2, q.d1, q.d2)
        worst = max(worst, vortex.trace_identity_check(q, h, c))
    assert report_line("criterion 3: trace identity over 100 admissible configs", worst, 1e-8)


def test_criterion_4_stability_algebra():
    rng = np.random.default_rng(4)
    count = 0
    exact = True
    while count < 1000:
        amb = stability.QuadInvariants(
            int(rng.integers(1, 5)), int(rng.integers(1, 5)),
            int(rng.integers(-9, 10)), int(rng.integers(-9, 10)),
        )
        r1 = int(rng.integers(0, amb.r1 + 1))
        r2 = int(rng.integers(0, amb.r2 + 1))
        if r1 + r2 == 0 or (r1, r2) == (amb.r1, amb.r2):
            continue
        sub = stability.QuadInvariants(r1, r2, int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
        sigma = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
        tau = stability.mu_sigma(amb, sigma)
        lhs = stability.theta_tau(sub, amb, tau)
        rhs = stability.mu_sigma(sub, sigma) - stability.mu_sigma(amb, sigma)
        exact = exact and (lhs == rhs)
        count += 1
    assert report_line("criterion 4: Theta_tau = mu_sigma' - mu_sigma on 1000 tuples",
                       0.0 if exact else 1.0, 0.0)


def test_criterion_5_solver_convergence(solved_entry):
    q, c, h, rep, elapsed = solved_entry
    assert rep.converged
    ok_res = report_line("criterion 5a: stable entry sup residual at n=64", rep.sup(), 1e-8,
                         f"({rep.iterations} iterations, {elapsed:.1f}s)")
    assert ok_res
    assert elapsed < 300.0
    inv1, inv2 = geo.inv(h.h1), geo.inv(h.h2)
    _, _, psi_psis, _ = higgs.coupling_terms(q, h.h1, h.h2, inv1, inv2)
    identity_err = abs(float(np.mean(psi_psis[..., 0, 0]).real) - 2 * np.pi * float(c.tau))
    assert report_line("criterion 5b: int |psi|^2_h = 2 pi tau", identity_err, 1e-6)


def test_criterion_6_instability_diagnosis():
    grid = geo.TorusGrid(32)
    q = phi_entry(grid)
    c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
    catalog = stability.coordinate_subquadruplets(q)
    verdict = stability.verdict_tau(catalog, c.tau)
    assert verdict.verdict == "unstable"
    assert verdict.witness_value == c.tau > 0
    assert [tuple(w.invariants) for w in verdict.witnesses] == [(0, 1, 0, 0)]
    _, rep = vortex.solve(q, c, vortex.SolveOptions(max_iter=20000))
    agree = (not rep.converged) and verdict.verdict == "unstable"
    assert report_line("criterion 6: verdict unstable (Theta = +tau) and solver nonconvergence agree",
                       0.0 if agree else 1.0, 0.0, f"(solver: {rep.message})")


def test_criterion_7_dimensional_reduction(solved_entry):
    q, c, h, rep, _ = solved_entry
    samples = reduction.random_product_points(q.grid, 200, np.random.default_rng(7))
    assembled = reduction.assemble_F(q, h, float(c.sigma), samples)
    he = reduction.he_residual_product(assembled, c)
    ok_diag = report_line("criterion 7a: product HE residual at 200 points", he.sup_diagonal, 1e-6,
                          f"(rescale constant {he.rescale_constant})")
    ok_off = report_line("criterion 7b: off-diagonal Lambda_sigma blocks", he.sup_offdiagonal, 1e-8)
    integ = reduction.integrability_residual(q, float(c.sigma), samples)
    ok_int = report_line("criterion 7c: integrability of assembled F", integ.total, 1e-9)
    broken = higgs.QuadrupletSpec(q.grid, (0,), (0,), q.exact.theta1, q.exact.theta2, [[1]], [[1]])
    integ_broken = reduction.integrability_residual(broken, float(c.sigma), samples)
    ok_broken = integ_broken.total >= 1e-2
    print(f"{'PASS' if ok_broken else 'FAIL'} criterion 7d: broken phi psi = 0 detected "
          f"(value={integ_broken.total:.3e} >= 1e-2)")
    assert ok_diag and ok_off and ok_int and ok_broken


def test_criterion_8_quaternion_and_moment_map():
    rng = np.random.default_rng(8)
    grid = geo.TorusGrid(16)
    quat_worst = 0.0
    for _ in range(100):
        a = hk.random_tangent(grid, 2, 1, rng)
        for op in (hk.apply_I, hk.apply_J, hk.apply_K):
            b = op(op(a))
            quat_worst = max(quat_worst, *(np.max(np.abs(x + y)) for x, y in zip(
                (b.a1, b.p1, b.a2, b.p2, b.f, b.g), (a.a1, a.p1, a.a2, a.p2, a.f, a.g))))
        ij, ji = hk.apply_I(hk.apply_J(a)), hk.apply_J(hk.apply_I(a))
        quat_worst = max(quat_worst, *(np.max(np.abs(x + y)) for x, y in zip(ij, ji)))
    ok_quat = report_line("criterion 8a: quaternion relations on 100 tangents", quat_worst, 1e-12)

    moment_worst = 0.0
    x = hk.random_configuration(grid, 2, 1, rng)
    for _ in range(10):
        a = hk.random_tangent(grid, 2, 1, rng)
        xi = hk.random_gauge_direction(grid, 2, 1, rng)
        moment_worst = max(moment_worst, hk.moment_map_property_check(x, a, xi))
    ok_moment = report_line("criterion 8b: moment-map finite-difference identity", moment_worst, 1e-6)

    g32 = geo.TorusGrid(32)
    x32 = hk.random_configuration(g32, 2, 1, rng)
    g1 = hk.random_unitary_gauge(g32, 2, rng)
    g2 = hk.random_unitary_gauge(g32, 1, rng)
    mu = hk.moment_mu_I(x32)
    mu_g = hk.moment_mu_I(hk.gauge_transform(x32, g1, g2))
    adj = geo.adjoint_values
    equi = max(
        float(np.max(np.abs(mu_g[0] - g1 @ mu[0] @ adj(g1)))),
        float(np.max(np.abs(mu_g[1] - g2 @ mu[1] @ adj(g2)))),
    )
    ok_equi = report_line("criterion 8c: gauge equivariance of mu_I", equi, 1e-10)
    assert ok_quat and ok_moment and ok_equi


def test_criterion_9_iota_roundtrip():
    rng = np.random.default_rng(9)
    grid = geo.TorusGrid(8)
    skew = lambda m: (m, -geo.adjoint_values(m))
    failures = 0
    for _ in range(50):
        data = reduction.InvariantConnectionData(
            skew(hk.random_smooth_matrix(grid, 2, 2, rng)),
            skew(hk.random_smooth_matrix(grid, 2, 2, rng)),
            skew(hk.random_smooth_matrix(grid, 1, 1, rng)),
            skew(hk.random_smooth_matrix(grid, 1, 1, rng)),
            hk.random_smooth_matrix(grid, 1, 2, rng),
            hk.random_smooth_matrix(grid, 2, 1, rng),
        )
        if not reduction.iota_roundtrip(data, rng=rng):
            failures += 1
    assert report_line("criterion 9: invariant-connection round trip on 50 data sets",
                       float(failures), 0.0)
