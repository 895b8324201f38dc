"""Shared fixtures and random admissible-data generators."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs
from dcvortex import hyperkahler as hk
from dcvortex import vortex
from dcvortex.geometry import TorusGrid
from dcvortex.higgs import MetricPair, QuadrupletSpec


@pytest.fixture(scope="session")
def disk():
    return geo.p1_quadrature()


def fs_density(zeta):
    """Fubini-Study area density (1/pi)(1+|zeta|^2)^-2, same in either chart."""
    return (1.0 / np.pi) / (1.0 + np.abs(zeta) ** 2) ** 2


def fs_integrate(disk, f_z, f_w) -> complex:
    """Reference integral against the Fubini-Study form: f_z read in the z chart, f_w in the w chart.

    Both charts are the same unit disk, so integrands that differ between
    the charts can be checked against the one-disk quadrature.
    """
    mass = disk.weights * fs_density(disk.points)
    return complex(np.sum(mass * f_z(disk.points)) + np.sum(mass * f_w(disk.points)))


def grid_coordinates(grid: TorusGrid):
    """The (x, y) sample coordinates of the grid, each an (n, n) array indexed [i, j]."""
    x = np.arange(grid.n) / grid.n
    return np.meshgrid(x, x, indexing="ij")


def mode_field(grid: TorusGrid, p: int, q: int, matrix=1.0) -> np.ndarray:
    """matrix * exp(2 pi i (p x + q y)) sampled on the grid: a test field for the spectral derivatives."""
    x, y = grid_coordinates(grid)
    phase = np.exp(2.0j * np.pi * (p * x + q * y))
    m = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    return phase[..., None, None] * m


def random_hermitian_log(grid: TorusGrid, degrees, rng, amplitude=0.25, modes=2):
    """Band-limited Hermitian matrix field supported on the degree mask."""
    r = len(degrees)
    out = hk.random_smooth_matrix(grid, r, r, rng, 1.0, modes)
    out = 0.5 * (out + geo.adjoint_values(out))
    mask = higgs.degree_mask(degrees, degrees)
    out[..., ~mask] = 0
    norm = geo.sup_norm(out)
    return out * (amplitude / norm) if norm > 0 else out


def unit_metrics(q: QuadrupletSpec) -> MetricPair:
    """The flat metrics h1 = Id, h2 = Id."""
    return MetricPair(geo.identity_field(q.grid, q.r1), geo.identity_field(q.grid, q.r2))


def random_metric_pair(q: QuadrupletSpec, rng, amplitude=0.25) -> MetricPair:
    s1 = random_hermitian_log(q.grid, q.block_degrees1, rng, amplitude)
    s2 = random_hermitian_log(q.grid, q.block_degrees2, rng, amplitude)
    return MetricPair(higgs.expm_hermitian(s1), higgs.expm_hermitian(s2)).validate()


def residual_with_every_term(q: QuadrupletSpec, h: MetricPair, c) -> tuple[np.ndarray, np.ndarray]:
    """(R1, R2) summed from every term, zero fields included, in `vortex.residual`'s order.

    Forms both Higgs brackets and all four coupling products with the named
    `higgs` layers whatever the fields are: the reference for the terms
    `vortex.residual` skips because a field is exactly zero.
    """
    inv1, inv2 = geo.inv(h.h1), geo.inv(h.h2)
    lam1, lam2 = (
        -2j * (higgs.chern_curvature(hh, inv, degrees) + higgs.bracket_theta(t, higgs.higgs_adjoint(t, inv, hh)))
        for t, hh, inv, degrees in ((q.theta1, h.h1, inv1, q.block_degrees1), (q.theta2, h.h2, inv2, q.block_degrees2))
    )
    phi_star = higgs.higgs_adjoint(q.phi, inv1, h.h2)
    psi_star = higgs.higgs_adjoint(q.psi, inv2, h.h1)
    m = geo.matmul
    const1 = vortex.TWO_PI * 1j * float(c.tau) * np.eye(q.r1)
    const2 = vortex.TWO_PI * 1j * float(c.tau_prime) * np.eye(q.r2)
    r1 = lam1 + 1j * m(phi_star, q.phi) - 1j * m(q.psi, psi_star) + const1
    r2 = lam2 - 1j * m(q.phi, phi_star) + 1j * m(psi_star, q.psi) + const2
    return r1, r2


def random_admissible_quadruplet(grid: TorusGrid, rng) -> QuadrupletSpec:
    """Random quadruplet satisfying all defining constraints exactly.

    Draws from three families: rank-(1,1) with a single coupling and
    matched scalar Higgs fields, coupled rank-(2,2) with complementary
    nilpotent couplings, and decoupled data with arbitrary degrees.  The
    float draws are the exact matrices, so the constraints hold exactly.
    """
    kind = rng.integers(3)
    if kind == 0:
        d = int(rng.integers(-2, 3))
        t = complex(rng.standard_normal() + 1j * rng.standard_normal())
        use_psi = bool(rng.random() < 0.5)
        coupling = complex(rng.standard_normal() + 1j * rng.standard_normal())
        phi = [[coupling]] if not use_psi else [[0]]
        psi = [[coupling]] if use_psi else [[0]]
        return QuadrupletSpec(grid, (d,), (d,), [[t]], [[t]], phi, psi).validate()
    if kind == 1:
        d = int(rng.integers(-1, 2))
        p, q_ = rng.standard_normal(2)
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        theta1 = np.diag([p, q_]).astype(complex)
        theta2 = np.diag([q_, p]).astype(complex)
        phi = np.array([[0, a], [0, 0]], dtype=complex)
        psi = np.array([[0, b], [0, 0]], dtype=complex)
        return QuadrupletSpec(grid, (d, d), (d, d), theta1, theta2, phi, psi).validate()
    d1 = tuple(int(v) for v in rng.integers(-2, 3, size=int(rng.integers(1, 3))))
    d2 = tuple(int(v) for v in rng.integers(-2, 3, size=int(rng.integers(1, 3))))
    t1 = np.diag(rng.standard_normal(len(d1)) + 1j * rng.standard_normal(len(d1)))
    t2 = np.diag(rng.standard_normal(len(d2)) + 1j * rng.standard_normal(len(d2)))
    return QuadrupletSpec(
        grid, d1, d2, t1, t2, np.zeros((len(d2), len(d1))), np.zeros((len(d1), len(d2)))
    ).validate()


def random_fraction(rng, max_num=8, max_den=6) -> Fraction:
    num = int(rng.integers(-max_num, max_num + 1))
    den = int(rng.integers(1, max_den + 1))
    return Fraction(num, den)


def psi_entry(grid: TorusGrid) -> QuadrupletSpec:
    """The stable catalog entry: trivial line bundles, psi = 1."""
    return QuadrupletSpec(grid, (0,), (0,), [[0]], [[0]], [[0]], [[1]]).validate()


def unstable_rank2_entry(grid: TorusGrid) -> QuadrupletSpec:
    """The bench's unstable rank-(2,1) entry: E1 = O + O, E2 = O, psi = e1, every other field zero."""
    return QuadrupletSpec(grid, (0, 0), (0,), np.zeros((2, 2)), [[0]], np.zeros((1, 2)), [[1], [0]]).validate()


def nilpotent_rank2_entry(grid: TorusGrid) -> QuadrupletSpec:
    """theta1 = [[0, 1], [0, 0]] dz on E1 = O + O, E2 = O, every other field zero."""
    return QuadrupletSpec(grid, (0, 0), (0,), [[0, 1], [0, 0]], [[0]], np.zeros((1, 2)), np.zeros((2, 1))).validate()


def phi_entry(grid: TorusGrid) -> QuadrupletSpec:
    """The unstable catalog entry: trivial line bundles, phi = 1."""
    return QuadrupletSpec(grid, (0,), (0,), [[0]], [[0]], [[1]], [[0]]).validate()
