"""Spectral calculus and quadrature checks against independent oracles."""

import ast
from pathlib import Path

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs
from dcvortex.errors import ShapeError

from conftest import fs_density, fs_integrate


def stencil_derivative(values, n, axis):
    """4th-order periodic central difference, independent of the FFT path."""
    h = 1.0 / n
    r = lambda k: np.roll(values, -k, axis=axis)
    return (r(-2) - 8 * r(-1) + 8 * r(1) - r(2)) / (12 * h)


class TestDbar:
    def test_constant_is_killed(self):
        g = geo.TorusGrid(16)
        f = geo.constant_field(g, [[2.0 + 1j, 0.5], [0.0, -3.0]])
        assert geo.sup_norm(geo.dbar(f)) == 0.0

    def test_single_mode_closed_form(self):
        # dbar exp(2 pi i x) = (pi i) exp(2 pi i x) since dbar = (dx + i dy)/2
        g = geo.TorusGrid(16)
        f = geo.mode_field(g, 1, 0)
        err = np.abs(geo.dbar(f) - np.pi * 1j * f)
        assert err.max() < 1e-12

    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, -1), (-3, 2)])
    def test_mode_symbols(self, p, q):
        g = geo.TorusGrid(32)
        f = geo.mode_field(g, p, q)
        db = geo.dbar(f)
        dl = geo.del_(f)
        assert np.abs(db - np.pi * 1j * (p + 1j * q) * f).max() < 1e-11
        assert np.abs(dl - np.pi * 1j * (p - 1j * q) * f).max() < 1e-11

    def test_against_stencil(self):
        g = geo.TorusGrid(64)
        rng = np.random.default_rng(0)
        f = geo.zero_field(g, 1, 1)
        for p, q in [(1, 0), (0, 2), (2, 1)]:
            c = rng.standard_normal() + 1j * rng.standard_normal()
            f = f + c * geo.mode_field(g, p, q)
        dx = stencil_derivative(f, g.n, 0)
        dy = stencil_derivative(f, g.n, 1)
        oracle = 0.5 * (dx + 1j * dy)
        # agreement limited by the stencil's own O(h^4) truncation error
        assert np.abs(geo.dbar(f) - oracle).max() < 1e-3

    def test_product_of_modes_matches_analytic(self):
        # spectral derivative of a product of two lattice modes, 1e-10 relative
        g = geo.TorusGrid(32)
        f = geo.mode_field(g, 1, 1)
        h = geo.mode_field(g, 2, -1)
        prod = f * h
        analytic = np.pi * 1j * ((3) + 1j * (0)) * prod  # mode (3, 0)
        err = np.abs(geo.dbar(prod) - analytic).max()
        assert err < 1e-10 * np.abs(analytic).max()


class TestLaplaceIntegrate:
    def test_lambda_of_omega_is_one(self):
        # omega is stored as its dz^dzbar coefficient, and Lambda(g dz^dzbar) = -2i g
        assert -2j * geo.OMEGA_COEFF == 1.0

    def test_integral_of_exact_form_vanishes(self):
        g = geo.TorusGrid(32)
        f = geo.mode_field(g, 2, 1) + geo.mode_field(g, -1, 1)
        exact = geo.dbar(geo.del_(f))  # dbar del f is the coefficient of an exact (1,1)-form
        # the integral of g dz^dzbar is -2i <g>
        assert np.abs(-2j * exact.mean(axis=(0, 1))).max() < 1e-13


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_matches_np_matmul(a, b):
    got = geo.matmul(a, b)
    want = np.matmul(a, b)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestMatmul:
    """geo.matmul against np.matmul, its ShapeError, and the one-product-path guard."""

    @pytest.mark.parametrize("ro", [1, 2, 3])
    @pytest.mark.parametrize("ri", [1, 2, 3])
    @pytest.mark.parametrize("rk", [1, 2, 3])
    def test_fields(self, ro, ri, rk):
        rng = np.random.default_rng(100 * ro + 10 * ri + rk)
        assert_matches_np_matmul(complex_normal(rng, (6, 6, ro, ri)), complex_normal(rng, (6, 6, ri, rk)))

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_block_stacks(self, r):
        # the (N, r, r) block arrays of the product side, r = r1 + r2
        rng = np.random.default_rng(r)
        assert_matches_np_matmul(complex_normal(rng, (50, r, r)), complex_normal(rng, (50, r, r)))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_constant_broadcasts_against_field(self, r):
        rng = np.random.default_rng(r)
        constant = rng.standard_normal((r, r))
        field = complex_normal(rng, (6, 6, r, r))
        assert_matches_np_matmul(constant, field)
        assert_matches_np_matmul(field, constant)

    @pytest.mark.parametrize("r", [2, 3])
    def test_adjoint_views(self, r):
        rng = np.random.default_rng(r)
        v = complex_normal(rng, (6, 6, r, r))
        adj = geo.adjoint_values(v)
        assert not adj.flags.c_contiguous
        assert_matches_np_matmul(adj, v)
        assert_matches_np_matmul(v, adj)
        assert_matches_np_matmul(adj, adj)

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((6, 6, 2, 3), (6, 6, 2, 2)),
        # inner sizes 1 and 2 would broadcast and silently read only b's first row
        ((6, 6, 2, 1), (6, 6, 2, 2)),
        ((6, 6, 2, 2), (6, 6, 1, 2)),
        ((6, 6, 2, 0), (6, 6, 0, 2)),
        ((2,), (2, 2)),
    ])
    def test_inner_size_mismatch_raises(self, shape_a, shape_b):
        with pytest.raises(ShapeError):
            geo.matmul(np.ones(shape_a), np.ones(shape_b))

    def test_no_matmul_operator_in_package(self):
        # one product path: every pointwise matrix product goes through geo.matmul
        offenders = []
        for path in sorted(Path(geo.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                uses_operator = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                uses_np_matmul = isinstance(node, ast.Attribute) and node.attr == "matmul" and (
                    isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                )
                if uses_operator or uses_np_matmul:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestGrid:
    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            geo.TorusGrid(3)
        with pytest.raises(ValueError):
            geo.TorusGrid(7)

    def test_shape_validation(self):
        # a field sampled on another grid is rejected when the quadruplet is validated
        g = geo.TorusGrid(8)
        fields = [geo.zero_field(g, 1, 1) for _ in range(4)]
        fields[3] = np.zeros((4, 8, 1, 1), dtype=complex)
        with pytest.raises(ShapeError):
            higgs.QuadrupletSpec(g, (0,), (0,), *fields).validate()


class TestP1Quadrature:
    def test_fs_mass_is_one(self, disk):
        one = lambda z: np.ones(z.shape)
        assert abs(fs_integrate(disk, one, one) - 1.0) < 1e-8

    def test_half_mass_per_chart(self, disk):
        mass = np.sum(disk.weights * fs_density(disk.points))
        assert abs(mass - 0.5) < 1e-8

    def test_rational_integral(self, disk):
        # int |z|^2/(1+|z|^2) omega = 1/2 by the substitution t = |z|^2;
        # in the w-chart the integrand becomes 1/(1+|w|^2)
        fz = lambda z: np.abs(z) ** 2 / (1 + np.abs(z) ** 2)
        fw = lambda w: 1.0 / (1 + np.abs(w) ** 2)
        assert abs(fs_integrate(disk, fz, fw) - 0.5) < 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_error_decreases_under_doubling(self, k):
        # exact value of int (1+|z|^2)^-k omega is 1/(k+1)
        exact = 1.0 / (k + 1)

        def err(n):
            ch = geo.p1_quadrature(n, n)
            f = lambda z: (1 + np.abs(z) ** 2) ** (-k)
            fw = lambda w: (1 + 1 / np.abs(w) ** 2) ** (-k)
            return abs(fs_integrate(ch, f, fw) - exact)

        assert err(16) <= err(8) + 1e-15

    def test_resolution_bounds(self):
        with pytest.raises(ValueError):
            geo.p1_quadrature(4, 24)

    def test_chart_regions_overlap_only_on_unit_circle(self, disk):
        # nodes are interior to the closed disk, so w = 1/z maps the z-chart
        # region onto the complement and no mass is counted twice
        assert np.abs(disk.points).max() < 1.0
        assert np.abs(1.0 / disk.points).min() > 1.0
