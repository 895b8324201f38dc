"""Spectral calculus and quadrature checks against independent oracles."""

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex.errors import FormTypeError

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
        assert geo.dbar(f).sup_norm() == 0.0

    def test_single_mode_closed_form(self):
        # dbar exp(2 pi i x) = (pi i) exp(2 pi i x) since dbar = (dx + i dy)/2
        g = geo.TorusGrid(16)
        f = geo.mode_field(g, 1, 0)
        err = np.abs(geo.dbar(f).values - np.pi * 1j * f.values)
        assert err.max() < 1e-12

    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, -1), (-3, 2)])
    def test_mode_symbols(self, p, q):
        g = geo.TorusGrid(32)
        f = geo.mode_field(g, p, q)
        db = geo.dbar(f).values
        dl = geo.del_(f).values
        assert np.abs(db - np.pi * 1j * (p + 1j * q) * f.values).max() < 1e-11
        assert np.abs(dl - np.pi * 1j * (p - 1j * q) * f.values).max() < 1e-11

    def test_against_stencil(self):
        g = geo.TorusGrid(64)
        rng = np.random.default_rng(0)
        f = geo.zero_field(g, 1, 1)
        for p, q in [(1, 0), (0, 2), (2, 1)]:
            c = rng.standard_normal() + 1j * rng.standard_normal()
            f = f + c * geo.mode_field(g, p, q)
        dx = stencil_derivative(f.values, g.n, 0)
        dy = stencil_derivative(f.values, g.n, 1)
        oracle = 0.5 * (dx + 1j * dy)
        # agreement limited by the stencil's own O(h^4) truncation error
        assert np.abs(geo.dbar(f).values - oracle).max() < 1e-3

    def test_form_type_errors(self):
        g = geo.TorusGrid(8)
        f11 = geo.zero_field(g, 1, 1, geo.FORM_11)
        with pytest.raises(FormTypeError):
            geo.dbar(f11)
        with pytest.raises(FormTypeError):
            geo.del_(geo.zero_field(g, 1, 1, geo.FORM_10))

    def test_product_of_modes_matches_analytic(self):
        # spectral derivative of a product of two lattice modes, 1e-10 relative
        g = geo.TorusGrid(32)
        f = geo.mode_field(g, 1, 1)
        h = geo.mode_field(g, 2, -1)
        prod = geo.FieldOnTorus(g, geo.FUNCTION, f.values * h.values)
        analytic = np.pi * 1j * ((3) + 1j * (0)) * prod.values  # mode (3, 0)
        err = np.abs(geo.dbar(prod).values - analytic).max()
        assert err < 1e-10 * np.abs(analytic).max()


class TestLaplaceIntegrate:
    def test_integrate_constant(self):
        g = geo.TorusGrid(16)
        assert geo.integrate(geo.identity_field(g, 1))[0, 0] == pytest.approx(1.0)

    def test_lambda_of_omega_is_one(self):
        g = geo.TorusGrid(16)
        lam = geo.lambda_contract(geo.constant_field(g, [[geo.OMEGA_COEFF]], geo.FORM_11))
        assert np.abs(lam.values - 1.0).max() < 1e-14

    def test_lambda_inverts_multiplication_by_omega(self):
        g = geo.TorusGrid(16)
        rng = np.random.default_rng(1)
        f = geo.FieldOnTorus(g, geo.FUNCTION, rng.standard_normal((16, 16, 2, 2)) + 0j)
        wf = geo.FieldOnTorus(g, geo.FORM_11, geo.OMEGA_COEFF * f.values)
        assert np.abs(geo.lambda_contract(wf).values - f.values).max() < 1e-14

    def test_integral_of_exact_form_vanishes(self):
        g = geo.TorusGrid(32)
        f = geo.mode_field(g, 2, 1) + geo.mode_field(g, -1, 1)
        exact = geo.dbar(geo.del_(f))  # dbar del f is an exact (1,1)-form
        assert np.abs(geo.integrate(exact)).max() < 1e-13


class TestGrid:
    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            geo.TorusGrid(3)
        with pytest.raises(ValueError):
            geo.TorusGrid(7)

    def test_shape_validation(self):
        g = geo.TorusGrid(8)
        with pytest.raises(ValueError):
            geo.FieldOnTorus(g, geo.FUNCTION, np.zeros((4, 8, 1, 1)))


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
