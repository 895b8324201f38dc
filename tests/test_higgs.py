"""Curvature, adjoints, brackets and the quadruplet constraints."""

from fractions import Fraction

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs, vortex
from dcvortex.errors import ConstraintError, DomainError, ShapeError

from conftest import (
    grid_coordinates,
    mode_field,
    psi_entry,
    random_admissible_quadruplet,
    random_hermitian_log,
    random_metric_pair,
    unit_metrics,
)


def degree_from_curvature(F):
    # (i/2pi) int tr Lambda(F) with Lambda(g dz^dzbar) = -2i g on the unit-area torus
    return (1j / (2 * np.pi)) * np.einsum("xykk->xy", -2j * F).mean()


def curvature(h, degrees):
    return higgs.chern_curvature(h, geo.inv(h), degrees)


def adjoint(theta, h):
    """theta^dagger_h = h^-1 T^dagger h for theta = T dz."""
    return higgs.higgs_adjoint(theta, geo.inv(h), h)


class TestChernCurvature:
    def test_flat_background(self):
        g = geo.TorusGrid(16)
        F = curvature(geo.identity_field(g, 1), (0,))
        assert geo.sup_norm(F) == 0.0

    def test_background_only_rank1_degree_d(self):
        # h = Id, degree d: F = -2 pi i d omega, i.e. coefficient pi d
        g = geo.TorusGrid(16)
        F = curvature(geo.identity_field(g, 1), (3,))
        assert np.abs(F - 3 * np.pi).max() < 1e-13
        assert abs(degree_from_curvature(F) - 3) < 1e-12

    def test_exponential_metric_matches_dbar_del(self):
        g = geo.TorusGrid(32)
        x, _ = grid_coordinates(g)
        u = 0.1 * np.cos(2 * np.pi * x)[..., None, None] + 0j
        h = np.exp(u)
        F = curvature(h, (0,))
        oracle = -geo.dbar(geo.del_(u))  # dbar(w dz) = -(d_zbar w) dz^dzbar
        assert np.abs(F - oracle).max() < 1e-11
        assert abs(degree_from_curvature(F)) < 1e-10

    def test_exponential_metric_against_stencil(self):
        # independent finite-difference route: F = dbar del u evaluated with
        # 4th-order periodic stencils instead of the FFT
        from test_geometry import stencil_derivative

        g = geo.TorusGrid(64)
        x, y = grid_coordinates(g)
        u = (0.1 * np.cos(2 * np.pi * x) - 0.05 * np.sin(2 * np.pi * y))[..., None, None] + 0j
        h = np.exp(u)
        F = curvature(h, (0,))
        dz = lambda v: 0.5 * (stencil_derivative(v, g.n, 0) - 1j * stencil_derivative(v, g.n, 1))
        dzbar = lambda v: 0.5 * (stencil_derivative(v, g.n, 0) + 1j * stencil_derivative(v, g.n, 1))
        oracle = -dzbar(dz(u))  # dbar(w dz) carries coefficient -d_zbar w
        assert np.abs(F - oracle).max() < 1e-4

    def test_degree_for_random_metric(self):
        rng = np.random.default_rng(5)
        g = geo.TorusGrid(32)
        for degrees in [(0,), (2,), (-1, -1), (1, 1)]:
            q_degrees = degrees
            s = random_hermitian_log(g, q_degrees, rng)
            h = higgs.expm_hermitian(s)
            F = curvature(h, q_degrees)
            assert abs(degree_from_curvature(F) - sum(q_degrees)) < 1e-8

    def test_nonpositive_metric_rejected(self):
        # chern_curvature itself does not check; the metric boundaries do
        g = geo.TorusGrid(8)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        pair = higgs.MetricPair(geo.constant_field(g, [[-1.0]]), geo.identity_field(g, 1))
        with pytest.raises(DomainError):
            pair.validate()
        with pytest.raises(DomainError):
            vortex.residual(q, pair, c)


class TestMetricChecks:
    """The solver skips the metric check on its own iterates; the public entry points keep it."""

    BAD = {
        "negative": np.diag([1.0, -1.0]),
        "singular": np.diag([1.0, 0.0]),
        "non-Hermitian": np.array([[1.0, 0.5], [0.0, 1.0]]),
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_bad_metric_rejected(self, kind):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(
            g, (0, 0), (0,),
            np.zeros((2, 2)), [[0]],
            np.zeros((1, 2)), [[1.0], [0.0]],
        ).validate()
        c = vortex.constants_from_sigma(2, 2, 1, 0, 0)
        bad = geo.constant_field(g, self.BAD[kind])
        pair = higgs.MetricPair(bad, geo.identity_field(g, 1))
        with pytest.raises(DomainError):
            pair.validate()
        with pytest.raises(DomainError):
            vortex.residual(q, pair, c)
        # the same data pass once the metric is fixed
        vortex.residual(q, unit_metrics(q), c)


class TestAdjoints:
    def test_scalar_higgs_adjoint(self):
        g = geo.TorusGrid(8)
        c = 1.5 - 0.5j
        theta = geo.constant_field(g, [[c]])
        dag = adjoint(theta, geo.identity_field(g, 1))
        assert np.abs(dag - np.conj(c)).max() < 1e-15

    def test_defining_property_random(self):
        # h(theta s, t) = h(s, theta^dag t) pointwise for random data
        rng = np.random.default_rng(2)
        g = geo.TorusGrid(8)
        t_coeff = rng.standard_normal((g.n, g.n, 2, 2)) + 1j * rng.standard_normal((g.n, g.n, 2, 2))
        theta = t_coeff
        s_log = 0.3 * (lambda m: 0.5 * (m + geo.adjoint_values(m)))(
            rng.standard_normal((g.n, g.n, 2, 2)) + 1j * rng.standard_normal((g.n, g.n, 2, 2))
        )
        h = higgs.expm_hermitian(s_log)
        dag = adjoint(theta, h)
        s = rng.standard_normal((g.n, g.n, 2, 1)) + 1j * rng.standard_normal((g.n, g.n, 2, 1))
        t = rng.standard_normal((g.n, g.n, 2, 1)) + 1j * rng.standard_normal((g.n, g.n, 2, 1))
        adj = geo.adjoint_values
        lhs = adj(t) @ h @ (t_coeff @ s)
        rhs = adj(dag @ t) @ h @ s
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_nilpotent_rank2_frozen_value(self):
        # defining-property oracle for theta = [[0,1],[0,0]] dz, h = diag(2,1)
        g = geo.TorusGrid(8)
        theta = geo.constant_field(g, [[0, 1], [0, 0]])
        h = geo.constant_field(g, np.diag([2.0, 1.0]))
        dag = adjoint(theta, h)
        expected = np.array([[0, 0], [2.0, 0]])
        assert np.abs(dag - expected).max() < 1e-14

    def test_morphism_adjoint_scalar_metrics(self):
        # f = c, h1 = e^u1, h2 = e^u2 (f: E1 -> E2): f* = h1^-1 conj(c) h2 = conj(c) e^(u2-u1),
        # the adjoint the coupling terms take of phi and psi
        g = geo.TorusGrid(16)
        c = 0.7 + 0.2j
        x, y = grid_coordinates(g)
        u1 = 0.3 * np.cos(2 * np.pi * x)[..., None, None] + 0j
        u2 = -0.2 * np.sin(2 * np.pi * y)[..., None, None] + 0j
        fstar = higgs.higgs_adjoint(geo.constant_field(g, [[c]]), 1.0 / np.exp(u1), np.exp(u2))
        assert np.abs(fstar - np.conj(c) * np.exp(u2 - u1)).max() < 1e-13

    def test_morphism_defining_property_and_involution(self):
        rng = np.random.default_rng(9)
        g = geo.TorusGrid(8)
        fv = rng.standard_normal((g.n, g.n, 1, 2)) + 1j * rng.standard_normal((g.n, g.n, 1, 2))
        h1 = higgs.expm_hermitian(random_hermitian_log(g, (0,), rng))       # f: E2 -> E1, psi-shaped
        h2 = higgs.expm_hermitian(random_hermitian_log(g, (0, 0), rng))
        inv1, inv2 = geo.inv(h1), geo.inv(h2)
        fstar = higgs.higgs_adjoint(fv, inv2, h1)
        adj = geo.adjoint_values
        s = rng.standard_normal((g.n, g.n, 2, 1)) + 0j
        t = rng.standard_normal((g.n, g.n, 1, 1)) + 0j
        lhs = adj(t) @ h1 @ (fv @ s)           # h1(f s, t)
        rhs = adj(fstar @ t) @ h2 @ s          # h2(s, f* t)
        assert np.abs(lhs - rhs).max() < 1e-12
        assert np.abs(higgs.higgs_adjoint(fstar, inv1, h2) - fv).max() < 1e-12


class TestBracket:
    def test_rank1_bracket_vanishes(self):
        g = geo.TorusGrid(8)
        theta = geo.constant_field(g, [[2.0 + 1j]])
        dag = adjoint(theta, geo.constant_field(g, [[3.0]]))
        br = higgs.bracket_theta(theta, dag)
        assert geo.sup_norm(br) < 1e-15

    def test_zero_theta(self):
        g = geo.TorusGrid(8)
        z = geo.constant_field(g, np.zeros((2, 2)))
        br = higgs.bracket_theta(z, adjoint(z, geo.identity_field(g, 2)))
        assert geo.sup_norm(br) == 0.0

    def test_nilpotent_rank2_hand_value(self):
        # theta = [[0,1],[0,0]] dz, h = diag(2,1): theta^dag = [[0,0],[2,0]] dzbar, and
        # [theta, theta^dag] = (T S - S T) dz^dzbar = diag(2, -2) dz^dzbar
        g = geo.TorusGrid(8)
        theta = geo.constant_field(g, [[0, 1], [0, 0]])
        br = higgs.bracket_theta(theta, adjoint(theta, geo.constant_field(g, np.diag([2.0, 1.0]))))
        assert np.abs(br - np.diag([2.0, -2.0])).max() < 1e-14

    def test_trace_free_and_integral_zero(self):
        rng = np.random.default_rng(3)
        g = geo.TorusGrid(16)
        tv = rng.standard_normal((g.n, g.n, 2, 2)) + 1j * rng.standard_normal((g.n, g.n, 2, 2))
        theta = tv
        h = higgs.expm_hermitian(random_hermitian_log(g, (0, 0), rng))
        br = higgs.bracket_theta(theta, adjoint(theta, h))
        trace = np.einsum("xykk->xy", br)
        assert geo.sup_norm(trace) < 1e-12
        assert abs(-2j * trace.mean()) < 1e-10

    def test_rank1_positivity(self):
        # i Lambda(theta ^ theta^dag) = 2 |T|^2 >= 0 pointwise in rank 1
        rng = np.random.default_rng(4)
        g = geo.TorusGrid(8)
        tv = rng.standard_normal((g.n, g.n, 1, 1)) + 1j * rng.standard_normal((g.n, g.n, 1, 1))
        theta = tv
        dag = adjoint(theta, geo.identity_field(g, 1))
        # theta ^ theta^dag = T S dz^dzbar, and Lambda(g dz^dzbar) = -2i g
        val = 1j * (-2j * (theta @ dag))
        assert np.min(val.real) >= 0.0
        assert np.abs(val.imag).max() < 1e-13


def exactly_zero(m: higgs.ExactMatrix) -> bool:
    return not m.support().any()


class TestQuadrupletConstraints:
    def test_constant_quadruplet_residuals_vanish(self):
        g = geo.TorusGrid(16)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[1.2]], [[1.2]], [[0]], [[0.5]])
        assert all(exactly_zero(d) for d in higgs.holomorphy_residuals(q))

    def test_nonholomorphic_phi_detected(self):
        # theta1 = 1, theta2 = 2, phi = 1: the twist theta2 phi - phi theta1 is exactly 1
        g = geo.TorusGrid(32)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[1]], [[2]], [[1]], [[0]])
        res = higgs.holomorphy_residuals(q)
        assert res.phi.re[0, 0] == 1 and res.phi.im[0, 0] == 0
        assert exactly_zero(res.psi)
        with pytest.raises(ConstraintError, match="theta2 phi != phi theta1"):
            q.validate()

    @pytest.mark.parametrize("p, q_", [(8, 0), (0, 8), (8, 8)])
    def test_nyquist_mode_rejected(self, p, q_):
        # (-1)^i is not holomorphic, and the spectral dbar zeroes the Nyquist
        # wavenumber and reads 0 on it; a field is one constant matrix, so a
        # sampled field such as this one cannot be given at all
        g = geo.TorusGrid(16)
        field = mode_field(g, p, q_)
        assert geo.sup_norm(geo.dbar(field)) < 1e-12
        with pytest.raises(ShapeError, match="one constant matrix"):
            higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], field)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_field_rejected(self, value):
        g = geo.TorusGrid(8)
        with pytest.raises(ConstraintError, match="non-finite"):
            higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[value]]).validate()

    @pytest.mark.parametrize("value", [Fraction(10**400), Fraction(-(10**309), 3)])
    def test_float64_overflow_rejected(self, value):
        # finite as a rational, but its float64 value is not
        g = geo.TorusGrid(8)
        with pytest.raises(ConstraintError, match="non-finite"):
            higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[value]])

    def test_float64_gram_overflow_rejected(self):
        # each entry's square 1e308 is finite, but psi psi^dagger sums two of them and overflows;
        # the residual forms that product at h = Id
        g = geo.TorusGrid(8)
        other = [[0]], np.zeros((2, 2)), np.zeros((2, 1))
        with pytest.raises(ConstraintError, match="psi is too large"):
            higgs.QuadrupletSpec(g, (0,), (0, 0), *other, [["1e154", "1e154"]])
        q = higgs.QuadrupletSpec(g, (0,), (0, 0), *other, [["1e154", "0"]])
        assert q.psi[0, 0, 0, 0] == 1e154

    @pytest.mark.parametrize("value", [Fraction(1, 10**400), Fraction(-1, 10**324)])
    def test_float64_underflow_rejected(self, value):
        # nonzero as a rational, but its float64 value is 0.0
        g = geo.TorusGrid(8)
        with pytest.raises(ConstraintError, match="underflows"):
            higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[value]])

    def test_nonzero_subnormal_accepted(self):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[Fraction(5, 10**324)]])
        assert q.psi[0, 0, 0, 0] == 5e-324

    def test_entries_are_exact(self):
        # a float is taken at its binary value, a Fraction as is; the arrays
        # hold each part rounded once
        g = geo.TorusGrid(8)
        third = Fraction(1, 3)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[third]], [[third]], [[0]], [[0.1 - 2.5j]])
        assert q.exact.psi.re[0, 0] == Fraction(0.1) != Fraction(1, 10)
        assert q.exact.psi.im[0, 0] == Fraction(-5, 2)
        assert q.exact.theta1.re[0, 0] == third
        assert np.array_equal(q.theta1, np.full((8, 8, 1, 1), 1 / 3 + 0j))
        assert np.array_equal(q.psi, np.full((8, 8, 1, 1), 0.1 - 2.5j))
        q.validate()

    def test_near_miss_twist_rejected(self):
        # theta2 - theta1 = 1e-12 breaks theta1 psi = psi theta2; no tolerance forgives it
        g = geo.TorusGrid(8)
        theta2 = Fraction("1.000000000001")
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[1]], [[theta2]], [[0]], [[1]])
        assert higgs.holomorphy_residuals(q).psi.re[0, 0] == 1 - theta2
        with pytest.raises(ConstraintError, match="theta1 psi != psi theta2"):
            q.validate()

    def test_composition_constraint_enforced(self):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[1.0]], [[1.0]])
        with pytest.raises(ConstraintError):
            q.validate()

    def test_tiny_composition_rejected(self):
        # phi psi = 1e-20 is not 0
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[Fraction(1, 10**10)]], [[Fraction(1, 10**10)]])
        with pytest.raises(ConstraintError, match="must vanish"):
            q.validate()

    def test_degree_mask_enforced(self):
        # coupling between summands of different degree is unrepresentable
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (1,), (0,), [[0]], [[0]], [[0]], [[1.0]])
        with pytest.raises(ConstraintError):
            q.validate()

    def test_wrong_matrix_shape_rejected(self):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0, 0), (0,), np.zeros((2, 2)), [[0]], np.zeros((1, 2)), [[1]])
        with pytest.raises(ShapeError, match="psi must be a 2x1 matrix"):
            q.validate()

    def test_random_admissible_families_validate(self):
        rng = np.random.default_rng(11)
        g = geo.TorusGrid(16)
        for _ in range(20):
            q = random_admissible_quadruplet(g, rng)
            h = random_metric_pair(q, rng)
            assert all(exactly_zero(d) for d in higgs.holomorphy_residuals(q))
            h.validate()
