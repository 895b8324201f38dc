"""Quaternionic algebra, moment map identity, gauge equivariance, cross-checks."""

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs, hyperkahler as hk, vortex
from dcvortex.errors import ConstraintError

from conftest import grid_coordinates, psi_entry, unit_metrics


def slots(t):
    return (t.a1, t.p1, t.a2, t.p2, t.f, t.g)


def max_slot_diff(a, b, sign=1.0):
    return max(np.max(np.abs(x - sign * y)) for x, y in zip(slots(a), slots(b)))


@pytest.fixture
def rng():
    return np.random.default_rng(21)


@pytest.fixture
def small_grid():
    return geo.TorusGrid(16)


def loop_smooth_matrix(grid, ro, ri, rng, amplitude, modes):
    """Reference: one full-grid exponential per mode (p, q), drawn in loop order."""
    x, y = grid_coordinates(grid)
    out = np.zeros((grid.n, grid.n, ro, ri), dtype=np.complex128)
    for p in range(-modes, modes + 1):
        for q in range(-modes, modes + 1):
            coeff = rng.standard_normal((ro, ri)) + 1j * rng.standard_normal((ro, ri))
            out += np.exp(2j * np.pi * (p * x + q * y))[..., None, None] * coeff
    return out * (amplitude / geo.sup_norm(out))


def configuration_from_solution(q, h):
    """The metric pair h as a point of M over unit metrics, by conjugating with g_i = h_i^(1/2).

    The connection perturbation becomes g^-1 del g, theta' = g theta g^-1
    enters as the (1,0)-coefficient -i theta' of Phi, and the couplings
    conjugate accordingly.
    """
    def sqrt_and_inverse(m):
        w, v = np.linalg.eigh(m)
        root = (v * np.sqrt(w)[..., None, :]) @ geo.adjoint_values(v)
        return root, geo.inv(root)

    (g1, g1_inv), (g2, g2_inv) = sqrt_and_inverse(h.h1), sqrt_and_inverse(h.h2)
    return hk.Configuration(
        q.grid, tuple(q.block_degrees1), tuple(q.block_degrees2),
        a1=g1_inv @ geo.del_(g1), p1=-1j * g1 @ q.theta1 @ g1_inv,
        a2=g2_inv @ geo.del_(g2), p2=-1j * g2 @ q.theta2 @ g2_inv,
        phi=g2 @ q.phi @ g1_inv, psi=g1 @ q.psi @ g2_inv,
    )


def level_set_defect(x, c):
    """Sup distance of Lambda(mu_I) from the central value (-2 pi i tau Id, -2 pi i tau' Id).

    Lambda(g dz^dzbar) = -2i g.
    """
    return max(
        geo.sup_norm(-2j * mu + 2j * np.pi * float(t) * np.eye(r))
        for mu, t, r in zip(hk.moment_mu_I(x), (c.tau, c.tau_prime), (x.r1, x.r2))
    )


def constraint_residual(x):
    """Sup of the holomorphy constraints that cut N out of M; each (0,1)-coefficient is -C^dagger."""
    d1, d2 = -geo.adjoint_values(x.a1), -geo.adjoint_values(x.a2)

    def dbar_cov(values, left, right):
        return geo.sup_norm(geo.dbar(values) + left @ values - values @ right)

    return max(
        dbar_cov(x.p1, d1, d1), dbar_cov(x.p2, d2, d2), dbar_cov(x.phi, d2, d1), dbar_cov(x.psi, d1, d2),
        geo.sup_norm(x.p2 @ x.phi - x.phi @ x.p1), geo.sup_norm(x.p1 @ x.psi - x.psi @ x.p2),
        geo.sup_norm(x.phi @ x.psi), geo.sup_norm(x.psi @ x.phi),
    )


class TestRandomSmoothMatrix:
    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 1), (1, 2)])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_matches_mode_loop_and_draws(self, n, shape, modes):
        grid = geo.TorusGrid(n)
        rng_fast, rng_loop = np.random.default_rng(3), np.random.default_rng(3)
        fast = hk.random_smooth_matrix(grid, *shape, rng_fast, 0.7, modes)
        loop = loop_smooth_matrix(grid, *shape, rng_loop, 0.7, modes)
        assert fast.shape == (n, n, *shape)
        assert np.max(np.abs(fast - loop)) < 1e-14
        # same draws: the generator streams continue identically
        assert rng_fast.standard_normal() == rng_loop.standard_normal()

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("r1, r2", [(2, 1), (1, 2)])
    def test_field_sets_follow_the_draw_order(self, n, r1, r2):
        # a field set is one generator read, yet bit for bit the slot-by-slot calls in slot order
        grid = geo.TorusGrid(n)
        rng_set, rng_seq = np.random.default_rng(5), np.random.default_rng(5)
        t = hk.random_tangent(grid, r1, r2, rng_set)
        x = hk.random_configuration(grid, r1, r2, rng_set)
        xi = hk.random_gauge_direction(grid, r1, r2, rng_set)
        shapes = [(r1, r1), (r1, r1), (r2, r2), (r2, r2), (r2, r1), (r1, r2)]
        want = [hk.random_smooth_matrix(grid, *shape, rng_seq, amplitude)
                for amplitude in (0.5, 0.3) for shape in shapes]
        want += [hk.random_skew_field(grid, r, rng_seq) for r in (r1, r2)]
        got = [*t, x.a1, x.p1, x.a2, x.p2, x.phi, x.psi, xi.u, xi.v]
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert rng_set.bit_generator.state == rng_seq.bit_generator.state

    @pytest.mark.parametrize("modes", [1, 2])
    def test_band_limited_with_sup_amplitude(self, rng, modes):
        n = 16
        field = hk.random_smooth_matrix(geo.TorusGrid(n), 2, 1, rng, 0.7, modes)
        hat = np.fft.fft2(field, axes=(0, 1)) / n**2
        k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        outside = (k[:, None] > modes) | (k[None, :] > modes)
        assert np.max(np.abs(hat[~outside])) > 1e-2
        assert np.max(np.abs(hat[outside])) < 1e-14
        assert geo.sup_norm(field) == pytest.approx(0.7, rel=1e-14)

    def test_cached_table_is_read_only(self):
        table = hk._fourier_table(8, 2)
        assert table.shape == (5, 8)
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


class TestQuaternions:
    @pytest.mark.parametrize("op", [hk.apply_I, hk.apply_J, hk.apply_K])
    def test_squares_to_minus_one(self, op, rng, small_grid):
        for _ in range(10):
            a = hk.random_tangent(small_grid, 2, 1, rng)
            assert max_slot_diff(op(op(a)), a, sign=-1.0) < 1e-12

    def test_IJ_anticommute(self, rng, small_grid):
        for _ in range(10):
            a = hk.random_tangent(small_grid, 1, 2, rng)
            assert max_slot_diff(hk.apply_I(hk.apply_J(a)), hk.apply_J(hk.apply_I(a)), sign=-1.0) < 1e-12

    def test_quaternion_defect_detects_a_sign_error(self, rng, small_grid, monkeypatch):
        a = hk.random_tangent(small_grid, 2, 1, rng)
        before = [x.copy() for x in a]
        assert hk.quaternion_defect(a) < 1e-12
        assert all(np.array_equal(x, y) for x, y in zip(a, before))
        apply_J = hk.apply_J

        def flipped_J(t):
            out = apply_J(t)
            return out._replace(a1=-out.a1)

        def commuting_J(t):
            # i on every slot commutes with I and squares to -1, but then (I J)^2 = +1
            return hk.TangentData(*(1j * x for x in t))

        def identity_J(t):
            # J(J(a)) returns a's own arrays, so a sum taken in place would double a
            return t

        for broken_J in (flipped_J, commuting_J, identity_J):
            monkeypatch.setattr(hk, "apply_J", broken_J)
            assert hk.quaternion_defect(a) > 1e-1
            assert all(np.array_equal(x, y) for x, y in zip(a, before))

    def test_J_slot_bookkeeping(self, small_grid):
        # a with only an f slot maps to only a g slot, the adjoint of f
        f = np.zeros((16, 16, 1, 2), dtype=complex)
        f[..., 0, 1] = 2.0 + 1j
        z = lambda ro, ri: np.zeros((16, 16, ro, ri), dtype=complex)
        a = hk.TangentData(z(2, 2), z(2, 2), z(1, 1), z(1, 1), f, z(2, 1))
        ja = hk.apply_J(a)
        assert np.abs(ja.f).max() == 0.0
        assert np.abs(ja.g - geo.adjoint_values(f)).max() == 0.0
        for m in (ja.a1, ja.p1, ja.a2, ja.p2):
            assert np.abs(m).max() == 0.0


class TestMetricAndForm:
    def test_positive_definite(self, rng, small_grid):
        for _ in range(10):
            a = hk.random_tangent(small_grid, 2, 2, rng)
            assert hk.metric_g(a, a) > 0

    def test_I_isometry(self, rng, small_grid):
        a = hk.random_tangent(small_grid, 2, 1, rng)
        b = hk.random_tangent(small_grid, 2, 1, rng)
        assert hk.metric_g(hk.apply_I(a), hk.apply_I(b)) == pytest.approx(hk.metric_g(a, b), rel=1e-12)

    def test_omega_antisymmetric(self, rng, small_grid):
        a = hk.random_tangent(small_grid, 1, 1, rng)
        b = hk.random_tangent(small_grid, 1, 1, rng)
        assert hk.omega_I(a, a) == pytest.approx(0.0, abs=1e-13)
        assert hk.omega_I(a, b) == pytest.approx(-hk.omega_I(b, a), rel=1e-12)


class TestMomentMap:
    def test_flat_decoupled_is_zero(self, small_grid):
        z = lambda ro, ri: np.zeros((16, 16, ro, ri), dtype=complex)
        x = hk.Configuration(small_grid, (0,), (0,), z(1, 1), z(1, 1), z(1, 1), z(1, 1), z(1, 1), z(1, 1))
        mu = hk.moment_mu_I(x)
        assert geo.sup_norm(mu[0]) == 0.0 and geo.sup_norm(mu[1]) == 0.0

    def test_identity_random_draws(self, rng, small_grid):
        x = hk.random_configuration(small_grid, 2, 1, rng)
        for _ in range(5):
            a = hk.random_tangent(small_grid, 2, 1, rng)
            xi = hk.random_gauge_direction(small_grid, 2, 1, rng)
            assert hk.moment_map_property_check(x, a, xi) < 1e-6

    def test_zero_gauge_direction(self, rng, small_grid):
        x = hk.random_configuration(small_grid, 1, 1, rng)
        a = hk.random_tangent(small_grid, 1, 1, rng)
        z = np.zeros((16, 16, 1, 1), dtype=complex)
        assert hk.moment_map_property_check(x, a, hk.GaugeDirection(z, z.copy())) == 0.0

    def test_gauge_direction_consistency(self, rng, small_grid):
        # a = X_xi': the identity reduces to pairing against the gauge orbit
        x = hk.random_configuration(small_grid, 1, 2, rng)
        xi2 = hk.random_gauge_direction(small_grid, 1, 2, rng)
        a = hk.infinitesimal_gauge(x, xi2)
        xi = hk.random_gauge_direction(small_grid, 1, 2, rng)
        assert hk.moment_map_property_check(x, a, xi) < 1e-6

    def test_non_skew_gauge_rejected(self, small_grid):
        ones = np.ones((16, 16, 1, 1), dtype=complex)
        with pytest.raises(ConstraintError):
            hk.GaugeDirection(ones, ones.copy()).validate()

    def test_equivariance(self, rng):
        g = geo.TorusGrid(32)
        x = hk.random_configuration(g, 2, 1, rng)
        g1 = hk.random_unitary_gauge(g, 2, rng)
        g2 = hk.random_unitary_gauge(g, 1, rng)
        mu = hk.moment_mu_I(x)
        mu_g = hk.moment_mu_I(hk.gauge_transform(x, g1, g2))
        adj = geo.adjoint_values
        assert np.max(np.abs(mu_g[0] - g1 @ mu[0] @ adj(g1))) < 1e-10
        assert np.max(np.abs(mu_g[1] - g2 @ mu[1] @ adj(g2))) < 1e-10


class TestSolutionCharacterization:
    def test_solution_sits_on_central_level_set(self):
        g = geo.TorusGrid(16)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        h, rep = vortex.solve(q, c, vortex.SolveOptions(target_residual=1e-10))
        assert rep.converged
        x = configuration_from_solution(q, h)
        assert level_set_defect(x, c) < 1e-8
        assert constraint_residual(x) < 1e-9

    def test_non_solution_off_level_set(self):
        g = geo.TorusGrid(16)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        h = unit_metrics(q)
        # flat metrics do not solve the tau = 1 system
        assert max(map(geo.sup_norm, vortex.residual(q, h, c))) > 1e-8
        assert level_set_defect(configuration_from_solution(q, h), c) > 1.0

    def test_degree_shifted_flat_solution_is_central(self):
        # d = (1, -1), tau = 1: the zero configuration over the constant
        # curvature backgrounds sits exactly on the central level set
        g = geo.TorusGrid(8)
        z = np.zeros((8, 8, 1, 1), dtype=complex)
        x = hk.Configuration(g, (1,), (-1,), z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy())
        c = vortex.constants_from_tau(1, 1, 1, 1, -1)
        assert level_set_defect(x, c) < 1e-12

    def test_level_set_matches_residual_norm(self):
        # the defect of mu_I equals the vortex residual sup after conjugation
        g = geo.TorusGrid(16)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        h, _ = vortex.solve(q, c, vortex.SolveOptions(target_residual=1e-6))
        defect = level_set_defect(configuration_from_solution(q, h), c)
        assert defect == pytest.approx(max(map(geo.sup_norm, vortex.residual(q, h, c))), rel=1e-3)
