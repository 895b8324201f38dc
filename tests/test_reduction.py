"""Chart data on P^1, calibration, product assembly and the equivalences."""

from fractions import Fraction

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs, reduction, vortex
from dcvortex.errors import ConstraintError, DomainError
from dcvortex.reduction import InvariantConnectionData, P1LineData

from conftest import fs_integrate, psi_entry, random_hermitian_log, unit_metrics


RING = np.exp(2j * np.pi * np.arange(64) / 64)


def transition_defect(n, z):
    """Sup |h_w(1/z) - |z^n|^2 h_z(z)| of O(n)'s metric on the overlap, with e_{n,w} = z^n e_{n,z}."""
    line = P1LineData(n)
    return np.max(np.abs(line.metric(1 / z) - np.abs(z**n) ** 2 * line.metric(z)))


def form_pullback_defects(z):
    """alpha and beta read in the w chart, pulled back to z: sup distance from the z-chart formulas.

    In the w chart alpha = -(1+|w|^2)^-2 dwbar (x) e_{-2,w} and beta = -dw (x) e_{2,w}.
    """
    w = 1 / z
    # dwbar = -zbar^-2 dzbar, e_{-2,w} = z^-2 e_{-2,z}
    alpha = -1.0 / (1.0 + np.abs(w) ** 2) ** 2 * (-np.conj(z) ** -2) * z**-2
    # dw = -z^-2 dz, e_{2,w} = z^2 e_{2,z}
    beta = -1.0 * (-(z**-2)) * z**2
    return (
        np.max(np.abs(alpha - reduction.alpha_coeff(z))),
        np.max(np.abs(beta - reduction.beta_coeff(z))),
    )


def samples(q, n_points, seed=0):
    return reduction.random_product_points(q.grid, n_points, np.random.default_rng(seed))


def invariant_norm_sq(coeff, n, zeta):
    """|c|^2 h^(n) |dzeta|^2 of an O(n)-valued 1-form c dzeta, with |dzeta|^2 = 2 pi (1+|zeta|^2)^2 in FS."""
    return np.abs(coeff) ** 2 * P1LineData(n).metric(zeta) * 2 * np.pi * (1 + np.abs(zeta) ** 2) ** 2


class TestLineBundles:
    @pytest.mark.parametrize("n", range(-4, 5))
    def test_deg_p1(self, n, disk):
        assert reduction.deg_p1(n, disk) == pytest.approx(n, abs=1e-6)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            reduction.deg_p1(9)

    def test_transition_on_overlap_ring(self):
        for n in (-2, -1, 1, 2, 4):
            assert transition_defect(n, RING) < 1e-12
            assert transition_defect(n, 0.9 * RING) < 1e-12

    def test_fs_contraction_constant(self, disk):
        val = reduction.fs_contraction_constant(2, disk)
        assert abs(val + 4j * np.pi) < 1e-8

    def test_fs_contraction_trivial_and_dual(self, disk):
        assert abs(reduction.fs_contraction_constant(0, disk)) < 1e-12
        assert abs(reduction.fs_contraction_constant(-2, disk) - 4j * np.pi) < 1e-8


class TestInvariantForms:
    def test_alpha_beta_chart_consistency(self):
        for z in (RING, 0.8 * RING):
            assert max(form_pullback_defects(z)) < 1e-10

    def test_invariant_norms_constant(self, disk):
        # SU(2)-invariant forms have constant norm, 2 pi for alpha in O(-2) and beta in O(2)
        for coeff, n in ((reduction.alpha_coeff, -2), (reduction.beta_coeff, 2)):
            norm = invariant_norm_sq(coeff(disk.points), n, disk.points)
            assert np.abs(norm - 2 * np.pi).max() < 1e-10

    def test_calibration_constants(self):
        forms = reduction.calibrate_alpha_beta(2.0)
        assert forms.c_alpha == pytest.approx(1 / np.sqrt(2 * np.pi), rel=1e-12)
        assert forms.c_beta == pytest.approx(1 / np.sqrt(2 * np.pi), rel=1e-12)
        # the raw proportionality is sigma-independent (pi)
        forms4 = reduction.calibrate_alpha_beta(4.0)
        assert forms.raw_ratio == pytest.approx(np.pi, rel=1e-12)
        assert forms4.raw_ratio == pytest.approx(np.pi, rel=1e-12)
        assert forms4.c_beta == pytest.approx(forms.c_beta / np.sqrt(2), rel=1e-12)


class TestAssemblyAndHE:
    def test_block_diagonal_when_decoupled(self):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[0]]).validate()
        asm = reduction.assemble_F(q, unit_metrics(q), 2.0, samples(q, 10))
        assert asm.points.shape == (10,) and asm.ij.shape == (10, 2)
        for blocks in (asm.dbar_off, asm.theta_off, asm.metric):
            assert blocks.shape == (10, 2, 2)
        assert np.abs(asm.dbar_off).max() == 0.0
        assert np.abs(asm.theta_off).max() == 0.0
        assert np.abs(asm.metric[:, 0, 1]).max() == 0.0
        assert np.abs(asm.metric[:, 1, 0]).max() == 0.0

    def test_empty_sample_rejected(self):
        # both product checks read the one sample set, so an empty draw stops them both
        g = geo.TorusGrid(8)
        for n_points in (0, -5):
            with pytest.raises(DomainError):
                reduction.random_product_points(g, n_points, np.random.default_rng(0))

    def test_flat_mismatched_constants_residual_is_lambda(self):
        # all-zero fields, d = 0, flat h solve only tau = 0; assembling with
        # sigma = 2 leaves exactly the constant lambda = -2 pi i
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[0]]).validate()
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        asm = reduction.assemble_F(q, unit_metrics(q), 2.0, samples(q, 20))
        he = reduction.he_residual_product(asm, c)
        assert he.sup_diagonal == pytest.approx(2 * np.pi, rel=1e-9)

    def test_flat_degree_shifted_solution(self):
        # the product Hermitian-Einstein residual vanishes with sigma = 2
        q, c = self._flat_shifted()
        assert c.sigma == Fraction(2) and c.tau_prime == Fraction(-1)
        h = unit_metrics(q)
        assert max(map(geo.sup_norm, vortex.residual(q, h, c))) < 1e-12
        asm = reduction.assemble_F(q, h, 2.0, samples(q, 40))
        he = reduction.he_residual_product(asm, c)
        assert he.sup_diagonal < 1e-9
        assert he.sup_offdiagonal < 1e-8

    def _flat_shifted(self):
        # d = (1, -1): flat metrics solve the tau = 1 system exactly
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (1,), (-1,), [[0]], [[0]], [[0]], [[0]]).validate()
        return q, vortex.constants_from_tau(1, 1, 1, 1, -1)

    def test_wrong_p1_weight_fails_equivalence(self, monkeypatch):
        # reading Omega_sigma as (sigma/2) omega + sigma omega_P1 gives the
        # P^1 weight 1/sigma; it breaks the equivalence on the degree-shifted
        # flat solution by |pi|
        q, c = self._flat_shifted()
        monkeypatch.setattr(reduction, "lambda_weights", lambda sigma: (2.0 / sigma, 1.0 / sigma))
        asm = reduction.assemble_F(q, unit_metrics(q), 2.0, samples(q, 20))
        he = reduction.he_residual_product(asm, c)
        assert he.sup_diagonal > 1.0

    def test_wrong_alpha_fails_offdiagonal(self, monkeypatch):
        # alpha with the wrong power of (1 + |zeta|^2) is not covariantly
        # constant, so the off-diagonal check must see it
        g = geo.TorusGrid(8)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        monkeypatch.setattr(reduction, "alpha_coeff", lambda zeta: 1.0 / (1.0 + np.abs(zeta) ** 2))
        asm = reduction.assemble_F(q, unit_metrics(q), 2.0, samples(q, 40))
        he = reduction.he_residual_product(asm, c)
        assert he.sup_offdiagonal > 1e-8

    @pytest.mark.parametrize("sigma", [2, 3])
    @pytest.mark.parametrize("degrees1, degrees2", [((0,), (0,)), ((0, 0), (0,))])
    def test_product_blocks_are_rescaled_vortex_residual(self, sigma, degrees1, degrees2):
        # the reduction identity, pointwise: for any metrics the diagonal
        # blocks of the product residual are (2/sigma) (R1, R2) at the
        # sampled torus points; the constant fields need not satisfy the
        # quadruplet constraints
        rng = np.random.default_rng(11 + sigma)
        g = geo.TorusGrid(8)
        r1, r2 = len(degrees1), len(degrees2)
        q = higgs.QuadrupletSpec(
            g, degrees1, degrees2,
            *(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for shape in ((r1, r1), (r2, r2), (r2, r1), (r1, r2)))
        )
        s1 = random_hermitian_log(g, degrees1, rng, amplitude=1.0)
        s2 = random_hermitian_log(g, degrees2, rng, amplitude=1.0)
        if r1 == 2:
            assert np.abs(s1[..., 0, 1]).max() > 0.1  # h1 is not diagonal
        h = higgs.MetricPair(higgs.expm_hermitian(s1), higgs.expm_hermitian(s2))
        c = vortex.constants_from_sigma(sigma, r1, r2, 0, 0)
        asm = reduction.assemble_F(q, h, float(sigma), reduction.random_product_points(g, 100, rng))
        blocks = reduction.product_residual_blocks(asm, c.lambda_he)
        R1, R2 = vortex.residual(q, h, c)
        i, j = asm.ij.T
        expected = (2.0 / sigma) * R1[i, j], (2.0 / sigma) * R2[i, j]
        scale = max(geo.sup_norm(e) for e in expected)
        assert scale > 1.0  # a non-solution
        assert geo.sup_norm(blocks[:, :r1, :r1] - expected[0]) <= 1e-9 * scale
        assert geo.sup_norm(blocks[:, r1:, r1:] - expected[1]) <= 1e-9 * scale
        assert geo.sup_norm(blocks[:, :r1, r1:]) <= 1e-9 * scale
        assert geo.sup_norm(blocks[:, r1:, :r1]) <= 1e-9 * scale

    def test_nonpositive_sigma_rejected(self):
        g = geo.TorusGrid(8)
        q = psi_entry(g)
        with pytest.raises(DomainError):
            reduction.assemble_F(q, unit_metrics(q), 0.0, samples(q, 4))
        with pytest.raises(DomainError):
            reduction.calibrate_alpha_beta(-1.0)

    def test_lambda_perturbation_affine(self):
        g = geo.TorusGrid(8)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        h, rep = vortex.solve(q, c, vortex.SolveOptions(target_residual=1e-9))
        asm = reduction.assemble_F(q, h, 2.0, samples(q, 20))
        delta = 1e-3
        blocks = reduction.product_residual_blocks(asm, c.lambda_he + delta)
        assert geo.sup_norm(blocks) == pytest.approx(delta, rel=1e-3)

    def test_volume_and_lambda_consistency(self, disk):
        # Vol(X x P^1, Omega_sigma) by quadrature (X has unit area) reproduces the closed-form lambda
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        ones = lambda z: np.ones(z.shape)
        wx, wp = reduction.lambda_weights(2.0)
        vol = fs_integrate(disk, ones, ones).real / (wx * wp)
        assert vol == pytest.approx(1.0, abs=1e-9)  # sigma/2 with unit masses
        lam = -2j * np.pi / vol * (0 + 0 + 2.0 * 1) / 2
        assert lam == pytest.approx(c.lambda_he, rel=1e-9)


class TestIntegrability:
    def _entry(self, g, phi, psi, theta1=((0,),), theta2=((0,),)):
        return higgs.QuadrupletSpec(g, (0,), (0,), theta1, theta2, phi, psi)

    def test_valid_quadruplet_integrable(self):
        g = geo.TorusGrid(16)
        q = self._entry(g, [[0]], [[1.0]])
        rep = reduction.integrability_residual(q, 2.0, samples(q, 64))
        assert rep.total < 1e-12

    def test_broken_composition_detected(self):
        g = geo.TorusGrid(16)
        q = self._entry(g, [[1.0]], [[1.0]])
        rep = reduction.integrability_residual(q, 2.0, samples(q, 64))
        assert rep.total >= 1e-2
        assert rep.phi_psi >= 1e-2 and rep.psi_phi >= 1e-2

    def test_broken_holomorphy_detected(self):
        # theta1 = 1, theta2 = 2, phi = 1: theta2 phi != phi theta1, a constant
        # violation of phi's holomorphy in the product
        g = geo.TorusGrid(16)
        q = self._entry(g, [[1.0]], [[0]], theta1=[[1.0]], theta2=[[2.0]])
        rep = reduction.integrability_residual(q, 2.0, samples(q, 64))
        assert rep.phi_block > 1e-2
        assert rep.psi_block == 0.0

    def test_broken_intertwining_detected(self):
        g = geo.TorusGrid(16)
        q = higgs.QuadrupletSpec(
            g, (0,), (0,),
            [[1.0]],
            [[2.0]],
            [[0]],
            [[1.0]],  # theta1 psi != psi theta2
        )
        rep = reduction.integrability_residual(q, 2.0, samples(q, 64))
        assert rep.psi_block > 1e-2

    def test_matches_pointwise_loop(self):
        # the array pass against a per-point loop over the same samples
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[1.0]], [[2.0]], [[0.5j]], [[1.0]])
        points = samples(q, 30, seed=4)
        rep = reduction.integrability_residual(q, 3.0, points)
        forms = reduction.calibrate_alpha_beta(3.0)
        psi, phi = q.psi, q.phi
        t1, t2 = q.theta1, q.theta2
        sups = dict(psi_block=0.0, phi_block=0.0, phi_psi=0.0, psi_phi=0.0)
        for (i, j), z in zip(*points):
            a = abs(forms.c_alpha * reduction.alpha_coeff(z))
            b = abs(forms.c_beta * reduction.beta_coeff(z))
            for key, value in (
                ("psi_block", a * geo.sup_norm(t1[i, j] @ psi[i, j] - psi[i, j] @ t2[i, j])),
                ("phi_block", b * geo.sup_norm(t2[i, j] @ phi[i, j] - phi[i, j] @ t1[i, j])),
                ("phi_psi", a * b * geo.sup_norm(phi[i, j] @ psi[i, j])),
                ("psi_phi", a * b * geo.sup_norm(psi[i, j] @ phi[i, j])),
            ):
                sups[key] = max(sups[key], value)
        for key, value in sups.items():
            assert value > 1e-2
            assert getattr(rep, key) == pytest.approx(value, rel=1e-14)

    def test_broken_theta_holomorphy_detected(self):
        # rank (2, 1): the nilpotent theta1 moves the image of psi = e2 to e1,
        # so theta1 psi = e1 != 0 = psi theta2
        g = geo.TorusGrid(16)
        q = higgs.QuadrupletSpec(g, (0, 0), (0,), [[0, 1], [0, 0]], [[0]], np.zeros((1, 2)), [[0], [1]])
        rep = reduction.integrability_residual(q, 2.0, samples(q, 64))
        weight = np.abs(reduction.calibrate_alpha_beta(2.0).c_alpha * reduction.alpha_coeff(samples(q, 64).zeta))
        assert rep.psi_block == pytest.approx(weight.max(), rel=1e-14)
        assert rep.total == rep.psi_block
        with pytest.raises(ConstraintError, match="theta1 psi != psi theta2"):
            q.validate()


class TestIotaRoundtrip:
    def _skew_pair(self, m):
        return (m, -geo.adjoint_values(m))

    def test_zero_components(self):
        g = geo.TorusGrid(8)
        z = np.zeros((8, 8, 1, 1), dtype=complex)
        data = InvariantConnectionData(
            (z, z.copy()), (z.copy(), z.copy()), (z.copy(), z.copy()), (z.copy(), z.copy()),
            z.copy(), z.copy(),
        )
        assert reduction.iota_roundtrip(data)

    def test_random_components(self):
        from dcvortex import hyperkahler as hk

        rng = np.random.default_rng(6)
        g = geo.TorusGrid(8)
        for _ in range(5):
            data = InvariantConnectionData(
                self._skew_pair(hk.random_smooth_matrix(g, 2, 2, rng)),
                self._skew_pair(hk.random_smooth_matrix(g, 2, 2, rng)),
                self._skew_pair(hk.random_smooth_matrix(g, 1, 1, rng)),
                self._skew_pair(hk.random_smooth_matrix(g, 1, 1, rng)),
                hk.random_smooth_matrix(g, 1, 2, rng),
                hk.random_smooth_matrix(g, 2, 1, rng),
            )
            assert reduction.iota_roundtrip(data, rng=rng)

    def test_non_skew_rejected(self):
        g = geo.TorusGrid(8)
        z = np.zeros((8, 8, 1, 1), dtype=complex)
        bad = np.ones((8, 8, 1, 1), dtype=complex)
        data = InvariantConnectionData(
            (bad, bad), (z, z.copy()), (z.copy(), z.copy()), (z.copy(), z.copy()),
            z.copy(), z.copy(),
        )
        with pytest.raises(ConstraintError):
            reduction.iota_roundtrip(data)
