"""Constants arithmetic, residual values, the trace identity, and the solver."""

from fractions import Fraction

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs, vortex
from dcvortex.errors import ShapeError

from conftest import (
    nilpotent_rank2_entry,
    phi_entry,
    psi_entry,
    random_admissible_quadruplet,
    random_fraction,
    random_hermitian_log,
    random_metric_pair,
    residual_with_every_term,
    unit_metrics,
    unstable_rank2_entry,
)


class TestConstants:
    def test_zero_degree_case(self):
        c = vortex.constants_from_tau(1, 1, 1, 0, 0)
        assert c.tau_prime == Fraction(-1)
        assert c.sigma == Fraction(2)

    def test_lambda_he_and_sigma_tau_relation(self):
        # (sigma/2) lambda = -2 pi i tau
        c = vortex.constants_from_tau(1, 1, 1, 0, 0)
        assert c.lambda_he == pytest.approx(-2j * np.pi)
        lhs = 0.5 * float(c.sigma) * c.lambda_he
        assert lhs == pytest.approx(-2j * np.pi * float(c.tau))

    def test_tau_prime_equals_tau_minus_sigma(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r1, r2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            d1, d2 = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
            tau = random_fraction(rng)
            c = vortex.constants_from_tau(tau, r1, r2, d1, d2)
            assert c.tau_prime == c.tau - c.sigma

    def test_sigma_tau_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r1, r2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            d1, d2 = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
            sigma = random_fraction(rng)
            c = vortex.constants_from_sigma(sigma, r1, r2, d1, d2)
            back = vortex.constants_from_tau(c.tau, r1, r2, d1, d2)
            assert back.sigma == sigma
            assert back.tau_prime == c.tau_prime

    def test_float_constants_rejected(self):
        # the constants are exact; a float tau or sigma would make them inexact without notice
        with pytest.raises(TypeError):
            vortex.constants_from_tau(0.5, 1, 1, 0, 0)
        with pytest.raises(TypeError):
            vortex.constants_from_sigma(2.0, 1, 1, 0, 0)
        with pytest.raises(TypeError):
            vortex.constants_from_sigma(np.float64(2.0), 1, 1, 0, 0)

    def test_rank_validation(self):
        with pytest.raises(Exception):
            vortex.constants_from_tau(1, 0, 1, 0, 0)

    def test_sigma_nonpositive_flags_reduction(self):
        c = vortex.constants_from_tau(0, 1, 1, 0, 0)
        assert not c.reduction_enabled
        with pytest.raises(Exception):
            _ = c.lambda_he


def _constants(q, tau=Fraction(1, 2)):
    return vortex.constants_from_tau(tau, q.r1, q.r2, q.d1, q.d2)


def _with_zero(q, name):
    """q with the field `name` replaced by zeros; the constraints are not checked."""
    fields = q.exact._replace(**{name: np.zeros(getattr(q.exact, name).re.shape)})
    return higgs.QuadrupletSpec(q.grid, q.block_degrees1, q.block_degrees2, *fields)


class TestZeroFieldsAddNoTerms:
    """A field that is exactly zero adds no term, and the residual is exactly the one with every term."""

    @pytest.mark.parametrize("entry", [psi_entry, phi_entry, unstable_rank2_entry, nilpotent_rank2_entry])
    def test_catalog_entries_match_every_term(self, entry):
        rng = np.random.default_rng(31)
        q = entry(geo.TorusGrid(16))
        for _ in range(3):
            h = random_metric_pair(q, rng)
            for got, want in zip(vortex.residual(q, h, _constants(q)), residual_with_every_term(q, h, _constants(q))):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["theta1", "theta2", "phi", "psi"])
    def test_random_draws_with_one_field_zeroed_match_every_term(self, name):
        rng = np.random.default_rng(32)
        g = geo.TorusGrid(8)
        for _ in range(12):
            q = _with_zero(random_admissible_quadruplet(g, rng), name)
            assert not getattr(q.nonzero, name)
            h = random_metric_pair(q, rng)
            c = _constants(q, random_fraction(rng))
            for got, want in zip(vortex.residual(q, h, c), residual_with_every_term(q, h, c)):
                assert np.array_equal(got, want)

    def test_zero_fields_form_no_adjoint_and_no_bracket(self, monkeypatch):
        calls = {"higgs_adjoint": 0, "bracket_theta": 0}

        def counted(name):
            layer = getattr(higgs, name)

            def wrapper(*args):
                calls[name] += 1
                return layer(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(higgs, name, counted(name))
        g = geo.TorusGrid(8)
        q = psi_entry(g)
        assert q.nonzero == (False, False, False, True)
        vortex.residual(q, unit_metrics(q), _constants(q))
        assert calls == {"higgs_adjoint": 1, "bracket_theta": 0}
        nilpotent = [[0, 1], [0, 0]], [[0, 3], [0, 0]]
        full = higgs.QuadrupletSpec(g, (0, 0), (0, 0), np.diag([1, 2]), np.diag([2, 1]), *nilpotent).validate()
        assert full.nonzero == (True, True, True, True)
        calls.update(higgs_adjoint=0, bracket_theta=0)
        vortex.residual(full, unit_metrics(full), _constants(full))
        assert calls == {"higgs_adjoint": 4, "bracket_theta": 2}


class TestResidual:
    def test_trivial_everything(self):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[0]]).validate()
        c = vortex.constants_from_tau(0, 1, 1, 0, 0)
        r1, r2 = vortex.residual(q, unit_metrics(q), c)
        assert max(geo.sup_norm(r1), geo.sup_norm(r2)) == 0.0

    def test_constants_only(self):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[0]]).validate()
        c = vortex.constants_from_tau(1, 1, 1, 0, 0)
        r1, r2 = vortex.residual(q, unit_metrics(q), c)
        assert np.abs(r1 - 2j * np.pi).max() < 1e-14
        assert np.abs(r2 + 2j * np.pi).max() < 1e-14

    def test_psi_one_hand_value(self):
        # psi = 1, phi = 0, theta = 0, h = Id, tau = 1: R1 = -i + 2 pi i
        g = geo.TorusGrid(8)
        q = psi_entry(g)
        c = vortex.constants_from_tau(1, 1, 1, 0, 0)
        r1, r2 = vortex.residual(q, unit_metrics(q), c)
        assert np.abs(r1 - (-1j + 2j * np.pi)).max() < 1e-13
        assert np.abs(r2 - (1j - 2j * np.pi)).max() < 1e-13

    def test_nilpotent_rank2_hand_value(self):
        # theta1 = [[0,1],[0,0]] dz on O + O, h1 = diag(3, 1/2), E2 = O, tau = 1:
        # theta1^dagger = [[0,0],[6,0]] dzbar, so [theta1, theta1^dagger] = diag(6, -6)
        # and R1 = -2i diag(6, -6) + 2 pi i Id; a normal theta would give 0 here
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(
            g, (0, 0), (0,),
            [[0, 1], [0, 0]], [[0]],
            np.zeros((1, 2)), np.zeros((2, 1)),
        ).validate()
        c = vortex.constants_from_tau(1, 2, 1, 0, 0)
        h = higgs.MetricPair(geo.constant_field(g, np.diag([3.0, 0.5])), geo.identity_field(g, 1))
        r1, _ = vortex.residual(q, h, c)
        assert np.abs(r1 - (-2j * np.diag([6.0, -6.0]) + 2j * np.pi * np.eye(2))).max() < 1e-13

    def test_i_times_residual_is_self_adjoint(self):
        # h-self-adjointness holds up to the Fourier tail of exp(s); n = 32
        # pushes the aliasing of the band-limited logs below round-off
        rng = np.random.default_rng(7)
        g = geo.TorusGrid(32)
        q = random_admissible_quadruplet(g, rng)
        h = random_metric_pair(q, rng)
        c = vortex.constants_from_tau(random_fraction(rng), q.r1, q.r2, q.d1, q.d2)
        res = vortex.residual(q, h, c)
        adj = geo.adjoint_values
        for R, hh in zip(res, (h.h1, h.h2)):
            iR = 1j * R
            lhs = adj(iR)
            rhs = hh @ iR @ geo.inv(hh)
            assert np.abs(lhs - rhs).max() < 1e-7

    def test_gauge_covariance_common_scaling(self):
        rng = np.random.default_rng(8)
        g = geo.TorusGrid(16)
        q = random_admissible_quadruplet(g, rng)
        h = random_metric_pair(q, rng)
        c = vortex.constants_from_tau(Fraction(1, 2), q.r1, q.r2, q.d1, q.d2)
        lam = 2.7
        h_scaled = higgs.MetricPair(lam * h.h1, lam * h.h2)
        res = vortex.residual(q, h, c)
        res_s = vortex.residual(q, h_scaled, c)
        assert np.abs(res[0] - res_s[0]).max() < 1e-10
        assert np.abs(res[1] - res_s[1]).max() < 1e-10


class TestTraceIdentity:
    def test_random_admissible_configurations(self):
        rng = np.random.default_rng(12)
        g = geo.TorusGrid(16)
        worst = 0.0
        for _ in range(30):
            q = random_admissible_quadruplet(g, rng)
            h = random_metric_pair(q, rng)
            c = vortex.constants_from_tau(random_fraction(rng), q.r1, q.r2, q.d1, q.d2)
            worst = max(worst, vortex.trace_identity_check(q, h, c))
        assert worst < 1e-8

    def test_perturbed_tau_prime_scales_linearly(self):
        rng = np.random.default_rng(13)
        g = geo.TorusGrid(16)
        q = random_admissible_quadruplet(g, rng)
        h = random_metric_pair(q, rng)
        c = vortex.constants_from_tau(Fraction(1, 3), q.r1, q.r2, q.d1, q.d2)
        eps = 1e-3
        c_bad = vortex.VortexConstants(
            c.tau, float(c.tau_prime) + eps, c.sigma, c.r1, c.r2, c.d1, c.d2
        )
        val = vortex.trace_identity_check(q, h, c_bad)
        assert val == pytest.approx(2 * np.pi * q.r2 * eps, rel=1e-6)


def assert_psi_entry_solution(h, tol):
    # closed form for the psi entry at sigma = 2 (tau = 1): h1/h2 = 2 pi, and
    # the summed-trace gauge fixes h1 h2 = 1
    assert np.abs(h.h1 - np.sqrt(2 * np.pi)).max() < tol
    assert np.abs(h.h2 - 1 / np.sqrt(2 * np.pi)).max() < tol


class TestSolver:
    def test_decoupled_case_no_motion(self):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[0]]).validate()
        c = vortex.constants_from_tau(0, 1, 1, 0, 0)
        h, rep = vortex.solve(q, c)
        assert rep.converged and rep.iterations == 0
        assert np.abs(h.h1 - 1.0).max() == 0.0

    def test_stable_entry_converges_small_grid(self):
        g = geo.TorusGrid(16)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        h, rep = vortex.solve(q, c, vortex.SolveOptions(target_residual=1e-9))
        assert rep.converged
        assert rep.sup() <= 1e-9
        assert_psi_entry_solution(h, 1e-8)

    def test_descent_monotone_first_100_steps(self):
        g = geo.TorusGrid(16)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        _, rep = vortex.solve(q, c, vortex.SolveOptions(max_iter=100))
        sups = [max(s1, s2) for _, s1, s2 in rep.history]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(sups, sups[1:]))

    def test_scalar_theta_matches_theta_zero(self):
        # rank-1 brackets vanish, so constant scalar theta does not change the flow
        g = geo.TorusGrid(16)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        q0 = psi_entry(g)
        qt = higgs.QuadrupletSpec(g, (0,), (0,), [[0.8]], [[0.8]], [[0]], [[1.0]]).validate()
        opts = vortex.SolveOptions(target_residual=1e-9, max_iter=20000)
        h0, rep0 = vortex.solve(q0, c, opts)
        ht, rept = vortex.solve(qt, c, opts)
        assert rept.converged
        assert np.abs(h0.h1 - ht.h1).max() < 1e-12

    def test_rank2_direct_sum_converges(self):
        # two copies of the stable entry: polystable, so a solution exists and
        # the matrix-valued flow must find the block solution
        g = geo.TorusGrid(16)
        q = higgs.QuadrupletSpec(
            g, (0, 0), (0, 0),
            np.zeros((2, 2)), np.zeros((2, 2)),
            np.zeros((2, 2)), np.eye(2),
        ).validate()
        c = vortex.constants_from_sigma(2, 2, 2, 0, 0)
        assert c.tau == Fraction(1)
        h, rep = vortex.solve(q, c, vortex.SolveOptions(target_residual=1e-8))
        assert rep.converged
        # per-block the solution matches the rank-1 one: h1 h2^-1 = 2 pi Id
        ratio = h.h1 @ np.linalg.inv(h.h2)
        assert np.abs(ratio - 2 * np.pi * np.eye(2)).max() < 1e-6

    def test_unstable_entry_does_not_converge(self):
        g = geo.TorusGrid(16)
        q = phi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        _, rep = vortex.solve(q, c, vortex.SolveOptions(max_iter=20000))
        assert not rep.converged
        assert rep.message.startswith("diverged"), rep.message

    def test_iteration_count_independent_of_n(self):
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        counts = {}
        for n in (8, 16, 32, 64, 128):
            h, rep = vortex.solve(psi_entry(geo.TorusGrid(n)), c)
            assert rep.converged
            counts[n] = rep.iterations
            if n == 64:
                assert_psi_entry_solution(h, 1e-8)
        assert len(set(counts.values())) == 1, counts
        assert counts[64] == 37

    @pytest.mark.parametrize("n", [16, 64])
    def test_unique_solution_from_random_starts(self, n):
        # uniqueness up to the common scale: starts with non-constant logs reach
        # the constant-start metrics.  These are the runs where the
        # preconditioner's non-zero Fourier modes act; the seed is the same at
        # both n, so both grids sample the same start functions.  Amplitudes 2
        # and 3 overshoot into a false "diverged" without the step-size cap.
        rng = np.random.default_rng(0)
        g = geo.TorusGrid(n)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        h_ref, _ = vortex.solve(q, c)
        for amplitude in (0.5, 1.0, 2.0, 3.0):
            start = tuple(random_hermitian_log(g, (0,), rng, amplitude) for _ in range(2))
            h, rep = vortex.solve(q, c, initial_log_metric=start)
            assert rep.converged, rep.message
            assert rep.iterations <= 100
            log1 = np.log(h.h1.real / h_ref.h1.real)
            log2 = np.log(h.h2.real / h_ref.h2.real)
            scale = np.mean(log1 + log2) / 2
            assert np.abs(log1 - scale).max() < 1e-8
            assert np.abs(log2 - scale).max() < 1e-8

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: far starts end in step collapse")
    def test_far_start_collapse(self):
        # ROADMAP item 2: from amplitude-5 starts on the stable entry the
        # explicit coupling term drives the step to MIN_STEP ("step collapse")
        # with the sup residual near 1e3-1e4; a solver that converges from any
        # start on stable input turns this xfail into a pass
        g = geo.TorusGrid(16)
        q = psi_entry(g)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        messages = []
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            start = tuple(random_hermitian_log(g, (0,), rng, 5.0) for _ in range(2))
            _, rep = vortex.solve(q, c, vortex.SolveOptions(max_iter=5000), initial_log_metric=start)
            messages.append(rep.message)
        assert messages == ["converged"] * 3, messages

    def test_initial_log_metric_shape_checked(self):
        g = geo.TorusGrid(8)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        bad = (np.zeros((8, 8, 2, 2)), np.zeros((8, 8, 1, 1)))
        with pytest.raises(ShapeError):
            vortex.solve(psi_entry(g), c, initial_log_metric=bad)


def rank2_psi_quadruplet(grid) -> higgs.QuadrupletSpec:
    """Rank (2, 1), trivial bundles, psi = [[1], [0]] and no other field."""
    return higgs.QuadrupletSpec(
        grid, (0, 0), (0,),
        np.zeros((2, 2)), [[0]],
        np.zeros((1, 2)), [[1.0], [0.0]],
    ).validate()


def constant_psi_entry(grid, value: float) -> higgs.QuadrupletSpec:
    """The stable psi entry with psi = value; its solution has s1 - s2 = ln(2 pi) - 2 ln(value)."""
    return higgs.QuadrupletSpec(grid, (0,), (0,), [[0]], [[0]], [[0]], [[value]]).validate()


class TestRunaway:
    """The run stops "diverged" at the first accepted step that widens the
    log-metric spectrum past ln(1/eps) = 36.04 without improving the best
    sup residual."""

    def test_rank2_unstable_stops_at_first_crossing(self):
        # psi = [[1], [0]] leaves the second summand of E1 decoupled: its
        # residual is the constant 2 pi i tau = 4 pi i / 3, so the best sup is
        # 4 pi / 3 from step 2 on while s runs away along that summand, and the
        # psi block settles at sup R2 = 2 pi / 3
        q = rank2_psi_quadruplet(geo.TorusGrid(16))
        c = vortex.constants_from_sigma(2, 2, 1, 0, 0)
        _, rep = vortex.solve(q, c, vortex.SolveOptions(max_iter=20000))
        assert rep.message.startswith("diverged"), rep.message
        assert rep.iterations == 44
        assert rep.sup() == pytest.approx(4 * np.pi / 3, rel=1e-9)
        _, last1, last2 = rep.history[-1]
        assert abs(last1 - 4 * np.pi / 3) < 1e-9
        assert abs(last2 - 2 * np.pi / 3) < 1e-9

    @pytest.mark.parametrize("n", [8, 32])
    def test_phi_entry_stops_at_first_crossing(self, n):
        # the slope-unstable phi entry: both sups fall to 2 pi while h1/h2 runs
        # away; the step count does not depend on n
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        _, rep = vortex.solve(phi_entry(geo.TorusGrid(n)), c, vortex.SolveOptions(max_iter=20000))
        assert rep.message.startswith("diverged"), rep.message
        assert rep.iterations == 19
        # the best iterate is the last one that improved the sup by MIN_REL_IMPROVEMENT
        assert rep.final_sup_r1 == pytest.approx(2 * np.pi, rel=1e-9)
        assert rep.final_sup_r2 == pytest.approx(2 * np.pi, rel=1e-9)
        assert all(abs(v - 2 * np.pi) < 1e-9 for v in rep.history[-1][1:])

    @pytest.mark.parametrize("offset", [39.0, -39.0])
    def test_wide_constant_start_still_converges(self, offset):
        # negative control: a start whose spread |s1 - s2| = 39 is already past
        # the limit but shrinks on the first step must not stop as diverged
        g = geo.TorusGrid(16)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        s1 = np.full((g.n, g.n, 1, 1), offset / 2, dtype=complex)
        _, rep = vortex.solve(psi_entry(g), c, initial_log_metric=(s1, -s1))
        assert abs(offset) > vortex.PRECISION_LIMIT
        assert rep.converged, rep.message

    @pytest.mark.parametrize("value", [3e-8, 1e-8, 1e-12])
    def test_small_psi_solution_past_the_limit_converges(self, value):
        # stable input whose solution lies past the limit (s1 - s2 = 36.5,
        # 38.7, 57.1): the spread widens by 2 per step while the sup residual
        # still falls, so the run must go on to convergence
        g = geo.TorusGrid(8)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        h, rep = vortex.solve(constant_psi_entry(g, value), c)
        assert rep.converged, rep.message
        spread = np.log(h.h1.real) - np.log(h.h2.real)
        assert np.abs(spread - (np.log(2 * np.pi) - 2 * np.log(value))).max() < 1e-6
        assert spread.min() > vortex.PRECISION_LIMIT

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: coupling below 1e-9 of the residual at the limit")
    def test_tiny_psi_solution_past_the_limit_converges(self):
        # ROADMAP item 2: with psi = 1e-13 the coupling term |psi|^2 e^(s1 - s2)
        # is below 1e-9 of the residual when the spread crosses the limit, so the
        # run is step for step the runaway of psi = 0 and stops "diverged" at
        # step 19; the solution s1 - s2 = 61.7 is never reached
        g = geo.TorusGrid(8)
        c = vortex.constants_from_sigma(2, 1, 1, 0, 0)
        _, rep = vortex.solve(constant_psi_entry(g, 1e-13), c)
        assert rep.converged, rep.message


class TestExpWithInverse:
    def test_rank2_exp_inverse_and_spectrum(self):
        # against a hand value: s = a Id + b sigma_x has eigenvalues a -+ b and
        # exp s = e^a (cosh b Id + sinh b sigma_x)
        g = geo.TorusGrid(8)
        a, b = 0.7, -1.3
        s = geo.constant_field(g, [[a, b], [b, a]])
        h, hinv, w = vortex._exp_with_inverse(s)
        expected = np.exp(a) * np.array([[np.cosh(b), np.sinh(b)], [np.sinh(b), np.cosh(b)]])
        assert np.abs(h - expected).max() < 1e-13
        assert np.array_equal(h, higgs.expm_hermitian(s))
        assert np.abs(h @ hinv - np.eye(2)).max() < 1e-13
        assert np.abs(w - [a - abs(b), a + abs(b)]).max() < 1e-14

    def test_rank1_is_exp_without_inverse(self):
        # the rank-1 path takes no decomposition: bitwise exp(s), and the
        # residual forms 1 / exp(s) itself
        rng = np.random.default_rng(6)
        s = random_hermitian_log(geo.TorusGrid(8), (0,), rng, 3.0)
        h, hinv, w = vortex._exp_with_inverse(s)
        assert np.array_equal(h, np.exp(s))
        assert hinv is None
        assert np.array_equal(w, s[..., 0].real)

    def test_residual_with_carried_inverses(self):
        rng = np.random.default_rng(11)
        g = geo.TorusGrid(16)
        q = rank2_psi_quadruplet(g)
        c = vortex.constants_from_sigma(2, 2, 1, 0, 0)
        (h1, inv1, _), (h2, inv2, _) = (
            vortex._exp_with_inverse(random_hermitian_log(g, degrees, rng, 2.0)) for degrees in ((0, 0), (0,))
        )
        pair = higgs.MetricPair(h1, h2)
        carried = vortex.residual(q, pair, c, checked=False, inverses=(inv1, inv2))
        for x, y in zip(carried, vortex.residual(q, pair, c)):
            assert np.abs(x - y).max() < 1e-10 * geo.sup_norm(y)
