"""Spectral calculus and quadrature checks against independent oracles."""

import ast
from pathlib import Path

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs
from dcvortex.errors import ShapeError

from conftest import fs_density, fs_integrate, mode_field


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def stencil_derivative(values, n, axis):
    """4th-order periodic central difference, independent of the FFT path."""
    h = 1.0 / n
    r = lambda k: np.roll(values, -k, axis=axis)
    return (r(-2) - 8 * r(-1) + 8 * r(1) - r(2)) / (12 * h)


# grid sizes on both sides of DENSE_MAX_N: GEMM derivatives up to 32, FFT at 64
BOTH_BRANCHES = [8, 16, 32, 64]


def band_limited_field(n, r, rng):
    """Random (n, n, r, r) field of all modes |p|, |q| < n/2, so no Nyquist content."""
    hat = complex_normal(rng, (n, n, r, r))
    hat[n // 2] = 0
    hat[:, n // 2] = 0
    return np.fft.ifft2(hat, axes=(0, 1))


def fft_dz_dzbar(f):
    """(d/dz, d/dzbar) of f through the FFT axis derivatives, with no constant-field shortcut."""
    n = f.shape[0]
    dx, dy = (geo._axis_derivative(f, n, axis) for axis in (0, 1))
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


CONSTANT = [[2.0 + 1j, 0.5], [0.0, -3.0]]


class TestDbar:
    def test_constant_is_killed(self):
        # 34 and 100 have odd factors, where the transforms leave ~1e-14 of round-off
        for n in BOTH_BRANCHES + [34, 100, 128]:
            f = geo.constant_field(geo.TorusGrid(n), CONSTANT)
            assert geo.sup_norm(geo.dbar(f)) == 0.0, n
            assert geo.sup_norm(geo.del_(f)) == 0.0, n

    @pytest.mark.parametrize("n", [64, 128])
    def test_constant_shortcut_equals_transforms(self, n):
        # at powers of two the transforms already give exact zeros (some of them -0.0)
        f = geo.constant_field(geo.TorusGrid(n), CONSTANT)
        want_del, want_dbar = fft_dz_dzbar(f)
        assert np.array_equal(geo.del_(f), want_del)
        assert np.array_equal(geo.dbar(f), want_dbar)

    @pytest.mark.parametrize("n", [34, 64])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_one_sample_off_constant_is_transformed(self, n, where):
        # the first sample is the reference; a change outside row 0 must be seen too
        f = geo.constant_field(geo.TorusGrid(n), CONSTANT)
        i, j = (0, 0) if where == "first" else (n - 1, n // 2)
        f[i, j, 1, 0] += 1e-3
        want_del, want_dbar = fft_dz_dzbar(f)
        assert geo.sup_norm(want_dbar) > 1e-5
        assert np.array_equal(geo.del_(f), want_del)
        assert np.array_equal(geo.dbar(f), want_dbar)

    def test_single_mode_closed_form(self):
        # dbar exp(2 pi i x) = (pi i) exp(2 pi i x) since dbar = (dx + i dy)/2
        g = geo.TorusGrid(16)
        f = mode_field(g, 1, 0)
        err = np.abs(geo.dbar(f) - np.pi * 1j * f)
        assert err.max() < 1e-12

    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, -1), (-3, 2)])
    def test_mode_symbols(self, p, q):
        for n in BOTH_BRANCHES:
            f = mode_field(geo.TorusGrid(n), p, q)
            db = geo.dbar(f)
            dl = geo.del_(f)
            assert np.abs(db - np.pi * 1j * (p + 1j * q) * f).max() < 1e-11, n
            assert np.abs(dl - np.pi * 1j * (p - 1j * q) * f).max() < 1e-11, n

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("r", [1, 2])
    def test_dense_matches_fft(self, n, r):
        # below the cut-off the GEMM path must reproduce the FFT path it replaces
        assert n <= geo.DENSE_MAX_N
        f = band_limited_field(n, r, np.random.default_rng(n + r))
        want_del, want_dbar = fft_dz_dzbar(f)
        for got, want in ((geo.dbar(f), want_dbar), (geo.del_(f), want_del)):
            assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()

    def test_cached_tables_are_read_only(self):
        # a caller writing into the shared wavenumbers would corrupt every
        # later derivative on grids of that size
        with pytest.raises(ValueError):
            geo.TorusGrid(16).wavenumbers()[1] = 0.0
        with pytest.raises(ValueError):
            geo._half_derivative_matrix(16)[0, 1] = 0.0

    def test_against_stencil(self):
        g = geo.TorusGrid(64)
        rng = np.random.default_rng(0)
        f = geo.constant_field(g, np.zeros((1, 1)))
        for p, q in [(1, 0), (0, 2), (2, 1)]:
            c = rng.standard_normal() + 1j * rng.standard_normal()
            f = f + c * mode_field(g, p, q)
        dx = stencil_derivative(f, g.n, 0)
        dy = stencil_derivative(f, g.n, 1)
        oracle = 0.5 * (dx + 1j * dy)
        # agreement limited by the stencil's own O(h^4) truncation error
        assert np.abs(geo.dbar(f) - oracle).max() < 1e-3

    def test_product_of_modes_matches_analytic(self):
        # spectral derivative of a product of two lattice modes, 1e-10 relative
        g = geo.TorusGrid(32)
        f = mode_field(g, 1, 1)
        h = mode_field(g, 2, -1)
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
        f = mode_field(g, 2, 1) + mode_field(g, -1, 1)
        exact = geo.dbar(geo.del_(f))  # dbar del f is the coefficient of an exact (1,1)-form
        # the integral of g dz^dzbar is -2i <g>
        assert np.abs(-2j * exact.mean(axis=(0, 1))).max() < 1e-13


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


def hermitian_stack(rng, spectrum_scale, count=200):
    """(count, 2, 2) Hermitian matrices U diag(w) U^dagger with w uniform in [-scale, scale]."""
    u, _ = np.linalg.qr(complex_normal(rng, (count, 2, 2)))
    w = rng.uniform(-spectrum_scale, spectrum_scale, (count, 1, 2))
    return geo.matmul(u * w, geo.adjoint_values(u))


def rank2_cases():
    rng = np.random.default_rng(7)
    diag = np.zeros((7, 2, 2), dtype=complex)
    diag[:, 0, 0] = [0.1, -2.0, 0.0, 3.0, -18.0, 18.0, np.pi]
    diag[:, 1, 1] = [1 / 3, 4.0, 0.0, 3.0, 18.0, -18.0, -np.e]
    tiny = np.zeros((4, 2, 2), dtype=complex)
    tiny[:, 0, 0], tiny[:, 1, 1] = [1.0, 1.0, -2.0, 0.0], [1.0, 2.0, -2.0, 0.0]
    tiny[:, 0, 1] = 1e-300 * np.exp(1j * np.array([0.3, 2.0, -1.0, np.pi]))
    tiny[:, 1, 0] = np.conj(tiny[:, 0, 1])
    theta = np.linspace(-np.pi, np.pi, 9)
    phases = np.zeros((9, 2, 2), dtype=complex)
    phases[:, 0, 0], phases[:, 1, 1] = 0.25, -0.75
    phases[:, 0, 1] = 0.5 * np.exp(1j * theta)
    phases[:, 1, 0] = np.conj(phases[:, 0, 1])
    return {
        "random": hermitian_stack(rng, 2.0),
        "runaway_spectra": hermitian_stack(rng, 18.0),
        "diagonal": diag,
        "identity_multiples": np.array([c * np.eye(2) for c in (0.0, 1.0, -7.5, 18.0)], dtype=complex),
        "tiny_off_diagonal": tiny,
        "phases": phases,
        "grid_field": hermitian_stack(rng, 1.0, 16 * 16).reshape(16, 16, 2, 2),
    }


RANK2_CASES = rank2_cases()


class TestEighInv:
    """geo.eigh and geo.inv against np.linalg, the closed forms at rank 1 and 2."""

    @pytest.mark.parametrize("case", sorted(RANK2_CASES))
    def test_eigh_rank2(self, case):
        s = RANK2_CASES[case]
        tol = 1e-14 * max(1.0, np.abs(s).max())
        w, v = geo.eigh(s)
        assert w.shape == s.shape[:-1] and w.dtype == np.float64
        assert np.abs(w - np.linalg.eigvalsh(s)).max() <= tol
        assert np.all(w[..., 0] <= w[..., 1])
        assert np.abs(geo.matmul(geo.adjoint_values(v), v) - np.eye(2)).max() <= 1e-14
        assert np.abs(geo.matmul(v * w[..., None, :], geo.adjoint_values(v)) - s).max() <= tol

    def test_eigh_diagonal_is_exact(self):
        # no rotation: the diagonal comes back unrounded, sorted
        s = RANK2_CASES["diagonal"]
        w, v = geo.eigh(s)
        assert np.array_equal(w, np.sort(np.diagonal(s, axis1=-2, axis2=-1).real, axis=-1))
        assert np.array_equal(np.abs(v), np.abs(np.linalg.eigh(s)[1]))

    def test_eigh_rank1_and_rank3(self):
        rng = np.random.default_rng(3)
        s1 = complex_normal(rng, (5, 5, 1, 1)).real + 0j
        w, v = geo.eigh(s1)
        assert np.array_equal(w, s1[..., 0].real) and np.array_equal(v, np.ones_like(s1))
        x = complex_normal(rng, (5, 3, 3))
        s3 = x + geo.adjoint_values(x)
        for got, want in zip(geo.eigh(s3), np.linalg.eigh(s3)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["random", "grid_field", "phases"])
    def test_inv_rank2_of_metrics(self, case):
        # metrics exp(s) for the Hermitian s above, condition numbers up to e^4
        h = higgs.expm_hermitian(RANK2_CASES[case])
        want = np.linalg.inv(h)
        assert np.abs(geo.inv(h) - want).max() <= 1e-14 * np.abs(want).max() * np.linalg.cond(h).max()

    def test_inv_general_and_real(self):
        rng = np.random.default_rng(4)
        m = complex_normal(rng, (100, 2, 2)) + 4 * np.eye(2)
        assert np.abs(geo.inv(m) - np.linalg.inv(m)).max() <= 1e-14 * np.abs(np.linalg.inv(m)).max()
        real = np.array([[[1.0, 0.0], [0.0, 0.3]], [[2.0, 1.0], [1.0, 3.0]]])
        got = geo.inv(real)
        assert got.dtype == np.float64
        assert np.abs(got - np.linalg.inv(real)).max() <= 1e-15

    def test_inv_rank1_and_rank3(self):
        rng = np.random.default_rng(5)
        m1 = complex_normal(rng, (4, 4, 1, 1))
        assert np.array_equal(geo.inv(m1), 1.0 / m1)
        m3 = complex_normal(rng, (4, 4, 3, 3)) + 5 * np.eye(3)
        assert np.array_equal(geo.inv(m3), np.linalg.inv(m3))

    def test_lapack_only_in_geometry(self):
        # one eigen/inverse path: np.linalg is reached only through geo.eigh and geo.inv
        offenders = []
        for path in sorted(Path(geo.__file__).parent.glob("*.py")):
            if path.name == "geometry.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                attribute = isinstance(node, ast.Attribute) and node.attr == "linalg"
                imported = isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "linalg" in name for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                )
                if attribute or imported:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestGrid:
    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            geo.TorusGrid(3)
        with pytest.raises(ValueError):
            geo.TorusGrid(7)

    def test_shape_validation(self):
        # a quadruplet takes one constant matrix per field, never a sampled array
        g = geo.TorusGrid(8)
        fields = [[[0]] for _ in range(4)]
        fields[3] = np.zeros((4, 8, 1, 1), dtype=complex)
        with pytest.raises(ShapeError):
            higgs.QuadrupletSpec(g, (0,), (0,), *fields)


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
