"""Configuration-space metric, quaternionic operators and the moment map.

The configuration space fixes unit Hermitian metrics and varies unitary
connections (as perturbations of the constant-curvature backgrounds),
skew-Hermitian 1-forms and the two couplings.  Skew 1-forms are stored by
their (1,0)-coefficient C; the (0,1)-coefficient is -C^dagger by
definition, so skewness is exact by representation.

Sign conventions are locked by the moment-map identity
<Dmu_I(x)[a], xi> = omega_I(X_xi(x), a) with the left gauge action and
omega_I := g(I., .): the overall sign of apply_I and the factor 2 on the
coupling part of g are the unique choices satisfying it (flipping I's
sign moves the identity to the swapped argument order), and mu_I couples
the full endomorphisms with the same phi-signs as the vortex residual.

Random data is drawn by field set: the slots of a tangent, a configuration
or a gauge direction come from one generator read, in slot order, and equal
the same sequence of random_smooth_matrix calls (see its draw-order contract).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import geometry as geo
from .errors import ConstraintError, ShapeError
from .geometry import TorusGrid, adjoint_values, matmul

TWO_PI = 2.0 * np.pi


@dataclass
class Configuration:
    """Point of M: unitary connections, skew 1-forms, and the couplings."""

    grid: TorusGrid
    block_degrees1: tuple[int, ...]
    block_degrees2: tuple[int, ...]
    a1: np.ndarray      # (1,0)-coefficient of the connection perturbation on E1
    p1: np.ndarray      # (1,0)-coefficient of Phi_1
    a2: np.ndarray
    p2: np.ndarray
    phi: np.ndarray     # r2 x r1
    psi: np.ndarray     # r1 x r2

    @property
    def r1(self) -> int:
        return self.a1.shape[-1]

    @property
    def r2(self) -> int:
        return self.a2.shape[-1]


class TangentData(NamedTuple):
    """Tangent vector (A1_dot, Phi1_dot, A2_dot, Phi2_dot, f, g_dir).

    One-form slots hold (1,0)-coefficients; skew-Hermitian by representation.
    """

    a1: np.ndarray
    p1: np.ndarray
    a2: np.ndarray
    p2: np.ndarray
    f: np.ndarray
    g: np.ndarray


@dataclass
class GaugeDirection:
    """Lie-algebra element (u, v): skew-Hermitian function fields."""

    u: np.ndarray
    v: np.ndarray

    def validate(self):
        for name, m in (("u", self.u), ("v", self.v)):
            defect = geo.sup_norm(m + adjoint_values(m))
            if defect > 1e-12 * max(1.0, geo.sup_norm(m)):
                raise ConstraintError(f"{name} is not skew-Hermitian")
        return self


# -- metric, symplectic form, quaternions -------------------------------------

def _slot_inner(ca: np.ndarray, cb: np.ndarray) -> float:
    # -int Tr(A ^ *B) = 4 int Re Tr(C_a C_b^dagger) dA for skew 1-forms
    return 4.0 * float(np.mean(np.einsum("xyij,xyij->xy", ca, np.conj(cb)).real))


def _coupling_inner(fa: np.ndarray, fb: np.ndarray) -> float:
    return float(np.mean(np.einsum("xyij,xyij->xy", fa, np.conj(fb)).real))


def metric_g(a: TangentData, b: TangentData) -> float:
    """Riemannian metric on T_x M; positive definite."""
    if a.f.shape != b.f.shape or a.a1.shape != b.a1.shape:
        raise ShapeError("tangent shapes differ")
    total = sum(_slot_inner(x, y) for x, y in
                ((a.a1, b.a1), (a.p1, b.p1), (a.a2, b.a2), (a.p2, b.p2)))
    total += 2.0 * (_coupling_inner(a.f, b.f) + _coupling_inner(a.g, b.g))
    return total


def apply_I(a: TangentData) -> TangentData:
    """First complex structure; in the (1,0)-coefficient representation
    (+i, -i, +i, -i) on the form slots and -i on both couplings."""
    return TangentData(1j * a.a1, -1j * a.p1, 1j * a.a2, -1j * a.p2, -1j * a.f, -1j * a.g)


def apply_J(a: TangentData) -> TangentData:
    """Second complex structure: (A, Phi) -> (-Phi, A), (f, g) -> (-g*, f*)."""
    return TangentData(-a.p1, a.a1, -a.p2, a.a2, -adjoint_values(a.g), adjoint_values(a.f))


def apply_K(a: TangentData) -> TangentData:
    """Third complex structure, the composite I o J."""
    return apply_I(apply_J(a))


def quaternion_defect(a: TangentData) -> float:
    """Sup over the slots of I^2 a + a, J^2 a + a and K^2 a + a.

    K = I J by definition, so K^2 = -1 holds iff I J = -J I given I^2 = J^2 = -1.
    Each slot's sum is a new array (op(op(a)) may return a's own arrays).
    """
    worst = 0.0
    for op in (apply_I, apply_J, apply_K):
        for x, y in zip(op(op(a)), a):
            worst = max(worst, np.abs(x + y).max())
    return float(worst)


def omega_I(a: TangentData, b: TangentData) -> float:
    """Symplectic form omega_I(a, b) := g(I a, b)."""
    return metric_g(apply_I(a), b)


# -- curvature and the moment map ----------------------------------------------

def _curvature_coeff(degrees: Sequence[int], c: np.ndarray) -> np.ndarray:
    """dz^dzbar coefficient of F(bg + a) with a = C dz - C^dag dzbar."""
    d = -adjoint_values(c)
    da = geo.del_(d) - geo.dbar(c)
    bg = np.pi * np.diag(np.asarray(degrees, dtype=float))
    return bg + da + (matmul(c, d) - matmul(d, c))


def _wedge_square_coeff(p: np.ndarray) -> np.ndarray:
    """dz^dzbar coefficient of Phi ^ Phi for Phi = P dz - P^dag dzbar."""
    q = -adjoint_values(p)
    return matmul(p, q) - matmul(q, p)


def moment_mu_I(x: Configuration) -> tuple[np.ndarray, np.ndarray]:
    """mu_I as the dz^dzbar coefficients of a pair of (1,1)-form endomorphism fields.

    At a vortex solution the value is (-2 pi i tau Id omega, -2 pi i tau' Id omega).
    """
    phis_phi = matmul(adjoint_values(x.phi), x.phi)
    phi_phis = matmul(x.phi, adjoint_values(x.phi))
    psi_psis = matmul(x.psi, adjoint_values(x.psi))
    psis_psi = matmul(adjoint_values(x.psi), x.psi)
    f1 = _curvature_coeff(x.block_degrees1, x.a1)
    f2 = _curvature_coeff(x.block_degrees2, x.a2)
    mu1 = f1 - _wedge_square_coeff(x.p1) + (1j * phis_phi - 1j * psi_psis) * geo.OMEGA_COEFF
    mu2 = f2 - _wedge_square_coeff(x.p2) + (-1j * phi_phis + 1j * psis_psi) * geo.OMEGA_COEFF
    return mu1, mu2


def moment_pairing(mu: tuple[np.ndarray, np.ndarray], xi: GaugeDirection) -> float:
    """<mu, xi> = int Tr(u mu_1) + int Tr(v mu_2) = -2i <tr(u mu_1) + tr(v mu_2)>; real for skew xi."""
    t1 = -2j * np.einsum("xykk->xy", matmul(xi.u, mu[0])).mean()
    t2 = -2j * np.einsum("xykk->xy", matmul(xi.v, mu[1])).mean()
    return float((t1 + t2).real)


# -- gauge action ----------------------------------------------------------------

def gauge_transform(x: Configuration, g1: np.ndarray, g2: np.ndarray) -> Configuration:
    """Finite unitary gauge action (g1, g2) . x."""
    def transform_connection(c, g):
        ginv = adjoint_values(g)  # unitary
        dzg = geo.del_(g)
        return matmul(matmul(g, c), ginv) - matmul(dzg, ginv)

    def conjugate(g_out, f, g_in):
        return matmul(matmul(g_out, f), adjoint_values(g_in))

    return replace(
        x,
        a1=transform_connection(x.a1, g1),
        p1=conjugate(g1, x.p1, g1),
        a2=transform_connection(x.a2, g2),
        p2=conjugate(g2, x.p2, g2),
        phi=conjugate(g2, x.phi, g1),
        psi=conjugate(g1, x.psi, g2),
    )


def infinitesimal_gauge(x: Configuration, xi: GaugeDirection) -> TangentData:
    """X_xi(x) = d/dt exp(t xi) . x: (-nabla u, [u, Phi_1], ..., v phi - phi u, u psi - psi v)."""
    def cov_deriv(u, c):
        du = geo.del_(u)
        return du + matmul(c, u) - matmul(u, c)

    return TangentData(
        a1=-cov_deriv(xi.u, x.a1),
        p1=matmul(xi.u, x.p1) - matmul(x.p1, xi.u),
        a2=-cov_deriv(xi.v, x.a2),
        p2=matmul(xi.v, x.p2) - matmul(x.p2, xi.v),
        f=matmul(xi.v, x.phi) - matmul(x.phi, xi.u),
        g=matmul(xi.u, x.psi) - matmul(x.psi, xi.v),
    )


def perturb(x: Configuration, a: TangentData, t: float) -> Configuration:
    return replace(
        x,
        a1=x.a1 + t * a.a1, p1=x.p1 + t * a.p1,
        a2=x.a2 + t * a.a2, p2=x.p2 + t * a.p2,
        phi=x.phi + t * a.f, psi=x.psi + t * a.g,
    )


def moment_map_property_check(
    x: Configuration, a: TangentData, xi: GaugeDirection, step: float = 1e-4
) -> float:
    """|<Dmu_I(x)[a], xi> - omega_I(X_xi(x), a)| via central differences.

    mu_I is quadratic in the fields, so the central difference is exact up
    to round-off.
    """
    xi.validate()
    plus = moment_pairing(moment_mu_I(perturb(x, a, +step)), xi)
    minus = moment_pairing(moment_mu_I(perturb(x, a, -step)), xi)
    derivative = (plus - minus) / (2.0 * step)
    return abs(derivative - omega_I(infinitesimal_gauge(x, xi), a))


# -- random data -------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fourier_table(n: int, modes: int) -> np.ndarray:
    """Read-only (2 modes + 1, n) table of e_p(x) = exp(2 pi i p x), p = -modes..modes."""
    table = np.exp(TWO_PI * 1j * np.outer(np.arange(-modes, modes + 1), np.arange(n) / n))
    table.flags.writeable = False
    return table


def _random_fields(grid: TorusGrid, shapes, rng, amplitude: float, modes: int = 2) -> Iterator[np.ndarray]:
    """random_smooth_matrix for each (ro, ri) in shapes, in order: one generator read, two GEMMs a field."""
    m, n = 2 * modes + 1, grid.n
    draws = rng.standard_normal(sum(m * m * 2 * ro * ri for ro, ri in shapes))
    at = _fourier_table(n, modes).T
    start = 0
    for ro, ri in shapes:
        block = draws[start:start + m * m * 2 * ro * ri].reshape(m, m, 2, ro * ri)
        start += block.size
        coeff = np.ascontiguousarray(block.transpose(1, 0, 3, 2)).view(np.complex128)  # (q, p, entry)
        over_q = np.dot(at, coeff.reshape(m, -1)).reshape(n, m, ro, ri)  # sum over q
        out = np.dot(at, over_q.transpose(1, 0, 2, 3).reshape(m, -1)).reshape(n, n, ro, ri)
        norm = np.abs(out).max()
        yield out * (amplitude / norm) if norm > 0 else out


def random_smooth_matrix(grid: TorusGrid, ro: int, ri: int, rng, amplitude: float = 0.3, modes: int = 2) -> np.ndarray:
    """Band-limited random matrix field (trigonometric polynomial entries).

    The field is sum_{|p|,|q| <= modes} c_pq exp(2 pi i (p x + q y)), rescaled
    to sup norm `amplitude`.  Draw-order contract: the coefficients come from
    one read rng.standard_normal(m * m * 2 * ro * ri), m = 2 modes + 1, indexed
    (p, q, re/im, entry) with p and q ascending from -modes: the numbers, and
    the generator's end state, of a loop over p, then q, drawing the (ro, ri)
    real part and then the imaginary part.  A field set (the slots of
    random_tangent, random_configuration or random_gauge_direction) is one read
    of its slots' blocks in slot order, so it equals these calls in sequence,
    bit for bit, and leaves the generator in the same state.
    """
    return next(_random_fields(grid, ((ro, ri),), rng, amplitude, modes))


def _skew(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - adjoint_values(m))


def random_skew_field(grid: TorusGrid, r: int, rng, amplitude: float = 0.3, modes: int = 2) -> np.ndarray:
    return _skew(random_smooth_matrix(grid, r, r, rng, amplitude, modes))


def _slot_shapes(r1: int, r2: int) -> tuple[tuple[int, int], ...]:
    return (r1, r1), (r1, r1), (r2, r2), (r2, r2), (r2, r1), (r1, r2)  # a1, p1, a2, p2, f/phi, g/psi


def random_tangent(grid: TorusGrid, r1: int, r2: int, rng, amplitude: float = 0.5) -> TangentData:
    return TangentData(*_random_fields(grid, _slot_shapes(r1, r2), rng, amplitude))


def random_configuration(grid: TorusGrid, r1: int, r2: int, rng, amplitude: float = 0.3) -> Configuration:
    return Configuration(grid, (0,) * r1, (0,) * r2, *_random_fields(grid, _slot_shapes(r1, r2), rng, amplitude))


def random_gauge_direction(grid: TorusGrid, r1: int, r2: int, rng, amplitude: float = 0.3) -> GaugeDirection:
    return GaugeDirection(*map(_skew, _random_fields(grid, ((r1, r1), (r2, r2)), rng, amplitude)))


def random_unitary_gauge(grid: TorusGrid, r: int, rng, amplitude: float = 0.2, modes: int = 1) -> np.ndarray:
    """Pointwise unitary gauge field exp(skew), taken through eigh; kept band-limited
    enough that the spectral identities hold to round-off at n >= 32."""
    w, v = geo.eigh(-1j * random_skew_field(grid, r, rng, amplitude, modes))
    return matmul(v * np.exp(1j * w)[..., None, :], adjoint_values(v))
