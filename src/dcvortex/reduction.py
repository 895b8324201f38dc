"""Invariant block data on X x P^1 and the numerical reduction equivalences.

The product bundle is F = p*E1 + p*E2 (x) q*O(2) with block metric
H = diag(h1, h2 h^(2)); the coupling psi rides the invariant (0,1)-form
alpha of O(-2), phi rides the invariant (1,0)-form beta of O(2).  All P^1
data are closed forms on one unit disk: SU(2) acts transitively on P^1,
so every invariant block has the same formula in both charts.  alpha and
beta change sign in the w chart, which cancels in B B*, P P* and every
absolute value, so the z-chart formulas stand for both.  Quadrature only
integrates and samples.

Contraction weights: Omega_sigma = (sigma/2) omega + omega_P1, so
Lambda_sigma(p*omega) = 2/sigma and Lambda_sigma(q*omega_P1) = 1.

The product checks make one array pass over one set of N sample points
(torus index, P^1 coordinate), drawn in bulk by `random_product_points`
and shared by both checks: `assemble_F` builds the (N, r, r) block arrays
of F, `product_residual_blocks` multiplies them with `geometry.matmul` and adds
the X part of the curvature from `higgs.lambda_terms`, and
`integrability_residual` weighs the (dbar_F + theta_F)^2 components at the
same points.  The Hermitian-Einstein constant is the closed form
`VortexConstants.lambda_he`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import geometry as geo
from . import higgs
from .errors import ConstraintError, DomainError
from .geometry import P1Disk, TorusGrid, matmul
from .higgs import MetricPair, QuadrupletSpec
from .vortex import VortexConstants

TWO_PI = 2.0 * np.pi


# -- line bundles O(n) on P^1 -------------------------------------------------

@dataclass(frozen=True)
class P1LineData:
    """Closed-form chart data of (O(n), h^(n)): metric and curvature."""

    n: int

    def metric(self, zeta) -> np.ndarray:
        """h^(n)(e_n, e_n) = (1 + |zeta|^2)^(-n), same formula in both charts."""
        return (1.0 + np.abs(zeta) ** 2) ** (-self.n)

    def curvature_coeff(self, zeta) -> np.ndarray:
        """dzeta^dzetabar coefficient of the Chern curvature, n (1+|zeta|^2)^-2."""
        return self.n / (1.0 + np.abs(zeta) ** 2) ** 2


def lambda_p1(coeff, zeta, weight: float = 1.0):
    """Contraction of g dzeta^dzetabar against omega_P1 (times a Lambda weight)."""
    return weight * (-TWO_PI * 1j) * coeff * (1.0 + np.abs(zeta) ** 2) ** 2


def deg_p1(n: int, disk: Optional[P1Disk] = None) -> float:
    """(i/2pi) integral of the curvature 2-form of h^(n) by unit-disk quadrature."""
    if abs(n) > 8:
        raise DomainError("deg_p1 validated only for |n| <= 8")
    if disk is None:
        disk = geo.p1_quadrature()
    total = geo.integrate_two_form(disk, P1LineData(n).curvature_coeff)
    return float((1j / TWO_PI * total).real)


def fs_contraction_constant(n: int = 2, disk: Optional[P1Disk] = None) -> complex:
    """Lambda_P1 of the curvature of h^(n); equals -2 pi i n, checked constant."""
    if disk is None:
        disk = geo.p1_quadrature()
    values = lambda_p1(P1LineData(n).curvature_coeff(disk.points), disk.points)
    mean = complex(values.mean())
    spread = float(np.max(np.abs(values - mean)))
    if spread > 1e-8:
        raise DomainError(f"contraction of F_h({n}) is not constant (spread {spread:.2e})")
    return mean


# -- invariant forms alpha, beta ----------------------------------------------

def alpha_coeff(zeta) -> np.ndarray:
    """Chart coefficient of alpha (O(-2)-valued (0,1)-form); minus this in the w chart."""
    return 1.0 / (1.0 + np.abs(zeta) ** 2) ** 2


def beta_coeff(zeta) -> np.ndarray:
    """Chart coefficient of beta (O(2)-valued (1,0)-form); minus this in the w chart."""
    return np.ones_like(np.asarray(zeta, dtype=complex))


@dataclass(frozen=True)
class InvariantForms:
    """alpha, beta with the normalization constants fixed by the wedge identities."""

    c_alpha: float
    c_beta: float
    raw_ratio: float  # sigma-independent proportionality of raw wedge to target


def calibrate_alpha_beta(sigma: float) -> InvariantForms:
    """Scale alpha, beta so that A^A* = (2i/sigma) psi psi* (x) omega_P1 etc.

    For A = psi (x) alpha the raw wedge is A^A* = -(1+|zeta|^2)^-2 psi psi*
    dzeta^dzetabar in either chart (the chart signs square away), and
    B*^B = -(1+|zeta|^2)^-2 phi* phi dzeta^dzetabar for B = phi (x) beta.
    With omega_P1 = (i/2pi)(1+|zeta|^2)^-2 dzeta^dzetabar, the target
    (2i/sigma) omega_P1 has coefficient -(1/(pi sigma))(1+|zeta|^2)^-2,
    so c_alpha^2 = c_beta^2 = 1/(pi sigma), raw/target = pi sigma, and
    raw_ratio = (raw/target)/sigma = pi for every sigma.
    """
    if sigma <= 0:
        raise DomainError("calibration needs sigma > 0")
    c = float(1.0 / np.sqrt(np.pi * sigma))
    return InvariantForms(c, c, np.pi)


def _wirtinger(f, zeta, bar: bool = False, delta: float = 1e-3) -> np.ndarray:
    """4th-order central d/dzeta (d/dzetabar if bar) of a chart function of (zeta, zetabar)."""
    def d_along(direction):
        vals = [f(zeta + k * direction * delta) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * delta)

    return 0.5 * (d_along(1.0) + (1j if bar else -1j) * d_along(1.0j))


def _log_h_m2(zeta):
    return np.log(P1LineData(-2).metric(zeta))


def covariant_alpha_defect(zeta) -> np.ndarray:
    """Chern-covariant del of alpha (vanishes: alpha is invariant)."""
    return _wirtinger(alpha_coeff, zeta) + alpha_coeff(zeta) * _wirtinger(_log_h_m2, zeta)


def covariant_beta_star_defect(zeta) -> np.ndarray:
    """Chern-covariant del of the adjoint-side O(-2)-valued scalar of B*."""
    def coeff(z):
        return np.conj(beta_coeff(z)) * P1LineData(2).metric(z)

    return _wirtinger(coeff, zeta) + coeff(zeta) * _wirtinger(_log_h_m2, zeta)


def dbar_beta_defect(zeta) -> np.ndarray:
    """dbar of beta's chart coefficient (holomorphic frame, so plain dbar)."""
    return _wirtinger(beta_coeff, zeta, bar=True)


def dbar_alpha_star_defect(zeta) -> np.ndarray:
    """dbar of the O(2)-valued scalar of A* (constant 1, plain dbar)."""
    def coeff(z):
        return np.conj(alpha_coeff(z)) * (1.0 + np.abs(z) ** 2) ** 2

    return _wirtinger(coeff, zeta, bar=True)


# -- product sample points and block arrays ----------------------------------------

class ProductSamples(NamedTuple):
    """N product sample points: a torus grid index and a P^1 chart coordinate."""

    ij: np.ndarray      # (N, 2) torus grid indices
    zeta: np.ndarray    # (N,) P^1 chart coordinate in the closed unit disk


def random_product_points(grid: TorusGrid, n_points: int, rng) -> ProductSamples:
    """Uniform torus indices and zeta uniform on the unit disk."""
    if n_points < 1:
        raise DomainError("product checks need at least one sample point")
    ij = rng.integers(grid.n, size=(n_points, 2))
    zeta = np.sqrt(rng.random(n_points)) * np.exp(2j * np.pi * rng.random(n_points))
    return ProductSamples(ij, zeta)


def _calibrated_forms(forms: InvariantForms, zeta: np.ndarray):
    """c_alpha alpha and c_beta beta at every sample, (N,)."""
    return forms.c_alpha * alpha_coeff(zeta), forms.c_beta * beta_coeff(zeta)


def _block_matrix(n: int, r1: int, r2: int, blocks: dict) -> np.ndarray:
    """(n, r1+r2, r1+r2) matrices from blocks keyed (row, col) in {0, 1}^2, zero elsewhere."""
    cut = (slice(None, r1), slice(r1, None))
    out = np.zeros((n, r1 + r2, r1 + r2), dtype=complex)
    for (row, col), value in blocks.items():
        out[:, cut[row], cut[col]] = value
    return out


def _pointwise_sup(values: np.ndarray) -> np.ndarray:
    """Sup norm of each matrix in a (..., r, s) stack."""
    return np.abs(values).max(axis=(-2, -1))


# -- product assembly ----------------------------------------------------------

def lambda_weights(sigma: float) -> tuple[float, float]:
    """(Lambda_sigma(p*omega), Lambda_sigma(q*omega_P1)) for Omega_sigma = (sigma/2) omega + omega_P1."""
    return 2.0 / sigma, 1.0


@dataclass
class AssembledProduct:
    """Block data of F at N product sample points, as (N, r, r) arrays, r = r1 + r2."""

    q: QuadrupletSpec
    h: MetricPair
    sigma: float
    forms: InvariantForms
    ij: np.ndarray          # (N, 2) torus grid indices
    points: np.ndarray      # (N,) P^1 chart coordinates zeta
    dbar_off: np.ndarray    # dzetabar coefficient: psi (x) c_alpha alpha in block (1,2)
    theta_off: np.ndarray   # dzeta coefficient: phi (x) c_beta beta in block (2,1)
    metric: np.ndarray      # H = diag(h1, h2 h^(2)(zeta))


def assemble_F(q: QuadrupletSpec, h: MetricPair, sigma: float, samples: ProductSamples) -> AssembledProduct:
    """Evaluate the block bundle data of F at the product sample points."""
    if sigma <= 0:
        raise DomainError("assembly needs sigma > 0")
    forms = calibrate_alpha_beta(sigma)
    ij, zeta = samples
    i, j = ij.T
    a, b = (x[:, None, None] for x in _calibrated_forms(forms, zeta))
    line2 = P1LineData(2).metric(zeta)[:, None, None]
    n, r1, r2 = len(zeta), q.r1, q.r2
    dbar_off = _block_matrix(n, r1, r2, {(0, 1): q.psi[i, j] * a})
    theta_off = _block_matrix(n, r1, r2, {(1, 0): q.phi[i, j] * b})
    metric = _block_matrix(n, r1, r2, {(0, 0): h.h1[i, j], (1, 1): h.h2[i, j] * line2})
    return AssembledProduct(q, h, float(sigma), forms, ij, zeta, dbar_off, theta_off, metric)


@dataclass
class HEProductReport:
    sup_diagonal: float
    sup_offdiagonal: float
    lambda_used: complex
    rescale_constant: float       # product residual = this times the vortex residual
    n_points: int


def product_residual_blocks(assembled: AssembledProduct, lam: complex) -> np.ndarray:
    """Lambda_sigma(F_H + [theta_F, theta_F*]) - lam Id at every sample point, (N, r, r).

    The dzeta^dzetabar part is read off the assembled blocks B = dbar_off and
    P = theta_off, with X* = H^-1 X^dagger H: B B* - B* B + P P* - P* P plus
    the curvature of h^(2) on the second block, contracted by lambda_p1.  The
    X part is Lambda(F_{h_i} + [theta_i, theta_i^dagger]) from
    `higgs.lambda_terms` at the sampled torus points, weighted 2/sigma.
    """
    q, r1 = assembled.q, assembled.q.r1
    metric = assembled.metric
    metric_inv = geo.inv(metric)

    def star(x):
        return matmul(matmul(metric_inv, geo.adjoint_values(x)), metric)

    b, p = assembled.dbar_off, assembled.theta_off
    b_star, p_star = star(b), star(p)
    p1_part = matmul(b, b_star) - matmul(b_star, b) + matmul(p, p_star) - matmul(p_star, p)
    zeta = assembled.points[:, None, None]
    p1_part[:, r1:, r1:] += P1LineData(2).curvature_coeff(zeta) * np.eye(q.r2)
    wx, wp = lambda_weights(assembled.sigma)
    out = lambda_p1(p1_part, zeta, wp)
    h1, h2 = assembled.h.h1, assembled.h.h2
    lam1, lam2 = higgs.lambda_terms(q, h1, h2, geo.inv(h1), geo.inv(h2))
    i, j = assembled.ij.T
    out[:, :r1, :r1] += wx * lam1[i, j]
    out[:, r1:, r1:] += wx * lam2[i, j]
    return out - lam * np.eye(q.r1 + q.r2)


def he_residual_product(assembled: AssembledProduct, c: VortexConstants) -> HEProductReport:
    """Sup over sample points of |Lambda_sigma(F + [theta_F, theta_F*]) - lambda Id|.

    lambda is the closed form `c.lambda_he`.  The residual is that of
    `product_residual_blocks`, whose off-diagonal blocks vanish.  The
    off-diagonal Lambda_sigma content is reported separately: every
    off-diagonal term is a mixed X/P^1 form, up to the covariant-derivative
    defects of alpha and beta evaluated here.
    """
    wx, wp = lambda_weights(assembled.sigma)
    lam = c.lambda_he
    sup_diag = geo.sup_norm(product_residual_blocks(assembled, lam))

    i, j = assembled.ij.T
    forms, zeta = assembled.forms, assembled.points
    psi_scale = forms.c_alpha * _pointwise_sup(assembled.q.psi[i, j])
    phi_scale = forms.c_beta * _pointwise_sup(assembled.q.phi[i, j])
    sup_off = 0.0
    for defect, scale in (
        (covariant_alpha_defect, psi_scale),
        (dbar_alpha_star_defect, psi_scale),
        (dbar_beta_defect, phi_scale),
        (covariant_beta_star_defect, phi_scale),
    ):
        d = np.abs(defect(zeta)) * scale
        sup_off = max(sup_off, geo.sup_norm(lambda_p1(d, zeta, wp)))
    return HEProductReport(sup_diag, sup_off, lam, wx, len(zeta))


@dataclass
class IntegrabilityReport:
    total: float
    psi_block: float
    phi_block: float
    phi_psi: float
    psi_phi: float


def integrability_residual(q: QuadrupletSpec, sigma: float, samples: ProductSamples) -> IntegrabilityReport:
    """Pointwise (dbar_F + theta_F)^2 components at the product sample points.

    Zero iff the defining conditions of the quadruplet hold.  The fields are
    constant, so their dbar parts vanish identically and what is left are
    the twists and the compositions; the phi psi / psi phi products ride
    alpha^beta and beta^alpha, which are nondegenerate, so breaking
    phi o psi = 0 shows up at full strength.
    """
    forms = calibrate_alpha_beta(sigma)
    psi, phi = q.psi, q.phi
    theta1, theta2 = q.theta1, q.theta2

    i, j = samples.ij.T
    a, b = np.abs(_calibrated_forms(forms, samples.zeta))

    def sup_at(weight, values):
        return geo.sup_norm(weight * _pointwise_sup(values[i, j]))

    sup_psi = sup_at(a, matmul(theta1, psi) - matmul(psi, theta2))
    sup_phi = sup_at(b, matmul(theta2, phi) - matmul(phi, theta1))
    sup_phipsi = sup_at(a * b, matmul(phi, psi))  # |alpha ^ beta| coefficient magnitude
    sup_psiphi = sup_at(a * b, matmul(psi, phi))
    total = max(sup_psi, sup_phi, sup_phipsi, sup_psiphi)
    return IntegrabilityReport(total, sup_psi, sup_phi, sup_phipsi, sup_psiphi)


# -- invariant connection round trip --------------------------------------------

@dataclass
class InvariantConnectionData:
    """Six components of an SU(2)-invariant connection over fixed unit metrics.

    One-form slots carry both chart coefficients (C for dz, D for dzbar)
    and must be skew-Hermitian: D = -C^dagger pointwise.
    """

    a1: tuple[np.ndarray, np.ndarray]
    psi1: tuple[np.ndarray, np.ndarray]
    a2: tuple[np.ndarray, np.ndarray]
    psi2: tuple[np.ndarray, np.ndarray]
    phi: np.ndarray
    psi: np.ndarray

    def validate(self):
        for name, (cc, dd) in (("a1", self.a1), ("psi1", self.psi1), ("a2", self.a2), ("psi2", self.psi2)):
            defect = geo.sup_norm(dd + geo.adjoint_values(cc))
            if defect > 1e-12 * max(1.0, geo.sup_norm(cc)):
                raise ConstraintError(f"{name} is not skew-Hermitian (defect {defect:.2e})")
        return self


def _pack_connection(data: InvariantConnectionData, samples: ProductSamples, a, b):
    """Block form of the invariant connection at product sample points.

    Returns the unitary part and the skew (Higgs) part, each a dict of
    (N, r, r) coefficients of dz, dzbar, dzeta and dzetabar: the X
    components on the diagonal, psi (x) alpha and phi (x) beta off it, each
    with its skew partner for the unit metrics on E1 and E2.  a and b are
    the calibrated alpha and beta coefficients at the samples, (N, 1, 1).
    """
    i, j = samples.ij.T
    n = len(samples.zeta)
    r1, r2 = data.a1[0].shape[-1], data.a2[0].shape[-1]
    line2 = P1LineData(2).metric(samples.zeta)[:, None, None]
    adj = geo.adjoint_values
    psi, phi = data.psi[i, j], data.phi[i, j]

    def diagonal(first, second, k):
        return _block_matrix(n, r1, r2, {(0, 0): first[k][i, j], (1, 1): second[k][i, j]})

    unitary = {
        "dz": diagonal(data.a1, data.a2, 0),
        "dzbar": diagonal(data.a1, data.a2, 1),
        "dzetabar": _block_matrix(n, r1, r2, {(0, 1): psi * a}),
        "dzeta": _block_matrix(n, r1, r2, {(1, 0): -adj(psi) * np.conj(a) / line2}),
    }
    skew = {
        "dz": diagonal(data.psi1, data.psi2, 0),
        "dzbar": diagonal(data.psi1, data.psi2, 1),
        "dzeta": _block_matrix(n, r1, r2, {(1, 0): phi * b}),
        "dzetabar": _block_matrix(n, r1, r2, {(0, 1): -adj(phi) * np.conj(b) * line2}),
    }
    return unitary, skew


# the round trip is exact, so one sigma and a few sample points decide it
IOTA_SIGMA = 2.0
IOTA_POINTS = 8


def iota_roundtrip(data: InvariantConnectionData, rng=None) -> bool:
    """Assemble the invariant-connection block form, decompose, compare exactly.

    Every component must come back, and the packed form must be
    skew-Hermitian for the block metric H = diag(1, h^(2)): each dzbar
    (dzeta) coefficient is minus the H-adjoint of the dz (dzetabar) one.
    The torus grid is the one the components are sampled on.
    """
    data.validate()
    rng = rng or np.random.default_rng(0)
    forms = calibrate_alpha_beta(IOTA_SIGMA)
    samples = random_product_points(TorusGrid(data.a1[0].shape[0]), IOTA_POINTS, rng)
    a, b = (x[:, None, None] for x in _calibrated_forms(forms, samples.zeta))
    unitary, skew = _pack_connection(data, samples, a, b)

    i, j = samples.ij.T
    r1, r2 = data.a1[0].shape[-1], data.a2[0].shape[-1]
    e1, e2 = slice(None, r1), slice(r1, None)
    pairs = [
        (form[key][:, e, e], comp[k][i, j])
        for form, first, second in ((unitary, data.a1, data.a2), (skew, data.psi1, data.psi2))
        for k, key in enumerate(("dz", "dzbar"))
        for e, comp in ((e1, first), (e2, second))
    ]
    pairs += [(unitary["dzetabar"][:, e1, e2] / a, data.psi[i, j]), (skew["dzeta"][:, e2, e1] / b, data.phi[i, j])]

    line2 = P1LineData(2).metric(samples.zeta)[:, None, None]
    metric = _block_matrix(IOTA_POINTS, r1, r2, {(0, 0): np.eye(r1), (1, 1): line2 * np.eye(r2)})
    metric_inv = geo.inv(metric)
    for form in (unitary, skew):
        for first, second in (("dz", "dzbar"), ("dzetabar", "dzeta")):
            pairs.append((form[second], -matmul(matmul(metric_inv, geo.adjoint_values(form[first])), metric)))
    return all(np.allclose(got, want, rtol=1e-12, atol=1e-12) for got, want in pairs)
