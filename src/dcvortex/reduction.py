"""Invariant block data on X x P^1 and the numerical reduction equivalences.

The product bundle is F = p*E1 + p*E2 (x) q*O(2) with metric
p*h1 + p*h2 (x) q*h2; the coupling psi rides the invariant (0,1)-form
alpha of O(-2), phi rides the invariant (1,0)-form beta of O(2).  All P^1
data are closed-form in the two unit-disk charts; quadrature only
integrates and samples.

Contraction weights: Omega_sigma = (sigma/2) omega + omega_P1, so
Lambda_sigma(p*omega) = 2/sigma and Lambda_sigma(q*omega_P1) = 1.  An
alternative weight pair (2/sigma, 1/sigma), corresponding to an extra
factor sigma on the P^1 form, is kept available as weights="alt"; it
demonstrably fails the Hermitian-Einstein equivalence, which is how the
default was selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import geometry as geo
from . import higgs
from .errors import ConstraintError, DomainError
from .geometry import P1Chart, TorusGrid
from .higgs import MetricPair, QuadrupletSpec
from .stability import QuadInvariants, mu_sigma
from .vortex import VortexConstants

TWO_PI = 2.0 * np.pi


# -- line bundles O(n) on P^1 -------------------------------------------------

@dataclass(frozen=True)
class P1LineData:
    """Closed-form chart data of (O(n), h^(n)): metric, curvature, transition."""

    n: int

    def metric(self, zeta) -> np.ndarray:
        """h^(n)(e_n, e_n) = (1 + |zeta|^2)^(-n), same formula in both charts."""
        return (1.0 + np.abs(zeta) ** 2) ** (-self.n)

    def curvature_coeff(self, zeta) -> np.ndarray:
        """dzeta^dzetabar coefficient of the Chern curvature, n (1+|zeta|^2)^-2."""
        return self.n / (1.0 + np.abs(zeta) ** 2) ** 2

    def transition(self, z) -> np.ndarray:
        """Frame transition e_{n,w} = z^n e_{n,z}."""
        return np.asarray(z, dtype=complex) ** self.n

    def transition_defect(self, z_samples) -> float:
        """Sup of |h_w(1/z) - |z^n|^-2 ... | on overlap samples (should vanish)."""
        z = np.asarray(z_samples, dtype=complex)
        w = 1.0 / z
        lhs = self.metric(w)
        rhs = np.abs(self.transition(z)) ** 2 * self.metric(z)
        return float(np.max(np.abs(lhs - rhs)))


def lambda_p1(coeff, zeta, weight: float = 1.0):
    """Contraction of g dzeta^dzetabar against omega_P1 (times a Lambda weight)."""
    return weight * (-TWO_PI * 1j) * coeff * (1.0 + np.abs(zeta) ** 2) ** 2


def deg_p1(n: int, charts: Optional[tuple[P1Chart, P1Chart]] = None) -> float:
    """(i/2pi) integral of the curvature 2-form of h^(n) by two-chart quadrature."""
    if abs(n) > 8:
        raise DomainError("deg_p1 validated only for |n| <= 8")
    if charts is None:
        charts = geo.p1_quadrature()
    line = P1LineData(n)
    total = geo.integrate_two_form(charts, line.curvature_coeff, line.curvature_coeff)
    return float((1j / TWO_PI * total).real)


def fs_contraction_constant(
    n: int = 2, charts: Optional[tuple[P1Chart, P1Chart]] = None, constancy_tol: float = 1e-8
) -> complex:
    """Lambda_P1 of the curvature of h^(n); equals -2 pi i n, checked constant."""
    if charts is None:
        charts = geo.p1_quadrature()
    line = P1LineData(n)
    values = np.concatenate(
        [lambda_p1(line.curvature_coeff(c.points), c.points) for c in charts]
    )
    mean = complex(values.mean())
    spread = float(np.max(np.abs(values - mean)))
    if spread > constancy_tol:
        raise DomainError(f"contraction of F_h({n}) is not constant (spread {spread:.2e})")
    return mean


# -- invariant forms alpha, beta ----------------------------------------------

def alpha_coeff(chart_id: str, zeta) -> np.ndarray:
    """Chart coefficient of alpha (O(-2)-valued (0,1)-form)."""
    sign = 1.0 if chart_id == "z" else -1.0
    return sign / (1.0 + np.abs(zeta) ** 2) ** 2


def beta_coeff(chart_id: str, zeta) -> np.ndarray:
    """Chart coefficient of beta (O(2)-valued (1,0)-form)."""
    sign = 1.0 if chart_id == "z" else -1.0
    return sign * np.ones_like(np.asarray(zeta, dtype=complex))


def alpha_transition_defect(z_samples) -> float:
    """Pull the w-chart formula for alpha back to z-coordinates and compare."""
    z = np.asarray(z_samples, dtype=complex)
    w = 1.0 / z
    # dwbar = -zbar^-2 dzbar, e_{-2,w} = z^-2 e_{-2,z}
    pulled = alpha_coeff("w", w) * (-np.conj(z) ** -2) * z ** -2
    return float(np.max(np.abs(pulled - alpha_coeff("z", z))))


def beta_transition_defect(z_samples) -> float:
    z = np.asarray(z_samples, dtype=complex)
    w = 1.0 / z
    # dw = -z^-2 dz, e_{2,w} = z^2 e_{2,z}
    pulled = beta_coeff("w", w) * (-z ** -2) * z ** 2
    return float(np.max(np.abs(pulled - beta_coeff("z", z))))


def invariant_norm_alpha(zeta) -> np.ndarray:
    """|alpha|^2 against (h^(-2), Fubini-Study); constant 2 pi by invariance."""
    a = np.abs(alpha_coeff("z", zeta)) ** 2
    h_m2 = P1LineData(-2).metric(zeta)
    form_sq = 2.0 * np.pi * (1.0 + np.abs(zeta) ** 2) ** 2  # |dzbar|^2 w.r.t. FS
    return a * h_m2 * form_sq


def invariant_norm_beta(zeta) -> np.ndarray:
    b = np.abs(beta_coeff("z", zeta)) ** 2
    h_2 = P1LineData(2).metric(zeta)
    form_sq = 2.0 * np.pi * (1.0 + np.abs(zeta) ** 2) ** 2
    return b * h_2 * form_sq


def raw_norm_alpha(zeta) -> np.ndarray:
    """Coefficient-times-bundle-metric norm without the form factor; 1 at 0."""
    return np.abs(alpha_coeff("z", zeta)) ** 2 * P1LineData(-2).metric(zeta)


# raw wedge scalars (dzeta^dzetabar coefficients per unit endomorphism);
# uniform across charts because the chart signs square away
def _wedge_scalar(zeta):
    return 1.0 / (1.0 + np.abs(zeta) ** 2) ** 2


def raw_alpha_wedge(zeta):
    """A ^ A* = (this scalar) psi psi* dzeta^dzetabar for A = psi (x) alpha."""
    return -_wedge_scalar(zeta)


def raw_alpha_wedge_rev(zeta):
    """A* ^ A scalar (psi* psi side)."""
    return +_wedge_scalar(zeta)


def raw_beta_wedge(zeta):
    """B ^ B* scalar (phi phi* side) for B = phi (x) beta."""
    return +_wedge_scalar(zeta)


def raw_beta_wedge_rev(zeta):
    """B* ^ B scalar (phi* phi side)."""
    return -_wedge_scalar(zeta)


@dataclass(frozen=True)
class InvariantForms:
    """alpha, beta with the normalization constants fixed by the wedge identities."""

    c_alpha: float
    c_beta: float
    raw_ratio: float  # sigma-independent proportionality of raw wedge to target


def calibrate_alpha_beta(
    sigma: float, charts: Optional[tuple[P1Chart, P1Chart]] = None, tol: float = 1e-10
) -> InvariantForms:
    """Scale alpha, beta so that A^A* = (2i/sigma) psi psi* (x) omega_P1 etc.

    The scale is computed pointwise as target/raw over quadrature samples
    and must come out constant; raw/target times sigma gives the recorded
    sigma-independent raw proportionality (pi).
    """
    if sigma <= 0:
        raise DomainError("calibration needs sigma > 0")
    if charts is None:
        charts = geo.p1_quadrature()
    pts = np.concatenate([c.points for c in charts])
    # target scalar of (2i/sigma) omega_P1; omega coefficient is (i/2pi)(1+|z|^2)^-2
    target = (2j / sigma) * (0.5j / np.pi) / (1.0 + np.abs(pts) ** 2) ** 2
    ratios = target / raw_alpha_wedge(pts)
    c_alpha_sq = float(np.real(ratios.mean()))
    if np.max(np.abs(ratios - c_alpha_sq)) > tol * max(1.0, abs(c_alpha_sq)):
        raise DomainError("alpha calibration ratio is not constant")
    ratios_b = target / raw_beta_wedge_rev(pts)  # B*^B = +(2i/sigma) phi* phi omega
    c_beta_sq = float(np.real(ratios_b.mean()))
    if np.max(np.abs(ratios_b - c_beta_sq)) > tol * max(1.0, abs(c_beta_sq)):
        raise DomainError("beta calibration ratio is not constant")
    raw_ratio = 1.0 / (c_alpha_sq * sigma)
    return InvariantForms(float(np.sqrt(c_alpha_sq)), float(np.sqrt(c_beta_sq)), raw_ratio)


def _dcov_4th_order(f, zeta: complex, delta: float = 1e-3) -> complex:
    """4th-order central d/dzeta of a chart function of (zeta, zetabar)."""
    def d_along(direction):
        vals = [f(zeta + k * direction * delta) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * delta)

    du = d_along(1.0)
    dv = d_along(1.0j)
    return 0.5 * (du - 1j * dv)


def _dcov_bar_4th_order(f, zeta: complex, delta: float = 1e-3) -> complex:
    def d_along(direction):
        vals = [f(zeta + k * direction * delta) for k in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * delta)

    du = d_along(1.0)
    dv = d_along(1.0j)
    return 0.5 * (du + 1j * dv)


def covariant_alpha_defect(zeta: complex, chart_id: str = "z") -> complex:
    """Chern-covariant del of alpha in chart (vanishes: alpha is invariant)."""
    h_m2 = P1LineData(-2)

    def coeff(z):
        return alpha_coeff(chart_id, z)

    d_raw = _dcov_4th_order(coeff, zeta)
    log_h = lambda z: np.log(h_m2.metric(z))
    d_log = _dcov_4th_order(log_h, zeta)
    return d_raw + coeff(zeta) * d_log


def covariant_beta_star_defect(zeta: complex, chart_id: str = "z") -> complex:
    """Chern-covariant del of the adjoint-side O(-2)-valued scalar of B*."""
    h_m2 = P1LineData(-2)

    def coeff(z):
        return np.conj(beta_coeff(chart_id, z)) * P1LineData(2).metric(z)

    d_raw = _dcov_4th_order(coeff, zeta)
    d_log = _dcov_4th_order(lambda z: np.log(h_m2.metric(z)), zeta)
    return d_raw + coeff(zeta) * d_log


def dbar_beta_defect(zeta: complex, chart_id: str = "z") -> complex:
    """dbar of beta's chart coefficient (holomorphic frame, so plain dbar)."""
    return _dcov_bar_4th_order(lambda z: beta_coeff(chart_id, z), zeta)


def dbar_alpha_star_defect(zeta: complex, chart_id: str = "z") -> complex:
    """dbar of the O(2)-valued scalar of A* (constant 1, plain dbar)."""
    def coeff(z):
        return np.conj(alpha_coeff(chart_id, z)) * (1.0 + np.abs(z) ** 2) ** 2

    return _dcov_bar_4th_order(coeff, zeta)


# -- product assembly ----------------------------------------------------------

LAMBDA_WEIGHT_CASES = {
    # (Lambda_sigma(p*omega), Lambda_sigma(q*omega_P1)) as functions of sigma
    "main": lambda sigma: (2.0 / sigma, 1.0),
    "alt": lambda sigma: (2.0 / sigma, 1.0 / sigma),
}


@dataclass
class ProductPointData:
    """Evaluation of the block objects at one (torus point, P^1 point) pair."""

    torus_index: tuple[int, int]
    chart_id: str
    zeta: complex
    dbar_off: np.ndarray          # (r1+r2)^2, the psi (x) alpha coupling block
    theta_blocks: np.ndarray      # X-type (1,0) diagonal blocks
    theta_off: np.ndarray         # P^1-type (1,0) phi (x) beta block
    metric: np.ndarray            # block metric p*h1 + p*h2 (x) q*h^(2)
    lambda_weights: tuple[float, float]


@dataclass
class AssembledProduct:
    q: QuadrupletSpec
    h: MetricPair
    sigma: float
    forms: InvariantForms
    charts: tuple[P1Chart, P1Chart]
    points: list[ProductPointData]
    weights_case: str
    # torus-grid caches
    v1: np.ndarray = field(repr=False, default=None)
    v2: np.ndarray = field(repr=False, default=None)
    couplings: tuple = field(repr=False, default=None)


def random_product_points(grid: TorusGrid, n_points: int, rng) -> list[tuple[tuple[int, int], str, complex]]:
    out = []
    for _ in range(n_points):
        i, j = int(rng.integers(grid.n)), int(rng.integers(grid.n))
        chart = "z" if rng.random() < 0.5 else "w"
        zeta = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        out.append(((i, j), chart, complex(zeta)))
    return out


def assemble_F(
    q: QuadrupletSpec,
    h: MetricPair,
    sigma: float,
    n_points: int = 200,
    rng=None,
    charts: Optional[tuple[P1Chart, P1Chart]] = None,
    weights_case: str = "main",
    validate: bool = True,
) -> AssembledProduct:
    """Evaluate the block bundle data of F at product sample points."""
    if sigma <= 0:
        raise DomainError("assembly needs sigma > 0")
    if weights_case not in LAMBDA_WEIGHT_CASES:
        raise DomainError(f"unknown weights case {weights_case!r}")
    if validate:
        q.validate()
        h.validate()
    if charts is None:
        charts = geo.p1_quadrature()
    rng = rng or np.random.default_rng(0)
    forms = calibrate_alpha_beta(sigma, charts)
    weights = LAMBDA_WEIGHT_CASES[weights_case](sigma)

    lam1, lam2, *couplings = higgs.residual_terms(q, h.h1.values, h.h2.values)

    r1, r2 = q.r1, q.r2
    total = r1 + r2
    points = []
    for (ij, chart, zeta) in random_product_points(q.grid, n_points, rng):
        i, j = ij
        a = forms.c_alpha * alpha_coeff(chart, zeta)
        b = forms.c_beta * beta_coeff(chart, zeta)
        dbar_off = np.zeros((total, total), dtype=complex)
        dbar_off[:r1, r1:] = q.psi.values[i, j] * a
        theta_blocks = np.zeros((total, total), dtype=complex)
        theta_blocks[:r1, :r1] = q.theta1.values[i, j]
        theta_blocks[r1:, r1:] = q.theta2.values[i, j]
        theta_off = np.zeros((total, total), dtype=complex)
        theta_off[r1:, :r1] = q.phi.values[i, j] * b
        metric = np.zeros((total, total), dtype=complex)
        metric[:r1, :r1] = h.h1.values[i, j]
        metric[r1:, r1:] = h.h2.values[i, j] * P1LineData(2).metric(zeta)
        points.append(
            ProductPointData(ij, chart, zeta, dbar_off, theta_blocks, theta_off, metric, weights)
        )
    return AssembledProduct(q, h, float(sigma), forms, charts, points, weights_case, lam1, lam2, tuple(couplings))


def volume_product(sigma: float, charts: Optional[tuple[P1Chart, P1Chart]] = None, weights_case: str = "main") -> float:
    """Vol(X x P^1, Omega_sigma) by quadrature (the X factor has unit area)."""
    if charts is None:
        charts = geo.p1_quadrature()
    ones = lambda z: np.ones(np.asarray(z).shape)
    fs_mass = geo.fs_integrate(charts, ones, ones).real
    if weights_case == "alt":
        return 0.5 * sigma * sigma * fs_mass
    return 0.5 * sigma * fs_mass


@dataclass
class HEProductReport:
    sup_diagonal: float
    sup_offdiagonal: float
    lambda_used: complex
    rescale_constant: float       # product residual = this times the vortex residual
    n_points: int


def he_residual_product(assembled: AssembledProduct, c: VortexConstants, lam: Optional[complex] = None) -> HEProductReport:
    """Sup over sample points of |Lambda_sigma(F + [theta_F, theta_F*]) - lambda Id|.

    Diagonal blocks carry the content; the off-diagonal Lambda_sigma blocks
    are reported separately (they vanish because every off-diagonal term is
    a mixed X/P^1 form, up to the covariant-derivative defects of alpha and
    beta which are evaluated numerically here).
    """
    sigma = assembled.sigma
    wx, wp = LAMBDA_WEIGHT_CASES[assembled.weights_case](sigma)
    if lam is None:
        vol = volume_product(sigma, assembled.charts, assembled.weights_case)
        deg = c.d1 + c.d2 + sigma * c.r2
        lam = -TWO_PI * 1j / vol * deg / (c.r1 + c.r2)
    phis_phi, phi_phis, psi_psis, psis_psi = assembled.couplings
    ca2 = assembled.forms.c_alpha ** 2
    cb2 = assembled.forms.c_beta ** 2
    line2 = P1LineData(2)

    sup_diag = 0.0
    sup_off = 0.0
    for p in assembled.points:
        i, j = p.torus_index
        zeta = p.zeta
        # block (1,1): wx V1 - Lam(A^A*) + Lam(B*^B)
        d11 = wx * assembled.v1[i, j]
        d11 = d11 - lambda_p1(ca2 * raw_alpha_wedge(zeta), zeta, wp) * psi_psis[i, j]
        d11 = d11 + lambda_p1(cb2 * raw_beta_wedge_rev(zeta), zeta, wp) * phis_phi[i, j]
        d11 = d11 - lam * np.eye(assembled.q.r1)
        # block (2,2): wx V2 + curvature of h^(2) - Lam(A*^A) + Lam(B^B*)
        d22 = wx * assembled.v2[i, j]
        d22 = d22 + lambda_p1(line2.curvature_coeff(zeta), zeta, wp) * np.eye(assembled.q.r2)
        d22 = d22 - lambda_p1(ca2 * raw_alpha_wedge_rev(zeta), zeta, wp) * psis_psi[i, j]
        d22 = d22 + lambda_p1(cb2 * raw_beta_wedge(zeta), zeta, wp) * phi_phis[i, j]
        d22 = d22 - lam * np.eye(assembled.q.r2)
        sup_diag = max(sup_diag, geo.sup_norm(d11), geo.sup_norm(d22))

        # off-diagonal Lambda content: covariant-derivative defects of the forms
        defects = (
            abs(covariant_alpha_defect(zeta, p.chart_id)) * geo.sup_norm(assembled.q.psi.values[i, j]) * assembled.forms.c_alpha,
            abs(dbar_alpha_star_defect(zeta, p.chart_id)) * geo.sup_norm(assembled.q.psi.values[i, j]) * assembled.forms.c_alpha,
            abs(dbar_beta_defect(zeta, p.chart_id)) * geo.sup_norm(assembled.q.phi.values[i, j]) * assembled.forms.c_beta,
            abs(covariant_beta_star_defect(zeta, p.chart_id)) * geo.sup_norm(assembled.q.phi.values[i, j]) * assembled.forms.c_beta,
        )
        off = max(abs(lambda_p1(d, zeta, wp)) for d in defects)
        sup_off = max(sup_off, off)

    return HEProductReport(sup_diag, sup_off, lam, 2.0 / sigma, len(assembled.points))


@dataclass
class IntegrabilityReport:
    total: float
    theta1: float
    theta2: float
    psi_block: float
    phi_block: float
    phi_psi: float
    psi_phi: float


def integrability_residual(
    q: QuadrupletSpec,
    sigma: float,
    n_points: int = 64,
    rng=None,
    charts: Optional[tuple[P1Chart, P1Chart]] = None,
) -> IntegrabilityReport:
    """Pointwise (dbar_F + theta_F)^2 components at product sample points.

    Zero iff the four defining conditions of the quadruplet hold;
    the phi psi / psi phi products ride alpha^beta and beta^alpha, which are
    nondegenerate, so breaking phi o psi = 0 shows up at full strength.
    """
    if charts is None:
        charts = geo.p1_quadrature()
    rng = rng or np.random.default_rng(0)
    forms = calibrate_alpha_beta(sigma, charts)
    res = higgs.holomorphy_residuals(q)
    sup_t1, sup_t2 = res.theta1, res.theta2

    dbar_psi = geo.dbar(q.psi).values
    twist_psi = q.theta1.values @ q.psi.values - q.psi.values @ q.theta2.values
    dbar_phi = geo.dbar(q.phi).values
    twist_phi = q.theta2.values @ q.phi.values - q.phi.values @ q.theta1.values
    phi_psi = q.phi.values @ q.psi.values
    psi_phi = q.psi.values @ q.phi.values

    sup_psi = 0.0
    sup_phi = 0.0
    sup_phipsi = 0.0
    sup_psiphi = 0.0
    for (ij, chart, zeta) in random_product_points(q.grid, n_points, rng):
        i, j = ij
        a = abs(forms.c_alpha * alpha_coeff(chart, zeta))
        b = abs(forms.c_beta * beta_coeff(chart, zeta))
        ab = a * b  # |alpha ^ beta| coefficient magnitude
        sup_psi = max(sup_psi, a * geo.sup_norm(dbar_psi[i, j]), a * geo.sup_norm(twist_psi[i, j]))
        sup_phi = max(sup_phi, b * geo.sup_norm(dbar_phi[i, j]), b * geo.sup_norm(twist_phi[i, j]))
        sup_phipsi = max(sup_phipsi, ab * geo.sup_norm(phi_psi[i, j]))
        sup_psiphi = max(sup_psiphi, ab * geo.sup_norm(psi_phi[i, j]))

    total = max(sup_t1, sup_t2, sup_psi, sup_phi, sup_phipsi, sup_psiphi)
    return IntegrabilityReport(total, sup_t1, sup_t2, sup_psi, sup_phi, sup_phipsi, sup_psiphi)


# -- block-bundle degree arithmetic ----------------------------------------------

def block_bundle_slope(inv: QuadInvariants, sigma) -> Fraction:
    """Slope of F' = p*E1' + p*E2' (x) q*O(2): (d1 + d2 + sigma r2)/(r1 + r2)."""
    return mu_sigma(inv, sigma)


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

    def validate(self, tol: float = 1e-12):
        for name, (cc, dd) in (("a1", self.a1), ("psi1", self.psi1), ("a2", self.a2), ("psi2", self.psi2)):
            defect = geo.sup_norm(dd + geo.adjoint_values(cc))
            if defect > tol * max(1.0, geo.sup_norm(cc)):
                raise ConstraintError(f"{name} is not skew-Hermitian (defect {defect:.2e})")
        return self


def _pack_connection(data: InvariantConnectionData, sigma: float, samples, forms: InvariantForms):
    """Block coefficients of the invariant connection at product sample points."""
    r1 = data.a1[0].shape[-1]
    r2 = data.a2[0].shape[-1]
    total = r1 + r2
    packed = []
    for (ij, chart, zeta) in samples:
        i, j = ij
        a_val = forms.c_alpha * alpha_coeff(chart, zeta)
        b_val = forms.c_beta * beta_coeff(chart, zeta)
        # unitary part: X-coefficients on the diagonal, psi (x) alpha coupling
        nab_c = np.zeros((total, total), dtype=complex)
        nab_d = np.zeros((total, total), dtype=complex)
        nab_c[:r1, :r1] = data.a1[0][i, j]
        nab_c[r1:, r1:] = data.a2[0][i, j]
        nab_d[:r1, :r1] = data.a1[1][i, j]
        nab_d[r1:, r1:] = data.a2[1][i, j]
        coupling_01 = data.psi[i, j] * a_val                       # dzetabar block (1,2)
        coupling_10 = -geo.adjoint_values(data.psi[i, j]) * np.conj(a_val) * (1 + abs(zeta) ** 2) ** 2
        # skew part: X Psi_i on the diagonal, phi (x) beta coupling
        skw_c = np.zeros((total, total), dtype=complex)
        skw_d = np.zeros((total, total), dtype=complex)
        skw_c[:r1, :r1] = data.psi1[0][i, j]
        skw_c[r1:, r1:] = data.psi2[0][i, j]
        skw_d[:r1, :r1] = data.psi1[1][i, j]
        skw_d[r1:, r1:] = data.psi2[1][i, j]
        phi_10 = data.phi[i, j] * b_val                            # dzeta block (2,1)
        phi_01 = -geo.adjoint_values(data.phi[i, j]) * np.conj(b_val) * P1LineData(2).metric(zeta)
        packed.append(
            dict(ij=ij, chart=chart, zeta=zeta, nab_c=nab_c, nab_d=nab_d,
                 coupling_01=coupling_01, coupling_10=coupling_10,
                 skw_c=skw_c, skw_d=skw_d, phi_10=phi_10, phi_01=phi_01, r1=r1, r2=r2)
        )
    return packed


def iota_roundtrip(
    data: InvariantConnectionData,
    sigma: float = 2.0,
    grid: Optional[TorusGrid] = None,
    n_points: int = 8,
    rng=None,
    atol: float = 1e-12,
) -> bool:
    """Assemble the invariant-connection block form, decompose, compare exactly."""
    data.validate()
    rng = rng or np.random.default_rng(0)
    n = data.a1[0].shape[0]
    grid = grid or TorusGrid(n)
    forms = calibrate_alpha_beta(sigma)
    samples = random_product_points(grid, n_points, rng)
    packed = _pack_connection(data, sigma, samples, forms)

    r1 = data.a1[0].shape[-1]
    for rec in packed:
        i, j = rec["ij"]
        a_val = forms.c_alpha * alpha_coeff(rec["chart"], rec["zeta"])
        b_val = forms.c_beta * beta_coeff(rec["chart"], rec["zeta"])
        recovered = {
            "a1_c": rec["nab_c"][:r1, :r1],
            "a1_d": rec["nab_d"][:r1, :r1],
            "a2_c": rec["nab_c"][r1:, r1:],
            "a2_d": rec["nab_d"][r1:, r1:],
            "p1_c": rec["skw_c"][:r1, :r1],
            "p2_c": rec["skw_c"][r1:, r1:],
            "psi": rec["coupling_01"] / a_val,
            "phi": rec["phi_10"] / b_val,
        }
        expected = {
            "a1_c": data.a1[0][i, j],
            "a1_d": data.a1[1][i, j],
            "a2_c": data.a2[0][i, j],
            "a2_d": data.a2[1][i, j],
            "p1_c": data.psi1[0][i, j],
            "p2_c": data.psi2[0][i, j],
            "psi": data.psi[i, j],
            "phi": data.phi[i, j],
        }
        for key, exp in expected.items():
            if not np.allclose(recovered[key], exp, rtol=1e-12, atol=atol):
                return False
    return True
