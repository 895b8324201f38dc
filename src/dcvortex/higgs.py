"""Higgs quadruplets on the torus: metrics, curvature, adjoints, constraints.

Bundles are direct sums of line bundles.  Degree d is realized by a fixed
background unitary connection of constant curvature -2 pi i d omega, so
every dynamical field (metric perturbations, Higgs fields, the coupling
morphisms) is an honest periodic matrix field.  Matrix entries may only
connect summands of equal degree; on that subalgebra all covariant
derivatives reduce to the plain spectral dbar / del of `geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import geometry as geo
from .errors import ConstraintError, DomainError, ShapeError
from .geometry import FieldOnTorus, TorusGrid

DEFAULT_CONSTRAINT_TOL = 1e-9


def degree_mask(degrees_out: Sequence[int], degrees_in: Sequence[int]) -> np.ndarray:
    """Boolean matrix of entries allowed to be nonzero (equal summand degrees)."""
    do = np.asarray(degrees_out, dtype=int)
    di = np.asarray(degrees_in, dtype=int)
    return do[:, None] == di[None, :]


def _check_mask(values: np.ndarray, mask: np.ndarray, what: str, tol: float):
    if values.shape[-2:] != mask.shape:
        raise ShapeError(f"{what}: shape {values.shape[-2:]} does not match mask {mask.shape}")
    off = np.abs(values[..., ~mask])
    if off.size and off.max() > tol:
        raise ConstraintError(
            f"{what}: entries connect summands of different degree (sup {off.max():.3e})"
        )


@dataclass
class QuadrupletSpec:
    """Concrete Higgs quadruplet: two bundles, two Higgs fields, two couplings.

    block_degrees fix the line-bundle summands (rank = length, degree = sum);
    theta_i are (1,0)-form endomorphism fields, phi: E1 -> E2 and
    psi: E2 -> E1 are function fields.
    """

    grid: TorusGrid
    block_degrees1: tuple[int, ...]
    block_degrees2: tuple[int, ...]
    theta1: FieldOnTorus
    theta2: FieldOnTorus
    phi: FieldOnTorus
    psi: FieldOnTorus
    tol: float = DEFAULT_CONSTRAINT_TOL

    @property
    def r1(self) -> int:
        return len(self.block_degrees1)

    @property
    def r2(self) -> int:
        return len(self.block_degrees2)

    @property
    def d1(self) -> int:
        return int(sum(self.block_degrees1))

    @property
    def d2(self) -> int:
        return int(sum(self.block_degrees2))

    def masks(self):
        m1 = degree_mask(self.block_degrees1, self.block_degrees1)
        m2 = degree_mask(self.block_degrees2, self.block_degrees2)
        mphi = degree_mask(self.block_degrees2, self.block_degrees1)
        mpsi = degree_mask(self.block_degrees1, self.block_degrees2)
        return m1, m2, mphi, mpsi

    def validate(self):
        """Check shapes, finiteness, block support, phi psi = psi phi = 0 and holomorphy."""
        r1, r2 = self.r1, self.r2
        for f, ro, ri, ft, what in (
            (self.theta1, r1, r1, geo.FORM_10, "theta1"),
            (self.theta2, r2, r2, geo.FORM_10, "theta2"),
            (self.phi, r2, r1, geo.FUNCTION, "phi"),
            (self.psi, r1, r2, geo.FUNCTION, "psi"),
        ):
            if f.form_type != ft:
                raise ConstraintError(f"{what} must be a {ft} field")
            if (f.rank_out, f.rank_in) != (ro, ri):
                raise ShapeError(f"{what} must be {ro}x{ri}, got {f.rank_out}x{f.rank_in}")
            if not np.isfinite(f.values).all():
                raise ConstraintError(f"{what} has non-finite values")
        m1, m2, mphi, mpsi = self.masks()
        _check_mask(self.theta1.values, m1, "theta1", self.tol)
        _check_mask(self.theta2.values, m2, "theta2", self.tol)
        _check_mask(self.phi.values, mphi, "phi", self.tol)
        _check_mask(self.psi.values, mpsi, "psi", self.tol)
        comp1 = geo.sup_norm(self.phi.values @ self.psi.values)
        comp2 = geo.sup_norm(self.psi.values @ self.phi.values)
        if max(comp1, comp2) > self.tol:
            raise ConstraintError(
                f"phi o psi / psi o phi must vanish (sup {max(comp1, comp2):.3e})"
            )
        res = holomorphy_residuals(self)
        worst = max(res)
        if worst > self.tol:
            raise ConstraintError(f"holomorphy residuals too large: {res}")
        return self


@dataclass
class MetricPair:
    """Positive Hermitian metric matrices h_i = exp(s_i) over the Id background."""

    h1: FieldOnTorus
    h2: FieldOnTorus

    def validate(self):
        _check_metric(self.h1.values, "h1")
        _check_metric(self.h2.values, "h2")
        return self


def _check_metric(values: np.ndarray, what: str = "metric") -> None:
    """Raise DomainError unless the field is pointwise Hermitian positive definite."""
    herm_defect = geo.sup_norm(values - geo.adjoint_values(values))
    if herm_defect > 1e-12 * max(1.0, geo.sup_norm(values)):
        raise DomainError(f"{what} is not Hermitian (defect {herm_defect:.3e})")
    eigs = np.linalg.eigvalsh(values)
    if eigs.min() <= 0:
        raise DomainError(f"{what} is not positive definite (min eig {eigs.min():.3e})")


def expm_hermitian(values: np.ndarray) -> np.ndarray:
    """Pointwise matrix exponential of a Hermitian field."""
    if values.shape[-1] == 1:
        return np.exp(values)
    w, v = np.linalg.eigh(values)
    return (v * np.exp(w)[..., None, :]) @ geo.adjoint_values(v)


def metric_inverse(values: np.ndarray) -> np.ndarray:
    """Pointwise inverse of a metric field's values."""
    if values.shape[-1] == 1:
        return 1.0 / values
    return np.linalg.inv(values)


def _curvature_values(h: np.ndarray, hinv: np.ndarray, background_degrees: Sequence[int]) -> np.ndarray:
    # dz^dzbar coefficient of F_bg + dbar(h^-1 del h); the background curvature
    # -2 pi i d omega has the constant coefficient diag(pi d), and
    # dbar(u dz) = -(d_zbar u) dz^dzbar
    background = np.pi * np.diag(np.asarray(background_degrees, dtype=float))
    return background - geo._d_zbar(hinv @ geo._d_z(h))


def chern_curvature(h: FieldOnTorus, background_degrees: Sequence[int]) -> FieldOnTorus:
    """Curvature F_h = F_bg + dbar(h^-1 del h) in the background trivialization.

    Satisfies (i/2pi) integral tr Lambda(F_h) vol = sum(background_degrees).
    """
    _check_metric(h.values)
    coeff = _curvature_values(h.values, metric_inverse(h.values), background_degrees)
    return FieldOnTorus(h.grid, geo.FORM_11, coeff)


def higgs_adjoint(theta: FieldOnTorus, h: FieldOnTorus) -> FieldOnTorus:
    """Formal adjoint theta^dagger_h = (h^-1 T^dagger h) dzbar for theta = T dz."""
    if theta.form_type != geo.FORM_10:
        raise geo.FormTypeError("higgs_adjoint expects a (1,0)-form")
    if theta.rank_out != h.rank_out:
        raise ShapeError("theta and h ranks differ")
    return FieldOnTorus(theta.grid, geo.FORM_01, _adjoint(theta.values, metric_inverse(h.values), h.values))


def bracket_theta(theta: FieldOnTorus, theta_dag: FieldOnTorus) -> FieldOnTorus:
    """[theta, theta^dagger] = theta^theta^dagger + theta^dagger^theta, a (1,1)-form.

    With coefficients T dz and S dzbar this is the matrix commutator
    (TS - ST) dz^dzbar; in particular it is trace free pointwise.
    """
    return geo.wedge(theta, theta_dag) + geo.wedge(theta_dag, theta)


def _adjoint(f: np.ndarray, hinv_from: np.ndarray, h_to: np.ndarray) -> np.ndarray:
    # h_from^-1 f^dagger h_to: the adjoint of f for the metrics at either end
    return hinv_from @ geo.adjoint_values(f) @ h_to


class HolomorphyResiduals(NamedTuple):
    theta1: float
    theta2: float
    phi: float
    psi: float


def holomorphy_residuals(q: QuadrupletSpec) -> HolomorphyResiduals:
    """Sup norms of the four holomorphy constraints of a Higgs quadruplet.

    For the morphisms the (0,1) part (dbar f) and the (1,0) part
    (theta-intertwining defect) must vanish separately; the reported
    residual is the larger of the two.  The dbar parts include the
    Nyquist-mode content that the spectral dbar cannot see.
    """
    r_t1 = _dbar_defect(q.theta1)
    r_t2 = _dbar_defect(q.theta2)
    dbar_phi = _dbar_defect(q.phi)
    twist_phi = geo.sup_norm(q.theta2.values @ q.phi.values - q.phi.values @ q.theta1.values)
    dbar_psi = _dbar_defect(q.psi)
    twist_psi = geo.sup_norm(q.theta1.values @ q.psi.values - q.psi.values @ q.theta2.values)
    return HolomorphyResiduals(r_t1, r_t2, max(dbar_phi, twist_phi), max(dbar_psi, twist_psi))


def _dbar_defect(f: FieldOnTorus) -> float:
    """sup |dbar f|, or the size of dbar on f's Nyquist modes if that is larger.

    The spectral derivatives zero the Nyquist wavenumber pi n, so a grid-scale
    oscillation such as (-1)^i has dbar = 0 on the grid; in the continuum a
    Nyquist mode of amplitude a has |d_zbar| = pi n a / 2.
    """
    n = f.grid.n
    hat = np.fft.fft2(f.values, axes=(0, 1)) / n**2
    nyquist = max(np.abs(hat[n // 2]).max(), np.abs(hat[:, n // 2]).max())
    return max(geo.dbar(f).sup_norm(), 0.5 * np.pi * n * float(nyquist))


def residual_terms(q: QuadrupletSpec, h1: np.ndarray, h2: np.ndarray):
    """The pieces of the vortex residual, as arrays, for metric arrays h1, h2.

    Returns Lambda(F_{h_i} + [theta_i, theta_i^dagger]) for both bundles,
    then the four coupling endomorphisms of `coupling_terms`.  Each metric
    is inverted once.  The metrics are not checked: callers pass metrics
    that are positive by construction or were validated.
    """
    inv1, inv2 = metric_inverse(h1), metric_inverse(h2)
    lam = []
    for theta, h, hinv, degrees in (
        (q.theta1.values, h1, inv1, q.block_degrees1),
        (q.theta2.values, h2, inv2, q.block_degrees2),
    ):
        # [theta, theta^dagger] has dz^dzbar coefficient T S - S T for S = theta^dagger
        s = _adjoint(theta, hinv, h)
        lam.append(-2j * (_curvature_values(h, hinv, degrees) + (theta @ s - s @ theta)))
    return (lam[0], lam[1]) + _couplings(q, h1, h2, inv1, inv2)


def coupling_terms(q: QuadrupletSpec, h: MetricPair):
    """The four quadratic coupling endomorphisms (phi*phi, phi phi*, psi psi*, psi* psi)."""
    h1, h2 = h.h1.values, h.h2.values
    return _couplings(q, h1, h2, metric_inverse(h1), metric_inverse(h2))


def _couplings(q: QuadrupletSpec, h1, h2, inv1, inv2):
    phi, psi = q.phi.values, q.psi.values
    phi_star = _adjoint(phi, inv1, h2)
    psi_star = _adjoint(psi, inv2, h1)
    return phi_star @ phi, phi @ phi_star, psi @ psi_star, psi_star @ psi
