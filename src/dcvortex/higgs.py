"""Higgs quadruplets on the torus: metrics, curvature, adjoints, constraints.

Bundles are direct sums of line bundles.  Degree d is realized by a fixed
background unitary connection of constant curvature -2 pi i d omega, so
every dynamical field (metric perturbations, Higgs fields, the coupling
morphisms) is an honest periodic matrix field.  Matrix entries may only
connect summands of equal degree; on that subalgebra all covariant
derivatives reduce to the plain spectral dbar / del of `geometry`.

Fields are complex (n, n, r_out, r_in) arrays; the slot name fixes the
form type (theta_i are (1,0)-form coefficients, phi and psi functions,
curvature and brackets dz^dzbar coefficients).  The vortex residual is
built only from the named layers `chern_curvature`, `higgs_adjoint`,
`bracket_theta` and `coupling_terms`, composed by `residual_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import geometry as geo
from .errors import ConstraintError, DomainError, ShapeError
from .geometry import TorusGrid, matmul

DEFAULT_CONSTRAINT_TOL = 1e-9


def degree_mask(degrees_out: Sequence[int], degrees_in: Sequence[int]) -> np.ndarray:
    """Boolean matrix of entries allowed to be nonzero (equal summand degrees)."""
    do = np.asarray(degrees_out, dtype=int)
    di = np.asarray(degrees_in, dtype=int)
    return do[:, None] == di[None, :]


def _check_mask(values: np.ndarray, mask: np.ndarray, what: str, tol: float):
    off = np.abs(values[..., ~mask])
    if off.size and off.max() > tol:
        raise ConstraintError(
            f"{what}: entries connect summands of different degree (sup {off.max():.3e})"
        )


@dataclass
class QuadrupletSpec:
    """Concrete Higgs quadruplet: two bundles, two Higgs fields, two couplings.

    block_degrees fix the line-bundle summands (rank = length, degree = sum);
    theta_i are the dz coefficients of the Higgs fields, phi: E1 -> E2
    and psi: E2 -> E1 are functions; all four are (n, n, r_out, r_in) arrays.
    """

    grid: TorusGrid
    block_degrees1: tuple[int, ...]
    block_degrees2: tuple[int, ...]
    theta1: np.ndarray
    theta2: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
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
        n, r1, r2 = self.grid.n, self.r1, self.r2
        for f, ro, ri, what in (
            (self.theta1, r1, r1, "theta1"),
            (self.theta2, r2, r2, "theta2"),
            (self.phi, r2, r1, "phi"),
            (self.psi, r1, r2, "psi"),
        ):
            if f.shape != (n, n, ro, ri):
                raise ShapeError(f"{what} must have shape {(n, n, ro, ri)}, got {f.shape}")
            if not np.isfinite(f).all():
                raise ConstraintError(f"{what} has non-finite values")
        m1, m2, mphi, mpsi = self.masks()
        _check_mask(self.theta1, m1, "theta1", self.tol)
        _check_mask(self.theta2, m2, "theta2", self.tol)
        _check_mask(self.phi, mphi, "phi", self.tol)
        _check_mask(self.psi, mpsi, "psi", self.tol)
        comp1 = geo.sup_norm(matmul(self.phi, self.psi))
        comp2 = geo.sup_norm(matmul(self.psi, self.phi))
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

    h1: np.ndarray
    h2: np.ndarray

    def validate(self):
        _check_metric(self.h1, "h1")
        _check_metric(self.h2, "h2")
        return self


def _check_metric(values: np.ndarray, what: str = "metric") -> None:
    """Raise DomainError unless the field is pointwise Hermitian positive definite."""
    herm_defect = geo.sup_norm(values - geo.adjoint_values(values))
    if herm_defect > 1e-12 * max(1.0, geo.sup_norm(values)):
        raise DomainError(f"{what} is not Hermitian (defect {herm_defect:.3e})")
    eigs = geo.eigh(values)[0]
    if eigs.min() <= 0:
        raise DomainError(f"{what} is not positive definite (min eig {eigs.min():.3e})")


def expm_hermitian(values: np.ndarray) -> np.ndarray:
    """Pointwise matrix exponential of a Hermitian field."""
    if values.shape[-1] == 1:
        return np.exp(values)
    w, v = geo.eigh(values)
    return matmul(v * np.exp(w)[..., None, :], geo.adjoint_values(v))


def chern_curvature(h: np.ndarray, hinv: np.ndarray, background_degrees: Sequence[int]) -> np.ndarray:
    """dz^dzbar coefficient of F_h = F_bg + dbar(h^-1 del h) in the background trivialization.

    The background curvature -2 pi i d omega has the constant coefficient
    diag(pi d), and dbar(u dz) = -(d_zbar u) dz^dzbar.  hinv is h^-1.
    Satisfies (i/2pi) integral tr Lambda(F_h) vol = sum(background_degrees).
    """
    background = np.pi * np.diag(np.asarray(background_degrees, dtype=float))
    return background - geo.dbar(matmul(hinv, geo.del_(h)))


def higgs_adjoint(f: np.ndarray, hinv_from: np.ndarray, h_to: np.ndarray) -> np.ndarray:
    """h_from^-1 f^dagger h_to: the adjoint of f for the metrics at either end.

    For a Higgs field theta = T dz with metric h this is the dzbar
    coefficient h^-1 T^dagger h of theta^dagger_h.
    """
    return matmul(matmul(hinv_from, geo.adjoint_values(f)), h_to)


def bracket_theta(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[theta, theta^dagger] = theta^theta^dagger + theta^dagger^theta for theta = T dz, theta^dagger = S dzbar.

    The dz^dzbar coefficient is the matrix commutator T S - S T; in
    particular it is trace free pointwise.
    """
    return matmul(t, s) - matmul(s, t)


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
    twist_phi = geo.sup_norm(matmul(q.theta2, q.phi) - matmul(q.phi, q.theta1))
    dbar_psi = _dbar_defect(q.psi)
    twist_psi = geo.sup_norm(matmul(q.theta1, q.psi) - matmul(q.psi, q.theta2))
    return HolomorphyResiduals(r_t1, r_t2, max(dbar_phi, twist_phi), max(dbar_psi, twist_psi))


def _dbar_defect(f: np.ndarray) -> float:
    """sup |dbar f|, or the size of dbar on f's Nyquist modes if that is larger.

    The spectral derivatives zero the Nyquist wavenumber pi n, so a grid-scale
    oscillation such as (-1)^i has dbar = 0 on the grid; in the continuum a
    Nyquist mode of amplitude a has |d_zbar| = pi n a / 2.
    """
    n = f.shape[0]
    hat = np.fft.fft2(f, axes=(0, 1)) / n**2
    nyquist = max(np.abs(hat[n // 2]).max(), np.abs(hat[:, n // 2]).max())
    return max(geo.sup_norm(geo.dbar(f)), 0.5 * np.pi * n * float(nyquist))


def residual_terms(q: QuadrupletSpec, h1: np.ndarray, h2: np.ndarray, inv1=None, inv2=None):
    """The pieces of the vortex residual for metric arrays h1, h2.

    Returns Lambda(F_{h_i} + [theta_i, theta_i^dagger]) for both bundles,
    then the four coupling endomorphisms of `coupling_terms`.  inv1, inv2
    are h1^-1, h2^-1 when the caller already has them and must match h1,
    h2; a missing one is computed here, once.  The metrics are not
    checked: callers pass metrics that are positive by construction or
    were validated.
    """
    inv1 = geo.inv(h1) if inv1 is None else inv1
    inv2 = geo.inv(h2) if inv2 is None else inv2
    lam = []
    for theta, h, hinv, degrees in (
        (q.theta1, h1, inv1, q.block_degrees1),
        (q.theta2, h2, inv2, q.block_degrees2),
    ):
        s = higgs_adjoint(theta, hinv, h)
        lam.append(-2j * (chern_curvature(h, hinv, degrees) + bracket_theta(theta, s)))
    return (lam[0], lam[1]) + coupling_terms(q, h1, h2, inv1, inv2)


def coupling_terms(q: QuadrupletSpec, h1, h2, inv1, inv2):
    """The four quadratic coupling endomorphisms (phi*phi, phi phi*, psi psi*, psi* psi).

    inv1, inv2 are the inverses of the metric arrays h1, h2.
    """
    phi_star = higgs_adjoint(q.phi, inv1, h2)
    psi_star = higgs_adjoint(q.psi, inv2, h1)
    return matmul(phi_star, q.phi), matmul(q.phi, phi_star), matmul(q.psi, psi_star), matmul(psi_star, q.psi)
