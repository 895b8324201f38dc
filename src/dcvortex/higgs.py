"""Higgs quadruplets on the torus: exact constant data, metrics, curvature, adjoints.

Bundles are direct sums of line bundles.  Degree d is realized by a fixed
background unitary connection of constant curvature -2 pi i d omega, so
every dynamical field (metric perturbations, Higgs fields, the coupling
morphisms) is an honest periodic matrix field.  Matrix entries may only
connect summands of equal degree; on that subalgebra all covariant
derivatives reduce to the plain spectral dbar / del of `geometry`.

The only holomorphic periodic blocks between equal-degree summands are
constants, so a `QuadrupletSpec` holds each of theta1, theta2, phi, psi as
one exact Gaussian-rational matrix (`ExactMatrix`).  The degree masks,
phi psi = psi phi = 0 and the twists theta2 phi = phi theta1,
theta1 psi = psi theta2 are exact equalities on those matrices, with no
tolerance.  The float fields the numerics read are formed once, when the
spec is built.

Fields are complex (n, n, r_out, r_in) arrays; the slot name fixes the
form type (theta_i are (1,0)-form coefficients, phi and psi functions,
curvature and brackets dz^dzbar coefficients).  The vortex residual is
built only from the named layers `chern_curvature`, `higgs_adjoint`,
`bracket_theta` and `coupling_terms`, composed by `lambda_terms` and
`residual_terms`.  A field that is exactly zero adds no term: whether it
is zero is read once from its exact matrix (`QuadrupletSpec.nonzero`), and
its adjoint, bracket or coupling products are not formed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import geometry as geo
from .errors import ConstraintError, DomainError, ShapeError
from .geometry import TorusGrid, matmul


def degree_mask(degrees_out: Sequence[int], degrees_in: Sequence[int]) -> np.ndarray:
    """Boolean matrix of entries allowed to be nonzero (equal summand degrees)."""
    do = np.asarray(degrees_out, dtype=int)
    di = np.asarray(degrees_in, dtype=int)
    return do[:, None] == di[None, :]


class ExactMatrix(NamedTuple):
    """A Gaussian-rational matrix: real and imaginary parts as 2-D object arrays of Fraction."""

    re: np.ndarray
    im: np.ndarray

    def times(self, other: ExactMatrix) -> ExactMatrix:
        """The exact product self other."""
        re = matmul(self.re, other.re) - matmul(self.im, other.im)
        return ExactMatrix(re, matmul(self.re, other.im) + matmul(self.im, other.re))

    def minus(self, other: ExactMatrix) -> ExactMatrix:
        return ExactMatrix(self.re - other.re, self.im - other.im)

    def support(self) -> np.ndarray:
        """Boolean matrix of the nonzero entries."""
        return (self.re != 0) | (self.im != 0)

    def values(self) -> np.ndarray:
        """The complex128 matrix, each part rounded once."""
        return self.re.astype(np.float64) + 1j * self.im.astype(np.float64)


def _gaussian(x, what: str) -> tuple[Fraction, Fraction]:
    """A number as exact (real, imaginary) Fractions; a float is taken at its exact binary value."""
    parts = (x, 0) if isinstance(x, numbers.Rational) else (complex(x).real, complex(x).imag)
    try:
        exact = Fraction(parts[0]), Fraction(parts[1])
        rounded = float(exact[0]), float(exact[1])  # OverflowError past the float64 range
    except (ValueError, OverflowError) as exc:  # also NaN and inf
        raise ConstraintError(f"{what} has a non-finite entry {x!r}") from exc
    if any(e and not r for e, r in zip(exact, rounded)):
        raise ConstraintError(f"{what} has an entry {x!r} that is nonzero but underflows to 0.0 in float64")
    return exact


def _exact(value, what: str) -> ExactMatrix:
    """value, an ExactMatrix or a matrix of ints, Fractions, floats or complex numbers, as an ExactMatrix."""
    if isinstance(value, ExactMatrix):
        return value
    entries = np.asarray(value, dtype=object)
    if entries.ndim != 2:
        raise ShapeError(f"{what} must be one constant matrix, got an array of shape {entries.shape}")
    return ExactMatrix(*np.frompyfunc(lambda x: _gaussian(x, what), 1, 2)(entries))


def _check_gram(values: np.ndarray, what: str) -> None:
    """ConstraintError unless the float64 products F F^dagger and F^dagger F of the matrix F are finite.

    They are the products the residual forms at h = Id; an entry of 1e200,
    finite itself, would make them and the residual infinite.
    """
    adj = geo.adjoint_values(values)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = not values.size or all(np.isfinite(matmul(a, b)).all() for a, b in ((values, adj), (adj, values)))
    if not finite:
        raise ConstraintError(f"{what} is too large: {what} {what}^dagger or {what}^dagger {what} overflows float64")


class ExactFields(NamedTuple):
    """One item per field: its ExactMatrix in `QuadrupletSpec.exact`, a bool in `QuadrupletSpec.nonzero`."""

    theta1: ExactMatrix
    theta2: ExactMatrix
    phi: ExactMatrix
    psi: ExactMatrix


class QuadrupletSpec:
    """Concrete Higgs quadruplet: two bundles, two Higgs fields, two couplings.

    block_degrees fix the line-bundle summands (rank = length, degree = sum);
    theta_i are the dz coefficients of the Higgs fields, phi: E1 -> E2
    and psi: E2 -> E1 are functions.  Each is given as one constant matrix,
    an ExactMatrix or a matrix of ints, Fractions, floats or complex numbers
    taken exactly (ConstraintError naming the field if an entry is NaN,
    infinite, past the float64 range, or nonzero but 0.0 in float64, or if
    the float64 Gram products F F^dagger or F^dagger F are not finite), and
    kept in `exact`.  The attributes theta1, theta2, phi, psi are its
    (n, n, r_out, r_in) complex128 arrays, formed here once; `nonzero`
    holds, per field, whether any exact entry is nonzero.  A field that is
    zero exactly is 0.0 in float64 too, so the residual skips its terms.
    """

    def __init__(self, grid: TorusGrid, block_degrees1, block_degrees2, theta1, theta2, phi, psi):
        self.grid = grid
        self.block_degrees1 = tuple(block_degrees1)
        self.block_degrees2 = tuple(block_degrees2)
        self.r1, self.r2 = len(self.block_degrees1), len(self.block_degrees2)
        self.d1, self.d2 = int(sum(self.block_degrees1)), int(sum(self.block_degrees2))
        given = (theta1, theta2, phi, psi)
        self.exact = ExactFields(*(_exact(v, name) for v, name in zip(given, ExactFields._fields)))
        values = [m.values() for m in self.exact]
        for v, name in zip(values, ExactFields._fields):
            _check_gram(v, name)
        self.nonzero = ExactFields(*(bool(m.support().any()) for m in self.exact))
        self.theta1, self.theta2, self.phi, self.psi = (geo.constant_field(grid, v) for v in values)

    def validate(self):
        """Check shapes, block support, phi psi = psi phi = 0 and the twists, all exactly."""
        d1, d2 = self.block_degrees1, self.block_degrees2
        masks = degree_mask(d1, d1), degree_mask(d2, d2), degree_mask(d2, d1), degree_mask(d1, d2)
        for (what, m), mask in zip(self.exact._asdict().items(), masks):
            if m.re.shape != mask.shape:
                raise ShapeError(f"{what} must be a {mask.shape[0]}x{mask.shape[1]} matrix, got {m.re.shape}")
            if (m.support() & ~mask).any():
                raise ConstraintError(f"{what}: entries connect summands of different degree")
        e = self.exact
        if e.phi.times(e.psi).support().any() or e.psi.times(e.phi).support().any():
            raise ConstraintError("phi o psi / psi o phi must vanish")
        twist = holomorphy_residuals(self)
        if twist.phi.support().any():
            raise ConstraintError("phi does not intertwine the Higgs fields: theta2 phi != phi theta1")
        if twist.psi.support().any():
            raise ConstraintError("psi does not intertwine the Higgs fields: theta1 psi != psi theta2")
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
    """The exact twist defects theta2 phi - phi theta1 and theta1 psi - psi theta2."""

    phi: ExactMatrix
    psi: ExactMatrix


def holomorphy_residuals(q: QuadrupletSpec) -> HolomorphyResiduals:
    """The theta-intertwining defects of the two couplings, exactly.

    A constant field has dbar = 0, so the theta_i are holomorphic and the
    (0,1) parts of the coupling constraints vanish by construction; what
    is left of holomorphy is the (1,0) part, zero iff the twists hold.
    """
    e = q.exact
    return HolomorphyResiduals(
        e.theta2.times(e.phi).minus(e.phi.times(e.theta1)),
        e.theta1.times(e.psi).minus(e.psi.times(e.theta2)),
    )


def residual_terms(q: QuadrupletSpec, h1: np.ndarray, h2: np.ndarray, inv1=None, inv2=None):
    """The pieces of the vortex residual for metric arrays h1, h2.

    Returns the two terms of `lambda_terms`, then the four coupling
    endomorphisms of `coupling_terms` (None for a coupling that is exactly
    zero).  inv1, inv2 are h1^-1, h2^-1 when the caller already has them
    and must match h1, h2; a missing one is computed here, once.  The
    metrics are not checked: callers pass metrics that are positive by
    construction or were validated.
    """
    inv1 = geo.inv(h1) if inv1 is None else inv1
    inv2 = geo.inv(h2) if inv2 is None else inv2
    return lambda_terms(q, h1, h2, inv1, inv2) + coupling_terms(q, h1, h2, inv1, inv2)


def lambda_terms(q: QuadrupletSpec, h1, h2, inv1, inv2):
    """Lambda(F_{h_i} + [theta_i, theta_i^dagger]) for both bundles; inv1, inv2 are h1^-1, h2^-1.

    The bracket of a theta_i that is exactly zero is not formed: the term
    is the curvature alone.
    """
    lam = []
    for theta, nonzero, h, hinv, degrees in (
        (q.theta1, q.nonzero.theta1, h1, inv1, q.block_degrees1),
        (q.theta2, q.nonzero.theta2, h2, inv2, q.block_degrees2),
    ):
        curvature = chern_curvature(h, hinv, degrees)
        if nonzero:
            curvature = curvature + bracket_theta(theta, higgs_adjoint(theta, hinv, h))
        lam.append(-2j * curvature)
    return lam[0], lam[1]


def coupling_terms(q: QuadrupletSpec, h1, h2, inv1, inv2):
    """The four quadratic coupling endomorphisms (phi*phi, phi phi*, psi psi*, psi* psi).

    inv1, inv2 are the inverses of the metric arrays h1, h2.  The adjoint
    and the two products of a coupling that is exactly zero are not
    formed: both its terms are None.
    """
    phi_terms = psi_terms = (None, None)
    if q.nonzero.phi:
        phi_star = higgs_adjoint(q.phi, inv1, h2)
        phi_terms = matmul(phi_star, q.phi), matmul(q.phi, phi_star)
    if q.nonzero.psi:
        psi_star = higgs_adjoint(q.psi, inv2, h1)
        psi_terms = matmul(q.psi, psi_star), matmul(psi_star, q.psi)
    return phi_terms + psi_terms
