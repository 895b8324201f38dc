"""Spectral calculus on the flat square torus and unit-disk quadrature on P^1.

Conventions fixed here once for the whole package:

* X = C/(Z+iZ) is sampled on an n-by-n periodic grid with z = x + iy and
  the Kahler form omega = (i/2) dz^dzbar, so that the area of X is
  exactly 1 and Lambda(omega) = 1.
* A (1,1)-form stores its single coefficient g relative to dz^dzbar;
  hence Lambda(g dz^dzbar) = -2i g and its integral is -2i <g>.
* P^1 is covered by two closed unit disks C_z and C_w glued along
  |z| = 1 by w = 1/z.  The Fubini-Study form has z-chart density
  (1/pi)(1+|z|^2)^-2 per unit area, total mass 1, half per chart.
  Every integrand on P^1 here is SU(2)-invariant, with the same closed
  form in both charts, so one disk's quadrature serves for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import FormTypeError, ShapeError

FUNCTION = "function"
FORM_10 = "(1,0)"
FORM_01 = "(0,1)"
FORM_11 = "(1,1)"

FORM_TYPES = (FUNCTION, FORM_10, FORM_01, FORM_11)

# omega = OMEGA_COEFF * dz^dzbar
OMEGA_COEFF = 0.5j


@dataclass(frozen=True)
class TorusGrid:
    """Periodic n-by-n sampling of the unit-square fundamental domain."""

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= 4, got {self.n}")

    def coordinates(self):
        x = np.arange(self.n) / self.n
        return np.meshgrid(x, x, indexing="ij")

    def wavenumbers(self):
        return _wavenumbers(self.n)


@lru_cache(maxsize=None)
def _wavenumbers(n: int):
    """2 pi times the FFT frequencies, with the Nyquist wavenumber set to 0."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return k


@dataclass
class FieldOnTorus:
    """Complex matrix valued field on the grid, tagged with its form type.

    values has shape (n, n, rank_out, rank_in); for forms the array holds
    the coefficient relative to dz, dzbar or dz^dzbar.
    """

    grid: TorusGrid
    form_type: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.form_type not in FORM_TYPES:
            raise FormTypeError(f"unknown form type {self.form_type!r}")
        v = np.asarray(self.values, dtype=np.complex128)
        n = self.grid.n
        if v.ndim != 4 or v.shape[0] != n or v.shape[1] != n:
            raise ShapeError(f"values must have shape ({n},{n},ro,ri), got {v.shape}")
        self.values = v

    @property
    def rank_out(self) -> int:
        return self.values.shape[2]

    @property
    def rank_in(self) -> int:
        return self.values.shape[3]

    def __add__(self, other: "FieldOnTorus") -> "FieldOnTorus":
        _check_same_type(self, other)
        return FieldOnTorus(self.grid, self.form_type, self.values + other.values)

    def __sub__(self, other: "FieldOnTorus") -> "FieldOnTorus":
        _check_same_type(self, other)
        return FieldOnTorus(self.grid, self.form_type, self.values - other.values)

    def __mul__(self, scalar) -> "FieldOnTorus":
        return FieldOnTorus(self.grid, self.form_type, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldOnTorus":
        return FieldOnTorus(self.grid, self.form_type, -self.values)

    def trace(self) -> "FieldOnTorus":
        if self.rank_out != self.rank_in:
            raise ShapeError("trace needs a square matrix field")
        tr = np.einsum("xykk->xy", self.values)[..., None, None]
        return FieldOnTorus(self.grid, self.form_type, tr)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _check_same_type(a: FieldOnTorus, b: FieldOnTorus):
    if a.form_type != b.form_type:
        raise FormTypeError(f"form types differ: {a.form_type} vs {b.form_type}")
    if a.values.shape != b.values.shape:
        raise ShapeError(f"shapes differ: {a.values.shape} vs {b.values.shape}")


def constant_field(grid: TorusGrid, matrix, form_type: str = FUNCTION) -> FieldOnTorus:
    m = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    values = np.broadcast_to(m, (grid.n, grid.n) + m.shape).copy()
    return FieldOnTorus(grid, form_type, values)


def identity_field(grid: TorusGrid, rank: int, form_type: str = FUNCTION) -> FieldOnTorus:
    return constant_field(grid, np.eye(rank), form_type)


def zero_field(grid: TorusGrid, rank_out: int, rank_in: int, form_type: str = FUNCTION) -> FieldOnTorus:
    return FieldOnTorus(grid, form_type, np.zeros((grid.n, grid.n, rank_out, rank_in), dtype=np.complex128))


def mode_field(grid: TorusGrid, p: int, q: int, matrix=1.0, form_type: str = FUNCTION) -> FieldOnTorus:
    """matrix * exp(2 pi i (p x + q y)) sampled on the grid."""
    x, y = grid.coordinates()
    phase = np.exp(2.0j * np.pi * (p * x + q * y))
    m = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    return FieldOnTorus(grid, form_type, phase[..., None, None] * m)


# -- spectral derivatives ---------------------------------------------------

def _axis_derivative(values: np.ndarray, n: int, axis: int) -> np.ndarray:
    k = _wavenumbers(n)
    shape = [1, 1, 1, 1]
    shape[axis] = n
    hat = np.fft.fft(values, axis=axis)
    hat *= (1j * k).reshape(shape)
    return np.fft.ifft(hat, axis=axis)


def _d_z(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    dx = _axis_derivative(values, n, 0)
    dy = _axis_derivative(values, n, 1)
    return 0.5 * (dx - 1j * dy)


def _d_zbar(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    dx = _axis_derivative(values, n, 0)
    dy = _axis_derivative(values, n, 1)
    return 0.5 * (dx + 1j * dy)


def dbar(f: FieldOnTorus) -> FieldOnTorus:
    """dbar on functions and (1,0)-forms.

    On a function returns the dzbar coefficient; on u dz returns the
    dz^dzbar coefficient of dbar(u dz) = -(d_zbar u) dz^dzbar.
    """
    if f.form_type == FUNCTION:
        return FieldOnTorus(f.grid, FORM_01, _d_zbar(f.values))
    if f.form_type == FORM_10:
        return FieldOnTorus(f.grid, FORM_11, -_d_zbar(f.values))
    raise FormTypeError(f"dbar undefined on {f.form_type} fields")


def del_(f: FieldOnTorus) -> FieldOnTorus:
    """del on functions and (0,1)-forms; del(v dzbar) = (d_z v) dz^dzbar."""
    if f.form_type == FUNCTION:
        return FieldOnTorus(f.grid, FORM_10, _d_z(f.values))
    if f.form_type == FORM_01:
        return FieldOnTorus(f.grid, FORM_11, _d_z(f.values))
    raise FormTypeError(f"del undefined on {f.form_type} fields")


def integrate(f: FieldOnTorus) -> np.ndarray:
    """Entrywise integral against the volume form (functions) or of the 2-form."""
    mean = f.values.mean(axis=(0, 1))
    if f.form_type == FUNCTION:
        return mean
    if f.form_type == FORM_11:
        # integral of g dz^dzbar = -2i * mean(g) on the unit-area torus
        return -2j * mean
    raise FormTypeError("integrate acts on functions and (1,1)-forms")


def lambda_contract(f: FieldOnTorus) -> FieldOnTorus:
    """Contraction with omega, normalized so Lambda(omega) = 1."""
    if f.form_type != FORM_11:
        raise FormTypeError("lambda_contract needs a (1,1)-form")
    return FieldOnTorus(f.grid, FUNCTION, -2j * f.values)


# -- pointwise matrix algebra -----------------------------------------------

_WEDGE_SIGN = {
    (FUNCTION, FUNCTION): (FUNCTION, 1.0),
    (FUNCTION, FORM_10): (FORM_10, 1.0),
    (FUNCTION, FORM_01): (FORM_01, 1.0),
    (FUNCTION, FORM_11): (FORM_11, 1.0),
    (FORM_10, FUNCTION): (FORM_10, 1.0),
    (FORM_01, FUNCTION): (FORM_01, 1.0),
    (FORM_11, FUNCTION): (FORM_11, 1.0),
    (FORM_10, FORM_01): (FORM_11, 1.0),   # dz ^ dzbar
    (FORM_01, FORM_10): (FORM_11, -1.0),  # dzbar ^ dz = -dz ^ dzbar
}


def wedge(a: FieldOnTorus, b: FieldOnTorus) -> FieldOnTorus:
    """Pointwise matrix product with form bookkeeping (dzbar^dz = -dz^dzbar)."""
    key = (a.form_type, b.form_type)
    if key not in _WEDGE_SIGN:
        raise FormTypeError(f"wedge of {a.form_type} with {b.form_type} vanishes or is unsupported")
    if a.rank_in != b.rank_out:
        raise ShapeError(f"cannot compose {a.values.shape} with {b.values.shape}")
    out_type, sign = _WEDGE_SIGN[key]
    return FieldOnTorus(a.grid, out_type, sign * (a.values @ b.values))


def adjoint_values(v: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(v, -1, -2))


def hermitian_part(v: np.ndarray) -> np.ndarray:
    return 0.5 * (v + adjoint_values(v))


def sup_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


# -- P^1 quadrature on one unit disk -----------------------------------------

@dataclass(frozen=True)
class P1Disk:
    """Quadrature nodes on the closed unit disk, standing for either chart of P^1.

    points are chart coordinates, weights are plain area weights so that
    sum(w * f(points)) approximates the area integral of f over the disk.
    The two charts cover P^1 with overlap only on |zeta| = 1, and every
    SU(2)-invariant integrand has the same closed form in both, so a
    P^1 integral is twice the disk sum.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")


def p1_quadrature(n_radial: int = 24, n_angular: int = 24) -> P1Disk:
    """Gauss-Legendre radial times uniform angular nodes on the unit disk."""
    if n_radial < 8 or n_angular < 8:
        raise ValueError("quadrature resolutions must be >= 8")
    nodes, w = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * w
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular
    pts = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    wts = (wr[:, None] * r[:, None] * wt * np.ones_like(theta)[None, :]).ravel()
    return P1Disk(pts, wts)


def integrate_two_form(disk: P1Disk, g) -> complex:
    """Integrate g dzeta^dzetabar over P^1 for a coefficient g that is the same in both charts."""
    total = 2.0 * np.sum(disk.weights * g(disk.points))
    return complex(-2j * total)
