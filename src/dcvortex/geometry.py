"""Spectral calculus on the flat square torus and unit-disk quadrature on P^1.

Conventions fixed here once for the whole package:

* X = C/(Z+iZ) is sampled on an n-by-n periodic grid with z = x + iy and
  the Kahler form omega = (i/2) dz^dzbar, so that the area of X is
  exactly 1 and Lambda(omega) = 1.
* A field is a plain complex array of shape (n, n, r_out, r_in): a
  matrix at every grid point.  The slot that holds it fixes its form type;
  a (1,0)-form u dz is stored as u, a (0,1)-form v dzbar as v.
* Every pointwise matrix product goes through `matmul(a, b)`: the last
  two axes are the matrix, the leading axes broadcast as in numpy, and
  (a b)_ik = sum_j a_ij b_jk is accumulated in ascending j, one broadcast
  multiply-add per inner index.  Ranks are at most a few, so this beats
  `@`, which treats a stack as many tiny separate products.
* A (1,1)-form stores its single coefficient g relative to dz^dzbar;
  hence Lambda(g dz^dzbar) = -2i g and its integral is -2i <g>.
* `del_` and `dbar` are the spectral d/dz and d/dzbar, with the Nyquist
  wavenumber zeroed.  On grids with n <= DENSE_MAX_N each axis derivative
  is one complex GEMM with a cached n-by-n differentiation matrix, applied
  to the field minus its first sample along the axis, so a constant field
  gives exactly 0; larger grids use the FFT, except that a field equal to
  its first sample at every grid point returns exact zeros without any
  transform.  So on both branches, for every even n, the derivative of a
  constant field is exactly 0.  On forms,
  dbar(u dz) = -(d_zbar u) dz^dzbar and del(v dzbar) = (d_z v) dz^dzbar.
* Every pointwise eigendecomposition and inverse goes through `eigh(s)`
  and `inv(m)`.  Rank 1 and 2 are closed form (one Jacobi rotation,
  adjugate over determinant); only rank >= 3 calls LAPACK.
* P^1 is covered by two closed unit disks C_z and C_w glued along
  |z| = 1 by w = 1/z.  The Fubini-Study form has z-chart density
  (1/pi)(1+|z|^2)^-2 per unit area, total mass 1, half per chart.
  Every integrand on P^1 here is SU(2)-invariant, with the same closed
  form in both charts, so one disk's quadrature serves for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeError

# omega = OMEGA_COEFF * dz^dzbar
OMEGA_COEFF = 0.5j

# largest grid whose derivatives are dense GEMMs.  Against the FFT, one
# BLAS thread: 1.7-3x faster at n <= 32, even at n = 64, slower at n = 128
DENSE_MAX_N = 32


@dataclass(frozen=True)
class TorusGrid:
    """Periodic n-by-n sampling of the unit-square fundamental domain."""

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= 4, got {self.n}")

    def wavenumbers(self):
        return _wavenumbers(self.n)


@lru_cache(maxsize=None)
def _wavenumbers(n: int):
    """2 pi times the FFT frequencies, with the Nyquist wavenumber set to 0."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    k.flags.writeable = False
    return k


@lru_cache(maxsize=None)
def _half_derivative_matrix(n: int):
    """The n-by-n matrix of (1/2) d/dx on n periodic samples, Nyquist wavenumber zeroed.

    Column l is the FFT derivative of the l-th unit vector; the exact matrix
    is real, so the FFT's round-off in the imaginary part is dropped.
    """
    columns = np.fft.ifft(1j * _wavenumbers(n)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    d = (0.5 * columns.real).astype(np.complex128)
    d.flags.writeable = False
    return d


def constant_field(grid: TorusGrid, matrix) -> np.ndarray:
    m = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    return np.broadcast_to(m, (grid.n, grid.n) + m.shape).copy()


def identity_field(grid: TorusGrid, rank: int) -> np.ndarray:
    return constant_field(grid, np.eye(rank))


# -- spectral derivatives ---------------------------------------------------

def _axis_derivative(values: np.ndarray, n: int, axis: int) -> np.ndarray:
    k = _wavenumbers(n)
    shape = [1, 1, 1, 1]
    shape[axis] = n
    hat = np.fft.fft(values, axis=axis)
    hat *= (1j * k).reshape(shape)
    return np.fft.ifft(hat, axis=axis)


def _dense_axis_derivative(values: np.ndarray, axis: int) -> np.ndarray:
    """(1/2) d/dx along axis 0 or 1 as one GEMM, applied to values minus their first sample."""
    moved = values.swapaxes(0, axis)
    shifted = np.subtract(moved, moved[:1], order="C")
    n = shifted.shape[0]
    out = np.dot(_half_derivative_matrix(n), shifted.reshape(n, -1))
    return out.reshape(shifted.shape).swapaxes(0, axis)


def _is_constant(values: np.ndarray) -> bool:
    """True when every grid sample of the field equals the first one."""
    return bool((values == values[:1, :1]).all())


def del_(values: np.ndarray) -> np.ndarray:
    """d/dz = (d_x - i d_y)/2 of a field; exactly 0 for a constant field.

    Above DENSE_MAX_N a constant field returns zeros without transforms.
    """
    n = values.shape[0]
    if n <= DENSE_MAX_N:
        return _dense_axis_derivative(values, 0) - 1j * _dense_axis_derivative(values, 1)
    if _is_constant(values):
        return np.zeros(values.shape, dtype=np.complex128)
    dx = _axis_derivative(values, n, 0)
    dy = _axis_derivative(values, n, 1)
    return 0.5 * (dx - 1j * dy)


def dbar(values: np.ndarray) -> np.ndarray:
    """d/dzbar = (d_x + i d_y)/2 of a field; exactly 0 for a constant field.

    Above DENSE_MAX_N a constant field returns zeros without transforms.
    """
    n = values.shape[0]
    if n <= DENSE_MAX_N:
        return _dense_axis_derivative(values, 0) + 1j * _dense_axis_derivative(values, 1)
    if _is_constant(values):
        return np.zeros(values.shape, dtype=np.complex128)
    dx = _axis_derivative(values, n, 0)
    dy = _axis_derivative(values, n, 1)
    return 0.5 * (dx + 1j * dy)


# -- pointwise matrix algebra -----------------------------------------------

def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of two (..., r_out, r) and (..., r, r_in) stacks."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2] or a.shape[-1] == 0:
        raise ShapeError(f"cannot multiply matrix stacks of shapes {a.shape} and {b.shape}")
    inner = a.shape[-1]
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, inner):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def eigh(s: np.ndarray):
    """(w, v) as np.linalg.eigh gives them for a Hermitian stack: ascending w, eigenvectors in v's columns.

    Rank 1 is its real entry.  Rank 2 takes one stable Jacobi rotation
    (Golub & Van Loan, Matrix Computations, 4th ed., 8.5.2) of the real
    matrix [[a, |b|], [|b|, d]] that s is after the phase of its lower
    entry b is rotated out; a diagonal s gives its diagonal exactly.
    Rank >= 3 falls back to LAPACK.
    """
    if s.shape[-1] == 1:
        return s[..., 0].real.copy(), np.ones_like(s)
    if s.shape[-1] > 2:
        return np.linalg.eigh(s)
    a, d, b = s[..., 0, 0].real, s[..., 1, 1].real, s[..., 1, 0]
    c = np.abs(b)
    off = c > 0
    phase = np.where(off, b / np.where(off, c, 1.0), 1.0)
    gap = d - a
    den = np.abs(gap) + np.hypot(gap, 2.0 * c)
    t = np.copysign(2.0 * c, gap) / np.where(den > 0, den, 1.0)
    cs = 1.0 / np.sqrt(1.0 + t * t)
    sn = t * cs
    # the rotation takes a to a - t c with eigenvector (cs, -sn phase),
    # d to d + t c with (sn, cs phase); ascending order swaps them when d < a
    low, high = a - t * c, d + t * c
    swap = low > high
    x = np.where(swap, sn, cs)
    y = np.where(swap, cs, -sn)
    w = np.stack((np.minimum(low, high), np.maximum(low, high)), axis=-1)
    v = np.empty(s.shape, dtype=phase.dtype)
    v[..., 0, 0] = x
    v[..., 0, 1] = -y
    v[..., 1, 0] = y * phase
    v[..., 1, 1] = x * phase
    return w, v


def inv(m: np.ndarray) -> np.ndarray:
    """Pointwise inverse of a stack of invertible matrices; rank 2 as adjugate over determinant."""
    if m.shape[-1] == 1:
        return 1.0 / m
    if m.shape[-1] > 2:
        return np.linalg.inv(m)
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    out /= (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])[..., None, None]
    return out


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
