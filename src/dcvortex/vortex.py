"""The doubly-coupled vortex system: constants, residual, preconditioned descent solver.

The residual implements

    R1 = Lambda(F_h1 + [theta1, theta1^dag]) + i phi* phi - i psi psi* + 2 pi i tau Id
    R2 = Lambda(F_h2 + [theta2, theta2^dag]) - i phi phi* + i psi* psi + 2 pi i tau' Id

The phi-term signs are the ones produced by the curvature blocks of the
associated product bundle; with the opposite pair the phi-only coupled
system would admit an explicit constant solution despite being
slope-unstable, so these signs are what make solvability and stability
agree.  The summed trace identity |int tr(i R1) + int tr(i R2)| = 0
holds for any admissible input once tau' = -(r1 tau - d1 - d2)/r2,
which is how the tau' sign is locked.

The solver is a Donaldson-type heat flow on the metric logs s_i, h_i =
exp(s_i), with the flat-Laplacian part of the linearised residual treated
implicitly in Fourier space (see `solve`); its iteration count does not
depend on the grid size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import geometry as geo
from . import higgs
from .errors import DomainError, ShapeError
from .higgs import MetricPair, QuadrupletSpec
from .stability import _rational

TWO_PI = 2.0 * np.pi
# O(1) initial step of the preconditioned flow; backtracking settles it
DEFAULT_STEP = 1.0
# trust region: a step moving s by more than this (sup norm) is scaled down to it
MAX_UPDATE = 1.0
BACKTRACK = 0.5        # step factor after a rejected step
GROW = 1.05            # step factor after every GROW_EVERY accepted steps
GROW_EVERY = 25
MIN_STEP = 1e-14       # below this the step has collapsed
# spread of the log-metric spectrum past which the metric eigenvalues differ by more than 1/eps;
# widening past it without progress is a runaway
PRECISION_LIMIT = -np.log(np.finfo(float).eps)
MIN_REL_IMPROVEMENT = 1e-9  # relative progress that resets the patience count


@dataclass(frozen=True)
class VortexConstants:
    """tau, tau', sigma and the Hermitian-Einstein constant of the product.

    Exact Fractions; sigma > 0 is required for anything involving the
    product geometry, the solver itself runs for any tau.
    """

    tau: Fraction
    tau_prime: Fraction
    sigma: Fraction
    r1: int
    r2: int
    d1: int
    d2: int

    @property
    def reduction_enabled(self) -> bool:
        return self.sigma > 0

    @property
    def lambda_he(self) -> complex:
        """-(2 pi i / Vol) deg_sigma F / rank F with Vol = sigma/2."""
        if not self.reduction_enabled:
            raise DomainError("sigma <= 0: product constants are undefined")
        sigma = float(self.sigma)
        deg_sigma_f = self.d1 + self.d2 + sigma * self.r2
        return -4j * np.pi / sigma * deg_sigma_f / (self.r1 + self.r2)


def constants_from_tau(tau, r1: int, r2: int, d1: int, d2: int) -> VortexConstants:
    """Populate tau' = -(r1 tau - d1 - d2)/r2 and sigma = ((r1+r2)tau - d1 - d2)/r2.

    tau must be exact (int or Fraction); a float raises TypeError.
    """
    if r1 < 1 or r2 < 1:
        raise DomainError("ranks must be >= 1")
    tau = _rational(tau, "tau")
    tau_prime = -Fraction(r1 * tau - d1 - d2, 1) / r2
    sigma = Fraction((r1 + r2) * tau - d1 - d2, 1) / r2
    return VortexConstants(tau, tau_prime, sigma, r1, r2, d1, d2)


def constants_from_sigma(sigma, r1: int, r2: int, d1: int, d2: int) -> VortexConstants:
    """Inverse relation tau = (d1 + d2 + sigma r2)/(r1 + r2); sigma must be exact, as tau."""
    tau = Fraction(d1 + d2 + _rational(sigma, "sigma") * r2, 1) / (r1 + r2)
    return constants_from_tau(tau, r1, r2, d1, d2)


def residual(
    q: QuadrupletSpec, h: MetricPair, c: VortexConstants, *, checked: bool = True, inverses=(None, None)
):
    """(R1, R2) at the metrics h, endomorphism-valued functions as arrays.

    checked=False skips the Hermitian/positivity check of h; the solver
    passes it for its own iterates h = exp(herm s), positive by construction,
    together with the inverses (h1^-1, h2^-1) it already has (None: computed).
    A field that is exactly zero adds no term: its Higgs bracket or coupling
    products are neither formed nor added (`higgs.residual_terms`).
    """
    if checked:
        h.validate()
    r1, r2, phis_phi, phi_phis, psi_psis, psis_psi = higgs.residual_terms(q, h.h1, h.h2, *inverses)
    if phis_phi is not None:
        r1 = r1 + 1j * phis_phi
        r2 = r2 - 1j * phi_phis
    if psi_psis is not None:
        r1 = r1 - 1j * psi_psis
        r2 = r2 + 1j * psis_psi
    r1 = r1 + TWO_PI * 1j * float(c.tau) * np.eye(q.r1)
    r2 = r2 + TWO_PI * 1j * float(c.tau_prime) * np.eye(q.r2)
    return r1, r2


def trace_identity_check(q: QuadrupletSpec, h: MetricPair, c: VortexConstants) -> float:
    """|int tr(i R1) + int tr(i R2)|, an identity (zero) for any admissible input."""
    r1, r2 = residual(q, h, c)
    t1 = np.einsum("xykk->xy", r1).mean()
    t2 = np.einsum("xykk->xy", r2).mean()
    return abs(1j * t1 + 1j * t2)


@dataclass
class SolveOptions:
    step: float = DEFAULT_STEP            # initial step, the same for every n
    max_iter: int = 200_000
    target_residual: float = 1e-8
    patience: int = 2000                  # accepted steps without relative progress


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_sup_r1: float
    final_sup_r2: float
    message: str
    history: list = field(default_factory=list)  # rows (iteration, sup_R1, sup_R2)

    def sup(self) -> float:
        return max(self.final_sup_r1, self.final_sup_r2)


def _renormalize_trace(s1: np.ndarray, s2: np.ndarray, r1: int, r2: int):
    # only the simultaneous scaling of (h1, h2) is gauge; fix the summed trace
    total = float(np.real(np.einsum("xykk->", s1) + np.einsum("xykk->", s2)))
    shift = total / (s1.shape[0] * s1.shape[1]) / (r1 + r2)
    s1 = s1 - shift * np.eye(r1)
    s2 = s2 - shift * np.eye(r2)
    return s1, s2


def _exp_with_inverse(s: np.ndarray):
    """(exp s, exp(s)^-1 or None, eigenvalues of s) for a Hermitian field s, from one `geo.eigh`.

    With s = V diag(w) V^dagger pointwise, exp s = V e^w V^dagger (the
    product `higgs.expm_hermitian` forms) and exp(s)^-1 = V diag(1 / e^w)
    V^dagger, so a diagonal s gives exactly the reciprocals; w has shape
    (n, n, r).  At rank 2 the decomposition is closed form, one Jacobi
    rotation per grid point, with no LAPACK call.  Rank 1 takes no
    decomposition and returns None for the inverse: `higgs.residual_terms`
    then forms 1 / h itself and frees it when it returns (formed here, it
    stayed alive through the rest of the residual and made the rank-1
    solve on a 64 x 64 grid 7-11 % slower).
    """
    if s.shape[-1] == 1:
        return higgs.expm_hermitian(s), None, s[..., 0].real
    w, v = geo.eigh(s)
    ew = np.exp(w)[..., None, :]
    v_dag = geo.adjoint_values(v)
    return geo.matmul(v * ew, v_dag), geo.matmul(v / ew, v_dag), w


def solve(
    q: QuadrupletSpec,
    c: VortexConstants,
    options: Optional[SolveOptions] = None,
    *,
    initial_log_metric: Optional[tuple[np.ndarray, np.ndarray]] = None,
):
    """Preconditioned descent s_i <- s_i - eps herm(P_eps^-1(i R_i)) on metric logs h_i = exp(s_i).

    For h = exp(s) the leading part of i R is -(1/2) Laplace s, so
    P_eps = 1 + (eps/2)|k|^2 treats it implicitly.  |k|^2 is the symbol of
    -4 d_zbar d_z with the residual's own Nyquist-zeroed wavenumbers, and
    P_eps is applied in Fourier space.  The explicit bound eps ~ 1/n^2 is
    gone: the step is set by the zeroth-order coupling terms, so the
    iteration count does not depend on n.  On a constant residual P_eps acts
    as the identity.

    Backtracking keeps the sup residual non-increasing, and no step moves s
    by more than MAX_UPDATE.  Nonconvergence is reported as a result, not
    raised - it is the expected outcome for unstable quadruplets.  The run
    ends "diverged" on the first accepted step that widens the spread of
    the log-metric spectrum (largest eigenvalue of s1 and s2 minus the
    smallest, over the grid) past PRECISION_LIMIT = ln(1/eps) and does not
    improve the best sup residual by MIN_REL_IMPROVEMENT: the metric runs
    away while the residual makes no progress.  A stable solution may lie
    past the limit (small Higgs fields); the run goes on while the steps
    still improve the residual.  Coupling below MIN_REL_IMPROVEMENT of the
    residual at the limit cannot be told from none, so such input (psi =
    1e-13 on the stable rank-1 entry) also ends "diverged".  It ends
    "stalled" after more than `patience` accepted steps without relative
    progress and "step collapse" when backtracking drives the step below
    MIN_STEP.
    initial_log_metric=(s1, s2) starts from h_i = exp(s_i) (Hermitian parts
    used) instead of h_i = Id.
    Returns (MetricPair of the best iterate, SolveReport).
    """
    opts = options or SolveOptions()
    n = q.grid.n
    eps = opts.step
    k = q.grid.wavenumbers()
    half_k2 = 0.5 * (k[:, None] ** 2 + k[None, :] ** 2)[..., None, None]

    def descent(r: np.ndarray) -> np.ndarray:
        hat = np.fft.fft2(1j * r, axes=(0, 1))
        hat /= 1.0 + eps * half_k2
        return geo.hermitian_part(np.fft.ifft2(hat, axes=(0, 1)))

    if initial_log_metric is None:
        s1 = np.zeros((n, n, q.r1, q.r1), dtype=np.complex128)
        s2 = np.zeros((n, n, q.r2, q.r2), dtype=np.complex128)
    else:
        s1, s2 = (geo.hermitian_part(np.asarray(s, dtype=np.complex128)) for s in initial_log_metric)
        for s, r, what in ((s1, q.r1, "s1"), (s2, q.r2, "s2")):
            if s.shape != (n, n, r, r):
                raise ShapeError(f"initial {what} must have shape {(n, n, r, r)}, got {s.shape}")
            if not np.isfinite(s).all():
                raise DomainError(f"initial {what} has non-finite values")
        s1, s2 = _renormalize_trace(s1, s2, q.r1, q.r2)

    def evaluate(a, b):
        # one eigendecomposition per log metric gives h, h^-1 and the spectrum;
        # the metrics die with the call, so no step holds more arrays than the residual needs
        (h1, inv1, w1), (h2, inv2, w2) = _exp_with_inverse(a), _exp_with_inverse(b)
        return residual(q, MetricPair(h1, h2), c, checked=False, inverses=(inv1, inv2)), (w1, w2)

    def spread(w):
        return max(w[0].max(), w[1].max()) - min(w[0].min(), w[1].min())

    res, w = evaluate(s1, s2)
    sup1, sup2 = map(geo.sup_norm, res)
    sup = max(sup1, sup2)
    history = [(0, sup1, sup2)]
    best = (sup, s1, s2, sup1, sup2)
    best_iter = 0
    accepted = 0
    message = "max_iter reached"
    converged = sup <= opts.target_residual
    if converged:
        message = "converged"

    it = 0
    while not converged and it < opts.max_iter:
        it += 1
        step1 = eps * descent(res[0])
        step2 = eps * descent(res[1])
        size = max(geo.sup_norm(step1), geo.sup_norm(step2))
        if size > MAX_UPDATE:
            # from a far start a full step can overshoot to where exp(s) ~ 0
            # bounds the residual, and the runaway test below then fires
            step1, step2 = step1 * (MAX_UPDATE / size), step2 * (MAX_UPDATE / size)
        cand1, cand2 = _renormalize_trace(s1 - step1, s2 - step2, q.r1, q.r2)
        res_cand, cand_w = evaluate(cand1, cand2)
        c1, c2 = map(geo.sup_norm, res_cand)
        cand_sup = max(c1, c2)

        if cand_sup <= sup * (1.0 + 1e-12):
            progress = cand_sup < best[0] * (1.0 - MIN_REL_IMPROVEMENT)
            # spreads are taken only on steps without progress, so a converging run never pays for them
            widened = not progress and spread(cand_w) > max(spread(w), PRECISION_LIMIT)
            s1, s2, res, w = cand1, cand2, res_cand, cand_w
            sup1, sup2, sup = c1, c2, cand_sup
            accepted += 1
            history.append((accepted, sup1, sup2))
            if accepted % GROW_EVERY == 0:
                eps *= GROW
            if progress:
                best = (sup, s1, s2, sup1, sup2)
                best_iter = accepted
            if sup <= opts.target_residual:
                converged, message = True, "converged"
                break
            if widened:
                message = "diverged: metric log runaway (unstable quadruplet?)"
                break
            if accepted - best_iter > opts.patience:
                message = "stalled: residual plateau (unstable quadruplet?)"
                break
        else:
            eps *= BACKTRACK
            if eps < MIN_STEP:
                message = "step collapse: residual cannot decrease"
                break

    if not converged:
        _, s1, s2, sup1, sup2 = best
    report = SolveReport(
        converged=converged,
        iterations=accepted,
        final_sup_r1=sup1,
        final_sup_r2=sup2,
        message=message,
        history=history,
    )
    return MetricPair(higgs.expm_hermitian(s1), higgs.expm_hermitian(s2)), report
