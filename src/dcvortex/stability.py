"""Exact slope and stability arithmetic for Higgs quadruplets.

Everything here is fractions.Fraction; floats are rejected because the
verdicts are strict-inequality decisions.  Sub-object search is restricted
to coordinate (block) sub-bundles plus user-supplied invariants, so every
verdict is "relative to catalog".  Block support is exact: an entry of the
quadruplet's Gaussian-rational matrices is in the support iff it is
nonzero, with no tolerance.  Stable means strictly negative
comparison on every entry; semistable uses the weak inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConstraintError
from .higgs import QuadrupletSpec


def _rational(x, name: str) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"{name} must be exact (int or Fraction), got float")
    return Fraction(x)


class QuadInvariants(NamedTuple):
    """Discrete invariants (r1, r2, d1, d2) of a (sub-)quadruplet."""

    r1: int
    r2: int
    d1: int
    d2: int

    def total_rank(self) -> int:
        return self.r1 + self.r2


@dataclass
class SubobjectEntry:
    invariants: QuadInvariants
    provenance: str = "user-supplied"


@dataclass
class SubobjectCatalog:
    """Nontrivial sub-quadruplet invariants of a fixed ambient quadruplet."""

    ambient: QuadInvariants
    entries: list[SubobjectEntry] = field(default_factory=list)

    def __post_init__(self):
        amb = self.ambient
        if amb.r1 < 1 or amb.r2 < 1:
            raise ConstraintError("ambient ranks must both be positive")
        for e in self.entries:
            self._check_entry(e.invariants)

    def _check_entry(self, inv: QuadInvariants):
        amb = self.ambient
        if inv.r1 < 0 or inv.r2 < 0 or inv.r1 > amb.r1 or inv.r2 > amb.r2:
            raise ConstraintError(f"sub-object ranks {inv} exceed ambient {amb}")
        if inv.total_rank() == 0:
            raise ConstraintError("the zero sub-quadruplet is trivial and excluded")
        if (inv.r1, inv.r2, inv.d1, inv.d2) == tuple(amb):
            raise ConstraintError("the full quadruplet is trivial and excluded")

    def add(self, inv: QuadInvariants, provenance: str = "user-supplied"):
        self._check_entry(inv)
        self.entries.append(SubobjectEntry(inv, provenance))


def deg_sigma(q: QuadInvariants, sigma) -> Fraction:
    """sigma-degree d1 + d2 + r2 sigma."""
    s = _rational(sigma, "sigma")
    return Fraction(q.d1 + q.d2) + q.r2 * s


def mu_sigma(q: QuadInvariants, sigma) -> Fraction:
    """sigma-slope deg_sigma / (r1 + r2)."""
    if q.total_rank() == 0:
        raise ConstraintError("slope of the zero object is undefined")
    return deg_sigma(q, sigma) / q.total_rank()


def theta_tau(sub: QuadInvariants, ambient: QuadInvariants, tau) -> Fraction:
    """(mu(E1'+E2') - tau) - (r2'/r2)((r1+r2)/(r1'+r2'))(mu(E1+E2) - tau)."""
    t = _rational(tau, "tau")
    if sub.total_rank() == 0:
        raise ConstraintError("Theta_tau of the zero sub-quadruplet is undefined")
    mu_sub = Fraction(sub.d1 + sub.d2, sub.total_rank())
    mu_amb = Fraction(ambient.d1 + ambient.d2, ambient.total_rank())
    weight = Fraction(sub.r2, ambient.r2) * Fraction(ambient.total_rank(), sub.total_rank())
    return (mu_sub - t) - weight * (mu_amb - t)


@dataclass
class Verdict:
    verdict: str                  # "stable" | "semistable" | "unstable"
    vacuous: bool
    witnesses: list[SubobjectEntry]
    witness_value: Optional[Fraction]
    note: str = "relative to catalog"


def _verdict(values: list[Fraction], catalog: SubobjectCatalog, reference=Fraction(0)) -> Verdict:
    if not catalog.entries:
        return Verdict("stable", True, [], None)
    worst = max(values)
    witnesses = [e for e, v in zip(catalog.entries, values) if v == worst]
    if worst < reference:
        kind = "stable"
    elif worst == reference:
        kind = "semistable"
    else:
        kind = "unstable"
    return Verdict(kind, False, witnesses, worst)


def verdict_tau(catalog: SubobjectCatalog, tau) -> Verdict:
    """tau-stable iff Theta_tau < 0 on every entry; semistable iff <= 0."""
    values = [theta_tau(e.invariants, catalog.ambient, tau) for e in catalog.entries]
    return _verdict(values, catalog)


def verdict_sigma(catalog: SubobjectCatalog, sigma) -> Verdict:
    """sigma-stable iff mu_sigma(sub) < mu_sigma(ambient) on every entry."""
    mu_amb = mu_sigma(catalog.ambient, sigma)
    values = [mu_sigma(e.invariants, sigma) - mu_amb for e in catalog.entries]
    return _verdict(values, catalog)


def equivalence_check(catalog: SubobjectCatalog, sigma) -> bool:
    """Theta_tau(Q') == mu_sigma(Q') - mu_sigma(Q) exactly, with tau = mu_sigma(Q)."""
    s = _rational(sigma, "sigma")
    tau = mu_sigma(catalog.ambient, s)
    mu_amb = mu_sigma(catalog.ambient, s)
    for e in catalog.entries:
        lhs = theta_tau(e.invariants, catalog.ambient, tau)
        rhs = mu_sigma(e.invariants, s) - mu_amb
        if lhs != rhs:
            return False
    return True


# -- coordinate sub-quadruplets from a block-structured quadruplet ------------

def _subsets(indices: range):
    return chain.from_iterable(combinations(indices, k) for k in range(len(indices) + 1))


def coordinate_subquadruplets(q: QuadrupletSpec) -> SubobjectCatalog:
    """Enumerate coordinate summand pairs (S1, S2) invariant under theta, phi, psi.

    Block support is the set of nonzero entries of the exact matrices; the
    summands are the line-bundle factors, so blocks are single entries.
    """
    t1, t2, sphi, spsi = (m.support() for m in q.exact)
    ambient = QuadInvariants(q.r1, q.r2, q.d1, q.d2)
    catalog = SubobjectCatalog(ambient)

    def invariant(support, src, dst) -> bool:
        # support[i, j] nonzero requires j in src -> i in dst
        for j in src:
            rows = np.nonzero(support[:, j])[0]
            if any(i not in dst for i in rows):
                return False
        return True

    for s1 in _subsets(range(q.r1)):
        for s2 in _subsets(range(q.r2)):
            if len(s1) + len(s2) == 0:
                continue
            if len(s1) == q.r1 and len(s2) == q.r2:
                continue
            set1, set2 = set(s1), set(s2)
            if not invariant(t1, set1, set1):
                continue
            if not invariant(t2, set2, set2):
                continue
            if not invariant(sphi, set1, set2):
                continue
            if not invariant(spsi, set2, set1):
                continue
            inv = QuadInvariants(
                len(s1),
                len(s2),
                int(sum(q.block_degrees1[i] for i in s1)),
                int(sum(q.block_degrees2[i] for i in s2)),
            )
            catalog.add(inv, provenance=f"coordinate:S1={sorted(set1)},S2={sorted(set2)}")
    return catalog


# -- catalog text records -----------------------------------------------------

def catalog_from_text(text: str) -> SubobjectCatalog:
    ambient = None
    entries: list[SubobjectEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            nums = [int(p) for p in parts[1:5]]
        except (ValueError, IndexError) as exc:
            raise ConstraintError(f"catalog line {lineno}: expected 4 integers") from exc
        if kind == "ambient":
            ambient = QuadInvariants(*nums)
        elif kind == "entry":
            provenance = " ".join(parts[5:]) or "user-supplied"
            entries.append(SubobjectEntry(QuadInvariants(*nums), provenance))
        else:
            raise ConstraintError(f"catalog line {lineno}: unknown record {kind!r}")
    if ambient is None:
        raise ConstraintError("catalog has no ambient record")
    catalog = SubobjectCatalog(ambient)
    for e in entries:
        catalog.add(e.invariants, e.provenance)
    return catalog
