"""Exact slope arithmetic, verdicts, coordinate sub-objects, catalog records."""

from fractions import Fraction

import numpy as np
import pytest

from dcvortex import geometry as geo
from dcvortex import higgs, stability
from dcvortex.errors import ConstraintError
from dcvortex.stability import QuadInvariants, SubobjectCatalog

from conftest import phi_entry, psi_entry


class TestSlopes:
    def test_zero_degree_example(self):
        q = QuadInvariants(1, 1, 0, 0)
        assert stability.deg_sigma(q, 2) == Fraction(2)
        assert stability.mu_sigma(q, 2) == Fraction(1)

    def test_hand_arithmetic_example(self):
        q = QuadInvariants(2, 1, -1, 3)
        assert stability.deg_sigma(q, 5) == Fraction(7)
        assert stability.mu_sigma(q, 5) == Fraction(7, 3)

    def test_sigma_zero_is_ordinary_slope(self):
        q = QuadInvariants(2, 3, 4, -1)
        assert stability.mu_sigma(q, 0) == Fraction(3, 5)

    def test_floats_rejected(self):
        q = QuadInvariants(1, 1, 0, 0)
        with pytest.raises(TypeError):
            stability.deg_sigma(q, 2.0)
        with pytest.raises(TypeError):
            stability.theta_tau(QuadInvariants(1, 0, 0, 0), q, 1.0)


class TestThetaTau:
    AMBIENT = QuadInvariants(1, 1, 0, 0)

    def test_e1_side_subobject(self):
        assert stability.theta_tau(QuadInvariants(1, 0, 0, 0), self.AMBIENT, 1) == Fraction(-1)

    def test_e2_side_subobject(self):
        assert stability.theta_tau(QuadInvariants(0, 1, 0, 0), self.AMBIENT, 1) == Fraction(1)

    def test_proportional_subobject_is_zero(self):
        ambient = QuadInvariants(2, 2, 4, 2)
        sub = QuadInvariants(1, 1, 2, 1)  # same slope, same r2-ratio
        assert stability.theta_tau(sub, ambient, Fraction(5, 7)) == 0


class TestVerdicts:
    def test_stable_catalog(self):
        cat = SubobjectCatalog(QuadInvariants(1, 1, 0, 0))
        cat.add(QuadInvariants(1, 0, 0, 0))
        v = stability.verdict_tau(cat, 1)
        assert v.verdict == "stable" and not v.vacuous

    def test_unstable_catalog_with_witness(self):
        cat = SubobjectCatalog(QuadInvariants(1, 1, 0, 0))
        cat.add(QuadInvariants(1, 0, 0, 0))
        cat.add(QuadInvariants(0, 1, 0, 0))
        v = stability.verdict_tau(cat, 1)
        assert v.verdict == "unstable"
        assert [tuple(w.invariants) for w in v.witnesses] == [(0, 1, 0, 0)]
        assert v.witness_value == Fraction(1)

    def test_vacuous_catalog(self):
        cat = SubobjectCatalog(QuadInvariants(1, 1, 0, 0))
        v = stability.verdict_tau(cat, 1)
        assert v.verdict == "stable" and v.vacuous

    def test_semistable_uses_weak_inequality(self):
        ambient = QuadInvariants(2, 2, 0, 0)
        cat = SubobjectCatalog(ambient)
        cat.add(QuadInvariants(1, 1, 0, 0))  # proportional: Theta = 0
        assert stability.verdict_tau(cat, Fraction(1, 2)).verdict == "semistable"
        assert stability.verdict_sigma(cat, Fraction(3)).verdict == "semistable"

    def test_sigma_and_tau_verdicts_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            amb = QuadInvariants(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                 int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            cat = SubobjectCatalog(amb)
            for _ in range(int(rng.integers(1, 4))):
                r1 = int(rng.integers(0, amb.r1 + 1))
                r2 = int(rng.integers(0, amb.r2 + 1))
                if r1 + r2 == 0 or (r1, r2) == (amb.r1, amb.r2):
                    continue
                cat.add(QuadInvariants(r1, r2, int(rng.integers(-4, 5)), int(rng.integers(-4, 5))))
            sigma = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
            tau = stability.mu_sigma(amb, sigma)
            assert stability.verdict_tau(cat, tau).verdict == stability.verdict_sigma(cat, sigma).verdict


class TestEquivalenceIdentity:
    def test_random_tuples_exact(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 1000:
            amb = QuadInvariants(int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                                 int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
            r1 = int(rng.integers(0, amb.r1 + 1))
            r2 = int(rng.integers(0, amb.r2 + 1))
            if r1 + r2 == 0 or (r1, r2) == (amb.r1, amb.r2):
                continue
            sub = QuadInvariants(r1, r2, int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
            sigma = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            tau = stability.mu_sigma(amb, sigma)
            lhs = stability.theta_tau(sub, amb, tau)
            rhs = stability.mu_sigma(sub, sigma) - stability.mu_sigma(amb, sigma)
            assert lhs == rhs
            count += 1

    def test_catalog_equivalence_check(self):
        cat = SubobjectCatalog(QuadInvariants(1, 1, 0, 0))
        cat.add(QuadInvariants(0, 1, 0, 0))
        assert stability.equivalence_check(cat, 2)
        # the worked example: Theta = 1 = mu_sigma' - mu_sigma
        tau = stability.mu_sigma(cat.ambient, 2)
        assert tau == 1
        assert stability.theta_tau(QuadInvariants(0, 1, 0, 0), cat.ambient, tau) == 1


class TestCoordinateSubquadruplets:
    def test_phi_only_entry(self):
        g = geo.TorusGrid(8)
        cat = stability.coordinate_subquadruplets(phi_entry(g))
        assert [tuple(e.invariants) for e in cat.entries] == [(0, 1, 0, 0)]

    def test_psi_only_entry(self):
        g = geo.TorusGrid(8)
        cat = stability.coordinate_subquadruplets(psi_entry(g))
        assert [tuple(e.invariants) for e in cat.entries] == [(1, 0, 0, 0)]

    def test_tiny_entry_is_support(self):
        # support is exact: psi = 1e-10 is as much a nonzero psi as psi = 1
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(g, (0,), (0,), [[0]], [[0]], [[0]], [[1e-10]]).validate()
        cat = stability.coordinate_subquadruplets(q)
        assert [tuple(e.invariants) for e in cat.entries] == [(1, 0, 0, 0)]
        assert stability.verdict_sigma(cat, 2).verdict == "stable"

    def test_unconstrained_counts(self):
        # phi = psi = 0, diagonal theta: all 2^(k1+k2) - 2 coordinate pairs
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(
            g, (0, 1), (2,),
            np.diag([1.0, 2.0]),
            [[3.0]],
            np.zeros((1, 2)),
            np.zeros((2, 1)),
        )
        cat = stability.coordinate_subquadruplets(q)
        assert len(cat.entries) == 2 ** 3 - 2

    def test_degrees_collected(self):
        g = geo.TorusGrid(8)
        q = higgs.QuadrupletSpec(
            g, (1, -2), (3,),
            np.zeros((2, 2)),
            [[0]],
            np.zeros((1, 2)),
            np.zeros((2, 1)),
        )
        cat = stability.coordinate_subquadruplets(q)
        degrees = {tuple(e.invariants) for e in cat.entries}
        assert (1, 1, 1, 3) in degrees and (1, 0, -2, 0) in degrees


class TestCatalogRecords:
    def test_records_parsed(self):
        text = (
            "# sub-quadruplet catalog: r1 r2 d1 d2 [provenance]\n"
            "ambient 2 1 3 -1\n"
            "entry 1 0 2 0 coordinate:S1=[0],S2=[]\n"
            "\n"
            "entry 1 1 0 -1\n"
        )
        cat = stability.catalog_from_text(text)
        assert cat.ambient == QuadInvariants(2, 1, 3, -1)
        assert [(tuple(e.invariants), e.provenance) for e in cat.entries] == [
            ((1, 0, 2, 0), "coordinate:S1=[0],S2=[]"),
            ((1, 1, 0, -1), "user-supplied"),
        ]

    def test_malformed_records_rejected(self):
        with pytest.raises(ConstraintError):
            stability.catalog_from_text("entry 1 0 0 0\n")
        with pytest.raises(ConstraintError):
            stability.catalog_from_text("ambient 1 1 0 zero\n")

    def test_trivial_entries_rejected(self):
        cat = SubobjectCatalog(QuadInvariants(1, 1, 0, 0))
        with pytest.raises(ConstraintError):
            cat.add(QuadInvariants(0, 0, 0, 0))
        with pytest.raises(ConstraintError):
            cat.add(QuadInvariants(1, 1, 0, 0))
        with pytest.raises(ConstraintError):
            cat.add(QuadInvariants(2, 1, 0, 0))
