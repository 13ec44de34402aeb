import json
import re
from fractions import Fraction
from itertools import permutations, product

import pytest

import heiscurve
from heiscurve import covers
from heiscurve.covers import (
    CoverRamification,
    FermatAutGroup,
    GroupAxiomFailure,
    NonIntegerGenus,
    PointClass,
    RamificationData,
    audit_signature_claims,
    b3,
    b4,
    build_fermat_aut,
    cover_ramification,
    fermat_genus,
    heisenberg_genus,
    is_fixed_by,
    m_bound,
    modular_aut_order,
    orbit_size,
    ramification_defect,
    rh_genus,
    signature_consistency,
    stabilizer_generator,
    stabilizer_subgroup,
    symmetry_matrix,
)


class TestRiemannHurwitz:
    def test_trivial_cover(self):
        assert rh_genus(RamificationData(0, 1)) == 0

    def test_full_fermat_signature(self):
        n = 5
        assert rh_genus(RamificationData(0, 6 * n * n, (2, 3, 2 * n))) == 6
        assert fermat_genus(5) == 6

    def test_triangle_tower_signature(self):
        n = 5
        assert rh_genus(RamificationData(0, n**3, (n, n, n))) == 26
        assert heisenberg_genus(5) == 26

    def test_non_integer_genus_detected(self):
        with pytest.raises(NonIntegerGenus):
            rh_genus(RamificationData(0, 150, (10, 3, 3)))

    def test_negative_genus_detected(self):
        with pytest.raises(NonIntegerGenus):
            rh_genus(RamificationData(0, 2))

    def test_indices_must_divide_group_order(self):
        with pytest.raises(ValueError):
            RamificationData(0, 10, (3,))
        with pytest.raises(ValueError):
            RamificationData(0, 10, (1,))

    @pytest.mark.parametrize("args, message", [
        ((0.5, 6, (2, 3)), "base_genus must be an int, got 0.5"),
        ((True, 6, (2, 3)), "base_genus must be an int, got True"),
        ((0, 6.0, (2, 3)), "group_order must be an int, got 6.0"),
        ((0, 6, (2.0, 3)), "ramification index must be an int, got 2.0"),
        ((0, 6, [2, Fraction(3)]),
         r"ramification index must be an int, got Fraction\(3, 1\)"),
    ])
    def test_non_int_data_rejected(self, args, message):
        with pytest.raises(TypeError, match=message):
            RamificationData(*args)

    @pytest.mark.parametrize("args, message", [
        ((-1, 6), "base_genus must be >= 0, got -1"),
        ((0, 0), "group_order must be >= 1, got 0"),
        ((0, 6, (1,)), "ramification index must be >= 2, got 1"),
    ])
    def test_out_of_range_data_rejected(self, args, message):
        with pytest.raises(ValueError) as info:
            RamificationData(*args)
        assert str(info.value) == message


class TestGenusFormulas:
    @pytest.mark.parametrize("n,g", [(2, 0), (3, 1), (7, 15)])
    def test_fermat_values(self, n, g):
        assert fermat_genus(n) == g

    @pytest.mark.parametrize("n,g", [(2, 0), (3, 1), (4, 13)])
    def test_heisenberg_values(self, n, g):
        assert heisenberg_genus(n) == g

    @pytest.mark.parametrize("n", (2.5, 3.0, Fraction(3), True))
    def test_non_int_n_rejected(self, n):
        for genus in (fermat_genus, heisenberg_genus):
            with pytest.raises(TypeError, match=r"n must be an int, got %s"
                               % re.escape(repr(n))):
                genus(n)

    @pytest.mark.parametrize("n", (3, 5, 7, 9, 11))
    def test_unramified_tower_identity_odd_n(self, n):
        data = RamificationData(fermat_genus(n), n)
        assert rh_genus(data) == heisenberg_genus(n)

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
    def test_even_n_double_cover_identity(self, n):
        lhs = 2 * heisenberg_genus(n) - 2
        rhs = n * (2 * fermat_genus(n) - 2) + n * n // 2
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(4, 13))
    def test_fermat_signature_all_n(self, n):
        assert rh_genus(
            RamificationData(0, 6 * n * n, (2, 3, 2 * n))
        ) == fermat_genus(n)

    @pytest.mark.parametrize("n", (4, 6, 8, 10, 12))
    def test_even_quotient_signature(self, n):
        assert rh_genus(
            RamificationData(0, 2 * n**3, (4 * n, n, 2))
        ) == heisenberg_genus(n)


# Oracle: shift the point's exponent vector by every (a, b) in (Z/n)^2 and
# compare the results up to projective rescaling.
#
# Coordinates of the relevant points are either 0 or powers of zeta^(1/2),
# so a point is encoded by its exponent vector: None for a zero coordinate,
# otherwise the exponent as a Fraction with denominator 1 or 2.  Projective
# rescaling shifts all exponents by a common constant.  The scan doubles
# the exponents to integers mod 2n.

def exponents(point):
    k = Fraction(point.k)
    if point.family == "P":  # (zeta^k : 0 : 1)
        return (k, None, Fraction(0))
    if point.family == "Q":  # (0 : zeta^k : 1)
        return (None, k, Fraction(0))
    # (eps * zeta^k : 1 : 0) with eps^2 = zeta
    return (k + Fraction(1, 2), Fraction(0), None)


def normalize_exponents(exps, modulus):
    pivot = next(e for e in exps if e is not None)
    return tuple(None if e is None else (e - pivot) % modulus for e in exps)


def stabilizer_and_orbit_scan(point, n):
    """(stabilizer as a set of shifts, orbit size)."""
    exps = tuple(None if e is None else int(2 * e) for e in exponents(point))
    images = {
        (a, b): normalize_exponents(
            tuple(None if e is None else e + s
                  for e, s in zip(exps, (2 * a, 2 * b, 0))), 2 * n)
        for a, b in product(range(n), repeat=2)
    }
    base = normalize_exponents(exps, 2 * n)
    stabilizer = {shift for shift, image in images.items() if image == base}
    return stabilizer, len(set(images.values()))


def generator_scan(subgroup, n):
    """The least (a, b) != (0, 0) whose multiples are the whole subgroup."""
    for a, b in sorted(subgroup - {(0, 0)}):
        if {((k * a) % n, (k * b) % n) for k in range(n)} == subgroup:
            return (a, b)
    assert n == 1
    return (0, 0)


class TestStabilizers:
    @pytest.mark.parametrize("family", ("P", "Q", "Qprime"))
    def test_matches_scan(self, family):
        for n in range(1, 17):
            for k in range(n):
                point = PointClass(family, k)
                stab, orbit = stabilizer_and_orbit_scan(point, n)
                assert stabilizer_subgroup(point, n) == stab
                assert stabilizer_generator(point, n) == generator_scan(stab, n)
                assert orbit_size(point, n) == orbit
                for a, b in product(range(-1, n + 1), repeat=2):
                    assert is_fixed_by(point, a, b, n) == ((a % n, b % n) in stab)

    def test_modulus_below_one_rejected(self):
        point = PointClass("P", 0)
        for fn in (stabilizer_subgroup, stabilizer_generator, orbit_size):
            with pytest.raises(ValueError):
                fn(point, 0)
        with pytest.raises(ValueError):
            is_fixed_by(point, 0, 0, 0)

    @pytest.mark.parametrize(
        "family,generator",
        [("P", (0, 1)), ("Q", (1, 0)), ("Qprime", (1, 1))],
    )
    def test_generators(self, family, generator):
        for n in (2, 3, 5, 7):
            for k in range(n):
                assert stabilizer_generator(PointClass(family, k), n) == generator

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orbit_stabilizer(self, n):
        for family in ("P", "Q", "Qprime"):
            point = PointClass(family, 0)
            stab = stabilizer_subgroup(point, n)
            assert len(stab) == n
            assert len(stab) * orbit_size(point, n) == n * n

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError, match="got 'R'$"):
            PointClass("R", 0)

    @pytest.mark.parametrize("value", (1.5, 2.0, True, Fraction(1)))
    def test_non_int_arguments_rejected(self, value):
        message = re.escape(repr(value))
        with pytest.raises(TypeError, match="k must be an int, got " + message):
            PointClass("P", value)
        point = PointClass("P", 1)
        for fn in (stabilizer_generator, stabilizer_subgroup, orbit_size):
            with pytest.raises(TypeError, match="n must be an int, got " + message):
                fn(point, value)
        with pytest.raises(TypeError, match=message):
            is_fixed_by(point, value, 0, 3)
        with pytest.raises(TypeError, match=message):
            is_fixed_by(point, 0, value, 3)
        with pytest.raises(TypeError, match="n must be an int, got " + message):
            is_fixed_by(point, 0, 0, value)

    def test_small_modulus_message_keeps_its_value(self):
        with pytest.raises(ValueError, match="got -2$"):
            orbit_size(PointClass("P", 1), -2)
        with pytest.raises(ValueError, match="got -1$"):
            PointClass("Q", -1)


class TestCoverRamification:
    def test_odd_n_unramified(self):
        ram = cover_ramification(5)
        assert ram.unramified
        assert ram.index == 1
        assert ram.points_above == 0

    def test_even_n_ramified_above_infinity(self):
        ram = cover_ramification(4)
        assert not ram.unramified
        assert ram.index == 2
        assert ram.points_above == 8
        assert len(ram.branched_fermat_points) == 4
        assert all(p.family == "Qprime" for p in ram.branched_fermat_points)

    def test_n_2_branch_points(self):
        ram = cover_ramification(2)
        assert ram.branched_fermat_points == (
            PointClass("Qprime", 0),
            PointClass("Qprime", 1),
        )

    def test_describe_is_stable(self):
        assert cover_ramification(3).describe() == "unramified"
        assert "8 points" in cover_ramification(4).describe()

    def test_matches_the_closed_form(self):
        """Odd n: unramified.  Even n: the n cusps over infinity each carry
        n/2 points, all with ramification index 2."""
        for n in range(2, 201):
            if n % 2 == 1:
                expected = CoverRamification(n, True, 1, None, 0)
                cusps = ()
            else:
                expected = CoverRamification(n, False, 2, "Qprime", n * n // 2)
                cusps = tuple(PointClass("Qprime", k) for k in range(n))
            ram = cover_ramification(n)
            assert ram == expected, n
            assert ram.branched_fermat_points == cusps, n
            assert ram.describe() == expected.describe(), n

    def test_large_n_builds_no_cusp(self, monkeypatch):
        def no_point_class(self):
            raise AssertionError("PointClass built")

        monkeypatch.setattr(PointClass, "__post_init__", no_point_class)
        ram = cover_ramification(10**6)
        assert ram.branched_family == "Qprime"
        assert ram.describe() == (
            "500000000000 points above infinity ramified with index 2 "
            "(1000000 branched cusps, 500000 points each)")
        with pytest.raises(AssertionError, match="PointClass built"):
            ram.branched_fermat_points


class TestModularAutOrder:
    @pytest.mark.parametrize("n,order", [(5, 750), (4, 128), (3, 162)])
    def test_orders(self, n, order):
        value, tag = modular_aut_order(n)
        assert value == order
        assert "S3" in tag if n % 2 else "Z/2" in tag

    def test_matches_the_parity_formula(self):
        """Oracle: all of S3 lifts for odd n, a Z/2 for even n."""
        for n in range(3, 201):
            if n % 2 == 1:
                expected = (6 * n**3, "Z/n . ((Z/n)^2 x| S3)")
            else:
                expected = (2 * n**3, "Z/n . ((Z/n)^2 x| Z/2)")
            assert modular_aut_order(n) == expected, n

    @pytest.mark.parametrize("n", (3.5, 4.0, True, Fraction(5)))
    def test_non_int_n_rejected(self, n):
        for fn in (modular_aut_order, cover_ramification):
            with pytest.raises(TypeError, match="n must be an int, got %s"
                               % re.escape(repr(n))):
                fn(n)


class TestConsistency:
    def test_even_quotient_claim(self):
        v = signature_consistency(4, (16, 4, 2), 128, "heisenberg")
        assert v.consistent and v.computed_genus == 13

    def test_odd_modular_claim(self):
        v = signature_consistency(5, (2, 3, 10), 750, "heisenberg")
        assert v.consistent and v.computed_genus == 26

    def test_known_inconsistent_claim(self):
        v = signature_consistency(5, (10, 3, 3), 150, "fermat")
        assert not v.consistent
        assert v.expected_genus == 6
        assert v.computed_genus is None  # RH gives an odd 2g-2

    def test_verdict_serializes(self):
        v = signature_consistency(4, (16, 4, 2), 128, "heisenberg")
        payload = json.loads(json.dumps(v.to_json_dict()))
        assert payload["consistent"] is True
        assert payload["signature"] == [16, 4, 2]
        assert set(payload) == {
            "claim", "signature", "order",
            "expected_genus", "computed_genus", "consistent",
        }

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="got 'nonsense'$"):
            signature_consistency(4, (2,), 2, "nonsense")


class TestAudit:
    def test_partition_of_verdicts(self):
        verdicts = audit_signature_claims(12)
        by_claim = {}
        for v in verdicts:
            by_claim.setdefault(v.claim.split(",")[0], []).append(v)
        for v in verdicts:
            if v.claim.startswith("claimed"):
                assert not v.consistent, v.claim
            else:
                assert v.consistent, v.claim

    def test_smallest_n_max(self):
        assert [v.claim for v in audit_signature_claims(3)] == [
            "Heisenberg tower signature (n,n,n), odd n=3"]
        with pytest.raises(ValueError, match="n_max"):
            audit_signature_claims(2)

    def test_deterministic(self):
        first = [v.to_json_dict() for v in audit_signature_claims(10)]
        second = [v.to_json_dict() for v in audit_signature_claims(10)]
        assert first == second

    @pytest.mark.parametrize("n_max", (3.5, 12.0, True, Fraction(12)))
    def test_non_int_n_max_rejected(self, n_max):
        with pytest.raises(TypeError, match="n_max must be an int, got %s"
                           % re.escape(repr(n_max))):
            audit_signature_claims(n_max)


class TestBounds:
    def test_defect_of_empty_list(self):
        assert ramification_defect(()) == Fraction(-2)

    def test_smallest_hyperbolic_defect(self):
        assert ramification_defect((2, 3, 7)) == Fraction(1, 42)

    def test_published_bound_values(self):
        assert b3(4) == Fraction(9, 56)
        assert b4(4) == Fraction(3, 20)
        assert m_bound(4) == Fraction(3, 4)

    def test_bounds_below_one_for_all_even_n(self):
        for n in range(4, 101, 2):
            assert b3(n) < 1
            assert b4(n) < 1
            assert m_bound(n) < 2

    def test_odd_n_rejected(self):
        for bound in (m_bound, b3, b4):
            with pytest.raises(ValueError, match="got 5$"):
                bound(5)

    @pytest.mark.parametrize("n", (4.0, 6.0, 3.5, True, Fraction(6)))
    def test_non_int_n_rejected(self, n):
        for bound in (m_bound, b3, b4):
            with pytest.raises(TypeError, match="n must be an int, got %s"
                               % re.escape(repr(n))):
                bound(n)


def group_elements(group):
    """Every ((i, j), perm) with (i, j) in (Z/n)^2 and perm in S3."""
    return [((i, j), perm)
            for i, j in product(range(group.n), repeat=2)
            for perm in permutations(range(3))]


def exhaustive_axiom_check(group):
    """Oracle: closure, identity, inverses and associativity over the whole
    multiplication table, |G|^3 lookups.  Raises AssertionError."""
    elems = group_elements(group)
    if len(set(elems)) != group.order:
        raise AssertionError("element list has duplicates")
    index = {g: i for i, g in enumerate(elems)}
    e_idx = index[group.identity()]
    table = []
    for g in elems:
        row = []
        for h in elems:
            gh = group.multiply(g, h)
            if gh not in index:
                raise AssertionError("not closed under multiplication")
            row.append(index[gh])
        table.append(row)
    for i, g in enumerate(elems):
        if table[i][e_idx] != i or table[e_idx][i] != i:
            raise AssertionError("identity fails")
        if table[i][index[group.inverse(g)]] != e_idx:
            raise AssertionError("inverse fails")
    size = len(elems)
    for i in range(size):
        row_i = table[i]
        for j in range(size):
            row_ij = table[row_i[j]]
            row_j = table[j]
            for k in range(size):
                if row_ij[k] != row_i[row_j[k]]:
                    raise AssertionError("associativity fails")
    return True


def _translate_first_coordinate(perm, pair, n):
    """Not linear: adds 1 to i whatever the symmetry."""
    return ((pair[0] + 1) % n, pair[1] % n)


def _swap_xy_acts_trivially(perm, pair, n, action=covers.symmetry_action):
    """Linear for each symmetry, but not a homomorphism from S3.  The real
    action is bound as a default argument, before the patch replaces it."""
    if perm == (1, 0, 2):
        return (pair[0] % n, pair[1] % n)
    return action(perm, pair, n)


def _collapse(perm, pair, n):
    """Sends every vector to 0, so no symmetry acts invertibly."""
    return (0, 0)


# the first check of verify_axioms that each broken action fails
FAILED_CHECK = {
    _translate_first_coordinate: "homomorphism",
    _swap_xy_acts_trivially: "homomorphism",
    _collapse: "invertible",
}


class TestFermatAutGroup:
    def test_order(self):
        assert build_fermat_aut(4, verify=False).order == 96

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_axioms_exhaustive(self, n):
        group = build_fermat_aut(n, verify=False)
        assert exhaustive_axiom_check(group)
        assert group.verify_axioms()

    @pytest.mark.parametrize(
        "action", (_translate_first_coordinate, _swap_xy_acts_trivially,
                   _collapse))
    def test_broken_action_fails_both_checks(self, monkeypatch, action):
        check = FAILED_CHECK[action]
        monkeypatch.setattr(covers, "symmetry_action", action)
        group = FermatAutGroup(3)
        with pytest.raises(AssertionError):
            exhaustive_axiom_check(group)
        with pytest.raises(GroupAxiomFailure) as info:
            group.verify_axioms()
        assert (info.value.n, info.value.check) == (3, check)
        with pytest.raises(GroupAxiomFailure, match="the %s check fails for "
                           "n = 3" % check):
            build_fermat_aut(3)

    def test_axiom_failure_is_exported(self):
        assert "GroupAxiomFailure" in heiscurve.__all__
        assert heiscurve.GroupAxiomFailure is GroupAxiomFailure

    def test_conjugation_matrices(self):
        n = 5
        assert symmetry_matrix("swap_xz", n) == ((n - 1, n - 1), (0, 1))
        assert symmetry_matrix("swap_xy", n) == ((0, 1), (1, 0))

    def test_translations_form_normal_abelian_part(self):
        group = FermatAutGroup(3)
        id_perm = (0, 1, 2)
        elements = group_elements(group)
        translations = [g for g in elements if g[1] == id_perm]
        assert len(translations) == 9
        for g in elements:
            for t in translations:
                conj = group.multiply(group.multiply(g, t), group.inverse(g))
                assert conj[1] == id_perm

    def test_action_respects_composition(self):
        from heiscurve.covers import _S3_PERMS, _compose_perms, symmetry_action

        n = 7
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for s1 in _S3_PERMS.values():
            for s2 in _S3_PERMS.values():
                composed = _compose_perms(s1, s2)
                for t in pairs:
                    assert symmetry_action(composed, t, n) == symmetry_action(
                        s1, symmetry_action(s2, t, n), n
                    )

    def test_cycle_matrix(self):
        n = 7
        assert symmetry_matrix("cycle_xyz", n) == ((n - 1, n - 1), (1, 0))

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="got 2$"):
            build_fermat_aut(2)

    @pytest.mark.parametrize("n", (3.5, 4.0, True, Fraction(4)))
    def test_non_int_n_rejected(self, n):
        with pytest.raises(TypeError, match="n must be an int, got %s"
                           % re.escape(repr(n))):
            build_fermat_aut(n)

    def test_large_n_builds_and_verifies(self):
        assert build_fermat_aut(10**6).order == 6 * 10**12
