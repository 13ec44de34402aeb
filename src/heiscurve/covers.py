"""Riemann-Hurwitz bookkeeping for the tower over the projective line.

The objects here are purely combinatorial: genera, Galois-group orders and
multisets of ramification indices.  Everything is computed in exact rational
arithmetic and integrality of a genus is an explicitly checked postcondition,
because the main job of this module is auditing signature claims, including
at least one known-inconsistent one (see audit_signature_claims).

Triangle/Fuchsian signatures appear only as lists of periods; no hyperbolic
geometry is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .errors import HeiscurveError, _int_at_least, _iterable
from .heisenberg import HeisenbergElement
from .words import S3_ENDOS, lifts_to_heisenberg_cover


class NonIntegerGenus(ArithmeticError, HeiscurveError):
    """Riemann-Hurwitz data that does not yield a nonnegative integer genus."""


class GroupAxiomFailure(ArithmeticError, HeiscurveError):
    """FermatAutGroup(n) fails one of the checks of verify_axioms, named by
    check: "invertible", "homomorphism", "identity" or "inverse"."""

    def __init__(self, n, check, detail):
        super().__init__("the %s check fails for n = %d: %s" % (check, n, detail))
        self.n = n
        self.check = check


@dataclass(frozen=True)
class RamificationData:
    """Base genus, Galois group order and branch indices of a Galois cover."""

    base_genus: int
    group_order: int
    indices: tuple = ()

    def __post_init__(self):
        try:
            indices = tuple(self.indices)
        except TypeError:
            raise TypeError("indices must be an iterable of ints, got %r"
                            % (self.indices,)) from None
        object.__setattr__(self, "indices", indices)
        _int_at_least(self.base_genus, 0, "base_genus")
        _int_at_least(self.group_order, 1, "group_order")
        for e in self.indices:
            _int_at_least(e, 2, "ramification index")
            if self.group_order % e != 0:
                raise ValueError(
                    "index %d does not divide the group order %d"
                    % (e, self.group_order)
                )


def ramification_defect(indices):
    """-2 + sum(1 - 1/e) over the indices; -2 for the empty list."""
    return sum((Fraction(e - 1, e) for e in indices), Fraction(-2))


def rh_genus(data):
    """Genus of the cover: 2g - 2 = |G| * (2*g_base + ramification_defect),
    which is |G| * (2*g_base - 2 + sum(1 - 1/e_i))."""
    doubled = data.group_order * (
        2 * data.base_genus + ramification_defect(data.indices))
    g = (doubled + 2) / 2
    if g.denominator != 1 or g < 0:
        raise NonIntegerGenus(
            "2g-2 = %s gives no nonnegative integer genus" % (doubled,)
        )
    return int(g)


def fermat_genus(n):
    """(n-1)(n-2)/2."""
    _int_at_least(n, 1)
    return (n - 1) * (n - 2) // 2


def heisenberg_genus(n):
    """n^2(n-3)/2 + 1 for odd n; an extra n^2/4 for even n."""
    _int_at_least(n, 2)
    doubled = n * n * (n - 3)  # always even: n^2(n-3) has an even factor
    g = doubled // 2 + 1
    if n % 2 == 0:
        g += n * n // 4
    return g


# ---------------------------------------------------------------------------
# Branch points of the Fermat curve over {0, 1, infinity} and their
# stabilizers under the (Z/n)^2 action (X:Y:Z) -> (zeta^a X : zeta^b Y : Z).
#
# A shift (a, b) changes the exponent differences of P_k by a, of Q_k by b
# and of Q'_k by a - b, so each stabilizer is the cyclic group of order n
# generated by the vector below, and every orbit has n^2 / n = n points.
# ---------------------------------------------------------------------------

FAMILIES = ("P", "Q", "Qprime")

_STABILIZER_GENERATORS = {"P": (0, 1), "Q": (1, 0), "Qprime": (1, 1)}


@dataclass(frozen=True)
class PointClass:
    """One of the 3n labelled points: P_k over 1, Q_k over 0, Q'_k over oo."""

    family: str
    k: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("family must be one of %s, got %r"
                             % (FAMILIES, self.family))
        _int_at_least(self.k, 0, "k")


def is_fixed_by(point, a, b, n):
    """Whether the shift (a, b) fixes the point.  The stabilizer generator
    (u, v) is primitive, so (a, b) is a multiple of it exactly when the
    determinant a*v - b*u vanishes mod n."""
    _int_at_least(a, None, "a")
    _int_at_least(b, None, "b")
    u, v = stabilizer_generator(point, n)
    return (a * v - b * u) % n == 0


def stabilizer_subgroup(point, n):
    """All (a, b) in (Z/n)^2 fixing the point."""
    u, v = stabilizer_generator(point, n)
    return {((t * u) % n, (t * v) % n) for t in range(n)}


def orbit_size(point, n):
    """Size of the orbit under (Z/n)^2: n^2 / |stabilizer| = n."""
    _int_at_least(n, 1)
    return n


def stabilizer_generator(point, n):
    """A generator of the (cyclic, order n) stabilizer of the point."""
    _int_at_least(n, 1)
    u, v = _STABILIZER_GENERATORS[point.family]
    return (u % n, v % n)


@dataclass(frozen=True)
class CoverRamification:
    """Ramification of the degree-n central cover of the Fermat curve."""

    n: int
    unramified: bool
    index: int
    branched_family: str | None  # family of the branched cusps, if any
    points_above: int  # total points of the cover on the ramified fibers

    @property
    def branched_fermat_points(self):
        """The n branched cusps, built when asked."""
        if self.branched_family is None:
            return ()
        return tuple(PointClass(self.branched_family, k) for k in range(self.n))

    def describe(self):
        if self.unramified:
            return "unramified"
        return (
            "%d points above infinity ramified with index %d "
            "(%d branched cusps, %d points each)"
            % (self.points_above, self.index, self.n,
               self.points_above // self.n)
        )


def cover_ramification(n):
    """Ramification read off the branch generators of H_n over P^1.

    The stabilizer generator (u, v) of a family lifts to the branch
    generator (u, v, 0) of H_n.  A family whose lift has order above n is
    ramified over its n cusps with index order/n, and n^3/order points of
    the cover lie above them.  Only the lift (1, 1, 0) of Q' can exceed
    order n, and it does exactly for even n: odd n gives an unramified
    cover, even n index 2 and n/2 points over each cusp at infinity.
    """
    _int_at_least(n, 2)
    for family, (u, v) in _STABILIZER_GENERATORS.items():
        order = HeisenbergElement(n, u, v, 0).order()
        if order > n:
            return CoverRamification(n, False, order // n, family, n**3 // order)
    return CoverRamification(n, True, 1, None, 0)


def modular_aut_order(n):
    """Order |L| n^3 of the modular automorphism group and a structure tag.

    The group is an extension of (Z/n)^2 x| L by a central Z/n, where L is
    the subgroup of S3 whose symmetries of {0, 1, oo} lift to the
    Heisenberg cover, as lifts_to_heisenberg_cover decides on S3_ENDOS.
    """
    _int_at_least(n, 3)
    lifting = sum(lifts_to_heisenberg_cover(endo, n) for endo in S3_ENDOS.values())
    return (lifting * n**3,
            "Z/n . ((Z/n)^2 x| %s)" % ("S3" if lifting == 6 else "Z/2"))


@dataclass(frozen=True)
class Verdict:
    """Outcome of auditing one signature claim; inconsistency is data."""

    claim: str
    signature: tuple
    order: int
    expected_genus: int
    computed_genus: object  # int, or None when RH yields no integer genus
    consistent: bool

    def to_json_dict(self):
        return {
            "claim": self.claim,
            "signature": list(self.signature),
            "order": self.order,
            "expected_genus": self.expected_genus,
            "computed_genus": self.computed_genus,
            "consistent": self.consistent,
        }


def signature_consistency(n, signature, order, target, claim=""):
    """Check a genus-0 quotient signature against the named curve's genus.

    target is "fermat" or "heisenberg"; the verdict records the computed
    genus (None if Riemann-Hurwitz yields no integer) and never raises.
    """
    if target == "fermat":
        expected = fermat_genus(n)
    elif target == "heisenberg":
        expected = heisenberg_genus(n)
    else:
        raise ValueError("target must be 'fermat' or 'heisenberg', got %r"
                         % (target,))
    _iterable(signature, "signature", "ints")
    signature = tuple(signature)
    try:
        computed = rh_genus(RamificationData(0, order, signature))
    except (NonIntegerGenus, ValueError):
        computed = None
    return Verdict(
        claim=claim or "signature %s, order %d vs g_%s(%d)" % (
            signature, order, target, n),
        signature=signature,
        order=order,
        expected_genus=expected,
        computed_genus=computed,
        consistent=computed == expected,
    )


def _signature_verdicts(n_max):
    """Yield the verdicts of audit_signature_claims(n_max) one at a time,
    in the same order.  n_max is checked before the first verdict."""
    _int_at_least(n_max, None, "n_max")
    if n_max < 3:
        raise ValueError("n_max must be at least 3, the smallest n with a "
                         "recorded claim; got %r" % (n_max,))
    for n in range(4, n_max + 1):
        yield signature_consistency(
            n, (2, 3, 2 * n), 6 * n * n, "fermat",
            "Fermat quotient signature (2,3,2n), n=%d" % n)
    for n in range(3, n_max + 1, 2):
        yield signature_consistency(
            n, (n, n, n), n**3, "heisenberg",
            "Heisenberg tower signature (n,n,n), odd n=%d" % n)
    for n in range(4, n_max + 1, 2):
        yield signature_consistency(
            n, (4 * n, n, 2), 2 * n**3, "heisenberg",
            "Heisenberg quotient signature (4n,n,2), even n=%d" % n)
    for n in range(4, n_max + 1):
        yield signature_consistency(
            n, (2 * n, 3, 3), 6 * n * n, "fermat",
            "claimed Fermat quotient signature (2n,3,3), n=%d" % n)
    for n in range(5, n_max + 1, 2):
        yield signature_consistency(
            n, (2, 3, 2 * n), 6 * n**3, "heisenberg",
            "Heisenberg normalizer order 6n^3 with (2,3,2n), odd n=%d" % n)
        yield signature_consistency(
            n, (2, n, 2 * n), 6 * n**3, "heisenberg",
            "claimed normalizer signature (2,n,2n), odd n=%d" % n)


def audit_signature_claims(n_max=12):
    """Audit every quotient-signature claim used by the genus bookkeeping.

    The (2n,3,3) quotient signature for the full Fermat automorphism group
    is recorded here although it is Riemann-Hurwitz inconsistent; the
    consistent variant is (2,3,2n).  Likewise the (2,n,2n) normalizer
    signature for odd n is recorded next to the consistent (2,3,2n): the
    order 6n^3 matches only the latter.  Both tensions are reported as
    verdicts, not adjudicated.  The first claim is at n = 3, so n_max < 3
    raises ValueError.
    """
    return list(_signature_verdicts(n_max))


# ---------------------------------------------------------------------------
# Bounds from the automorphism-group order argument (even n).
# ---------------------------------------------------------------------------

def _check_bound_n(n):
    _int_at_least(n, None)
    if n < 4 or n % 2 != 0:
        raise ValueError("the bound applies to even n >= 4, got %r" % (n,))


def m_bound(n):
    """Upper bound 2 - 5/n for the index m in the order argument."""
    _check_bound_n(n)
    return Fraction(2) - Fraction(5, n)


def b3(n):
    """Bound 3(2n-5) / (n(3n+2)) for the period-3 case."""
    _check_bound_n(n)
    return Fraction(3 * (2 * n - 5), n * (3 * n + 2))


def b4(n):
    """Bound (2n-5) / (n^2+n) for the period-4 case."""
    _check_bound_n(n)
    return Fraction(2 * n - 5, n * n + n)


# ---------------------------------------------------------------------------
# The Fermat automorphism group (Z/n)^2 x| S3, with S3 acting by coordinate
# permutations of (X : Y : Z).  A symmetry is stored as the permutation
# sending slot i of the new coordinate vector to old slot perm[i]; its
# action on translation pairs (i, j) falls out of exponent arithmetic, and
# the 2x2 matrix of symmetry_matrix acts on *row* vectors (i, j).
# ---------------------------------------------------------------------------

# each with the fractional-linear map it induces on the base line
_S3_PERMS = {
    "id": (0, 1, 2),  # x
    "swap_xy": (1, 0, 2),  # 1 - x
    "swap_xz": (2, 1, 0),  # 1/x
    "swap_yz": (0, 2, 1),  # x/(x - 1)
    "cycle_xyz": (1, 2, 0),  # 1/(1 - x)
    "cycle_xzy": (2, 0, 1),  # (x - 1)/x
}

_PERM_NAMES = {perm: name for name, perm in _S3_PERMS.items()}


def _compose_perms(s, t):
    """Permutation of (s after t): w[i] = v[t[s[i]]]."""
    return (t[s[0]], t[s[1]], t[s[2]])


def symmetry_action(perm, pair, n):
    """Image of the translation pair (i, j) under conjugation by perm;
    n must be an int (not a bool) >= 1."""
    # the inline test keeps verify_axioms fast; the check words the error
    if type(n) is not int or n < 1:
        _int_at_least(n, 1)
    v = (pair[0], pair[1], 0)
    w = tuple(v[perm[i]] for i in range(3))
    return ((w[0] - w[2]) % n, (w[1] - w[2]) % n)


def symmetry_matrix(name, n):
    """Conjugation matrix on (Z/n)^2, acting on row vectors."""
    perm = _S3_PERMS[name]
    row0 = symmetry_action(perm, (1, 0), n)
    row1 = symmetry_action(perm, (0, 1), n)
    return (row0, row1)


@dataclass(frozen=True)
class FermatAutGroup:
    """The order-6n^2 automorphism group, elements ((i, j), perm)."""

    n: int

    def __post_init__(self):
        _int_at_least(self.n, 3)

    @property
    def order(self):
        return 6 * self.n * self.n

    def identity(self):
        return ((0, 0), _S3_PERMS["id"])

    def multiply(self, g, h):
        (t1, s1), (t2, s2) = g, h
        moved = symmetry_action(s1, t2, self.n)
        return (
            ((t1[0] + moved[0]) % self.n, (t1[1] + moved[1]) % self.n),
            _compose_perms(s1, s2),
        )

    def inverse(self, g):
        t, s = g
        s_inv = tuple(s.index(i) for i in range(3))
        back = symmetry_action(s_inv, t, self.n)
        return ((-back[0] % self.n, -back[1] % self.n), s_inv)

    def verify_axioms(self):
        """Verify that multiply, identity and inverse define a group.

        The product ((i, j), s) * ((k, l), t) = ((i, j) + s.(k, l), s t) is
        the semidirect product (Z/n)^2 x| S3, hence associative, exactly
        when each symmetry acts by an automorphism of (Z/n)^2 and
        s -> (action of s) is a homomorphism.  symmetry_action permutes and
        subtracts coordinates, so it is linear, and both facts are read off
        the basis vectors: each of the six matrices is invertible mod n, and
        the action of s t equals that of s after t for all 36 pairs (s, t).
        The identity and inverse are then checked on (basis vector, s) for
        every s.  Raises GroupAxiomFailure on the first failure.
        """
        n = self.n
        basis = ((1, 0), (0, 1))
        for name in _S3_PERMS:
            (a, b), (c, d) = symmetry_matrix(name, n)
            if gcd(a * d - b * c, n) != 1:
                raise GroupAxiomFailure(n, "invertible", "%s is not invertible "
                                        "mod %d" % (name, n))
        for s, t in product(_S3_PERMS.values(), repeat=2):
            st = _compose_perms(s, t)
            for v in basis:
                if symmetry_action(st, v, n) != symmetry_action(
                        s, symmetry_action(t, v, n), n):
                    raise GroupAxiomFailure(
                        n, "homomorphism",
                        "the action of %s after %s is not that of their product"
                        % (_PERM_NAMES[s], _PERM_NAMES[t]))
        e = self.identity()
        for s, v in product(_S3_PERMS.values(), basis):
            g = (v, s)
            if self.multiply(g, e) != g or self.multiply(e, g) != g:
                raise GroupAxiomFailure(n, "identity", "g e or e g is not g "
                                        "for g = %r" % (g,))
            if self.multiply(g, self.inverse(g)) != e:
                raise GroupAxiomFailure(n, "inverse", "g g^-1 is not e for "
                                        "g = %r" % (g,))
        return True


def build_fermat_aut(n, verify=True):
    """Construct the group; verify=True (the default) checks its axioms."""
    group = FermatAutGroup(n)
    if verify:
        group.verify_axioms()
    return group
