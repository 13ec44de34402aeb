"""Independent checks of every job's output.

No check calls the heiscurve function under test: field arithmetic goes
through sympy's algebraic number fields (sympy 1.14), Heisenberg and word
results are recomputed from matrices and letter lists, and the closed forms
come from the mathematics (element orders, stabilizers, Riemann-Hurwitz).
This module never imports heiscurve.  A failed check raises OracleError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt

import sympy
from sympy import QQ

import workloads

LIFTING_FOR_ALL_N = ("id", "i1")
STABILIZER_GENERATOR = {"P": (0, 1), "Q": (1, 0), "Qprime": (1, 1)}


class OracleError(AssertionError):
    pass


def expect(condition, message):
    if not condition:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# Q(sqrt d) through sympy
# ---------------------------------------------------------------------------

class Field:
    """Q(sqrt d) as a sympy AlgebraicField."""

    _cache = {}

    def __new__(cls, d):
        if d not in cls._cache:
            self = super().__new__(cls)
            self.d = d
            self.K = QQ.algebraic_field(sympy.sqrt(d))
            self.root = self.K.from_sympy(sympy.sqrt(d))
            cls._cache[d] = self
        return cls._cache[d]

    def of(self, p, q=0):
        p, q = Fraction(p), Fraction(q)
        K = self.K
        return K.convert(QQ(p.numerator, p.denominator)) + \
            K.convert(QQ(q.numerator, q.denominator)) * self.root

    def pair(self, u):
        return self.of(u[0], u[1])

    def json(self, data):
        """A QuadNum in its to_json_dict form."""
        expect(data["d"] == self.d, "element of Q(sqrt %s) in Q(sqrt %d)" % (data["d"], self.d))
        return self.of(Fraction(data["p_num"], data["p_den"]),
                       Fraction(data["q_num"], data["q_den"]))

    def zero(self):
        return self.K.zero


X = sympy.Symbol("x")


def rational_sqrt(q):
    """The nonnegative rational square root of q, or None."""
    if q < 0:
        return None
    n, m = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(n, m) if n * n == q.numerator and m * m == q.denominator else None


def psi3_roots(F, A, B):
    """Roots in Q(sqrt d), with multiplicity, of the 3-division polynomial
    3x^4 + 6Ax^2 + 12Bx - A^2, A and B given as pairs (p, q), from sympy's
    factorization.  When A and B are rational it factors over Q, ten times
    faster than over the field: the roots in the field are then those of
    the linear factors and of the quadratic factors whose discriminant is d
    times a rational square (an irreducible factor of degree 3 or 4 has no
    root in a quadratic field)."""
    roots = []
    if A[1] == 0 and B[1] == 0:
        a, b = A[0], B[0]
        coeffs = [QQ(c.numerator, c.denominator) for c in (3, 0, 6 * a, 12 * b, -a * a)]
        for f, k in sympy.Poly.from_list(coeffs, X, domain=QQ).factor_list()[1]:
            c = [Fraction(int(v.numerator), int(v.denominator)) for v in f.rep.to_list()]
            if len(c) == 2:
                roots += [F.of(-c[1] / c[0])] * k
            elif len(c) == 3:
                s = rational_sqrt((c[1] * c[1] - 4 * c[0] * c[2]) / F.d)
                if s is not None:
                    roots += [F.of(-c[1] / (2 * c[0]), t * s / (2 * c[0])) for t in (1, -1)] * k
        return roots
    A, B = F.pair(A), F.pair(B)
    coeffs = [F.of(3), F.zero(), F.of(6) * A, F.of(12) * B, -A * A]
    for f, k in sympy.Poly.from_list(coeffs, X, domain=F.K).factor_list()[1]:
        c = f.rep.to_list()
        if len(c) == 2:
            roots += [-c[1] / c[0]] * k
    return roots


def is_square(F, r):
    """Whether r is a square in Q(sqrt d): t^2 - r has a linear factor."""
    factors = sympy.Poly.from_list([F.of(1), F.zero(), -r], X, domain=F.K).factor_list()[1]
    return any(f.degree() == 1 for f, _ in factors)


def j_of(F, A, B):
    four_a3 = F.of(4) * A * A * A
    return F.of(1728) * four_a3 / (four_a3 + F.of(27) * B * B)


def discriminant_zero(F, A, B):
    return F.of(4) * A * A * A + F.of(27) * B * B == F.zero()


# The classical modular polynomial Phi_3(X, Y): Phi_3(j(E), j(E')) = 0 when
# E and E' are 3-isogenous.  Symmetric; keys are (i, j) with i >= j.
PHI3 = {
    (4, 0): 1,
    (3, 3): -1,
    (3, 2): 2232,
    (3, 1): -1069956,
    (3, 0): 36864000,
    (2, 2): 2587918086,
    (2, 1): 8900222976000,
    (2, 0): 452984832000000,
    (1, 1): -770845966336000000,
    (1, 0): 1855425871872000000000,
}


def phi3(F, X, Y):
    total = F.zero()
    for (i, j), c in PHI3.items():
        term = F.of(c) * X**i * Y**j
        if i != j:
            term = term + F.of(c) * X**j * Y**i
        total = total + term
    return total


def group_add(F, A, P, Q):
    """Chord-tangent addition on y^2 = x^3 + Ax + B; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return None
        slope = (F.of(3) * x1 * x1 + A) / (F.of(2) * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return (x3, slope * (x1 - x3) - y1)


# ---------------------------------------------------------------------------
# Checks per job kind
# ---------------------------------------------------------------------------

def golden_c3():
    return json.loads(workloads.GOLDEN_C3.read_text())


def check_derive(job, out):
    expect(out == golden_c3(), "c3 derivation differs from the golden table")


def check_cli_c3(job, out):
    expect(out["code"] == 0, "heiscurve c3 exited %s" % out["code"])
    expect(json.loads(out["stdout"]) == golden_c3(),
           "heiscurve c3 --format json differs from the golden table")


def check_three_torsion(job, out):
    """Complete as well as correct: x_roots are the roots of psi_3 in the
    field over which the curve has a point, each with both points (x, +-y);
    missing_y counts the other roots in the field, missing_x the roots
    outside it."""
    F = Field(job["d"])
    A, B = F.pair(job["A"]), F.pair(job["B"])

    def rhs(x):
        return x * x * x + A * x + B

    roots = psi3_roots(F, job["A"], job["B"])
    x_roots = [F.json(x) for x in out["x_roots"]]
    unmatched = list(roots)
    for x in x_roots:
        expect(x in unmatched, "x_root is not a root of psi_3 in the field")
        unmatched.remove(x)
    for x in unmatched:
        expect(not is_square(F, rhs(x)), "3-torsion point in the field is missing")
    expect(out["missing_y"] == len(unmatched), "missing_y should be %d" % len(unmatched))
    expect(out["missing_x"] == 4 - len(roots), "missing_x should be %d" % (4 - len(roots)))
    points = [(F.json(x), F.json(y)) for x, y in out["points"]]
    expect(len(points) == 2 * len(x_roots), "not two torsion points per x_root")
    for x in x_roots:
        ys = [y for px, y in points if px == x]
        expect(len(ys) == 2 and ys[0] == -ys[1] and ys[0] * ys[0] == rhs(x),
               "the points over an x_root are not (x, +-y) on the curve")
    if job.get("x0") is not None:
        expect(F.pair(job["x0"]) in x_roots, "planted 3-torsion x0 not among x_roots")


def check_velu3(job, out):
    F = Field(job["d"])
    A, B = F.pair(job["A"]), F.pair(job["B"])
    A2, B2 = F.json(out["A"]), F.json(out["B"])
    expect(not discriminant_zero(F, A2, B2), "velu3 codomain is singular")
    expect(phi3(F, j_of(F, A, B), j_of(F, A2, B2)) == F.zero(),
           "velu3 codomain is not 3-isogenous to the domain (Phi_3 != 0)")


def check_j_invariant(job, out):
    F = Field(job["d"])
    expect(F.json(out) == j_of(F, F.pair(job["A"]), F.pair(job["B"])), "wrong j-invariant")


def check_classify_pair(job, out):
    F = Field(job["d"])
    A1, B1 = F.pair(job["A1"]), F.pair(job["B1"])
    A2, B2 = F.pair(job["A2"]), F.pair(job["B2"])
    kind = out["kind"]
    if job["relation"] == "isomorphic":
        expect(kind == "isomorphic", "isomorphic pair classified as %s" % kind)
        u = F.json(out["scale"])
        expect(u**4 * A1 == A2 and u**6 * B1 == B2, "isomorphism scale is wrong")
    elif job["relation"] == "twist":
        expect(kind == "quadratic-twist", "quadratic twist classified as %s" % kind)
        delta = F.json(out["scale"])
        expect(delta**2 * A1 == A2 and delta**3 * B1 == B2, "twisting scalar is wrong")
    elif j_of(F, A1, B1) != j_of(F, A2, B2):
        expect(kind == "distinct-j", "curves with distinct j classified as %s" % kind)
    else:
        expect(kind != "distinct-j", "curves with equal j classified as distinct-j")


def check_scalar_mul(job, out):
    F = Field(job["d"])
    A = F.pair(job["A"])
    P = (F.pair(job["x"]), F.pair(job["y"]))
    R = None
    for _ in range(job["k"]):
        R = group_add(F, A, R, P)
    got = None if out is None else (F.json(out[0]), F.json(out[1]))
    expect(got == R, "scalar multiple differs from repeated chord-tangent addition")


def check_hessian(job, out):
    x, y, z = sympy.symbols("x y z")
    f = sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j * z**k
            for (i, j, k), c in job["coeffs"])
    H = sympy.expand(sympy.hessian(f, (x, y, z)).det())
    expected = {tuple(m): Fraction(int(c.p), int(c.q))
                for m, c in sympy.Poly(H, x, y, z).terms() if c != 0}
    got = {tuple(m): Fraction(n, d) for m, (n, d) in out}
    expect(got == expected, "Hessian differs from sympy's determinant")


def check_lifts(job, out):
    expected = job["endo"] in LIFTING_FOR_ALL_N or job["n"] % 2 == 1
    expect(out is expected, "lifting of %s at n=%d should be %s"
           % (job["endo"], job["n"], expected))


def heisenberg_order(n, x, y, z):
    """m * n / gcd(n, c) with m = n / gcd(n, x, y), c = m z + m(m-1)/2 x y."""
    m = n // gcd(n, gcd(x, y))
    c = m * z + m * (m - 1) // 2 * x * y
    return m * n // gcd(n, c)


def check_order(job, out):
    n, (x, y, z) = job["n"], job["g"]
    expect(out == heisenberg_order(n, x % n, y % n, z % n), "wrong element order")


def _mat_mul(a, b, n):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) % n for j in range(3)]
            for i in range(3)]


def _mat_pow(m, k, n):
    result = [[int(i == j) for j in range(3)] for i in range(3)]
    while k:
        if k & 1:
            result = _mat_mul(result, m, n)
        m = _mat_mul(m, m, n)
        k >>= 1
    return result


def check_pow(job, out):
    n, (x, y, z), k = job["n"], job["g"], job["k"]
    if k < 0:  # inverse of a unitriangular matrix
        x, y, z, k = -x, -y, x * y - z, -k
    m = _mat_pow([[1, x % n, z % n], [0, 1, y % n], [0, 0, 1]], k, n)
    expect(out == [n, m[0][1], m[1][2], m[0][2]], "wrong power in H_n")


def check_eval_word(job, out):
    n = job["n"]
    x = y = z = 0
    for g, e in job["word"]:  # right-multiply by a^e = (e,0,0) or b^e = (0,e,0)
        if g == "a":
            x += e
        else:
            z += x * e
            y += e
    expect(out == [n, x % n, y % n, z % n], "wrong image of the word in H_n")


def check_word_pow(job, out):
    letters = workloads.to_letters(job["word"])
    k = job["k"]
    if k < 0:
        letters, k = tuple((g, -s) for g, s in reversed(letters)), -k
    expected = workloads.to_syllables(workloads.free_reduce(letters * k))
    expect([tuple(s) for s in out] == list(expected), "wrong word power")


COMMUTATOR = (("a", 1), ("b", 1), ("a", -1), ("b", -1))


def check_witness(job, out):
    # every composition of the two involutions is an automorphism of F_2,
    # and automorphisms send [a,b] to a conjugate of [a,b]^(+-1)
    expect(out is not None, "no conjugacy witness for an automorphism")
    images = {g: workloads.to_letters(job["images"][g]) for g in "ab"}
    image = workloads.substitute(images, COMMUTATOR)
    T = workloads.to_letters(out["T"])
    core = COMMUTATOR if out["sign"] == 1 else tuple((g, -s) for g, s in reversed(COMMUTATOR))
    T_inv = tuple((g, -s) for g, s in reversed(T))
    expect(workloads.free_reduce(T + core + T_inv) == image,
           "T [a,b]^sign T^-1 is not the image of [a,b]")


def check_stabilizer(job, out):
    expect(tuple(out) == STABILIZER_GENERATOR[job["family"]], "wrong stabilizer generator")


def check_orbit(job, out):
    expect(out == job["n"], "orbit size should be n")


def check_fermat_aut(job, out):
    n = job["n"]
    expect(out == {"n": n, "order": 6 * n * n}, "wrong Fermat automorphism group")


def fermat_genus(n):
    return (n - 1) * (n - 2) // 2


def heisenberg_genus(n):
    """Riemann-Hurwitz on the tower's own quotient signatures."""
    if n % 2:
        return workloads.rh_genus_value(0, n**3, (n, n, n))
    return workloads.rh_genus_value(0, 2 * n**3, (4 * n, n, 2))


def audit_claims(n_max):
    """(signature, order, target genus) of every audited claim, in order."""
    claims = []
    claims += [((2, 3, 2 * n), 6 * n * n, fermat_genus(n)) for n in range(4, n_max + 1)]
    claims += [((n, n, n), n**3, heisenberg_genus(n)) for n in range(3, n_max + 1, 2)]
    claims += [((4 * n, n, 2), 2 * n**3, heisenberg_genus(n)) for n in range(4, n_max + 1, 2)]
    claims += [((2 * n, 3, 3), 6 * n * n, fermat_genus(n)) for n in range(4, n_max + 1)]
    for n in range(5, n_max + 1, 2):
        claims.append(((2, 3, 2 * n), 6 * n**3, heisenberg_genus(n)))
        claims.append(((2, n, 2 * n), 6 * n**3, heisenberg_genus(n)))
    return claims


def check_audit(job, out):
    claims = audit_claims(job["n_max"])
    expect(len(out) == len(claims), "wrong number of audited claims")
    for verdict, (signature, order, target) in zip(out, claims):
        computed = workloads.rh_genus_value(0, order, signature) \
            if all(order % e == 0 for e in signature) else None
        expect(tuple(verdict["signature"]) == signature and verdict["order"] == order,
               "audit claim out of order: %s" % verdict["claim"])
        expect(verdict["expected_genus"] == target, "wrong target genus: %s" % verdict["claim"])
        expect(verdict["computed_genus"] == computed, "wrong RH genus: %s" % verdict["claim"])
        expect(verdict["consistent"] is (computed == target),
               "wrong verdict: %s" % verdict["claim"])


def check_heisenberg_genus(job, out):
    expect(out == heisenberg_genus(job["n"]), "wrong Heisenberg genus")


def check_rh_genus(job, out):
    expect(out == workloads.rh_genus_value(job["base_genus"], job["order"], job["indices"]),
           "wrong Riemann-Hurwitz genus")


CHECKS = {name[len("check_"):]: fn for name, fn in globals().items()
          if name.startswith("check_")}


# The jobs today's root finder rejects, the only ones that may end in a
# documented math error, and only in this one: the irrational c3 codomains
# and the irrational planted and random torsion_scan curves.
REJECTED_FAMILIES = ("c3_row1", "c3_row2", "irrational", "random")
REJECTED_WITH = "UnsupportedFactorization"


def check(job, out):
    """Raise OracleError unless out is a correct output of the job.  A
    documented math error ({"error": name}) is accepted only from the
    rejected families; run.py counts it as a failed job."""
    if isinstance(out, dict) and set(out) == {"error"}:
        expect(job.get("family") in REJECTED_FAMILIES and out["error"] == REJECTED_WITH,
               "%s failed with %s" % (job["kind"], out["error"]))
        return
    CHECKS[job["kind"]](job, out)
