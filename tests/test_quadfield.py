import copy
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from heiscurve import quadfield
from heiscurve.quadfield import (
    FieldMismatch,
    NotASquare,
    QuadNum,
    UnsupportedFactorization,
    _rational_roots,
    find_field_roots,
    poly_deflate,
    poly_eval,
    rational_sqrt,
    zeta3,
)

rationals = st.fractions(
    max_denominator=12,
    min_value=Fraction(-20),
    max_value=Fraction(20),
)
field_elems = st.builds(lambda p, q: QuadNum(p, q, -3), rationals, rationals)

big_rationals = st.builds(
    lambda n, m, neg: Fraction(-n if neg else n, m),
    st.integers(1 << 29, (1 << 80) - 1),
    st.integers(1 << 29, (1 << 80) - 1),
    st.booleans(),
)


def quad(p, q=0, d=-3):
    return QuadNum(Fraction(p), Fraction(q), d)


def _mul(a, b):
    out = [quad(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _expand(roots):
    """Coefficients of the product of (x - r) over the given roots."""
    coeffs = [quad(1)]
    for r in roots:
        coeffs = _mul(coeffs, [quad(-r), quad(1)])
    return coeffs


class TestConstruction:
    def test_rejects_positive_d(self):
        with pytest.raises(ValueError):
            QuadNum(Fraction(1), Fraction(0), 5)

    def test_rejects_non_squarefree_d(self):
        with pytest.raises(ValueError):
            QuadNum(Fraction(1), Fraction(0), -12)

    def test_rejects_mixed_fields(self):
        with pytest.raises(ValueError):
            quad(1, d=-3) + quad(1, d=-1)

    def test_integer_coercion(self):
        assert quad(2) + 3 == quad(5)
        assert 3 * quad(2) == quad(6)
        assert 1 - quad(2) == quad(-1)

    @pytest.mark.parametrize("d", [5, 0, -12, -4 * 1000003])
    def test_bad_d_rejected_every_time(self, d):
        # a rejected d is never recorded as checked
        for _ in range(2):
            with pytest.raises(ValueError, match="squarefree negative"):
                QuadNum(Fraction(1), Fraction(0), d)
            with pytest.raises(ValueError, match="squarefree negative"):
                QuadNum.of(1, d)
            with pytest.raises(ValueError, match="squarefree negative"):
                QuadNum.root(d)

    def test_d_checked_once_per_process(self, monkeypatch):
        calls = []
        is_squarefree = quadfield._is_squarefree
        monkeypatch.setattr(quadfield, "_VALID_D", set())
        monkeypatch.setattr(quadfield, "_is_squarefree",
                            lambda m: calls.append(m) or is_squarefree(m))
        x = QuadNum(Fraction(1, 2), Fraction(3), -1000003)
        y = QuadNum.of(5, -1000003) * x + QuadNum.root(-1000003)
        assert (y**3 / x).d == -1000003
        assert calls == [-1000003]

    @pytest.mark.parametrize("name", ["p", "q", "d"])
    def test_immutable(self, name):
        x = quad(1, 2)
        with pytest.raises(AttributeError):
            setattr(x, name, 7)
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.other = 1
        assert x == quad(1, 2)

    def test_pickle_and_copy(self):
        x = QuadNum(Fraction(1, 3), Fraction(-5, 6), -1000003)
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.deepcopy(x) == x and copy.copy(x) == x

    def test_rational_element_hashes_like_its_value(self):
        # regression: equal values must hash alike, or set lookups fail
        assert 3 in {QuadNum.of(3)}
        assert QuadNum.of(3) in {3}
        assert Fraction(1, 2) in {QuadNum.of(Fraction(1, 2))}
        assert hash(QuadNum.of(Fraction(-7, 2))) == hash(Fraction(-7, 2))
        assert quad(0, 1) in {quad(0, 1)}

    @settings(max_examples=50, deadline=None)
    @given(field_elems, field_elems)
    def test_equal_elements_hash_alike(self, a, b):
        c = a + b - b
        assert c == a and hash(c) == hash(a)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([-1, -3, -1000003]),
           st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2),
           st.lists(st.integers(1, 10**6), min_size=2, max_size=2))
    def test_integer_form(self, d, nums, dens):
        for q_den in dens:  # a shared denominator, then another
            x = QuadNum(Fraction(nums[0], dens[0]), Fraction(nums[1], q_den), d)
            a, b, m = x._ints()
            assert m > 0 and QuadNum(Fraction(a, m), Fraction(b, m), d) == x

    def test_of_rejects_another_field(self):
        x = QuadNum.of(1, -1)
        assert QuadNum.of(x, -1) is x
        with pytest.raises(FieldMismatch) as info:
            QuadNum.of(x, -3)
        assert (info.value.d, info.value.other_d) == (-3, -1)

    def test_arithmetic_rejects_another_field(self):
        with pytest.raises(FieldMismatch) as info:
            quad(1, 1) * QuadNum.of(2, -1)
        assert (info.value.d, info.value.other_d) == (-3, -1)
        with pytest.raises(FieldMismatch):
            quad(1) - QuadNum.of(1, -1)
        # equality across fields is an answer, not an error
        assert quad(1) != QuadNum.of(1, -1)

    def test_roots_not_taken_from_another_field(self):
        # regression: the coefficients used to pass through unchanged
        with pytest.raises(FieldMismatch):
            find_field_roots([QuadNum.of(1, -1)] * 2, d=-3)


def _squarefree_by_squares(m):
    """Reference: trial division by k^2 for every k <= sqrt(|m|)."""
    m = abs(m)
    k = 2
    while k * k <= m:
        if m % (k * k) == 0:
            return False
        k += 1
    return True


class TestSquarefree:
    def test_exhaustive_below_1e5(self):
        for m in range(1, 10**5):
            assert quadfield._is_squarefree(-m) == _squarefree_by_squares(m), m

    @given(st.integers(min_value=1, max_value=10**8))
    def test_matches_reference(self, m):
        assert quadfield._is_squarefree(-m) == _squarefree_by_squares(m)

    @pytest.mark.parametrize(
        "m", (10**18 + 9, (10**9 + 7) ** 2, 2 * 100003 * 1000003**2))
    def test_large(self, m):
        sympy = pytest.importorskip("sympy")
        expected = max(sympy.factorint(m).values()) == 1
        assert quadfield._is_squarefree(-m) == expected


class TestFieldAxioms:
    @given(field_elems, field_elems, field_elems)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(field_elems)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == quad(1)

    @given(field_elems)
    def test_norm_is_multiplicative_with_conjugate(self, a):
        assert a * a.conjugate() == QuadNum(a.norm(), Fraction(0), a.d)
        assert a.norm() >= 0  # imaginary field

    @pytest.mark.parametrize("x", [quad(2, -1), quad(Fraction(-1, 2), Fraction(1, 2)),
                                   QuadNum(Fraction(3, 7), Fraction(1, 5), -1000003)])
    def test_powers_match_repeated_multiplication(self, x):
        for k in range(-3, 9):
            base = x if k >= 0 else x.inverse()
            expected = QuadNum.of(1, x.d)
            for _ in range(abs(k)):
                expected = expected * base
            assert x**k == expected

    def test_powers_of_zero(self):
        assert quad(0) ** 0 == quad(1)
        assert quad(0) ** 5 == quad(0)
        with pytest.raises(ZeroDivisionError):
            quad(0) ** -1

    @given(field_elems, st.integers(-6, 6))
    def test_integer_powers(self, a, k):
        if a.is_zero() and k < 0:
            return
        expected = quad(1)
        base = a if k >= 0 else a.inverse()
        for _ in range(abs(k)):
            expected = expected * base
        assert a**k == expected


class TestZeta3:
    def test_cube_is_one(self):
        z = zeta3()
        assert z**3 == quad(1)
        assert z != quad(1)

    def test_minimal_polynomial(self):
        z = zeta3()
        assert z * z + z + 1 == quad(0)

    def test_requires_d_minus_3(self):
        with pytest.raises(ValueError):
            zeta3(-1)


class TestSqrt:
    def test_root_of_d(self):
        assert quad(-3).sqrt() == quad(0, 1)

    def test_negative_rational_multiple(self):
        assert quad(-432).sqrt() == quad(0, 12)

    def test_mixed_root(self):
        # sqrt of the cube root of unity is the sixth root (1 + sqrt(-3))/2
        assert zeta3().sqrt() == QuadNum(Fraction(1, 2), Fraction(1, 2), -3)

    def test_sign_convention(self):
        assert quad(4).sqrt() == quad(2)
        # (-(1 + sqrt -3))^2 = -2 + 2 sqrt -3; the root with positive
        # rational part is returned
        assert quad(-2, 2).sqrt() == quad(1, 1)
        assert quad(-3).sqrt() == quad(0, 1)

    def test_not_a_square(self):
        with pytest.raises(NotASquare):
            quad(2).sqrt()
        with pytest.raises(NotASquare):
            quad(0, 1).sqrt()  # sqrt(sqrt(-3)) needs a degree-4 extension

    @given(field_elems)
    def test_square_then_sqrt_roundtrip(self, a):
        r = (a * a).sqrt()
        assert r == a or r == -a

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(-1)) is None


class TestCubeRoots:
    def test_rational_root_first(self):
        assert quad(8).cube_roots() == [quad(2), quad(-1, 1), quad(-1, -1)]
        assert quad(8, 0, -1).cube_roots() == [quad(2, 0, -1)]

    def test_zero_trace_root(self):
        # sqrt(d) has trace 0; the trace cubic then has the root t = 0,
        # which the rational-root search does not report
        assert quad(0, -1, -1).cube_roots() == [quad(0, 1, -1)]
        assert quad(0, 1) in quad(0, -3).cube_roots()

    def test_conjugate_is_not_a_root(self):
        # 1 + 3i and 1 - 3i share the trace 2 and the norm 10, but only
        # the first cubes to -26 - 18i
        assert quad(-26, -18, -1).cube_roots() == [quad(1, 3, -1)]

    def test_no_root(self):
        assert quad(2).cube_roots() == []
        assert quad(1, 1).cube_roots() == []  # norm 4 is not a cube

    def test_zero(self):
        assert quad(0).cube_roots() == [quad(0)]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((-1, -3, -7)).flatmap(
        lambda d: st.tuples(rationals, rationals, st.just(d))))
    def test_planted_root_found(self, pqd):
        c = quad(*pqd)
        roots = (c**3).cube_roots()
        assert c in roots
        assert len(set(roots)) == len(roots) <= 3
        assert all(r**3 == c**3 for r in roots)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((-1, -3, -7)), rationals, rationals,
           st.sampled_from(("planted", "random", "p = 0, planted", "p = 0")))
    def test_root_count_matches_sympy(self, d, p, q, shape):
        sympy = pytest.importorskip("sympy")
        c, pure = quad(p, q, d), quad(0, q, d)
        value = {"planted": c**3, "random": c,
                 "p = 0, planted": pure**3, "p = 0": pure}[shape]
        assume(not value.is_zero())
        x = sympy.Symbol("x")
        v = (sympy.Rational(value.p.numerator, value.p.denominator)
             + sympy.Rational(value.q.numerator, value.q.denominator) * sympy.sqrt(d))
        factors = sympy.Poly(x**3 - v, x, extension=sympy.sqrt(d)).factor_list()[1]
        linear = sum(m for f, m in factors if f.degree() == 1)
        assert len(value.cube_roots()) == linear


class TestSerialization:
    @given(field_elems)
    def test_json_roundtrip(self, a):
        assert QuadNum.from_json_dict(a.to_json_dict()) == a

    def test_str_forms(self):
        assert str(quad(3)) == "3"
        assert str(quad(0, 1)) == "√-3"
        assert str(quad(2, -5)) == "2 - 5√-3"

    @pytest.mark.parametrize("x, text, rep, data", [
        (QuadNum(Fraction(-7, 2), 0, -3), "-7/2",
         "QuadNum(p=Fraction(-7, 2), q=Fraction(0, 1), d=-3)",
         {"p_num": -7, "p_den": 2, "q_num": 0, "q_den": 1, "d": -3}),
        (QuadNum(0, -1, -3), "-√-3",
         "QuadNum(p=Fraction(0, 1), q=Fraction(-1, 1), d=-3)",
         {"p_num": 0, "p_den": 1, "q_num": -1, "q_den": 1, "d": -3}),
        (QuadNum(Fraction(1, 3), Fraction(-5, 6), -1000003), "1/3 - 5/6√-1000003",
         "QuadNum(p=Fraction(1, 3), q=Fraction(-5, 6), d=-1000003)",
         {"p_num": 1, "p_den": 3, "q_num": -5, "q_den": 6, "d": -1000003}),
        (QuadNum(2, 1, -1), "2 + √-1",
         "QuadNum(p=Fraction(2, 1), q=Fraction(1, 1), d=-1)",
         {"p_num": 2, "p_den": 1, "q_num": 1, "q_den": 1, "d": -1}),
    ])
    def test_golden_forms(self, x, text, rep, data):
        assert str(x) == text
        assert repr(x) == rep
        assert x.to_json_dict() == data


class TestRootFinding:
    def test_division_polynomial_of_the_fermat_cubic(self):
        # 3x^4 - 5184x = 3x(x^3 - 1728)
        coeffs = [quad(0), quad(-5184), quad(0), quad(0), quad(3)]
        roots, outside = find_field_roots(coeffs)
        z = zeta3()
        assert outside == 0
        assert set(roots) == {quad(0), quad(12), 12 * z, 12 * z * z}

    def test_rational_cubic_without_rational_roots(self):
        # x^3 - 2 stays irreducible over the field
        roots, outside = find_field_roots([quad(-2), quad(0), quad(0), quad(1)])
        assert roots == []
        assert outside == 3

    def test_biquadratic_split(self):
        # (x^2 + 3)(x^2 - 2): one factor splits in the field, one does not
        coeffs = [quad(-6), quad(0), quad(1), quad(0), quad(1)]
        roots, outside = find_field_roots(coeffs)
        assert set(roots) == {quad(0, 1), quad(0, -1)}
        assert outside == 2

    def test_resolvent_split_with_odd_term(self):
        # (x^2 + x + 1)(x^2 + 2x + 4) = x^4 + 3x^3 + 7x^2 + 6x + 4,
        # no rational roots, all four roots in Q(sqrt -3)
        coeffs = [quad(4), quad(6), quad(7), quad(3), quad(1)]
        roots, outside = find_field_roots(coeffs)
        z = zeta3()
        assert outside == 0
        assert set(roots) == {z, z * z, 2 * z, 2 * z * z}

    def test_linear_and_quadratic(self):
        roots, outside = find_field_roots([quad(-6), quad(2)])
        assert roots == [quad(3)] and outside == 0
        roots, outside = find_field_roots([quad(3), quad(0), quad(1)])
        assert set(roots) == {quad(0, 1), quad(0, -1)} and outside == 0

    def test_irrational_coefficient_linear_root(self):
        # (x - sqrt(-3)) * (x - 1) has a mixed coefficient list
        s = quad(0, 1)
        coeffs = [s, -1 - s, quad(1)]
        roots, outside = find_field_roots(coeffs)
        assert set(roots) == {s, quad(1)}

    def test_unsupported_quartic(self):
        # x^4 + x + 1 is irreducible with non-real resolvent structure
        coeffs = [quad(1), quad(1), quad(0), quad(0), quad(1)]
        with pytest.raises(UnsupportedFactorization):
            find_field_roots(coeffs)

    def test_degree_bound(self):
        with pytest.raises(UnsupportedFactorization):
            find_field_roots([quad(1)] * 6)

    def test_deflate_checks_root(self):
        with pytest.raises(ValueError):
            poly_deflate([quad(1), quad(1)], quad(5))

    def test_poly_eval_short_lists(self):
        x = quad(2, 1)
        assert poly_eval([], x) == quad(0)
        assert isinstance(poly_eval([], x), QuadNum)
        assert poly_eval([quad(5, -1)], x) == quad(5, -1)
        assert poly_eval([7], x) == quad(7) and isinstance(poly_eval([7], x), QuadNum)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(field_elems, max_size=6), field_elems)
    def test_poly_eval_matches_naive_sum(self, coeffs, x):
        expected = quad(0)
        for i, c in enumerate(coeffs):
            expected = expected + c * x**i
        assert poly_eval(coeffs, x) == expected

    @given(field_elems, field_elems)
    def test_eval_after_deflate(self, r1, r2):
        # (x - r1)(x - r2) expanded, deflated by r1, evaluates to x - r2
        coeffs = [r1 * r2, -(r1 + r2), quad(1)]
        reduced = poly_deflate(coeffs, r1)
        assert poly_eval(reduced, r2) == quad(0)

    def test_rational_root_behind_an_irrational_leading_coefficient(self):
        # sqrt(-3) x^3 + (1 - sqrt(-3)) x^2 + (4 + sqrt(-3)) x - 5 - sqrt(-3):
        # the rational part x^2 + 4x - 5 has lower degree than the
        # polynomial, and x = 1 is a common root of both parts
        s = quad(0, 1)
        coeffs = [-5 - s, 4 + s, 1 - s, s]
        roots, outside = find_field_roots(coeffs)
        assert quad(1) in roots
        assert len(roots) + outside == 3
        for r in roots:
            assert poly_eval(coeffs, r).is_zero()

    def test_repeated_rational_roots(self):
        # (x - 2)^3 (x + 1/3) has a repeated root, so its squarefree part
        # is taken before any prime is chosen
        coeffs = _expand([Fraction(2)] * 3 + [Fraction(-1, 3)])
        roots, outside = find_field_roots(coeffs)
        assert Counter(roots) == Counter([quad(2)] * 3 + [quad(Fraction(-1, 3))])
        assert outside == 0
        assert _rational_roots([c.p for c in coeffs]) == [Fraction(-1, 3), Fraction(2)]

    def test_rational_roots_ordered_by_height(self):
        # the resolvent-cubic step uses the first root, so the order is fixed:
        # |numerator|, then denominator, positive before negative
        roots = [Fraction(-3, 2), Fraction(1, 2), Fraction(-1), Fraction(3, 2)]
        coeffs = [c.p for c in _expand(roots)]
        assert _rational_roots(coeffs) == [Fraction(-1), Fraction(1, 2),
                                           Fraction(3, 2), Fraction(-3, 2)]

    def test_no_rational_roots_from_a_root_mod_p(self):
        # x^2 - 7 and x^2 + 2 have simple roots mod 3 whose 3-adic lifts are
        # irrational, so every candidate fails the exact check
        assert _rational_roots([-7, 0, 1]) == []
        assert _rational_roots([2, 0, 1]) == []
        assert _rational_roots([1, 0, 1]) == []
        assert _rational_roots([0, 0, 5]) == []
        assert _rational_roots([7]) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_planted_rational_roots_come_back(self, data):
        pool = data.draw(st.lists(big_rationals, min_size=1, max_size=3)) + [Fraction(0)]
        extra = data.draw(st.sampled_from(["none", "quadratic", "irrational"]))
        room = {"none": 4, "quadratic": 2, "irrational": 3}[extra]
        planted = data.draw(st.lists(st.sampled_from(pool),
                                     min_size=1 if extra == "none" else 0,
                                     max_size=room))
        coeffs = _expand(planted)
        irrational_roots = []
        if extra == "quadratic":
            # (x - s)^2 - 2 t^2 has roots s +- t sqrt 2, outside Q(sqrt -3)
            s, t = data.draw(big_rationals), data.draw(big_rationals)
            coeffs = _mul(coeffs, [quad(s * s - 2 * t * t), quad(-2 * s), quad(1)])
        elif extra == "irrational":
            alpha = data.draw(field_elems.filter(lambda a: not a.is_rational()))
            coeffs = _mul(coeffs, [-alpha, quad(1)])
            irrational_roots.append(alpha)
        scale = data.draw(field_elems.filter(lambda a: not a.is_zero()))
        coeffs = [scale * c for c in coeffs]
        roots, outside = find_field_roots(coeffs)
        assert Counter(r for r in roots if r.is_rational()) == Counter(
            quad(r) for r in planted)
        assert [r for r in roots if not r.is_rational()] == irrational_roots
        assert outside == len(coeffs) - 1 - len(roots)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)), max_size=2),
           st.lists(rationals, min_size=5, max_size=5))
    def test_rational_roots_match_sympy(self, linear, rest):
        sympy = pytest.importorskip("sympy")
        # a random quartic, or a product with one or two linear factors
        coeffs = [quad(c) for c in rest[:5 - len(linear)]]
        if coeffs[-1].is_zero():
            coeffs[-1] = quad(1)
        for b, a in linear:
            coeffs = _mul(coeffs, [quad(b), quad(a)])
        coeffs = [c.p for c in coeffs]
        poly = sympy.Poly.from_list(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
            sympy.Symbol("x"), domain=sympy.QQ)
        expected = Counter()
        for factor, multiplicity in poly.factor_list()[1]:
            if factor.degree() == 1:
                a, b = factor.all_coeffs()
                root = -b / a
                expected[Fraction(int(root.p), int(root.q))] += multiplicity
        assert _rational_roots(coeffs) == sorted(
            (r for r in expected if r != 0),
            key=lambda r: (abs(r.numerator), r.denominator, r < 0))
        try:
            roots, _ = find_field_roots([quad(c) for c in coeffs])
        except UnsupportedFactorization:
            return
        assert Counter(r.p for r in roots if r.is_rational()) == expected

