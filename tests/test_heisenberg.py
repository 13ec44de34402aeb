import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from heiscurve.heisenberg import (
    HeisenbergElement,
    ModulusMismatch,
    commutator,
    enumerate_group,
)


def matmul_mod(m1, m2, n):
    """Independent oracle: plain 3x3 integer matrix product mod n."""
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(3)) % n for j in range(3))
        for i in range(3)
    )


def as_matrix(g):
    return tuple(tuple(v % g.n for v in row) for row in g.matrix())


def repeated_mul(g, v):
    acc = HeisenbergElement.identity(g.n)
    for _ in range(v):
        acc = acc * g
    return acc


def order_by_repeated_mul(g):
    """Oracle: the first v >= 1 with g^v = 1, by repeated multiplication."""
    acc = g
    for v in range(1, g.n * g.n + 1):
        if acc.is_identity():
            return v
        acc = acc * g
    raise AssertionError("order exceeds n^2")


small_n = st.integers(min_value=1, max_value=8)


@st.composite
def elements(draw, n=None):
    if n is None:
        n = draw(small_n)
    x, y, z = (draw(st.integers(0, n - 1)) for _ in range(3))
    return HeisenbergElement(n, x, y, z)


class TestMul:
    def test_matches_matrix_oracle_exhaustively(self):
        for n in range(1, 5):
            for g in enumerate_group(n):
                for h in enumerate_group(n):
                    assert as_matrix(g * h) == matmul_mod(
                        as_matrix(g), as_matrix(h), n
                    )

    def test_noncommutative_mod_2(self):
        a = HeisenbergElement.generator_a(2)
        b = HeisenbergElement.generator_b(2)
        assert a * b == HeisenbergElement(2, 1, 1, 1)
        assert b * a == HeisenbergElement(2, 1, 1, 0)

    @given(elements())
    def test_identity_neutral(self, g):
        e = HeisenbergElement.identity(g.n)
        assert g * e == g
        assert e * g == g

    def test_commutator_of_generators(self):
        a = HeisenbergElement.generator_a(5)
        b = HeisenbergElement.generator_b(5)
        assert commutator(a, b) == HeisenbergElement.central(5, 1)

    def test_commutators_are_central(self):
        for n in (2, 3, 4):
            for g in enumerate_group(n):
                for h in enumerate_group(n):
                    assert commutator(g, h).is_central()

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ModulusMismatch):
            HeisenbergElement.identity(3) * HeisenbergElement.identity(5)

    @pytest.mark.parametrize("args, message", [
        ((True, 1, 1, 1), "n must be an int, got True"),
        ((3.0, 1, 1, 1), "n must be an int, got 3.0"),
        ((3, 1.5, 0, 0), "x must be an int, got 1.5"),
        ((3, 0, Fraction(1), 0), r"y must be an int, got Fraction\(1, 1\)"),
        ((3, 0, 0, False), "z must be an int, got False"),
    ])
    def test_non_int_entries_rejected(self, args, message):
        with pytest.raises(TypeError, match="HeisenbergElement " + message):
            HeisenbergElement(*args)

    @pytest.mark.parametrize("n", (0, -2))
    def test_modulus_below_one_rejected(self, n):
        with pytest.raises(ValueError) as info:
            HeisenbergElement(n, 0, 0, 0)
        assert str(info.value) == "n must be >= 1, got %d" % n

    def test_associative_exhaustive_small(self):
        for n in (2, 3):
            group = list(enumerate_group(n))
            for g, h, k in product(group, repeat=3):
                assert (g * h) * k == g * (h * k)

    @given(st.data())
    def test_associative_random(self, data):
        n = data.draw(small_n)
        g, h, k = (data.draw(elements(n)) for _ in range(3))
        assert (g * h) * k == g * (h * k)

    def test_inverses_exist_exhaustive(self):
        for n in range(1, 9):
            for g in enumerate_group(n):
                assert (g * g.inverse()).is_identity()
                assert (g.inverse() * g).is_identity()


class TestPow:
    def test_nontrivial_nth_power_even_n(self):
        g = HeisenbergElement(4, 1, 1, 0)
        assert g**4 == HeisenbergElement.central(4, 2)

    def test_trivial_nth_power_odd_n(self):
        g = HeisenbergElement(5, 1, 1, 0)
        assert (g**5).is_identity()

    @given(elements())
    def test_zeroth_power_is_identity(self, g):
        assert (g**0).is_identity()

    def test_matches_repeated_mul(self):
        for n in range(1, 9):
            for g in enumerate_group(n):
                for v in range(0, 2 * n + 1):
                    assert g**v == repeated_mul(g, v)

    @given(elements(), st.integers(-20, 20))
    def test_negative_exponents(self, g, v):
        assert g**-v == (g**v).inverse()


@st.composite
def mixed_parity_elements(draw):
    """Even n, with the parities of x and y drawn independently: there the
    halved corner term m(m-1)/2 * x*y of the closed form can double the
    order, as it does for (1, 1, 0)."""
    n = 2 * draw(st.integers(1, 32))
    x, y = (2 * draw(st.integers(0, n // 2 - 1)) + draw(st.integers(0, 1))
            for _ in range(2))
    return HeisenbergElement(n, x, y, draw(st.integers(0, n - 1)))


class TestOrder:
    def test_matches_repeated_mul_exhaustively(self):
        for n in range(1, 13):
            for g in enumerate_group(n):
                assert g.order() == order_by_repeated_mul(g)

    @given(st.integers(1, 64).flatmap(elements))
    def test_matches_repeated_mul_up_to_64(self, g):
        assert g.order() == order_by_repeated_mul(g)

    @given(mixed_parity_elements())
    def test_matches_repeated_mul_mixed_parity(self, g):
        assert g.order() == order_by_repeated_mul(g)

    def test_golden_orders(self):
        assert HeisenbergElement(4, 1, 1, 0).order() == 8
        assert HeisenbergElement(5, 1, 0, 0).order() == 5

    def test_central_generator_order_by_repeated_mul(self):
        g = HeisenbergElement.central(6, 1)
        acc = g
        count = 1
        while not acc.is_identity():
            acc = acc * g
            count += 1
        assert g.order() == count == 6

    def test_max_order_odd_n(self):
        for n in (3, 5, 7, 9, 11):
            assert max(g.order() for g in enumerate_group(n)) == n

    def test_max_order_even_n(self):
        for n in (2, 4, 6, 8, 10, 12):
            orders = {g: g.order() for g in enumerate_group(n)}
            assert max(orders.values()) == 2 * n
            for z in range(n):
                assert orders[HeisenbergElement(n, 1, 1, z)] == 2 * n


class TestAbelianize:
    def test_generator_images(self):
        assert HeisenbergElement.generator_a(7).abelianize() == (1, 0)
        assert HeisenbergElement.generator_b(7).abelianize() == (0, 1)

    def test_central_elements_die(self):
        assert HeisenbergElement.central(5, 3).abelianize() == (0, 0)

    def test_homomorphism_exhaustive_mod_3(self):
        group = list(enumerate_group(3))
        for g in group:
            for h in group:
                gx, gy = g.abelianize()
                hx, hy = h.abelianize()
                assert (g * h).abelianize() == ((gx + hx) % 3, (gy + hy) % 3)

    def test_kernel_is_the_center(self):
        for n in (2, 3, 5):
            kernel = {g for g in enumerate_group(n) if g.abelianize() == (0, 0)}
            assert kernel == {HeisenbergElement.central(n, z) for z in range(n)}
            assert len(kernel) == n


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 8), (3, 27)])
    def test_counts(self, n, count):
        group = list(enumerate_group(n))
        assert len(group) == count
        assert len(set(group)) == count

    def test_lazy_in_lexicographic_order(self):
        # 10^18 elements; a copy of range(n) alone would take about 36 MB
        n = 10**6
        tracemalloc.start()
        try:
            elements = enumerate_group(n)
            first = [next(elements) for _ in range(3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [HeisenbergElement(n, 0, 0, z) for z in range(3)]
        assert peak < 100_000

    @pytest.mark.parametrize("n, message", [
        (2.0, "n must be an int, got 2.0"),
        (True, "n must be an int, got True"),
        ("3", "n must be an int, got '3'"),
    ])
    def test_non_int_modulus_rejected(self, n, message):
        with pytest.raises(TypeError) as info:
            enumerate_group(n)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", (0, -2))
    def test_modulus_below_one_rejected(self, n):
        with pytest.raises(ValueError) as info:
            enumerate_group(n)
        assert str(info.value) == "n must be >= 1, got %d" % n


class TestDihedralStructure:
    def test_mod_2_group_satisfies_dihedral_presentation(self):
        rotation = HeisenbergElement(2, 1, 1, 0)
        reflection = HeisenbergElement(2, 1, 0, 0)
        assert rotation.order() == 4
        assert reflection.order() == 2
        assert reflection * rotation * reflection == rotation.inverse()

    def test_mod_2_order_statistics_match_dihedral(self):
        orders = sorted(g.order() for g in enumerate_group(2))
        assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
