import pytest
from hypothesis import given, settings, strategies as st

from heiscurve.heisenberg import HeisenbergElement
from heiscurve.words import (
    A,
    B,
    COMMUTATOR,
    Endo,
    IDENTITY_ENDO,
    S3_ENDOS,
    Word,
    commutator_conjugacy_witness,
    eval_in_abelianization,
    eval_in_heisenberg,
    heisenberg_kernel_generators,
    in_abelianized_kernel,
    in_heisenberg_kernel,
    lifts_to_heisenberg_cover,
    nielsen_commutator_check,
)

raw_words = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-3, 3)), max_size=8
).map(lambda items: Word(tuple(items)))

small_n = st.integers(min_value=1, max_value=8)


class TestReduction:
    def test_full_cancellation(self):
        assert Word.from_str("abBA").is_identity()

    def test_merging(self):
        assert Word.from_str("aaa") == Word((("a", 3),))

    def test_commutator_stays_length_4(self):
        assert COMMUTATOR.length() == 4
        assert COMMUTATOR == Word.from_str("abAB")

    def test_caret_syntax(self):
        assert Word.from_str("a^3bA^2") == Word((("a", 3), ("b", 1), ("a", -2)))
        assert Word.from_str("a^-2") == Word((("a", -2),))

    def test_bad_syntax_rejected(self):
        with pytest.raises(ValueError):
            Word.from_str("abc")
        with pytest.raises(ValueError):
            Word.from_str("a^")

    @given(raw_words, raw_words, raw_words)
    def test_concatenation_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(raw_words)
    def test_empty_word_neutral(self, w):
        assert w * Word() == w
        assert Word() * w == w

    @given(raw_words)
    def test_inverse_cancels(self, w):
        assert (w * w.inverse()).is_identity()

    @given(raw_words)
    def test_reduced_form_invariants(self, w):
        gens = [g for g, _ in w.syllables]
        assert all(g1 != g2 for g1, g2 in zip(gens, gens[1:]))
        assert all(e != 0 for _, e in w.syllables)


class TestEvaluation:
    def test_commutator_image(self):
        assert eval_in_heisenberg(COMMUTATOR, 5) == HeisenbergElement.central(5, 1)
        assert eval_in_abelianization(COMMUTATOR, 5) == (0, 0)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_nth_power_of_generator_dies(self, n):
        assert eval_in_heisenberg(A**n, n).is_identity()

    def test_exponent_sums(self):
        assert eval_in_abelianization(Word.from_str("a^3b"), 3) == (0, 1)

    @given(raw_words, raw_words, small_n)
    def test_heisenberg_evaluation_is_homomorphic(self, u, v, n):
        assert eval_in_heisenberg(u * v, n) == eval_in_heisenberg(
            u, n
        ) * eval_in_heisenberg(v, n)

    @given(raw_words, raw_words, small_n)
    def test_abelian_evaluation_is_homomorphic(self, u, v, n):
        eu, ev = eval_in_abelianization(u, n), eval_in_abelianization(v, n)
        assert eval_in_abelianization(u * v, n) == (
            (eu[0] + ev[0]) % n,
            (eu[1] + ev[1]) % n,
        )

    @given(raw_words, small_n)
    def test_abelianization_factors_through_heisenberg(self, w, n):
        assert eval_in_abelianization(w, n) == eval_in_heisenberg(w, n).abelianize()


class TestKernels:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_listed_generators_lie_in_kernel(self, n):
        for w in heisenberg_kernel_generators(n):
            assert in_heisenberg_kernel(w, n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_commutator_separates_the_kernels(self, n):
        assert in_abelianized_kernel(COMMUTATOR, n)
        assert not in_heisenberg_kernel(COMMUTATOR, n)

    def test_empty_word_in_both(self):
        assert in_heisenberg_kernel(Word(), 5)
        assert in_abelianized_kernel(Word(), 5)

    @given(raw_words, st.integers(2, 8))
    def test_heisenberg_kernel_inside_abelianized_kernel(self, w, n):
        if in_heisenberg_kernel(w, n):
            assert in_abelianized_kernel(w, n)


class TestEndomorphisms:
    def test_swap_sends_powers_across(self):
        for n in (2, 5, 9):
            assert S3_ENDOS["i1"].apply(A**n) == B**n

    def test_flip_images(self):
        flip = S3_ENDOS["i2"]
        assert flip.apply(A) == B.inverse() * A.inverse()
        assert flip.apply(B) == B

    @given(raw_words, small_n)
    def test_flip_squared_preserves_abelianized_image(self, w, n):
        flip = S3_ENDOS["i2"]
        twice = flip.apply(flip.apply(w))
        assert eval_in_abelianization(twice, n) == eval_in_abelianization(w, n)

    @given(raw_words, raw_words)
    def test_application_is_homomorphic(self, u, v):
        for endo in S3_ENDOS.values():
            assert endo.apply(u * v) == endo.apply(u) * endo.apply(v)

    def test_six_distinct_outer_classes_on_abelianization(self):
        n = 7
        images = {
            name: (
                eval_in_abelianization(e.image_of_a, n),
                eval_in_abelianization(e.image_of_b, n),
            )
            for name, e in S3_ENDOS.items()
        }
        assert len(set(images.values())) == 6


def lifts_by_word_expansion(endo, n):
    """Oracle: expand the image of each kernel generator a^n, b^n, [a,b]^n
    as a word and evaluate it in H_n."""
    return all(
        in_heisenberg_kernel(endo.apply(w), n)
        for w in heisenberg_kernel_generators(n)
    )


class TestLifting:
    @pytest.mark.parametrize("name", sorted(S3_ENDOS))
    def test_matches_word_expansion(self, name):
        endo = S3_ENDOS[name]
        for n in range(1, 41):
            expected = lifts_by_word_expansion(endo, n)
            assert lifts_to_heisenberg_cover(endo, n) == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_swap_always_lifts(self, n):
        assert lifts_to_heisenberg_cover(S3_ENDOS["i1"], n)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_flip_lifts_iff_odd(self, n):
        assert lifts_to_heisenberg_cover(S3_ENDOS["i2"], n) == (n % 2 == 1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_identity_always_lifts(self, n):
        assert lifts_to_heisenberg_cover(IDENTITY_ENDO, n)

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
    def test_flip_obstruction_value_even_n(self, n):
        image = (B.inverse() * A.inverse()) ** n
        expected = HeisenbergElement.central(n, -(n // 2))
        assert eval_in_heisenberg(image, n) == expected

    @pytest.mark.parametrize("n", (3, 5, 7, 9, 11))
    def test_flip_obstruction_vanishes_odd_n(self, n):
        image = (B.inverse() * A.inverse()) ** n
        assert eval_in_heisenberg(image, n).is_identity()

    @pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12))
    def test_order_2n_elements_power_to_central_obstruction(self, n):
        expected = HeisenbergElement.central(n, -(n // 2))
        for j in range(n):
            assert HeisenbergElement(n, 1, 1, j) ** n == expected


class TestCommutatorConjugacy:
    def test_swap_inverts_with_empty_conjugator(self):
        conj, sign = commutator_conjugacy_witness(S3_ENDOS["i1"])
        assert conj.is_identity()
        assert sign == -1

    def test_identity_endo_trivial_witness(self):
        conj, sign = commutator_conjugacy_witness(IDENTITY_ENDO)
        assert conj.is_identity()
        assert sign == 1

    def test_flip_unwinds(self):
        conj, sign = commutator_conjugacy_witness(S3_ENDOS["i2"])
        base = COMMUTATOR if sign == 1 else COMMUTATOR.inverse()
        assert conj * base * conj.inverse() == S3_ENDOS["i2"].apply(COMMUTATOR)

    @pytest.mark.parametrize("name", sorted(S3_ENDOS))
    def test_all_six_endomorphisms_pass(self, name):
        assert nielsen_commutator_check(S3_ENDOS[name])

    def test_non_symmetry_endo_fails(self):
        squaring = Endo(A * A, B)
        assert not nielsen_commutator_check(squaring)
