import math

import pytest
from hypothesis import given, settings, strategies as st

from heiscurve import words
from heiscurve.heisenberg import HeisenbergElement
from heiscurve.words import (
    A,
    B,
    COMMUTATOR,
    Endo,
    FLIP,
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

    @pytest.mark.parametrize("exp", (1.5, 2.0, True))
    def test_non_int_exponent_rejected(self, exp):
        with pytest.raises(TypeError,
                           match="exponent of 'b' must be an int, got %r" % exp):
            Word((("a", 1), ("b", exp)))

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
        """The abelianized H_n image is the exponent sums of a and b."""
        sums = [sum(e for g, e in w.syllables if g == gen) % n for gen in "ab"]
        assert eval_in_abelianization(w, n) == tuple(sums)

    @pytest.mark.parametrize("n", (2.0, True))
    def test_non_int_modulus_rejected_by_both_evaluations(self, n):
        with pytest.raises(TypeError, match="n must be an int, got %r" % n):
            eval_in_abelianization(COMMUTATOR, n)
        with pytest.raises(TypeError, match="n must be an int, got %r" % n):
            eval_in_heisenberg(COMMUTATOR, n)


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
        assert commutator_conjugacy_witness(S3_ENDOS[name]) is not None

    def test_non_symmetry_endo_fails(self):
        squaring = Endo(A * A, B)
        assert commutator_conjugacy_witness(squaring) is None


# ---------------------------------------------------------------------------
# Quadratic reference implementations: every product re-reduces from scratch
# and every power and image is built one factor at a time.
# ---------------------------------------------------------------------------


def oracle_mul(u, v):
    return Word(u.syllables + v.syllables)


def oracle_inverse(w):
    return Word(tuple((g, -e) for g, e in reversed(w.syllables)))


def oracle_pow(w, k):
    if k < 0:
        return oracle_pow(oracle_inverse(w), -k)
    result = Word()
    for _ in range(k):
        result = oracle_mul(result, w)
    return result


def oracle_apply(endo, w):
    result = Word()
    for g, e in w.syllables:
        image = endo.image_of_a if g == "a" else endo.image_of_b
        result = oracle_mul(result, oracle_pow(image, e))
    return result


def oracle_eval(w, n):
    result = HeisenbergElement.identity(n)
    for g, e in w.syllables:
        base = (
            HeisenbergElement.generator_a(n)
            if g == "a"
            else HeisenbergElement.generator_b(n)
        )
        result = result * base**e
    return result


def triple(g):
    return (g.n, g.x, g.y, g.z)


# conjugates t c t^-1 exercise the cyclic split and long seam cancellations
conjugates = st.tuples(raw_words, raw_words).map(
    lambda tc: oracle_mul(oracle_mul(tc[0], tc[1]), oracle_inverse(tc[0]))
)
any_words = st.one_of(raw_words, conjugates)
exponents = st.integers(-30, 30)
endo_names = st.sampled_from(sorted(S3_ENDOS))


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(any_words, any_words)
    def test_mul(self, u, v):
        assert (u * v).syllables == oracle_mul(u, v).syllables

    @settings(max_examples=100, deadline=None)
    @given(any_words, any_words)
    def test_seam_cancels_fully(self, u, v):
        assert (u * u.inverse()).syllables == ()
        assert (u * v * v.inverse()).syllables == u.syllables
        assert (u.inverse() * (u * v)).syllables == v.syllables

    @settings(max_examples=100, deadline=None)
    @given(any_words)
    def test_inverse(self, w):
        assert w.inverse().syllables == oracle_inverse(w).syllables

    @settings(max_examples=200, deadline=None)
    @given(any_words, exponents)
    def test_pow(self, w, k):
        assert (w**k).syllables == oracle_pow(w, k).syllables

    @pytest.mark.parametrize("k", (-2, -1, 0, 1, 2))
    def test_pow_of_empty_word(self, k):
        assert (Word() ** k).syllables == ()

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_pow_of_fixed_shapes(self, k):
        for text in ("a", "A^3", "abAB", "aba", "abA", "a^2ba^-5", "abaBA", "ab^2aB^2A^2"):
            w = Word.from_str(text)
            assert (w**k).syllables == oracle_pow(w, k).syllables

    @settings(max_examples=100, deadline=None)
    @given(endo_names, any_words)
    def test_apply(self, name, w):
        endo = S3_ENDOS[name]
        assert endo.apply(w).syllables == oracle_apply(endo, w).syllables

    @pytest.mark.parametrize("name", sorted(S3_ENDOS))
    def test_apply_to_empty_word(self, name):
        assert S3_ENDOS[name].apply(Word()).syllables == ()

    @settings(max_examples=50, deadline=None)
    @given(any_words, any_words, any_words)
    def test_apply_with_arbitrary_images(self, u, v, w):
        endo = Endo(u, v)
        assert endo.apply(w).syllables == oracle_apply(endo, w).syllables

    @settings(max_examples=200, deadline=None)
    @given(any_words, st.integers(1, 64))
    def test_eval(self, w, n):
        assert triple(eval_in_heisenberg(w, n)) == triple(oracle_eval(w, n))

    @settings(max_examples=100, deadline=None)
    @given(endo_names, any_words, exponents, st.integers(1, 64))
    def test_eval_of_images_and_powers(self, name, w, k, n):
        image = S3_ENDOS[name].apply(w**k)
        expected = oracle_eval(oracle_apply(S3_ENDOS[name], oracle_pow(w, k)), n)
        assert triple(eval_in_heisenberg(image, n)) == triple(expected)

    @pytest.mark.parametrize("n", (0, -2, -3))
    def test_eval_bad_modulus(self, n):
        message = "n must be >= 1, got %d" % n
        with pytest.raises(ValueError) as info:
            eval_in_heisenberg(COMMUTATOR, n)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            eval_in_abelianization(COMMUTATOR, n)
        assert str(info.value) == message

    def test_caller_syllables_are_kept(self):
        syllables = (("a", 2), ("b", -1), ("a", 1))
        w = Word(syllables)
        assert all(a is b for a, b in zip(w.syllables, syllables))

    def test_list_syllables_become_tuples(self):
        w = Word([["a", 2], ["b", -1]])
        assert w.syllables == (("a", 2), ("b", -1))
        assert hash(w) == hash(Word((("a", 2), ("b", -1))))


def oracle_witness(endo):
    """The letter-by-letter witness search: strip one matched letter pair at
    a time off a flat letter list, then compare with rotations of [a,b]."""

    def letters(word):
        return [(g, 1 if e > 0 else -1) for g, e in word.syllables for _ in range(abs(e))]

    image = endo.apply(COMMUTATOR)
    flat = letters(image)
    outer = []
    while len(flat) >= 2 and flat[0] == (flat[-1][0], -flat[-1][1]):
        outer.append(flat[0])
        flat = flat[1:-1]
    for sign, base in ((1, COMMUTATOR), (-1, COMMUTATOR.inverse())):
        core = letters(base)
        if len(flat) != len(core):
            continue
        for k in range(len(core)):
            if flat == core[k:] + core[:k]:
                conj = Word(tuple(outer)) * Word(tuple(core[:k])).inverse()
                if conj * base * conj.inverse() == image:
                    return conj, sign
    return None


def witness_key(witness):
    return None if witness is None else (witness[0].syllables, witness[1])


def composed_endo(sequence):
    endo = IDENTITY_ENDO
    for name in sequence:
        endo = S3_ENDOS[name].compose(endo)
    return endo


def conjugated(endo, t):
    """endo followed by the inner automorphism w -> t w t^-1."""
    return Endo(t * endo.image_of_a * t.inverse(), t * endo.image_of_b * t.inverse())


involution_sequences = st.lists(st.sampled_from(("i1", "i2")), max_size=6)


class TestWitnessAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(involution_sequences, any_words)
    def test_conjugated_automorphisms(self, sequence, t):
        endo = conjugated(composed_endo(sequence), t)
        witness = commutator_conjugacy_witness(endo)
        assert witness is not None
        assert witness_key(witness) == witness_key(oracle_witness(endo))

    @settings(max_examples=150, deadline=None)
    @given(any_words, any_words)
    def test_arbitrary_endomorphisms(self, u, v):
        endo = Endo(u, v)
        assert witness_key(commutator_conjugacy_witness(endo)) == witness_key(
            oracle_witness(endo))

    @pytest.mark.parametrize("name", sorted(S3_ENDOS))
    def test_six_symmetries(self, name):
        endo = S3_ENDOS[name]
        assert witness_key(commutator_conjugacy_witness(endo)) == witness_key(
            oracle_witness(endo))

    def test_trivial_image(self):
        assert commutator_conjugacy_witness(Endo(A, A)) is None


class TestCost:
    """Syllables built per operation, counted deterministically."""

    @staticmethod
    def built(make):
        count = [0]
        real_word, real_reduce = words._word, words._reduce

        def counting_word(syllables):
            count[0] += len(syllables)
            return real_word(syllables)

        def counting_reduce(syllables):
            syllables = tuple(syllables)
            count[0] += len(syllables)
            return real_reduce(syllables)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(words, "_word", counting_word)
            m.setattr(words, "_reduce", counting_reduce)
            make()
        return count[0]

    @pytest.mark.parametrize(
        "make",
        (lambda k: COMMUTATOR**k, lambda k: FLIP.apply(COMMUTATOR**k)),
        ids=("commutator_pow", "flip_apply"),
    )
    def test_grows_at_most_like_k_log_k(self, make):
        small = self.built(lambda: make(10**3))
        large = self.built(lambda: make(10**4))
        assert small > 0
        # quadratic growth would give a ratio of 100
        assert large <= small * 10 * math.log(10**4) / math.log(10**3)

    def test_witness_grows_linearly_in_the_conjugator(self):
        def make(n):
            t = Word.from_str("ab^2A^3B") ** (n // 7)  # about n letters
            return lambda: commutator_conjugacy_witness(conjugated(FLIP, t))

        small = self.built(make(10**3))
        large = self.built(make(10**4))
        assert small > 0
        assert large <= small * 10 * math.log(10**4) / math.log(10**3)

    def test_kernel_generators_at_large_n(self):
        n = 10**4
        gens = heisenberg_kernel_generators(n)
        assert all(in_heisenberg_kernel(w, n) for w in gens)
        assert gens[0].syllables == (("a", n),)
        # [a,b] is cyclically reduced, so its powers are plain repetitions
        assert gens[2].syllables == COMMUTATOR.syllables * n
        assert gens[2].length() == 4 * n

    def test_flip_image_of_long_power(self):
        image = FLIP.apply(COMMUTATOR**2000)
        assert image.syllables == Word.from_str("BAba").syllables * 2000
        assert image == FLIP.apply(COMMUTATOR) ** 2000
