"""Freely reduced words in the free group on two generators a, b.

A word is a tuple of syllables (generator, exponent) with nonzero exponents
and no two adjacent syllables on the same generator; the empty tuple is the
identity.  Words evaluate homomorphically into the Heisenberg group mod n
(a -> generator_a, b -> generator_b) and into (Z/n)^2 by exponent sums.

Kernel membership for both quotient maps is decided by *evaluation* in the
finite target group, which is a genuine decision procedure.  The generating
sets a^n, b^n, [a,b]^n (Heisenberg kernel) and a^n, b^n, [a,b] (abelianized
kernel) are validated one-way in the test suite: each listed generator does
evaluate to the identity.  Whether those angle-bracket lists are meant as a
plain subgroup or as a normal closure is immaterial to evaluation, and this
module deliberately does not decide between the two readings.

String syntax: letters a, b with uppercase A, B for inverses, and optional
caret exponents, e.g. "abAB" for the commutator [a,b] or "a^3bA^2".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import _int_at_least
from .heisenberg import HeisenbergElement, commutator

_TOKEN = re.compile(r"([abAB])(?:\^(-?\d+))?")

GENERATORS = ("a", "b")


def _reduce(syllables):
    """Stack-based free reduction of (generator, exponent) pairs.

    A pair that passes through unmerged is kept as the caller's tuple.
    """
    stack = []
    for syllable in syllables:
        gen, exp = syllable
        if gen not in GENERATORS:
            raise ValueError("unknown generator %r" % (gen,))
        if type(exp) is not int:
            _int_at_least(exp, None, "the exponent of %r" % (gen,))
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            merged = stack.pop()[1] + exp
            if merged != 0:
                stack.append((gen, merged))
        elif type(syllable) is tuple:
            stack.append(syllable)
        else:
            stack.append((gen, exp))
    return tuple(stack)


def _concat(left, right):
    """Reduced product of two reduced syllable tuples.

    Only the seam can cancel: syllables meeting there merge, and a merge that
    reaches zero exposes the next pair, which then lie on the same generator.
    """
    i, j = len(left), 0
    while i and j < len(right):
        gen, exp = left[i - 1]
        if gen != right[j][0]:
            break
        merged = exp + right[j][1]
        if merged != 0:
            return left[: i - 1] + ((gen, merged),) + right[j + 1 :]
        i -= 1
        j += 1
    return left[:i] + right[j:]


def _invert(syllables):
    return tuple((g, -e) for g, e in reversed(syllables))


def _cyclic_split(syllables):
    """(t, c) with syllables = t c t^-1 freely, where c^k is reduced as the
    plain repetition c*k.

    c is empty, one syllable, or starts and ends on different generators.
    Ends on the same generator are peeled off into t; if they do not cancel,
    their sum moves to the end of c.
    """
    lo, hi = 0, len(syllables)
    while hi - lo > 1 and syllables[lo][0] == syllables[hi - 1][0]:
        gen, exp = syllables[lo]
        merged = exp + syllables[hi - 1][1]
        if merged != 0:
            return syllables[: lo + 1], syllables[lo + 1 : hi - 1] + ((gen, merged),)
        lo += 1
        hi -= 1
    return syllables[:lo], syllables[lo:hi]


@dataclass(frozen=True)
class Word:
    syllables: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "syllables", _reduce(self.syllables))

    @classmethod
    def from_str(cls, text):
        if not re.fullmatch(r"(?:[abAB](?:\^-?\d+)?)*", text):
            raise ValueError("bad word syntax: %r" % (text,))
        parts = []
        for letter, exp in _TOKEN.findall(text):
            e = int(exp) if exp else 1
            if letter.isupper():
                letter, e = letter.lower(), -e
            parts.append((letter, e))
        return cls(tuple(parts))

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return _word(_concat(self.syllables, other.syllables))

    def inverse(self):
        return _word(_invert(self.syllables))

    def __pow__(self, k):
        """w^k = t c^k t^-1 with c cyclically reduced, so c^k needs no
        reduction and the two seams with t cancel in constant time."""
        if not isinstance(k, int):
            return NotImplemented
        t, core = _cyclic_split(self.syllables)
        if k < 0:
            core, k = _invert(core), -k
        if len(core) == 1:
            ((gen, exp),) = core
            power = ((gen, exp * k),) if k else ()
        else:
            power = core * k
        return _word(_concat(_concat(t, power), _invert(t)))

    def is_identity(self):
        return not self.syllables

    def length(self):
        return sum(abs(e) for _, e in self.syllables)

    def __str__(self):
        if not self.syllables:
            return "1"
        chunks = []
        for g, e in self.syllables:
            letter = g if e > 0 else g.upper()
            chunks.append(letter if abs(e) == 1 else "%s^%d" % (letter, abs(e)))
        return "".join(chunks)


def _word(syllables):
    """A Word from a syllable tuple that is already freely reduced."""
    word = object.__new__(Word)
    object.__setattr__(word, "syllables", syllables)
    return word


A = Word((("a", 1),))
B = Word((("b", 1),))
COMMUTATOR = A * B * A.inverse() * B.inverse()


def eval_in_heisenberg(word, n):
    """Homomorphic image in the Heisenberg group mod n.

    Right-multiplying (x, y, z) by a^e adds e to x; by b^e it adds e to y
    and x*e to the corner.  The sums stay plain integers until the end.
    """
    x = y = z = 0
    for g, e in word.syllables:
        if g == "a":
            x += e
        else:
            z += x * e
            y += e
    return HeisenbergElement(n, x, y, z)


def eval_in_abelianization(word, n):
    """Exponent sums of a and b, reduced mod n: the image in H_n
    abelianized."""
    return eval_in_heisenberg(word, n).abelianize()


def in_heisenberg_kernel(word, n):
    return eval_in_heisenberg(word, n).is_identity()


def in_abelianized_kernel(word, n):
    return eval_in_abelianization(word, n) == (0, 0)


@dataclass(frozen=True)
class Endo:
    """An endomorphism of the free group given by images of a and b."""

    image_of_a: Word
    image_of_b: Word

    def apply(self, word):
        """Concatenate the reduced image of each syllable, then reduce once.

        Each distinct syllable's image is built once per call.
        """
        images = {"a": self.image_of_a, "b": self.image_of_b}
        powers = {}
        out = []
        for syllable in word.syllables:
            power = powers.get(syllable)
            if power is None:
                gen, exp = syllable
                power = powers[syllable] = (images[gen] ** exp).syllables
            out.extend(power)
        return _word(_reduce(out))

    def compose(self, other):
        """self after other: (self.compose(other))(w) = self(other(w))."""
        return Endo(self.apply(other.image_of_a), self.apply(other.image_of_b))


IDENTITY_ENDO = Endo(A, B)
SWAP = Endo(B, A)  # a <-> b
FLIP = Endo(B.inverse() * A.inverse(), B)  # a -> b^-1 a^-1, b -> b

# Fixed representatives of the six outer classes generated by the two
# involutions above.  (Literal composition closure is infinite: the square
# of FLIP is an inner automorphism, not the identity substitution.)
S3_ENDOS = {
    "id": IDENTITY_ENDO,
    "i1": SWAP,
    "i2": FLIP,
    "i1i2": SWAP.compose(FLIP),
    "i2i1": FLIP.compose(SWAP),
    "i1i2i1": SWAP.compose(FLIP).compose(SWAP),
}


def heisenberg_kernel_generators(n):
    """The classical generating set a^n, b^n, [a,b]^n."""
    return (A**n, B**n, COMMUTATOR**n)


def lifts_to_heisenberg_cover(endo, n):
    """Whether the endomorphism preserves the kernel of the Heisenberg map.

    Checked on the kernel's generating set: the image of each of a^n, b^n,
    [a,b]^n must again evaluate to the identity mod n.  Evaluation and endo
    are homomorphisms, so with g_a, g_b the images of endo(a), endo(b) in
    H_n those images are g_a^n, g_b^n and [g_a, g_b]^n; the closed-form
    power law makes the test cost the same for every n.
    """
    g_a = eval_in_heisenberg(endo.image_of_a, n)
    g_b = eval_in_heisenberg(endo.image_of_b, n)
    return all(
        (g**n).is_identity() for g in (g_a, g_b, commutator(g_a, g_b))
    )


def _drop(syllable, k):
    """The syllable with k of its letters removed."""
    gen, exp = syllable
    return (gen, exp - k if exp > 0 else exp + k)


def commutator_conjugacy_witness(endo):
    """Unwind endo([a,b]) as T [a,b]^(+-1) T^-1, if possible.

    Strips matched conjugating letters off both ends, a run of letters per
    step, then matches the cyclically reduced core against rotations of
    [a,b] and its inverse.  Returns (T, sign) with the verified witness, or
    None.
    """
    image = endo.apply(COMMUTATOR)
    syl = image.syllables
    i, j = 0, len(syl) - 1
    left = right = 0  # letters stripped from syl[i] and from syl[j]
    # while i < j the first and last letters lie in different syllables
    # and are inverse when they share a generator with opposite signs
    while i < j and syl[i][0] == syl[j][0] and (syl[i][1] > 0) != (syl[j][1] > 0):
        k = min(abs(syl[i][1]) - left, abs(syl[j][1]) - right)
        left += k
        right += k
        if left == abs(syl[i][1]):
            i, left = i + 1, 0
        if right == abs(syl[j][1]):
            j, right = j - 1, 0
    # T starts with the stripped letters: whole syllables, then the first
    # `left` letters of syl[i]
    outer = syl[:i] + ((_drop(syl[i], abs(syl[i][1]) - left),) if left else ())
    middle = list(syl[i : j + 1])
    if middle:
        middle[0] = _drop(middle[0], left)
        middle[-1] = _drop(middle[-1], right)
    middle = tuple(middle)
    for sign, base in ((1, COMMUTATOR), (-1, COMMUTATOR.inverse())):
        core = base.syllables  # four single letters, so rotations stay reduced
        for k in range(len(core)):
            if middle == core[k:] + core[:k]:
                # rotation by k conjugates by the first k letters of core
                conj = _word(outer) * _word(core[:k]).inverse()
                if conj * base * conj.inverse() == image:
                    return conj, sign
    return None
