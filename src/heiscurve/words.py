"""Freely reduced words in the free group on two generators a, b.

A word is a tuple of syllables (generator, exponent) with nonzero exponents
and no two adjacent syllables on the same generator; the empty tuple is the
identity.  Words evaluate homomorphically into the Heisenberg group mod n
(a -> generator_a, b -> generator_b) and into (Z/n)^2 by exponent sums.
Whether an endomorphism lifts to the Heisenberg cover is read off the
parity of the exponent sums of its images, without evaluation.

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
from .heisenberg import HeisenbergElement

_TOKEN = re.compile(r"([abAB])(?:\^(-?\d+))?")

GENERATORS = ("a", "b")


def _reduce(syllables):
    """Stack-based free reduction of (generator, exponent) pairs.

    A pair that passes through unmerged is kept as the caller's tuple.
    """
    stack = []
    for syllable in syllables:
        try:
            gen, exp = syllable
        except (TypeError, ValueError):
            raise TypeError("a syllable must be a (generator, exponent) pair, "
                            "got %r" % (syllable,)) from None
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
        reduction and the two seams with t cancel in constant time.  The
        unit powers w and w^-1 skip the split."""
        if type(k) is not int:
            _int_at_least(k, None, "exponent")
        if k == 1:
            return self
        if k == -1:
            return self.inverse()
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
    n must be an int (not a bool) >= 1.
    """
    # the inline test keeps the call fast; the check words the error
    if type(n) is not int or n < 1:
        _int_at_least(n, 1)
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
    """The classical generating set a^n, b^n, [a,b]^n; n must be an int
    (not a bool) >= 1."""
    _int_at_least(n, 1)
    return (A**n, B**n, COMMUTATOR**n)


def lifts_to_heisenberg_cover(endo, n):
    """Whether the endomorphism preserves the kernel of the Heisenberg map:
    true for odd n, and for even n exactly when x*y is even for the
    exponent sums (x, y) of each of endo(a) and endo(b).

    Checked on the kernel's generating set a^n, b^n, [a,b]^n: the test is
    whether g_a^n, g_b^n and [g_a, g_b]^n are trivial, where g_a, g_b are
    the images of endo(a), endo(b) in H_n (evaluation is a homomorphism):
      - [g_a, g_b] is central, so its n-th power is trivial;
      - g = (x, y, z) has g^n = (0, 0, n(n-1)/2 * x*y) mod n;
      - n(n-1)/2 is a multiple of n for odd n, and n/2 times an odd
        number for even n, so g^n is trivial iff n is odd or x*y is even.
    No element of H_n is built.  n must be an int (not a bool) >= 1.
    """
    _int_at_least(n, 1)
    if n % 2:
        return True
    for image in (endo.image_of_a, endo.image_of_b):
        x = sum(e for g, e in image.syllables if g == "a")
        y = sum(e for g, e in image.syllables if g == "b")
        if x % 2 and y % 2:
            return False
    return True


def commutator_conjugacy_witness(endo):
    """Unwind endo([a,b]) as T [a,b]^(+-1) T^-1, if possible.

    The image is split as t c t^-1 with c cyclically reduced (the split of
    ``Word.__pow__``).  Cyclically reduced conjugates in a free group are
    cyclic permutations of each other (Lyndon-Schupp, Ch. I), and c is
    empty, one syllable, or starts and ends on different generators, so
    the image is conjugate to [a,b]^(+-1) exactly when c is one of the
    eight rotations of abAB and baBA, each four one-letter syllables.  If
    c = P^-1 base P with P the first k letters of base and Q the rest,
    then P^-1 = Q base^-1, so t P^-1 and t Q conjugate base alike; the
    shorter of P^-1 and Q is taken, which gives the shortest conjugator.
    Returns (T, sign) with the verified witness, or None.
    """
    image = endo.apply(COMMUTATOR)
    t, core = _cyclic_split(image.syllables)
    for sign, base in ((1, COMMUTATOR), (-1, COMMUTATOR.inverse())):
        c = base.syllables
        for k in range(len(c)):
            if core == c[k:] + c[:k]:
                rest = _word(c[:k]).inverse() if 2 * k <= len(c) else _word(c[k:])
                conj = _word(t) * rest
                if conj * base * conj.inverse() == image:
                    return conj, sign
    return None
