"""The shared integer-argument contract: every integer argument of the
tower code is rejected with TypeError when it is not an int (a bool is
not) and with ValueError below its least value, and each message ends in
"got <repr of the value>"."""

from fractions import Fraction

import pytest

from heiscurve import covers, words
from heiscurve.heisenberg import HeisenbergElement, enumerate_group

POINT = covers.PointClass("P", 1)

# (name, call with the value in the checked slot, least value or None)
CONTRACT = [
    ("RamificationData.base_genus", lambda v: covers.RamificationData(v, 6), 0),
    ("RamificationData.group_order", lambda v: covers.RamificationData(0, v), 1),
    ("RamificationData.indices", lambda v: covers.RamificationData(0, 6, (v,)), 2),
    ("fermat_genus", covers.fermat_genus, 1),
    ("heisenberg_genus", covers.heisenberg_genus, 2),
    ("PointClass.k", lambda v: covers.PointClass("P", v), 0),
    ("stabilizer_generator", lambda v: covers.stabilizer_generator(POINT, v), 1),
    ("stabilizer_subgroup", lambda v: covers.stabilizer_subgroup(POINT, v), 1),
    ("orbit_size", lambda v: covers.orbit_size(POINT, v), 1),
    ("is_fixed_by.n", lambda v: covers.is_fixed_by(POINT, 0, 0, v), 1),
    ("is_fixed_by.a", lambda v: covers.is_fixed_by(POINT, v, 0, 3), None),
    ("is_fixed_by.b", lambda v: covers.is_fixed_by(POINT, 0, v, 3), None),
    ("cover_ramification", covers.cover_ramification, 2),
    ("modular_aut_order", covers.modular_aut_order, 3),
    ("build_fermat_aut", covers.build_fermat_aut, 3),
    ("audit_signature_claims", covers.audit_signature_claims, 3),
    ("m_bound", covers.m_bound, 4),
    ("b3", covers.b3, 4),
    ("b4", covers.b4, 4),
    ("enumerate_group", enumerate_group, 1),
    ("HeisenbergElement.n", lambda v: HeisenbergElement(v, 0, 0, 0), 1),
    ("HeisenbergElement.x", lambda v: HeisenbergElement(3, v, 0, 0), None),
    ("Word.exponent", lambda v: words.Word((("a", v),)), None),
    ("eval_in_heisenberg", lambda v: words.eval_in_heisenberg(words.COMMUTATOR, v), 1),
    ("eval_in_abelianization",
     lambda v: words.eval_in_abelianization(words.COMMUTATOR, v), 1),
    ("lifts_to_heisenberg_cover",
     lambda v: words.lifts_to_heisenberg_cover(words.SWAP, v), 1),
]

NON_INTS = (True, 2.0, Fraction(3), "3")


def _cases():
    for name, call, least in CONTRACT:
        for value in NON_INTS:
            yield pytest.param(call, value, TypeError, id="%s-%r" % (name, value))
        if least is not None:
            yield pytest.param(call, least - 1, ValueError,
                               id="%s-%r" % (name, least - 1))


@pytest.mark.parametrize("call, value, error", _cases())
def test_near_miss_is_rejected_naming_the_value(call, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value).endswith("got %r" % (value,))


@pytest.mark.parametrize("name, call, least", CONTRACT,
                         ids=[name for name, _, _ in CONTRACT])
def test_least_value_is_accepted(name, call, least):
    call(least if least is not None else 0)

