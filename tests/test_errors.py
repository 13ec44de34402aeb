"""The shared integer-argument contract: every integer argument of the
tower code, and every power's exponent, is rejected with TypeError when
it is not an int (a bool is not) and with ValueError below its least
value, and each message ends in "got <repr of the value>".  Constructors
given a value of the wrong shape say so in the same way."""

import inspect
from fractions import Fraction

import pytest

import heiscurve
from heiscurve import covers, heisenberg, words
from heiscurve.elliptic import Cubic
from heiscurve.heisenberg import HeisenbergElement, enumerate_group
from heiscurve.quadfield import QuadNum, find_field_roots

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
    ("FermatAutGroup", covers.FermatAutGroup, 3),
    ("symmetry_action", lambda v: covers.symmetry_action((0, 1, 2), (1, 0), v), 1),
    ("symmetry_matrix", lambda v: covers.symmetry_matrix("id", v), 1),
    ("signature_consistency",
     lambda v: covers.signature_consistency(v, (2, 3, 7), 168, "fermat"), 1),
    ("audit_signature_claims", covers.audit_signature_claims, 3),
    ("m_bound", covers.m_bound, 4),
    ("b3", covers.b3, 4),
    ("b4", covers.b4, 4),
    ("enumerate_group", enumerate_group, 1),
    ("HeisenbergElement.n", lambda v: HeisenbergElement(v, 0, 0, 0), 1),
    ("HeisenbergElement.x", lambda v: HeisenbergElement(3, v, 0, 0), None),
    ("HeisenbergElement.identity", HeisenbergElement.identity, 1),
    ("HeisenbergElement.generator_a", HeisenbergElement.generator_a, 1),
    ("HeisenbergElement.generator_b", HeisenbergElement.generator_b, 1),
    ("HeisenbergElement.central", lambda v: HeisenbergElement.central(v, 0), 1),
    ("Word.exponent", lambda v: words.Word((("a", v),)), None),
    ("eval_in_heisenberg", lambda v: words.eval_in_heisenberg(words.COMMUTATOR, v), 1),
    ("eval_in_abelianization",
     lambda v: words.eval_in_abelianization(words.COMMUTATOR, v), 1),
    ("lifts_to_heisenberg_cover",
     lambda v: words.lifts_to_heisenberg_cover(words.SWAP, v), 1),
    ("in_heisenberg_kernel",
     lambda v: words.in_heisenberg_kernel(words.COMMUTATOR, v), 1),
    ("in_abelianized_kernel",
     lambda v: words.in_abelianized_kernel(words.COMMUTATOR, v), 1),
    ("heisenberg_kernel_generators", words.heisenberg_kernel_generators, 1),
    ("HeisenbergElement.__pow__", lambda v: HeisenbergElement(5, 1, 2, 3) ** v,
     None),
    ("Word.__pow__", lambda v: words.A ** v, None),
    ("QuadNum.__pow__", lambda v: QuadNum.of(2) ** v, None),
]

# rows whose message must also start by naming the row's own argument,
# not that of a constructor the call builds
PREFIX = {
    "eval_in_heisenberg": "n must be ",
    "eval_in_abelianization": "n must be ",
    "lifts_to_heisenberg_cover": "n must be ",
    "heisenberg_kernel_generators": "n must be ",
    "FermatAutGroup": "n must be ",
    "symmetry_action": "n must be ",
    "symmetry_matrix": "n must be ",
    "HeisenbergElement.__pow__": "exponent must be ",
    "Word.__pow__": "exponent must be ",
    "QuadNum.__pow__": "exponent must be ",
}

NON_INTS = (True, 2.0, Fraction(3), "3")


def _cases():
    for name, call, least in CONTRACT:
        prefix = PREFIX.get(name, "")
        for value in NON_INTS:
            yield pytest.param(call, value, TypeError, prefix,
                               id="%s-%r" % (name, value))
        if least is not None:
            yield pytest.param(call, least - 1, ValueError, prefix,
                               id="%s-%r" % (name, least - 1))


@pytest.mark.parametrize("call, value, error, prefix", _cases())
def test_near_miss_is_rejected_naming_the_value(call, value, error, prefix):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value).startswith(prefix)
    assert str(info.value).endswith("got %r" % (value,))


@pytest.mark.parametrize("name, call, least", CONTRACT,
                         ids=[name for name, _, _ in CONTRACT])
def test_least_value_is_accepted(name, call, least):
    call(least if least is not None else 0)


# built by the library itself, never from a caller's n
BUILT_BY_THE_LIBRARY = {"CoverRamification", "GroupAxiomFailure"}


def _takes_n(call):
    try:
        return "n" in inspect.signature(call).parameters
    except ValueError:  # an error class that keeps the builtin __init__
        return False


def _public_callables_taking_n():
    """Names of the public functions, classes and classmethods of the tower
    modules that take a parameter named n."""
    for module in (covers, heisenberg, words):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and _takes_n(obj):
                yield name
            elif inspect.isclass(obj):
                if _takes_n(obj):
                    yield name
                for attr, member in vars(obj).items():
                    if (isinstance(member, classmethod) and not attr.startswith("_")
                            and _takes_n(getattr(obj, attr))):
                        yield "%s.%s" % (name, attr)


def test_every_n_argument_has_a_contract_row():
    rows = {name for name, _, _ in CONTRACT}
    missing = sorted(
        name for name in _public_callables_taking_n()
        if name not in BUILT_BY_THE_LIBRARY
        and name not in rows and name + ".n" not in rows)
    assert missing == []


# (id, call, the value its message must name): near-miss shapes that
# Python's own unpacking message would not name, outer arguments that are
# not iterable, and Endo images that are not Words
SHAPES = [
    ("Cubic", lambda: Cubic(((3, 0, 0),)), (3, 0, 0)),
    ("RamificationData", lambda: covers.RamificationData(0, 6, 2), 2),
    ("Word", lambda: words.Word(("a", 1)), "a"),
    ("Word.syllables", lambda: words.Word(5), 5),
    ("Cubic.coeffs", lambda: Cubic(5), 5),
    ("find_field_roots", lambda: find_field_roots(5), 5),
    ("signature_consistency",
     lambda: covers.signature_consistency(4, 5, 24, "fermat"), 5),
    ("Endo.image_of_a", lambda: words.Endo(5, 6), 5),
    ("Endo.image_of_b", lambda: words.Endo(words.A, 6), 6),
]


@pytest.mark.parametrize("call, value", [row[1:] for row in SHAPES],
                         ids=[row[0] for row in SHAPES])
def test_wrong_shape_is_rejected_naming_the_value(call, value):
    with pytest.raises(TypeError) as info:
        call()
    assert type(info.value) is TypeError
    assert str(info.value).endswith("got %r" % (value,))


def test_all_exports_classes_functions_and_s3_endos():
    for name in heiscurve.__all__:
        obj = getattr(heiscurve, name)
        assert (inspect.isclass(obj) or inspect.isfunction(obj)
                or name == "S3_ENDOS"), name
