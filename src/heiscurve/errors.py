"""The base class of the library's mathematical errors, and the one check
of an integer argument and of an iterable one.

Each mathematical failure (a non-integer genus, a singular curve, a
missing square root, ...) is a HeiscurveError besides its ArithmeticError
or ValueError base, so a caller such as the CLI catches them all with one
class.  _int_at_least words every TypeError and ValueError for an integer
argument, and _iterable the TypeError for an argument that is not
iterable, so each such message ends in "got <repr of the value>".
"""


class HeiscurveError(Exception):
    """Base of every mathematical error the library raises."""


def _int_at_least(value, least, name="n"):
    """Raise TypeError unless value is an int (a bool is not), and
    ValueError if it is below least; least None sets no lower bound."""
    if type(value) is not int:
        raise TypeError("%s must be an int, got %r" % (name, value))
    if least is not None and value < least:
        raise ValueError("%s must be >= %d, got %r" % (name, least, value))


def _iterable(value, name, items):
    """Raise TypeError unless value is iterable; its elements are not read."""
    try:
        iter(value)
    except TypeError:
        raise TypeError("%s must be an iterable of %s, got %r"
                        % (name, items, value)) from None
