import pytest

from heiscurve.quadfield import QuadNum

FIELD_OPS = ("__mul__", "__rmul__", "__pow__", "__truediv__", "__rtruediv__",
             "inverse")


class FieldOps:
    """Records, in calls, the name of every QuadNum field operation made
    while the fixture is active, nested ones included: x**2 also counts a
    __mul__ and x/y an inverse.  exempt("sqrt", ...) stops the count inside
    those QuadNum methods, which may work in the field themselves."""

    def __init__(self, monkeypatch):
        self.calls = []
        self._monkeypatch = monkeypatch
        self._exempt_depth = 0
        for name in FIELD_OPS:
            monkeypatch.setattr(QuadNum, name, self._counting(name))

    def _counting(self, name):
        real = getattr(QuadNum, name)

        def counted(*args):
            if not self._exempt_depth:
                self.calls.append(name)
            return real(*args)
        return counted

    def _exempting(self, name):
        real = getattr(QuadNum, name)

        def exempted(*args):
            self._exempt_depth += 1
            try:
                return real(*args)
            finally:
                self._exempt_depth -= 1
        return exempted

    def exempt(self, *names):
        for name in names:
            self._monkeypatch.setattr(QuadNum, name, self._exempting(name))


@pytest.fixture
def field_ops(monkeypatch):
    """A FieldOps counter on QuadNum, removed after the test."""
    return FieldOps(monkeypatch)
