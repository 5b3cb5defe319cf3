"""The events' generated ``__init__`` against plain dataclasses.

Every event class gets its ``__init__`` from ``events._event_class``,
which stores each field through its slot instead of the frozen
dataclass's ``object.__setattr__``.  Each class is checked against a
reference built by ``dataclasses.make_dataclass`` from the same
fields, whose ``__init__`` is the one ``@dataclass`` writes: the same
signature and defaults, and the same eq, hash, repr, pickle and
``dataclasses.replace`` results for construction with every default,
with every argument positional and with every argument by keyword.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.runtime.events import (
    EVENT_TYPES,
    AccessKind,
    Event,
    Frame,
    LockMode,
    intern_stack,
)

_STACK = intern_stack((Frame("inner", "a.cpp", 7), Frame("outer", "a.cpp", 3)))

#: A non-default value per field type annotation.
_VALUES = {
    "int": 41,
    "bool": True,
    "str": "x",
    "AccessKind": AccessKind.WRITE,
    "LockMode": LockMode.READ,
    "CallStack": _STACK,
}


def _reference(cls: type) -> type:
    """A frozen slotted dataclass with ``cls``'s name and fields, built
    by ``@dataclass`` itself."""
    spec = [
        (f.name, f.type, dataclasses.field(default=f.default, kw_only=f.kw_only))
        for f in dataclasses.fields(cls)
    ]
    ref = dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots=True)
    ref.__qualname__ = cls.__qualname__
    return ref


def _arguments(cls: type, *, defaults: bool):
    """``(positional, keyword)`` arguments for every field: required
    fields only when ``defaults``, else a non-default value each."""
    args, kwargs = [], {}
    for f in dataclasses.fields(cls):
        if defaults and f.default is not dataclasses.MISSING:
            continue
        value = _VALUES[f.type] + len(args) if f.type == "int" else _VALUES[f.type]
        if f.kw_only:
            kwargs[f.name] = value
        else:
            args.append(value)
    return args, kwargs


def _values(event) -> tuple:
    return tuple(getattr(event, f.name) for f in dataclasses.fields(event))


def _assert_matches_reference(cls: type) -> None:
    ref = _reference(cls)
    assert inspect.signature(cls) == inspect.signature(ref)
    for defaults in (True, False):
        args, kwargs = _arguments(cls, defaults=defaults)
        names = [f.name for f in dataclasses.fields(cls) if not f.kw_only]
        by_keyword = {**dict(zip(names, args)), **kwargs}
        expected = ref(*args, **kwargs)
        for event in (cls(*args, **kwargs), cls(**by_keyword)):
            assert type(event) is cls
            assert _values(event) == _values(expected)
            assert repr(event) == repr(expected)
            assert hash(event) == hash(expected)
            assert event == cls(*args, **kwargs)
            back = pickle.loads(pickle.dumps(event))
            assert type(back) is cls and back == event
            changed = {f.name: getattr(expected, f.name) for f in dataclasses.fields(cls)}
            changed["step"] = 99
            replaced = dataclasses.replace(event, step=99)
            assert _values(replaced) == _values(dataclasses.replace(expected, step=99))
            assert replaced == cls(**changed)


@pytest.mark.parametrize("cls", (Event, *EVENT_TYPES), ids=lambda c: c.__name__)
class TestGeneratedInit:
    def test_matches_a_plain_dataclass(self, cls):
        _assert_matches_reference(cls)

    def test_assignment_raises(self, cls):
        args, kwargs = _arguments(cls, defaults=True)
        event = cls(*args, **kwargs)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, f.name, getattr(event, f.name))

    def test_defaults_are_the_declared_ones(self, cls):
        params = inspect.signature(cls).parameters
        for f in dataclasses.fields(cls):
            param = params[f.name]
            assert param.default == (
                inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            )
            assert (param.kind is inspect.Parameter.KEYWORD_ONLY) == f.kw_only
        assert [f.name for f in dataclasses.fields(cls) if f.kw_only] == ["stack"]


@pytest.mark.parametrize("skipped", ["step", "stack", "block_id"])
def test_an_init_that_skips_a_field_fails(monkeypatch, skipped):
    """The reference check is sharp: an ``__init__`` that leaves one
    field unset does not pass it."""
    from repro.runtime.events import MemoryAccess

    generated = MemoryAccess.__init__
    setters = {f.name: getattr(MemoryAccess, f.name).__set__ for f in dataclasses.fields(MemoryAccess)}

    def skipping(self, *args, **kwargs):
        full = MemoryAccess.__new__(MemoryAccess)
        generated(full, *args, **kwargs)
        for name, set_ in setters.items():
            if name != skipped:
                set_(self, getattr(full, name))

    monkeypatch.setattr(MemoryAccess, "__init__", skipping)
    with pytest.raises((AssertionError, AttributeError)):
        _assert_matches_reference(MemoryAccess)
