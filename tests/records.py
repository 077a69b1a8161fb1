"""The contract a slotted record with a written-out `__init__` keeps: the
same behaviour as the plain frozen dataclass it replaces."""

import dataclasses
import pickle

import pytest


def check_record(cls, args: tuple, expected_repr: str, change: tuple[str, object]) -> None:
    """`cls(*args)` builds by position and by keyword, compares and hashes
    by its fields, keeps the generated repr, refuses assignment, works with
    `dataclasses.replace` (setting field `change[0]` to `change[1]`), has
    no instance dict and pickles under every protocol."""
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    assert len(names) == len(args)
    record = cls(*args)
    by_name = cls(**dict(zip(names, args)))
    assert record is not by_name and record == by_name and hash(record) == hash(by_name)
    assert repr(record) == repr(by_name) == expected_repr
    assert not hasattr(record, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
    name, value = change
    moved = dataclasses.replace(record, **{name: value})
    assert moved == cls(**dict(zip(names, args), **{name: value}))
    assert getattr(moved, name) == value and moved != record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record and hash(back) == hash(record)
