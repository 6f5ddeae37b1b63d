"""The input boundary: one set of typed readers for every JSON input (run
configs, experiment matrices, sweep policies, world files).

A reader ``read(value, path)`` returns the value as given (an int stays an
int) or raises InputError with the value's dotted path (``seeds[2]``,
``objects[0].kind``). Readers check JSON types. A numeric field of a config
or a world declares its rule beside it, ``Annotated[float, Range(0, 1)]``,
and ``check`` alone enforces it from ``__post_init__``: ``section`` hands
such a field over as given, so JSON and Python meet one rule.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import typing
from pathlib import Path


class InputError(Exception):
    """Bad input; ``path`` is the dotted path of the bad value."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def reader(ok, message: str, convert=lambda v: v):
    """A reader of the values ``ok`` accepts, returned through ``convert``."""
    def read(value, path: str):
        if not ok(value):
            raise InputError(path, message)
        return convert(value)
    return read


def is_integer(v) -> bool:
    """An integer; bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# The largest magnitude of a number: no product of a few inputs, summed
# over any run, comes near the float range, so no total overflows to inf.
BOUND = 1e12
MAX_SEEDS = 10 ** 6  # the largest seed count, so a typo cannot exhaust memory
# The longest run, 20 times a 50,000-step one: a run keeps every loss site
# it records (25 bytes each), so a typo cannot exhaust memory.
MAX_STEPS = 10 ** 6


def not_a_number(value) -> str:
    """Why ``value`` is not a finite number within +-BOUND; '' when it is."""
    if not (isinstance(value, float) or is_integer(value)) or not -math.inf < value < math.inf:
        return "must be a finite number"
    return f"must be within +-{BOUND:g}" if abs(value) > BOUND else ""


def number(value, path: str):
    """A finite number within +-BOUND."""
    if problem := not_a_number(value):
        raise InputError(path, problem)
    return value


@dataclasses.dataclass(frozen=True)
class Range:
    """The rule of a numeric field, declared beside it as
    ``Annotated[float, Range(0, 1)]``: at least ``lo`` and at most ``hi``
    where given, each bound closed unless marked open. An int field holds an
    integer, never a bool; a float field a number as ``number`` reads it,
    or +inf where ``inf`` admits it."""
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    inf: bool = False

    def __str__(self) -> str:
        if self.hi is None:
            return f"{'>' if self.lo_open else '>='} {self.lo}"
        return f"in {'(' if self.lo_open else '['}{self.lo}, {self.hi}{')' if self.hi_open else ']'}"

    def holds(self, v) -> bool:
        lo, hi = self.lo, self.hi
        return ((lo is None or (lo < v if self.lo_open else lo <= v))
                and (hi is None or (v < hi if self.hi_open else v <= hi)))


@functools.cache
def rules(cls) -> tuple:
    """``(name, rule, int field, takes None)`` for each field of the
    dataclass ``cls`` that declares a Range."""
    out = []
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        if typing.get_origin(hint) is typing.Annotated:
            tp, rule = typing.get_args(hint)
            out.append((name, rule, tp is int, type(None) in typing.get_args(tp)))
    return tuple(out)


def check(obj) -> None:
    """Raise ``ValueError("<field> must be <rule>")`` for the first field of
    the dataclass ``obj`` that breaks its declared Range; NaN never passes."""
    for name, rule, integral, optional in rules(type(obj)):
        v = getattr(obj, name)
        if v is None and optional or rule.inf and v == math.inf:
            continue
        if integral and not is_integer(v):
            raise ValueError(f"{name} must be an integer")
        if not integral and (problem := not_a_number(v)):
            raise ValueError(f"{name} {problem}")
        if not rule.holds(v):
            raise ValueError(f"{name} must be {rule}")


integer = reader(is_integer, "must be an integer")
count = reader(lambda v: is_integer(v) and v >= 0, "must be an integer >= 0")
SEED = Range(0, 2 ** 64 - 1)  # a seed fits in 64 unsigned bits
seed = reader(lambda v: is_integer(v) and SEED.holds(v), f"must be an integer {SEED}")
string = reader(lambda v: isinstance(v, str), "must be a string")
flag = reader(lambda v: isinstance(v, bool), "must be true or false")
cell = reader(lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_integer, v)),
              "must be [x, y]", tuple)


def at_most(cap: int):
    """A reader of counts from 0 to ``cap``."""
    def read(value, path: str) -> int:
        n = count(value, path)
        if n > cap:
            raise InputError(path, f"must be at most {cap}")
        return n
    return read


steps = at_most(MAX_STEPS)


def list_of(read, most: int | None = None):
    """A reader of JSON lists whose items ``read`` accepts, at most ``most``
    of them when given."""
    def read_list(value, path: str) -> list:
        if not isinstance(value, list):
            raise InputError(path, "must be a list")
        if most is not None and len(value) > most:
            raise InputError(path, f"must hold at most {most} items")
        return [read(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return read_list


def distinct(items: list, path: str, key=lambda item: item) -> list:
    """``items``, refused at the first whose ``key`` an earlier item has."""
    first = {}
    for i, k in enumerate(map(key, items)):
        if first.setdefault(k, i) != i:
            raise InputError(f"{path}[{i}]", f"repeats {path}[{first[k]}] ({k!r})")
    return items


def seeds(value, path: str) -> list:
    """A seed count n (seeds 0..n-1, n at most MAX_SEEDS) or a list of
    distinct seeds; at least one either way."""
    if isinstance(value, list):
        out = distinct(list_of(seed)(value, path), path)
    else:
        out = list(range(at_most(MAX_SEEDS)(value, path)))
    if not out:
        raise InputError(path, "need at least one")
    return out


def record(value, path: str, allowed, root: str = "config") -> dict:
    """A JSON object whose keys are all in ``allowed``; ``root`` names a whole input."""
    if not isinstance(value, dict):
        raise InputError(path or root, "must be an object")
    for key in value:
        if key not in allowed:
            raise InputError(join(path, key), "unknown field")
    return value


MISSING = object()


def get(entry: dict, key: str, path: str, read, default=MISSING):
    """``entry[key]`` through ``read``; ``path`` is the entry's own path."""
    full = join(path, key)
    if key not in entry:
        if default is MISSING:
            raise InputError(full, "missing")
        return default
    return read(entry[key], full)


def _reader_of(tp):
    """The reader of a dataclass field annotated ``tp``, which leaves a field with
    a Range to ``check``; a TypeError for a type that has no JSON reader."""
    if typing.get_origin(tp) is typing.Annotated:
        return lambda value, path: value
    if tp in (bool, str):
        return {bool: flag, str: string}[tp]
    if dataclasses.is_dataclass(tp):
        return lambda value, path: section(tp, value, path)
    raise TypeError(f"no JSON reader for a field annotated {tp!r}")


@functools.cache
def _field_readers(cls) -> dict:
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: _reader_of(hints[f.name]) for f in dataclasses.fields(cls)}


def section(cls, data, path: str, readers: dict | None = None):
    """A ``cls`` dataclass from a JSON object, each field read by its
    annotation or by ``readers[name]``. A ValueError of ``cls`` whose message
    starts with a field name ("alpha must be ...") is reported at that field."""
    known = _field_readers(cls)
    record(data, path, known)
    read = {**known, **readers} if readers else known
    kwargs = {key: read[key](value, join(path, key)) for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name in known and rest:
            raise InputError(join(path, name), rest) from None
        raise InputError(path or "config", str(exc)) from None


def load_json(path):
    """The JSON value of a file; an unreadable or malformed file is bad input."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(path), str(exc)) from None
