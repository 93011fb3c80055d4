"""The ctypes mirrors in ``repro.sim.native`` match ``_native.c``.

ctypes trusts each ``Structure`` mirror's field list blindly: a field
added or dropped on one side only shifts every later field, and the
engine then reads and writes the wrong memory.  These tests parse the C
source itself (comments stripped), so they need no compiler and also
run with ``REPRO_NATIVE=0``.
"""

from __future__ import annotations

import ctypes
import os
import re

import pytest

from repro.sim import native, prefetcher

_SOURCE = os.path.join(os.path.dirname(native.__file__), "_native.c")


def _c_source():
    with open(_SOURCE, encoding="utf-8") as src:
        text = src.read()
    return re.sub(r"/\*.*?\*/|//[^\n]*", " ", text, flags=re.S)


def _c_structs():
    """``{NName: [(field, kind), ...]}`` for every ``typedef struct``."""
    structs = {}
    for body, name in re.findall(r"typedef struct \{(.*?)\}\s*(\w+);",
                                 _c_source(), flags=re.S):
        fields = []
        for decl in filter(None, (d.strip() for d in body.split(";"))):
            ctype, names = decl.split(None, 1)
            for field in names.split(","):
                field = field.strip()
                kind = "pointer" if field.startswith("*") else ctype
                fields.append((field.lstrip("* "), kind))
        structs[name] = fields
    return structs


def _kind(ctype):
    if issubclass(ctype, ctypes._Pointer):
        return "pointer"
    if issubclass(ctype, ctypes.Structure):
        return ctype.__name__.lstrip("_")
    return {ctypes.c_int64: "i64", ctypes.c_double: "double"}[ctype]


def _mirrors():
    return {
        name.lstrip("_"): cls for name, cls in vars(native).items()
        if isinstance(cls, type) and issubclass(cls, ctypes.Structure)
    }


def test_every_struct_has_a_mirror():
    assert set(_c_structs()) == set(_mirrors())


@pytest.mark.parametrize("name", sorted(_c_structs()))
def test_mirror_fields_match_in_order(name):
    mirror = [(field, _kind(ctype))
              for field, ctype in _mirrors()[name]._fields_]
    assert mirror == _c_structs()[name]


def test_constants_match_defines():
    defines = dict(re.findall(
        r"#define\s+(STOP_\w+|PMU_\w+|HT_EMPTY)\s+\(?(-?\d+)\)?",
        _c_source(),
    ))
    python = {name: getattr(native, name) for name in dir(native)
              if re.fullmatch(r"STOP_\w+|PMU_\w+|HT_EMPTY", name)}
    assert python == {name: int(value) for name, value in defines.items()}


def test_prefetch_depth_fits_the_engine_buffers():
    """C sizes each access's prefetch buffers by ``PF_MAX_DEPTH`` and
    never checks the depth the wrapper passes it."""
    (bound,) = re.findall(r"#define\s+PF_MAX_DEPTH\s+(\d+)", _c_source())
    assert 1 <= prefetcher.DEPTH <= int(bound)
