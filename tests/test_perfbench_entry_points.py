"""The repository benchmark's layer tracer wraps named entry points of the
program (``perfbench/layertrace.py``). It looks each one up in its owner's
own ``__dict__``, so a rename, or a move into a base class, breaks the
traced benchmark run; this test makes such a change fail here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace",
                                                  LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_layertrace = _load_layertrace()
_ENTRIES = [(module, cls, attr)
            for module, cls, attrs, _layer in
            _layertrace.ENTRY_POINTS + _layertrace.CM_ENTRY_POINTS
            for attr in attrs]


@pytest.mark.parametrize("module_name, cls_name, attr", _ENTRIES,
                         ids=[f"{m}:{c or ''}.{a}" for m, c, a in _ENTRIES])
def test_entry_point_resolves_in_owner_dict(module_name, cls_name, attr):
    module = importlib.import_module(module_name)
    owner = getattr(module, cls_name) if cls_name else module
    assert attr in vars(owner), (
        f"{module_name}.{cls_name or ''}.{attr} is not defined on its owner"
    )
