"""The names perfbench's tracer wraps still resolve in ``repro``.

``perfbench/tracing.py`` rebinds every function and method listed in
its ``ENTRIES`` table by name, and counts portal rounds from
``Hierarchy.ledger``.  Renaming or deleting one of those in
``src/repro`` would otherwise only fail the separate perfbench job;
here it fails ``pytest tests/``.
"""

import dataclasses
import importlib
import importlib.util
import os
import sys

import pytest

import repro  # noqa: F401  (loads the modules the entries live in)
from repro.core.hierarchy import Hierarchy

TRACING_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracing.py",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", TRACING_PATH
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


ENTRIES = _load_tracing().ENTRIES


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.name)
def test_entry_resolves_as_install_wraps_it(entry):
    """Each entry is a module attribute or ``cls.__dict__[method]``,
    exactly what ``tracing.install`` looks up."""
    module = importlib.import_module(entry.module)
    if "." in entry.attr:
        cls_name, method = entry.attr.split(".")
        cls = getattr(module, cls_name)
        assert method in cls.__dict__, f"{entry.module}.{entry.attr}"
        raw = cls.__dict__[method]
        target = raw.__func__ if isinstance(raw, classmethod) else raw
    else:
        target = getattr(module, entry.attr)
    assert callable(target)


def test_hierarchy_keeps_the_ledger_the_portal_hook_reads():
    names = {field.name for field in dataclasses.fields(Hierarchy)}
    assert "ledger" in names
