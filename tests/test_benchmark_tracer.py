"""The benchmark's per-layer tracer patches qdl by name; every name it
lists must still resolve, or a traced run fails to install."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_names_resolve_in_qdl(monkeypatch):
    # load the tracer without writing a bytecode cache next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for qualname in tracing.SPANNED + tracing.COUNTED:
        module, attr = qualname.split(".")
        assert callable(getattr(importlib.import_module("qdl." + module), attr, None)), qualname
    for cls, attrs, name in tracing.METHODS:
        assert cls.__module__.startswith("qdl."), name
        for attr in attrs:
            assert callable(cls.__dict__.get(attr)), (name, attr)
