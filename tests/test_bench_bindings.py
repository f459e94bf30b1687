"""The benchmark's tracer rebinds fanspec names by (module, attribute).

A rename in the package that drops one of those names would break the
benchmark run, not the package; this test makes it fail here instead.  The
tracer module is loaded from its file and never installed, so nothing is
rebound.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_traced_binding_resolves():
    targets = _targets()
    assert targets
    for name, bindings in targets.items():
        for where, attr in bindings:
            modname, _, clsname = where.partition(".")
            owner = importlib.import_module(f"fanspec.{modname}")
            if clsname:
                owner = getattr(owner, clsname)
            assert callable(getattr(owner, attr, None)), (name, where, attr)
