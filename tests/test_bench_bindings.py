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


def test_traced_oracle_calls_keep_their_shape(monkeypatch):
    # the tracer counts the classes a level produces as len() of what
    # oracle._level_up returns, and sees the brute merge's labelings only
    # through oracle's own bindings
    from fanspec import oracle

    for size, level in oracle._levels(3):
        pass
    assert len(oracle._level_up(level, None)) == 11
    merged = []
    real = oracle.canonical_form
    monkeypatch.setattr(oracle, "canonical_form", lambda g: merged.append(g) or real(g))
    rep = oracle.brute_force_extremal(5, (1, 3), "edges")
    assert len(merged) >= len(rep.witnesses) > 0
    # and it counts the classes a brute run examined from this field
    assert type(rep.graphs_examined) is int
