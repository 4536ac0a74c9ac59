import importlib
import inspect
import runpy
from pathlib import Path

import wicketlab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_names_resolve():
    missing = [name for name in wicketlab.__all__ if not hasattr(wicketlab, name)]
    assert missing == []
    assert len(set(wicketlab.__all__)) == len(wicketlab.__all__)


def test_tracer_sites_resolve():
    # run_path compiles the source in memory, so nothing is written next
    # to the benchmark's files.
    tracing = runpy.run_path(str(TRACING))
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing["SITES"] + tracing["GENERATOR_SITES"]
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
    for module, attr in tracing["GENERATOR_SITES"]:
        fn = getattr(importlib.import_module(module), attr)
        assert inspect.isgeneratorfunction(fn), f"{module}.{attr}"
