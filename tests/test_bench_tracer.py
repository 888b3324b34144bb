"""bench/tracer.py wraps callables by name; a rename in the package must
fail here, in the fast suite, rather than only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_exists():
    targets = _load_tracer().targets()
    assert targets
    missing = [name for name, owner, attr in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
