"""The benchmark's span sites must name attributes that exist.

splinebench wraps public functions at the module attributes listed in
its SPAN_SITES and ROLLOUT_SITES, and a traced run fails on a name that
is gone. Checking them here makes a rename fail the unit tests, not only
the benchmark's slower smoke runs.
"""

import importlib.util
import sys
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "splinebench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("splinebench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_span_site_resolves():
    spans = _load_spans()
    sites = spans.SPAN_SITES + spans.ROLLOUT_SITES
    assert sites
    missing = [
        (path, attr) for path, attr, _ in sites if attr not in vars(spans._resolve(path))
    ]
    assert not missing
