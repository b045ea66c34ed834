"""Every function the benchmark's layer trace wraps still exists.

``perfbench/tracer.py`` looks its targets up by module and name and
reports the ones it cannot find as ``missing_targets``; their per-layer
metrics then read 0 instead of failing. This test turns a deleted or
renamed target into a tier-1 failure.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracer  # noqa: E402


def test_every_traced_target_exists():
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == set()
    finally:
        t.uninstall()
