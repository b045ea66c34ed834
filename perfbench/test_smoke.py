"""Smoke tests for the benchmark: a tiny-config pass of every workload in
both modes, the output schema, and the metric names promised in
BENCHMARK.json and layers.json. No timing is asserted.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as _fh:
    LAYERS = json.load(_fh)["layers"]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.3",
                         "--trace", str(trace)], sizes=workloads.TINY)
    assert code == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_pass_schema(workload, trace):
    record, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    env = record["environment"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "git", "seed"):
        assert key in env
    assert record["traffic"]


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(workloads.METRICS)
    units = tracer.per_layer_metric_units()
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == units
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_layer_map_covers_every_span_and_metric():
    spans = [s for layer in LAYERS.values() for s in layer["spans"]]
    assert sorted(spans) == sorted(tracer.REPORTED_SPANS)
    counts = {c for layer in LAYERS.values() for c in layer["counts"]}
    assert counts == set(tracer.COUNTS)
    names = {m["name"] for m in BENCH["end_to_end"]}
    for layer in LAYERS.values():
        for wl, metrics in layer["moves"].items():
            assert wl in workloads.WORKLOADS
            assert set(metrics) <= names
        assert set(layer["no_change_on"]) <= set(workloads.WORKLOADS)


def test_oracle_rejects_a_reordered_list():
    import numpy as np
    rng = np.random.default_rng(0)
    start, end = rng.normal(size=12), rng.normal(size=12)
    valid = np.zeros(12, dtype=bool)
    valid[1:9] = True
    text = "abcdefgh"
    want = oracle.brute_force(start, end, valid, text, (1, 8), 5, 4)
    assert oracle.check_candidates(want, start, end, valid, text, (1, 8), 5, 4) == []
    swapped = [want[1], want[0]] + want[2:]
    assert oracle.check_candidates(swapped, start, end, valid, text, (1, 8), 5, 4)
    wide = want[:-1] + [(1, 8, want[-1][2], text)]
    assert oracle.check_candidates(wide, start, end, valid, text, (1, 8), 5, 4)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "train_long", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
