"""The scripts under ``tools/`` run end to end on this checkout.

Each wraps library internals (``bitdump.py`` the recorded pass and the
CLI, ``stage_memory.py`` the encoder blocks and the recurrent layer and
their backwards, ``bench_encoder.py`` the attention and FFN blocks and
their rows), so a change to those can break a script that no other test
runs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STAGES = [
    "embedding forward", "attention 0 forward", "FFN 0 forward", "attention 1 forward",
    "FFN 1 forward", "recurrent layer forward", "span head and loss",
    "recurrent layer backward (both directions)", "FFN 1 backward", "attention 1 backward",
    "FFN 0 backward", "attention 0 backward", "embedding backward", "end of backward",
    "gradient clipping", "optimizer step",
]


def run_tool(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def test_bitdump_finds_the_working_tree_equal_to_itself():
    proc = run_tool("tools/bitdump.py", ".", ".", "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    m = re.fullmatch(r"(\d+) digests compared, 0 differ, 0 in one revision only", last)
    assert m, proc.stdout
    # 3 variants x 2 cells x 2 activations x 2 dropouts x 2 dtypes x 2
    # batch sizes, each with its logits, loss, gradients and Adam steps
    assert int(m.group(1)) > 96 * 20


def test_stage_memory_prints_every_stage():
    proc = run_tool("tools/stage_memory.py", "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in proc.stdout.splitlines() if line.startswith("| ")]
    assert rows[0][0] == "stage"
    assert [row[0] for row in rows[1:]] == STAGES
    for row in rows[1:]:
        assert len(row) == 7
        for cell in row[1:]:
            float(cell)
    assert "arena taken high-water:" in proc.stdout


def test_bench_encoder_times_both_placements(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_tool("tools/bench_encoder.py", "--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    rows = record["rows"]
    assert [(r["block"], r["placement"]) for r in rows] == [
        ("attention", "whole"), ("attention", "split"), ("FFN", "whole"), ("FFN", "split")]
    for row in rows:
        for key in ("tape_free_forward_ms", "recorded_forward_ms", "backward_ms"):
            assert row[key] > 0
    assert record["environment"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
