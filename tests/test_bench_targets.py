"""Every function the benchmark's layer trace wraps still exists, and
the arguments it reads by position keep their places.

``perfbench/tracer.py`` looks its targets up by module and name and
reports the ones it cannot find as ``missing_targets``; their per-layer
metrics then read 0 instead of failing. It also reads some arguments by
position (the recurrent params of a step, the two directions, the decode
config, the tape, the checkpoint path), so a reordered signature would
silently misattribute a traced run. These tests turn a deleted or
renamed target, or a moved argument, into a tier-1 failure.
"""

from __future__ import annotations

import inspect
import os
import sys

import pytest

from sebertnets import model, recurrent

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


# the arguments the tracer reads by position: index -> parameter name
POSITIONAL_READS = [
    (recurrent.gru_step, {2: "p"}),
    (recurrent.lstm_step, {2: "p"}),
    (model.bidirectional_encode, {2: "fwd", 3: "bwd"}),
    (model.decode_multichannel, {3: "cfg"}),
    (model.backward, {0: "tape"}),
    (model.save_checkpoint, {1: "path"}),
]


@pytest.mark.parametrize("fn, reads", POSITIONAL_READS,
                         ids=[fn.__name__ for fn, _ in POSITIONAL_READS])
def test_traced_positional_arguments_keep_their_places(fn, reads):
    names = list(inspect.signature(fn).parameters)
    assert {i: names[i] for i in reads} == reads
