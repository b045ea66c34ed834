"""Layer tracing from outside the program.

The tracer replaces the public functions a module calls through its own
namespace (``sebertnets.model.backward``, ``sebertnets.cli.load_jsonl``,
...) with wrappers that record one span per call: name, start, end,
parent span, operation id, and whether an exception passed through.
Spans stay in memory and are summarised (and optionally written out)
once the run ends. Nothing under ``src/`` is modified on disk; the
originals are put back by ``uninstall``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time

import numpy as np

# (span name, module, attribute) in layer order. A dotted attribute
# names a method on a class. Each module is the namespace the caller
# looks the function up in, so the wrapper sees every production call.
SPANS = (
    ("data.load_jsonl", "sebertnets.cli", "load_jsonl"),
    ("data.encode_example", "sebertnets.cli", "encode_example"),
    ("data.batch", "sebertnets.cli", "batch"),
    ("encoder.embed", "sebertnets.encoder", "embed"),
    ("encoder.encode", "sebertnets.model", "encode"),
    ("recurrent.bidirectional_encode", "sebertnets.model", "bidirectional_encode"),
    ("recurrent.step", "sebertnets.recurrent", "gru_step"),
    ("recurrent.step", "sebertnets.recurrent", "lstm_step"),
    ("span.score", "sebertnets.model", "score"),
    ("span.span_loss", "sebertnets.model", "span_loss"),
    ("span.decode_multichannel", "sebertnets.model", "decode_multichannel"),
    ("span.decode_top1", "sebertnets.span", "decode_top1"),
    ("tensor.backward", "sebertnets.model", "backward"),
    ("optim.clip_global_norm", "sebertnets.model", "clip_global_norm"),
    ("optim.apply_step", "sebertnets.model", "apply_step"),
    ("model.forward", "sebertnets.model", "Model.forward"),
    ("model.save_checkpoint", "sebertnets.model", "save_checkpoint"),
    ("model.load_checkpoint", "sebertnets.model", "load_checkpoint"),
    ("evaluation.evaluate", "sebertnets.cli", "evaluate"),
)

# Recurrent steps are split by the direction whose params they receive.
REPORTED_SPANS = tuple(dict.fromkeys(
    part for name, _, _ in SPANS
    for part in ((name + ".fwd", name + ".bwd") if name == "recurrent.step" else (name,))
))

COUNTS = {
    "recurrent.steps": "count",
    "span.pairs_scored": "count",
    "span.candidates_returned": "count",
    "span.useful_ratio": "ratio",
    "tensor.tape_records": "count/step",
    "model.checkpoint_bytes": "B",
}

SPAN_STATS = {
    "self_s": "s",
    "total_s": "s",
    "calls": "count",
    "ms_per_call": "ms",
    "exceptions": "count",
}

OP_PREFIX = "op."


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {f"{span}.{stat}": unit
           for span in REPORTED_SPANS for stat, unit in SPAN_STATS.items()}
    out.update(COUNTS)
    out["trace.coverage"] = "ratio"
    out["trace.overhead"] = "ratio"
    return out


def band_pairs(valid: np.ndarray, max_span_len: int) -> int:
    """Number of (s, e) pairs with both ends valid and 0 <= e - s < max_span_len."""
    idx = np.flatnonzero(valid)
    return int((np.searchsorted(idx, idx + max_span_len) - np.arange(idx.size)).sum())


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder. ``install`` wraps the targets in ``SPANS`` (those
    named in ``only``, if given); ``op`` opens a root span for one
    operation of the workload. ``batch_hook``, if given, is called with
    every batch ``data.batch`` returns."""

    def __init__(self, only=None, batch_hook=None):
        self.only = only
        self.batch_hook = batch_hook
        # each span: [op_id, name, parent index, start, end, raised]
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNTS if name != "span.useful_ratio"}
        self.backward_calls = 0
        self.checkpoint_saves = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._rnn: list[tuple[object, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_id = -1

    # ------------------------------------------------------------ wiring

    def install(self) -> None:
        if self._saved:
            return
        for name, module, attr in SPANS:
            if self.only is not None and name not in self.only:
                continue
            try:
                owner, key = _resolve(module, attr)
                fn = getattr(owner, key)
            except (ImportError, AttributeError):
                self.missing.add(f"{module}.{attr}")
                continue
            self._saved.append((owner, key, fn))
            setattr(owner, key, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, fn = self._saved.pop()
            setattr(owner, key, fn)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([self._op_id, name, parent, time.perf_counter(), 0.0, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def before(args, kwargs):
            if name == "recurrent.step":
                p = args[2] if len(args) > 2 else kwargs.get("p")
                tracer.counts["recurrent.steps"] += 1
                fwd, bwd = tracer._rnn[-1] if tracer._rnn else (None, None)
                if p is fwd:
                    return "recurrent.step.fwd"
                return "recurrent.step.bwd" if p is bwd else "recurrent.step.other"
            if name == "recurrent.bidirectional_encode":
                fwd = args[2] if len(args) > 2 else kwargs.get("fwd")
                bwd = args[3] if len(args) > 3 else kwargs.get("bwd")
                tracer._rnn.append((fwd, bwd))
            elif name == "span.decode_multichannel":
                logits, cfg = args[0], args[3] if len(args) > 3 else kwargs["cfg"]
                tracer.counts["span.pairs_scored"] += band_pairs(
                    logits.valid, cfg.max_span_len)
            elif name == "tensor.backward":
                tape = args[0] if args else kwargs["tape"]
                tracer.counts["tensor.tape_records"] += len(tape)
                tracer.backward_calls += 1
            return name

        def after(args, kwargs, result):
            if name == "recurrent.bidirectional_encode":
                tracer._rnn.pop()
            elif name == "span.decode_multichannel":
                tracer.counts["span.candidates_returned"] += len(result)
            elif name == "data.batch" and tracer.batch_hook is not None:
                tracer.batch_hook(result)
            elif name == "model.save_checkpoint":
                path = args[1] if len(args) > 1 else kwargs["path"]
                tracer.counts["model.checkpoint_bytes"] += os.path.getsize(path)
                tracer.checkpoint_saves += 1

        def wrapper(*args, **kwargs):
            idx = tracer._open(before(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "recurrent.bidirectional_encode":
                    tracer._rnn.pop()
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ ops

    @contextlib.contextmanager
    def op(self, kind: str):
        """A root span for one operation of the workload."""
        self._op_id += 1
        idx = self._open(OP_PREFIX + kind)
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    # ------------------------------------------------------------ summary

    def summary(self, timed_kinds) -> dict:
        """Per-span totals, self times, counts and coverage of the timed
        operations (ops whose kind is in ``timed_kinds``)."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"total_s": 0.0, "self_s": 0.0, "calls": 0, "exceptions": 0}
                 for name in REPORTED_SPANS}
        timed_ops = {OP_PREFIX + k for k in timed_kinds}
        op_wall = 0.0
        covered = 0.0
        for i, (_, name, parent, start, end, raised) in enumerate(self.spans):
            dur = end - start
            if name in timed_ops:
                op_wall += dur
                continue
            if name.startswith(OP_PREFIX):
                continue
            if parent >= 0 and self.spans[parent][1] in timed_ops:
                covered += dur
            st = stats.get(name)
            if st is None:  # a recurrent step outside bidirectional_encode
                continue
            st["total_s"] += dur
            st["self_s"] += dur - child_time[i]
            st["calls"] += 1
            st["exceptions"] += int(raised)
        for st in stats.values():
            st["ms_per_call"] = 1e3 * st["total_s"] / st["calls"] if st["calls"] else 0.0
        counts = dict(self.counts)
        if self.backward_calls:
            counts["tensor.tape_records"] /= self.backward_calls
        if self.checkpoint_saves:
            counts["model.checkpoint_bytes"] /= self.checkpoint_saves
        pairs = counts["span.pairs_scored"]
        counts["span.useful_ratio"] = (
            counts["span.candidates_returned"] / pairs if pairs else 0.0)
        return {"spans": stats, "counts": counts,
                "coverage": covered / op_wall if op_wall else 0.0,
                "timed_wall_s": op_wall, "missing_targets": sorted(self.missing)}

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, name, parent, start, end, raised in self.spans:
                fh.write(json.dumps({"op": op_id, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "raised": raised}) + "\n")

