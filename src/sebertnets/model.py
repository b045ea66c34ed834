"""Model assembly: the three variants, training step, and checkpoints.

Variants share one wiring: a transformer encoder feeds either the span
head directly (``bert_baseline``) or a masked bidirectional recurrent
layer whose per-position states feed the head (``sebertnets`` and
``hsebertnets``). The latter two hold identical trainable parameters
and decode identically (one ranked span stream); ``hsebertnets`` stays
an accepted name so that checkpoints and configs that store it load.

Checkpoint file layout::

    bytes 0..3    magic b"SEBN"
    bytes 4..7    format version, u32 little-endian (currently 2)
    bytes 8..11   metadata byte length, u32 little-endian
    metadata      UTF-8 JSON: model/encoder configs, vocabulary,
                  parameter directory (name, shape, offset, nbytes),
                  training step and optimizer state scalars
    payload       concatenated float32 little-endian row-major arrays,
                  one per directory entry, in directory order; every
                  value finite

Optimizer moment buffers ride along as directory entries named
``optim.m.<param>`` / ``optim.v.<param>`` so training resumes exactly.

Version 1 also stored ``head.b_start``, ``head.b_end`` and every
``encoder.layer<i>.attn.bk``, with their moments. A softmax cancels these
biases, so their gradient is zero and version 2 has no such parameter. A
version-1 file loads with those entries dropped; in a version-2 file they
are stray entries.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Batch, Vocabulary
from .encoder import EncoderConfig, encode, init_encoder_params
from .errors import (
    CheckpointError,
    CompatibilityError,
    ContractError,
    DataError,
    DivergenceError,
)
from .optim import apply_step, clip_global_norm, state_from_meta, state_meta, state_moments
from .recurrent import GRU, LSTM, RecurrentParams, bidirectional_encode
from .span import (
    RecallConfig,
    SpanCandidate,
    SpanLogits,
    decode_multichannel,
    example_losses,
    init_head_params,
    score,
    span_loss,
    valid_mask,
)
from .tensor import Tape, Tensor, backward, zero_grads

BERT_BASELINE = "bert_baseline"
SEBERTNETS = "sebertnets"
HSEBERTNETS = "hsebertnets"
VARIANTS = (BERT_BASELINE, SEBERTNETS, HSEBERTNETS)
_RECURRENT = (SEBERTNETS, HSEBERTNETS)

MAGIC = b"SEBN"
FORMAT_VERSION = 2
# the version-1 entries of parameters that version 2 dropped
_V1_ONLY = re.compile(r"(optim\.[mv]\.)?(head\.b_(start|end)|encoder\.layer\d+\.attn\.bk)")
CLIP_NORM = 5.0
# checkpoint metadata sections and the JSON type each must have
_SECTIONS = {"model": dict, "encoder": dict, "vocab": dict, "training": dict,
             "params": list}


@dataclass
class ModelConfig:
    variant: str = SEBERTNETS
    cell: str = GRU
    hidden_size: int = 32

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.cell not in (LSTM, GRU):
            raise ContractError(f"cell must be {LSTM!r} or {GRU!r}, got {self.cell!r}")
        if type(self.hidden_size) is not int or self.hidden_size < 1:
            raise ContractError(f"hidden_size must be an int >= 1, got {self.hidden_size!r}")

    @property
    def recurrent(self) -> bool:
        return self.variant in _RECURRENT


class Model:
    """Owns all trainable parameters of one variant plus its configs."""

    def __init__(self, cfg: ModelConfig, enc_cfg: EncoderConfig,
                 vocab: Vocabulary, seed: int = 0):
        if enc_cfg.vocab_size != vocab.size:
            raise CompatibilityError(
                f"encoder vocab_size {enc_cfg.vocab_size} does not match "
                f"vocabulary of {vocab.size} entries"
            )
        self.cfg = cfg
        self.enc_cfg = enc_cfg
        self.vocab = vocab
        self.step = 0
        rng = np.random.default_rng(seed)
        self.encoder_params = init_encoder_params(enc_cfg, rng)
        if cfg.recurrent:
            self.rnn_fwd = RecurrentParams.init(
                cfg.cell, enc_cfg.d_model, cfg.hidden_size, rng)
            self.rnn_bwd = RecurrentParams.init(
                cfg.cell, enc_cfg.d_model, cfg.hidden_size, rng)
            head_width = 2 * cfg.hidden_size
        else:
            self.rnn_fwd = None
            self.rnn_bwd = None
            head_width = enc_cfg.d_model
        self.head_params = init_head_params(head_width, rng)

    @property
    def head_width(self) -> int:
        return self.head_params["w_start"].shape[0]

    def parameters(self) -> dict[str, Tensor]:
        """Flat name → Tensor map in a stable order."""
        out: dict[str, Tensor] = {}
        for name, p in self.encoder_params.items():
            out[f"encoder.{name}"] = p
        if self.cfg.recurrent:
            for name, p in self.rnn_fwd.weights.items():
                out[f"rnn_fwd.{name}"] = p
            for name, p in self.rnn_bwd.weights.items():
                out[f"rnn_bwd.{name}"] = p
        for name, p in self.head_params.items():
            out[f"head.{name}"] = p
        return out

    # ------------------------------------------------------------ forward

    def forward(self, batch: Batch, *, rng: np.random.Generator | None = None
                ) -> tuple[SpanLogits, list[np.ndarray]]:
        """Span logits for a batch plus per-layer attention weights. With
        an ``rng`` the pass is a training pass: dropout runs."""
        if int(batch.token_ids.max(initial=0)) >= self.enc_cfg.vocab_size:
            raise CompatibilityError(
                f"batch holds token id {int(batch.token_ids.max())} but the "
                f"model vocabulary has {self.enc_cfg.vocab_size} entries"
            )
        enc = encode(batch.token_ids, batch.segment_ids, batch.attention_mask,
                     self.encoder_params, self.enc_cfg, rng=rng)
        h = enc.hidden
        if self.cfg.recurrent:
            h = bidirectional_encode(h, batch.attention_mask,
                                     self.rnn_fwd, self.rnn_bwd, self.cfg.cell)
        valid = valid_mask(batch.token_ids.shape[1], batch.text_spans)
        logits = score(h, self.head_params, valid)
        return logits, enc.attentions

    # ------------------------------------------------------------ decode

    def recall_config(self, k: int = RecallConfig.k,
                      max_span_len: int = RecallConfig.max_span_len) -> RecallConfig:
        return RecallConfig(k=k, max_span_len=max_span_len)

    def predict(self, batch: Batch, recall: RecallConfig | None = None
                ) -> list[list[SpanCandidate]]:
        """Ranked candidate lists, one per example, decoded with
        ``recall`` or the default ``recall_config()``."""
        if len(batch.items) != len(batch):
            raise ContractError("batch lacks per-example items; build it with "
                                "data.batch() to predict")
        cfg = recall if recall is not None else self.recall_config()
        logits, _ = self.forward(batch)
        return decode_multichannel(logits, [item.text for item in batch.items],
                                   batch.text_spans, cfg)

    # ----------------------------------------------------------- training

    def train_step(self, batch: Batch, state, rng: np.random.Generator,
                   losses: list | None = None) -> float:
        """One optimization step; returns the (finite) batch loss. Each
        example's fp64 loss is appended to ``losses``, if given."""
        golds = batch.golds
        if (golds < 0).any():
            raise ContractError(
                "training batch holds examples without a gold span; flatten "
                "the corpus before batching"
            )
        params = self.parameters()
        zero_grads(params.values())
        with Tape() as tape:
            logits, _ = self.forward(batch, rng=rng)
            loss = span_loss(logits, golds)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise DivergenceError(
                f"loss became {loss_val} at training step {self.step + 1}"
            )
        if losses is not None:
            losses.extend(example_losses(logits, golds).tolist())
        backward(tape, loss)
        grads = {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
        norm = clip_global_norm(grads, CLIP_NORM)
        if not np.isfinite(norm):
            raise DivergenceError(
                f"gradient norm became {norm} at training step {self.step + 1}"
            )
        apply_step(params, grads, state)
        self.step += 1
        return loss_val

    # -------------------------------------------------------- persistence

    def save(self, path, optimizer_state=None) -> None:
        save_checkpoint(self, path, optimizer_state)

    @classmethod
    def load(cls, path) -> tuple["Model", object | None]:
        return load_checkpoint(path)


# ------------------------------------------------------------ checkpoints


def save_checkpoint(model: Model, path, optimizer_state=None) -> None:
    params = model.parameters()
    m, v = state_moments(optimizer_state)
    arrays: list[tuple[str, np.ndarray]] = [
        (name, p.data) for name, p in params.items()
    ]
    for name in params:
        if name in m:
            arrays.append((f"optim.m.{name}", m[name]))
            arrays.append((f"optim.v.{name}", v[name]))

    directory = []
    payload = bytearray()
    for name, arr in arrays:
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        directory.append({"name": name, "shape": list(arr.shape),
                          "offset": len(payload), "nbytes": len(raw)})
        payload.extend(raw)

    meta = {
        "model": asdict(model.cfg),
        "encoder": asdict(model.enc_cfg),
        "vocab": model.vocab.to_json(),
        "training": {"step": model.step,
                     "optimizer": state_meta(optimizer_state)},
        "params": directory,
    }
    meta_bytes = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta_bytes))
    # a temp file beside the target, then a rename: a failed write leaves
    # any previous checkpoint at ``path`` as it was
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(meta_bytes)
            fh.write(bytes(payload))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_meta(blob: bytes) -> tuple[dict, int, int]:
    if len(blob) < 12:
        raise CheckpointError("file shorter than the 12-byte header",
                              offset=len(blob))
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}",
                              offset=0)
    version, meta_len = struct.unpack("<II", blob[4:12])
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(
            f"unsupported format version {version}, expected 1 or {FORMAT_VERSION}",
            offset=4)
    if 12 + meta_len > len(blob):
        raise CheckpointError(
            f"metadata length {meta_len} overruns a {len(blob)}-byte file",
            offset=8)
    try:
        meta = json.loads(blob[12:12 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"metadata is not valid JSON ({exc})",
                              offset=12) from exc
    for key, kind in _SECTIONS.items():
        if not isinstance(meta, dict) or not isinstance(meta.get(key), kind):
            raise CheckpointError(f"metadata lacks the {key!r} section as a "
                                  f"{kind.__name__}", offset=12)
    return meta, meta_len, version


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _check_entry(entry) -> None:
    if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(map(_is_count, [*entry["shape"], entry.get("offset"),
                                    entry.get("nbytes")]))):
        raise CheckpointError(f"directory entry {entry!r} needs a 'name' string "
                              f"and 'shape', 'offset' and 'nbytes' counts", offset=12)


def _rebuild(meta: dict, arrays: dict[str, np.ndarray]) -> tuple[Model, object | None]:
    """The model and optimizer state that the checked metadata and
    payload arrays describe."""
    stored = meta["model"]
    cfg = ModelConfig(variant=stored.get("variant"), cell=stored.get("cell"),
                      hidden_size=stored.get("hidden_size"))
    keys = sorted(f.name for f in fields(EncoderConfig))
    if sorted(meta["encoder"]) != keys:
        raise ContractError(f"encoder section holds {sorted(meta['encoder'])}, "
                            f"expected {keys}")
    enc_cfg = EncoderConfig(**meta["encoder"])
    vocab = Vocabulary.from_json(meta["vocab"])
    model = Model(cfg, enc_cfg, vocab, seed=0)
    training = meta["training"]
    if not _is_count(training.get("step")) or "optimizer" not in training:
        raise ContractError(f"training section needs a 'step' count and an "
                            f"'optimizer' entry, got {training!r}")
    model.step = training["step"]

    params = model.parameters()
    for name, p in params.items():
        if name not in arrays:
            raise CheckpointError(f"parameter {name!r} missing from directory",
                                  offset=12)
        got = arrays[name]
        if got.shape != p.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {got.shape}, expected {p.shape}",
                offset=12)
        p.data = got.astype(p.data.dtype, copy=False)

    m, v = ({name: arrays[f"optim.{which}.{name}"] for name in params
             if f"optim.{which}.{name}" in arrays} for which in "mv")
    if m.keys() != v.keys():
        raise ContractError("optimizer moments 'm' and 'v' cover different parameters")
    state = state_from_meta(training["optimizer"], m, v)
    known = {*params, *(f"optim.{which}.{name}" for which, moments
                        in zip("mv", state_moments(state)) for name in moments)}
    stray = [name for name in arrays if name not in known]
    if stray:
        raise ContractError(f"directory holds {len(stray)} entries that are no parameter "
                            f"or optimizer moment of this model, first {stray[0]!r}")
    return model, state


def load_checkpoint(path) -> tuple[Model, object | None]:
    """Rebuild the stored model (and optimizer state, if stored) from ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    meta, meta_len, version = _read_meta(blob)

    directory = meta["params"]
    base = 12 + meta_len
    expect = 0
    for entry in directory:
        _check_entry(entry)
        if entry["nbytes"] != 4 * math.prod(entry["shape"]):
            raise CheckpointError(
                f"entry {entry['name']!r} declares {entry['nbytes']} bytes "
                f"for shape {tuple(entry['shape'])}",
                offset=base + entry["offset"])
        if entry["offset"] != expect:
            raise CheckpointError(
                f"entry {entry['name']!r} at offset {entry['offset']}, "
                f"expected {expect}",
                offset=base + expect)
        expect += entry["nbytes"]
    if base + expect != len(blob):
        raise CheckpointError(
            f"payload holds {len(blob) - base} bytes, directory declares "
            f"{expect}",
            offset=base + min(expect, len(blob) - base))

    payload = np.frombuffer(blob, dtype="<f4", offset=base)
    bad = np.flatnonzero(~np.isfinite(payload))
    if bad.size:
        at = 4 * int(bad[0])
        name = next(e["name"] for e in directory
                    if e["offset"] <= at < e["offset"] + e["nbytes"])
        raise CheckpointError(f"entry {name!r} holds the non-finite value "
                              f"{payload[bad[0]]}", offset=base + at)
    arrays: dict[str, np.ndarray] = {}
    for entry in directory:
        start = entry["offset"] // 4
        arrays[entry["name"]] = payload[start:start + entry["nbytes"] // 4].reshape(
            entry["shape"]).copy()
    if len(arrays) != len(directory):
        raise CheckpointError("directory repeats a parameter name", offset=12)
    if version == 1:
        arrays = {name: a for name, a in arrays.items() if not _V1_ONLY.fullmatch(name)}

    try:
        return _rebuild(meta, arrays)
    except (ContractError, DataError) as exc:
        raise CheckpointError(str(exc), offset=12) from exc
