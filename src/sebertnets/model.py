"""Model assembly: the three variants, training step, and checkpoints.

Variants share one wiring: a transformer encoder feeds either the span
head directly (``bert_baseline``) or a masked bidirectional recurrent
layer whose per-position states feed the head (``sebertnets`` and
``hsebertnets``). The latter two hold identical trainable parameters
and decode identically (one ranked span stream); ``hsebertnets`` stays
an accepted name so that checkpoints and configs that store it load.

Every parameter's name, shape and init rule is an entry of ``layout``,
built from each module's part. A fresh model draws it; a load walks it
against the checkpoint directory and takes the payload arrays as the
parameters, drawing nothing.

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
import weakref
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Batch, Vocabulary
from .encoder import EncoderConfig, encode, encoder_layout
from .errors import (
    CheckpointError,
    CompatibilityError,
    ContractError,
    DataError,
    DivergenceError,
)
from .optim import (
    AdamState,
    SwatsState,
    apply_step,
    clip_global_norm,
    state_from_meta,
    state_meta,
    state_moments,
)
from .recurrent import GRU, LSTM, RecurrentParams, bidirectional_encode, direction_layout
from .span import (
    RecallConfig,
    SpanCandidate,
    SpanLogits,
    decode_multichannel,
    example_losses,
    head_layout,
    score,
    span_loss,
    valid_mask,
)
from .tensor import Arena, Chain, Tensor, backward, draw

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


def layout(cfg: ModelConfig, enc_cfg: EncoderConfig):
    """The model's (name, shape, init) entries, produced lazily in their
    one order: encoder, each recurrent direction, span head."""
    parts = [("encoder.", encoder_layout(enc_cfg))]
    if cfg.recurrent:
        parts += [(pre, direction_layout(cfg.cell, enc_cfg.d_model, cfg.hidden_size))
                  for pre in ("rnn_fwd.", "rnn_bwd.")]
    parts.append(("head.", head_layout(2 * cfg.hidden_size if cfg.recurrent
                                       else enc_cfg.d_model)))
    for pre, part in parts:
        for name, shape, init in part:
            yield pre + name, shape, init


# weak references to the models that hold an idle arena
_IDLE: set[weakref.ref] = set()


class Model:
    """Owns all trainable parameters of one variant plus its configs."""

    def __init__(self, cfg: ModelConfig, enc_cfg: EncoderConfig,
                 vocab: Vocabulary, seed: int = 0):
        rng = np.random.default_rng(seed)
        self._assemble(cfg, enc_cfg, vocab, lambda entries: draw(entries, rng))

    def _assemble(self, cfg: ModelConfig, enc_cfg: EncoderConfig, vocab: Vocabulary,
                  make) -> None:
        """Hold, at step 0, what ``make`` gives for this model's layout;
        the per-module dicts are views that share its Tensors."""
        if enc_cfg.vocab_size != vocab.size:
            raise CompatibilityError(
                f"encoder vocab_size {enc_cfg.vocab_size} does not match "
                f"vocabulary of {vocab.size} entries"
            )
        self.cfg = cfg
        self.enc_cfg = enc_cfg
        self.vocab = vocab
        self.step = 0
        # the idle arena; a training step holds it while its chain runs
        self._arena: Arena | None = None
        params = self._params = make(layout(cfg, enc_cfg))

        def part(prefix):
            return {n[len(prefix):]: p for n, p in params.items() if n.startswith(prefix)}

        self.encoder_params = part("encoder.")
        self.rnn_fwd = self.rnn_bwd = None
        if cfg.recurrent:
            self.rnn_fwd, self.rnn_bwd = (
                RecurrentParams(cfg.cell, enc_cfg.d_model, cfg.hidden_size, part(pre))
                for pre in ("rnn_fwd.", "rnn_bwd."))
        self.head_params = part("head.")

    @property
    def head_width(self) -> int:
        return self.head_params["w_start"].shape[0]

    def parameters(self) -> dict[str, Tensor]:
        """The model's flat name -> Tensor map, in ``layout`` order."""
        return self._params

    # ------------------------------------------------------------ forward

    def forward(self, batch: Batch, *, rng: np.random.Generator | None = None,
                chain: Chain | None = None) -> tuple[SpanLogits, list[np.ndarray]]:
        """Span logits for a batch plus per-layer attention weights. With
        an ``rng`` the pass is a training pass: dropout runs. The weights
        are read-only, and a pass recorded on a ``chain`` returns ``[]``
        for them (see ``EncoderOutput``).

        With a ``chain``, each layer appends its stages to it and takes
        its large arrays from the chain's arena. A tape-free pass
        allocates as numpy does and drops every model's idle arena: an
        eval pass, of this model or another, runs between training
        passes, and it can use that memory."""
        if int(batch.token_ids.max(initial=0)) >= self.enc_cfg.vocab_size:
            raise CompatibilityError(
                f"batch holds token id {int(batch.token_ids.max())} but the "
                f"model vocabulary has {self.enc_cfg.vocab_size} entries"
            )
        if chain is None:
            while _IDLE:
                model = _IDLE.pop()()
                if model is not None:
                    model._arena = None
        enc = encode(batch.token_ids, batch.segment_ids, batch.attention_mask,
                     self.encoder_params, self.enc_cfg, rng=rng, chain=chain)
        h = enc.hidden
        if self.cfg.recurrent:
            h = bidirectional_encode(h, batch.attention_mask, self.rnn_fwd, self.rnn_bwd,
                                     chain=chain)
        valid = valid_mask(batch.token_ids.shape[1], batch.text_spans)
        return score(h, self.head_params, valid, chain=chain), enc.attentions

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
        # the model's arena is lent to this step's chain, and a step that
        # raises before its backward has run drops it
        arena, self._arena = self._arena or Arena(), None
        chain = Chain(params, arena)
        logits = self.forward(batch, rng=rng, chain=chain)[0]
        loss = span_loss(logits, golds, chain=chain)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise DivergenceError(
                f"loss became {loss_val} at training step {self.step + 1}"
            )
        if losses is not None:
            losses.extend(example_losses(logits, golds).tolist())
        # keyed in layout order, the order clipping sums the norm in
        grads = dict.fromkeys(params)
        backward(chain, grads)  # consumes the chain and, with it, every activation
        self._arena = arena
        _IDLE.add(weakref.ref(self))
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


def _config(cls, meta: dict, key: str):
    """Metadata section ``key`` as a ``cls``, whose fields it must hold exactly."""
    keys = sorted(f.name for f in fields(cls))
    if sorted(meta[key]) != keys:
        raise ContractError(f"{key} section holds {sorted(meta[key])}, expected {keys}")
    return cls(**meta[key])


def _payload_params(entries, arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """The payload ``arrays`` as the parameters of layout ``entries``,
    checked in turn. A lazy layout ends the walk at the first entry the
    file lacks or holds at another shape, so no size field makes it allocate."""
    params = {}
    for name, shape, _ in entries:
        if name not in arrays:
            raise CheckpointError(f"parameter {name!r} missing from directory",
                                  offset=12)
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {arrays[name].shape}, expected {shape}",
                offset=12)
        params[name] = Tensor(arrays[name])
    return params


def _rebuild(meta: dict, arrays: dict[str, np.ndarray]) -> tuple[Model, object | None]:
    """The model and optimizer state that the checked metadata and
    payload arrays describe. Nothing is drawn."""
    cfg = _config(ModelConfig, meta, "model")
    enc_cfg = _config(EncoderConfig, meta, "encoder")
    vocab = Vocabulary.from_json(meta["vocab"])
    training = meta["training"]
    if not _is_count(training.get("step")) or "optimizer" not in training:
        raise ContractError(f"training section needs a 'step' count and an "
                            f"'optimizer' entry, got {training!r}")
    model = Model.__new__(Model)
    model._assemble(cfg, enc_cfg, vocab, lambda entries: _payload_params(entries, arrays))
    model.step = training["step"]
    params = model.parameters()

    m, v = ({name: arrays[f"optim.{which}.{name}"] for name in params
             if f"optim.{which}.{name}" in arrays} for which in "mv")
    if m.keys() != v.keys():
        raise ContractError("optimizer moments 'm' and 'v' cover different parameters")
    state = state_from_meta(training["optimizer"], m, v)
    # Adam touches every parameter's moments on each step, so a state
    # past step 0 holds them all and one at step 0 holds none
    if isinstance(state, (AdamState, SwatsState)) and m.keys() != (
            params.keys() if state.k else set()):
        raise ContractError(f"optimizer at step k={state.k} stores moments for "
                            f"{len(m)} of {len(params)} parameters, expected "
                            f"{len(params) if state.k else 0}")
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
    except (CompatibilityError, ContractError, DataError) as exc:
        raise CheckpointError(str(exc), offset=12) from exc
