"""Model assembly: the three variants, training step, and checkpoints.

Variants share one wiring: a transformer encoder feeds either the span
head directly (``bert_baseline``) or a masked bidirectional recurrent
layer whose per-position states feed the head (``sebertnets`` and
``hsebertnets``). The latter two hold identical trainable parameters
and differ only in how candidates are decoded, so their checkpoints are
interchangeable.

Checkpoint file layout::

    bytes 0..3    magic b"SEBN"
    bytes 4..7    format version, u32 little-endian (currently 1)
    bytes 8..11   metadata byte length, u32 little-endian
    metadata      UTF-8 JSON: model/encoder configs, vocabulary,
                  parameter directory (name, shape, offset, nbytes),
                  training step and optimizer state scalars
    payload       concatenated float32 little-endian row-major arrays,
                  one per directory entry, in directory order

Optimizer moment buffers ride along as directory entries named
``optim.m.<param>`` / ``optim.v.<param>`` so training resumes exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .data import Batch, Vocabulary
from .encoder import EncoderConfig, encode, init_encoder_params
from .errors import (
    CheckpointError,
    CompatibilityError,
    ContractError,
    DivergenceError,
)
from .optim import apply_step, clip_global_norm, state_from_meta, state_meta, state_moments
from .recurrent import GRU, LSTM, RecurrentParams, bidirectional_encode
from .span import (
    ALL_CHANNELS,
    JOINT_TOPK,
    RecallConfig,
    SpanCandidate,
    SpanLogits,
    decode_multichannel,
    init_head_params,
    score,
    span_loss,
)
from .tensor import Tape, Tensor, backward, zero_grads

BERT_BASELINE = "bert_baseline"
SEBERTNETS = "sebertnets"
HSEBERTNETS = "hsebertnets"
VARIANTS = (BERT_BASELINE, SEBERTNETS, HSEBERTNETS)
_RECURRENT = (SEBERTNETS, HSEBERTNETS)

MAGIC = b"SEBN"
FORMAT_VERSION = 1
CLIP_NORM = 5.0


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
        if not isinstance(self.hidden_size, int) or self.hidden_size < 1:
            raise ContractError(f"hidden_size must be an int >= 1, got {self.hidden_size!r}")

    @property
    def recurrent(self) -> bool:
        return self.variant in _RECURRENT


def _default_channels(variant: str) -> frozenset:
    return ALL_CHANNELS if variant == HSEBERTNETS else frozenset((JOINT_TOPK,))


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

    def _valid_rows(self, batch: Batch) -> np.ndarray:
        b, s = batch.token_ids.shape
        valid = np.zeros((b, s), dtype=bool)
        for i in range(b):
            first, last = batch.text_spans[i]
            valid[i, first:last + 1] = True
        return valid

    def forward(self, batch: Batch, *, train: bool = False,
                rng: np.random.Generator | None = None
                ) -> tuple[SpanLogits, list[np.ndarray]]:
        """Span logits for a batch plus per-layer attention weights."""
        if int(batch.token_ids.max(initial=0)) >= self.enc_cfg.vocab_size:
            raise CompatibilityError(
                f"batch holds token id {int(batch.token_ids.max())} but the "
                f"model vocabulary has {self.enc_cfg.vocab_size} entries"
            )
        enc = encode(batch.token_ids, batch.segment_ids, batch.attention_mask,
                     self.encoder_params, self.enc_cfg, train=train, rng=rng)
        h = enc.hidden
        if self.cfg.recurrent:
            h = bidirectional_encode(h, batch.attention_mask,
                                     self.rnn_fwd, self.rnn_bwd, self.cfg.cell)
        logits = score(h, self.head_params, self._valid_rows(batch))
        return logits, enc.attentions

    # ------------------------------------------------------------ decode

    def recall_config(self, k: int = 5, max_span_len: int = 30) -> RecallConfig:
        return RecallConfig(k=k, max_span_len=max_span_len,
                            channels=_default_channels(self.cfg.variant))

    def predict(self, batch: Batch, recall: RecallConfig | None = None
                ) -> list[list[SpanCandidate]]:
        """Ranked candidate lists, one per example, using the variant's
        default channels unless ``recall`` overrides them."""
        if len(batch.items) != len(batch):
            raise ContractError("batch lacks per-example items; build it with "
                                "data.batch() to predict")
        cfg = recall if recall is not None else self.recall_config()
        logits, _ = self.forward(batch, train=False)
        out = []
        for i, item in enumerate(batch.items):
            out.append(decode_multichannel(
                logits.example(i), item.text, item.text_span, cfg))
        return out

    # ----------------------------------------------------------- training

    def train_step(self, batch: Batch, state, rng: np.random.Generator,
                   clip_norm: float = CLIP_NORM) -> float:
        """One optimization step; returns the (finite) batch loss."""
        golds = batch.golds
        if (golds < 0).any():
            raise ContractError(
                "training batch holds examples without a gold span; flatten "
                "the corpus before batching"
            )
        params = self.parameters()
        zero_grads(params.values())
        with Tape() as tape:
            logits, _ = self.forward(batch, train=True, rng=rng)
            loss = span_loss(logits, golds)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise DivergenceError(
                f"loss became {loss_val} at training step {self.step + 1}"
            )
        backward(tape, loss)
        grads = {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }
        clip_global_norm(grads, clip_norm)
        apply_step(params, grads, state)
        self.step += 1
        return loss_val

    # -------------------------------------------------------- persistence

    def save(self, path, optimizer_state=None) -> None:
        save_checkpoint(self, path, optimizer_state)

    @classmethod
    def load(cls, path, variant: str | None = None
             ) -> tuple["Model", object | None]:
        return load_checkpoint(path, variant)


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
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(meta_bytes)
        fh.write(bytes(payload))


def _read_meta(blob: bytes) -> tuple[dict, int]:
    if len(blob) < 12:
        raise CheckpointError("file shorter than the 12-byte header",
                              offset=len(blob))
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}",
                              offset=0)
    version, meta_len = struct.unpack("<II", blob[4:12])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format version {version}, expected {FORMAT_VERSION}",
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
    for key in ("model", "encoder", "vocab", "training", "params"):
        if key not in meta:
            raise CheckpointError(f"metadata lacks the {key!r} section",
                                  offset=12)
    return meta, meta_len


def _families_match(stored: str, requested: str) -> bool:
    stored_rec = stored in _RECURRENT
    return stored_rec == (requested in _RECURRENT)


def _rebuild(meta: dict, arrays: dict[str, np.ndarray], variant: str
             ) -> tuple[Model, object | None]:
    """The model, decoded as ``variant``, and optimizer state that the
    checked metadata and payload arrays describe."""
    cfg = ModelConfig(variant=variant, cell=meta["model"].get("cell"),
                      hidden_size=meta["model"].get("hidden_size"))
    enc_cfg = EncoderConfig(**meta["encoder"])
    vocab = Vocabulary.from_json(meta["vocab"])
    model = Model(cfg, enc_cfg, vocab, seed=0)
    model.step = int(meta["training"]["step"])

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

    m = {}
    v = {}
    for name in params:
        if f"optim.m.{name}" in arrays:
            m[name] = arrays[f"optim.m.{name}"]
            v[name] = arrays[f"optim.v.{name}"]
    return model, state_from_meta(meta["training"]["optimizer"], m, v)


def load_checkpoint(path, variant: str | None = None
                    ) -> tuple[Model, object | None]:
    """Rebuild a model (and optimizer state, if stored) from ``path``.

    ``variant`` may override the stored one when both share a parameter
    family: the two recurrent variants are interchangeable, the encoder
    baseline is not interchangeable with either.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    meta, meta_len = _read_meta(blob)

    directory = meta["params"]
    base = 12 + meta_len
    expect = 0
    for entry in directory:
        nfloats = 1
        for dim in entry["shape"]:
            nfloats *= dim
        if entry["nbytes"] != 4 * nfloats:
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

    arrays: dict[str, np.ndarray] = {}
    for entry in directory:
        start = base + entry["offset"]
        raw = blob[start:start + entry["nbytes"]]
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(
            entry["shape"]).copy()

    stored_variant = meta["model"].get("variant")
    target = variant if variant is not None else stored_variant
    if variant is not None and not _families_match(stored_variant, target):
        raise CompatibilityError(
            f"checkpoint built for {stored_variant!r} cannot be loaded as "
            f"{target!r}: parameter sets differ"
        )
    try:
        return _rebuild(meta, arrays, target)
    except ContractError as exc:
        raise CheckpointError(str(exc), offset=12) from exc
